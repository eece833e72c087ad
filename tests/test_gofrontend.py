"""Go frontend goldens (gosrc2cpg analog, `joern_ray/parsing/gofrontend.py`).

Reference shape: `joern-cli/frontends/gosrc2cpg` — package namespace,
receiver methods as Type.name, struct TYPE_DECLs + MEMBERs, `:=` short
declarations, C-shaped FOR/WHILE lowering feeding the shared CFG builder.
"""

import collections
import shutil

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.gofrontend import GoFragmentParser

GO_SRC = """package util

import (
    "fmt"
    "strings"
)

type Server struct {
    name string
    port int
}

type Handler interface {
    Handle(x int) int
}

type Alias = Server

func NewServer(name string, port int) *Server {
    s := &Server{}
    return s
}

func (s *Server) Start(retries int) int {
    total := 0
    for i := 0; i < retries; i++ {
        if total > 10 {
            break
        }
        total += s.step(i)
    }
    return total
}

func (s *Server) step(i int) int {
    fmt.Println(i)
    return i + 1
}
"""


def _parse(src=GO_SRC):
    p = GoFragmentParser()
    root = p.parse(src, "https://go/1", 0)
    return root, flatten(root, "https://go/1", 0, "go")


def test_package_and_imports():
    _root, (nodes, edges) = _parse()
    ns = [n for n in nodes if n["label"] == "NAMESPACE_BLOCK"]
    assert ns and ns[0]["name"] == "util"
    imps = {n["name"] for n in nodes if n["label"] == "IMPORT"}
    assert imps == {"fmt", "strings"}


def test_methods_and_receiver_qualification():
    _root, (nodes, _e) = _parse()
    methods = {n["full_name"]: n for n in nodes if n["label"] == "METHOD"}
    assert "util.NewServer" in methods
    assert "Server.Start" in methods
    assert "Server.step" in methods
    # signature: return type + param types (receiver first for methods)
    assert methods["util.NewServer"]["signature"] == "*Server(string,int)"
    assert methods["Server.step"]["signature"] == "int(Server,int)"


def test_typed_receiver_call_resolves():
    _root, (nodes, _e) = _parse()
    calls = {n["method_full_name"] for n in nodes if n["label"] == "CALL"}
    assert "Server.step" in calls  # s.step(i) via the typed receiver
    assert "fmt.Println" in calls  # package selector qualification


def test_struct_members_and_alias():
    _root, (nodes, _e) = _parse()
    tds = {n["full_name"]: n for n in nodes if n["label"] == "TYPE_DECL"}
    assert "util.Server" in tds and "util.Handler" in tds
    assert tds["util.Alias"]["signature"] == "alias:Server"
    members = {n["name"] for n in nodes if n["label"] == "MEMBER"}
    assert members == {"name", "port"}


def test_short_decl_and_control_flow():
    _root, (nodes, _e) = _parse()
    locals_ = {n["name"] for n in nodes if n["label"] == "LOCAL"}
    assert {"s", "total", "i"} <= locals_
    cs = collections.Counter(
        n["name"] for n in nodes if n["label"] == "CONTROL_STRUCTURE"
    )
    assert cs["FOR"] == 1 and cs["IF"] == 1 and cs["BREAK"] == 1


def test_cfg_overlays_on_go_method():
    root, _rows = _parse()
    preds = collections.Counter(p for _a, p, _b, _v in method_overlays(root))
    assert preds["CFG"] >= 8
    assert preds["DOMINATE"] >= 1
    assert preds["REACHING_DEF"] >= 1
    assert preds["CONTAINS"] >= 1


def test_go_if_init_clause_and_range():
    src = (
        "package main\n"
        "func count(xs []int) int {\n"
        "    n := 0\n"
        "    for _, v := range xs {\n"
        "        n += v\n"
        "    }\n"
        "    if m := n * 2; m > 10 {\n"
        "        return m\n"
        "    }\n"
        "    return n\n"
        "}\n"
    )
    _root, (nodes, _e) = _parse(src)
    methods = [n for n in nodes if n["label"] == "METHOD"]
    assert methods[0]["full_name"] == "count"  # main package -> bare name
    cs = collections.Counter(n["name"] for n in nodes if n["label"] == "CONTROL_STRUCTURE")
    assert cs["FOR"] == 1 and cs["IF"] == 1
    locals_ = {n["name"] for n in nodes if n["label"] == "LOCAL"}
    assert {"n", "m", "v"} <= locals_


def test_go_raw_string_and_switch():
    src = (
        "package main\n"
        "func kind(x int) string {\n"
        "    q := `raw \"quoted\" text`\n"
        "    switch x {\n"
        "    case 1:\n"
        "        return q\n"
        "    default:\n"
        "        return \"other\"\n"
        "    }\n"
        "}\n"
    )
    _root, (nodes, _e) = _parse(src)
    jts = [n for n in nodes if n["label"] == "JUMP_TARGET"]
    assert {n["name"] for n in jts} == {"case", "default"}
    cs = [n for n in nodes if n["label"] == "CONTROL_STRUCTURE" and n["name"] == "SWITCH"]
    assert len(cs) == 1


def test_go_pipeline_end_to_end(ray_session, tmp_path):
    """Full pipeline over a go doc: cross-document call linking by
    package-qualified name + lang shows up in the method table."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    lib = (
        '<html><body><pre><code class="language-go">'
        "package util\n"
        "func Helper(n int) int {\n"
        "    return n + 1\n"
        "}\n"
        "</code></pre></body></html>"
    )
    use = (
        '<html><body><pre><code class="language-go">'
        "package main\n"
        "func main() {\n"
        "    v := util.Helper(41)\n"
        "    _ = v\n"
        "}\n"
        "</code></pre></body></html>"
    )
    out = str(tmp_path / "gocpg")
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://golib/1", "https://gouse/1"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array([lib.encode(), use.encode()], pa.large_binary()),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "go-e2e-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "full_name", "lang"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    methods = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    by_fqn = dict(
        zip(methods.column("full_name").to_pylist(), methods.column("id").to_pylist())
    )
    assert "util.Helper" in by_fqn
    langs = set(methods.column("lang").to_pylist())
    assert "go" in langs
    edges = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    call_objs = set(
        edges.filter(pc.equal(edges.column("pred"), "CALL")).column("obj").to_pylist()
    )
    # util.Helper(41) in the OTHER document links to the real method
    assert by_fqn["util.Helper"] in call_objs

"""Goldens for previously run-but-unverified components (round-2 verdict
"verify the unverified nine"): META_DATA fields, NaiveCallLinker
resolution, TypeRefPass endpoints, CONFIG_FILE nodes, usage-slice counts,
DOT export content, method feature vectors.
"""

import collections
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from joern_ray.functions.hashing import hash64
from joern_ray.stages.link import stub_id, type_id

# Two python docs: Util.helper defined in doc A; doc B calls u.helper()
# on an untyped receiver — NaiveCallLinker must resolve it to the UNIQUE
# known method with terminal name `helper` (reference
# `NaiveCallLinker.scala:12-29`).
DOC_A = (
    '<html><body><pre><code class="language-python">'
    "class Util:\n"
    "    def helper(self):\n"
    "        return 1\n"
    "</code></pre></body></html>"
)
DOC_B = (
    '<html><body><pre><code class="language-python">'
    "def run(u):\n"
    "    return u.helper()\n"
    "</code></pre></body></html>"
)


@pytest.fixture(scope="module")
def misc_cpg(ray_session, tmp_path_factory):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    out = str(tmp_path_factory.mktemp("misc") / "cpg")
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://misc/a", "https://misc/b"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array(
                    [DOC_A.encode(), DOC_B.encode()], pa.large_binary()
                ),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "misc-goldens-1")
    import ray.data as rd

    nodes = pa.concat_tables(
        list(
            rd.read_parquet(
                res["nodes_path"],
                columns=[
                    "id", "label", "name", "full_name", "signature", "code", "lang",
                ],
            ).iter_batches(batch_format="pyarrow")
        )
    )
    edges = pa.concat_tables(
        list(
            rd.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    return res, nodes, edges


def test_metadata_node_fields(misc_cpg):
    """MetaDataPass golden (reference `MetaDataPass.scala:15-39`: language
    + overlay record)."""
    res, nodes, _edges = misc_cpg
    md = nodes.filter(pc.equal(nodes.column("label"), "META_DATA"))
    assert md.num_rows == 1
    assert md.column("name")[0].as_py() == "joern_ray"
    assert md.column("full_name")[0].as_py() == "misc-goldens-1"
    overlays = md.column("code")[0].as_py().split(";")
    for required in ("base", "cfg", "dominators", "reachingdef", "linking"):
        assert required in overlays
    langs = md.column("lang")[0].as_py().split(";")
    assert "python" in langs and "c" in langs
    assert md.column("id")[0].as_py() == hash64("META_DATA", "misc-goldens-1")


def test_naive_call_linker_resolves_unique_name(misc_cpg):
    """u.helper() (untyped receiver) links to the REAL Util.helper —
    not a stub — because `helper` names exactly one known method."""
    _res, nodes, edges = misc_cpg
    methods = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    by_fqn = dict(
        zip(methods.column("full_name").to_pylist(), methods.column("id").to_pylist())
    )
    assert "Util.helper" in by_fqn
    call_objs = set(
        edges.filter(pc.equal(edges.column("pred"), "CALL")).column("obj").to_pylist()
    )
    assert by_fqn["Util.helper"] in call_objs
    # and NO stub was created for the dotted u.helper fqn
    assert stub_id("u.helper") not in set(nodes.column("id").to_pylist())


def test_typeref_edge_endpoints(misc_cpg):
    """TypeRefPass golden (reference `base/TypeRefPass.scala:9-30`):
    TYPE dimension row REFs its TYPE_DECL."""
    _res, nodes, edges = misc_cpg
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    td_by_fqn = dict(
        zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist())
    )
    assert "Util" in td_by_fqn
    ref_pairs = set(
        zip(
            edges.filter(pc.equal(edges.column("pred"), "REF")).column("subj").to_pylist(),
            edges.filter(pc.equal(edges.column("pred"), "REF")).column("obj").to_pylist(),
        )
    )
    assert (type_id("Util"), td_by_fqn["Util"]) in ref_pairs
    # the TYPE dimension node itself exists
    type_rows = nodes.filter(pc.equal(nodes.column("id"), pa.scalar(type_id("Util"), pa.uint64())))
    assert type_rows.num_rows == 1 and type_rows.column("label")[0].as_py() == "TYPE"


def test_config_file_nodes():
    """XConfigFileCreationPass golden: a json fragment becomes a
    CONFIG_FILE node (no Ray needed — direct stage invocation)."""
    from joern_ray.stages.extract import detect_fragments_batch
    from joern_ray.stages.parse import ParseFragments

    doc = b'<pre><code class="language-json">{"name": "pkg", "version": "1.0"}</code></pre>'
    batch = pa.table({"url": ["https://cfg/1"], "html": [doc]})
    out = ParseFragments()(detect_fragments_batch(batch))
    nodes = out.filter(pc.equal(out.column("row_kind"), "node"))
    labels = collections.Counter(nodes.column("label").to_pylist())
    assert labels["CONFIG_FILE"] == 1
    cfg = nodes.filter(pc.equal(nodes.column("label"), "CONFIG_FILE"))
    assert '"name"' in cfg.column("code")[0].as_py()


def test_usage_slices_hand_counted(ray_session):
    """UsageSlicing golden on a hand-counted fixture.  Usage = the
    identifier appears as an ARGUMENT of any call, INCLUDING the
    `<operator>.assignment` lowering of its own declaration initializer
    (operator calls are calls in the Joern model): x = decl-assign +
    g(x) + h(x) = 3, y = decl-assign + g(y) = 2."""
    import ray.data

    from joern_ray.graph.dataflow import usage_slices
    from joern_ray.parsing.astmodel import flatten
    from joern_ray.parsing.parser import FragmentParser

    src = (
        "void f(void) {\n"
        "  int x = 1;\n"
        "  int y = 2;\n"
        "  g(x);\n"
        "  h(x);\n"
        "  g(y);\n"
        "}\n"
    )
    root = FragmentParser("c").parse(src, "u", 0)
    nodes, edges = flatten(root, "u", 0, "c")
    et = pa.table(
        {
            "subj": pa.array([e["subj"] for e in edges], pa.uint64()),
            "pred": pa.array([e["pred"] for e in edges], pa.string()),
            "obj": pa.array([e["obj"] for e in edges], pa.uint64()),
        }
    )
    out = usage_slices(lambda: ray.data.from_arrow(et))
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    n_col = "n_uses" if "n_uses" in t.column_names else "sum(n_uses)"
    by_id = dict(zip(t.column("target").to_pylist(), t.column(n_col).to_pylist()))
    x_id = next(n["id"] for n in nodes if n["label"] == "LOCAL" and n["name"] == "x")
    y_id = next(n["id"] for n in nodes if n["label"] == "LOCAL" and n["name"] == "y")
    assert by_id.get(x_id) == 3
    assert by_id.get(y_id) == 2


def test_dot_export_content():
    """DOT generator goldens (reference DotAstGenerator/DotCfgGenerator):
    digraph wrapper, labeled nodes, edge arrows — content, not digest."""
    from joern_ray.io.export import method_ast_dot, method_overlay_dot
    from joern_ray.parsing.parser import FragmentParser

    src = "int add(int a, int b) {\n  if (a > b) {\n    return a;\n  }\n  return a + b;\n}\n"
    root = FragmentParser("c").parse(src, "u", 0)

    def methods(n):
        if n.label == "METHOD":
            yield n
        for c in n.children:
            yield from methods(c)

    m = next(methods(root))
    dot = method_ast_dot(m)
    assert dot.startswith('digraph "add"')
    assert dot.rstrip().endswith("}")
    assert "METHOD_PARAMETER_IN, int a" in dot
    assert "->" in dot
    cfg = method_overlay_dot(m, ("CFG",), "cfg")
    assert cfg.startswith('digraph "add-cfg"') and "->" in cfg


def test_method_vector_determinism_and_shape():
    """joern-vectors golden: deterministic, unit-normalized, non-trivial."""
    import numpy as np

    from joern_ray.functions.vectors import VECTOR_DIM, method_feature_vector
    from joern_ray.parsing.parser import FragmentParser

    src = "int add(int a, int b) {\n  return a + b;\n}\n"
    m1 = FragmentParser("c").parse(src, "u", 0)
    m2 = FragmentParser("c").parse(src, "u", 0)
    v1 = method_feature_vector(m1)
    v2 = method_feature_vector(m2)
    assert v1.shape == (VECTOR_DIM,)
    assert np.allclose(v1, v2)
    assert np.count_nonzero(v1) >= 3
    other = FragmentParser("c").parse(
        "int mul(int a, int b) {\n  return a * b;\n}\n", "u", 0
    )
    assert not np.allclose(v1, method_feature_vector(other))


STUB_DOC = (
    '<html><body><pre><code class="language-c">'
    "int go(int a, int b, int c) {\n"
    "  return frobnicate(a, b, c);\n"
    "}\n"
    "int go2(int a) {\n"
    "  return frobnicate(a);\n"
    "}\n"
    "</code></pre></body></html>"
)


def test_callsummary_stub_arity(ray_session, tmp_path_factory):
    """CallSummary -> MethodStubCreator golden (reference
    `MethodStubCreator.scala:24-70`): an unresolved 3-arg call produces
    a stub METHOD whose signature carries MAX-arity ANY parameters
    (`ANY(ANY,ANY,ANY)`) even when another call site passes fewer."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    out = str(tmp_path_factory.mktemp("stubarity") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://stub/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([STUB_DOC.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "stubarity-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"],
                columns=["id", "label", "name", "full_name", "signature"],
            ).iter_batches(batch_format="pyarrow")
        )
    )
    stubs = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "METHOD"),
            pc.equal(pc.coalesce(nodes.column("full_name"), pa.scalar("")), "frobnicate"),
        )
    )
    assert stubs.num_rows == 1
    assert stubs.column("id")[0].as_py() == stub_id("frobnicate")
    assert stubs.column("signature")[0].as_py() == "ANY(ANY,ANY,ANY)"


def test_graphson_digest(tmp_path):
    """GraphSON exporter golden: byte-stable output for a fixed graph
    (reference `JoernExport.scala` Graphson format)."""
    import hashlib
    import json

    from joern_ray.io.export import export_graphson

    nodes = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.uint64()),
            "label": ["METHOD", "CALL", "LITERAL"],
            "name": ["main", "printf", None],
            "code": ["int main()", 'printf("x")', '"x"'],
        }
    )
    edges = pa.table(
        {
            "subj": pa.array([1, 2], pa.uint64()),
            "pred": ["CONTAINS", "ARGUMENT"],
            "obj": pa.array([2, 3], pa.uint64()),
        }
    )
    p = export_graphson(nodes, edges, str(tmp_path / "g.json"))
    raw = open(p, "rb").read()
    doc = json.loads(raw)
    assert len(doc["vertices"]) == 3 and len(doc["edges"]) == 2
    assert doc["vertices"][0]["id"] == {"@type": "g:Int64", "@value": 1}
    assert doc["edges"][1] == {
        "id": {"@type": "g:Int64", "@value": 1},
        "label": "ARGUMENT",
        "outV": {"@type": "g:Int64", "@value": 2},
        "inV": {"@type": "g:Int64", "@value": 3},
    }
    digest = hashlib.sha256(raw).hexdigest()
    assert digest == "401ec0efee9b338526b8617734023796330b786c915c968d46baf23acc257465"


def test_partitioned_write_edge_duplication_guard(ray_session, tmp_path):
    """Global (subj,pred,obj,variable) edge dedup on the linked-edge
    write (reference guard `DynamicCallLinker.scala:181-192`): two
    linker passes resolving the same call emit ONE edge; REACHING_DEF
    rows differing only in `variable` both survive."""
    import ray.data

    from joern_ray.io.checkpoint import partitioned_write

    t = pa.table(
        {
            "subj": pa.array([1, 1, 1, 2, 2, 2, 3], pa.uint64()),
            "pred": ["CALL", "CALL", "CALL", "REACHING_DEF", "REACHING_DEF", "REACHING_DEF", "REF"],
            "obj": pa.array([10, 10, 11, 20, 20, 20, 30], pa.uint64()),
            "variable": [None, None, None, "x", "y", "x", None],
        }
    )
    out = str(tmp_path / "edges")
    partitioned_write(ray.data.from_arrow(t), out, "edges", "dupguard-1", 4, in_blocks=1)
    got = pa.concat_tables(
        list(
            ray.data.read_parquet(out, columns=["subj", "pred", "obj", "variable"])
            .iter_batches(batch_format="pyarrow")
        )
    )
    rows = sorted(
        zip(
            got.column("subj").to_pylist(),
            got.column("pred").to_pylist(),
            got.column("obj").to_pylist(),
            got.column("variable").to_pylist(),
        )
    )
    assert rows == [
        (1, "CALL", 10, None),  # planted duplicate collapsed
        (1, "CALL", 11, None),
        (2, "REACHING_DEF", 20, "x"),  # variable-distinct rows survive
        (2, "REACHING_DEF", 20, "y"),
        (3, "REF", 30, None),
    ]


def test_typedecl_stubs_for_external_types(ray_session, tmp_path):
    """TypeDeclStubCreator golden (reference
    `base/TypeDeclStubCreator.scala:13-58`): a referenced-but-undeclared
    type gets an external TYPE_DECL stub and the TYPE dimension REF-links
    to it, so traversals go one hop further than the TYPE node."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg
    from joern_ray.stages.link import type_id, typedecl_stub_id

    doc = (
        '<html><body><pre><code class="language-python">'
        "def f(x: Widget):\n"
        "    return x\n"
        "</code></pre></body></html>"
    )
    out = str(tmp_path / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://tds/app.py"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "tds-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "name", "full_name", "code"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    # Widget is referenced (annotation) but never declared -> stub
    stub = nodes.filter(
        pc.equal(nodes.column("id"), pa.scalar(typedecl_stub_id("Widget"), pa.uint64()))
    )
    assert stub.num_rows == 1
    assert stub.column("label")[0].as_py() == "TYPE_DECL"
    assert stub.column("code")[0].as_py() == "<external>"
    assert stub.column("full_name")[0].as_py() == "Widget"
    edges = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    trip = set(
        zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
    )
    assert (type_id("Widget"), "REF", typedecl_stub_id("Widget")) in trip

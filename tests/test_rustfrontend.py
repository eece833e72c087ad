"""Rust frontend goldens (rust2cpg analog,
`joern_ray/parsing/rustfrontend.py`).

Reference shape: `joern-cli/frontends/rust2cpg` — use imports, structs
with MEMBERs, trait/impl TYPE_DECLs (impl blocks canonicalize + re-link
through the cross-fragment AstLinkerPass), `Type::new()` let typing,
match/for lowerings.
"""

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.rustfrontend import RustFragmentParser

RS_SRC = """use std::collections::HashMap;

struct Point {
    x: i64,
    y: i64,
}

trait Shape {
    fn area(&self) -> i64;
}

impl Shape for Point {
    fn area(&self) -> i64 {
        return self.x * self.y;
    }
}

impl Point {
    fn new(x: i64, y: i64) -> Point {
        return Point { x: x, y: y };
    }
    fn scale(&self, k: i64) -> i64 {
        return self.x * k;
    }
}

fn visit(n: i64) -> i64 {
    let p = Point::new(n, 2);
    let mut total = 0;
    for i in items {
        total = total + i;
    }
    match total {
        0 => total = 1,
        _ => total = n,
    }
    if total > 3 {
        println(total);
    }
    return p.scale(total);
}
"""


def _parse(src=RS_SRC):
    p = RustFragmentParser()
    root = p.parse(src, "https://rs/1", 0)
    return root, flatten(root, "https://rs/1", 0, "rust")


def test_structs_traits_impls_imports():
    _root, (nodes, _e) = _parse()
    tds = [n for n in nodes if n["label"] == "TYPE_DECL"]
    by_name = {}
    for n in tds:
        by_name.setdefault(n["full_name"], []).append(n)
    # struct decl absorbs the fragment-local impl blocks (ONE Point);
    # the trait lands in its inherits list
    assert len(by_name["Point"]) == 1
    assert len(by_name["Shape"]) == 1
    assert by_name["Point"][0]["type_full_name"] == "Shape" 
    mems = {n["full_name"]: n for n in nodes if n["label"] == "MEMBER"}
    assert mems["Point.x"]["type_full_name"] == "i64"
    meths = {n["full_name"]: n for n in nodes if n["label"] == "METHOD"}
    assert {"Point.new", "Point.scale", "Point.area", "Shape.area", "visit"} <= set(meths)
    assert meths["visit"]["signature"] == "i64(i64)"
    assert meths["Point.new"]["signature"] == "Point(i64,i64)"
    imports = {n["name"] for n in nodes if n["label"] == "IMPORT"}
    assert "std.collections.HashMap" in imports


def test_let_typing_and_path_calls():
    _root, (nodes, _e) = _parse()
    calls = {n["method_full_name"] for n in nodes if n["label"] == "CALL"}
    assert "Point.new" in calls  # Type::new path call
    assert "Point.scale" in calls  # let p = Point::new(); p.scale()
    unknowns = [n for n in nodes if n["label"] == "UNKNOWN"]
    assert not unknowns, unknowns


def test_match_for_lowering_and_overlays():
    root, (nodes, _e) = _parse()
    cs = [n for n in nodes if n["label"] == "CONTROL_STRUCTURE"]
    names = {n["name"] for n in cs}
    assert {"SWITCH", "WHILE", "IF"} <= names
    ov = method_overlays(root)
    preds = {p for _a, p, _b, _v in ov}
    assert {"CFG", "DOMINATE", "CONTAINS", "REACHING_DEF"} <= preds


def test_rust_pipeline_impl_unification(ray_session, tmp_path_factory):
    """Full pipeline: a CROSS-document `impl Point` duplicates the
    TYPE_DECL; canonicalization + the cross-fragment AstLinkerPass hang
    ALL Point methods off the canonical decl (one AST tree), and p.scale
    links to Point.scale."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    def _rs_doc(body):
        return (
            '<html><body><pre><code class="language-rust">'
            + body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            + "</code></pre></body></html>"
        )

    doc1 = _rs_doc(RS_SRC)
    doc2 = _rs_doc(
        "impl Point {\n"
        "    fn shrink(&self, k: i64) -> i64 {\n"
        "        return self.x / k;\n"
        "    }\n"
        "}\n"
    )
    out = str(tmp_path_factory.mktemp("rsdyn") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://rsdyn/1", "https://rsdyn/2.rs"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array([doc1.encode(), doc2.encode()], pa.large_binary()),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "rsdyn-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "name", "full_name", "lang"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    edges = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    m_by = dict(zip(meths.column("full_name").to_pylist(), meths.column("id").to_pylist()))
    assert {"Point.new", "Point.scale", "Point.shrink", "visit"} <= set(m_by)
    assert set(
        meths.filter(
            pc.equal(pc.coalesce(meths.column("full_name"), pa.scalar("")), "visit")
        ).column("lang").to_pylist()
    ) == {"rust"}
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    td_by = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    assert "Point" in td_by
    assert any(f.startswith("Point<duplicate>") for f in td_by)
    canon = td_by["Point"]
    trip = set(
        zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
    )
    # local impl methods hang off Point via the parse-time AST edges;
    # the cross-document impl's method re-links through AstLinkerPass
    assert (canon, "AST", m_by["Point.new"]) in trip
    assert (canon, "AST", m_by["Point.scale"]) in trip
    assert (canon, "AST", m_by["Point.shrink"]) in trip
    # p.scale resolves through the let typing
    calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "scale"),
        )
    )
    assert calls.num_rows == 1
    cid = calls.column("id")[0].as_py()
    assert (cid, "CALL", m_by["Point.scale"]) in trip

"""Swift frontend goldens (swiftsrc2cpg analog,
`joern_ray/parsing/swiftfrontend.py`).

Reference shape: `joern-cli/frontends/swiftsrc2cpg` — imports, classes
with stored-property MEMBERs and `C.init` initializers, extensions
(canonicalize + re-link through the cross-fragment AstLinkerPass),
`let x = C()` typing, guard/switch/for-in lowerings.
"""

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.swiftfrontend import SwiftFragmentParser

SW_SRC = """import Foundation

class Greeter: Base, Printable {
    var name: String = "unset"
    let limit: Int = 3
    init(name: String) {
        self.name = name
    }
    func greet(times n: Int) -> Int {
        var total = 0
        for i in items {
            total = total + n
        }
        if total > self.limit {
            return total
        }
        return 0
    }
}

extension Greeter {
    func shout() -> String {
        return self.name
    }
}

enum Status {
    case ok
    case failed(Int)
}

func run(x: Int, _ y: Int) -> Int {
    let g = Greeter(name: "a")
    guard let v = lookup(x) else {
        return 0
    }
    switch x {
    case 1:
        print(v)
    default:
        print(x)
    }
    return g.greet(times: y)
}
"""


def _parse(src=SW_SRC):
    p = SwiftFragmentParser()
    root = p.parse(src, "https://sw/1", 0)
    return root, flatten(root, "https://sw/1", 0, "swift")


def test_classes_extensions_enums_imports():
    _root, (nodes, _e) = _parse()
    tds = [n for n in nodes if n["label"] == "TYPE_DECL"]
    by_name = {}
    for n in tds:
        by_name.setdefault(n["full_name"], []).append(n)
    # the fragment-local extension merges into the class decl (ONE
    # Greeter); inherits list is ;-joined
    assert len(by_name["Greeter"]) == 1
    assert by_name["Greeter"][0]["type_full_name"] == "Base;Printable"
    assert len(by_name["Status"]) == 1
    mems = {n["full_name"]: n for n in nodes if n["label"] == "MEMBER"}
    assert mems["Greeter.name"]["type_full_name"] == "String"
    assert mems["Greeter.limit"]["type_full_name"] == "Int"
    # enum cases lower to MEMBERs (swiftsrc2cpg's enum-case lowering)
    assert {"Status.ok", "Status.failed"} <= set(mems)
    meths = {n["full_name"]: n for n in nodes if n["label"] == "METHOD"}
    assert {"Greeter.init", "Greeter.greet", "Greeter.shout", "run"} <= set(meths)
    # labeled params bind the INTERNAL name; signature from the types
    assert meths["Greeter.greet"]["signature"] == "Int(Int)"
    assert meths["run"]["signature"] == "Int(Int,Int)"
    imports = {n["name"] for n in nodes if n["label"] == "IMPORT"}
    assert "Foundation" in imports


def test_init_typing_and_member_calls():
    _root, (nodes, _e) = _parse()
    calls = {n["method_full_name"] for n in nodes if n["label"] == "CALL"}
    # `Greeter(name:)` links to the initializer; `g.greet` dispatches
    # through the let-typed local
    assert "Greeter.init" in calls
    assert "Greeter.greet" in calls
    # `self.name = name` rides the shared `this` member machinery
    assert "<operator>.fieldAccess" in calls
    unknowns = [n for n in nodes if n["label"] == "UNKNOWN"]
    assert not unknowns, unknowns


def test_guard_switch_for_lowering_and_overlays():
    root, (nodes, _e) = _parse()
    cs = [n for n in nodes if n["label"] == "CONTROL_STRUCTURE"]
    names = {n["name"] for n in cs}
    assert {"SWITCH", "WHILE", "IF"} <= names
    # guard binds v as a LOCAL (DDG-visible)
    locals_ = {n["name"] for n in nodes if n["label"] == "LOCAL"}
    assert "v" in locals_
    ov = method_overlays(root)
    preds = {p for _a, p, _b, _v in ov}
    assert {"CFG", "DOMINATE", "CONTAINS", "REACHING_DEF"} <= preds


def test_swift_pipeline_extension_unification(ray_session, tmp_path_factory):
    """Full pipeline: a CROSS-document `extension Greeter` duplicates
    the TYPE_DECL; canonicalization + the cross-fragment AstLinkerPass
    hang ALL Greeter methods off the canonical decl (one AST tree)."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    def _sw_doc(body):
        return (
            '<html><body><pre><code class="language-swift">'
            + body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            + "</code></pre></body></html>"
        )

    doc1 = _sw_doc(SW_SRC)
    doc2 = _sw_doc(
        "extension Greeter {\n"
        "    func whisper() -> String {\n"
        "        return self.name\n"
        "    }\n"
        "}\n"
    )
    out = str(tmp_path_factory.mktemp("swdyn") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://swdyn/1", "https://swdyn/2.swift"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array([doc1.encode(), doc2.encode()], pa.large_binary()),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "swdyn-1")
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
    assert {"Greeter.init", "Greeter.greet", "Greeter.whisper", "run"} <= set(m_by)
    assert set(
        meths.filter(
            pc.equal(pc.coalesce(meths.column("full_name"), pa.scalar("")), "run")
        ).column("lang").to_pylist()
    ) == {"swift"}
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    td_by = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    assert "Greeter" in td_by
    assert any(f.startswith("Greeter<duplicate>") for f in td_by)
    canon = td_by["Greeter"]
    trip = set(
        zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
    )
    # local methods hang off Greeter via the parse-time AST edges; the
    # cross-document extension's method re-links through AstLinkerPass
    assert (canon, "AST", m_by["Greeter.greet"]) in trip
    assert (canon, "AST", m_by["Greeter.whisper"]) in trip
    # g.greet resolves through the let typing
    calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "greet"),
        )
    )
    assert calls.num_rows == 1
    cid = calls.column("id")[0].as_py()
    assert (cid, "CALL", m_by["Greeter.greet"]) in trip

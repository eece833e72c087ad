"""t1: traversal DSL over a built CPG — mirrors querydb query shapes
(`querydb/.../c/DangerousFunctions.scala:13-52`:
`cpg.method("(?i)gets").callIn`)."""

import shutil

import pyarrow as pa
import pytest

OUT = "/tmp/joern_ray_test_dsl"

DOC = (
    '<html><body><pre><code class="language-c">'
    "int helper(int v) { return v + 1; }\n"
    "int main(void) {\n"
    "  char buf[8];\n"
    "  gets(buf);\n"
    "  int r = helper(2);\n"
    "  return r;\n"
    "}\n"
    "</code></pre></body></html>"
)


@pytest.fixture(scope="module")
def cpg(ray_session):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg
    from joern_ray.query.dsl import Cpg

    shutil.rmtree(OUT, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://dsl/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([DOC.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, OUT, "dsl-1")
    return Cpg(res["nodes_path"], res["edges_path"])


def test_method_starter_and_name_filter(cpg):
    t = cpg.method("helper").l(["name", "full_name"])
    assert t.column("name").to_pylist() == ["helper"]


def test_py_exec_scan_empty_on_graph_without_sinks(cpg):
    """No exec/eval/system/loads call in the graph: the scan returns an
    empty findings table instead of raising on an untyped empty mask."""
    from joern_ray.query.scanners import q_py_exec

    assert q_py_exec(cpg).num_rows == 0


def test_dangerous_function_scan_shape(cpg):
    """cpg.method(\"(?i)gets\").callIn — the reference query pattern."""
    calls = cpg.method("^gets$").call_in().l(["label", "code"])
    assert calls.column("label").to_pylist() == ["CALL"]
    assert calls.column("code")[0].as_py() == "gets(buf)"


def test_call_callee_resolves(cpg):
    callee = cpg.call("^helper$").callee().l(["label", "name", "code"])
    assert callee.column("label").to_pylist() == ["METHOD"]
    assert callee.column("code")[0].as_py().startswith("int helper")


def test_ast_children_of_method(cpg):
    kids = cpg.method("^main$").ast_children().l(["label"])
    labels = set(kids.column("label").to_pylist())
    assert "BLOCK" in labels and "METHOD_RETURN" in labels


def test_argument_expansion(cpg):
    args = cpg.call("^gets$").argument().l(["label", "name"])
    assert ("IDENTIFIER", "buf") in list(
        zip(args.column("label").to_pylist(), args.column("name").to_pylist())
    )


def test_literal_and_code_filter(cpg):
    lits = cpg.literal("^2$").l(["code"])
    assert "2" in lits.column("code").to_pylist()


def test_contains_and_parent(cpg):
    inside = cpg.method("^main$").contains().l(["label"])
    assert "CALL" in set(inside.column("label").to_pylist())
    par = cpg.call("^gets$").ast_parent().l(["label"])
    assert par.num_rows >= 1


def test_reachable_by(cpg):
    """r (use in return) is reachable from the helper-call assignment."""
    ret_uses = cpg.identifier().name("^r$")
    sources = cpg.call().code(".*r = helper.*")
    hits = ret_uses.reachable_by(sources).l(["label", "code"])
    assert hits.num_rows >= 1


def test_call_return_type_recovery(cpg, ray_session):
    """Resolved calls get EVAL_TYPE to the callee's return type
    (cross-document type recovery, XTypeRecovery analog)."""
    import pyarrow.compute as pc
    import ray.data

    from joern_ray.stages.link import type_id

    call_ids = set(cpg.call("^helper$").l(["id"]).column("id").to_pylist())
    edges = pa.concat_tables(
        list(cpg.edges_ds().iter_batches(batch_format="pyarrow"))
    )
    ev = edges.filter(pc.equal(edges.column("pred"), "EVAL_TYPE"))
    pairs = set(zip(ev.column("subj").to_pylist(), ev.column("obj").to_pylist()))
    assert any((cid, type_id("int")) in pairs for cid in call_ids)


def test_ast_and_ast_minus_root(cpg):
    """`AstNodeTraversal.ast` includes the root; astMinusRoot drops it."""
    m = cpg.method("helper")
    sub = m.ast().l(["label"])
    labels = set(sub.column("label").to_pylist())
    assert "METHOD" in labels and "METHOD_PARAMETER_IN" in labels
    minus = m.ast_minus_root().l(["label"])
    assert "METHOD" not in set(minus.column("label").to_pylist())
    assert minus.num_rows == sub.num_rows - 1


def test_depth(cpg):
    """`AstNodeTraversal.depth` — helper's tree is deeper than 2 and the
    main method (with control flow) deeper than helper."""
    t_h = cpg.method("helper").depth()
    t_m = cpg.method("main").depth()
    d_h = t_h.column("depth")[0].as_py()
    d_m = t_m.column("depth")[0].as_py()
    assert d_h >= 3
    assert d_m >= d_h


def test_is_call_to_and_contains_call_to(cpg):
    """isCallTo filters the set itself; containsCallTo scans subtrees."""
    calls = cpg.call().is_call_to("gets").l(["code"])
    assert calls.column("code").to_pylist() == ["gets(buf)"]
    # main contains a gets() call, helper does not
    hits = cpg.method(".*").contains_call_to("gets").l(["name"])
    assert set(hits.column("name").to_pylist()) == {"main"}


def test_expand_join_regime_parity(cpg, monkeypatch):
    """Round-4 verdict #7: above JOERN_RAY_DSL_GATE, _expand hops via a
    distributed bucketed join instead of a driver id-set broadcast.
    Planted wide hop (gate=0 forces the join regime) must produce
    identical node sets to the broadcast regime."""

    def ids_of(step):
        t = step.l(["id", "label", "name"])
        return sorted(t.column("id").to_pylist())

    cases = [
        lambda: cpg.call().argument(),          # the wide-hop shape
        lambda: cpg.method().ast_children(),
        lambda: cpg.method("^gets$").call_in(),
    ]
    broadcast = [ids_of(c()) for c in cases]
    monkeypatch.setenv("JOERN_RAY_DSL_GATE", "0")
    joined = [ids_of(c()) for c in cases]
    monkeypatch.delenv("JOERN_RAY_DSL_GATE")
    assert broadcast == joined
    assert all(b for b in broadcast), "planted hops must be non-empty"

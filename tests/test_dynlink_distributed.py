"""Distributed INHERITS_FROM closure (over-gate dyn regime) parity.

The SAFEDISPATCH control plane has two regimes (reference
`DynamicCallLinker.scala:29-221`): below JOERN_RAY_DYN_GATE a driver
walk over collected survey key sets; above it the iterative
INHERITS_FROM self-join (`dyn_candidates_distributed`) where only the
final candidate pairs reach the driver.  Both must produce identical
candidate maps and — through the full pipeline — identical edge
multisets."""

import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest


def _driver_map(td, calls, known):
    """build_dyn_candidates + the cpg.py naive fallback merge."""
    from joern_ray.stages.link import build_dyn_candidates

    dyn = build_dyn_candidates(td, calls, frozenset(known))
    name_to = {}
    for f in known:
        name_to.setdefault(f.rsplit(".", 1)[-1], []).append(f)
    for fqn in calls:
        if fqn in known or fqn in dyn or "." not in fqn or fqn.startswith("<operator>"):
            continue
        c = name_to.get(fqn.rsplit(".", 1)[-1])
        if c and len(c) == 1:
            dyn[fqn] = [c[0]]
    return dyn


def test_distributed_candidates_match_driver_walk(ray_session):
    """Planted multi-level hierarchy (depth 3, diamond, superclass
    fallback, naive unique-name): the distributed closure reproduces the
    driver walk's map EXACTLY (keys, candidates, candidate order)."""
    import ray.data as rd

    from joern_ray.stages.link import dyn_candidates_distributed, dyn_table_to_map

    td = pa.table(
        {
            "full_name": ["B", "C", "D", "E", "F"],
            # A <- B <- C <- E (depth 3); B <- D (diamond w/ X); F alias
            "type_full_name": ["A", "B", "B;X", "C", "alias:ignored"],
        }
    )
    known = ["A.m", "C.m", "D.m", "E.m", "A.g", "Q.h", "B.f"]
    calls = ["A.m", "B.m", "Z.f", "A.g", "B.q", "h", "<operator>.assignment"]

    drv = _driver_map(td, calls, known)
    dist = dyn_table_to_map(
        dyn_candidates_distributed(
            rd.from_arrow(td),
            rd.from_arrow(pa.table({"fqn": calls})),
            rd.from_arrow(pa.table({"fqn": known})),
        )
    )
    # expectations worth pinning explicitly (beyond blind parity):
    assert drv["A.m"] == ["A.m", "C.m", "D.m", "E.m"]  # self + overrides
    assert drv["B.m"] == ["A.m", "C.m", "D.m", "E.m"]  # fallback + overrides
    assert drv["Z.f"] == ["B.f"]  # naive unique-name
    assert "A.g" not in drv  # known, no overrides -> no entry
    assert "B.q" not in drv  # nothing resolves
    assert dist == drv


_HIER_DOC = (
    '<html><body><pre><code class="language-java">'
    "public class Animal { public int speak() { return 0; } }\n"
    "public class Dog extends Animal { public int speak() { return 1; } }\n"
    "public class Puppy extends Dog { public int speak() { return 2; } }\n"
    "public class Zoo {\n"
    "  public int visit(Animal a) { return a.speak(); }\n"
    "  public int pet(Cat c) { return c.speak(); }\n"
    "}\n"
    "</code></pre></body></html>"
)


def _build(ray_session, out, gate):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://dynpar/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([_HIER_DOC.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    # both regimes at width 2, so the distributed closure really spreads
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("JOERN_RAY_DYN_GATE", str(gate))
        mp.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
        return build_cpg(docs_factory, out, "dynpar-1")


def _edge_multiset(res):
    import ray.data

    t = pa.concat_tables(
        list(
            ray.data.read_parquet(res["edges_path"], columns=["subj", "pred", "obj"])
            .iter_batches(batch_format="pyarrow")
        )
    )
    return sorted(
        zip(
            t.column("subj").to_pylist(),
            t.column("pred").to_pylist(),
            t.column("obj").to_pylist(),
        )
    )


@pytest.mark.slow
def test_full_pipeline_edge_parity_over_gate(ray_session):
    """JOERN_RAY_DYN_GATE=0 forces the distributed closure; the FULL
    edge multiset must equal the driver-regime build's (node ids are
    content hashes, so identical inputs give comparable ids)."""
    res_drv = _build(ray_session, "/tmp/joern_ray_test_dynpar_drv", 10_000_000)
    res_dist = _build(ray_session, "/tmp/joern_ray_test_dynpar_dist", 0)
    assert res_drv["dyn_regime"] == "driver"
    assert res_dist["dyn_regime"] == "distributed"
    e_drv = _edge_multiset(res_drv)
    e_dist = _edge_multiset(res_dist)
    assert e_drv == e_dist
    assert len(e_drv) > 0
    # and the hierarchy actually exercised multi-level dispatch: the
    # a.speak() site carries all three candidates
    import ray.data

    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(res_dist["nodes_path"])
            .iter_batches(batch_format="pyarrow")
        )
    )
    byid = dict(
        zip(nodes.column("id").to_pylist(), nodes.column("full_name").to_pylist())
    )
    speak_calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "speak"),
        )
    )
    call_ids = set(speak_calls.column("id").to_pylist())
    targets = {
        byid.get(o)
        for s, p, o in e_dist
        if p == "CALL" and s in call_ids and o in byid
    }
    assert {"Animal.speak", "Dog.speak", "Puppy.speak"} <= targets

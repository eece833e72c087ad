"""Distributed INHERITS_FROM closure (over-gate dyn regime) parity.

The SAFEDISPATCH control plane has two regimes (reference
`DynamicCallLinker.scala:29-221`): up to `DYN_DRIVER_GATE` a driver
walk over collected survey key sets (`build_dyn_candidates`); past it
the iterative INHERITS_FROM self-join (`dyn_candidates_distributed`)
where only the final candidate pairs reach the driver.  Both must
produce identical candidate maps and — through the full pipeline, with
every other resolver shared — identical edge multisets."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest


def test_distributed_candidates_match_driver_walk(ray_session):
    """Planted multi-level hierarchy (depth 3, diamond, superclass
    fallback, naive unique-name): the distributed closure reproduces the
    driver walk's map EXACTLY (keys, candidates, candidate order)."""
    import ray.data as rd

    from joern_ray.stages.link import build_dyn_candidates, dyn_candidates_distributed

    td = pa.table(
        {
            "full_name": ["B", "C", "D", "E", "F"],
            # A <- B <- C <- E (depth 3); B <- D (diamond w/ X); F alias
            "type_full_name": ["A", "B", "B;X", "C", "alias:ignored"],
        }
    )
    known = ["A.m", "C.m", "D.m", "E.m", "A.g", "Q.h", "B.f"]
    calls = ["A.m", "B.m", "Z.f", "A.g", "B.q", "h", "<operator>.assignment"]

    drv, drv_naive = build_dyn_candidates(td, calls, frozenset(known))
    dist = dyn_candidates_distributed(
        rd.from_arrow(td),
        rd.from_arrow(pa.table({"fqn": calls})),
        rd.from_arrow(pa.table({"fqn": known})),
        num_partitions=2,
    )
    # expectations worth pinning explicitly (beyond blind parity):
    assert drv["A.m"] == ["A.m", "C.m", "D.m", "E.m"]  # self + overrides
    assert drv["B.m"] == ["A.m", "C.m", "D.m", "E.m"]  # fallback + overrides
    assert drv_naive == {"Z.f": ["B.f"]}  # naive unique-name
    assert "A.g" not in drv  # known, no overrides -> no entry
    assert "B.q" not in drv  # nothing resolves
    assert dist == (drv, drv_naive)


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


@pytest.mark.slow
def test_full_pipeline_edge_parity_over_gate(build_pages, resolver_corpora, tmp_path):
    """Forcing the distributed closure must leave the FULL edge multiset
    equal to the driver-regime build's (node ids are content hashes, so
    identical inputs give comparable ids), on the planted hierarchy and
    on the corpora that open the import, inheritance and `<ret:>`
    resolvers (a module tie-break and a naive-before-import order once
    made the regimes differ there).  One test over all three corpora,
    one pair of builds each."""
    corpora = {
        "hierarchy": [("https://dynpar/1", _HIER_DOC)],
        "module_tie": resolver_corpora["module_tie"],
        "all_gates": resolver_corpora["all_gates"],
    }
    dists = {}
    for name, pages in corpora.items():
        drv = build_pages(pages, f"dynpar-{name}", str(tmp_path / name / "drv"))
        dist = dists[name] = build_pages(
            pages, f"dynpar-{name}", str(tmp_path / name / "dist"), distributed=True
        )
        assert (drv.res["dyn_regime"], dist.res["dyn_regime"]) == ("driver", "distributed")
        assert drv.triples() == dist.triples(), name
        assert len(drv.triples()) > 0
    # and the hierarchy actually exercised multi-level dispatch: the
    # a.speak() site carries all three candidates
    hier = dists["hierarchy"]
    nodes = hier.nodes
    byid = dict(zip(nodes.column("id").to_pylist(), nodes.column("full_name").to_pylist()))
    speak_calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "speak"),
        )
    )
    call_ids = set(speak_calls.column("id").to_pylist())
    targets = {byid.get(o) for s, p, o in hier.triples() if p == "CALL" and s in call_ids and o in byid}
    assert {"Animal.speak", "Dog.speak", "Puppy.speak"} <= targets

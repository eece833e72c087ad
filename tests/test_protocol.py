"""Pass/layer extension protocol goldens (reference
`semanticcpg/.../layers/LayerCreator.scala:7-41` skip/dependency
semantics and `NewTagNodePairTraversal.scala:10-18` tag pairs)."""

import pyarrow as pa
import pytest

from joern_ray.stages.protocol import (
    CpgPass,
    PassSpec,
    TagEdgePass,
    TagMatchPass,
    apply_passes,
    applied_overlays,
)

C_SRC = """int danger(char *s) {
  gets(s);
  return 0;
}
int fine(int n) {
  return n + 1;
}
"""


@pytest.fixture(scope="module")
def built_cpg(ray_session, tmp_path_factory):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    doc = (
        '<html><body><pre><code class="language-c">'
        + C_SRC.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        + "</code></pre></body></html>"
    ).encode()
    out = str(tmp_path_factory.mktemp("proto") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://p.org/a.c"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    build_cpg(docs_factory, out, "proto-1")
    return out


def test_tag_pass_pair_and_dsl_visibility(built_cpg):
    passes = [
        TagMatchPass("dangerous-call", label="CALL", name_re=r"^gets$"),
        TagEdgePass("dangerous-call", label="CALL", name_re=r"^gets$"),
    ]
    res = apply_passes(built_cpg, passes, "fp-1")
    assert res["applied"] == ["tag_dangerous-call", "tagged_by_dangerous-call"]
    cpg = res["cpg"]
    # TAG node visible through the standard DSL over the widened roots
    tags = cpg.all().where_label("TAG").l()
    assert tags.num_rows == 1
    assert tags.column("name").to_pylist() == ["dangerous-call"]
    # TAGGED_BY edge connects the gets CALL to the TAG
    calls = cpg.call().name_exact("gets").l()
    assert calls.num_rows == 1
    cid = calls.column("id")[0].as_py()
    edges = pa.concat_tables(
        list(cpg.edges_ds().iter_batches(batch_format="pyarrow"))
    )
    trip = set(
        zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
    )
    tag_id = tags.column("id")[0].as_py()
    assert (cid, "TAGGED_BY", tag_id) in trip


def test_reapply_skips_and_stale_rebuilds(built_cpg):
    passes = [TagMatchPass("dangerous-call", label="CALL", name_re=r"^gets$")]
    # second run, same fingerprint -> skipped (LayerCreator.run guard)
    res = apply_passes(built_cpg, passes, "fp-1")
    assert res["skipped"] == ["tag_dangerous-call"]
    assert "tag_dangerous-call" in applied_overlays(built_cpg)
    # changed fingerprint -> rebuilt
    res2 = apply_passes(built_cpg, passes, "fp-2")
    assert res2["applied"] == ["tag_dangerous-call"]


def test_depends_on_enforced(built_cpg):
    lone = TagEdgePass("never-applied", label="CALL", name_re=r"^x$")
    with pytest.raises(ValueError, match="depends on"):
        apply_passes(built_cpg, [lone], "fp-1")


def test_user_defined_pass(built_cpg):
    """A user pass written against the protocol only: one node row per
    distinct METHOD lang (a custom summary overlay)."""

    class LangMarkerPass(CpgPass):
        spec = PassSpec(
            name="lang_marker",
            kind="node",
            shuffle_keys=(),
            description="one UNKNOWN marker node per method language",
        )

        def plan(self, cpg):
            from joern_ray.schemas import NODES_SCHEMA, rows_to_table
            from joern_ray.stages.extract import hash64_bytes

            def _m(batch: pa.Table) -> pa.Table:
                import pyarrow.compute as pc

                meths = batch.filter(pc.equal(batch.column("label"), "METHOD"))
                langs = sorted(
                    {l for l in meths.column("lang").to_pylist() if l}
                )
                return rows_to_table(
                    [
                        {
                            "id": hash64_bytes(f"LM:{l}".encode()),
                            "label": "UNKNOWN",
                            "name": f"lang:{l}",
                            "order": 0,
                            "argument_index": -1,
                            "line": -1,
                            "col": -1,
                        }
                        for l in langs
                    ],
                    NODES_SCHEMA,
                )

            return cpg.nodes_ds().map_batches(_m, batch_format="pyarrow")

    res = apply_passes(built_cpg, [LangMarkerPass()], "fp-1")
    cpg = res["cpg"]
    # NB .name() is FULL-match (reference semantics) — not a prefix search
    markers = cpg.all().where_label("UNKNOWN").name("lang:.*").l()
    assert "lang:c" in set(markers.column("name").to_pylist())
    # declared partitioning assumption is recorded beside the data
    import json as _json
    import os as _os

    spec = _json.load(open(_os.path.join(res["roots"]["lang_marker"], "_spec.json")))
    assert spec["shuffle_keys"] == []

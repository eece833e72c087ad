"""Cross-fragment FieldAccessLinkerPass goldens (reference
`typerelations/FieldAccessLinkerPass.scala:18-89`): the two-key
(base type, field) join links fieldAccess call sites to the canonical
MEMBER declared in ANOTHER document, in BOTH link regimes."""

import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

DECL_DOC = (
    '<html><body><pre><code class="language-c">'
    "struct point {\n"
    "  int x;\n"
    "  int y;\n"
    "};\n"
    "</code></pre></body></html>"
)
USE_DOC = (
    '<html><body><pre><code class="language-c">'
    "void shift(struct point *p) {\n"
    "  p->x = p->x + 1;\n"
    "}\n"
    "</code></pre></body></html>"
)


@pytest.mark.parametrize("force_shuffle", [False, True])
def test_cross_fragment_field_access(ray_session, force_shuffle, tmp_path, monkeypatch):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    if force_shuffle:  # the shuffle regime keeps a width above 1
        monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
    out = str(tmp_path / ("fa_sh" if force_shuffle else "fa_bc"))
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://fa/decl", "https://fa/use"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array(
                    [DECL_DOC.encode(), USE_DOC.encode()], pa.large_binary()
                ),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(
        docs_factory,
        out,
        f"fieldaccess-{int(force_shuffle)}",
        force_shuffle_link=force_shuffle,
    )
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"],
                columns=["id", "label", "name", "full_name", "url"],
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
    members = nodes.filter(pc.equal(nodes.column("label"), "MEMBER"))
    mem_by_fqn = dict(
        zip(members.column("full_name").to_pylist(), members.column("id").to_pylist())
    )
    assert "point.x" in mem_by_fqn  # canonical member survives canonicalization
    # the fieldAccess call sites live in the USE document
    fa_calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(nodes.column("full_name"), "point.x"),
        )
    )
    assert fa_calls.num_rows == 2  # p->x twice
    fa_ids = set(fa_calls.column("id").to_pylist())
    ref_edges = edges.filter(pc.equal(edges.column("pred"), "REF"))
    pairs = set(
        zip(ref_edges.column("subj").to_pylist(), ref_edges.column("obj").to_pylist())
    )
    x_id = mem_by_fqn["point.x"]
    for cid in fa_ids:
        assert (cid, x_id) in pairs, "fieldAccess not linked to the member"
    # no spurious link for the unused member
    y_id = mem_by_fqn["point.y"]
    assert not any(o == y_id for _s, o in pairs)

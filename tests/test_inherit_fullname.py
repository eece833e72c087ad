"""Cross-document XInheritanceFullNamePass goldens (reference
`x2cpg/.../frontend/XInheritanceFullNamePass.scala:1-142`): an
import-qualified inherited base canonicalizes to the declaring
TYPE_DECL's full name, and the dyn closure resolves overrides
through it."""

import pyarrow as pa
import pyarrow.compute as pc


def _py(body: str) -> str:
    return (
        '<html><body><pre><code class="language-python">' + body
        + "</code></pre></body></html>"
    )


def _build(tmp_path, docs, fp="inh-1", env=None, monkeypatch=None):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    if env and monkeypatch is not None:
        for k, v in env.items():
            monkeypatch.setenv(k, v)
        # the distributed regime keeps a width above 1
        monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
    out = str(tmp_path / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": [u for u, _ in docs],
                "warc_ts": pa.array([0] * len(docs), pa.timestamp("us")),
                "html": pa.array([d.encode() for _, d in docs], pa.large_binary()),
                "text": [""] * len(docs),
                "lang": ["en"] * len(docs),
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, fp)
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "name", "full_name", "url"]
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
    return res, nodes, edges


DOCS = [
    (
        "https://inh/zoo.py",
        _py(
            "class D:\n"
            "    def m(self):\n"
            "        return 0\n"
            "def visit():\n"
            "    d = D()\n"
            "    return d.m()\n"
        ),
    ),
    (
        "https://inh/app.py",
        _py(
            "import zoo\n"
            "class C(zoo.D):\n"
            "    def m(self):\n"
            "        return 1\n"
        ),
    ),
]


def _check(nodes, edges):
    from joern_ray.stages.link import type_id

    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    td_by = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    assert "C" in td_by and "D" in td_by
    trip = set(
        zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
    )
    # 1. corrective INHERITS_FROM edge to D's canonical full name
    assert (td_by["C"], "INHERITS_FROM", type_id("D")) in trip
    # 2. the dyn closure resolves the override through the import:
    #    d.m() (receiver typed D) carries a CALL edge to C.m as well
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    m_by = dict(zip(meths.column("full_name").to_pylist(), meths.column("id").to_pylist()))
    assert {"D.m", "C.m"} <= set(m_by)
    calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "m"),
        )
    )
    assert calls.num_rows == 1
    cid = calls.column("id")[0].as_py()
    assert (cid, "CALL", m_by["D.m"]) in trip
    assert (cid, "CALL", m_by["C.m"]) in trip, "override not resolved across the import"


def test_inherit_fullname_cross_document(ray_session, tmp_path):
    _res, nodes, edges = _build(tmp_path, DOCS)
    _check(nodes, edges)


def test_inherit_fullname_distributed_regime(ray_session, tmp_path, monkeypatch):
    """Same golden through the distributed dyn closure (gate=0): the
    alias rewrite rides the td_ds map, not the driver walk."""
    res, nodes, edges = _build(
        tmp_path, DOCS, fp="inh-d1", env={"JOERN_RAY_DYN_GATE": "0"},
        monkeypatch=monkeypatch,
    )
    import json, os

    stats = json.load(open(os.path.join(res["out_dir"], "build_stats.json")))
    assert stats["dyn_regime"] == "distributed"
    _check(nodes, edges)

"""Import-resolver module-path join golden (reference
`x2cpg/.../frontendspecific/pysrc2cpg/PythonImportResolverPass`):
`import foo` + `foo.bar()` links CROSS-DOCUMENT to the method defined
in the doc whose module path (url stem) is `foo` — even when `bar` is
defined in several docs, which defeats the NaiveCallLinker unique-name
fallback."""

import pyarrow as pa
import pyarrow.compute as pc

DOC_FOO = (
    '<html><body><pre><code class="language-python">'
    "def bar():\n"
    "    return 1\n"
    "</code></pre></body></html>"
)
DOC_OTHER = (
    '<html><body><pre><code class="language-python">'
    "def bar():\n"
    "    return 2\n"
    "</code></pre></body></html>"
)
DOC_APP = (
    '<html><body><pre><code class="language-python">'
    "import foo\n"
    "def use():\n"
    "    return foo.bar()\n"
    "</code></pre></body></html>"
)


def test_import_module_path_join(ray_session, tmp_path_factory):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    out = str(tmp_path_factory.mktemp("imp") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": [
                    "https://mods/foo.py",
                    "https://mods/other.py",
                    "https://mods/app.py",
                ],
                "warc_ts": pa.array([0, 0, 0], pa.timestamp("us")),
                "html": pa.array(
                    [DOC_FOO.encode(), DOC_OTHER.encode(), DOC_APP.encode()],
                    pa.large_binary(),
                ),
                "text": ["", "", ""],
                "lang": ["en", "en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "imp-1")
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
    # the foo.bar() call site in app.py
    call = nodes.filter(
        pc.and_(
            pc.and_(
                pc.equal(nodes.column("label"), "CALL"),
                pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "bar"),
            ),
            pc.equal(nodes.column("url"), "https://mods/app.py"),
        )
    )
    assert call.num_rows == 1
    cid = call.column("id")[0].as_py()
    # its CALL edge target must be the METHOD bar DEFINED IN foo.py
    byid = dict(
        zip(
            nodes.column("id").to_pylist(),
            zip(nodes.column("label").to_pylist(), nodes.column("url").to_pylist()),
        )
    )
    targets = [
        byid[o]
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s == cid and o in byid
    ]
    assert targets, "foo.bar() not linked at all"
    assert all(lab == "METHOD" and u == "https://mods/foo.py" for lab, u in targets), (
        f"expected the foo.py definition, got {targets}"
    )
    # IMPORT node exists for the resolver to have something to resolve
    assert any(
        lab == "IMPORT"
        for lab in nodes.column("label").to_pylist()
    )


def test_import_module_path_join_distributed_regime(ray_session, tmp_path_factory, monkeypatch):
    """JOERN_RAY_DYN_GATE=0 forces the distributed control plane; the
    import-resolver refinement must still link foo.bar() to the foo.py
    definition (streamed small-probe scans, no driver O(corpus))."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    monkeypatch.setenv("JOERN_RAY_DYN_GATE", "0")
    monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
    out = str(tmp_path_factory.mktemp("impd") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": [
                    "https://mods/foo.py",
                    "https://mods/other.py",
                    "https://mods/app.py",
                ],
                "warc_ts": pa.array([0, 0, 0], pa.timestamp("us")),
                "html": pa.array(
                    [DOC_FOO.encode(), DOC_OTHER.encode(), DOC_APP.encode()],
                    pa.large_binary(),
                ),
                "text": ["", "", ""],
                "lang": ["en", "en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "impd-1")
    assert res["dyn_regime"] == "distributed"
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
    call = nodes.filter(
        pc.and_(
            pc.and_(
                pc.equal(nodes.column("label"), "CALL"),
                pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "bar"),
            ),
            pc.equal(nodes.column("url"), "https://mods/app.py"),
        )
    )
    cid = call.column("id")[0].as_py()
    byid = dict(
        zip(
            nodes.column("id").to_pylist(),
            zip(nodes.column("label").to_pylist(), nodes.column("url").to_pylist()),
        )
    )
    targets = [
        byid[o]
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s == cid and o in byid
    ]
    assert targets and all(
        lab == "METHOD" and u == "https://mods/foo.py" for lab, u in targets
    )

"""`build_cpg` runs the MinHash equivalence chain on its own thread beside
the link chain, and warms Ray Data's stats actor on another: both
threads are joined on every exit path, an error on either chain fails
the build while a failed warm-up does not, and a build stays within its
budget of Ray streaming executions (each one pays a fixed launch cost
that dominates small builds) and sizes every read it makes itself."""

import inspect
import os
import threading

import pyarrow as pa
import pytest

# Two pages reopen `Widget` (so the AstLinkerPass exchange runs) and
# repeat one method body (so the equivalence chain collapses something).
_PAGES = {
    "https://ex/a.rb": "class Widget\n  def alpha\n    return 1 + 2\n  end\nend\n",
    "https://ex/b.rb": "class Widget\n  def beta\n    return 1 + 2\n  end\nend\n",
    "https://ex/c.rb": "class Gadget\n  def gamma(x)\n    return x * 3\n  end\nend\n",
}

# parse, survey, canonicalize, the canonical_mt projection pass,
# astlink, dims and the edge write, plus six for the equivalence chain
EXECUTION_BUDGET = 13


def _docs_factory(columns):
    import ray.data

    html = [
        '<html><body><pre><code class="language-ruby">' + body + "</code></pre></body></html>"
        for body in _PAGES.values()
    ]
    return ray.data.from_arrow(
        pa.table(
            {
                "url": list(_PAGES),
                "warc_ts": pa.array([0] * len(html), pa.timestamp("us")),
                "html": pa.array([h.encode() for h in html], pa.large_binary()),
                "text": [""] * len(html),
                "lang": ["en"] * len(html),
            }
        )
    )


def _build_threads() -> list:
    return [
        t for t in threading.enumerate() if t.name in ("cpg-equivalences", "cpg-warmup")
    ]


def test_build_stays_within_execution_budget(
    ray_session, tmp_path, monkeypatch, schema_mismatch_log
):
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from joern_ray.pipelines.cpg import build_cpg

    calls: list = []
    orig = StreamingExecutor.execute

    def counted(self_, *a, **k):
        calls.append(threading.current_thread().name)
        return orig(self_, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    res = build_cpg(_docs_factory, str(tmp_path / "cpg"), "budget-1")
    assert res["n_collapsed_methods"] >= 1
    assert len(calls) <= EXECUTION_BUDGET, f"{len(calls)} executions: {calls}"
    assert not schema_mismatch_log


# the budget's 12 on a corpus without duplicated classes, plus the
# resolver passes' two probes: the module-dimension scan and the
# (url, name) probe of canonical_mt, shared by the import resolver and
# XInheritanceFullNamePass (`<ret:>` recovery adds none)
ALL_GATES_EXECUTIONS = 14


def test_resolver_passes_share_two_probe_executions(
    build_pages, resolver_corpora, monkeypatch
):
    """Every resolver gate open (an import-qualified Java base, an
    imported Python call and a `<ret:f>` call): the driver regime runs
    exactly the budget of a build without them plus two probes."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls: list = []
    orig = StreamingExecutor.execute

    def counted(self_, *a, **k):
        calls.append(threading.current_thread().name)
        return orig(self_, *a, **k)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    g = build_pages(resolver_corpora["all_gates"], "gates-1")
    assert g.res["dyn_regime"] == "driver"
    assert os.path.isdir(os.path.join(g.res["out_dir"], "edges_inherit"))
    assert len(calls) == ALL_GATES_EXECUTIONS, f"{len(calls)} executions: {calls}"


def test_main_chain_error_joins_equivalence_thread(ray_session, tmp_path, monkeypatch):
    """The main chain fails while the equivalence chain is still running:
    the build raises the main chain's error only after the thread ended."""
    import joern_ray.pipelines.cpg as cpg
    import joern_ray.stages.dedup as dedup

    failed, finished = threading.Event(), threading.Event()
    real = dedup.minhash_dedup

    def held_minhash(*a, **k):
        failed.wait(120)  # still running when the main chain raises
        try:
            return real(*a, **k)
        finally:
            finished.set()

    def broken_projections(*a, **k):
        failed.set()
        raise RuntimeError("main chain failed")

    monkeypatch.setattr(dedup, "minhash_dedup", held_minhash)
    monkeypatch.setattr(cpg, "canonical_projections", broken_projections)
    with pytest.raises(RuntimeError, match="main chain failed"):
        cpg.build_cpg(_docs_factory, str(tmp_path / "cpg"), "lifecycle-1")
    assert finished.is_set()
    assert not _build_threads()


def test_equivalence_error_fails_the_build(ray_session, tmp_path, monkeypatch):
    import joern_ray.stages.dedup as dedup
    from joern_ray.pipelines.cpg import build_cpg

    def broken_minhash(*a, **k):
        raise RuntimeError("equivalence chain failed")

    monkeypatch.setattr(dedup, "minhash_dedup", broken_minhash)
    with pytest.raises(RuntimeError, match="equivalence chain failed"):
        build_cpg(_docs_factory, str(tmp_path / "cpg"), "lifecycle-2")
    assert not _build_threads()


def test_failed_warm_up_does_not_fail_the_build(ray_session, tmp_path, monkeypatch):
    """The stats-actor warm-up raises late in the build, and the worker
    warm-up cannot import a module: the build still succeeds, and no
    warm-up thread outlives it."""
    import ray.data

    import joern_ray.pipelines.cpg as cpg

    late, raised = threading.Event(), threading.Event()
    real_write = cpg.partitioned_write

    def marked_write(*a, **k):
        late.set()
        return real_write(*a, **k)

    def broken_from_items(*a, **k):
        late.wait(120)  # still running when the edge write starts
        raised.set()
        raise RuntimeError("warm-up failed")

    monkeypatch.setattr(cpg, "partitioned_write", marked_write)
    monkeypatch.setattr(ray.data, "from_items", broken_from_items)
    monkeypatch.setattr(cpg, "_WARM_MODULES", ("joern_ray.no_such_module",))
    res = cpg.build_cpg(_docs_factory, str(tmp_path / "cpg"), "warmup-1")
    assert res["n_collapsed_methods"] >= 1
    assert raised.is_set()
    assert not _build_threads()
    assert cpg._warm_worker(("joern_ray.no_such_module",)) is None


def test_every_build_read_sizes_its_blocks(ray_session, tmp_path, monkeypatch):
    """Every Parquet read the build makes passes a block count
    (`io.checkpoint.read_root`): left to Ray, a read splits into at
    least 2 x available CPUs blocks however small it is, and every map
    and sort downstream runs a task per block."""
    import ray.data

    import joern_ray
    from joern_ray.pipelines.cpg import build_cpg

    pkg = os.path.dirname(joern_ray.__file__) + os.sep
    calls: list = []
    orig = ray.data.read_parquet

    def recorded(*a, **k):
        caller = inspect.currentframe().f_back
        where = caller.f_code.co_filename
        if where.startswith(pkg):
            calls.append((f"{where[len(pkg):]}:{caller.f_lineno}", k))
        return orig(*a, **k)

    monkeypatch.setattr(ray.data, "read_parquet", recorded)
    build_cpg(_docs_factory, str(tmp_path / "cpg"), "blocks-1")
    assert calls
    unsized = [site for site, k in calls if k.get("override_num_blocks") is None]
    assert not unsized, unsized


def test_groupby_runs_its_input_map_once(ray_session, tmp_path):
    """The edge write groups a lazy map's output with no materialize
    before it: the groupby's sort samples its input's boundaries without
    running the upstream map a second time, so each of 10 blocks passes
    the map once."""
    import pyarrow.compute as pc
    import ray.data

    calls = tmp_path / "calls"

    def tag(batch: pa.Table) -> pa.Table:
        with open(calls, "a") as f:
            f.write(".")
        return batch.append_column("part", pc.bit_wise_and(batch.column("id"), 3))

    def count(group: pa.Table) -> pa.Table:
        return pa.table({"part": group.column("part").slice(0, 1), "n": [group.num_rows]})

    out = (
        ray.data.range(1000, override_num_blocks=10)
        .map_batches(tag, batch_format="pyarrow", batch_size=None)
        .groupby("part")
        .map_groups(count, batch_format="pyarrow")
        .take_all()
    )
    assert sorted((r["part"], r["n"]) for r in out) == [(p, 250) for p in range(4)]
    assert calls.read_text() == "." * 10


def _edge_write_bound(tmp_path, monkeypatch, force_shuffle_link: bool) -> None:
    """Build `_PAGES` and check the edge write's block bound `in_blocks`
    against the block count of the Dataset it sorts."""
    import joern_ray.pipelines.cpg as cpg

    seen: list = []
    real = cpg.partitioned_write

    def checked(ds, path, stage, fingerprint, width, in_blocks):
        seen.append((in_blocks, ds.materialize().num_blocks()))
        return real(ds, path, stage, fingerprint, width, in_blocks)

    monkeypatch.setattr(cpg, "partitioned_write", checked)
    out = tmp_path / "cpg"
    res = cpg.build_cpg(
        _docs_factory, str(out), "bound-1", force_shuffle_link=force_shuffle_link
    )
    assert res["link_regime"] == ("salted_shuffle" if force_shuffle_link else "broadcast")
    assert (out / "canonical_mt").is_dir()
    [(in_blocks, sorted_blocks)] = seen
    assert in_blocks == sorted_blocks


def test_edge_write_bound_counts_its_input_blocks(ray_session, tmp_path, monkeypatch):
    """`_PAGES` reopens `Widget`, so `canonical_mt` exists and the link
    scan reads two roots: the edge write's block bound `in_blocks` is
    still the block count of the Dataset it sorts."""
    _edge_write_bound(tmp_path, monkeypatch, force_shuffle_link=False)


def test_salted_edge_write_bound_counts_its_input_blocks(
    ray_session, tmp_path, monkeypatch
):
    """In the salted-shuffle regime the edge write sorts the union of
    the salted join's output and the link scan: `in_blocks` counts both."""
    _edge_write_bound(tmp_path, monkeypatch, force_shuffle_link=True)


def test_link_scan_is_one_fused_read(ray_session, tmp_path, execution_plans):
    """In the broadcast regime the edge write's plan reads the link
    scan's two roots as ONE Parquet read fused with the link map: no
    union, whose two reads would not fuse with the map."""
    from joern_ray.pipelines.cpg import build_cpg

    res = build_cpg(_docs_factory, str(tmp_path / "cpg"), "plan-1")
    assert res["link_regime"] == "broadcast"
    [plan] = [p for p in execution_plans if "MapBatches(add_part)" in p]
    assert plan.count("ReadParquet") == 1, plan
    assert "UnionOperator" not in plan, plan
    assert "[ReadParquet->MapBatches(_fn)->MapBatches(add_part)]" in plan, plan

"""The exchange-width rule (`io.checkpoint.exchange_width`): every shuffle
of a build is sized from the parse checkpoint's measured bytes, and every
table written downstream of parse is coalesced to `ROWS_PER_FILE`.
Outputs never depend on the width or on how many blocks a read makes;
a tiny build writes one file per table; a resume never mixes two widths
in the edges root."""

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from joern_ray.io.checkpoint import ROWS_PER_FILE, exchange_width

OUT_DERIVED = "/tmp/joern_ray_test_width_derived"
OUT_FORCED = "/tmp/joern_ray_test_width_forced"
OUT_RAY_BLOCKS = "/tmp/joern_ray_test_width_ray_blocks"
FP = "width-60"


def _docs_factory(columns):
    from joern_ray.sources.corpus import docs_dataset

    ds = docs_dataset(60, parallelism=4)
    if columns:
        ds = ds.map_batches(lambda b: b.select(columns), batch_format="pyarrow")
    return ds


def _build(out):
    from joern_ray.pipelines.cpg import build_cpg

    shutil.rmtree(out, ignore_errors=True)
    return build_cpg(_docs_factory, out, FP)


@pytest.fixture(scope="module")
def derived(ray_session):
    return _build(OUT_DERIVED)


@pytest.fixture(scope="module")
def forced(ray_session):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 4)
        return _build(OUT_FORCED)


@pytest.fixture(scope="module")
def ray_blocks(ray_session):
    """Every read split into 8 blocks, as Ray's own default splits a
    small read on this 4-CPU session (at least 2 x CPUs blocks); the
    edge write then coalesces its input to the width first."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("joern_ray.io.checkpoint.read_blocks", lambda _b: 8)
        return _build(OUT_RAY_BLOCKS)


def _manifest(path):
    with open(os.path.join(path, "_manifest.json")) as f:
        return json.load(f)


def _sorted(t: pa.Table, keys) -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys]))


def _nodes(out):
    from joern_ray.pipelines.cpg import read_nodes

    t = pa.concat_tables(list(read_nodes(out).iter_batches(batch_format="pyarrow")))
    return _sorted(t, ["id"])


def _edges(out):
    from joern_ray.pipelines.cpg import read_edges

    t = pa.concat_tables(list(read_edges(out).iter_batches(batch_format="pyarrow")))
    return _sorted(t, ["subj", "pred", "obj", "variable"])


def _survey(out):
    import pyarrow.parquet as pq

    return _sorted(pq.read_table(os.path.join(out, "survey_agg")), ["skey"])


def _root_rows(out, root):
    """Every row under one root with the directory it sits in, sorted:
    the root's content, whatever its file split."""
    import pyarrow.parquet as pq

    rows = []
    for dirpath, _d, names in os.walk(os.path.join(out, root)):
        rel = os.path.relpath(dirpath, out)
        for f in sorted(n for n in names if n.endswith(".parquet")):
            rows += [(rel, repr(r)) for r in pq.read_table(os.path.join(dirpath, f)).to_pylist()]
    return sorted(rows)


def _data_files(path):
    return sorted(f for f in os.listdir(path) if f.endswith(".parquet"))


def test_width_rule():
    mib = 1 << 20
    # one partition per 64 MiB of input, with no fixed cap of 32
    assert exchange_width(0) == 1
    assert exchange_width(300_000) == 1
    assert exchange_width(64 * mib) == 1
    assert exchange_width(64 * mib + 1) == 2
    assert exchange_width(64 * 100 * mib) == 100
    # a file of ROWS_PER_FILE rows of 256 B holds the 64 MiB target
    assert ROWS_PER_FILE * 256 == 64 * mib


def test_derived_and_forced_width_identical(ray_session, derived, forced):
    assert _manifest(os.path.join(OUT_FORCED, "edges"))["width"] == 4
    assert _manifest(os.path.join(OUT_DERIVED, "edges"))["width"] == 1
    assert _nodes(OUT_DERIVED).equals(_nodes(OUT_FORCED))
    assert _edges(OUT_DERIVED).equals(_edges(OUT_FORCED))
    assert _survey(OUT_DERIVED).equals(_survey(OUT_FORCED))


def test_read_block_count_does_not_change_outputs(derived, ray_blocks):
    roots = [
        "parse", "survey_agg", "canonical_mt", "dims", "edges",
        "edges_astlink", "edges_inherit", "equivalences",
    ]
    for root in roots:
        assert _root_rows(OUT_DERIVED, root) == _root_rows(OUT_RAY_BLOCKS, root), root
    assert _root_rows(OUT_DERIVED, "edges")


def test_tiny_build_one_file_per_table(derived):
    """The parse checkpoint is the measured input, written as it streams;
    everything downstream of it is one data file per table or partition."""
    out = derived["out_dir"]
    assert _manifest(os.path.join(out, "edges"))["width"] == 1
    assert sorted(d for d in os.listdir(os.path.join(out, "edges")) if d.startswith("part=")) == [
        "part=0"
    ]
    tables = ["survey_agg", "canonical_mt", "dims/rk=node", "dims/rk=edge", "edges/part=0"]
    for extra in ("edges_astlink", "equivalences"):  # absent or empty on some corpora
        if os.path.isdir(os.path.join(out, extra)) and _manifest(os.path.join(out, extra))["rows"]:
            tables.append(extra)
    for t in tables:
        assert len(_data_files(os.path.join(out, t))) == 1, (t, _data_files(os.path.join(out, t)))


def test_resume_at_other_width_rebuilds(ray_session, forced, monkeypatch):
    """A killed width-4 write resumed at width 2: the edges root is
    rebuilt at width 2 (never finished width-4 partitions mixed with new
    width-2 ones) and the graph equals a fresh build's."""
    from joern_ray.pipelines.cpg import build_cpg

    want_edges = _edges(OUT_FORCED)
    want_nodes = _nodes(OUT_FORCED)
    out = "/tmp/joern_ray_test_width_resume"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(OUT_FORCED, out)
    # the kill: the chain's completion markers are gone, three of the four
    # width-4 partitions finished
    os.remove(os.path.join(out, "dims", "_manifest.json"))
    os.remove(os.path.join(out, "edges", "_manifest.json"))
    os.remove(os.path.join(out, "edges", "part=3", "_manifest.json"))
    monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
    res = build_cpg(_docs_factory, out, FP)
    assert res["resumed"] is False
    edges_root = os.path.join(out, "edges")
    assert sorted(d for d in os.listdir(edges_root) if d.startswith("part=")) == [
        "part=0",
        "part=1",
    ]
    for d in ("part=0", "part=1", "."):
        assert _manifest(os.path.join(edges_root, d))["width"] == 2
    assert _edges(out).equals(want_edges)
    assert _nodes(out).equals(want_nodes)

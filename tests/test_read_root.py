"""The read rule (`io.checkpoint.read_root` / `read_blocks`): every read
of a checkpoint is sized from its bytes on disk, never from the cluster,
and a split the corpus never produced reads as an empty typed Dataset,
so a corpus without code still builds a typed graph."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from joern_ray.io.checkpoint import _parquet_files, read_blocks, read_root

MIB = 1 << 20


def test_read_blocks_rule():
    import ray.data

    ctx = ray.data.DataContext.get_current()
    assert read_blocks(0) == 1
    assert read_blocks(1024) == 1
    # 10 MiB on disk is ~50 MiB in memory at Ray's 5x Parquet ratio
    assert read_blocks(10 * MIB) == math.ceil(50 * MIB / ctx.target_min_block_size)
    # large inputs stop at Ray's read block cap ...
    assert read_blocks(1 << 30) == ctx.read_op_min_num_blocks
    # ... until blocks would outgrow the max block size
    huge = 100 << 30
    assert read_blocks(huge) == math.ceil(5 * huge / ctx.target_max_block_size)


def test_read_blocks_independent_of_cluster(ray_session):
    """The same counts on this session's 4-CPU cluster and in a process
    that never started one."""
    sizes = [0, 300_000, 10 * MIB, 1 << 30]
    code = (
        "import json, ray; from joern_ray.io.checkpoint import read_blocks; "
        f"print(json.dumps([read_blocks(b) for b in {sizes!r}])); "
        "assert not ray.is_initialized()"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout.splitlines()[-1]) == [read_blocks(b) for b in sizes]


def test_missing_root_reads_typed_empty(ray_session, tmp_path):
    """A missing root reads as an empty Dataset typed by the schema it
    was declared with, and without one the read fails."""
    declared = pa.schema([("skind", pa.string()), ("skey", pa.string()), ("sc", pa.int64())])
    ds = read_root([str(tmp_path / "absent")], ["skey", "sc"], declared)
    assert ds.count() == 0
    assert ds.schema().base_schema == pa.schema([("skey", pa.string()), ("sc", pa.int64())])
    with pytest.raises(FileNotFoundError):
        read_root([str(tmp_path / "absent")], ["skey", "sc"])


def test_two_roots_read_as_one_sized_read(ray_session, tmp_path):
    """Two roots, one of them a hive-named split directory, read as one
    read: every row of both comes back, with exactly the columns asked
    for (no `row_kind` partition column), in `read_blocks` of both
    roots' bytes; with no file under either root the read is empty and
    typed."""
    declared = pa.schema([("id", pa.uint64()), ("name", pa.string()), ("code", pa.string())])
    node, canon = tmp_path / "parse" / "row_kind=node", tmp_path / "canonical_mt"
    rng = np.random.default_rng(0)
    ids = iter(range(1_000_000))
    for root, n_files in ((node, 2), (canon, 1)):
        root.mkdir(parents=True)
        (root / "_manifest.json").write_text("{}")
        for k in range(n_files):
            # random hex, so the bytes on disk ask for more than one block
            rows = [next(ids) for _ in range(2_000)]
            code = [rng.bytes(40).hex() for _ in rows]
            pq.write_table(
                pa.table([rows, [f"n{i}" for i in rows], code], schema=declared),
                str(root / f"{k}.parquet"),
            )
    roots = [str(node), str(canon)]
    nbytes = sum(os.path.getsize(f) for f in _parquet_files(roots))
    assert read_blocks(nbytes) > 1

    ds = read_root(roots, ["id", "name"], declared).materialize()
    assert ds.schema().base_schema == pa.schema([("id", pa.uint64()), ("name", pa.string())])
    assert sorted(r["id"] for r in ds.take_all()) == list(range(6_000))
    assert ds.num_blocks() == read_blocks(nbytes)

    empty = [str(tmp_path / "e" / "row_kind=node"), str(tmp_path / "e" / "canonical_mt")]
    for root in empty:
        os.makedirs(root)
    ds = read_root(empty, ["id", "name"], declared)
    assert ds.count() == 0
    assert ds.schema().base_schema == pa.schema([("id", pa.uint64()), ("name", pa.string())])


_PROSE = {
    f"https://ex/prose{i}.html": f"<html><body><p>Release notes, part {i}. No code.</p></body></html>"
    for i in range(4)
}


def _docs(pages: dict):
    """A `docs_factory` over `pages` (url -> html)."""

    def factory(columns):
        import ray.data

        return ray.data.from_arrow(
            pa.table(
                {
                    "url": pa.array(list(pages), pa.string()),
                    "warc_ts": pa.array([0] * len(pages), pa.timestamp("us")),
                    "html": pa.array([h.encode() for h in pages.values()], pa.large_binary()),
                    "text": pa.array([""] * len(pages), pa.string()),
                    "lang": pa.array(["en"] * len(pages), pa.string()),
                }
            )
        )

    return factory


def test_prose_only_corpus_builds_typed_graph(ray_session, tmp_path, schema_mismatch_log):
    """Four pages without code: the parse checkpoint has no survey,
    mtnode or edge split, and the build still writes node and edge roots
    that read back with the declared schemas.  The empty survey adds no
    block to the dims write, so Ray Data logs no schema mismatch."""
    from joern_ray.pipelines.cpg import build_cpg, read_edges, read_nodes
    from joern_ray.schemas import EDGES_SCHEMA, NODES_SCHEMA

    out = str(tmp_path / "cpg")
    res = build_cpg(_docs(_PROSE), out, "prose-1")
    assert res["n_methods"] == 0
    assert not schema_mismatch_log
    nodes, edges = read_nodes(out), read_edges(out)
    assert nodes.schema().base_schema == NODES_SCHEMA
    assert edges.schema().base_schema == EDGES_SCHEMA
    assert nodes.count() > 0  # FILE rows and META_DATA
    assert edges.count() == 0


def test_empty_corpus_builds_meta_data_graph(ray_session, tmp_path, schema_mismatch_log):
    """No doc at all: the parse checkpoint has no split, and the graph is
    the META_DATA node alone, with no edge.  Ray Data logs no schema
    mismatch."""
    from joern_ray.pipelines.cpg import build_cpg, read_edges, read_nodes
    from joern_ray.schemas import EDGES_SCHEMA, NODES_SCHEMA

    out = str(tmp_path / "cpg")
    res = build_cpg(_docs({}), out, "empty-1")
    assert res["n_methods"] == 0 and res["n_stubs"] == 0
    assert not schema_mismatch_log
    nodes, edges = read_nodes(out), read_edges(out)
    assert nodes.schema().base_schema == NODES_SCHEMA
    assert [r["label"] for r in nodes.take_all()] == ["META_DATA"]
    assert edges.schema().base_schema == EDGES_SCHEMA
    assert edges.count() == 0

"""Stage checkpoints with lineage manifests — the resumability layer.

Analog of the reference's overlay bookkeeping ("The overlay X already
exists - skipping creation", `semanticcpg/.../layers/LayerCreator.scala:
20-34`): a stage whose manifest exists with a matching input fingerprint
is skipped and its Parquet output is read back instead of recomputed.

Each checkpoint directory holds the stage's Parquet files plus
`_manifest.json` recording: stage name, input fingerprint, engine
version, row count (from Parquet footers — no data scan), bytes on
disk, file list and wall time.  A checkpoint that holds several kinds
of row (the parse checkpoint's node/edge/reject/survey rows, the dims'
node and edge rows) is written through `SplitSink`: one subdirectory per
kind, each file carrying only that kind's declared columns.  Final graph
materialization partitions by `part = subj % P` with one manifest per
partition so a killed run skips finished partitions (north rule:
per-partition lineage + metrics); those manifests record the width P
they were written at.

Every Parquet file a build writes, through Ray or from the driver, is
encoded by `write_options` (zstd; no dictionary on 64-bit ids); a file
written by one task or by the driver goes through `write_table`, which
renames it into place.

`exchange_width` sizes every shuffle of a build from the parse
checkpoint's measured bytes instead of fixed widths, `read_root` sizes
every read of a checkpoint from its bytes on disk, and `ROWS_PER_FILE`
coalesces the small tables Ray splits into many blocks.
"""

from __future__ import annotations

import json
import math
import os
import time

from ray.data import Datasink

ENGINE_VERSION = "0.7.0"  # bumped: <ret:> containment, kotlin body MEMBERs, php tag fix, ast_link

_PARSER_FP: str | None = None


def parser_fingerprint() -> str:
    """Content hash of every parse-output-affecting module, folded into
    the build fingerprint by `build_cpg` — a checkpoint taken before ANY
    parser change resumes as stale instead of silently lacking the new
    nodes (ADVICE r4: manual ENGINE_VERSION bumps were missed for
    same-version parse changes).  Cached per process; ~10 small files."""
    global _PARSER_FP
    if _PARSER_FP is None:
        import hashlib

        pkg = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(
            [
                os.path.join(pkg, "parsing", f)
                for f in os.listdir(os.path.join(pkg, "parsing"))
                if f.endswith(".py")
            ]
            + [
                os.path.join(pkg, "stages", "parse.py"),
                os.path.join(pkg, "stages", "extract.py"),
                os.path.join(pkg, "stages", "survey.py"),
                os.path.join(pkg, "graph", "cfg.py"),
                os.path.join(pkg, "schemas.py"),
            ]
        )
        h = hashlib.sha1()
        for p in paths:
            try:
                with open(p, "rb") as f:
                    h.update(f.read())
            except OSError:
                h.update(p.encode())
        _PARSER_FP = h.hexdigest()[:12]
    return _PARSER_FP


def _footer_row_count(path: str) -> tuple[int, list[str]]:
    from concurrent.futures import ThreadPoolExecutor

    import pyarrow.dataset as pads

    ds = pads.dataset(path, format="parquet")
    files = sorted(ds.files)

    def _n(frag) -> int:
        return frag.metadata.num_rows if frag.metadata is not None else frag.count_rows()

    # footer reads are tiny independent IOs — a serial loop over hundreds
    # of files costs seconds of driver time
    with ThreadPoolExecutor(max_workers=16) as ex:
        n = sum(ex.map(_n, ds.get_fragments()))
    return n, files


def manifest_path(path: str) -> str:
    return os.path.join(path, "_manifest.json")


def read_manifest(path: str) -> dict | None:
    try:
        with open(manifest_path(path)) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError):
        return None


def manifest_matches(path: str, fingerprint: str, width: int | None = None) -> bool:
    """A complete manifest for this fingerprint and engine version — and,
    when `width` is given, written at that exchange width."""
    m = read_manifest(path)
    return (
        m is not None
        and m.get("input_fingerprint") == fingerprint
        and m.get("engine_version") == ENGINE_VERSION
        and m.get("complete") is True
        and (width is None or m.get("width") == width)
    )


def write_manifest(
    path: str, stage: str, fingerprint: str, wall_s: float, extra: dict | None = None
) -> dict:
    rows, files = _footer_row_count(path)
    m = {
        "stage": stage,
        "input_fingerprint": fingerprint,
        "engine_version": ENGINE_VERSION,
        "rows": rows,
        "bytes": sum(os.path.getsize(f) for f in files),
        "files": [os.path.basename(f) for f in files],
        "wall_s": round(wall_s, 3),
        "complete": True,
    }
    if extra:
        m.update(extra)
    tmp = manifest_path(path) + ".tmp"
    with open(tmp, "w") as f:
        json.dump(m, f, indent=1)
    os.replace(tmp, manifest_path(path))  # atomic: readers never see partial
    return m


def write_options(schema) -> dict:
    """The Parquet write options of every file the build writes, for a
    table of `schema`: zstd, and dictionary encoding on every column
    except the 64-bit integer ones.  Those hold the graph's ids, random
    63-bit hashes (`functions/hashing.py`): a split's dictionary holds
    nearly every distinct id at 8 B and each row adds a wide index into
    it.  Stored plain, an id's repeats among a fragment's contiguous
    rows are left to zstd, which matches them (snappy does not)."""
    import pyarrow as pa

    # (Parquet column path, Arrow type) of each leaf column; a list
    # column's values are its `.list.element` leaf
    leaves = (
        (f"{f.name}.list.element", f.type.value_type)
        if pa.types.is_list(f.type)
        else (f.name, f.type)
        for f in schema
    )
    return {
        "compression": "zstd",
        "use_dictionary": [
            path for path, t in leaves if not (pa.types.is_integer(t) and t.bit_width == 64)
        ],
    }


def write_table(table, path: str, **kwargs) -> None:
    """Write `table` to `path` under `write_options`, through a
    temporary name renamed into place, so a reader (or a retried task)
    never sees a partial file.  `kwargs` go to `pq.write_table`."""
    import pyarrow.parquet as pq

    pq.write_table(table, path + ".tmp", **write_options(table.schema), **kwargs)
    os.replace(path + ".tmp", path)


class SplitSink(Datasink):
    """Writes a Dataset whose rows are of several kinds, told apart by
    the value of `column`, as one subdirectory `{column}={value}` per
    kind, each file holding only `schemas[value]`'s columns.  A Ray
    Data operator has one output, so the kinds travel as one union
    table; written whole, every file would carry every other kind's
    columns as all-null columns, each with its own metadata in every
    row group and in the footer.

    Each write task writes, per kind it holds rows of, ONE file of ONE
    row group, named by the task's index and renamed into place from a
    temporary name, so a retried task replaces its own files.  A row
    whose kind has no schema fails the write.  `min_rows_per_write`
    coalesces the input of each write task (None: a write task takes
    what the upstream task produced, so the write fuses into it)."""

    def __init__(
        self, path: str, column: str, schemas: dict, min_rows_per_write: int | None = None
    ):
        self.path, self.column, self.schemas = path, column, schemas
        self._min_rows_per_write = min_rows_per_write

    @property
    def min_rows_per_write(self) -> int | None:
        return self._min_rows_per_write

    def on_write_start(self) -> None:
        # the root exists even when no task writes a file (0 rows)
        os.makedirs(self.path, exist_ok=True)

    def write(self, blocks, ctx) -> None:
        import pyarrow as pa
        import pyarrow.compute as pc
        from ray.data.block import BlockAccessor

        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        tables = [t for t in tables if t.num_rows]
        if not tables:
            return
        t = pa.concat_tables(tables)
        kinds = t.column(self.column)
        unknown = set(pc.unique(kinds).to_pylist()) - set(self.schemas)
        if unknown:
            raise ValueError(f"{self.path}: no schema for {self.column} {sorted(unknown)}")
        for value, schema in self.schemas.items():
            part = t.select(schema.names).filter(pc.equal(kinds, value))
            if not part.num_rows:
                continue
            part = part.cast(schema)
            d = os.path.join(self.path, f"{self.column}={value}")
            os.makedirs(d, exist_ok=True)
            write_table(
                part, os.path.join(d, f"{ctx.task_idx:06d}.parquet"), row_group_size=part.num_rows
            )


def checkpoint(
    ds_factory,
    path: str,
    stage: str,
    fingerprint: str,
    min_rows_per_file: int | None = None,
    schema=None,
    splits: tuple[str, dict] | None = None,
):
    """Run `ds_factory()` and write its Dataset to `path` unless a valid
    manifest already covers it.

    Consumers read the Parquet back (rather than reusing the in-memory
    Dataset), so every downstream branch consumes Parquet instead of
    re-executing lineage — the fix for Ray Data re-running upstream
    stages once per consumer.  Nothing is read back here: constructing a
    `read_parquet` Dataset lists the files and runs metadata-sampling
    tasks, and most callers read a column subset or one split.
    `min_rows_per_file` (normally `ROWS_PER_FILE`) coalesces the output:
    a table Ray split into many blocks is otherwise written as many tiny
    files.  `schema`, the output's declared schema, is required unless
    `splits` is given: it picks the `write_options`, and types a 0-row
    output without asking Ray, which runs the lineage again to answer
    and has no schema to give after an exchange of empty blocks.
    `splits` = `(column, {value: schema})` writes the output through
    `SplitSink` instead of `schema`, one typed subdirectory per value of
    `column`, so consumers of one kind scan only that kind's files; a
    0-row output leaves the root empty, and each absent split reads as
    an empty Dataset of its own schema (`read_root`).
    """
    import shutil as _shutil

    if schema is None and splits is None:
        raise ValueError(f"checkpoint {stage}: give the output's schema, or its splits")
    if not manifest_matches(path, fingerprint):
        t0 = time.perf_counter()
        if os.path.isdir(path):  # stale/partial output: clear it
            _shutil.rmtree(path)
        ds = ds_factory()
        if splits is not None:
            ds.write_datasink(SplitSink(path, *splits, min_rows_per_write=min_rows_per_file))
        else:
            ds.write_parquet(
                path, min_rows_per_file=min_rows_per_file, **write_options(schema)
            )
        if not os.path.isdir(path):
            # a 0-row Dataset writes no files at all; materialize an
            # empty parquet carrying the schema so read-back and the
            # manifest row count still work (overlay passes can
            # legitimately match nothing on a given corpus)
            os.makedirs(path, exist_ok=True)
            write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))
        write_manifest(path, stage, fingerprint, time.perf_counter() - t0)


# Width rule: one partition per _TARGET_BYTES of measured input.
_TARGET_BYTES = 64 << 20

# `min_rows_per_file` of every write downstream of parse: _TARGET_BYTES
# over the widest in-memory (Arrow) row measured on a 3,000-doc build,
# ~250 B (parse union rows 146-247 B per row kind, which every downstream
# table projects: canonical_mt 184, dims 150, equivalences 16), so a
# write task buffers at most ~64 MiB.  Compressed bytes on disk would not
# do: the parse checkpoint stores ~7 B per row, which would let a write
# task buffer ~35x the target.
ROWS_PER_FILE = _TARGET_BYTES // 256


def exchange_width(nbytes: int) -> int:
    """Partition count from an input's measured bytes on disk (Hyper
    Dimension Shuffle, VLDB'19: choose repartition width from data
    volume).  No fixed cap: the count grows with the input, so each
    task's share stays near _TARGET_BYTES of input at any scale.  It
    depends on the input alone, never on the cluster's size."""
    return max(1, math.ceil(nbytes / _TARGET_BYTES))


def _parquet_files(roots: list[str]) -> list[str]:
    files: list[str] = []
    for root in roots:
        for dirpath, _dirs, names in os.walk(root):
            files.extend(
                os.path.join(dirpath, f) for f in names if f.endswith(".parquet")
            )
    return sorted(files)


# Ray's default in-memory / on-disk size estimate for Parquet
# (`PARQUET_ENCODING_RATIO_ESTIMATE_DEFAULT`).  Under `write_options` the
# graph measures higher (Arrow bytes over file bytes, whole graph / parse
# checkpoint): 7.6 / 8.6 on cpgbench's build_mixed, 6.2 / 7.3 on
# build_boilerplate, 7.2 / 8.0 on a 3,000-doc build (5.8 / 6.5, 5.1 / 5.9
# and 5.4 / 5.9 under snappy with dictionary-encoded ids), so a read's
# estimated in-memory size is low by up to 40%.  Not retuned: no
# measurement yet shows a read split better at a higher ratio.
_PARQUET_ENCODING_RATIO = 5


def read_blocks(nbytes: int) -> int:
    """Block count of a read of `nbytes` of Parquet on disk: Ray's own
    read rule (`ray.data._internal.util._autodetect_parallelism`) over
    the estimated in-memory size, without its `2 x available CPUs`
    floor.  That floor split a 400-row checkpoint into 8 blocks of 50
    rows on 4 CPUs, and every map and sort downstream paid a task per
    block.  Like `exchange_width`, it depends on the input alone."""
    import ray.data

    ctx = ray.data.DataContext.get_current()
    mem = nbytes * _PARQUET_ENCODING_RATIO
    n = min(ctx.read_op_min_num_blocks, math.ceil(mem / ctx.target_min_block_size))
    if ctx.target_max_block_size:  # None: blocks of any size
        n = max(n, math.ceil(mem / ctx.target_max_block_size))
    return max(1, n)


def root_blocks(paths: list[str]) -> int:
    """`read_blocks` of the Parquet files under the root directories
    `paths`: the block count `read_root` reads them in."""
    return read_blocks(sum(os.path.getsize(f) for f in _parquet_files(paths)))


def read_root(paths: str | list[str], columns: list[str], schema=None):
    """Read the `columns` of one or more checkpoint root directories as
    ONE read of their Parquet files, in `read_blocks(bytes on disk)`
    blocks, so `root_blocks(paths)` is its block count.  Roots that do
    not exist are skipped (a corpus without code writes no `survey` or
    `mtnode` split); when no Parquet file is left the result is an empty
    Dataset typed by `schema`, the root's declared schema, and without
    one the read fails."""
    import pyarrow as pa
    import ray.data

    roots = [p for p in ([paths] if isinstance(paths, str) else paths) if os.path.exists(p)]
    files = _parquet_files(roots)
    if not files:
        if schema is None:
            raise FileNotFoundError(f"no Parquet file under {paths}")
        return ray.data.from_arrow(pa.schema([schema.field(c) for c in columns]).empty_table())
    return ray.data.read_parquet(
        files,
        columns=columns,
        override_num_blocks=read_blocks(sum(os.path.getsize(f) for f in files)),
    )


# edge columns in `partitioned_write`'s sort and dedup order
_EDGE_COLS = ("subj", "pred", "obj", "variable")


def partitioned_write(
    ds, path: str, stage: str, fingerprint: str, num_partitions: int, in_blocks: int
):
    """Final edge materialization: `part = subj % P` → groupby("part") →
    one Parquet file, sorted by (subj, pred, obj, variable), + manifest
    per partition.  P is the build's `exchange_width`.  The layout is
    fixed, never probed with `ds.schema()`, which would launch an extra
    execution of the lazy upstream.  `in_blocks` is the block count of
    `ds`, counted by the caller from its inputs without running it (a
    fused map of one read has `root_blocks` of its roots; a union adds
    each side's count).  The sort's cost scales with
    block COUNT, not bytes (observed 35s over 708 tiny blocks vs 2s over
    160), so an input split finer than 2 x P blocks is coalesced to P
    first.

    Why not `write_parquet(partition_cols=...)`: that writes one file per
    (input block × partition) — observed 22k tiny files for 128 MB.  The
    groupby shuffle costs one exchange but yields P right-sized files.

    Resume: partitions whose manifest matches the fingerprint AND width
    are filtered out BEFORE the shuffle (rows dropped map-side), so a
    restarted run pays only for unfinished partitions.  Every other
    partition directory is cleared first, including any written at
    another width: `subj % P` under two widths assigns rows to different
    partitions, so mixing them would drop or duplicate rows.
    Within-partition sort makes files byte-stable across runs (north
    rule: kill/restart → byte-identical output).  A root with no edge
    at all holds one empty `EDGES_SCHEMA` file, so readers of the edge
    set still find a typed table."""
    import shutil

    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    os.makedirs(path, exist_ok=True)
    done = frozenset(
        k
        for k in range(num_partitions)
        if manifest_matches(os.path.join(path, f"part={k}"), fingerprint, num_partitions)
    )
    # the root manifest marks completion; every partition directory that
    # is not a finished partition at THIS width — a killed write's
    # leftovers, or any partition of another width — is cleared
    for f in (manifest_path(path), os.path.join(path, "empty.parquet")):
        if os.path.exists(f):
            os.remove(f)
    for d in os.listdir(path):
        if d.startswith("part=") and int(d[len("part="):]) not in done:
            shutil.rmtree(os.path.join(path, d))
    wx = {"width": num_partitions}
    t0 = time.perf_counter()

    def add_part(batch: pa.Table) -> pa.Table:
        vals = batch.column("subj").to_numpy(zero_copy_only=False).astype(np.uint64)
        part = (vals % np.uint64(num_partitions)).astype(np.int32)
        batch = batch.append_column("part", pa.array(part))
        if done:
            keep = ~np.isin(part, list(done))
            batch = batch.filter(pa.array(keep))
        return batch

    # the global edge-duplication guard (reference
    # `DynamicCallLinker.scala:181-192` checks existing edges before
    # adding): two linker passes resolving the same call must emit ONE
    # edge.  Partitioning is by hash(subj), so a within-partition dedup
    # after the sort IS global over this root — no extra shuffle.
    def write_group(batch: pa.Table) -> pa.Table:
        part = batch.column("part")[0].as_py()
        batch = batch.take(
            pc.sort_indices(batch, sort_keys=[(c, "ascending") for c in _EDGE_COLS])
        ).drop_columns(["part"])
        if batch.num_rows > 1:
            keep = np.zeros(batch.num_rows, dtype=bool)
            keep[0] = True
            for c in _EDGE_COLS:
                col = batch.column(c)
                neq = pc.not_equal(col.slice(1), col.slice(0, batch.num_rows - 1))
                # null-safe: is_valid XOR handles null-vs-value; two nulls
                # compare equal for dedup purposes
                v = col.is_valid()
                v_hi = v.combine_chunks().to_numpy(zero_copy_only=False) if isinstance(v, pa.ChunkedArray) else v.to_numpy(zero_copy_only=False)
                neq_np = pc.coalesce(neq, pa.scalar(False))
                neq_np = (
                    neq_np.combine_chunks().to_numpy(zero_copy_only=False)
                    if isinstance(neq_np, pa.ChunkedArray)
                    else neq_np.to_numpy(zero_copy_only=False)
                )
                keep[1:] |= neq_np | (v_hi[1:] != v_hi[:-1])
            batch = batch.filter(pa.array(keep))
        sub = os.path.join(path, f"part={part}")
        os.makedirs(sub, exist_ok=True)
        write_table(batch, os.path.join(sub, "data.parquet"))
        return pa.table({"part": pa.array([part], pa.int32()), "rows": pa.array([batch.num_rows], pa.int64())})

    # the groupby's sort samples its input's block boundaries without
    # running the upstream map a second time (tests/test_build_executions.py
    # pins this), so the whole write is one execution
    tagged = ds.map_batches(add_part, batch_format="pyarrow")
    if in_blocks > 2 * num_partitions:
        tagged = tagged.repartition(num_partitions)
    written = tagged.groupby("part").map_groups(write_group, batch_format="pyarrow")
    parts_written: dict[int, int] = {}
    for b in written.iter_batches(batch_format="pyarrow", batch_size=None):
        for p, r in zip(b.column("part").to_pylist(), b.column("rows").to_pylist()):
            parts_written[p] = r
    wall = time.perf_counter() - t0
    total = 0
    for p in sorted(parts_written):
        m = write_manifest(
            os.path.join(path, f"part={p}"), f"{stage}[part={p}]", fingerprint, wall, extra=wx
        )
        total += m["rows"]
    for p in done:
        total += read_manifest(os.path.join(path, f"part={p}")).get("rows", 0)
    if not parts_written and not done:
        from ..schemas import EDGES_SCHEMA

        write_table(EDGES_SCHEMA.empty_table(), os.path.join(path, "empty.parquet"))
    write_manifest(path, stage, fingerprint, wall, extra={"total_rows": total, **wx})
    return path

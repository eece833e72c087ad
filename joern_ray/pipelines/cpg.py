"""The flagship pipeline: webtext docs -> partitioned CPG node/edge Parquet.

Mirrors the reference's `joern-parse` lifecycle (SURVEY.md §3.1:
frontend AST creation → default overlays → linking → persist) as a
Ray-Data stage chain with Parquet checkpoints between the macro-stages:

  stage "parse"   docs → detect_fragments → parse_fragments_batch (plain
                  tasks over a per-process ParseFragments memo, fused
                  per-method CFG/DDG overlays + FILE nodes from doc
                  passthrough rows) → checkpoint split by row kind
                  (node, mtnode, edge, reject, survey), each split
                  written with only its own columns (`SplitSink`).
                  Pure map chain — streams, no shuffle.
  stage "survey"  ONE pass over the node stream emitting tagged partial
                  distincts/counts (dup FQNs, type fqns, namespace
                  names, call fqns) → one small groupby — replaces four
                  separate scans (combiner pattern, reference
                  accumulator merge `AstCreationPass.scala:27-72`).
  stage "link"    canonicalize colliding FQNs (shuffle ONLY duplicated
                  names), method index → broadcast or salted-shuffle
                  call link, map-side TYPE/FILE/NAMESPACE linking,
                  stubs derived from the survey (no extra pass).
  stage "write"   final nodes/edges, hash-partitioned with per-partition
                  manifests (resume = skip finished partitions).

Ray streaming executions per build, measured with cpgbench on its
`build_boilerplate` corpus (13; 12 on `build_mixed`, which has no
duplicated class):
  main chain  parse, survey-agg, canonicalize, ONE canonical_mt
              projection pass, astlink (only when class names collide),
              fused dims+spec write, and the linked-edge partitioned
              write (ONE read of the plain and canonical nodes, fused
              with the link map);
  beside it   from parse on, the equivalence chain's six (content hash,
              exact-dup aggregate, band signatures, bucket minimum,
              collapse-map collect, sorted write).
The resolver passes probe the graph in at most two more executions,
the same in both dyn regimes: ONE module-dimension scan of the node
split and ONE (url, name) probe of canonical_mt, run only when an
import-qualified inherited base or an imported call awaits resolution
(the probe is skipped when the scan finds no module), and none
otherwise.  `<ret:f>` recovery adds none: its signatures ride the
projection pass and its known-method check is a survey read.  Past
`DYN_DRIVER_GATE` the SAFEDISPATCH walk alone runs as Dataset joins.
Execution-launch overhead dominates small runs, so the count is a
first-class design constraint (tests/test_build_executions.py holds
the budget).  Checkpoints make
macro-stages resumable (reference overlay skip, `LayerCreator.scala:
20-34`) and let downstream branches consume Parquet instead of
re-executing Ray lineage.  Every exchange downstream of parse is sized
by ONE width (`io.checkpoint.exchange_width`) derived from the parse
checkpoint's measured bytes, and every table written downstream of it
is coalesced to `ROWS_PER_FILE` rows per file.  Reads are sized from
bytes the same way: every checkpoint the build reads back goes through
`io.checkpoint.read_root`, whose block count comes from the files' size
on disk, not from Ray's `2 x available CPUs` floor (which split a
400-row table into 8 blocks, and every map and sort after it into 8
tasks).  A split the corpus never produced reads as an empty typed
Dataset, so a corpus without code, or without any doc, still builds a
typed graph.

A cold build, the first in a fresh Ray session, needs three processes
that each load ray.data (~0.8 s) before doing anything: the worker that
runs the caller's docs-read task, Ray Data's stats actor and a second
task worker.  Left to Ray, they load one after another, each when the
build first needs it.  So `build_cpg` starts the stats actor (an empty,
never-executed Dataset built on a thread) and the second worker (one
fire-and-forget warm-up task) before it calls `docs_factory`, and all
three load together.
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64
from ..io.checkpoint import ENGINE_VERSION as _ENGINE_VERSION
from ..io.checkpoint import (
    ROWS_PER_FILE,
    SplitSink,
    _parquet_files,
    checkpoint,
    exchange_width,
    manifest_matches,
    partitioned_write,
    read_root,
    root_blocks,
    write_manifest,
    write_options,
    write_table,
)
from ..schemas import EDGES_SCHEMA, NODES_SCHEMA, REJECTS_SCHEMA, rows_to_table
from ..stages.extract import detect_fragments_batch
from ..stages.link import (
    _ret_type_of,
    build_dyn_candidates,
    canonicalize_group,
    dyn_candidates_distributed,
    mapside_link_edges,
    namespace_id,
    salted_call_link,
    stub_id,
    type_id,
)
from ..stages.parse import UNION_SCHEMA, parse_fragments_batch
from ..util import worker_get

logger = logging.getLogger(__name__)

# the parse checkpoint's splits, one per row_kind, each the union's
# fields that kind fills
PARSE_SPLITS = {
    kind: pa.schema([UNION_SCHEMA.field(c) for c in cols])
    for kind, cols in {
        "node": NODES_SCHEMA.names,
        "mtnode": NODES_SCHEMA.names,
        "edge": EDGES_SCHEMA.names,
        "reject": REJECTS_SCHEMA.names,
        "survey": ["skind", "skey", "sc", "sn", "sx"],
    }.items()
}

# the equivalences table: each collapsed METHOD's id and its entity's id
_EQUIV_SCHEMA = pa.schema([("method_id", pa.int64()), ("entity_id", pa.int64())])


def edges_paths(out_dir: str) -> list[str]:
    """The final edges table is LOGICALLY one partitioned table over two
    physical roots: parse-time AST/overlay edges (already hive-partitioned
    by part at parse — never re-shuffled) + the linker-derived edges
    (partition-written after linking).  Returns the concrete parquet file
    list (read_parquet accepts files, not directory lists)."""
    return _parquet_files(
        [
            os.path.join(out_dir, "edges"),
            os.path.join(out_dir, "parse", "row_kind=edge"),
            os.path.join(out_dir, "dims", "rk=edge"),
            os.path.join(out_dir, "edges_astlink"),  # cross-fragment AstLinkerPass
            os.path.join(out_dir, "edges_inherit"),  # XInheritanceFullNamePass
        ]
    )


def nodes_paths(out_dir: str) -> list[str]:
    """The final nodes table is LOGICALLY one table over three physical
    roots — plain parse-time nodes, canonicalized METHOD/TYPE_DECL rows,
    and the survey-derived dimension/stub rows.  NOTHING is rewritten:
    at 10^12 nodes, re-shuffling every node into a second copy just to
    co-locate it is the single largest avoidable write (observed
    superlinear at 600k docs); the checkpoints are already deterministic,
    manifested and resumable, so they ARE the output."""
    return _parquet_files(
        [
            os.path.join(out_dir, "parse", "row_kind=node"),
            os.path.join(out_dir, "canonical_mt"),
            os.path.join(out_dir, "dims", "rk=node"),
        ]
    )


def read_nodes(out_dir: str, columns: list[str] | None = None):
    """Read the full node set (all physical roots) with a fixed column
    projection so mixed physical schemas unify."""
    import ray.data

    return ray.data.read_parquet(
        nodes_paths(out_dir), columns=columns or list(NODES_SCHEMA.names)
    )


def read_edges(out_dir: str, columns: list[str] | None = None):
    """Read the full edge set (both physical roots) with a fixed column
    projection so mixed physical schemas unify."""
    import ray.data

    return ray.data.read_parquet(
        edges_paths(out_dir), columns=columns or list(EDGES_SCHEMA.names)
    )


def read_union_split(path: str, kind: str, columns: list[str] | None = None):
    """Read one row_kind of the parse checkpoint.  Each kind is its own
    directory of files typed `PARSE_SPLITS[kind]`, so this scans ONLY
    that kind's files and decodes only `columns` (default all of the
    kind's); a kind the corpus never produced reads as an empty Dataset
    of its schema."""
    schema = PARSE_SPLITS[kind]
    return read_root(
        os.path.join(path, f"row_kind={kind}"), columns or schema.names, schema
    )


def _string_array(keys) -> pa.Array:
    return pa.array(list(keys), pa.string())


def keyset_split_fn(keys_ref, column: str, invert: bool = False):
    """Task UDF factory: keep rows whose `column` value is (or is not) in
    the `ray.put` key set; closure carries only the ObjectRef, and each
    worker process builds the key array once (`util.worker_get`)."""

    def _fn(batch: pa.Table) -> pa.Table:
        keys = worker_get(keys_ref, _string_array)
        if len(keys) == 0:
            return batch if invert else batch.slice(0, 0)
        mask = pc.is_in(batch.column(column), value_set=keys)
        if invert:
            mask = pc.invert(mask)
        return batch.filter(mask)

    return _fn


# The driver-side projections of canonical_mt, each with the columns its
# consumer keeps:
#   td_dup   canonical id per duplicated class name (AstLinkerPass)
#   dotted   TYPE_DECLs with an import-qualified inherits base
#            (XInheritanceFullNamePass)
#   sig      the signatures of the `<ret:f>` callees f (SymbolTable
#            iteration 2)
#   td_proj  TYPE_DECL hierarchy for the driver control plane
#   index    METHOD + MEMBER rows for the broadcast link indexes
_PROJ_COLS = {
    "td_dup": ["full_name", "id"],
    "dotted": ["id", "type_full_name"],
    "sig": ["full_name", "signature"],
    "td_proj": ["label", "full_name", "type_full_name"],
    "index": ["label", "full_name", "id", "signature"],
}
_PROJ_SCHEMA = pa.schema(
    [pa.field("tag", pa.string())]
    + [
        NODES_SCHEMA.field(c)
        for c in ("label", "full_name", "id", "type_full_name", "signature")
    ]
)


def canonical_projections(
    canon_path: str | None,
    *,
    td_dup_fqns: frozenset,
    imported_ref,
    ret_fns: frozenset,
    td_proj: bool,
    index: bool,
) -> dict[str, pa.Table]:
    """ONE parallel scan of the canonical table serves every driver-side
    projection of it (see `_PROJ_COLS`): each batch emits its rows tagged
    with the output they belong to, and the driver splits them by tag.
    An output is produced only when asked for — `td_dup` when
    `td_dup_fqns` is non-empty, `dotted` when `imported_ref` (a `ray.put`
    set of imported module names) is given, `sig` when `ret_fns` is
    non-empty — so one Ray execution replaces up to five separate scans.
    Without a canonical table (`canon_path` None) or any output asked
    for, nothing is scanned."""
    td_arr = _string_array(td_dup_fqns)
    ret_arr = _string_array(ret_fns)
    ml = pa.array(["METHOD", "MEMBER"])

    def _tagged(b: pa.Table) -> pa.Table:
        label = b.column("label")
        is_td = pc.equal(label, "TYPE_DECL")
        tfn = pc.coalesce(b.column("type_full_name"), pa.scalar(""))
        parts = []

        def emit(tag: str, t: pa.Table) -> None:
            n, keep = t.num_rows, _PROJ_COLS[tag]
            cols = [pa.array([tag] * n, pa.string())]
            for f_ in list(_PROJ_SCHEMA)[1:]:
                cols.append(
                    t.column(f_.name).cast(f_.type)
                    if f_.name in keep
                    else pa.nulls(n, f_.type)
                )
            parts.append(pa.Table.from_arrays(cols, schema=_PROJ_SCHEMA))

        if len(td_arr):
            in_dup = pc.is_in(b.column("full_name"), value_set=td_arr)
            emit("td_dup", b.filter(pc.and_(is_td, in_dup)))
        if imported_ref is not None:
            imps = worker_get(imported_ref)
            hit = b.filter(pc.and_(is_td, pc.match_substring(tfn, ".")))
            dotted = [
                any(
                    "." in base and base.rsplit(".", 1)[0] in imps
                    for base in (v or "").split(";")
                )
                for v in hit.column("type_full_name").to_pylist()
            ]
            emit("dotted", hit.filter(pa.array(dotted, pa.bool_())))
        if len(ret_arr):
            in_ret = pc.is_in(b.column("full_name"), value_set=ret_arr)
            emit("sig", b.filter(pc.and_(pc.equal(label, "METHOD"), in_ret)))
        if td_proj:
            emit("td_proj", b.filter(pc.and_(is_td, pc.not_equal(tfn, ""))))
        if index:
            emit("index", b.filter(pc.is_in(label, value_set=ml)))
        return pa.concat_tables(parts)

    wanted = (
        len(td_arr) or imported_ref is not None or len(ret_arr) or td_proj or index
    )
    got = []
    if canon_path is not None and wanted:
        got = list(
            read_root(canon_path, _PROJ_SCHEMA.names[1:])
            .map_batches(_tagged, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    rows = pa.concat_tables(got) if got else _PROJ_SCHEMA.empty_table()
    tag = rows.column("tag")
    return {k: rows.filter(pc.equal(tag, k)).select(c) for k, c in _PROJ_COLS.items()}


def _collect(ds, hits) -> list[tuple]:
    """The rows of the map `hits` over `ds`, as sorted tuples: ONE
    streamed execution whose hits alone reach the driver."""
    rows: list[tuple] = []
    for b in ds.map_batches(hits, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        rows += zip(*(c.to_pylist() for c in b.columns))
    return sorted(rows)


def _url_stem(url: str) -> str:
    seg = url.rstrip("/").rsplit("/", 1)[-1].split("?")[0]
    return seg.rsplit(".", 1)[0] if "." in seg else seg


def module_dimension(nodes, mods: frozenset) -> dict[str, str]:
    """The import resolver's module dimension, restricted to the module
    names `mods`: module -> url of the doc defining it.  A FILE row
    defines the module its url stem names (the reference's filename
    convention), a NAMESPACE_BLOCK row the package it names (go).  A
    FILE stem wins over a NAMESPACE_BLOCK name, then the smallest url.
    `nodes`: the plain node split's (label, name, url) columns."""
    import ray

    mods_ref = ray.put(mods)

    def _hits(b: pa.Table) -> pa.Table:
        want = worker_get(mods_ref)
        label = b.column("label")
        files = b.filter(pc.equal(label, "FILE")).column("url").to_pylist()
        rows = [(m, 0, u) for u in files if u and (m := _url_stem(u)) in want]
        names = worker_get(mods_ref, _string_array)
        ns = b.filter(
            pc.and_(
                pc.equal(label, "NAMESPACE_BLOCK"),
                pc.is_in(b.column("name"), value_set=names),
            )
        )
        rows += [
            (n, 1, u)
            for n, u in zip(ns.column("name").to_pylist(), ns.column("url").to_pylist())
            if u
        ]
        mod, rank, url = zip(*rows) if rows else ((), (), ())
        return pa.table(
            {
                "mod": pa.array(mod, pa.string()),
                "rank": pa.array(rank, pa.int8()),
                "url": pa.array(url, pa.string()),
            }
        )

    dim: dict[str, str] = {}
    for mod, _rank, url in _collect(nodes, _hits):
        dim.setdefault(mod, url)
    return dim


def canonical_probe(canon, keys: frozenset) -> dict[tuple, list[str]]:
    """(label, url, name) -> sorted full names of the canonical
    METHOD/TYPE_DECL rows named `name` in the doc at `url`, for the
    `keys` that have any.  `canon`: canonical_mt's (label, name,
    full_name, url) columns.  A renamed duplicate TYPE_DECL
    (`C<duplicate>k`) is no declaration to resolve to."""
    import ray

    keys_ref = ray.put(keys)
    labels = pa.array(["METHOD", "TYPE_DECL"])

    def _hits(b: pa.Table) -> pa.Table:
        want = worker_get(keys_ref)
        full_name = pc.coalesce(b.column("full_name"), pa.scalar(""))
        dup_td = pc.and_(
            pc.equal(b.column("label"), "TYPE_DECL"),
            pc.match_substring(full_name, "<duplicate>"),
        )
        t = b.filter(
            pc.and_(pc.is_in(b.column("label"), value_set=labels), pc.invert(dup_td))
        )
        keep = [
            i
            for i, k in enumerate(
                zip(
                    t.column("label").to_pylist(),
                    t.column("url").to_pylist(),
                    t.column("name").to_pylist(),
                )
            )
            if k in want
        ]
        t = t.take(pa.array(keep, pa.int64()))
        return t.select(["label", "url", "name", "full_name"])

    out: dict[tuple, list[str]] = {}
    for label, url, name, full_name in _collect(canon, _hits):
        out.setdefault((label, url, name), []).append(full_name)
    return out


# what a build's tasks import on a worker: Ray Data and the modules
# holding the build's UDFs
_WARM_MODULES = (
    "ray.data",
    "joern_ray.pipelines.cpg",
    "joern_ray.stages.parse",
    "joern_ray.stages.dedup",
)


def _warm_worker(modules: tuple) -> None:
    """Plain-task body that imports `modules`, so the worker running it
    is warm before the build's tasks need it.  Nothing waits on it, so
    it raises nothing: a failed import only costs the time it saves."""
    import importlib

    for m in modules:
        try:
            importlib.import_module(m)
        except Exception:  # noqa: BLE001 -- a warm-up only saves time
            logger.debug("worker warm-up: cannot import %s", m, exc_info=True)


# rows per batch of the parse `map_batches`.  Detect (and the compdb
# filter) fuse into the parse operator, whose input is the docs read, so
# Ray bundles at least this many DOCS into each parse task: both
# cpgbench corpora (80 docs) parse in one task.  Smaller parse tasks
# were measured slower (BASELINE.md, "Typed splits")
PARSE_BATCH_SIZE = 128
# canonical METHOD count up to which calls link against a broadcast
# fqn->id index; past it the salted shuffle join takes over
BROADCAST_LIMIT = 2_000_000
# distinct method + call fqns up to which the SAFEDISPATCH walk runs on
# the driver over collected survey key sets; past it the distributed
# INHERITS_FROM closure (`dyn_candidates_distributed`) takes over
DYN_DRIVER_GATE = 20_000_000
# call fqns at least this frequent are salted N_SALTS ways in the
# shuffle join (the skewed malloc/printf/<operator> keys)
HOT_KEY_THRESHOLD = 5_000
N_SALTS = 16


def build_cpg(
    docs_factory,
    out_dir: str,
    fingerprint: str,
    *,
    force_shuffle_link: bool = False,
    compdb_json: str | None = None,
) -> dict:
    """Run the full pipeline; returns paths + row counts.

    `docs_factory(columns)` must return a fresh docs Dataset (optionally
    column-pruned); it is consumed exactly once (by the parse stage).

    `force_shuffle_link`: link calls with the salted shuffle join even
    when the method index is small enough to broadcast.

    `compdb_json`: compile_commands.json content — when given, C-family
    fragments are restricted to the database's file set and parsed with
    its per-file `-D` defines (reference JSONCompilationDatabaseParser,
    `c2cpg/.../parser/JSONCompilationDatabaseParser.scala:34-111`)."""
    threads: list = []
    try:
        return _build_cpg(
            docs_factory, out_dir, fingerprint, force_shuffle_link, compdb_json, threads
        )
    finally:
        # the equivalence thread started after parse is joined on EVERY
        # exit path, so a failed build leaves nothing running
        for t in threads:
            t.join()


def _build_cpg(
    docs_factory, out_dir, fingerprint, force_shuffle_link, compdb_json, threads
) -> dict:
    """`build_cpg`'s body; appends the threads it starts to `threads`."""
    import shutil
    import sys
    import threading

    import ray
    import ray.data

    # settle a lazy-import RACE before any concurrent Dataset
    # construction: Ray's path resolution probes
    # `fsspec.implementations.http` on every dataset construction;
    # without aiohttp installed the import always fails and is
    # retried — two driver threads importing it concurrently can observe
    # a partially-initialized module ("cannot import name
    # HTTPFileSystem") and crash.  Register a stub module once so the
    # probe import succeeds; Ray only touches the name after an
    # isinstance(PyFileSystem) gate that local paths never pass.
    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:  # noqa: BLE001
        import types as _types

        _stub = _types.ModuleType("fsspec.implementations.http")
        _stub.HTTPFileSystem = type("HTTPFileSystem", (), {})
        sys.modules["fsspec.implementations.http"] = _stub

    # ---- cold starts, overlapped (module docstring) -------------------
    # The empty Dataset that creates the stats actor is never executed,
    # so no third streaming executor starts.  ONE warm-up task: the
    # build runs at most two chains at once and the docs read warms the
    # first worker; more would start worker processes the build does
    # not use.
    ray.remote(_warm_worker).options(max_retries=0).remote(_WARM_MODULES)

    def _stats_actor():
        try:
            ray.data.from_items([])
        except Exception:  # noqa: BLE001 -- a warm-up only saves time
            logger.debug("stats-actor warm-up failed", exc_info=True)

    t_warm = threading.Thread(target=_stats_actor, name="cpg-warmup")
    t_warm.start()
    threads.append(t_warm)

    os.makedirs(out_dir, exist_ok=True)
    # fold the parser-code fingerprint into the lineage fingerprint: any
    # parse-output-affecting code change invalidates checkpoints without
    # relying on a manual ENGINE_VERSION bump (ADVICE r4)
    from ..io.checkpoint import parser_fingerprint

    user_fingerprint = fingerprint
    fingerprint = f"{fingerprint}+p{parser_fingerprint()}"
    compdb = None
    if compdb_json is not None:
        from ..sources.compdb import parse_compilation_database
        from ..stages.extract import hash64_bytes

        compdb = parse_compilation_database(compdb_json)
        # the database shapes parse output -> it is lineage
        fingerprint += f"+cdb{hash64_bytes(compdb_json.encode()) & 0xFFFFFFFF:08x}"
    parse_path = os.path.join(out_dir, "parse")
    dims_path = os.path.join(out_dir, "dims")
    edges_path = os.path.join(out_dir, "edges")

    # ---- stage: parse (pure map chain, streams) -----------------------
    # Plain TASKS over a per-process parser memo: no actor pins a CPU, so
    # the read and write tasks always find a slot (a fixed actor pool of
    # at least 2 starved the read task forever on a 2-CPU cluster).
    def parse_pipeline():
        ds = docs_factory(None)
        frags = ds.map_batches(detect_fragments_batch, batch_format="pyarrow")
        if compdb is not None:
            import functools

            from ..sources.compdb import apply_compdb_batch

            frags = frags.map_batches(
                functools.partial(apply_compdb_batch, db=compdb),
                batch_format="pyarrow",
            )
        return frags.map_batches(
            parse_fragments_batch, batch_size=PARSE_BATCH_SIZE, batch_format="pyarrow"
        )

    # split the checkpoint by row_kind ONLY: an output-partition key
    # here would explode into blocks × kinds × parts tiny files.  The
    # split write fuses into each parse task (no `min_rows_per_file`), so
    # it is written as it streams: this checkpoint IS the width's measured
    # input.  A corpus of 0 docs writes no split; every split then reads
    # as an empty typed Dataset, and the build writes a graph of META_DATA.
    checkpoint(
        parse_pipeline,
        parse_path,
        "parse",
        fingerprint,
        splits=("row_kind", PARSE_SPLITS),
    )
    # per-stage metrics: reject counts are free from the reject dir's
    # Parquet footers (the north rule's lineage + metrics; reference
    # Report table analog, `x2cpg/.../utils/Report.scala:27-60`)
    import json as _json

    from ..io.checkpoint import _footer_row_count, manifest_path, read_manifest

    reject_dir = os.path.join(parse_path, "row_kind=reject")
    n_rejects = _footer_row_count(reject_dir)[0] if os.path.isdir(reject_dir) else 0
    try:
        mp = manifest_path(parse_path)
        m = _json.load(open(mp))
        if m.get("reject_rows") != n_rejects:
            m["reject_rows"] = n_rejects
            with open(mp + ".tmp", "w") as f:
                _json.dump(m, f, indent=1)
            os.replace(mp + ".tmp", mp)
    except (OSError, _json.JSONDecodeError):
        pass
    # exchange width from the parse checkpoint's measured bytes, so a
    # resumed build derives the same one; the edges root records the
    # width its `subj % P` layout was written at and is rebuilt, never
    # mixed, when the width differs
    width = exchange_width(read_manifest(parse_path)["bytes"])
    parse_fp = f"{fingerprint}/parse"
    stats_path = os.path.join(out_dir, "build_stats.json")

    def _result(stats: dict, resumed: bool) -> dict:
        """One return contract for fresh and resumed builds: the stats
        persisted to build_stats.json plus the output paths."""
        return {
            **stats,
            "out_dir": out_dir,
            "nodes_path": nodes_paths(out_dir),
            "edges_path": edges_paths(out_dir),
            "edges_linked_path": edges_path,
            "dims_path": os.path.join(dims_path, "rk=node"),
            "parse_path": parse_path,
            "resumed": resumed,
        }

    # dims is the LAST artifact written, so (dims + edges) matching means
    # the whole chain (canonical included) completed for this fingerprint;
    # without readable stats the build runs again over the finished roots
    if manifest_matches(dims_path, parse_fp) and manifest_matches(
        edges_path, parse_fp, width
    ):
        try:
            with open(stats_path) as f:
                return _result(_json.load(f), True)
        except (OSError, _json.JSONDecodeError):
            pass

    # "node" kind now excludes METHOD/TYPE_DECL rows — they live in their
    # own mtnode partition (written by the parse stage)
    nodes_plain = lambda: read_union_split(parse_path, "node")  # noqa: E731
    # the LINK scan needs only the identity/linking columns — dropping
    # code/line/col/etc. halves the bytes moved through the linker
    # (code snippets dominate the node payload)
    _LINK_COLS = [
        "id", "label", "name", "full_name", "signature",
        "method_full_name", "type_full_name", "url",
        "dynamic_type_hint_full_name",
    ]
    mt_ds = lambda: read_union_split(parse_path, "mtnode")  # noqa: E731

    # ---- stage: entity equivalence (MinHash collapse; north star:
    # "min-hash dedup collapses equivalent entities") -------------------
    # Near-identical METHOD bodies across documents map to one canonical
    # entity id (provenance preserved — members keep their own rows; the
    # equivalences table is the collapse mapping).  It reads only the
    # parse checkpoint's mtnode split, so it starts HERE and runs beside
    # the whole link chain (survey → … → edge write) on its own thread.
    # At most two streaming executors run at once — this chain and the
    # main chain, which runs its executions one after another: a third
    # concurrent executor livelocks at low CPU counts (all three block in
    # get_output_blocking while the raylet thrashes workers — observed
    # at 4 CPUs).
    equiv_path = os.path.join(out_dir, "equivalences")
    eq_box: list = [None]
    errs: list[BaseException] = []

    def _equiv():
        try:
            from ..stages.dedup import minhash_dedup

            def methods_code(batch: pa.Table) -> pa.Table:
                m = pc.and_(
                    pc.equal(batch.column("label"), "METHOD"),
                    pc.not_equal(pc.coalesce(batch.column("code"), pa.scalar("")), ""),
                )
                b = batch.filter(m)
                return pa.table(
                    {
                        # ids are 63-bit — safe in the int64 the dedup
                        # stage uses
                        "method_id": b.column("id").combine_chunks().cast(pa.int64()),
                        "text": pc.coalesce(b.column("code"), pa.scalar("")),
                    }
                )

            # task-based minhash (per-worker memo) — no pinned actor
            # CPUs, so this overlaps the main chain without starving it
            out = minhash_dedup(
                mt_ds().map_batches(methods_code, batch_format="pyarrow"),
                text_col="text",
                id_col="method_id",
                num_perm=64,
                bands=16,
                num_partitions=width,
            )

            # keep only actually-collapsed members (canonical != self);
            # the collapse mapping is written DISTRIBUTED (sorted for
            # determinism) — at web scale it is O(duplicated methods)
            # and must never pass through the driver
            def collapsed_only(batch: pa.Table) -> pa.Table:
                b = batch.filter(
                    pc.not_equal(
                        batch.column("method_id"), batch.column("canonical_id")
                    )
                )
                return b.rename_columns(_EQUIV_SCHEMA.names)

            if os.path.isdir(equiv_path):
                shutil.rmtree(equiv_path)
            # no materialize before the sort: `out` is materialized or a
            # map over materialized blocks (minhash_dedup's contract), so
            # the sort's boundary sampling re-runs nothing costly
            (
                out.map_batches(collapsed_only, batch_format="pyarrow")
                .sort("method_id")
                .write_parquet(
                    equiv_path,
                    min_rows_per_file=ROWS_PER_FILE,
                    **write_options(_EQUIV_SCHEMA),
                )
            )
            os.makedirs(equiv_path, exist_ok=True)  # empty result edge case
            m = write_manifest(equiv_path, "equivalences", parse_fp, 0.0)
            eq_box[0] = m["rows"]
        except BaseException as e:  # noqa: BLE001
            errs.append(e)

    t_eq = threading.Thread(target=_equiv, name="cpg-equivalences")
    t_eq.start()
    threads.append(t_eq)

    # ---- stage: survey aggregation (distributed groupby, checkpointed) --
    # Replaces the driver-side polars pass over ALL partials (O(distinct
    # FQNs × batches) transfer + ~10s fixed driver time at 600k docs):
    # the per-kind partial counts are PIVOTED into columns map-side so
    # ONE Ray groupby(skey) aggregates everything the control plane and
    # the dims/stub synthesis need — per-kind counts (m/td/ty/ns/ca) and
    # the CallSummary min/max-arg stats — into the `survey_agg`
    # checkpoint.  The driver reads back only tiny filtered projections
    # (dup FQNs ≥2, hot keys ≥ threshold, counts); the stub anti-join
    # (ca_c>0 & m_c=0) becomes a column filter instead of a second
    # groupby.  The full key sets never touch the driver except in the
    # gated broadcast control plane below.
    import pyarrow.dataset as pads

    svagg_path = os.path.join(out_dir, "survey_agg")
    _SN_SENTINEL = 1 << 31  # non-'ca' rows must not win the Min(sn)

    _SV_AGGS = [
        ("m_c", "sum"),
        ("td_c", "sum"),
        ("mb_c", "sum"),
        ("ty_c", "sum"),
        ("ns_c", "sum"),
        ("ca_c", "sum"),
        ("th_c", "sum"),
        ("im_c", "sum"),
        ("sn", "min"),
        ("sx", "max"),
    ]
    _SV_NAMES = [
        "skey", "m_c", "td_c", "mb_c", "ty_c", "ns_c", "ca_c", "th_c",
        "im_c", "sn", "sx",
    ]
    # the survey_agg checkpoint: _SV_NAMES with the arg stats renamed
    _SV_SCHEMA = pa.schema(
        [("skey", pa.string())]
        + [(c_, pa.int64()) for c_ in _SV_NAMES[1:-2]]
        + [("s_min", pa.int64()), ("s_max", pa.int64())]
    )
    n_sv_buckets = width

    def svagg_factory():
        def _local_combine(t: pa.Table) -> pa.Table:
            # select by NAME: pyarrow's keys-vs-aggregates column order
            # is version-dependent (same fix as bucketed_group_agg)
            g = t.group_by("skey").aggregate(_SV_AGGS)
            g = g.select(["skey"] + [f"{c_}_{f_}" for c_, f_ in _SV_AGGS])
            return g.rename_columns(_SV_NAMES)

        def _pivot(b: pa.Table) -> pa.Table:
            # imported in the UDF: only workers need polars, and on the
            # driver it would add ~20 MB to the build's peak RSS
            import polars as pl

            kind = b.column("skind")
            zero = pa.scalar(0, pa.int64())

            def cnt(k: str):
                return pc.if_else(pc.equal(kind, k), b.column("sc"), zero)

            # 'ca' and 'th' rows both carry call-site arg stats
            is_ca = pc.is_in(kind, value_set=pa.array(["ca", "th"]))
            t = pa.table(
                {
                    "skey": b.column("skey"),
                    "m_c": cnt("m"),
                    "td_c": cnt("td"),
                    "mb_c": cnt("mb"),
                    "ty_c": cnt("ty"),
                    "ns_c": cnt("ns"),
                    "ca_c": cnt("ca"),
                    "th_c": cnt("th"),
                    "im_c": cnt("im"),
                    "sn": pc.if_else(
                        is_ca, b.column("sn"), pa.scalar(_SN_SENTINEL, pa.int64())
                    ),
                    "sx": pc.if_else(is_ca, b.column("sx"), zero),
                }
            )
            # map-side combine (pyarrow group_by — vectorized C++), then a
            # DETERMINISTIC key-hash bucket (polars fixed-seed hash; the
            # builtin hash() is salted per worker process and would split
            # one key across buckets)
            g = _local_combine(t)
            kh = (
                pl.from_arrow(g.column("skey").combine_chunks())
                .hash(seed=11)
                .to_numpy()
            )
            bucket = (kh % np.uint64(n_sv_buckets)).astype(np.int64)
            return g.append_column("bucket", pa.array(bucket, pa.int64()))

        def _bucket_combine(g: pa.Table) -> pa.Table:
            # sorted: the hash group_by emits keys in no fixed order
            return _local_combine(g.drop(["bucket"])).sort_by("skey")

        def _rn(b: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [b.column(c_).cast(f_.type) for c_, f_ in zip(_SV_NAMES, _SV_SCHEMA)],
                schema=_SV_SCHEMA,
            )

        # combine -> bucket shuffle on a small int key -> vectorized
        # per-bucket combine.  Ray's built-in .aggregate() accumulates
        # per ROW in Python (measured 7.2s for 350k partial rows at
        # sf0.1); this shape is 2.7s and all the per-key work stays in
        # Arrow kernels.  Buckets scale with the measured width, so
        # per-group size is distinct_keys/buckets regardless of corpus size.
        return (
            read_union_split(parse_path, "survey")
            .map_batches(_pivot, batch_format="pyarrow")
            .groupby("bucket")
            .map_groups(_bucket_combine, batch_format="pyarrow")
            .map_batches(_rn, batch_format="pyarrow")
        )

    checkpoint(
        svagg_factory,
        svagg_path,
        "survey_agg",
        parse_fp,
        min_rows_per_file=ROWS_PER_FILE,
        schema=_SV_SCHEMA,
    )
    _svds = pads.dataset(svagg_path, format="parquet")

    def _sv_keys(flt) -> list[str]:
        return (
            _svds.to_table(columns=["skey"], filter=flt).column("skey").to_pylist()
        )

    _f = pads.field
    # NOTE: member (mb) dups are NOT canonical-renamed — the reference's
    # FullNameUniquenessPass covers methods/typedecls only; the member
    # index picks its canonical deterministically by sorted (fqn, id)
    # first-wins, so the dup shuffle need not move the (highly
    # duplicated) Type.field rows (measured +2s at sf0.1 when it did)
    dup_fqns = frozenset(_sv_keys((_f("m_c") >= 2) | (_f("td_c") >= 2)))
    n_methods = _svds.count_rows(filter=_f("m_c") > 0)
    n_mt = (
        n_methods
        + _svds.count_rows(filter=_f("td_c") > 0)
        + _svds.count_rows(filter=_f("mb_c") > 0)
    )
    n_calls = _svds.count_rows(filter=_f("ca_c") > 0)
    use_broadcast = (not force_shuffle_link) and n_methods <= BROADCAST_LIMIT
    hot_keys = set(_sv_keys(_f("ca_c") >= HOT_KEY_THRESHOLD))

    # ---- stage: canonicalize (both regimes, fully distributed) --------
    # FullNameUniquenessPass analog: shuffle ONLY rows whose full_name
    # actually collides (the dup survey keeps the Sort input tiny), then
    # checkpoint — downstream consumers (projection pass, astlink, node
    # write) read Parquet instead of re-executing lineage,
    # and the driver never materializes METHOD/TYPE_DECL rows.
    canon_path = os.path.join(out_dir, "canonical_mt")
    if n_mt:
        dup_ref = ray.put(dup_fqns)

        def canonical_factory():
            mt_unique = mt_ds().map_batches(
                keyset_split_fn(dup_ref, "full_name", True), batch_format="pyarrow"
            )
            if not dup_fqns:
                return mt_unique
            mt_dups = (
                mt_ds()
                .map_batches(
                    keyset_split_fn(dup_ref, "full_name", False),
                    batch_format="pyarrow",
                )
                .groupby("full_name")
                .map_groups(canonicalize_group, batch_format="pyarrow")
            )
            return mt_unique.union(mt_dups)

        checkpoint(
            canonical_factory,
            canon_path,
            "canonical_mt",
            parse_fp,
            min_rows_per_file=ROWS_PER_FILE,
            schema=PARSE_SPLITS["mtnode"],
        )
    # the link scan's roots: the plain nodes, plus the canonical
    # METHOD/TYPE_DECL rows when the corpus has any
    scan_roots = [os.path.join(parse_path, "row_kind=node")] + (
        [canon_path] if n_mt else []
    )

    # ---- resolver want-sets, from the survey alone --------------------
    # Filtered driver reads of survey_agg (like `_sv_keys` above: no Ray
    # execution), each holding only the keys that await resolution:
    #   imported  module names the corpus imports (`import a.b.C` imports
    #             both `a.b.C` and `a.b`);
    #   imp_want  ImportResolverPass: unresolved dotted calls `m.f` whose
    #             prefix m is imported;
    #   ret_want  SymbolTable iteration 2: `<ret:f>.g` calls, by f and g.
    td_dup_fqns = frozenset(_sv_keys(_f("td_c") >= 2))
    _imp_names = _sv_keys(_f("im_c") > 0)  # O(distinct imports)
    imported = {n.rsplit(".", 1)[0] if "." in n else n for n in _imp_names if n}
    imported |= {n for n in _imp_names if n}
    imp_ref = ray.put(frozenset(imported)) if imported else None
    imp_want = (
        _sv_keys(
            (_f("ca_c") > 0)
            & (_f("m_c") == 0)
            & pc.match_substring(_f("skey"), ".")
            & pc.replace_substring_regex(
                _f("skey"), pattern=r"\.[^.]*$", replacement=""
            ).isin(sorted(imported))
        )
        if imported
        else []
    )
    ret_keys = _sv_keys((_f("ca_c") > 0) & pc.starts_with(_f("skey"), "<ret:"))
    ret_want: dict[str, tuple[str, str]] = {}
    for fqn in ret_keys:
        f_name, sep, g_name = fqn[len("<ret:"):].partition(">.")
        if sep and f_name and g_name:
            ret_want[fqn] = (f_name, g_name)
    dyn_regime = (
        "driver" if n_methods + n_calls <= DYN_DRIVER_GATE else "distributed"
    )

    # ---- one projection pass over canonical_mt ------------------------
    # Every driver-side reader of the canonical table — AstLinkerPass's
    # canonical class ids, XInheritanceFullNamePass's import-qualified
    # bases, the `<ret:f>` signatures, the driver control plane's
    # hierarchy and the broadcast link indexes — takes its rows from ONE
    # parallel streamed filter (a serial pads.to_table decoded the whole
    # canon table on the driver — a fixed Amdahl term).  Which outputs it
    # carries is known from the survey alone.
    proj = canonical_projections(
        canon_path if n_mt else None,
        td_dup_fqns=td_dup_fqns,
        imported_ref=imp_ref,
        ret_fns=frozenset(f_name for f_name, _g in ret_want.values()),
        td_proj=dyn_regime == "driver",
        index=use_broadcast,
    )

    # ---- stage: cross-fragment AstLinkerPass --------------------------
    # (reference `x2cpg/.../base/AstLinkerPass.scala:10-62`) children of
    # RENAMED duplicate TYPE_DECLs re-link to the canonical class so a
    # class reopened across documents yields ONE AST tree.  Distributed
    # bucketed join (both sides O(duplicated-class occurrences)); only
    # the per-distinct-name canonical-id map is broadcast.  Own small
    # edges root — unioning into the main link scan would break its
    # streaming fusion (measured 2x, see the `_spec_ast` note below).
    astlink_path = os.path.join(out_dir, "edges_astlink")
    if os.path.isdir(astlink_path):
        shutil.rmtree(astlink_path)
    canon_td_ids = dict(
        zip(
            proj["td_dup"].column("full_name").to_pylist(),
            proj["td_dup"].column("id").to_pylist(),
        )
    )
    if canon_td_ids:
        from ..stages.link import ast_link_cross_fragment

        ast_link_cross_fragment(
            lambda: read_root(
                canon_path,
                ["id", "label", "name", "full_name", "url", "fragment_idx"],
            ),
            td_dup_fqns,
            canon_td_ids,
            num_buckets=width,
        ).write_parquet(
            astlink_path, min_rows_per_file=ROWS_PER_FILE, **write_options(EDGES_SCHEMA)
        )
        write_manifest(astlink_path, "edges_astlink", parse_fp, 0.0)

    # ---- stage: module resolution -------------------------------------
    # XInheritanceFullNamePass (reference `x2cpg/.../frontend/
    # XInheritanceFullNamePass.scala:1-142`) and ImportResolverPass
    # (`pysrc2cpg/ImportsPass + PythonImportResolverPass`) resolve an
    # import-qualified name `m.n` the same way: the module dimension maps
    # the imported module m to the doc defining it, and the declaration
    # named n in that doc is the target — the TYPE_DECL for an inherited
    # base (`class C(zoo.D)`), the METHOD for a call (`foo.bar()`; this
    # covers what naive linking cannot: bar defined in several docs).
    # ONE module-dimension scan and ONE (url, name) probe of canonical_mt
    # serve both, run only when some name awaits resolution, and collect
    # only hits.  Outputs: the alias map the dyn closure reads in BOTH
    # regimes (so override resolution crosses the import), corrective
    # INHERITS_FROM edges (own tiny root) and the import-resolved calls.
    inherit_hits = list(
        zip(
            proj["dotted"].column("id").to_pylist(),
            proj["dotted"].column("type_full_name").to_pylist(),
        )
    )
    want_bases = {
        base
        for _nid, tfn in inherit_hits
        for base in tfn.split(";")
        if "." in base and base.rsplit(".", 1)[0] in imported
    }
    mods = frozenset(q.rsplit(".", 1)[0] for q in want_bases.union(imp_want))
    module_dim = (
        module_dimension(
            read_union_split(parse_path, "node", ["label", "name", "url"]), mods
        )
        if mods
        else {}
    )
    # (label, qualified name) -> the (label, url, name) of its declaration
    decl_keys: dict[tuple[str, str], tuple[str, str, str]] = {}
    for label, names in (("TYPE_DECL", want_bases), ("METHOD", imp_want)):
        for q in names:
            m_, n_ = q.rsplit(".", 1)
            if m_ in module_dim:
                decl_keys[label, q] = (label, module_dim[m_], n_)
    declared = (
        canonical_probe(
            read_root(canon_path, ["label", "name", "full_name", "url"]),
            frozenset(decl_keys.values()),
        )
        if decl_keys and n_mt
        else {}
    )
    inherit_alias: dict[str, str] = {}
    imp_resolved: dict[str, list[str]] = {}
    for (label, q), key in decl_keys.items():
        got = declared.get(key)
        if got and label == "METHOD":
            imp_resolved[q] = got
        elif got and got[0] != q:
            inherit_alias[q] = got[0]
    inherit_path = os.path.join(out_dir, "edges_inherit")
    if os.path.isdir(inherit_path):
        shutil.rmtree(inherit_path)
    if inherit_alias:
        _ie = sorted(
            (nid, type_id(inherit_alias[base]))
            for nid, tfn in inherit_hits
            for base in tfn.split(";")
            if base in inherit_alias
        )
        _iet = pa.table(
            {
                "subj": pa.array([s for s, _o in _ie], pa.uint64()),
                "pred": pa.array(["INHERITS_FROM"] * len(_ie), pa.string()),
                "obj": pa.array([o for _s, o in _ie], pa.uint64()),
                "variable": pa.nulls(len(_ie), pa.string()),
            },
            schema=EDGES_SCHEMA,
        )
        os.makedirs(inherit_path, exist_ok=True)
        write_table(_iet, os.path.join(inherit_path, "data.parquet"))
        write_manifest(inherit_path, "edges_inherit", parse_fp, 0.0)

    # ---- stage: link --------------------------------------------------
    # The driver regime's TYPE_DECL inheritance projection (hierarchy for
    # SAFEDISPATCH dynamic dispatch) came out of the projection pass —
    # tiny (only declarations participating in inheritance).
    link_regime = "broadcast" if use_broadcast else "salted_shuffle"

    # Control plane.  Only the SAFEDISPATCH candidate walk, with its
    # NaiveCallLinker entries, has two regimes (parity-tested,
    # tests/test_dynlink_distributed.py):
    # - driver (up to DYN_DRIVER_GATE): collect the survey key sets
    #   (O(distinct method+call FQNs)) and walk the hierarchy in-memory.
    # - distributed (past it): the iterative INHERITS_FROM self-join
    #   (SURVEY.md §2.4 row 3) — doubling closure over the TYPE_DECL
    #   hierarchy + candidate/naive joins, all as Dataset joins; only the
    #   RESULT (O(dyn candidate pairs), the broadcast side both link
    #   regimes consume) reaches the driver.
    def _apply_inherit_alias(t: pa.Table) -> pa.Table:
        """Rewrite ;-joined inherits lists through the cross-document
        alias map (unique-value rewrite + dictionary scatter) so the
        hierarchy closure sees canonical base names in BOTH regimes."""
        if not inherit_alias or t.num_rows == 0:
            return t
        col = t.column("type_full_name")
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        d = pc.dictionary_encode(col)
        uniq = d.dictionary.to_pylist()

        def rw(v):
            if not v or "." not in v:
                return v
            return ";".join(inherit_alias.get(p_, p_) for p_ in v.split(";"))

        new_col = pa.DictionaryArray.from_arrays(
            d.indices, pa.array([rw(v) for v in uniq], pa.string())
        ).cast(pa.string())
        return t.set_column(
            t.schema.get_field_index("type_full_name"), "type_full_name", new_col
        )

    if dyn_regime == "driver":
        dispatch, naive = build_dyn_candidates(
            _apply_inherit_alias(proj["td_proj"]),
            _sv_keys(_f("ca_c") > 0),
            frozenset(_sv_keys(_f("m_c") > 0)),
        )
    else:
        if n_mt:

            def _td_filter(b: pa.Table) -> pa.Table:
                m = pc.and_(
                    pc.equal(b.column("label"), "TYPE_DECL"),
                    pc.not_equal(
                        pc.coalesce(b.column("type_full_name"), pa.scalar("")), ""
                    ),
                )
                # inherit_alias is a small dict captured in the task
                # closure (one entry per import-qualified base name)
                return _apply_inherit_alias(
                    b.filter(m).select(["full_name", "type_full_name"])
                )

            td_ds = read_root(
                canon_path, ["label", "full_name", "type_full_name"]
            ).map_batches(_td_filter, batch_format="pyarrow")
        else:
            td_ds = ray.data.from_arrow(
                pa.table(
                    {
                        "full_name": pa.array([], pa.string()),
                        "type_full_name": pa.array([], pa.string()),
                    }
                )
            )

        def _skey_pick(col: str):
            def f(b: pa.Table) -> pa.Table:
                return pa.table(
                    {
                        "fqn": b.filter(
                            pc.greater(b.column(col), 0)
                        ).column("skey")
                    }
                )

            return f

        sv_cols = read_root(svagg_path, ["skey", "m_c", "ca_c"])
        dispatch, naive = dyn_candidates_distributed(
            td_ds,
            sv_cols.map_batches(_skey_pick("ca_c"), batch_format="pyarrow"),
            sv_cols.map_batches(_skey_pick("m_c"), batch_format="pyarrow"),
            num_partitions=width,
        )
    # SymbolTable iteration 2 (reference `XTypeRecovery.scala:25,
    # 151-177` runs exactly two passes so linker-recovered RETURN types
    # feed back into receiver typing): `x = f(); x.g()` surfaces as the
    # symbolic call fqn `<ret:f>.g`; f's return type T, off its canonical
    # signature (the projection pass's `sig` rows), names the candidate
    # `T.g`, kept when T.g is a known method (a filtered survey read) —
    # a resolution iteration 1 cannot make when f lives in another doc.
    sigs = dict(
        zip(
            proj["sig"].column("full_name").to_pylist(),
            proj["sig"].column("signature").to_pylist(),
        )
    )
    ret_cands = {}
    for fqn, (f_name, g_name) in ret_want.items():
        rt = _ret_type_of(sigs.get(f_name))
        if rt:
            ret_cands[fqn] = f"{rt}.{g_name}"
    known_c = set(
        _sv_keys((_f("m_c") > 0) & _f("skey").isin(sorted(set(ret_cands.values()))))
        if ret_cands
        else ()
    )
    ret_resolved = {fqn: [c] for fqn, c in ret_cands.items() if c in known_c}
    # ONE merge, in the reference's pass order (ImportResolver and
    # TypeRecovery before NaiveCallLinker, `NaiveCallLinker.scala:12-29`
    # last): SAFEDISPATCH, then the import and `<ret:>` resolutions, then
    # naive — the first resolver to claim a call fqn keeps it
    dyn_fqn = dict(dispatch)
    for resolved in (imp_resolved, ret_resolved, naive):
        for fqn, cands in resolved.items():
            dyn_fqn.setdefault(fqn, cands)
    unres_ret = any(k not in dyn_fqn for k in ret_keys)
    dyn_ref = ray.put(dyn_fqn)
    if use_broadcast:
        # broadcast regime: collect ONLY the 3-column method index
        # projection (not full rows), ship it ONCE via ray.put — workers
        # build the fqn->id dict once per process (per-worker cache).
        # The projection is decoded by a PARALLEL Ray read (driver only
        # concatenates buffers) — a serial pads scan was ~2.3 s at 600k
        # docs, and the round-5 attempt to defer the whole build to
        # workers (path spec) thrashed: 32 processes × 32-thread scans
        # re-decoding the same 150 files took the 600k edge phase from
        # 98 s to 327 s.  Measured, reverted.
        # The projection pass carried BOTH broadcast indexes — METHOD
        # (fqn, id, signature) for the call linker and MEMBER (fqn, id)
        # for FieldAccessLinkerPass.
        both = proj["index"]
        idx_t = both.filter(pc.equal(both.column("label"), "METHOD")).select(
            ["full_name", "id", "signature"]
        )
        # canonical names are unique; sort for deterministic layout
        index_table = idx_t.take(
            pc.sort_indices(idx_t, sort_keys=[("full_name", "ascending")])
        )
        mem_t = both.filter(
            pc.and_(
                pc.equal(both.column("label"), "MEMBER"),
                pc.not_equal(pc.coalesce(both.column("full_name"), pa.scalar("")), ""),
            )
        ).select(["full_name", "id"])
        mem_t = mem_t.take(
            pc.sort_indices(
                mem_t,
                sort_keys=[("full_name", "ascending"), ("id", "ascending")],
            )
        )
        index_ref = ray.put(index_table)
        member_ref = ray.put(mem_t)
    else:

        def calls_proj():
            from ..stages.link import hint_fact_rows

            def _f(batch: pa.Table) -> pa.Table:
                m = pc.is_in(
                    batch.column("label"), value_set=pa.array(["CALL", "METHOD_REF"])
                )
                # full_name carries the FieldAccessLinkerPass Type.field
                # probe on fieldAccess operator calls
                out = batch.filter(m).select(
                    ["id", "label", "method_full_name", "full_name"]
                )
                # synthetic per-hint fact rows (XTypeHintCallLinker) ride
                # the same salted join as ordinary calls
                hr = hint_fact_rows(batch)
                if hr.num_rows:
                    hr = hr.append_column(
                        "full_name", pa.nulls(hr.num_rows, pa.string())
                    )
                    out = pa.concat_tables([out, hr], promote_options="default")
                return out

            return nodes_plain().map_batches(_f, batch_format="pyarrow")

        link_edges, link_blocks = salted_call_link(
            calls_proj(),
            read_root(canon_path, ["id", "label", "full_name", "signature"])
            if n_mt
            else ray.data.from_arrow(NODES_SCHEMA.empty_table()),
            hot_keys=hot_keys,
            n_salts=N_SALTS,
            dyn_fqn_ref=dyn_ref,
        )

    # ---- dimensions + stubs: DISTRIBUTED synthesis over the aggregated
    # survey (round-2 verdict #1b: the O(distinct FQNs) dim/stub row
    # construction was the driver's largest remaining serial term).
    # The pivoted survey_agg already carries per-kind counts per key, so
    # this is ONE pure map over its Parquet files — TYPE rows from
    # ty_c>0, NAMESPACE from ns_c>0, stubs from the anti-join filter
    # ca_c>0 & m_c=0 minus dyn-resolved keys.  No groupby, no key set
    # collected, no extra shuffle.
    from ..stages.link import (
        dim_nodes_batch,
        stub_nodes_batch,
        typedecl_stub_batch,
        typedecl_stub_id,
    )

    dyn_keys_ref = ray.put(pa.array(sorted(dyn_fqn.keys()), pa.string()))

    def _build_dims():
        meta_t = rows_to_table(
            [
                {
                    "id": hash64("META_DATA", user_fingerprint),
                    "label": "META_DATA",
                    "name": "joern_ray",
                    "full_name": user_fingerprint,
                    "signature": _ENGINE_VERSION,
                    # overlays present in this build (reference
                    # `MetaDataPass.scala:15-39` records language+overlays)
                    "code": "base;cfg;dominators;cdg;reachingdef;contains;linking;typerel;dedup",
                    "lang": "c;cpp;java;javascript;python;go;ruby;php;kotlin;csharp;rust;swift",
                    "order": 0,
                    "argument_index": -1,
                    "line": -1,
                    "col": -1,
                }
            ],
            NODES_SCHEMA,
        )

        def _dims_batch(b: pa.Table) -> pa.Table:
            keys = b.column("skey").cast(pa.string())
            out = []
            ty = b.filter(pc.greater(b.column("ty_c"), 0))
            if ty.num_rows:
                out.append(
                    dim_nodes_batch(
                        [k for k in ty.column("skey").to_pylist() if k],
                        "TYPE",
                        type_id,
                    )
                )
            ns = b.filter(pc.greater(b.column("ns_c"), 0))
            if ns.num_rows:
                out.append(
                    dim_nodes_batch(
                        [k for k in ns.column("skey").to_pylist() if k],
                        "NAMESPACE",
                        namespace_id,
                    )
                )
            # TypeDeclStubCreator: referenced-but-undeclared types get an
            # external TYPE_DECL stub (the REF edge from the TYPE
            # dimension rides the fused spec-edge half below)
            tds_ = b.filter(
                pc.and_(pc.greater(b.column("ty_c"), 0), pc.equal(b.column("td_c"), 0))
            )
            if tds_.num_rows:
                out.append(
                    typedecl_stub_batch(
                        [k for k in tds_.column("skey").to_pylist() if k]
                    )
                )
            # stubs: unresolved call fqns PLUS unmatched type hints
            # (XTypeHintCallLinker's anti-join feeding MethodStubCreator,
            # `XTypeHintCallLinker.scala:45-64,107-123`)
            keep = pc.and_(
                pc.greater(pc.add(b.column("ca_c"), b.column("th_c")), 0),
                pc.equal(b.column("m_c"), 0),
            )
            # unresolved `<ret:f>.g` sentinels never materialize as stub
            # names (ADVICE r4): they collapse onto the single
            # <unknownFullName> stub emitted with meta_t below
            keep = pc.and_(keep, pc.invert(pc.starts_with(keys, "<ret:")))
            dk = worker_get(dyn_keys_ref)
            if len(dk):
                keep = pc.and_(keep, pc.invert(pc.is_in(keys, value_set=dk)))
            s = b.filter(keep)
            if s.num_rows:
                fqns = [k for k in s.column("skey").to_pylist() if k]
                ax = dict(
                    zip(s.column("skey").to_pylist(), s.column("s_max").to_pylist())
                )
                out.append(stub_nodes_batch(fqns, ax))
            if not out:
                return NODES_SCHEMA.empty_table()
            return pa.concat_tables(out)

        # speculative-method namespace (reference
        # `XTypeHintCallLinker.scala:166-183`): present iff any hint-only
        # stub exists; the AST edges to it are emitted with the edge write
        if _svds.count_rows(
            filter=(_f("th_c") > 0) & (_f("m_c") == 0) & (_f("ca_c") == 0)
        ):
            meta_t = pa.concat_tables(
                [
                    meta_t,
                    dim_nodes_batch(
                        ["<speculatedMethods>"], "NAMESPACE", namespace_id
                    ),
                ]
            )
        # the ONE shared stub every unresolved `<ret:` call links to
        # (CallLinker._primary / join_group rewrite the edge target)
        if unres_ret:
            meta_t = pa.concat_tables(
                [meta_t, stub_nodes_batch(["<unknownFullName>"], {})]
            )
        # ONE execution writes BOTH outputs (round-3 verdict #9: fewer
        # Dataset executions): node-shaped dim/stub rows and the
        # <speculatedMethods> AST edges ride a padded union schema and
        # split at the sink on `rk`, each split typed —
        # dims/rk=node (NODES_SCHEMA) joins nodes_paths(),
        # dims/rk=edge (EDGES_SCHEMA) joins edges_paths().  (They must
        # NOT union into the main link scan: a Dataset.union breaks its
        # streaming fusion, measured 2x.)
        _USCHEMA = pa.schema(
            list(NODES_SCHEMA) + list(EDGES_SCHEMA) + [pa.field("rk", pa.string())]
        )

        def _pad(t: pa.Table, rk: str) -> pa.Table:
            arrays = []
            for f_ in _USCHEMA:
                if f_.name == "rk":
                    arrays.append(pa.array([rk] * t.num_rows, pa.string()))
                elif f_.name in t.column_names:
                    arrays.append(t.column(f_.name).combine_chunks().cast(f_.type))
                else:
                    arrays.append(pa.nulls(t.num_rows, f_.type))
            return pa.Table.from_arrays(arrays, schema=_USCHEMA)

        def _dims_and_spec(b: pa.Table) -> pa.Table:
            return pa.concat_tables(
                [_pad(_dims_batch(b), "node"), _pad(_spec_ast(b), "edge")]
            )

        dims_ds = ray.data.from_arrow(_pad(meta_t, "node"))
        # an empty survey derives no row, and its map's schema-less empty
        # block would not match the META_DATA block's schema in the union
        if read_manifest(svagg_path)["rows"]:
            dims_ds = dims_ds.union(
                read_root(
                    svagg_path,
                    ["skey", "m_c", "td_c", "ty_c", "ns_c", "ca_c", "th_c", "s_max"],
                ).map_batches(_dims_and_spec, batch_format="pyarrow")
            )
        if os.path.isdir(dims_path):
            shutil.rmtree(dims_path)
        dims_ds.write_datasink(
            SplitSink(
                dims_path,
                "rk",
                {"node": NODES_SCHEMA, "edge": EDGES_SCHEMA},
                min_rows_per_write=ROWS_PER_FILE,
            )
        )
    # dims manifest written AFTER the writes below complete (it is the
    # completion marker for the whole chain)

    def all_nodes():
        """The linker's node scan: the `_LINK_COLS` of plain + canonical
        nodes as ONE Parquet read of `scan_roots` (nothing else consumes
        this).  A union of two reads would keep the reads from fusing
        with the link map and feed the edge write's sort one block more
        than `root_blocks(scan_roots)` counts."""
        return read_root(scan_roots, _LINK_COLS, schema=PARSE_SPLITS["node"])

    # the edge write's sort input: the link scan's one read, fused with
    # the link map, plus (salted regime) the join's output blocks
    in_blocks = root_blocks(scan_roots)
    if use_broadcast:
        # fused: CALL/REF resolution + map-side dimension links in ONE
        # scan of the node stream.  Plain TASKS (instant full-CPU spread,
        # no actor ramp-up) whose closure carries only ObjectRefs; the
        # fqn->id dict is built once per worker process from the ray.put
        # index table (per-worker cache in stages.link).
        from ..stages.link import combined_linker_fn

        final_edges = all_nodes().map_batches(
            combined_linker_fn(index_ref, dyn_ref, member_ref), batch_format="pyarrow"
        )
    else:
        mapside_edges = all_nodes().map_batches(
            mapside_link_edges, batch_format="pyarrow"
        )
        final_edges = link_edges.union(mapside_edges)
        in_blocks += link_blocks

    # AST edges from <speculatedMethods> to hint-only stubs (reference
    # `XTypeHintCallLinker.scala:166-183`) — a tiny map over the
    # aggregated survey written beside the dims (dims/rk=edge).
    # NEVER union this into the main edge stream: a Dataset.union —
    # even with an empty side — breaks streaming fusion of the link
    # scan (measured 74s -> 137s materialize at 8 CPUs).
    def _spec_ast(b: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.and_(
                pc.greater(b.column("th_c"), 0), pc.equal(b.column("m_c"), 0)
            ),
            pc.equal(b.column("ca_c"), 0),
        )
        dk = worker_get(dyn_keys_ref)
        if len(dk):
            keep = pc.and_(
                keep,
                pc.invert(
                    pc.is_in(b.column("skey").cast(pa.string()), value_set=dk)
                ),
            )
        s = b.filter(keep)
        fqns = [k for k in s.column("skey").to_pylist() if k]
        parts = []
        if fqns:
            ns_id = namespace_id("<speculatedMethods>")
            parts.append(
                pa.table(
                    {
                        "subj": pa.array([ns_id] * len(fqns), pa.uint64()),
                        "pred": pa.array(["AST"] * len(fqns), pa.string()),
                        "obj": pa.array([stub_id(f) for f in sorted(fqns)], pa.uint64()),
                        "variable": pa.nulls(len(fqns), pa.string()),
                    },
                    schema=EDGES_SCHEMA,
                )
            )
        # TypeRefPass REF edges for TYPE_DECL stubs (TypeDeclStubCreator):
        # TYPE dim -> external TYPE_DECL, same convention as declared types
        tds_ = b.filter(
            pc.and_(pc.greater(b.column("ty_c"), 0), pc.equal(b.column("td_c"), 0))
        )
        td_fqns = sorted(k for k in tds_.column("skey").to_pylist() if k)
        if td_fqns:
            parts.append(
                pa.table(
                    {
                        "subj": pa.array([type_id(f) for f in td_fqns], pa.uint64()),
                        "pred": pa.array(["REF"] * len(td_fqns), pa.string()),
                        "obj": pa.array(
                            [typedecl_stub_id(f) for f in td_fqns], pa.uint64()
                        ),
                        "variable": pa.nulls(len(td_fqns), pa.string()),
                    },
                    schema=EDGES_SCHEMA,
                )
            )
        if not parts:
            return EDGES_SCHEMA.empty_table()
        return pa.concat_tables(parts)

    # partitioned write (hash by subj, per-partition manifests), on the
    # main thread after dims.  A streaming write_parquet (no
    # materialize/shuffle) was measured as the alternative at 600k docs:
    # faster at 8 CPUs (470s vs 534s total) but slower at 32 (240s vs
    # 225s — one small file per block beats the coalescing shuffle only
    # when CPUs are scarce); the partitioned layout also keeps
    # partition-level resume, so it stays the default.
    _build_dims()
    partitioned_write(final_edges, edges_path, "edges", parse_fp, width, in_blocks)
    t_eq.join()
    if errs:
        raise errs[0]
    # stub count for stats/metrics: the METHOD rows of the dims' node
    # split, counted by a filtered scan of its label column
    n_stubs = pads.dataset(os.path.join(dims_path, "rk=node"), format="parquet").count_rows(
        filter=pads.field("label") == "METHOD"
    )
    # persist the stats a resumed run must reproduce (same return contract)
    stats = {
        "equivalences_path": equiv_path if eq_box[0] is not None else None,
        "n_collapsed_methods": eq_box[0] or 0,
        "link_regime": link_regime,
        "n_methods": n_methods,
        "n_stubs": n_stubs,
        "n_hot_keys": len(hot_keys),
        "n_dyn_fqns": len(dyn_fqn),
        "dyn_regime": dyn_regime,
    }
    with open(stats_path, "w") as f:
        _json.dump(stats, f, indent=1)
    # dims manifest last: its presence marks the whole chain complete
    write_manifest(dims_path, "dims", parse_fp, 0.0)
    return _result(stats, False)

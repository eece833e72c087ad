"""Small shared runtime helpers."""

from __future__ import annotations

# Per-worker-process memo of broadcast (`ray.put`) values.  The build's
# UDFs run as plain TASKS (no pinned actor CPUs: actor pools starved
# concurrent Sort stages into deadlock at low CPU counts), and Ray reuses
# worker processes across tasks, so each process fetches (and builds)
# each value once.  Bounded: a new value past the bound clears the memo.
_WORKER_MEMO: dict = {}
_WORKER_MEMO_MAX = 8


def worker_get(ref, build=None):
    """`ray.get(ref)` — or `build(ray.get(ref))` when `build` is given —
    once per worker process.  `build` must be a module-level function:
    it is part of the memo key."""
    key = (ref.hex(), build)
    got = _WORKER_MEMO.get(key)
    if got is None:
        import ray

        if len(_WORKER_MEMO) >= _WORKER_MEMO_MAX:
            _WORKER_MEMO.clear()
        got = ray.get(ref)
        if build is not None:
            got = build(got)
        _WORKER_MEMO[key] = got
    return got


def fixed_pool(frac: float = 0.5, cap: int = 16, floor: int = 2) -> int:
    """Fixed actor-pool size off the cluster CPU count.

    Autoscaling pools starting at 1 never ramp for minutes-long stages
    (measured, BASELINE.md round-1 notes), and pools sized at n_cpus pin
    every CPU, starving concurrent task stages (measured: the parse
    write serialized on 1 CPU).  A fixed pool at a fraction of the
    cluster with a cap is the robust middle ground.
    """
    import ray

    n = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    return max(floor, min(cap, int(n * frac)))


def resolve_pool(concurrency):
    """None -> fixed_pool(); anything else passes through (tests pass
    explicit small pools)."""
    return fixed_pool() if concurrency is None else concurrency


def bucketed_group_agg(ds, keys, aggs, num_buckets=32, seed=11):
    """Distributed group-aggregate that stays VECTORIZED end to end.

    Ray's built-in ``groupby().aggregate(Sum/Min/...)`` accumulates one
    Python call per ROW inside the sort-shuffle reduce (measured 7.2s
    for 350k tiny rows at 32 CPUs where this shape takes 2.6s).  This
    helper does: map-side combine (``pyarrow.Table.group_by`` — C++),
    then a shuffle on a SMALL deterministic int bucket key (polars
    fixed-seed hash of the group keys — the builtin ``hash()`` is salted
    per worker process and would split a key across buckets), then one
    vectorized combine per bucket.  Per-bucket size is
    distinct_keys/num_buckets regardless of corpus size, so the pattern
    holds at 10^12 rows by raising ``num_buckets`` with the cluster.

    ``keys``: list of group-key column names.  ``aggs``: list of
    ``(col, fn)`` with fn in pyarrow's hash-aggregate set ("sum", "min",
    "max", "count", ...).  Output columns: keys + ``{col}_{fn}``.
    Count columns are re-summed (not re-counted) in the reduce combine.
    """
    import numpy as np
    import pyarrow as pa

    out_names = list(keys) + [f"{c}_{f}" for c, f in aggs]
    # reduce-side: a partial "count" must be summed, min stays min, etc.
    reaggs = [
        (f"{c}_{f}", "sum" if f == "count" else f) for c, f in aggs
    ]
    # pyarrow names hash-aggregate outputs "{col}_{fn}" but the COLUMN
    # ORDER (keys-first vs aggregates-first) is version-dependent, so we
    # always select by NAME rather than renaming positionally.
    map_names = list(keys) + [f"{c}_{f}" for c, f in aggs]
    red_names = list(keys) + [f"{c}_{f2}" for (c, f2) in reaggs]

    def _bucket_col(t: pa.Table) -> pa.Table:
        # imported in the UDF: only workers need polars, and on the
        # driver it would add ~20 MB to the build's peak RSS
        import polars as pl

        h = None
        for k in keys:
            kh = pl.from_arrow(t.column(k).combine_chunks()).hash(seed=seed).to_numpy()
            h = kh if h is None else (h * np.uint64(0x9E3779B97F4A7C15)) ^ kh
        bucket = (h % np.uint64(num_buckets)).astype(np.int64)
        return t.append_column("__bkt", pa.array(bucket, pa.int64()))

    def _map_combine(t: pa.Table) -> pa.Table:
        g = t.group_by(keys).aggregate(aggs).select(map_names)
        return _bucket_col(g.rename_columns(out_names))

    def _reduce_combine(g: pa.Table) -> pa.Table:
        t = g.drop(["__bkt"]).group_by(keys).aggregate(reaggs).select(red_names)
        return t.rename_columns(out_names)

    return (
        ds.map_batches(_map_combine, batch_format="pyarrow")
        .groupby("__bkt")
        .map_groups(_reduce_combine, batch_format="pyarrow")
    )


def bucketed_join(
    left,
    lcols,
    right,
    rcols,
    on,
    right_on,
    how: str = "inner",
    num_buckets: int = 32,
    seed: int = 11,
):
    """Distributed equi-join that stays robust on SPARSE/EMPTY inputs.

    ``Dataset.join``'s hash-shuffle aggregator crashes when a partition
    receives no schema-carrying block (pyarrow "No match ... for key
    field reference" in finalize) — routine for control-plane-sized
    inputs — and its aggregator ACTORS deadlock when another executor
    holds all CPUs (measured, round-3 notes).  This helper expresses the
    join through the same machinery as `bucketed_group_agg`: tag each
    side, bucket rows by a fixed-seed polars hash of the join keys, one
    sort-shuffle groupby on the small int bucket key, then ONE pyarrow
    C++ hash join per bucket.  Bucket count bounds the per-group size
    (rows/num_buckets), so the pattern scales by raising ``num_buckets``
    with the cluster; skew on a single join KEY still lands one key in
    one bucket — callers with known hot keys should salt first.

    ``lcols``/``rcols``: full ``[(name, pa.DataType)]`` specs (names
    disjoint across sides); ``on``/``right_on``: key column lists (same
    length/types).  Output columns: lcols + non-key rcols (pyarrow join
    contract — right keys merge into left keys).  ``how``: "inner" or
    "left_outer"."""
    import numpy as np
    import polars as pl
    import pyarrow as pa

    lnames = [n for n, _ in lcols]
    rnames = [n for n, _ in rcols]
    out_names = lnames + [n for n in rnames if n not in right_on]
    arrow_how = {"inner": "inner", "left_outer": "left outer"}[how]
    union_schema = pa.schema(
        [pa.field(n, t) for n, t in lcols]
        + [pa.field(n, t) for n, t in rcols]
        + [pa.field("__side", pa.int8()), pa.field("__bkt", pa.int64())]
    )

    def _prep(cols, keys, side):
        names = [n for n, _ in cols]

        def f(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return union_schema.empty_table()
            b = b.select(names)
            h = None
            for k in keys:
                kh = (
                    pl.from_arrow(b.column(k).combine_chunks())
                    .hash(seed=seed)
                    .to_numpy()
                )
                h = kh if h is None else (h * np.uint64(0x9E3779B97F4A7C15)) ^ kh
            bkt = (h % np.uint64(num_buckets)).astype(np.int64)
            arrays = []
            for f_ in union_schema:
                if f_.name == "__side":
                    arrays.append(
                        pa.array(np.full(b.num_rows, side, dtype=np.int8), pa.int8())
                    )
                elif f_.name == "__bkt":
                    arrays.append(pa.array(bkt, pa.int64()))
                elif f_.name in names:
                    arrays.append(b.column(f_.name).combine_chunks().cast(f_.type))
                else:
                    arrays.append(pa.nulls(b.num_rows, f_.type))
            return pa.Table.from_arrays(arrays, schema=union_schema)

        return f

    def _join_group(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        side = g.column("__side")
        lt = g.filter(pc.equal(side, 0)).select(lnames)
        rt = g.filter(pc.equal(side, 1)).select(rnames)
        if lt.num_rows == 0:
            return pa.schema(
                [pa.field(n, t) for n, t in lcols]
                + [pa.field(n, t) for n, t in rcols if n not in right_on]
            ).empty_table()
        joined = lt.join(
            rt, keys=list(on), right_keys=list(right_on), join_type=arrow_how
        )
        return joined.select(out_names)

    u = left.map_batches(_prep(lcols, list(on), 0), batch_format="pyarrow").union(
        right.map_batches(_prep(rcols, list(right_on), 1), batch_format="pyarrow")
    )
    return u.groupby("__bkt").map_groups(_join_group, batch_format="pyarrow")

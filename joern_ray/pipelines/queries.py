"""Driver-facing query implementations (one per operator family in
SURVEY.md §2 + the training-data operators).

Each function takes `sf_dir` (a /root/testdata/sfX directory) and returns
a Dataset / pyarrow Table.  SQL-checkable queries keep their column names
aligned with `oracle_sql()` in `__ray_entry__.py` (the driver hash-compares
values after sorting columns by name).

The CPG queries run the flagship pipeline over the deterministic webtext
corpus (sized per sf) with an on-disk checkpoint cache, so repeated
queries at the same sf resume instantly.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64


def _collect(ds, schema: "pa.Schema | None" = None) -> pa.Table:
    """Materialize a (small) result Dataset; empty-safe."""
    parts = list(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    if not parts:
        return schema.empty_table() if schema is not None else pa.table({})
    return pa.concat_tables(parts)


def _read(sf_dir: str, table: str, columns=None):
    """Read a testdata table with its file schema minus the pandas
    metadata blob it carries: `hash(pa.Schema)` raises on that blob
    ("unhashable type: dict"), which disables Ray's schema deduplication
    (a "Failed to hash the schemas" warning from the read task)."""
    import pyarrow.parquet as pq
    import ray.data

    path = os.path.join(sf_dir, f"{table}.parquet")
    schema = pq.read_schema(path).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return ray.data.read_parquet(path, columns=columns, schema=schema)


def _docs_count_for(sf_dir: str) -> int:
    name = os.path.basename(os.path.normpath(sf_dir))
    return {"sf0.001": 300, "sf0.01": 3000, "sf0.1": 30000}.get(name, 300)


# ---------------------------------------------------------------------------
# CPG flagship (rows-only checks: parsing isn't SQL-expressible)
# ---------------------------------------------------------------------------


def _cpg_paths(sf_dir: str) -> dict:
    from ..pipelines.cpg import build_cpg
    from ..sources.corpus import docs_dataset

    n = _docs_count_for(sf_dir)
    out = f"/tmp/joern_ray_cache/cpg_{n}"

    def docs_factory(columns):
        ds = docs_dataset(n, parallelism=max(4, n // 512))
        if columns:
            ds = ds.map_batches(lambda b: b.select(columns), batch_format="pyarrow")
        return ds

    # the corpus generator is NOT covered by parser_fingerprint (it is
    # input, not parse code) — bump the tag on corpus version changes
    return build_cpg(docs_factory, out, f"corpus-{n}-seed42-v6")


def cpg_node_counts(sf_dir: str) -> pa.Table:
    """Node count per label over the full CPG — stable, deterministic."""
    import ray.data

    res = _cpg_paths(sf_dir)
    ds = ray.data.read_parquet(res["nodes_path"], columns=["label"])
    out = ds.groupby("label").count().sort("label")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.rename_columns(["label", "n"])


def cpg_edge_counts(sf_dir: str) -> pa.Table:
    import ray.data

    res = _cpg_paths(sf_dir)
    ds = ray.data.read_parquet(res["edges_path"], columns=["pred"])
    out = ds.groupby("pred").count().sort("pred")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.rename_columns(["pred", "n"])


def cpg_method_table(sf_dir: str):
    """METHOD rows (the queryable method table, `cpg.method` starter)."""
    import ray.data

    res = _cpg_paths(sf_dir)
    ds = ray.data.read_parquet(
        res["nodes_path"], columns=["id", "label", "name", "full_name", "url", "line"]
    )

    def f(batch: pa.Table) -> pa.Table:
        return batch.filter(pc.equal(batch.column("label"), "METHOD"))

    return ds.map_batches(f, batch_format="pyarrow")


DANGEROUS = ("gets", "strcpy", "strcat", "sprintf", "malloc", "memcpy", "free", "system", "popen", "scanf")


def scan_dangerous_calls(sf_dir: str) -> pa.Table:
    """querydb-style scanner (reference `querydb/.../c/DangerousFunctions.
    scala:13-52`: `cpg.method("(?i)gets").callIn`): CALL sites whose
    callee name is on the dangerous list, counted per name."""
    import ray.data

    res = _cpg_paths(sf_dir)
    ds = ray.data.read_parquet(res["nodes_path"], columns=["label", "name"])

    def f(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch.column("label"), "CALL"),
            pc.is_in(batch.column("name"), value_set=pa.array(list(DANGEROUS))),
        )
        return batch.filter(m).select(["name"])

    out = ds.map_batches(f, batch_format="pyarrow").groupby("name").count().sort("name")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.rename_columns(["name", "n_findings"])


def cpg_call_resolution(sf_dir: str) -> pa.Table:
    """CALL-edge resolution stats: how many call sites resolved to a real
    method vs a stub (left-join-with-logged-miss semantics,
    `LinkingUtil.scala:123-137`)."""
    import ray.data

    res = _cpg_paths(sf_dir)
    nodes = ray.data.read_parquet(res["nodes_path"], columns=["id", "label", "code"])

    def stub_ids(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch.column("label"), "METHOD"),
            pc.equal(batch.column("code"), "<empty>"),
        )
        return batch.filter(m).select(["id"])

    stub_parts = list(
        nodes.map_batches(stub_ids, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None
        )
    )
    stub_arr = (
        pa.concat_tables(stub_parts).column("id").combine_chunks()
        if stub_parts
        else pa.array([], pa.uint64())
    )
    edges = ray.data.read_parquet(res["edges_path"], columns=["pred", "obj"])

    # distributed partial counts (vectorized is_in per batch), tiny result
    def partial(b: pa.Table) -> pa.Table:
        objs = b.filter(pc.equal(b.column("pred"), "CALL")).column("obj")
        n_total = len(objs)
        n_stub = (
            pc.sum(pc.is_in(objs, value_set=stub_arr)).as_py() or 0
            if n_total and len(stub_arr)
            else 0
        )
        return pa.table(
            {
                "resolved": pa.array([n_total - n_stub], pa.int64()),
                "stub": pa.array([n_stub], pa.int64()),
            }
        )

    t = pa.concat_tables(
        list(
            edges.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    return pa.table(
        {
            "kind": pa.array(["resolved", "stub"], pa.string()),
            "n": pa.array(
                [
                    pc.sum(t.column("resolved")).as_py() or 0,
                    pc.sum(t.column("stub")).as_py() or 0,
                ],
                pa.int64(),
            ),
        }
    )


def cpg_fieldaccess_stats(sf_dir: str) -> pa.Table:
    """FieldAccessLinkerPass surface: MEMBER declarations with global
    Type.field keys, fieldAccess call sites carrying a probe, and REF
    edges landing on members (reference
    `typerelations/FieldAccessLinkerPass.scala:18-89`)."""
    import ray.data

    res = _cpg_paths(sf_dir)
    nodes = ray.data.read_parquet(
        res["nodes_path"], columns=["id", "label", "full_name", "method_full_name"]
    )

    def partial(b: pa.Table) -> pa.Table:
        fn = pc.coalesce(b.column("full_name"), pa.scalar(""))
        members = b.filter(
            pc.and_(pc.equal(b.column("label"), "MEMBER"), pc.not_equal(fn, ""))
        )
        probes = b.filter(
            pc.and_(
                pc.and_(pc.equal(b.column("label"), "CALL"), pc.not_equal(fn, "")),
                pc.starts_with(
                    pc.coalesce(b.column("method_full_name"), pa.scalar("")),
                    "<operator>",
                ),
            )
        )
        mem_ids = members.column("id").combine_chunks().cast(pa.uint64())
        return pa.table(
            {
                "n_members": pa.array(
                    [members.num_rows] + [0] * max(0, len(mem_ids) - 1), pa.int64()
                )
                if len(mem_ids)
                else pa.array([members.num_rows], pa.int64()),
                "n_probes": pa.array(
                    [probes.num_rows] + [0] * max(0, len(mem_ids) - 1), pa.int64()
                )
                if len(mem_ids)
                else pa.array([probes.num_rows], pa.int64()),
                "member_id": mem_ids if len(mem_ids) else pa.array([0], pa.uint64()),
            }
        )

    parts = pa.concat_tables(
        list(
            nodes.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    n_members = pc.sum(parts.column("n_members")).as_py() or 0
    n_probes = pc.sum(parts.column("n_probes")).as_py() or 0
    mem_arr = pc.unique(
        parts.filter(pc.not_equal(parts.column("member_id"), 0)).column("member_id")
    )
    edges = ray.data.read_parquet(res["edges_path"], columns=["pred", "obj"])

    def linked(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(b.column("pred"), "REF"),
            pc.is_in(b.column("obj"), value_set=mem_arr),
        )
        return pa.table({"n": pa.array([int(pc.sum(m).as_py() or 0)], pa.int64())})

    lk = pa.concat_tables(
        list(edges.map_batches(linked, batch_format="pyarrow").iter_batches(batch_format="pyarrow", batch_size=None))
    )
    n_linked = pc.sum(lk.column("n")).as_py() or 0
    return pa.table(
        {
            "kind": pa.array(
                ["members_keyed", "fieldaccess_probes", "member_ref_edges"],
                pa.string(),
            ),
            "n": pa.array([n_members, n_probes, n_linked], pa.int64()),
        }
    )


def cpg_dispatch_stats(sf_dir: str) -> pa.Table:
    """Round-4 control-plane witness: dyn regime (driver walk vs
    distributed INHERITS_FROM closure), SAFEDISPATCH candidate map size,
    IMPORT node count and distinct imported module names (the
    import-resolver dimension)."""
    import json as _json
    import os as _os

    import ray.data

    res = _cpg_paths(sf_dir)
    stats = {}
    try:
        stats = _json.load(
            open(_os.path.join(res["out_dir"], "build_stats.json"))
        )
    except (OSError, _json.JSONDecodeError):
        pass

    def _imp(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(b.column("label"), "IMPORT"))
        return pa.table({"name": f.column("name")})

    n_imports = 0
    modules: set = set()
    for b in (
        ray.data.read_parquet(res["nodes_path"], columns=["label", "name"])
        .map_batches(_imp, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        n_imports += b.num_rows
        modules.update(x for x in b.column("name").to_pylist() if x)
    return pa.table(
        {
            "dyn_regime": pa.array([stats.get("dyn_regime", "")], pa.string()),
            "n_dyn_fqns": pa.array([stats.get("n_dyn_fqns", 0)], pa.int64()),
            "n_imports": pa.array([n_imports], pa.int64()),
            "n_import_modules": pa.array([len(modules)], pa.int64()),
        }
    )


def cpg_typehint_stats(sf_dir: str) -> pa.Table:
    """XTypeHintCallLinker surface: calls carrying multi-hint lists, the
    distinct hint fqns, and speculative stubs under <speculatedMethods>
    (reference `XTypeHintCallLinker.scala:21-183`)."""
    import ray.data

    from ..stages.link import namespace_id

    res = _cpg_paths(sf_dir)
    nodes = ray.data.read_parquet(
        res["nodes_path"], columns=["label", "dynamic_type_hint_full_name"]
    )

    def partial(b: pa.Table) -> pa.Table:
        h = b.column("dynamic_type_hint_full_name")
        calls = b.filter(pc.and_(pc.equal(b.column("label"), "CALL"), h.is_valid()))
        hints: list = sorted(
            {x for hl in calls.column("dynamic_type_hint_full_name").to_pylist() for x in (hl or [])}
        )
        n = max(1, len(hints))
        counts = [calls.num_rows] + [0] * (n - 1)
        return pa.table(
            {
                "n_hint_calls": pa.array(counts, pa.int64()),
                "hint": pa.array(hints or [""], pa.string()),
            }
        )

    parts = pa.concat_tables(
        list(
            nodes.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    n_calls = pc.sum(parts.column("n_hint_calls")).as_py() or 0
    n_hints = len(
        {h for h in parts.column("hint").to_pylist() if h}
    )
    edges = ray.data.read_parquet(res["edges_path"], columns=["subj", "pred"])
    ns = namespace_id("<speculatedMethods>")

    def spec(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(b.column("pred"), "AST"),
            pc.equal(b.column("subj"), pa.scalar(ns, pa.uint64())),
        )
        return pa.table({"n": pa.array([int(pc.sum(m).as_py() or 0)], pa.int64())})

    sp = pa.concat_tables(
        list(edges.map_batches(spec, batch_format="pyarrow").iter_batches(batch_format="pyarrow", batch_size=None))
    )
    n_spec = pc.sum(sp.column("n")).as_py() or 0
    return pa.table(
        {
            "kind": pa.array(
                ["multi_hint_calls", "distinct_hints", "speculative_stubs"],
                pa.string(),
            ),
            "n": pa.array([n_calls, n_hints, n_spec], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# SQL-checkable generic operators over the testdata tables
# ---------------------------------------------------------------------------


def lang_counts(sf_dir: str) -> pa.Table:
    out = _read(sf_dir, "documents", ["lang"]).groupby("lang").count().sort("lang")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.rename_columns(["lang", "n"])


def exact_dedup_documents(sf_dir: str) -> pa.Table:
    from ..stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = exact_dedup(ds, col="text", id_col="doc_id")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.select(["doc_id", "n_dups"]).sort_by("doc_id")


def token_count_ws(sf_dir: str) -> pa.Table:
    from ..stages.textstats import token_count_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: token_count_batch(b).select(["doc_id", "n_tokens_ws"]),
        batch_format="pyarrow",
    )
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.sort_by("doc_id")


def doc_length_filter(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n = pc.utf8_length(batch.column("text"))
        b = batch.append_column("n_chars_text", pc.cast(n, pa.int64()))
        return b.filter(pc.and_(pc.greater_equal(n, 100), pc.less_equal(n, 5000))).select(
            ["doc_id", "n_chars_text"]
        )

    out = ds.map_batches(f, batch_format="pyarrow")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.sort_by("doc_id")


def top_users_by_events(sf_dir: str) -> pa.Table:
    out = _read(sf_dir, "events", ["user_id"]).groupby("user_id").count()
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    t = t.rename_columns(["user_id", "n_events"])
    t = t.take(
        pc.sort_indices(
            t, sort_keys=[("n_events", "descending"), ("user_id", "ascending")]
        )[:10]
    )
    return t


def events_daily_counts(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "events", ["ts"])

    def f(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch.column("ts"), format="%Y-%m-%d")
        return pa.table({"day": day})

    out = ds.map_batches(f, batch_format="pyarrow").groupby("day").count().sort("day")
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.rename_columns(["day", "n"])


def pricing_summary(sf_dir: str) -> pa.Table:
    """TPC-H Q1 shape: partial aggregation inside map_batches, then a tiny
    groupby — the combiner pattern (sum of integral quantities only, for
    float-free oracle parity)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        df = pl.from_arrow(batch)
        agg = df.group_by(["l_returnflag", "l_linestatus"]).agg(
            pl.col("l_quantity").sum().alias("sq"), pl.len().alias("cnt")
        )
        return agg.to_arrow()

    out = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .sum(["sq", "cnt"])
    )
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    t = pa.table(
        {
            "l_returnflag": t.column("l_returnflag"),
            "l_linestatus": t.column("l_linestatus"),
            "sum_qty": pc.cast(t.column("sum(sq)"), pa.int64()),
            "count_order": pc.cast(t.column("sum(cnt)"), pa.int64()),
        }
    )
    return t.sort_by([("l_returnflag", "ascending"), ("l_linestatus", "ascending")])


def customers_per_nation(sf_dir: str) -> pa.Table:
    """Broadcast join: nation is tiny — vectorized `index_in`/`take`
    against the broadcast key/name arrays inside map_batches instead of a
    shuffle join (the small-side-broadcast rule)."""
    nation = pa.concat_tables(
        list(_read(sf_dir, "nation", ["n_nationkey", "n_name"]).iter_batches(batch_format="pyarrow", batch_size=None))
    )
    keys = nation.column("n_nationkey").combine_chunks()
    names = nation.column("n_name").combine_chunks()

    def join(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("c_nationkey"), value_set=keys)
        got = pc.coalesce(pc.take(names, idx), pa.scalar("?"))
        return pa.table({"nation": got})

    out = (
        _read(sf_dir, "customer", ["c_nationkey"])
        .map_batches(join, batch_format="pyarrow")
        .groupby("nation")
        .count()
        .sort("nation")
    )
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.rename_columns(["nation", "n_customers"])


def distinct_part_types(sf_dir: str) -> pa.Table:
    n = len(_read(sf_dir, "part", ["p_type"]).unique("p_type"))
    return pa.table({"n_types": pa.array([n], pa.int64())})


def orders_top_by_price(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(5)
    return pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))


# ---------------------------------------------------------------------------
# similarity / dedup / text ops
# ---------------------------------------------------------------------------


def _dim(sf_dir: str) -> int:
    import pyarrow.parquet as pq

    t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"), columns=["embedding"])
    return len(t.column("embedding")[0])


def embedding_topk(sf_dir: str) -> pa.Table:
    """Brute-force cosine top-10 vs vec_id=0, float64 for oracle parity."""
    import pyarrow.parquet as pq

    from ..stages.ann import BruteForceScorer

    q_t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    row0 = q_t.filter(pc.equal(q_t.column("vec_id"), 0))
    q = np.asarray(row0.column("embedding").to_pylist(), dtype=np.float64)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    class Scorer(BruteForceScorer):
        def __init__(self) -> None:
            super().__init__(q, k=11, id_col="vec_id", vec_col="embedding")
            self.q = self.q.astype(np.float64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids = np.asarray(batch.column("vec_id").to_pylist())
            vecs = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
            norms = np.linalg.norm(vecs, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            sims = (self.q @ (vecs / norms).T)[0]
            k = min(11, len(sims))
            top = np.argpartition(-sims, kth=k - 1)[:k]
            return pa.table(
                {
                    "vec_id": pa.array(ids[top], pa.int64()),
                    "cosine": pa.array(sims[top], pa.float64()),
                }
            )

    from ..util import fixed_pool

    local = ds.map_batches(Scorer, batch_format="pyarrow", concurrency=fixed_pool())
    t = pa.concat_tables(list(local.iter_batches(batch_format="pyarrow", batch_size=None)))
    t = t.filter(pc.not_equal(t.column("vec_id"), 0))
    t = t.take(pc.sort_indices(t, sort_keys=[("cosine", "descending"), ("vec_id", "ascending")])[:10])
    return pa.table(
        {
            "vec_id": t.column("vec_id"),
            "cosine": pc.round(t.column("cosine"), ndigits=4),
        }
    )


def embedding_near_dup_exact(sf_dir: str) -> pa.Table:
    """Exact all-pairs cosine ≥ 0.95 (single-bucket degenerate LSH) —
    SQL-oracle-checkable at these scales."""
    from ..stages.dedup import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_near_dup_pairs(
        ds, dim=_dim(sf_dir), threshold=0.95, n_planes=0, concurrency=None
    )
    empty = pa.schema([pa.field("id_a", pa.int64()), pa.field("id_b", pa.int64()), pa.field("cosine", pa.float64())])
    t = _collect(out, empty)
    if t.num_rows == 0:
        return empty.empty_table()
    t = t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])
    return pa.table(
        {
            "id_a": t.column("id_a"),
            "id_b": t.column("id_b"),
            "cosine": pc.round(t.column("cosine"), ndigits=4),
        }
    )


def embedding_near_dup_lsh(sf_dir: str) -> pa.Table:
    """LSH-bucketed near-dup (the scale path — approximate, rows-only)."""
    from ..stages.dedup import embedding_near_dup_pairs

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_near_dup_pairs(
        ds, dim=_dim(sf_dir), threshold=0.95, n_planes=8, concurrency=None
    )
    empty = pa.schema([pa.field("id_a", pa.int64()), pa.field("id_b", pa.int64()), pa.field("cosine", pa.float64())])
    t = _collect(out, empty)
    return t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def embedding_ivf_topk(sf_dir: str) -> pa.Table:
    """IVF ANN: coarse k-means cells, probe nearest cells only."""
    import pyarrow.parquet as pq

    from ..stages.ann import ivf_topk

    q_t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
    row0 = q_t.filter(pc.equal(q_t.column("vec_id"), 0))
    q = np.asarray(row0.column("embedding").to_pylist(), dtype=np.float32)
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = ivf_topk(ds, q, k=10, n_cells=8, n_probe=3, concurrency=None)
    return pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))


def _raw_fragments_ds(sf_dir: str):
    """Detected code fragments of the deterministic corpus, CACHED as a
    checkpoint per corpus size: the three near-dup queries and the
    vectors query all consume this, so the corpus generation + fragment
    detection runs ONCE instead of once per query (it was the dominant
    cost of `minhash_dedup_corpus` at bench scale)."""
    import ray.data

    from ..io.checkpoint import checkpoint
    from ..schemas import FRAGMENTS_SCHEMA
    from ..sources.corpus import docs_dataset
    from ..stages.extract import detect_fragments_batch

    n = _docs_count_for(sf_dir)
    path = f"/tmp/joern_ray_cache/frags_{n}"
    keep = list(FRAGMENTS_SCHEMA.names)

    def factory():
        ds = docs_dataset(n, parallelism=max(4, n // 512)).map_batches(
            detect_fragments_batch, batch_format="pyarrow"
        )
        return ds.map_batches(
            lambda b: b.filter(pc.equal(b.column("row_kind"), "fragment")).select(
                keep
            ),
            batch_format="pyarrow",
        )

    # keep the corpus part of this tag in lockstep with _cpg_paths': the
    # corpus generator is input, not parser code, so no fingerprint
    # covers it.  The suffix names the file encoding (`write_options`),
    # so a cache written under an older one is rewritten, not reused.
    checkpoint(
        factory, path, "fragments", f"corpus-{n}-seed42-v6/zstd", schema=FRAGMENTS_SCHEMA
    )
    return ray.data.read_parquet(path)


def _fragments_ds(sf_dir: str):
    """Corpus fragments with int64 ids (deduplicated content travels; the
    near-dup fodder lives here, FIXTURES.md F9)."""

    def prep(batch: pa.Table) -> pa.Table:
        ids = [
            (int(u.rsplit("/", 1)[1]) << 4) | min(15, i)
            for u, i in zip(
                batch.column("url").to_pylist(), batch.column("fragment_idx").to_pylist()
            )
        ]
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "text": batch.column("code")}
        )

    return _raw_fragments_ds(sf_dir).map_batches(prep, batch_format="pyarrow")


def minhash_near_dups_corpus(sf_dir: str) -> pa.Table:
    """MinHash LSH over corpus code fragments (engineered near-dups,
    FIXTURES.md F9) — returns the TOP near-dup pairs, bounded at 10k:
    an unbounded pair list is ~18x the corpus at bench scale (round-1
    verdict); full-corpus dedup belongs in `minhash_dedup_corpus`
    (cluster mapping, no pair explosion)."""
    from ..stages.dedup import minhash_lsh_pairs

    out = minhash_lsh_pairs(
        _fragments_ds(sf_dir),
        threshold=0.8,
        concurrency=None,
    )
    empty = pa.schema([pa.field("id_a", pa.int64()), pa.field("id_b", pa.int64()), pa.field("est_jaccard", pa.float64())])
    t = _collect(out, empty)
    if t.num_rows > 10_000:
        t = t.take(
            pc.sort_indices(
                t,
                sort_keys=[
                    ("est_jaccard", "descending"),
                    ("id_a", "ascending"),
                    ("id_b", "ascending"),
                ],
            )[:10_000]
        )
    return t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def simhash_near_dups_corpus(sf_dir: str) -> pa.Table:
    """SimHash near-dup pairs, bounded at the top 10k (closest hamming
    first) — same no-pair-explosion policy as the minhash demo."""
    from ..stages.dedup import simhash_near_dup_pairs

    out = simhash_near_dup_pairs(_fragments_ds(sf_dir), max_hamming=3)
    empty = pa.schema([pa.field("id_a", pa.int64()), pa.field("id_b", pa.int64()), pa.field("hamming", pa.int64())])
    t = _collect(out, empty)
    if t.num_rows > 10_000:
        t = t.take(
            pc.sort_indices(
                t,
                sort_keys=[
                    ("hamming", "ascending"),
                    ("id_a", "ascending"),
                    ("id_b", "ascending"),
                ],
            )[:10_000]
        )
    return t.sort_by([("id_a", "ascending"), ("id_b", "ascending")])


def lang_id_eval(sf_dir: str) -> pa.Table:
    """Heuristic language-ID vs the stored lang label (rows-only)."""
    from ..stages.textstats import lang_id_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    out = ds.map_batches(
        lambda b: lang_id_batch(b).select(["lang", "lang_pred"]), batch_format="pyarrow"
    )
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    import collections

    c = collections.Counter(
        zip(t.column("lang").to_pylist(), t.column("lang_pred").to_pylist())
    )
    rows = sorted(c.items())
    return pa.table(
        {
            "lang": pa.array([k[0] for k, _ in rows], pa.string()),
            "lang_pred": pa.array([k[1] for k, _ in rows], pa.string()),
            "n": pa.array([v for _, v in rows], pa.int64()),
        }
    )


def doc_fingerprints(sf_dir: str) -> pa.Table:
    from ..stages.textstats import fingerprint_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: fingerprint_batch(b).select(["doc_id", "fingerprint"]),
        batch_format="pyarrow",
    )
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.sort_by("doc_id")


def quality_scores(sf_dir: str) -> pa.Table:
    from ..stages.textstats import quality_score_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    out = ds.map_batches(
        lambda b: quality_score_batch(b).select(
            ["doc_id", "n_chars_q", "quality_ok"]
        ),
        batch_format="pyarrow",
    )
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    return t.sort_by("doc_id")


def media_feature_stats(sf_dir: str) -> pa.Table:
    """Multimodal plumbing: synthetic media corpus -> actor-pool feature
    extraction (stubbed codec) -> per-type stats."""
    import ray.data

    from ..stages.multimodal import (
        decoder_availability,
        media_features,
        synth_media_table,
    )

    n = {"sf0.001": 64, "sf0.01": 256, "sf0.1": 1024}.get(
        os.path.basename(os.path.normpath(sf_dir)), 64
    )
    # decoder="auto": real codecs when importable, deterministic fake
    # otherwise; the probe record lands in the result so the driver sees
    # WHICH decoder ran and why (round-4 verdict #10)
    avail = decoder_availability()
    which = "real" if avail["available"] else "fake"
    probe = "; ".join(f"{k}={v}" for k, v in sorted(avail.items()) if k != "available")
    ds = ray.data.from_arrow(synth_media_table(n))
    out = media_features(ds, decoder="auto", batch_size=32, concurrency=None)
    t = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow", batch_size=None)))
    import collections

    c = collections.Counter(t.column("media_type").to_pylist())
    rows = sorted(c.items())
    return pa.table(
        {
            "media_type": pa.array([k for k, _ in rows], pa.string()),
            "n": pa.array([v for _, v in rows], pa.int64()),
            "feature_dim": pa.array([len(t.column("features")[0])] * len(rows), pa.int64()),
            "decoder": pa.array([which] * len(rows), pa.string()),
            "decoder_probe": pa.array([probe] * len(rows), pa.string()),
        }
    )


# ---------------------------------------------------------------------------
# dataflow queries + exporters
# ---------------------------------------------------------------------------


def dataflow_malloc_to_free(sf_dir: str) -> pa.Table:
    """reachableBy demo (use-after-free shape, FIXTURES.md F3): flows
    from malloc-assignments into `free` call arguments — interprocedural
    (call-depth-bounded, reference Engine maxCallDepth=4)."""
    import ray.data

    from ..graph.dataflow import _scan_pairs, taint_flows

    res = _cpg_paths(sf_dir)
    nodes_f = lambda: ray.data.read_parquet(  # noqa: E731
        res["nodes_path"], columns=["id", "label", "name", "code", "order", "argument_index"]
    )
    edges_f = lambda: ray.data.read_parquet(  # noqa: E731
        res["edges_path"], columns=["subj", "pred", "obj"]
    )
    # sink: the argument identifiers of free(...) calls — obj of ARGUMENT
    # edges whose subj is a CALL named free (vectorized is_in scans)
    def _free_calls(b: pa.Table) -> pa.Table:
        m = pc.and_(pc.equal(b.column("label"), "CALL"), pc.equal(b.column("name"), "free"))
        return b.filter(m).select(["id"])

    free_parts = list(
        nodes_f().map_batches(_free_calls, batch_format="pyarrow").iter_batches(batch_format="pyarrow", batch_size=None)
    )
    free_ids = (
        pa.concat_tables(free_parts).column("id").to_numpy(zero_copy_only=False)
        if free_parts
        else np.empty(0, np.uint64)
    )
    _subj, arg_np = _scan_pairs(edges_f(), "ARGUMENT", "subj", free_ids)
    arg_ids = set(arg_np.tolist())

    def sink_pred(batch: pa.Table):
        return pc.is_in(batch.column("id"), value_set=pa.array(list(arg_ids) or [0], pa.uint64()))

    def source_pred(batch: pa.Table):
        code = batch.column("code")
        return pc.and_(
            pc.equal(batch.column("label"), "CALL"),
            pc.match_substring(pc.coalesce(code, pa.scalar("")), "malloc("),
        )

    flows = taint_flows(nodes_f, edges_f, source_pred, sink_pred)
    return pa.table(
        {
            "n_flows": pa.array([flows.num_rows], pa.int64()),
            "n_sinks": pa.array([len(arg_ids)], pa.int64()),
        }
    )


def export_dot_methods(sf_dir: str) -> pa.Table:
    """Per-method AST DOT export (reference JoernExport repr=ast) —
    returns export counts + a determinism witness hash."""
    from ..io.export import export_dot
    from ..sources.corpus import docs_dataset

    n = min(_docs_count_for(sf_dir), 300)
    ds = export_dot(docs_dataset(n, parallelism=4), concurrency=None)
    t = _collect(ds)
    import hashlib

    digest = hashlib.blake2b(
        "\n".join(sorted(t.column("dot").to_pylist())).encode(), digest_size=8
    ).hexdigest()
    return pa.table(
        {
            "n_methods": pa.array([t.num_rows], pa.int64()),
            "dot_digest": pa.array([digest], pa.string()),
        }
    )


def minhash_dedup_corpus(sf_dir: str) -> pa.Table:
    """Scalable near-dup collapse over corpus fragments: cluster mapping
    stats (no pair explosion — the 100TB-safe dedup path)."""
    from ..stages.dedup import minhash_dedup

    out = minhash_dedup(_fragments_ds(sf_dir), concurrency=None)
    empty = pa.schema([pa.field("doc_id", pa.int64()), pa.field("canonical_id", pa.int64())])
    t = _collect(out, empty)
    n = t.num_rows
    n_clusters = len(set(t.column("canonical_id").to_pylist()))
    return pa.table(
        {
            "n_fragments": pa.array([n], pa.int64()),
            "n_clusters": pa.array([n_clusters], pa.int64()),
            "n_collapsed": pa.array([n - n_clusters], pa.int64()),
        }
    )


def method_vectors_corpus(sf_dir: str) -> pa.Table:
    """joern-vectors analog: per-method feature-hash vectors over the
    corpus; returns counts + dim + a determinism digest.  Consumes the
    cached fragment checkpoint (no corpus re-generation/re-detection)."""
    from ..functions.vectors import method_vectors_from_fragments

    out = method_vectors_from_fragments(_raw_fragments_ds(sf_dir), concurrency=4)
    t = _collect(out)
    import hashlib

    vecs = t.column("vector").to_pylist()
    digest = hashlib.blake2b(
        str(sorted(zip(t.column("method_full_name").to_pylist(), [sum(v) for v in vecs]))).encode(),
        digest_size=8,
    ).hexdigest()
    return pa.table(
        {
            "n_methods": pa.array([t.num_rows], pa.int64()),
            "dim": pa.array([len(vecs[0]) if vecs else 0], pa.int64()),
            "digest": pa.array([digest], pa.string()),
        }
    )


def event_type_stats(sf_dir: str) -> pa.Table:
    """Per-type aggregate with exact-passthrough min/max (combiner
    pattern, SQL-oracle-checkable)."""
    ds = _read(sf_dir, "events", ["event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch)
            .group_by("event_type")
            .agg(
                pl.len().alias("n"),
                pl.col("value").min().alias("mn"),
                pl.col("value").max().alias("mx"),
            )
            .to_arrow()
        )

    import polars as pl

    t = _collect(ds.map_batches(partial, batch_format="pyarrow"))
    out = (
        pl.from_arrow(t)
        .group_by("event_type")
        .agg(
            pl.col("n").sum().alias("n_events"),
            pl.col("mn").min().alias("min_value"),
            pl.col("mx").max().alias("max_value"),
        )
        .sort("event_type")
        .to_arrow()
    )
    return out


def suppliers_per_region(sf_dir: str) -> pa.Table:
    """Two-hop broadcast join: supplier -> nation -> region."""
    import ray

    nation = _collect(_read(sf_dir, "nation", ["n_nationkey", "n_regionkey"]))
    region = _collect(_read(sf_dir, "region", ["r_regionkey", "r_name"]))
    # pre-join the two tiny dims driver-side, then vectorized index_in
    r2name = dict(
        zip(region.column("r_regionkey").to_pylist(), region.column("r_name").to_pylist())
    )
    keys = nation.column("n_nationkey").combine_chunks()
    names = pa.array(
        [r2name.get(v, "?") for v in nation.column("n_regionkey").to_pylist()],
        pa.string(),
    )

    def join(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("s_nationkey"), value_set=keys)
        got = pc.coalesce(pc.take(names, idx), pa.scalar("?"))
        return pa.table({"region": got})

    out = (
        _read(sf_dir, "supplier", ["s_nationkey"])
        .map_batches(join, batch_format="pyarrow")
        .groupby("region")
        .count()
        .sort("region")
    )
    t = _collect(out)
    return t.rename_columns(["region", "n_suppliers"])


def export_pdg_methods(sf_dir: str) -> pa.Table:
    """Per-method PDG (REACHING_DEF+CDG) DOT export counts."""
    from ..io.export import export_dot
    from ..sources.corpus import docs_dataset

    n = min(_docs_count_for(sf_dir), 300)
    ds = export_dot(docs_dataset(n, parallelism=4), repr_="pdg", concurrency=None)
    t = _collect(ds)
    return pa.table({"n_methods": pa.array([t.num_rows], pa.int64())})


def scan_bundle(sf_dir: str) -> pa.Table:
    """Full scanner bundle (querydb analog) over the corpus CPG —
    findings per query."""
    from ..query.dsl import Cpg
    from ..query.scanners import run_scan

    res = _cpg_paths(sf_dir)
    cpg = Cpg(res["nodes_path"], res["edges_path"])
    findings = run_scan(cpg)
    import collections

    c = collections.Counter(findings.column("name").to_pylist())
    rows = sorted(c.items())
    return pa.table(
        {
            "query": pa.array([k for k, _ in rows], pa.string()),
            "n_findings": pa.array([v for _, v in rows], pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# round-2 additions: more oracle-checkable wide operators
# ---------------------------------------------------------------------------


def customer_segment_counts(sf_dir: str) -> pa.Table:
    out = (
        _read(sf_dir, "customer", ["c_mktsegment"])
        .groupby("c_mktsegment")
        .count()
        .sort("c_mktsegment")
    )
    t = _collect(out)
    return t.rename_columns(["c_mktsegment", "n"])


def part_size_stats(sf_dir: str) -> pa.Table:
    """Per-type part size stats (combiner pattern, exact ints)."""
    ds = _read(sf_dir, "part", ["p_type", "p_size"])

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch)
            .group_by("p_type")
            .agg(
                pl.len().alias("c"),
                pl.col("p_size").min().alias("mn"),
                pl.col("p_size").max().alias("mx"),
            )
            .to_arrow()
        )

    import polars as pl

    t = _collect(ds.map_batches(partial, batch_format="pyarrow"))
    return (
        pl.from_arrow(t)
        .group_by("p_type")
        .agg(
            pl.col("c").sum().alias("n"),
            pl.col("mn").min().alias("min_size"),
            pl.col("mx").max().alias("max_size"),
        )
        .sort("p_type")
        .to_arrow()
    )


def orders_status_priority(sf_dir: str) -> pa.Table:
    """Two-key groupby counts."""
    out = (
        _read(sf_dir, "orders", ["o_orderstatus", "o_orderpriority"])
        .groupby(["o_orderstatus", "o_orderpriority"])
        .count()
    )
    t = _collect(out).rename_columns(["o_orderstatus", "o_orderpriority", "n"])
    return t.sort_by(
        [("o_orderstatus", "ascending"), ("o_orderpriority", "ascending")]
    )


def events_user_daily_distinct(sf_dir: str) -> pa.Table:
    """Distinct users per day: per-batch (day, user) distinct partials,
    exact distinct via groupby, then per-day counts — two small shuffles
    of pre-deduped pairs, never the raw events."""
    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        day = pc.strftime(batch.column("ts"), format="%Y-%m-%d")
        t = pa.table({"day": day, "user_id": batch.column("user_id")})
        import polars as pl

        return pl.from_arrow(t).unique().to_arrow()

    pairs = ds.map_batches(partial, batch_format="pyarrow")

    # built-in count() collapses each (day, user) group to one row —
    # vectorized, no per-group Python UDF
    uniq = pairs.groupby(["day", "user_id"]).count()
    out = uniq.map_batches(
        lambda b: b.select(["day"]), batch_format="pyarrow"
    ).groupby("day").count().sort("day")
    return _collect(out).rename_columns(["day", "n_users"])


def word_freq_top20(sf_dir: str) -> pa.Table:
    """Canonical wordcount over the documents table: vectorized
    split_pattern per batch -> per-batch value_counts (combiner) ->
    small groupby sum -> driver top-20 with deterministic ties."""
    ds = _read(sf_dir, "documents", ["text"])

    def partial(batch: pa.Table) -> pa.Table:
        col = pc.coalesce(batch.column("text"), pa.scalar(""))
        toks = pc.list_flatten(pc.split_pattern_regex(col, pattern=r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        vc = toks.value_counts()
        return pa.table(
            {"word": vc.field("values").cast(pa.string()), "c": vc.field("counts")}
        )

    out = ds.map_batches(partial, batch_format="pyarrow").groupby("word").sum("c")
    t = _collect(out).rename_columns(["word", "n"])
    t = t.take(
        pc.sort_indices(t, sort_keys=[("n", "descending"), ("word", "ascending")])[:20]
    )
    return t


def orders_monthly_counts(sf_dir: str) -> pa.Table:
    ds = _read(sf_dir, "orders", ["o_orderdate"])

    def f(batch: pa.Table) -> pa.Table:
        m = pc.strftime(batch.column("o_orderdate"), format="%Y-%m")
        return pa.table({"month": m})

    out = ds.map_batches(f, batch_format="pyarrow").groupby("month").count().sort("month")
    return _collect(out).rename_columns(["month", "n"])


def doc_source_stats(sf_dir: str) -> pa.Table:
    """Per-source doc counts + total chars (combiner, exact ints)."""
    ds = _read(sf_dir, "documents", ["source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch)
            .group_by("source")
            .agg(pl.len().alias("c"), pl.col("n_chars").sum().alias("s"))
            .to_arrow()
        )

    import polars as pl

    t = _collect(ds.map_batches(partial, batch_format="pyarrow"))
    return (
        pl.from_arrow(t)
        .group_by("source")
        .agg(pl.col("c").sum().alias("n_docs"), pl.col("s").sum().alias("total_chars"))
        .sort("source")
        .to_arrow()
    )


def method_lang_counts(sf_dir: str) -> pa.Table:
    """METHOD rows per source language (frontend coverage witness —
    includes the python frontend output)."""
    import ray.data

    res = _cpg_paths(sf_dir)
    ds = ray.data.read_parquet(res["nodes_path"], columns=["label", "lang"])

    def f(batch: pa.Table) -> pa.Table:
        b = batch.filter(pc.equal(batch.column("label"), "METHOD"))
        return pa.table({"lang": pc.coalesce(b.column("lang"), pa.scalar(""))})

    out = ds.map_batches(f, batch_format="pyarrow").groupby("lang").count().sort("lang")
    return _collect(out).rename_columns(["lang", "n_methods"])


def scan_conformance(sf_dir: str) -> pa.Table:
    """Per-query conformance over the embedded code examples (reference
    QueryUtil codeExamples): compiles every example through the real
    pipeline once, asserts positive flagged / negative silent."""
    import ray.data

    from ..pipelines.cpg import build_cpg
    from ..query.dsl import Cpg
    from ..query.scanners import BUNDLE

    urls, htmls = [], []

    def esc(code: str) -> str:
        return code.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

    for q in BUNDLE:
        if q.examples is None:
            continue
        for kind, code in (("pos", q.examples.positive), ("neg", q.examples.negative)):
            urls.append(f"https://ex/{q.name}/{kind}")
            htmls.append(
                (
                    f'<pre><code class="language-{q.examples.lang}">{esc(code)}</code></pre>'
                ).encode()
            )
    t = pa.table(
        {
            "url": urls,
            "warc_ts": pa.array(list(range(len(urls))), pa.timestamp("us")),
            "html": pa.array(htmls, pa.large_binary()),
            "text": [""] * len(urls),
            "lang": ["en"] * len(urls),
        }
    )
    out = "/tmp/joern_ray_cache/scanconf"
    # fingerprint derived from the rendered examples: editing/adding a
    # CodeExamples invalidates the cached conformance CPG automatically
    ex_fp = hash64("\x1e".join(u + "\x1f" + h.decode() for u, h in zip(urls, htmls)))
    res = build_cpg(
        lambda columns: ray.data.from_arrow(t),
        out,
        f"scanconf-examples-{ex_fp:x}",
    )
    cpg = Cpg(res["nodes_path"], res["edges_path"])
    rows = []
    for q in BUNDLE:
        if q.examples is None:
            continue
        got = q.traversal(cpg)
        flagged = set(got.column("url").to_pylist())
        rows.append(
            {
                "query": q.name,
                "pos_flagged": f"https://ex/{q.name}/pos" in flagged,
                "neg_silent": f"https://ex/{q.name}/neg" not in flagged,
            }
        )
    rows.sort(key=lambda r: r["query"])
    return pa.table(
        {
            "query": pa.array([r["query"] for r in rows], pa.string()),
            "pos_flagged": pa.array([r["pos_flagged"] for r in rows], pa.bool_()),
            "neg_silent": pa.array([r["neg_silent"] for r in rows], pa.bool_()),
        }
    )


def usage_slice_stats(sf_dir: str) -> pa.Table:
    """UsageSlicing histogram: how many declarations have N call-site
    usages (per-declaration usage degree) over the corpus CPG."""
    import ray.data

    from ..graph.dataflow import usage_slices

    res = _cpg_paths(sf_dir)
    edges_f = lambda: ray.data.read_parquet(  # noqa: E731
        res["edges_path"], columns=["subj", "pred", "obj"]
    )
    per = usage_slices(edges_f)

    def hist_partial(batch: pa.Table) -> pa.Table:
        vc = batch.column("n_uses").combine_chunks().value_counts()
        return pa.table(
            {
                "n_uses": vc.field("values").cast(pa.int64()),
                "c": vc.field("counts"),
            }
        )

    from ..util import bucketed_group_agg

    out = bucketed_group_agg(
        per.map_batches(hist_partial, batch_format="pyarrow"), ["n_uses"], [("c", "sum")]
    )
    t = _collect(out).rename_columns(["n_uses", "n_decls"])
    return t.sort_by("n_uses")


def tag_overlay_stats(sf_dir: str) -> pa.Table:
    """Pass-protocol witness: apply the TagMatchPass/TagEdgePass pair
    (reference newTagNodePair, `NewTagNodePairTraversal.scala:10-18`)
    for dangerous calls over the built CPG and count TAG nodes +
    TAGGED_BY edges through the widened overlay roots."""
    from ..stages.protocol import TagEdgePass, TagMatchPass, apply_passes

    res = _cpg_paths(sf_dir)
    danger_re = "^(" + "|".join(sorted(DANGEROUS)) + ")$"
    out = apply_passes(
        res["out_dir"],
        [
            TagMatchPass("dangerous", label="CALL", name_re=danger_re),
            TagEdgePass("dangerous", label="CALL", name_re=danger_re),
        ],
        f"tags-v2:{danger_re}",  # param change => fingerprint change => rebuild
    )
    cpg = out["cpg"]
    n_tags = cpg.all().where_label("TAG").size()

    def _edges(b: pa.Table) -> pa.Table:
        return pa.table(
            {"n": [pc.sum(pc.equal(b.column("pred"), "TAGGED_BY").cast(pa.int64())).as_py() or 0]}
        )

    # note: the per-batch partials get COALESCED by iter_batches — sum the
    # whole column, never index row 0
    n_edges = sum(
        pc.sum(b.column("n")).as_py() or 0
        for b in cpg.edges_ds().map_batches(_edges, batch_format="pyarrow").iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return pa.table(
        {
            "metric": ["n_tag_nodes", "n_tagged_by_edges"],
            "n": pa.array([n_tags, n_edges], pa.int64()),
        }
    )


def brand_part_counts(sf_dir: str) -> pa.Table:
    """Parts per brand with the max size — single-key combiner pattern
    (integral aggregates only, exact oracle parity)."""
    ds = _read(sf_dir, "part", ["p_brand", "p_size"])

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        return (
            pl.from_arrow(batch)
            .group_by("p_brand")
            .agg(pl.len().alias("c"), pl.col("p_size").max().alias("mx"))
            .to_arrow()
        )

    # the partial map does BOTH aggregates (count + max) in one pass;
    # the driver-side combine is over brand-cardinality rows only
    import polars as pl

    parts = pa.concat_tables(
        list(
            ds.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    t = (
        pl.from_arrow(parts)
        .group_by("p_brand")
        .agg(pl.col("c").sum().alias("n_parts"), pl.col("mx").max().alias("max_size"))
        .sort("p_brand")
        .to_arrow()
    )
    return pa.table(
        {
            "p_brand": t.column("p_brand").cast(pa.string()),
            "n_parts": t.column("n_parts").cast(pa.int64()),
            "max_size": t.column("max_size").cast(pa.int64()),
        }
    )


def supplier_balance_extremes(sf_dir: str) -> pa.Table:
    """Supplier count + acctbal min/max per nation name (broadcast dim
    join; min/max are order-exact on doubles, unlike sums)."""
    nation = _collect(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    keys = nation.column("n_nationkey").combine_chunks()
    names = nation.column("n_name").combine_chunks()

    def join(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("s_nationkey"), value_set=keys)
        got = pc.coalesce(pc.take(names, idx), pa.scalar("?"))
        return pa.table({"nation": got, "bal": batch.column("s_acctbal")})

    import polars as pl

    parts = pa.concat_tables(
        list(
            _read(sf_dir, "supplier", ["s_nationkey", "s_acctbal"])
            .map_batches(join, batch_format="pyarrow")
            .map_batches(
                lambda b: pl.from_arrow(b)
                .group_by("nation")
                .agg(
                    pl.len().alias("c"),
                    pl.col("bal").min().alias("mn"),
                    pl.col("bal").max().alias("mx"),
                )
                .to_arrow(),
                batch_format="pyarrow",
            )
            .iter_batches(batch_format="pyarrow", batch_size=None)
        )
    )
    t = (
        pl.from_arrow(parts)
        .group_by("nation")
        .agg(
            pl.col("c").sum().alias("n_suppliers"),
            pl.col("mn").min().alias("min_bal"),
            pl.col("mx").max().alias("max_bal"),
        )
        .sort("nation")
        .to_arrow()
    )
    return pa.table(
        {
            "nation": t.column("nation").cast(pa.string()),
            "n_suppliers": t.column("n_suppliers").cast(pa.int64()),
            "min_bal": t.column("min_bal").cast(pa.float64()),
            "max_bal": t.column("max_bal").cast(pa.float64()),
        }
    )


def lineitem_returnflag_dates(sf_dir: str) -> pa.Table:
    """Row count + shipdate range per return flag (dates as strings for
    exact oracle parity, the events_daily_counts idiom)."""
    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_shipdate"])

    def partial(batch: pa.Table) -> pa.Table:
        import polars as pl

        day = pc.strftime(batch.column("l_shipdate"), format="%Y-%m-%d")
        t = pa.table({"l_returnflag": batch.column("l_returnflag"), "day": day})
        return (
            pl.from_arrow(t)
            .group_by("l_returnflag")
            .agg(
                pl.len().alias("c"),
                pl.col("day").min().alias("mn"),
                pl.col("day").max().alias("mx"),
            )
            .to_arrow()
        )

    import polars as pl

    parts = pa.concat_tables(
        list(
            ds.map_batches(partial, batch_format="pyarrow").iter_batches(
                batch_format="pyarrow", batch_size=None
            )
        )
    )
    t = (
        pl.from_arrow(parts)
        .group_by("l_returnflag")
        .agg(
            pl.col("c").sum().alias("n"),
            pl.col("mn").min().alias("min_ship"),
            pl.col("mx").max().alias("max_ship"),
        )
        .sort("l_returnflag")
        .to_arrow()
    )
    return pa.table(
        {
            "l_returnflag": t.column("l_returnflag").cast(pa.string()),
            "n": t.column("n").cast(pa.int64()),
            "min_ship": t.column("min_ship").cast(pa.string()),
            "max_ship": t.column("max_ship").cast(pa.string()),
        }
    )


def orders_by_nation_status(sf_dir: str) -> pa.Table:
    """Order count + date range per (customer nation, order status) — a
    fact-to-fact distributed join (orders ⋈ customer on custkey via
    `bucketed_join`: neither side broadcasts, the scale-correct shape
    when both sides grow with the corpus) followed by a tiny broadcast
    dim lookup (nation) and a bucketed group-agg."""
    from ..util import bucketed_group_agg, bucketed_join

    nation = _collect(_read(sf_dir, "nation", ["n_nationkey", "n_name"]))
    nkeys = nation.column("n_nationkey").combine_chunks().cast(pa.int32())
    nnames = nation.column("n_name").combine_chunks()

    def o_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": batch.column("o_custkey"),
                "o_orderstatus": batch.column("o_orderstatus"),
                "day": pc.strftime(batch.column("o_orderdate"), format="%Y-%m-%d"),
            }
        )

    def c_prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "jcust": batch.column("c_custkey"),
                "nkey": batch.column("c_nationkey"),
            }
        )

    joined = bucketed_join(
        _read(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_orderdate"]).map_batches(
            o_prep, batch_format="pyarrow"
        ),
        [("o_custkey", pa.int64()), ("o_orderstatus", pa.string()), ("day", pa.string())],
        _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).map_batches(
            c_prep, batch_format="pyarrow"
        ),
        [("jcust", pa.int64()), ("nkey", pa.int32())],
        on=("o_custkey",),
        right_on=("jcust",),
    )

    def with_nation(batch: pa.Table) -> pa.Table:
        idx = pc.index_in(batch.column("nkey").cast(pa.int32()), value_set=nkeys)
        return pa.table(
            {
                "nation": pc.take(nnames, idx),
                "o_orderstatus": batch.column("o_orderstatus"),
                "day": batch.column("day"),
            }
        )

    out = bucketed_group_agg(
        joined.map_batches(with_nation, batch_format="pyarrow"),
        ["nation", "o_orderstatus"],
        [("day", "count"), ("day", "min"), ("day", "max")],
    )
    t = _collect(out)
    t = pa.table(
        {
            "nation": t.column("nation").cast(pa.string()),
            "o_orderstatus": t.column("o_orderstatus").cast(pa.string()),
            "n_orders": t.column("day_count").cast(pa.int64()),
            "min_date": t.column("day_min").cast(pa.string()),
            "max_date": t.column("day_max").cast(pa.string()),
        }
    )
    return t.sort_by([("nation", "ascending"), ("o_orderstatus", "ascending")])


def order_priority_by_year(sf_dir: str) -> pa.Table:
    """Order counts per (year, priority) — two-key date-derived groupby."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])

    def f(batch: pa.Table) -> pa.Table:
        yr = pc.year(batch.column("o_orderdate")).cast(pa.int64())
        return pa.table({"yr": yr, "o_orderpriority": batch.column("o_orderpriority")})

    out = (
        ds.map_batches(f, batch_format="pyarrow")
        .groupby(["yr", "o_orderpriority"])
        .count()
    )
    t = _collect(out)
    # name-based select: pyarrow/ray agg output column order varies
    n_col = [c for c in t.column_names if c not in ("yr", "o_orderpriority")][0]
    t = pa.table(
        {
            "yr": t.column("yr").cast(pa.int64()),
            "o_orderpriority": t.column("o_orderpriority").cast(pa.string()),
            "n": t.column(n_col).cast(pa.int64()),
        }
    )
    return t.sort_by([("yr", "ascending"), ("o_orderpriority", "ascending")])

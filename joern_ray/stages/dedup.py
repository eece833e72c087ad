"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

These are first-class training-data-pipeline operators layered on the
same shuffle machinery as the CPG linkers.  The reference's only dedup is
exact key-collision handling (`FullNameUniquenessPass.scala:31-127`,
first-wins `getOrElseUpdate` in `AstCreationPass.scala:38-40`); the
near-dup family is the web-scale extension the north star names
("min-hash dedup collapses equivalent entities").

Scale shapes:
- exact:   map (hash) → groupby(hash) → first-wins — one shuffle of
           (hash, id) pairs only, never the payload.
- minhash: map (shingle → K permutations → B bands) → flat-map band rows
           → groupby(band, bucket) → per-group candidate pairs verified
           by signature agreement.  Payload never shuffles; bands do.
- simhash: map (64-bit signature) → band on 4×16-bit chunks → groupby —
           exact-same-chunk candidates verified by Hamming distance.
- embedding: random-hyperplane LSH buckets → exact cosine within bucket.
"""

from __future__ import annotations

from ..functions.hashing import hash64
from ..util import resolve_pool, worker_get

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MERSENNE = np.uint64((1 << 61) - 1)
_POPCNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def add_content_hash(batch: pa.Table, col: str, out_col: str = "content_hash64") -> pa.Table:
    """64-bit content hash of a string column (vectorized via polars)."""
    import polars as pl

    s = pl.from_arrow(batch.column(col)).cast(pl.Utf8).fill_null("")
    h = s.hash(seed=0)
    arr = pa.array(h.to_numpy() & np.uint64((1 << 63) - 1), pa.uint64())
    return batch.append_column(out_col, arr)


def exact_dedup(ds, col: str, id_col: str):
    """Hash-partition + per-group first (deterministic min id): returns
    Dataset of (id_col winner, n_dups) per distinct value of `col`.
    Vectorized combine via `bucketed_group_agg` — both the per-group
    Python UDF (one call per distinct value) and Ray's built-in
    aggregate (one Python call per ROW in the reduce) were measured
    bottleneck shapes."""
    from ..util import bucketed_group_agg

    def h(batch: pa.Table) -> pa.Table:
        b = add_content_hash(batch, col)
        return b.select([id_col, "content_hash64"])

    agg = bucketed_group_agg(
        ds.map_batches(h, batch_format="pyarrow"),
        ["content_hash64"],
        [(id_col, "min"), (id_col, "count")],
    )

    def rename(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(f"{id_col}_min"),
                "n_dups": batch.column(f"{id_col}_count").cast(pa.int64()),
            }
        )

    return agg.map_batches(rename, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# shingling + minhash
# ---------------------------------------------------------------------------


def _shingles(text: str, k: int = 5) -> np.ndarray:
    """Character k-shingle hashes (vectorized FNV-style mix)."""
    t = " ".join(text.lower().split())
    if len(t) < k:
        t = t + " " * (k - len(t))
    b = np.frombuffer(t.encode("utf-8", "replace"), dtype=np.uint8).astype(np.uint64)
    n = len(b) - k + 1
    if n <= 0:
        return np.zeros(1, np.uint64)
    with np.errstate(over="ignore"):
        acc = np.zeros(n, np.uint64)
        for i in range(k):
            acc = acc * np.uint64(1099511628211) + b[i : i + n]
    return np.unique(acc)


class MinHasher:
    """K-permutation minhash state (a*x+b mod p), built once per actor —
    the stateful-stage pattern (parameters in __init__, per-batch work in
    __call__)."""

    def __init__(
        self,
        text_col: str = "text",
        id_col: str = "doc_id",
        num_perm: int = 128,
        bands: int = 16,
        shingle_k: int = 5,
        seed: int = 7,
        emit_sig: bool = True,
    ) -> None:
        self.emit_sig = emit_sig
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, (1 << 61) - 1, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.bands = bands
        self.rows_per_band = num_perm // bands
        self.text_col = text_col
        self.id_col = id_col
        self.shingle_k = shingle_k
        # content-keyed signature memo (~0.5 KB/entry at num_perm=64)
        self._sig_cache: dict[int, np.ndarray] = {}
        self._sig_cache_max = 65536

    def signature(self, text: str) -> np.ndarray:
        sh = _shingles(text, self.shingle_k)
        with np.errstate(over="ignore"):
            # (num_perm, n_shingles) via broadcasting; mod Mersenne prime
            prod = (sh[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
        return prod.min(axis=1).astype(np.uint64)

    def signatures_batch(self, texts: list) -> np.ndarray:
        """(n_docs, num_perm) signatures — vectorized, with a
        content-keyed memo: web/method corpora are dup-heavy (the parser
        template cache measures >90% hits), and identical text has an
        identical signature, so only DISTINCT texts get shingled and
        permuted.  The memo persists across batches in the worker
        process (tasks reuse workers)."""
        if not texts:
            return np.zeros((0, self.num_perm), np.uint64)
        # keyed on the content hash used project-wide for content equality
        # (python's builtin hash() is salted per-process AND collisions
        # would silently alias one text's signature to another's)
        keys = [hash64(t or "") for t in texts]
        cache = self._sig_cache
        miss: dict[int, str] = {}
        for k, t in zip(keys, texts):
            if k not in cache and k not in miss:
                miss[k] = t or ""
        if miss:
            shingle_lists = [_shingles(t, self.shingle_k) for t in miss.values()]
            lens = np.array([len(s) for s in shingle_lists], dtype=np.int64)
            flat = np.concatenate(shingle_lists)
            with np.errstate(over="ignore"):
                # (num_perm, total_shingles)
                prod = (flat[None, :] * self.a[:, None] + self.b[:, None]) % _MERSENNE
            starts = np.zeros(len(lens), dtype=np.int64)
            np.cumsum(lens[:-1], out=starts[1:])
            mins = np.minimum.reduceat(prod, starts, axis=1).T.astype(np.uint64)
            if len(cache) + len(miss) > self._sig_cache_max:
                cache.clear()
            for i, k in enumerate(miss):
                cache[k] = mins[i]
        return np.stack([cache[k] for k in keys])

    def __call__(self, batch: pa.Table) -> pa.Table:
        """flat-map: one row per (doc, band) with the band bucket hash and
        (when `emit_sig`) the full signature for downstream verification.
        The dedup-collapse path sets emit_sig=False: replicating the
        64xu64 signature list per band was bands× avoidable payload."""
        texts = batch.column(self.text_col).to_pylist()
        ids = np.asarray(batch.column(self.id_col).to_pylist())
        n = len(texts)
        if n == 0:
            cols = {
                self.id_col: pa.array([], pa.int64()),
                "band": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.uint64()),
            }
            if self.emit_sig:
                cols["sig"] = pa.array([], pa.list_(pa.uint64()))
            return pa.table(cols)
        sigs = self.signatures_batch(texts)  # (n, num_perm)
        r = self.rows_per_band
        with np.errstate(over="ignore"):
            # bucket hash per (doc, band): polynomial over the band chunk,
            # fully vectorized
            chunks = sigs.reshape(n, self.bands, r)
            bucket = np.zeros((n, self.bands), dtype=np.uint64)
            for j in range(r):  # tiny loop (r ~ 4-8)
                bucket = bucket * np.uint64(1000003) + chunks[:, :, j]
            bucket &= np.uint64((1 << 63) - 1)
        out_id = np.repeat(ids, self.bands)
        out_band = np.tile(np.arange(self.bands, dtype=np.int32), n)
        cols = {
            self.id_col: pa.array(out_id),
            "band": pa.array(out_band, pa.int32()),
            "bucket": pa.array(bucket.reshape(-1), pa.uint64()),
        }
        if self.emit_sig:
            sig_lists = sigs.tolist()
            cols["sig"] = pa.array(
                [sig_lists[i] for i in range(n) for _ in range(self.bands)],
                pa.list_(pa.uint64()),
            )
        return pa.table(cols)


# Per-worker MinHasher memo: its state is DETERMINISTIC (seeded
# permutations), so plain tasks build it once per worker process — no
# pinned actor CPUs, which matters when the minhash overlaps other
# stages (the cpg equivalence pass runs concurrently with the edge
# write; a pinned pool starved it at low CPU counts).
_MINHASHER_MEMO: dict = {}


def minhasher_fn(**kwargs):
    key = tuple(sorted(kwargs.items()))

    def _fn(batch: pa.Table) -> pa.Table:
        mh = _MINHASHER_MEMO.get(key)
        if mh is None:
            if len(_MINHASHER_MEMO) > 4:
                _MINHASHER_MEMO.clear()
            mh = MinHasher(**kwargs)
            _MINHASHER_MEMO[key] = mh
        return mh(batch)

    return _fn


def minhash_lsh_pairs(ds, text_col="text", id_col="doc_id", num_perm=128, bands=16, threshold=0.7, concurrency=None):
    """Candidate near-dup pairs via banded minhash LSH, verified by
    signature agreement (estimated Jaccard ≥ threshold).  Returns a
    Dataset of (id_a, id_b, est_jaccard) with id_a < id_b, deduplicated
    across bands by keeping each pair only in its first matching band."""

    band_rows = ds.map_batches(
        minhasher_fn(
            text_col=text_col, id_col=id_col, num_perm=num_perm, bands=bands
        ),
        batch_format="pyarrow",
    ).materialize()  # groupby sampling must not re-run the MinHasher stage

    def pairs_in_bucket(batch: pa.Table) -> pa.Table:
        """Vectorized all-pairs signature agreement, capped per bucket.

        Boilerplate-heavy web corpora create near-clique buckets; an
        uncapped pair list is O(n²) per bucket and explodes (observed:
        a 30k-doc bench wedged here before the cap).  Buckets larger
        than `max_bucket` are deterministically sampled (sorted by id,
        evenly strided) and the truncation is recorded on every emitted
        row — no silent cap.  For full-corpus dedup use
        `minhash_dedup` (cluster mapping, O(n) per bucket) instead.
        """
        max_bucket = 256
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "est_jaccard": pa.array([], pa.float64()),
                "band": pa.array([], pa.int32()),
                "bucket_truncated": pa.array([], pa.bool_()),
            }
        )
        n = batch.num_rows
        if n < 2:
            return empty
        ids = np.asarray(batch.column(id_col).to_pylist())
        order = np.argsort(ids)
        truncated = n > max_bucket
        if truncated:
            order = order[:: max(1, n // max_bucket)][:max_bucket]
        ids_s = ids[order]
        sig_m = np.asarray(
            batch.take(pa.array(order)).column("sig").to_pylist(), dtype=np.uint64
        )  # (m, K) — single vectorized list-column conversion
        band = batch.column("band")[0].as_py()
        # est jaccard matrix in one broadcast: (m, m)
        est = (sig_m[:, None, :] == sig_m[None, :, :]).mean(axis=2)
        iu, ju = np.triu_indices(len(ids_s), k=1)
        mask = est[iu, ju] >= threshold
        ii, jj = iu[mask], ju[mask]
        return pa.table(
            {
                "id_a": pa.array(ids_s[ii], pa.int64()),
                "id_b": pa.array(ids_s[jj], pa.int64()),
                "est_jaccard": pa.array(est[ii, jj], pa.float64()),
                "band": pa.array([band] * len(ii), pa.int32()),
                "bucket_truncated": pa.array([truncated] * len(ii), pa.bool_()),
            }
        )

    pairs = band_rows.groupby(["band", "bucket"]).map_groups(
        pairs_in_bucket, batch_format="pyarrow"
    ).materialize()  # the distinct's sampling must not re-mine pairs

    # a pair can surface in several bands; est_jaccard is computed from
    # the FULL signatures so it is identical in every band — dedup is a
    # plain distinct on (id_a, id_b, est_jaccard) via the BUILT-IN
    # vectorized count aggregation (a per-group map_groups UDF here was
    # the measured bottleneck: ~1 python call per pair)
    uniq = pairs.groupby(["id_a", "id_b", "est_jaccard"]).count()
    return uniq.map_batches(
        lambda b: b.select(["id_a", "id_b", "est_jaccard"]), batch_format="pyarrow"
    )


def _cc_labels(band_rows, id_col, num_partitions, max_rounds=32):
    """Connected-component labels over the doc–bucket bipartite LSH
    graph: label(x) = min doc id in x's component (hash-to-min).

    Each round: join current labels onto the (id, band, bucket) rows,
    take the min label per bucket, push it back to every bucket member,
    keep the per-id min.  The label multiset is monotone non-increasing,
    so an unchanged per-round label SUM is a fixpoint — one cheap
    aggregate instead of a change-count join.  Rounds needed = component
    diameter in doc→bucket→doc hops (log-ish for dense near-dup
    clusters); `max_rounds` is a runaway bound, not the semantics.

    Everything is bucketed joins/aggs over O(reps × bands) rows —
    nothing O(corpus) reaches the driver.  Returns (jid, cur) labels."""
    from ..util import bucketed_group_agg, bucketed_join

    def _norm(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: b.column(id_col).cast(pa.int64()),
                "band": b.column("band").cast(pa.int32()),
                "bucket": b.column("bucket").cast(pa.uint64()),
            }
        )

    br = band_rows.map_batches(_norm, batch_format="pyarrow").materialize()

    def _as_labels(ds_):
        return ds_.map_batches(
            lambda b: pa.table(
                {
                    "jid": b.column(id_col).cast(pa.int64()),
                    "cur": b.column("cur_min").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    labels = _as_labels(
        bucketed_group_agg(
            br.map_batches(
                lambda b: pa.table(
                    {id_col: b.column(id_col), "cur": b.column(id_col)}
                ),
                batch_format="pyarrow",
            ),
            [id_col],
            [("cur", "min")],
            num_buckets=num_partitions,
        )
    )

    def _lab_sum(ds_) -> int:
        s = 0
        for b in ds_.iter_batches(batch_format="pyarrow", batch_size=None):
            s += pc.sum(b.column("cur")).as_py() or 0
        return s

    prev = _lab_sum(labels)
    rounds = 0
    for _ in range(max_rounds):
        rounds += 1
        lab_rows = bucketed_join(
            br,
            [(id_col, pa.int64()), ("band", pa.int32()), ("bucket", pa.uint64())],
            labels,
            [("jid", pa.int64()), ("cur", pa.int64())],
            on=(id_col,),
            right_on=("jid",),
            num_buckets=num_partitions,
        ).materialize()  # consumed twice below (agg + pickup join)
        bmin = bucketed_group_agg(
            lab_rows, ["band", "bucket"], [("cur", "min")], num_buckets=num_partitions
        ).map_batches(
            lambda b: pa.table(
                {
                    "jband": b.column("band").cast(pa.int32()),
                    "jbucket": b.column("bucket").cast(pa.uint64()),
                    "bcur": b.column("cur_min").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        picked = bucketed_join(
            lab_rows,
            [
                (id_col, pa.int64()),
                ("band", pa.int32()),
                ("bucket", pa.uint64()),
                ("cur", pa.int64()),
            ],
            bmin,
            [("jband", pa.int32()), ("jbucket", pa.uint64()), ("bcur", pa.int64())],
            on=("band", "bucket"),
            right_on=("jband", "jbucket"),
            num_buckets=num_partitions,
        )

        def _pick(b: pa.Table) -> pa.Table:
            cur = b.column("cur")
            new = pc.min_element_wise(cur, pc.coalesce(b.column("bcur"), cur))
            return pa.table({id_col: b.column(id_col), "cur": new})

        labels = _as_labels(
            bucketed_group_agg(
                picked.map_batches(_pick, batch_format="pyarrow"),
                [id_col],
                [("cur", "min")],
                num_buckets=num_partitions,
            )
        )
        s = _lab_sum(labels)
        if s == prev:
            break
        prev = s
    return labels, rounds


def minhash_dedup(
    ds,
    text_col="text",
    id_col="doc_id",
    num_perm=128,
    bands=16,
    concurrency=None,
    driver_gate=2_000_000,
    num_partitions=32,
    transitive=False,
    cc_max_rounds=32,
):
    """Scalable near-dup COLLAPSE: (id -> canonical_id) cluster mapping.

    TWO-LEVEL (exact -> near), the shape that survives dup-heavy web
    corpora:

    1. exact content collapse — group on hash64(text), representative =
       min id, via the BUILT-IN Min/Count aggregation (no per-group
       Python).  Shuffles TWO integer columns, never the text; identical
       texts are Jaccard-1 near-dups, so this changes no cluster.
       (63-bit hash equality treated as content equality — same caveat
       as `exact_dedup`.)
    2. banded MinHash over the DISTINCT texts only (reps): per (band,
       bucket) min via built-in agg, members pick up their bucket min
       via a hash JOIN on (band, bucket), then a built-in per-id min
       across bands.  Web corpora are >90% duplicate content, so the
       band shuffle shrinks 10-20x.
    3. members map through their rep's canonical (path-compressed).

    TWO REGIMES gated on input size (`driver_gate` rows):
    - under the gate: the (chash -> rep) map for DUPLICATED contents
      only is broadcast (ray.put + per-worker memo) — O(duplicated
      distinct contents) driver memory, zero joins; and the collapse
      map (O(collapsed reps)) is path-compressed on the driver.
    - over the gate: every step is a distributed hash JOIN
      (`Dataset.join`) — rep assignment, rep-text pull, bucket-min
      pickup, and a fixed-round (3 => chains ≤ 2^3) iterative self-join
      path compression.  NOTHING of O(corpus) ever reaches the driver.

    `ds` is consumed twice (projection + rep-text pull) — pass a
    checkpoint/Parquet-backed Dataset so re-execution is a re-read.
    The result is cheap to consume more than once: in the broadcast
    regime a map over materialized blocks, otherwise materialized (a
    join lineage re-run would repeat its shuffles).
    By default: one union-find hop; documents transitively linked only
    through longer chains keep separate canonicals (bounded-round
    choice, same spirit as the reference's fixed-iteration type
    recovery, `XTypeRecovery.scala:143-145`).  `transitive=True`
    switches to FULL connected components over the LSH graph
    (hash-to-min via `_cc_labels`, fixpoint-detected, `cc_max_rounds`
    as a runaway bound) at the cost of O(rounds) extra band-row
    shuffles."""
    import ray

    from ..functions.hashing import hash64
    from ..util import bucketed_group_agg

    # ---- level 1: exact content collapse ------------------------------
    # polars-vectorized content hash (same convention as exact_dedup) —
    # a per-row python hash64 loop here was ~2x the whole level-1 cost
    # at 600k docs (it ran over EVERY member text, twice)
    def chash_proj(batch: pa.Table) -> pa.Table:
        b = add_content_hash(batch, text_col, "chash")
        return b.select([id_col, "chash"])

    m1 = ds.map_batches(chash_proj, batch_format="pyarrow").materialize()
    n_rows = m1.count()
    if n_rows == 0:
        return ray.data.from_arrow(
            pa.table(
                {id_col: pa.array([], pa.int64()), "canonical_id": pa.array([], pa.int64())}
            )
        )
    use_broadcast = n_rows <= driver_gate
    # (chash, min(id), count) — built-in vectorized aggregation
    agg1 = bucketed_group_agg(
        m1, ["chash"], [(id_col, "min"), (id_col, "count")], num_buckets=num_partitions
    ).materialize()
    min_col = f"{id_col}_min"
    cnt_col = f"{id_col}_count"

    def _minhash(rep_rows):
        """Distinct-text rows -> (rep id, band, bucket) rows."""
        return (
            rep_rows.map_batches(
                minhasher_fn(
                    text_col=text_col,
                    id_col=id_col,
                    num_perm=num_perm,
                    bands=bands,
                    emit_sig=False,
                ),
                batch_format="pyarrow",
            )
            # groupby/join sampling must not re-run the MinHasher stage
            .materialize()
        )

    if use_broadcast:
        # ---- broadcast regime --------------------------------------------
        # driver state: (chash -> rep) for DUPLICATED contents only —
        # unique contents are their own rep, no entry needed
        dup_ch: list[int] = []
        dup_rep: list[int] = []
        for b in agg1.iter_batches(batch_format="pyarrow", batch_size=None):
            dup = b.filter(pc.greater(b.column(cnt_col), 1))
            dup_ch.extend(dup.column("chash").to_pylist())
            dup_rep.extend(dup.column(min_col).to_pylist())
        sk_ = np.array(dup_ch, dtype=np.uint64)
        sv_ = np.array(dup_rep, dtype=np.int64)
        _ord = np.argsort(sk_)
        dup_ref = ray.put((sk_[_ord], sv_[_ord]))

        def assign_rep(batch: pa.Table) -> pa.Table:
            """(id, chash) -> (id, rep): rep = dup map hit else self."""
            sk, sv = worker_get(dup_ref)
            ids = batch.column(id_col).combine_chunks().to_numpy(zero_copy_only=False).astype(np.int64)
            ch = batch.column("chash").combine_chunks().to_numpy(zero_copy_only=False).astype(np.uint64)
            if len(sk):
                pos = np.minimum(np.searchsorted(sk, ch), len(sk) - 1)
                hit = sk[pos] == ch
                rep = np.where(hit, sv[pos], ids)
            else:
                rep = ids
            return pa.table(
                {id_col: batch.column(id_col), "rep": pa.array(rep, pa.int64())}
            )

        # lazy: it fuses into the single map `finalize` runs over the
        # materialized m1 blocks
        m1_map = m1.map_batches(assign_rep, batch_format="pyarrow")

        def rep_filter(batch: pa.Table) -> pa.Table:
            """Keep exactly one row per distinct content: dup-map miss
            (unique content) or the min-id member of a dup group."""
            sk, sv = worker_get(dup_ref)
            ch = (
                add_content_hash(batch, text_col, "__ch")
                .column("__ch")
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
            ids = np.asarray(batch.column(id_col).to_pylist(), dtype=np.int64)
            if len(sk):
                pos = np.minimum(np.searchsorted(sk, ch), len(sk) - 1)
                hit = sk[pos] == ch
                keep = ~hit | (sv[pos] == ids)
            else:
                keep = np.ones(len(ids), dtype=bool)
            return batch.filter(pa.array(keep))

        band_rows = _minhash(ds.map_batches(rep_filter, batch_format="pyarrow"))
    else:
        # ---- shuffle-join regime -----------------------------------------
        def _rename_rep(batch: pa.Table) -> pa.Table:
            # cast chash back to uint64 (groupby promotes key dtypes)
            return pa.table(
                {
                    "chash": batch.column("chash").cast(pa.uint64()),
                    "rep": batch.column(min_col).cast(pa.int64()),
                }
            )

        rep_by_ch = agg1.map_batches(_rename_rep, batch_format="pyarrow")
        m1_map = (
            m1.join(rep_by_ch, "inner", num_partitions=num_partitions, on=("chash",))
            .map_batches(lambda b: b.select([id_col, "rep"]), batch_format="pyarrow")
            # coalesce away the schema-less empty blocks join partitions
            # emit (they crash the LEFT side of the final join below)
            .repartition(num_partitions)
            .materialize()
        )
        reps_only = rep_by_ch.map_batches(
            lambda b: b.select(["rep"]), batch_format="pyarrow"
        )
        rep_rows = ds.join(
            reps_only,
            "inner",
            num_partitions=num_partitions,
            on=(id_col,),
            right_on=("rep",),
        )
        band_rows = _minhash(rep_rows)

    if transitive:
        # ---- full connected components (opt-in) -----------------------
        # hash-to-min over the LSH graph: near-dup CHAINS (A~B, B~C with
        # A,C sharing no bucket) collapse to one canonical, unlike the
        # default single union-find hop below.  Costs O(rounds) extra
        # shuffles over the rep band rows — pay it when transitive
        # closure matters more than wall time.
        from ..util import bucketed_join

        labels, _cc_rounds = _cc_labels(
            band_rows, id_col, num_partitions, max_rounds=cc_max_rounds
        )
        final = bucketed_join(
            m1_map,
            [(id_col, pa.int64()), ("rep", pa.int64())],
            labels,
            [("jid", pa.int64()), ("cur", pa.int64())],
            on=("rep",),
            right_on=("jid",),
            how="left_outer",
            num_buckets=num_partitions,
        )

        def _final_cc(b: pa.Table) -> pa.Table:
            return pa.table(
                {
                    id_col: b.column(id_col),
                    "canonical_id": pc.coalesce(
                        b.column("cur"), b.column("rep")
                    ).cast(pa.int64()),
                }
            )

        return final.map_batches(_final_cc, batch_format="pyarrow").materialize()

    # ---- level 2: bucket min + per-rep global min (built-in aggs) -----
    # The bucket-min PICKUP differs per regime: the broadcast regime must
    # stay join-free — `Dataset.join`'s hash-shuffle aggregator ACTORS
    # cannot be scheduled while another streaming executor (e.g. the CPG
    # edge-write thread that runs this concurrently) holds all CPUs, a
    # measured deadlock at 4 CPUs.  Only duplicated buckets (≥2 members)
    # are collected — singleton buckets' min is the member itself.
    bmin = bucketed_group_agg(
        band_rows,
        ["band", "bucket"],
        [(id_col, "min"), (id_col, "count")],
        num_buckets=num_partitions,
    ).materialize()

    if use_broadcast:
        # per-band sorted bucket arrays -> exact vectorized searchsorted
        # lookup (no composite-key collision risk, no join)
        bands_l: list[int] = []
        buckets_l: list[int] = []
        mins_l: list[int] = []
        for b in bmin.iter_batches(batch_format="pyarrow", batch_size=None):
            dup = b.filter(pc.greater(b.column(cnt_col), 1))
            bands_l.extend(dup.column("band").to_pylist())
            buckets_l.extend(dup.column("bucket").to_pylist())
            mins_l.extend(dup.column(min_col).to_pylist())
        band_np = np.array(bands_l, dtype=np.int32)
        buck_np = np.array(buckets_l, dtype=np.uint64)
        mins_np = np.array(mins_l, dtype=np.int64)
        per_band: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for bd in np.unique(band_np):
            sel = band_np == bd
            bk, mv = buck_np[sel], mins_np[sel]
            o = np.argsort(bk)
            per_band[int(bd)] = (bk[o], mv[o])
        bmin_ref = ray.put(per_band)

        def pickup(batch: pa.Table) -> pa.Table:
            pb = worker_get(bmin_ref)
            ids = (
                batch.column(id_col)
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
            bd_arr = (
                batch.column("band")
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
                .astype(np.int32)
            )
            bk_arr = (
                batch.column("bucket")
                .combine_chunks()
                .to_numpy(zero_copy_only=False)
                .astype(np.uint64)
            )
            cand = ids.copy()
            for bd in np.unique(bd_arr):
                ent = pb.get(int(bd))
                if ent is None:
                    continue
                sk, sv = ent
                sel = bd_arr == bd
                pos = np.minimum(np.searchsorted(sk, bk_arr[sel]), len(sk) - 1)
                hit = sk[pos] == bk_arr[sel]
                cand[sel] = np.where(hit, sv[pos], ids[sel])
            return pa.table(
                {id_col: batch.column(id_col), "cand": pa.array(cand, pa.int64())}
            )

        members = band_rows.map_batches(pickup, batch_format="pyarrow")
    else:

        def _rename_cand(batch: pa.Table) -> pa.Table:
            # cast keys back to the band_rows dtypes (groupby promotes them)
            return pa.table(
                {
                    "band": batch.column("band").cast(pa.int32()),
                    "bucket": batch.column("bucket").cast(pa.uint64()),
                    "cand": batch.column(min_col).cast(pa.int64()),
                }
            )

        members = band_rows.join(
            bmin.map_batches(_rename_cand, batch_format="pyarrow"),
            "inner",
            num_partitions=num_partitions,
            on=("band", "bucket"),
        )
    rep_canon = bucketed_group_agg(
        members, [id_col], [("cand", "min")], num_buckets=num_partitions
    )

    def _collapsed_only(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks().cast(pa.int64())
        canon = batch.column("cand_min").combine_chunks().cast(pa.int64())
        t = pa.table({"cfrom": ids, "cto": canon})
        return t.filter(pc.not_equal(t.column("cfrom"), t.column("cto")))

    collapsed = rep_canon.map_batches(_collapsed_only, batch_format="pyarrow")

    # ---- level 3: path compression + member mapping -------------------
    if use_broadcast:
        # collapse map is O(collapsed reps) — compress fully on the driver
        cmap: dict = {}
        for b in collapsed.iter_batches(batch_format="pyarrow", batch_size=None):
            cmap.update(zip(b.column("cfrom").to_pylist(), b.column("cto").to_pylist()))
        for k in list(cmap):
            v = cmap[k]
            seen = {k}
            while v in cmap and v not in seen:
                seen.add(v)
                v = cmap[v]
            cmap[k] = v
        ck_np = np.array(list(cmap.keys()), dtype=np.int64)
        cv_np = np.array(list(cmap.values()), dtype=np.int64)
        _order = np.argsort(ck_np)
        cmap_ref = ray.put((ck_np[_order], cv_np[_order]))

        # numpy searchsorted lookup (NOT pc.index_in/take: take over a
        # null-bearing chunked index array returned corrupted values
        # inside Ray workers — observed zeros fabricated from clean
        # inputs)
        def finalize(batch: pa.Table) -> pa.Table:
            sk, sv = worker_get(cmap_ref)
            rep = batch.column("rep").combine_chunks()
            rep_np = rep.to_numpy(zero_copy_only=False).astype(np.int64)
            if len(sk):
                pos = np.minimum(np.searchsorted(sk, rep_np), len(sk) - 1)
                hit = sk[pos] == rep_np
                canon = np.where(hit, sv[pos], rep_np)
            else:
                canon = rep_np
            return pa.table(
                {
                    id_col: batch.column(id_col),
                    "canonical_id": pa.array(canon, pa.int64()),
                }
            )

        return m1_map.map_batches(finalize, batch_format="pyarrow")

    # distributed pointer-doubling compression, CONVERGENCE-CHECKED:
    # collapse edges always point strictly downward (cand_min < id), so
    # the sum of cto values is monotone decreasing and an unchanged
    # round-sum is a fixpoint — chains of ANY length compress, with the
    # round bound (6 => chains ≤ 2^6) only as a runaway guard.
    # repartition first: groupby/join operators emit schema-less EMPTY
    # blocks for empty hash partitions, and an acero join crashes on a
    # left partition assembled only from those ("No match ... FieldRef");
    # coalescing merges them into schema-carrying blocks.  The collapsed
    # set is O(collapsed reps) — small relative to the corpus.
    collapsed = collapsed.repartition(max(2, num_partitions // 4)).materialize()

    def _cto_sum(ds_) -> int:
        s = 0
        for b in ds_.iter_batches(batch_format="pyarrow", batch_size=None):
            s += pc.sum(b.column("cto")).as_py() or 0
        return s

    prev_sum = _cto_sum(collapsed)
    for _ in range(6):
        nxt = collapsed.join(
            collapsed.map_batches(
                lambda b: pa.table({"jfrom": b.column("cfrom"), "jto": b.column("cto")}),
                batch_format="pyarrow",
            ),
            "left_outer",
            num_partitions=num_partitions,
            on=("cto",),
            right_on=("jfrom",),
        )

        def _compress(batch: pa.Table) -> pa.Table:
            return pa.table(
                {
                    "cfrom": batch.column("cfrom"),
                    "cto": pc.coalesce(batch.column("jto"), batch.column("cto")),
                }
            )

        collapsed = (
            nxt.map_batches(_compress, batch_format="pyarrow")
            .repartition(max(2, num_partitions // 4))
            .materialize()
        )
        s = _cto_sum(collapsed)
        if s == prev_sum:
            break
        prev_sum = s

    joined = m1_map.join(
        collapsed.map_batches(
            lambda b: pa.table({"jfrom": b.column("cfrom"), "jto": b.column("cto")}),
            batch_format="pyarrow",
        ),
        "left_outer",
        num_partitions=num_partitions,
        on=("rep",),
        right_on=("jfrom",),
    )

    def _final_join(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                id_col: batch.column(id_col),
                "canonical_id": pc.coalesce(
                    batch.column("jto"), batch.column("rep")
                ).cast(pa.int64()),
            }
        )

    return joined.map_batches(_final_join, batch_format="pyarrow").materialize()


# ---------------------------------------------------------------------------
# n-gram Jaccard (exact verification / small-scale pairwise)
# ---------------------------------------------------------------------------


def ngram_jaccard(a: str, b: str, k: int = 5) -> float:
    sa, sb = set(_shingles(a, k).tolist()), set(_shingles(b, k).tolist())
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash64(text: str, k: int = 4) -> int:
    """64-bit SimHash over word k=1 tokens (hash-weighted bit votes)."""
    tokens = (text or "").lower().split()
    if not tokens:
        return 0
    import polars as pl

    h = pl.Series(tokens).hash(seed=1).to_numpy()
    bits = ((h[:, None] >> np.arange(64)[None, :].astype(np.uint64)) & 1).astype(np.int64)
    votes = (2 * bits - 1).sum(axis=0)
    return int(((votes > 0).astype(np.uint64) << np.arange(64).astype(np.uint64)).sum() & np.uint64((1 << 63) - 1))


def simhash_batch(batch: pa.Table, text_col="text") -> pa.Table:
    vals = [simhash64(t) for t in batch.column(text_col).to_pylist()]
    return batch.append_column("simhash", pa.array(vals, pa.uint64()))


def simhash_near_dup_pairs(ds, text_col="text", id_col="doc_id", max_hamming=3):
    """Near-dup pairs by SimHash banding: 4 chunks of 16 bits — any pair
    within Hamming distance 3 shares at least one exact chunk (pigeonhole),
    so groupby(chunk_idx, chunk_value) finds all candidates."""

    def explode(batch: pa.Table) -> pa.Table:
        b = simhash_batch(batch.select([id_col, text_col]), text_col)
        ids = b.column(id_col).to_pylist()
        sh = b.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        out_id, out_chunk, out_val, out_sim = [], [], [], []
        for i, d in enumerate(ids):
            for c in range(4):
                out_id.append(d)
                out_chunk.append(c)
                out_val.append(int((sh[i] >> np.uint64(16 * c)) & np.uint64(0xFFFF)))
                out_sim.append(int(sh[i]))
        return pa.table(
            {
                id_col: pa.array(out_id),
                "chunk": pa.array(out_chunk, pa.int32()),
                "chunk_val": pa.array(out_val, pa.int64()),
                "simhash": pa.array(out_sim, pa.uint64()),
            }
        )

    def pairs(batch: pa.Table) -> pa.Table:
        """Vectorized XOR-popcount pairs, capped per chunk group (see
        minhash pairs for the boilerplate-clique rationale)."""
        max_bucket = 256
        ids = np.asarray(batch.column(id_col).to_pylist())
        sh = batch.column("simhash").to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.argsort(ids)
        if len(order) > max_bucket:
            order = order[:: max(1, len(order) // max_bucket)][:max_bucket]
        ids_s, sh_s = ids[order], sh[order]
        m = len(ids_s)
        if m < 2:
            return pa.table(
                {
                    "id_a": pa.array([], pa.int64()),
                    "id_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        x = sh_s[:, None] ^ sh_s[None, :]  # (m, m) uint64
        # popcount via byte view + unpackbits-free table
        b = x.view(np.uint8).reshape(m, m, 8)
        ham = _POPCNT[b].sum(axis=2).astype(np.int64)
        iu, ju = np.triu_indices(m, k=1)
        keep = (ham[iu, ju] <= max_hamming) & (ids_s[iu] != ids_s[ju])
        ii, jj = iu[keep], ju[keep]
        return pa.table(
            {
                "id_a": pa.array(np.minimum(ids_s[ii], ids_s[jj]), pa.int64()),
                "id_b": pa.array(np.maximum(ids_s[ii], ids_s[jj]), pa.int64()),
                "hamming": pa.array(ham[ii, jj], pa.int64()),
            }
        )

    def dedup_pair(batch: pa.Table) -> pa.Table:
        return batch.take([0])

    return (
        ds.map_batches(explode, batch_format="pyarrow")
        .groupby(["chunk", "chunk_val"])
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["id_a", "id_b"])
        .map_groups(dedup_pair, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# embedding-cosine near-dup (random-hyperplane LSH buckets)
# ---------------------------------------------------------------------------


class HyperplaneBucketer:
    """Stateful stage: random hyperplanes drawn once per actor (fixed
    seed) → sign-bit bucket per vector."""

    def __init__(self, dim: int, n_planes: int = 12, vec_col: str = "embedding", seed: int = 11) -> None:
        rng = np.random.RandomState(seed)
        self.planes = rng.normal(size=(dim, n_planes)).astype(np.float32)
        self.vec_col = vec_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        vecs = np.asarray(batch.column(self.vec_col).to_pylist(), dtype=np.float32)
        proj = vecs @ self.planes  # (n, planes) — one matmul per batch
        bits = (proj > 0).astype(np.uint64)
        bucket = np.zeros(len(vecs), np.uint64)
        for p in range(bits.shape[1]):
            bucket |= bits[:, p] << np.uint64(p)
        norms = np.linalg.norm(vecs, axis=1)
        return batch.append_column("bucket", pa.array(bucket, pa.uint64())).append_column(
            "norm", pa.array(norms, pa.float64())
        )


def embedding_near_dup_pairs(ds, dim: int, id_col="vec_id", vec_col="embedding", threshold=0.95, n_planes=12, concurrency=None):
    """Cosine near-dup pairs: LSH bucket by hyperplane signs, exact cosine
    within each bucket (payload shuffles only per-bucket)."""

    bucketed = ds.map_batches(
        HyperplaneBucketer,
        fn_constructor_kwargs={"dim": dim, "vec_col": vec_col, "n_planes": n_planes},
        batch_format="pyarrow",
        concurrency=resolve_pool(concurrency),
    )

    def pairs(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        empty = pa.table(
            {
                "id_a": pa.array([], pa.int64()),
                "id_b": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if n < 2:
            return empty
        ids = np.asarray(batch.column(id_col).to_pylist())
        vecs = np.asarray(batch.column(vec_col).to_pylist(), dtype=np.float32)
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        sims = unit @ unit.T
        iu, ju = np.triu_indices(n, k=1)
        mask = sims[iu, ju] >= threshold
        ii, jj = iu[mask], ju[mask]
        lo = np.minimum(ids[ii], ids[jj])
        hi = np.maximum(ids[ii], ids[jj])
        return pa.table(
            {
                "id_a": pa.array(lo, pa.int64()),
                "id_b": pa.array(hi, pa.int64()),
                "cosine": pa.array(sims[ii, jj].astype(np.float64)),
            }
        )

    return bucketed.groupby("bucket").map_groups(pairs, batch_format="pyarrow")

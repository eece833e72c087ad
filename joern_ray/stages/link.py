"""Cross-document linking — the shuffle layer (SURVEY.md §2.4-2.5).

Re-expresses the reference's linker passes (`LinkingUtil.linkToSingle`,
`x2cpg/.../utils/LinkingUtil.scala:35-121`: probe a full-name index, emit
edge, drop+log misses) for Ray Data.  Two structural tricks make most
linkers shuffle-free:

1. **Content-hash dimension ids.**  TYPE / FILE / NAMESPACE node ids are
   pure functions of their key (`hash64("TYPE", fqn)`), so fact→dimension
   edges (EVAL_TYPE, SOURCE_FILE, namespace REF) are computed map-side in
   the emitting batch with NO join; only the tiny dimension table needs a
   distinct (`ds.unique`).  The reference instead builds per-pass hash
   maps over the whole graph (`TypeEvalPass.scala:9-43`,
   `FileCreationPass.scala:15-58`, `NamespaceCreator.scala:13-27`).

2. **Method linking is the one real join** (`StaticCallLinker.scala:
   11-38`, `MethodRefLinker.scala:12-29`): CALL.method_full_name ⋈
   METHOD.full_name.  Two regimes:
   - broadcast: method index `ray.put` once, read per actor (small side);
   - salted shuffle: tagged union of calls+methods grouped on
     `(fqn, salt)` with hot keys (malloc/printf/<operator>.assignment —
     the north rule's skew case) replicated k ways on the dimension side.

Unresolved calls link to deterministic stubs `hash64("STUB", fqn)`
(reference `MethodStubCreator.scala:24-70` creates one stub per distinct
unresolved full name).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64
from ..schemas import EDGES_SCHEMA, NODES_SCHEMA
from ..util import worker_get

# Labels whose rows get SOURCE_FILE edges (reference `FileCreationPass`
# links METHOD/TYPE_DECL/NAMESPACE_BLOCK to FILE).
_FILE_LINKED = ("METHOD", "TYPE_DECL", "NAMESPACE_BLOCK")


def type_id(fqn: str) -> int:
    return hash64("TYPE", fqn)


def file_id(url: str) -> int:
    return hash64("FILE", url)


def namespace_id(name: str) -> int:
    return hash64("NAMESPACE", name)


def stub_id(fqn: str) -> int:
    return hash64("STUB", fqn)


def dim_nodes_batch(keys: list[str], label: str, id_fn) -> pa.Table:
    """Columnar NODES_SCHEMA table for one dimension kind — built
    directly as arrays (these run distributed inside map_batches over
    the aggregated survey; a per-row dict path was the measured driver
    cost when dims were synthesized on the driver).  Keys are sorted so
    output blocks are deterministic."""
    keys = sorted(keys)
    n = len(keys)
    cols = {f: pa.nulls(n, NODES_SCHEMA.field(f).type) for f in NODES_SCHEMA.names}
    cols["id"] = pa.array([id_fn(k) for k in keys], pa.uint64())
    cols["label"] = pa.array([label] * n, pa.string())
    cols["name"] = pa.array(keys, pa.string())
    cols["full_name"] = pa.array(keys, pa.string())
    cols["order"] = pa.array([0] * n, pa.int32())
    cols["argument_index"] = pa.array([-1] * n, pa.int32())
    cols["line"] = pa.array([-1] * n, pa.int32())
    cols["col"] = pa.array([-1] * n, pa.int32())
    return pa.table(cols, schema=NODES_SCHEMA)


def typedecl_stub_id(fqn: str) -> int:
    return hash64("TDSTUB", fqn)


def typedecl_stub_batch(fqns: list[str]) -> pa.Table:
    """TYPE_DECL stub rows for referenced-but-undeclared types
    (reference `base/TypeDeclStubCreator.scala:13-58`: every TYPE whose
    name has no declaration gets an external TYPE_DECL stub so member /
    inheritance traversals don't dead-end at the TYPE dimension).  The
    `<external>` code marks them (the reference's isExternal flag)."""
    fqns = sorted(fqns)
    t = dim_nodes_batch(fqns, "TYPE_DECL", typedecl_stub_id)
    n = len(fqns)
    names = [f.rsplit(".", 1)[-1] if "." in f else f for f in fqns]
    t = t.set_column(
        t.schema.get_field_index("name"), "name", pa.array(names, pa.string())
    )
    return t.set_column(
        t.schema.get_field_index("code"),
        "code",
        pa.array(["<external>"] * n, pa.string()),
    )


def stub_nodes_batch(fqns: list[str], max_args: dict[str, int]) -> pa.Table:
    """METHOD stub rows for unresolved call fqns (reference
    `MethodStubCreator.scala:24-70`): the stub signature carries
    max-arity ANY parameters from the CallSummary aggregate."""
    fqns = sorted(fqns)
    t = dim_nodes_batch(fqns, "METHOD", stub_id)
    n = len(fqns)
    names = [
        f if f.startswith("<operator>") else f.rsplit(".", 1)[-1] for f in fqns
    ]
    sigs = [
        "ANY(" + ",".join(["ANY"] * int(max_args.get(f, 0))) + ")" for f in fqns
    ]
    t = t.set_column(t.schema.get_field_index("name"), "name", pa.array(names, pa.string()))
    t = t.set_column(
        t.schema.get_field_index("signature"), "signature", pa.array(sigs, pa.string())
    )
    t = t.set_column(
        t.schema.get_field_index("code"), "code", pa.array(["<empty>"] * n, pa.string())
    )
    return t.set_column(
        t.schema.get_field_index("lang"), "lang", pa.array([""] * n, pa.string())
    )


# ---------------------------------------------------------------------------
# Map-side linkers (no shuffle): EVAL_TYPE, SOURCE_FILE, NAMESPACE REF.
# ---------------------------------------------------------------------------


def mapside_link_edges(batch: pa.Table) -> pa.Table:
    """nodes batch -> edges batch of EVAL_TYPE + SOURCE_FILE + NS REF +
    INHERITS_FROM.

    TYPE_DECL rows carry their inherits list ;-joined in type_full_name
    (parser convention); it explodes here into one INHERITS_FROM edge per
    base type (reference `TypeHierarchyPass.scala:12-33` explodes the
    multi-valued inheritsFromTypeFullName the same way)."""
    import numpy as np

    labels = batch.column("label")
    subj_parts: list[pa.Array] = []
    obj_parts: list[np.ndarray] = []
    pred_parts: list[tuple[str, int]] = []

    def _hashed_lookup(values: pa.ChunkedArray, prefix: str) -> np.ndarray:
        """Vectorized key -> content-hash id: hash only the (few) unique
        values, then scatter via dictionary indices."""
        arr = values.combine_chunks() if isinstance(values, pa.ChunkedArray) else values
        d = pc.dictionary_encode(arr)
        uniq = d.dictionary.to_pylist()
        hashed = np.array([hash64(prefix, u) for u in uniq], dtype=np.uint64)
        idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        return hashed[idx]

    # EVAL_TYPE: every non-TYPE_DECL row with a type_full_name
    tfn = batch.column("type_full_name")
    ev_mask = pc.and_(
        pc.and_(tfn.is_valid(), pc.not_equal(pc.coalesce(tfn, pa.scalar("")), "")),
        pc.not_equal(labels, "TYPE_DECL"),
    )
    ev = batch.filter(ev_mask)
    if ev.num_rows:
        subj_parts.append(ev.column("id").combine_chunks())
        obj_parts.append(_hashed_lookup(ev.column("type_full_name"), "TYPE"))
        pred_parts.append(("EVAL_TYPE", ev.num_rows))
    # INHERITS_FROM: TYPE_DECL rows, ;-exploded (few rows — python ok)
    td = batch.filter(
        pc.and_(pc.equal(labels, "TYPE_DECL"), pc.not_equal(pc.coalesce(tfn, pa.scalar("")), ""))
    )
    if td.num_rows:
        s_ids, o_ids = [], []
        for nid, v in zip(td.column("id").to_pylist(), td.column("type_full_name").to_pylist()):
            for base in v.split(";"):
                if base:
                    s_ids.append(nid)
                    o_ids.append(type_id(base))
        if s_ids:
            subj_parts.append(pa.array(s_ids, pa.uint64()))
            obj_parts.append(np.array(o_ids, dtype=np.uint64))
            pred_parts.append(("INHERITS_FROM", len(s_ids)))
    # ALIAS_OF: typedef TYPE_DECLs carry their target as signature
    # "alias:T" (reference `AliasLinkerPass.scala:10-28`)
    sig = pc.coalesce(batch.column("signature"), pa.scalar(""))
    al = batch.filter(
        pc.and_(pc.equal(labels, "TYPE_DECL"), pc.starts_with(sig, "alias:"))
    )
    if al.num_rows:
        a_ids, a_objs = [], []
        for nid, s_ in zip(al.column("id").to_pylist(), al.column("signature").to_pylist()):
            a_ids.append(nid)
            a_objs.append(type_id(s_[6:]))
        subj_parts.append(pa.array(a_ids, pa.uint64()))
        obj_parts.append(np.array(a_objs, dtype=np.uint64))
        pred_parts.append(("ALIAS_OF", len(a_ids)))
    # TYPE -> TYPE_DECL REF (reference `base/TypeRefPass.scala:9-30`):
    # the TYPE dimension id is a pure content hash of the fqn, so the
    # edge is computable map-side from the TYPE_DECL row alone.  The
    # pass starts from TYPE nodes, and the survey creates one per
    # declared (pre-canonicalization) full name — a renamed
    # `C<duplicate>k` declaration has no TYPE node, hence no REF.
    td_fn = pc.coalesce(batch.column("full_name"), pa.scalar(""))
    td_all = batch.filter(
        pc.and_(
            pc.equal(labels, "TYPE_DECL"),
            pc.and_(
                pc.not_equal(td_fn, ""),
                pc.invert(pc.match_substring_regex(td_fn, r"<duplicate>\d+$")),
            ),
        )
    )
    if td_all.num_rows:
        subj_parts.append(
            pa.array(
                [type_id(f) for f in td_all.column("full_name").to_pylist()],
                pa.uint64(),
            )
        )
        obj_parts.append(
            td_all.column("id").combine_chunks().cast(pa.uint64()).to_numpy(zero_copy_only=False)
        )
        pred_parts.append(("REF", td_all.num_rows))
    # SOURCE_FILE
    url = batch.column("url")
    sf_mask = pc.and_(
        pc.is_in(labels, value_set=pa.array(list(_FILE_LINKED))),
        pc.and_(url.is_valid(), pc.not_equal(pc.coalesce(url, pa.scalar("")), "")),
    )
    sf = batch.filter(sf_mask)
    if sf.num_rows:
        subj_parts.append(sf.column("id").combine_chunks())
        obj_parts.append(_hashed_lookup(sf.column("url"), "FILE"))
        pred_parts.append(("SOURCE_FILE", sf.num_rows))
    # NAMESPACE REF
    ns = batch.filter(pc.equal(labels, "NAMESPACE_BLOCK"))
    if ns.num_rows:
        subj_parts.append(ns.column("id").combine_chunks())
        obj_parts.append(_hashed_lookup(ns.column("name"), "NAMESPACE"))
        pred_parts.append(("REF", ns.num_rows))
    if not subj_parts:
        return EDGES_SCHEMA.empty_table()
    n_total = sum(n for _, n in pred_parts)
    preds = pa.array(
        [p for p, n in pred_parts for _ in range(n)], pa.string()
    )
    return pa.table(
        {
            "subj": pa.concat_arrays([s.cast(pa.uint64()) for s in subj_parts]),
            "pred": preds,
            "obj": pa.array(np.concatenate(obj_parts), pa.uint64()),
            "variable": pa.nulls(n_total, pa.string()),
        },
        schema=EDGES_SCHEMA,
    )


# ---------------------------------------------------------------------------
# Canonicalization: FullNameUniquenessPass analog (reference
# `c2cpg/.../FullNameUniquenessPass.scala:31-127` — group by full_name,
# stable-sort by (filename, line, col), rename tail `<duplicate>N`).
# ---------------------------------------------------------------------------


def canonicalize_group(batch: pa.Table) -> pa.Table:
    """map_groups UDF over METHOD/TYPE_DECL rows grouped by full_name:
    keeps the stable-first row as canonical, renames the rest."""
    if batch.num_rows <= 1:
        return batch
    order = pc.sort_indices(
        batch,
        sort_keys=[("url", "ascending"), ("fragment_idx", "ascending"),
                   ("line", "ascending"), ("col", "ascending")],
    )
    batch = batch.take(order)
    fns = batch.column("full_name").to_pylist()
    out = [fns[0]]
    for i in range(1, len(fns)):
        out.append(f"{fns[i]}<duplicate>{i - 1}")
    return batch.set_column(
        batch.schema.get_field_index("full_name"), "full_name", pa.array(out, pa.string())
    )


# ---------------------------------------------------------------------------
# Method linking: broadcast regime.
# ---------------------------------------------------------------------------


def _ret_type_of(sig: str | None) -> str | None:
    """Return type parsed off the "ret(args)" signature convention; None
    when absent/ANY (the reference's dummy-type guard,
    `XTypeRecovery.scala:94-111`)."""
    if sig and "(" in sig:
        r = sig.split("(")[0]
        if r and r != "ANY":
            return r
    return None


class CallLinker:
    """Stateful linker over CALL / METHOD_REF node batches.

    __init__ receives the ray.put object ref of the method index table
    (full_name, id, signature) plus an optional ref of the SAFEDISPATCH
    fqn -> [candidate fqn] map, and builds the lookup dicts ONCE per
    actor/worker (reference builds its index lazily per pass,
    `LinkingUtil.scala:20-30`; `DynamicCallLinker.initMaps`,
    `DynamicCallLinker.scala:44-51`).

    Emits: CALL edges (call -> method/stub), REF edges (method_ref ->
    method/stub).  Misses become stub targets — never dropped silently
    (`logFailedDstLookup` analog is the stub row itself).
    """

    def __init__(self, index_ref, dyn_ref=None, member_ref=None) -> None:
        import ray

        # MEMBER dimension (Type.field -> canonical member id) for the
        # cross-fragment FieldAccessLinkerPass (reference
        # `typerelations/FieldAccessLinkerPass.scala:18-89`).
        # NOTE (round 5, measured): deferring the index build to workers
        # via a parquet-path spec thrashed — 32 processes × 32-thread
        # scans re-decoding the same files took the 600k edge phase from
        # 98 s to 327 s.  The ray.put table + per-worker dict stays.
        self.member_index: dict[str, int] = {}
        if member_ref is not None:
            mt = (
                ray.get(member_ref)
                if not isinstance(member_ref, pa.Table)
                else member_ref
            )
            for fn_, mid in zip(
                mt.column("full_name").to_pylist(), mt.column("id").to_pylist()
            ):
                if fn_ and fn_ not in self.member_index:  # first-wins
                    self.member_index[fn_] = mid
        t = ray.get(index_ref) if not isinstance(index_ref, pa.Table) else index_ref
        names = t.column("full_name").to_pylist()
        ids = t.column("id").to_pylist()
        self.index: dict[str, int] = dict(zip(names, ids))
        # fqn -> callee return type (cross-document half of type
        # recovery; reference `XTypeRecovery.scala:25,94-111`)
        self.ret_types: dict[str, str] = {}
        if "signature" in t.column_names:
            for fqn, sig in zip(names, t.column("signature").to_pylist()):
                r = _ret_type_of(sig)
                if r:
                    self.ret_types[fqn] = r
        # fqn -> candidate id list for DYNAMIC_DISPATCH calls
        # (SAFEDISPATCH candidate sets — `DynamicCallLinker.scala:29-221`)
        dynf = (
            ray.get(dyn_ref)
            if dyn_ref is not None and not isinstance(dyn_ref, dict)
            else (dyn_ref or {})
        )
        self.dyn_candidates: dict[str, list[int]] = {}
        for fqn, cands in dynf.items():
            ids_ = [self.index[c] for c in cands if c in self.index]
            if ids_:
                self.dyn_candidates[fqn] = ids_

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        fq = pc.coalesce(batch.column("method_full_name"), pa.scalar(""))
        keep = batch.filter(pc.not_equal(fq, ""))
        if keep.num_rows == 0:
            return EDGES_SCHEMA.empty_table()
        # vectorized fqn -> target id: resolve only the (few) unique fqns
        # per batch, then scatter via dictionary indices
        d = pc.dictionary_encode(keep.column("method_full_name").combine_chunks())
        uniq = d.dictionary.to_pylist()
        idx = self.index
        dyn = self.dyn_candidates or {}

        def _primary(u: str):
            c = dyn.get(u)
            if c:
                return c[0]
            got = idx.get(u)
            if got is not None:
                return got
            # unresolved symbolic `<ret:f>.g` fqns collapse onto the
            # shared <unknownFullName> stub — the reference never
            # materializes `<ret:` names (ADVICE r4; Joern's
            # Defines.UnresolvedNamespace convention)
            if u.startswith("<ret:"):
                return stub_id("<unknownFullName>")
            return stub_id(u)

        targets = np.array([_primary(u) for u in uniq], dtype=np.uint64)
        dict_idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        obj = targets[dict_idx]
        # extra CALL edges for additional dynamic candidates (one edge per
        # candidate per call site, like the reference's candidate set)
        extra_tables: list[pa.Table] = []
        for ui, u in enumerate(uniq):
            cands = dyn.get(u)
            if not cands or len(cands) < 2:
                continue
            rows = np.nonzero(dict_idx == ui)[0]
            if not len(rows):
                continue
            subj_ids = (
                keep.column("id").combine_chunks().cast(pa.uint64()).to_numpy(zero_copy_only=False)[rows]
            )
            labs = keep.column("label").take(pa.array(rows)).to_pylist()
            for extra in cands[1:]:
                n_r = len(rows)
                extra_tables.append(
                    pa.table(
                        {
                            "subj": pa.array(subj_ids, pa.uint64()),
                            "pred": pa.array(
                                ["CALL" if l == "CALL" else "REF" for l in labs], pa.string()
                            ),
                            "obj": pa.array([extra] * n_r, pa.uint64()),
                            "variable": pa.nulls(n_r, pa.string()),
                        },
                        schema=EDGES_SCHEMA,
                    )
                )
        self._extra_tables = extra_tables
        pred = pc.if_else(
            pc.equal(keep.column("label"), "CALL"),
            pa.scalar("CALL"),
            pa.scalar("REF"),
        )
        out = pa.table(
            {
                "subj": keep.column("id").combine_chunks().cast(pa.uint64()),
                "pred": pred.combine_chunks() if isinstance(pred, pa.ChunkedArray) else pred,
                "obj": pa.array(obj, pa.uint64()),
                "variable": pa.nulls(keep.num_rows, pa.string()),
            },
            schema=EDGES_SCHEMA,
        )
        if self._extra_tables:
            out = pa.concat_tables([out] + self._extra_tables)
        return out


def build_dyn_candidates(
    type_decls: "pa.Table", call_fqns, known, max_depth: int = 16
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """SAFEDISPATCH candidate sets (reference `DynamicCallLinker.scala:
    29-221`): for call fqn "T.m" — T's own (or nearest superclass,
    fallback :146-171) definition first, then every subclass override
    (:26-27 candidate set = methods of all subclasses).

    `type_decls`: TYPE_DECL rows (full_name + ;-joined inherits in
    type_full_name) — only rows participating in inheritance matter, so
    callers may pre-filter to non-empty type_full_name.  `known` is the
    canonical METHOD full-name set (membership only).  Returns two maps
    fqn -> [candidate method fqns] (strings, regime-agnostic: the
    broadcast linker maps them to ids via its index; the salted join
    re-keys fact rows by candidate fqn): the SAFEDISPATCH sets, and the
    NaiveCallLinker entries (`NaiveCallLinker.scala:12-29`: a dotted
    call fqn neither known nor dispatched links to the UNIQUE known
    method sharing its terminal name), which rank below every other
    resolver.  Closure is an iterative walk bounded by hierarchy depth;
    `dyn_candidates_distributed` is the INHERITS_FROM self-join analog
    (SURVEY.md §2.4)."""
    parents: dict[str, list[str]] = {}
    children: dict[str, list[str]] = {}
    for fqn, tfl in zip(
        type_decls.column("full_name").to_pylist(),
        type_decls.column("type_full_name").to_pylist(),
    ):
        if not tfl or tfl.startswith("alias:"):
            continue
        ps = [p for p in tfl.split(";") if p]
        parents[fqn] = ps
        for p in ps:
            children.setdefault(p, []).append(fqn)

    def subclasses(t: str) -> list[str]:
        out: list[str] = []
        frontier = [t]
        for _ in range(max_depth):
            nxt: list[str] = []
            for c in frontier:
                for s in children.get(c, ()):
                    if s not in out:
                        out.append(s)
                        nxt.append(s)
            if not nxt:
                break
            frontier = nxt
        return out

    dyn: dict[str, list[str]] = {}
    for fqn in call_fqns:
        if "." not in fqn or fqn.startswith("<operator>"):
            continue
        t, m = fqn.rsplit(".", 1)
        if t not in parents and t not in children and f"{t}.{m}" not in known:
            continue
        cands: list[str] = []
        if fqn in known:
            cands.append(fqn)
        else:
            # superclass fallback: nearest ancestor defining m
            cur, hops = t, 0
            while hops < max_depth:
                ps = parents.get(cur, [])
                if not ps:
                    break
                cur = ps[0]
                hops += 1
                cand = f"{cur}.{m}"
                if cand in known:
                    cands.append(cand)
                    break
        for s in sorted(subclasses(t)):
            cand = f"{s}.{m}"
            if cand in known and cand not in cands:
                cands.append(cand)
        if len(cands) > (1 if fqn in known else 0):
            dyn[fqn] = cands
        elif cands and fqn not in known:
            dyn[fqn] = cands  # pure superclass-fallback resolution

    by_name: dict[str, list[str]] = {}
    for f in known:
        by_name.setdefault(f.rsplit(".", 1)[-1], []).append(f)
    naive: dict[str, list[str]] = {}
    for fqn in call_fqns:
        if fqn in known or fqn in dyn or "." not in fqn or fqn.startswith("<operator>"):
            continue
        cands = by_name.get(fqn.rsplit(".", 1)[-1])
        if cands and len(cands) == 1:
            naive[fqn] = cands
    return dyn, naive


def _dedup_pairs(ds, keys, num_buckets: int):
    """Distinct rows by `keys` (vectorized bucketed dedup)."""
    from ..util import bucketed_group_agg

    cnt = f"{keys[0]}_count"
    return bucketed_group_agg(
        ds, list(keys), [(keys[0], "count")], num_buckets=num_buckets
    ).map_batches(lambda b, c=cnt, k=list(keys): b.select(k), batch_format="pyarrow")


def dyn_candidates_distributed(
    td_ds,
    calls_ds,
    methods_ds,
    *,
    num_partitions: int,
    max_depth: int = 16,
) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
    """Distributed SAFEDISPATCH candidate construction — the over-gate
    regime of `build_dyn_candidates` (reference `DynamicCallLinker.scala:
    29-221`; SURVEY.md §2.4 row 3's iterative INHERITS_FROM self-join).

    Inputs are Datasets: `td_ds` (full_name, type_full_name) TYPE_DECL
    inheritance rows; `calls_ds` (fqn) distinct call fqns; `methods_ds`
    (fqn) distinct known method fqns.  Nothing of O(methods+calls) ever
    reaches the driver: the hierarchy closure is a doubling self-join
    (log2(max_depth) rounds of Dataset.join + vectorized bucketed
    dedup), candidate generation and the known-method membership checks
    are joins, and the NaiveCallLinker unique-name fallback is a
    bucketed group-count.  Only the RESULT — (call fqn, candidate fqn,
    rank) pairs for calls that actually participate in dynamic dispatch,
    O(dyn pairs), orders of magnitude below O(distinct fqns) — is
    collected, because both link regimes consume the candidate map as a
    broadcast side.  Returns `build_dyn_candidates`' two maps, from
    (fqn, cand, rank) rows with rank 0=self, 1=superclass fallback,
    2=subclass override (the SAFEDISPATCH map) and 3=naive unique-name
    (the NaiveCallLinker map); parity is asserted by
    tests/test_dynlink_distributed.py.  `num_partitions` is the
    exchange width (`io.checkpoint.exchange_width`)."""
    import math

    import polars as pl

    from ..util import bucketed_join

    nb = num_partitions

    def _unlarge(t: pa.Table) -> pa.Table:
        # polars .to_arrow() emits large_string; Dataset.join requires
        # key dtypes to MATCH across sides — normalize to string
        fields = [
            pa.field(f.name, pa.string() if f.type == pa.large_string() else f.type)
            for f in t.schema
        ]
        return t.cast(pa.schema(fields))

    def _pl(fn):
        def inner(b: pa.Table) -> pa.Table:
            out = fn(pl.from_arrow(b))
            return _unlarge(out.to_arrow())

        return inner

    S, I = pa.string(), pa.int64()

    # ---- parent edge lists (all-parents P; first-parent chain P0) -----
    def explode_parents(b: pa.Table) -> pa.Table:
        df = pl.from_arrow(b).filter(
            ~pl.col("type_full_name").str.starts_with("alias:")
        )
        out = (
            df.with_columns(pl.col("type_full_name").str.split(";").alias("ps"))
            .explode("ps")
            .filter(pl.col("ps") != "")
            .select(
                pl.col("ps").alias("anc"), pl.col("full_name").alias("desc")
            )
        )
        return _unlarge(out.to_arrow())

    def first_parent(b: pa.Table) -> pa.Table:
        df = pl.from_arrow(b).filter(
            ~pl.col("type_full_name").str.starts_with("alias:")
        )
        out = (
            df.with_columns(
                pl.col("type_full_name")
                .str.split(";")
                .list.eval(pl.element().filter(pl.element() != ""))
                .list.first()
                .alias("canc")
            )
            .filter(pl.col("canc").is_not_null())
            .select(
                pl.col("full_name").alias("ct"),
                pl.col("canc"),
                pl.lit(1, dtype=pl.Int64).alias("dist"),
            )
        )
        return _unlarge(out.to_arrow())

    # ---- call split (fqn -> receiver type t + terminal m) -------------
    def split_calls(b: pa.Table) -> pa.Table:
        df = pl.from_arrow(b).filter(
            pl.col("fqn").str.contains(".", literal=True)
            & ~pl.col("fqn").str.starts_with("<operator>")
        )
        out = df.with_columns(
            pl.col("fqn").str.extract(r"^(.*)\.([^.]*)$", 1).alias("t"),
            pl.col("fqn").str.extract(r"^(.*)\.([^.]*)$", 2).alias("m"),
        ).filter(pl.col("t").is_not_null())
        return _unlarge(out.to_arrow())

    calls = calls_ds.map_batches(split_calls, batch_format="pyarrow").materialize()
    meth = methods_ds.map_batches(
        _pl(lambda df: df.select(pl.col("fqn").alias("mfqn"))),
        batch_format="pyarrow",
    ).materialize()
    # no dotted calls or no known methods -> nothing can resolve; empty
    # intermediate datasets also produce schema-less join blocks that
    # crash downstream joins (dedup.py gotcha), so short-circuit early
    if calls.count() == 0 or meth.count() == 0:
        return {}, {}

    P = td_ds.map_batches(explode_parents, batch_format="pyarrow").materialize()
    rounds = max(1, math.ceil(math.log2(max_depth)))
    has_hier = P.count() > 0

    # ---- descendant closure D(anc, desc), depth <= 2^rounds -----------
    D = P
    for _ in range(rounds if has_hier else 0):
        before = D.count()
        right = D.map_batches(
            _pl(lambda df: df.rename({"anc": "r_anc", "desc": "r_desc"})),
            batch_format="pyarrow",
        )
        step = (
            bucketed_join(
                D,
                [("anc", S), ("desc", S)],
                right,
                [("r_anc", S), ("r_desc", S)],
                on=["desc"],
                right_on=["r_anc"],
                num_buckets=nb,
            )
            .map_batches(
                _pl(lambda df: df.select(pl.col("anc"), pl.col("r_desc").alias("desc"))),
                batch_format="pyarrow",
            )
        )
        D = _dedup_pairs(D.union(step), ("anc", "desc"), nb).materialize()
        if D.count() == before:
            break

    # ---- first-parent chain C(ct, canc, dist), dist <= 2^rounds -------
    C = td_ds.map_batches(first_parent, batch_format="pyarrow").materialize()
    has_chain = C.count() > 0
    for _ in range(rounds if has_chain else 0):
        before = C.count()
        right = C.map_batches(
            _pl(
                lambda df: df.select(
                    pl.col("ct").alias("r_ct"),
                    pl.col("canc").alias("r_canc"),
                    pl.col("dist").alias("r_dist"),
                )
            ),
            batch_format="pyarrow",
        )
        step = (
            bucketed_join(
                C,
                [("ct", S), ("canc", S), ("dist", I)],
                right,
                [("r_ct", S), ("r_canc", S), ("r_dist", I)],
                on=["canc"],
                right_on=["r_ct"],
                num_buckets=nb,
            )
            .map_batches(
                _pl(
                    lambda df: df.select(
                        pl.col("ct"),
                        pl.col("r_canc").alias("canc"),
                        (pl.col("dist") + pl.col("r_dist")).alias("dist"),
                    )
                ),
                batch_format="pyarrow",
            )
        )
        from ..util import bucketed_group_agg

        C = (
            bucketed_group_agg(
                C.union(step), ["ct", "canc"], [("dist", "min")], num_buckets=nb
            )
            .map_batches(
                _pl(lambda df: df.rename({"dist_min": "dist"})),
                batch_format="pyarrow",
            )
            .materialize()
        )
        if C.count() == before:
            break

    def _rank_col(ds, rank: int):
        return ds.map_batches(
            _pl(lambda df, r=rank: df.with_columns(pl.lit(r, dtype=pl.Int64).alias("rank"))),
            batch_format="pyarrow",
        )

    # rank 0: the call fqn itself is a known method
    selfc = (
        bucketed_join(
            calls,
            [("fqn", S), ("t", S), ("m", S)],
            meth,
            [("mfqn", S)],
            on=["fqn"],
            right_on=["mfqn"],
            num_buckets=nb,
        )
        .map_batches(
            _pl(lambda df: df.select(pl.col("fqn"), pl.col("fqn").alias("cand"))),
            batch_format="pyarrow",
        )
    )

    # rank 2: subclass overrides — calls x descendant closure x known
    subc = None
    if has_hier and D.count() > 0:
        subc = (
            bucketed_join(
                calls,
                [("fqn", S), ("t", S), ("m", S)],
                D,
                [("anc", S), ("desc", S)],
                on=["t"],
                right_on=["anc"],
                num_buckets=nb,
            )
            .map_batches(
                _pl(
                    lambda df: df.select(
                        pl.col("fqn"),
                        (pl.col("desc") + pl.lit(".") + pl.col("m")).alias("cand"),
                    )
                ),
                batch_format="pyarrow",
            )
        )
        subc = (
            bucketed_join(
                subc,
                [("fqn", S), ("cand", S)],
                meth,
                [("mfqn", S)],
                on=["cand"],
                right_on=["mfqn"],
                num_buckets=nb,
            )
            .map_batches(
                _pl(lambda df: df.select(pl.col("fqn"), pl.col("cand"))),
                batch_format="pyarrow",
            )
        )

    # unknown calls (left-anti via left_outer + marker-null filter; the
    # join output drops the right KEY column, so a non-key marker column
    # carries match evidence)
    meth_marked = meth.map_batches(
        _pl(lambda df: df.with_columns(pl.lit(1, dtype=pl.Int64).alias("is_m"))),
        batch_format="pyarrow",
    )
    unknown = (
        bucketed_join(
            calls,
            [("fqn", S), ("t", S), ("m", S)],
            meth_marked,
            [("mfqn", S), ("is_m", I)],
            on=["fqn"],
            right_on=["mfqn"],
            how="left_outer",
            num_buckets=nb,
        )
        .map_batches(
            _pl(
                lambda df: df.filter(pl.col("is_m").is_null()).select(
                    pl.col("fqn"), pl.col("t"), pl.col("m")
                )
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )

    n_unknown = unknown.count()
    from ..util import bucketed_group_agg

    # rank 1: nearest first-parent-chain ancestor defining m
    fallb = None
    if has_chain and n_unknown:
        fall_rows = (
            bucketed_join(
                unknown,
                [("fqn", S), ("t", S), ("m", S)],
                C,
                [("ct", S), ("canc", S), ("dist", I)],
                on=["t"],
                right_on=["ct"],
                num_buckets=nb,
            )
            .map_batches(
                _pl(
                    lambda df: df.select(
                        pl.col("fqn"),
                        (pl.col("canc") + pl.lit(".") + pl.col("m")).alias("cand"),
                        pl.col("dist"),
                    )
                ),
                batch_format="pyarrow",
            )
        )
        fall_rows = bucketed_join(
            fall_rows,
            [("fqn", S), ("cand", S), ("dist", I)],
            meth,
            [("mfqn", S)],
            on=["cand"],
            right_on=["mfqn"],
            num_buckets=nb,
        ).materialize()
        if fall_rows.count():
            nearest = (
                bucketed_group_agg(
                    fall_rows, ["fqn"], [("dist", "min")], num_buckets=nb
                )
                .map_batches(
                    _pl(lambda df: df.rename({"dist_min": "dist"})),
                    batch_format="pyarrow",
                )
            )
            fallb = (
                bucketed_join(
                    fall_rows.map_batches(
                        _pl(
                            lambda df: df.rename({"fqn": "f_fqn", "dist": "f_dist"})
                        ),
                        batch_format="pyarrow",
                    ),
                    [("f_fqn", S), ("cand", S), ("f_dist", I)],
                    nearest,
                    [("fqn", S), ("dist", I)],
                    on=["f_fqn", "f_dist"],
                    right_on=["fqn", "dist"],
                    num_buckets=nb,
                )
                .map_batches(
                    _pl(
                        lambda df: df.select(
                            pl.col("f_fqn").alias("fqn"), pl.col("cand")
                        )
                    ),
                    batch_format="pyarrow",
                )
            )

    # combine + emission rule: drop fqns whose ONLY row is the self row
    cand_union = _rank_col(selfc, 0)
    if fallb is not None:
        cand_union = cand_union.union(_rank_col(fallb, 1))
    if subc is not None:
        cand_union = cand_union.union(_rank_col(subc, 2))
    all_c = _dedup_pairs(cand_union, ("fqn", "cand", "rank"), nb).materialize()
    dyn_rows = None
    if all_c.count():
        stats = (
            bucketed_group_agg(
                all_c, ["fqn"], [("cand", "count"), ("rank", "min")], num_buckets=nb
            )
            .map_batches(
                _pl(
                    lambda df: df.filter(
                        ~((pl.col("cand_count") == 1) & (pl.col("rank_min") == 0))
                    ).select(pl.col("fqn").alias("k_fqn"))
                ),
                batch_format="pyarrow",
            )
        )
        dyn_rows = bucketed_join(
            all_c,
            [("fqn", S), ("cand", S), ("rank", I)],
            stats,
            [("k_fqn", S)],
            on=["fqn"],
            right_on=["k_fqn"],
            num_buckets=nb,
        ).materialize()
        if dyn_rows.count() == 0:
            dyn_rows = None

    # rank 3: NaiveCallLinker — unresolved dotted call links to the
    # UNIQUE known method sharing its terminal name
    uniq_names = (
        bucketed_group_agg(
            meth.map_batches(
                _pl(
                    lambda df: df.with_columns(
                        pl.col("mfqn")
                        .str.extract(r"(?:^|\.)([^.]*)$", 1)
                        .alias("mname")
                    )
                ),
                batch_format="pyarrow",
            ),
            ["mname"],
            [("mfqn", "count"), ("mfqn", "min")],
            num_buckets=nb,
        )
        .map_batches(
            _pl(
                lambda df: df.filter(pl.col("mfqn_count") == 1).select(
                    pl.col("mname"), pl.col("mfqn_min").alias("cand")
                )
            ),
            batch_format="pyarrow",
        )
    )
    naive = None
    if n_unknown:
        naive_src = unknown
        if dyn_rows is not None:
            dyn_keys = _dedup_pairs(
                dyn_rows.map_batches(
                    _pl(lambda df: df.select(pl.col("fqn").alias("d_fqn"))),
                    batch_format="pyarrow",
                ),
                ("d_fqn",),
                nb,
            ).map_batches(
                _pl(
                    lambda df: df.with_columns(
                        pl.lit(1, dtype=pl.Int64).alias("is_d")
                    )
                ),
                batch_format="pyarrow",
            )
            naive_src = bucketed_join(
                unknown,
                [("fqn", S), ("t", S), ("m", S)],
                dyn_keys,
                [("d_fqn", S), ("is_d", I)],
                on=["fqn"],
                right_on=["d_fqn"],
                how="left_outer",
                num_buckets=nb,
            ).map_batches(
                _pl(
                    lambda df: df.filter(pl.col("is_d").is_null()).select(
                        pl.col("fqn"), pl.col("t"), pl.col("m")
                    )
                ),
                batch_format="pyarrow",
            )
        naive = (
            bucketed_join(
                naive_src,
                [("fqn", S), ("t", S), ("m", S)],
                uniq_names,
                [("mname", S), ("cand", S)],
                on=["m"],
                right_on=["mname"],
                num_buckets=nb,
            )
            .map_batches(
                _pl(
                    lambda df: df.select(
                        pl.col("fqn"),
                        pl.col("cand"),
                        pl.lit(3, dtype=pl.Int64).alias("rank"),
                    )
                ),
                batch_format="pyarrow",
            )
        )

    final = dyn_rows
    if naive is not None:
        final = naive if final is None else final.union(naive)
    rows = []
    if final is not None:
        for b in final.iter_batches(batch_format="pyarrow", batch_size=None):
            rows += zip(
                b.column("fqn").to_pylist(),
                b.column("rank").to_pylist(),
                b.column("cand").to_pylist(),
            )
    # fqn -> ordered candidate list: self / fallback first, then sorted
    # subclass overrides (the `build_dyn_candidates` order)
    dyn: dict[str, list[str]] = {}
    naive_map: dict[str, list[str]] = {}
    for fqn, rank, cand in sorted(rows):
        lst = (naive_map if rank == 3 else dyn).setdefault(fqn, [])
        if cand not in lst:
            lst.append(cand)
    return dyn, naive_map


def ast_link_cross_fragment(
    canon_ds_factory, td_dup_fqns: frozenset, canon_td_ids: dict, num_buckets: int = 32
):
    """Cross-fragment AstLinkerPass analog (reference
    `x2cpg/.../base/AstLinkerPass.scala:10-62`: METHOD/TYPE_DECL/MEMBER
    whose astParentFullName names a parent declared elsewhere get the
    AST edge there).

    Our parse stage AST-links every child to its fragment-LOCAL parent;
    the cross-fragment case is exactly the children of TYPE_DECLs that
    `FullNameUniquenessPass` RENAMED (`C<duplicate>k`) — a class
    reopened/extended across documents.  Those children re-link to the
    canonical `C` so the graph has ONE AST tree per class name, not a
    forest.

    Fully distributed: children (parent fqn derived from the
    `full_name = parent.name` convention every frontend uses) join the
    renamed-duplicate TYPE_DECL rows on (url, fragment_idx, parent_fqn)
    via `bucketed_join` — both sides are O(occurrences of duplicated
    class names), far too big to collect at web scale.  Only the
    canonical-id map (one entry per DISTINCT duplicated class name,
    same order as the dup-fqn set the canonicalize stage already
    broadcasts) ships to workers.

    Returns a Dataset of EDGES_SCHEMA rows (canonical_td_id, AST, child).

    ONE streaming execution (scan → side-tagged map → bucket groupby →
    in-group hash semi-join → edge rows): the first cut (two scans +
    bucketed_join + write = 4 executions) measured 5.1 s at sf0.1 — all
    launch floors, the data is small.
    """
    import numpy as np
    import ray

    dup_arr = pa.array(sorted(td_dup_fqns), pa.string())
    canon_ref = ray.put(canon_td_ids)
    num_buckets = int(num_buckets)

    _UNION = pa.schema(
        [
            pa.field("side", pa.int8()),  # 0 = child row, 1 = dup-td row
            pa.field("key", pa.uint64()),  # hash(url, frag, parent)
            pa.field("c_parent", pa.string()),
            pa.field("c_id", pa.uint64()),
            pa.field("bkt", pa.int64()),
        ]
    )

    def _key(url_a: pa.Array, frag_a: pa.Array, par_a: pa.Array) -> np.ndarray:
        # imported in the UDF: only workers need polars, and on the
        # driver it would add ~20 MB to the build's peak RSS
        import polars as pl

        h = None
        for col in (url_a, par_a):
            kh = pl.from_arrow(col).hash(seed=11).to_numpy()
            h = kh if h is None else (h * np.uint64(0x9E3779B97F4A7C15)) ^ kh
        fr = frag_a.to_numpy(zero_copy_only=False).astype(np.uint64)
        return (h * np.uint64(0x9E3779B97F4A7C15)) ^ fr

    def _tag(b: pa.Table) -> pa.Table:
        lab = b.column("label")
        parts: list[pa.Table] = []
        # children: METHOD/MEMBER/TYPE_DECL whose derived parent is a
        # duplicated class name (strip a canonicalization rename suffix,
        # then the `<parent>.<name>` convention; vectorized regex —
        # non-dotted names extract null and drop out in the filter)
        cb = b.filter(
            pc.is_in(lab, value_set=pa.array(["METHOD", "MEMBER", "TYPE_DECL"]))
        )
        if cb.num_rows:
            fn = pc.coalesce(cb.column("full_name"), pa.scalar("")).combine_chunks()
            nm = pc.coalesce(cb.column("name"), pa.scalar("")).combine_chunks()
            base = pc.replace_substring_regex(fn, r"<duplicate>\d+$", "")
            ex = pc.extract_regex(base, r"^(?P<par>.+)\.(?P<last>[^.]+)$")
            par = pc.struct_field(ex, 0)
            last = pc.struct_field(ex, 1)
            keep = pc.and_(pc.equal(last, nm), pc.is_in(par, value_set=dup_arr))
            kept = cb.append_column("c_parent", par).filter(keep)
            if kept.num_rows:
                key = _key(
                    kept.column("url").combine_chunks().cast(pa.string()),
                    kept.column("fragment_idx").combine_chunks().cast(pa.int64()),
                    kept.column("c_parent").combine_chunks().cast(pa.string()),
                )
                parts.append(
                    pa.table(
                        {
                            "side": pa.array(np.zeros(kept.num_rows, np.int8), pa.int8()),
                            "key": pa.array(key, pa.uint64()),
                            "c_parent": kept.column("c_parent").combine_chunks().cast(pa.string()),
                            "c_id": kept.column("id").combine_chunks().cast(pa.uint64()),
                            "bkt": pa.array(
                                (key % np.uint64(num_buckets)).astype(np.int64),
                                pa.int64(),
                            ),
                        },
                        schema=_UNION,
                    )
                )
        # dup-td marker rows: renamed TYPE_DECLs, keyed by (url, frag,
        # base name)
        db = b.filter(
            pc.and_(
                pc.equal(lab, "TYPE_DECL"),
                pc.match_substring(
                    pc.coalesce(b.column("full_name"), pa.scalar("")), "<duplicate>"
                ),
            )
        )
        if db.num_rows:
            dbase = pc.replace_substring_regex(
                pc.coalesce(db.column("full_name"), pa.scalar("")).combine_chunks(),
                r"<duplicate>\d+$",
                "",
            )
            dbase = dbase.combine_chunks() if isinstance(dbase, pa.ChunkedArray) else dbase
            dkey = _key(
                db.column("url").combine_chunks().cast(pa.string()),
                db.column("fragment_idx").combine_chunks().cast(pa.int64()),
                dbase.cast(pa.string()),
            )
            parts.append(
                pa.table(
                    {
                        "side": pa.array(np.ones(db.num_rows, np.int8), pa.int8()),
                        "key": pa.array(dkey, pa.uint64()),
                        "c_parent": dbase.cast(pa.string()),
                        "c_id": pa.nulls(db.num_rows, pa.uint64()),
                        "bkt": pa.array(
                            (dkey % np.uint64(num_buckets)).astype(np.int64),
                            pa.int64(),
                        ),
                    },
                    schema=_UNION,
                )
            )
        if not parts:
            return _UNION.empty_table()
        return pa.concat_tables(parts)

    def _join_emit(g: pa.Table) -> pa.Table:
        dmask = pc.equal(g.column("side"), 1)
        dup_keys = pc.unique(g.filter(dmask).column("key").combine_chunks())
        if len(dup_keys) == 0:
            return EDGES_SCHEMA.empty_table()
        ch = g.filter(pc.invert(dmask))
        ch = ch.filter(pc.is_in(ch.column("key"), value_set=dup_keys))
        if ch.num_rows == 0:
            return EDGES_SCHEMA.empty_table()
        cm = worker_get(canon_ref)
        # scatter the canonical ids per DISTINCT parent name
        d = pc.dictionary_encode(ch.column("c_parent").combine_chunks())
        uniq_ids = np.array(
            [cm.get(u, 0) for u in d.dictionary.to_pylist()], dtype=np.uint64
        )
        subj = uniq_ids[d.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
        ok = subj != 0
        obj = ch.column("c_id").combine_chunks().to_numpy(zero_copy_only=False)[ok]
        n = int(ok.sum())
        return pa.table(
            {
                "subj": pa.array(subj[ok], pa.uint64()),
                "pred": pa.array(["AST"] * n, pa.string()),
                "obj": pa.array(obj, pa.uint64()),
                "variable": pa.nulls(n, pa.string()),
            },
            schema=EDGES_SCHEMA,
        )

    return (
        canon_ds_factory()
        .map_batches(_tag, batch_format="pyarrow")
        .groupby("bkt")
        .map_groups(_join_emit, batch_format="pyarrow")
    )


_HINT_FACT_SCHEMA = pa.schema(
    [
        pa.field("id", pa.uint64()),
        pa.field("label", pa.string()),
        pa.field("method_full_name", pa.string()),
    ]
)


def hint_fact_rows(batch: pa.Table) -> pa.Table:
    """Explode multi-hint CALL rows into synthetic call-fact rows
    (id = call id, label = CALL, method_full_name = hint fqn).

    This is XTypeHintCallLinker's explode→join→anti-join
    (`XTypeHintCallLinker.scala:38-79`) expressed as EXTRA ROWS through
    the unchanged call-resolution machinery: in the broadcast regime the
    rows run through CallLinker (index hit → CALL edge to the method,
    miss → CALL edge to the deterministic stub id); in the salted-shuffle
    regime they are additional fact rows in the same join.  Hints are
    rare (only ambiguous multi-typed receivers), so the python loop over
    list cells is off the hot path."""
    if "dynamic_type_hint_full_name" not in batch.column_names:
        return _HINT_FACT_SCHEMA.empty_table()
    hcol = batch.column("dynamic_type_hint_full_name")
    if hcol.null_count == len(hcol):
        return _HINT_FACT_SCHEMA.empty_table()
    rows = batch.filter(
        pc.and_(pc.equal(batch.column("label"), "CALL"), hcol.is_valid())
    )
    if rows.num_rows == 0:
        return _HINT_FACT_SCHEMA.empty_table()
    ids: list[int] = []
    fqns: list[str] = []
    for nid, hl in zip(
        rows.column("id").to_pylist(),
        rows.column("dynamic_type_hint_full_name").to_pylist(),
    ):
        for h in hl or []:
            if h:
                ids.append(nid)
                fqns.append(h)
    return pa.table(
        {
            "id": pa.array(ids, pa.uint64()),
            "label": pa.array(["CALL"] * len(ids), pa.string()),
            "method_full_name": pa.array(fqns, pa.string()),
        },
        schema=_HINT_FACT_SCHEMA,
    )


class CombinedLinker(CallLinker):
    """Fused per-batch linker: CALL/METHOD_REF resolution (CallLinker)
    + all map-side dimension links (mapside_link_edges) in ONE scan of
    the node stream — halves the Parquet scans feeding the edge write.

    Resolved CALLs/REFs also get an EVAL_TYPE edge to their callee's
    return type — the cross-document half of type recovery (reference
    `XTypeRecovery` propagates types in 2 fixed iterations,
    `x2cpg/.../frontend/XTypeRecovery.scala:25,94-111`; the per-unit
    SymbolTable half runs inside the parser)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        calls = batch.filter(
            pc.is_in(batch.column("label"), value_set=pa.array(["CALL", "METHOD_REF"]))
        )
        # multi-hint calls contribute one synthetic fact row per hint
        # (XTypeHintCallLinker; same rows the shuffle regime joins on)
        hint_rows = hint_fact_rows(batch)
        if hint_rows.num_rows:
            calls = pa.concat_tables(
                [calls.select(_HINT_FACT_SCHEMA.names), hint_rows],
                promote_options="default",
            )
        facc_edges = self._field_access_edges(batch)
        call_edges = (
            CallLinker.__call__(self, calls)
            if calls.num_rows
            else EDGES_SCHEMA.empty_table()
        )
        parts = [call_edges, mapside_link_edges(batch)]
        if facc_edges is not None:
            parts.append(facc_edges)
        if self.ret_types and calls.num_rows:
            import numpy as np

            d = pc.dictionary_encode(
                pc.coalesce(calls.column("method_full_name"), pa.scalar("")).combine_chunks()
            )
            uniq = d.dictionary.to_pylist()
            rt = [self.ret_types.get(u) for u in uniq]
            tid = np.array(
                [type_id(r) if r else 0 for r in rt], dtype=np.uint64
            )
            obj = tid[d.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
            keep = obj != 0
            if keep.any():
                subj = calls.column("id").combine_chunks().cast(pa.uint64()).to_numpy(zero_copy_only=False)[keep]
                n = int(keep.sum())
                parts.append(
                    pa.table(
                        {
                            "subj": pa.array(subj, pa.uint64()),
                            "pred": pa.array(["EVAL_TYPE"] * n, pa.string()),
                            "obj": pa.array(obj[keep], pa.uint64()),
                            "variable": pa.nulls(n, pa.string()),
                        },
                        schema=EDGES_SCHEMA,
                    )
                )
        return pa.concat_tables(parts)


    def _field_access_edges(self, batch: pa.Table) -> "pa.Table | None":
        """fieldAccess calls carrying a Type.field probe in full_name ->
        REF edge to the canonical MEMBER on index hit (misses drop, the
        reference logs-and-drops the same way)."""
        if not self.member_index or "full_name" not in batch.column_names:
            return None
        fn_col = pc.coalesce(batch.column("full_name"), pa.scalar(""))
        m = pc.and_(
            pc.and_(
                pc.equal(batch.column("label"), "CALL"),
                pc.not_equal(fn_col, ""),
            ),
            pc.starts_with(
                pc.coalesce(batch.column("method_full_name"), pa.scalar("")),
                "<operator>",
            ),
        )
        fa = batch.filter(m)
        if fa.num_rows == 0:
            return None
        import numpy as np

        d = pc.dictionary_encode(
            pc.coalesce(fa.column("full_name"), pa.scalar("")).combine_chunks()
        )
        uniq = d.dictionary.to_pylist()
        tgt = np.array(
            [self.member_index.get(u, 0) for u in uniq], dtype=np.uint64
        )
        obj = tgt[d.indices.to_numpy(zero_copy_only=False).astype(np.int64)]
        keep = obj != 0
        if not keep.any():
            return None
        subj = (
            fa.column("id")
            .combine_chunks()
            .cast(pa.uint64())
            .to_numpy(zero_copy_only=False)[keep]
        )
        n = int(keep.sum())
        return pa.table(
            {
                "subj": pa.array(subj, pa.uint64()),
                "pred": pa.array(["REF"] * n, pa.string()),
                "obj": pa.array(obj[keep], pa.uint64()),
                "variable": pa.nulls(n, pa.string()),
            },
            schema=EDGES_SCHEMA,
        )


# Per-worker-process memo for task-based broadcast linking: Ray reuses
# worker processes across map_batches tasks, so the (large) fqn->id dict
# is built once per worker from the ray.put table — task scheduling
# (instant full-CPU spread, graceful sharing with concurrent stages)
# with actor-pool amortization.  Single-slot: a new index evicts the old.
_WORKER_LINKER: dict = {}


def combined_linker_fn(index_ref, dyn_ref=None, member_ref=None):
    """Task UDF factory: per-batch CombinedLinker backed by the
    per-worker cache.  The closure carries only ObjectRefs (bytes)."""

    def _fn(batch: pa.Table) -> pa.Table:
        key = index_ref.hex() if hasattr(index_ref, "hex") else str(id(index_ref))
        lk = _WORKER_LINKER.get(key)
        if lk is None:
            _WORKER_LINKER.clear()
            lk = CombinedLinker(index_ref, dyn_ref, member_ref)
            _WORKER_LINKER[key] = lk
        return lk(batch)

    return _fn


# ---------------------------------------------------------------------------
# Method linking: salted-shuffle regime (huge dimension side).
# ---------------------------------------------------------------------------

_SALT_SCHEMA = pa.schema(
    [
        pa.field("key", pa.string()),
        pa.field("side", pa.string()),  # F fact | D dim
        pa.field("nid", pa.uint64()),
        pa.field("lab", pa.string()),  # CALL/METHOD_REF facts; METHOD dims
        pa.field("fqn", pa.string()),
        pa.field("sig", pa.string()),  # dim signature (EVAL_TYPE recovery)
        # fact flag: 0 = plain (stub fallback + EVAL_TYPE); 1 = dyn-dispatch
        # row keyed by a candidate fqn (no stub, no EVAL_TYPE) — mirrors the
        # broadcast CallLinker's primary-vs-extra candidate semantics
        pa.field("fx", pa.int8()),
    ]
)


def salted_call_link(
    facts_ds, methods_ds, hot_keys: set[str], n_salts: int = 16, dyn_fqn_ref=None
):
    """Shuffle join CALL/METHOD_REF ⋈ METHOD on full_name with hot-key
    salting: fact rows get salt = hash(subj) % n_salts for hot keys (0
    otherwise); dimension rows for hot keys are replicated to every salt.
    Group sizes stay bounded no matter how hot `<operator>.assignment` or
    `printf` runs (SURVEY.md §7.3/§7.4-6).

    Full-featured regime parity with the broadcast linker:
    - `dyn_fqn_ref` (ray.put of fqn -> [candidate fqns]) re-keys dynamic
      calls to each SAFEDISPATCH candidate (extra fact rows, fx=1 — no
      stub fallback since candidates are known-present);
    - dims carry their signature, so resolved fx=0 facts additionally get
      the EVAL_TYPE ret-type edge (`XTypeRecovery` cross-doc half).

    Returns a Dataset of CALL/REF (+EVAL_TYPE) edge rows and its block
    count: the join's sort-based groupby emits one block per block of
    its materialized input.
    """
    hot_arr = pa.array(sorted(hot_keys) or ["\x00none"])

    class TagFacts:
        """Fact tagger: dyn map fetched once per worker (via the
        module-level memo when run as tasks); per-batch work is
        vectorized for the plain majority, python loop only over the few
        dynamic-dispatch rows."""

        def __init__(self) -> None:
            import ray

            self.dyn = (
                ray.get(dyn_fqn_ref)
                if dyn_fqn_ref is not None and not isinstance(dyn_fqn_ref, dict)
                else (dyn_fqn_ref or {})
            )
            self.dyn_keys = (
                pa.array(sorted(self.dyn.keys())) if self.dyn else None
            )

        def __call__(self, batch: pa.Table) -> pa.Table:
            import numpy as np
            import polars as pl

            m = pc.and_(
                pc.is_in(
                    batch.column("label"), value_set=pa.array(["CALL", "METHOD_REF"])
                ),
                pc.not_equal(
                    pc.coalesce(batch.column("method_full_name"), pa.scalar("")), ""
                ),
            )
            b = batch.filter(m)
            if b.num_rows == 0:
                return _SALT_SCHEMA.empty_table()
            fqn = b.column("method_full_name").combine_chunks()
            nid = (
                b.column("id").combine_chunks().to_numpy(zero_copy_only=False)
            ).astype(np.uint64)
            lab = b.column("lab").combine_chunks() if "lab" in b.column_names else b.column("label").combine_chunks()
            if self.dyn_keys is not None:
                dmask = pc.is_in(fqn, value_set=self.dyn_keys).to_numpy(
                    zero_copy_only=False
                )
            else:
                dmask = np.zeros(b.num_rows, dtype=bool)
            plain = ~dmask
            p_fqn = fqn.filter(pa.array(plain))
            p_nid = nid[plain]
            hot_mask = pc.is_in(p_fqn, value_set=hot_arr).to_numpy(zero_copy_only=False)
            salt = np.where(hot_mask, p_nid % np.uint64(n_salts), np.uint64(0))
            df = pl.DataFrame(
                {"fqn": pl.from_arrow(p_fqn), "salt": salt.astype(np.int64)}
            )
            key = df.select(
                (pl.col("fqn") + pl.lit("\x1f") + pl.col("salt").cast(pl.Utf8)).alias(
                    "k"
                )
            )["k"].to_arrow().cast(pa.string())
            keys = [key]
            nids = [pa.array(p_nid, pa.uint64())]
            labs = [lab.filter(pa.array(plain)).cast(pa.string())]
            fqs = [p_fqn.cast(pa.string())]
            fxs = [pa.nulls(0, pa.int8())] if len(key) == 0 else [
                pa.array(np.zeros(len(key), dtype=np.int8), pa.int8())
            ]
            if dmask.any():
                hot = set(hot_keys)
                k2: list[str] = []
                n2: list[int] = []
                l2: list[str] = []
                f2: list[str] = []
                x2: list[int] = []
                d_rows = np.nonzero(dmask)[0]
                d_fqn = fqn.take(pa.array(d_rows)).to_pylist()
                d_lab = lab.take(pa.array(d_rows)).to_pylist()
                for row_i, (fq, lb) in enumerate(zip(d_fqn, d_lab)):
                    this_nid = int(nid[d_rows[row_i]])
                    for cand in self.dyn[fq]:
                        s_ = this_nid % n_salts if cand in hot else 0
                        k2.append(f"{cand}\x1f{s_}")
                        n2.append(this_nid)
                        l2.append(lb)
                        f2.append(fq)
                        # fx=0 only for the row keyed by the call's own fqn
                        # (stub fallback + EVAL_TYPE apply there alone)
                        x2.append(0 if cand == fq else 1)
                keys.append(pa.array(k2, pa.string()))
                nids.append(pa.array(n2, pa.uint64()))
                labs.append(pa.array(l2, pa.string()))
                fqs.append(pa.array(f2, pa.string()))
                fxs.append(pa.array(np.array(x2, dtype=np.int8), pa.int8()))
            # FieldAccessLinkerPass facts: fieldAccess probes keyed by
            # their Type.field full_name (fx=2 -> REF on dim hit, no
            # stub fallback, no EVAL_TYPE; field keys are never hot so
            # salt 0 suffices)
            if "full_name" in batch.column_names:
                fnc = pc.coalesce(batch.column("full_name"), pa.scalar(""))
                fm = pc.and_(
                    pc.and_(
                        pc.equal(batch.column("label"), "CALL"),
                        pc.not_equal(fnc, ""),
                    ),
                    pc.starts_with(
                        pc.coalesce(
                            batch.column("method_full_name"), pa.scalar("")
                        ),
                        "<operator>",
                    ),
                )
                fb_ = batch.filter(fm)
                if fb_.num_rows:
                    f_fqn = fb_.column("full_name").combine_chunks().cast(pa.string())
                    import polars as _pl

                    fkey = (
                        _pl.DataFrame({"f": _pl.from_arrow(f_fqn)})
                        .select((_pl.col("f") + _pl.lit("\x1f0")).alias("k"))["k"]
                        .to_arrow()
                        .cast(pa.string())
                    )
                    keys.append(fkey)
                    nids.append(fb_.column("id").combine_chunks().cast(pa.uint64()))
                    labs.append(pa.array(["FACC"] * fb_.num_rows, pa.string()))
                    fqs.append(f_fqn)
                    fxs.append(
                        pa.array(np.full(fb_.num_rows, 2, dtype=np.int8), pa.int8())
                    )
            n_total = sum(len(k) for k in keys)
            return pa.table(
                {
                    "key": pa.concat_arrays(keys),
                    "side": pa.array(["F"] * n_total, pa.string()),
                    "nid": pa.concat_arrays(nids),
                    "lab": pa.concat_arrays(labs),
                    "fqn": pa.concat_arrays(fqs),
                    "sig": pa.nulls(n_total, pa.string()),
                    "fx": pa.concat_arrays(fxs),
                },
                schema=_SALT_SCHEMA,
            )

    def tag_dims(batch: pa.Table) -> pa.Table:
        """Hot-key dimension rows replicate to every salt (vectorized for
        the cold majority; python loop only over hot dims)."""
        import numpy as np
        import polars as pl

        b = batch.filter(
            pc.and_(
                pc.is_in(
                    batch.column("label"), value_set=pa.array(["METHOD", "MEMBER"])
                ),
                pc.not_equal(
                    pc.coalesce(batch.column("full_name"), pa.scalar("")), ""
                ),
            )
        )
        lab_col = b.column("label").combine_chunks().cast(pa.string())
        fqn = b.column("full_name").combine_chunks()
        sig = pc.coalesce(b.column("signature"), pa.scalar("")).combine_chunks() if "signature" in b.column_names else pa.nulls(b.num_rows, pa.string())
        nid = b.column("id").combine_chunks().to_numpy(zero_copy_only=False)
        hot_mask_arr = pc.is_in(fqn, value_set=hot_arr)
        hm = hot_mask_arr.to_numpy(zero_copy_only=False)
        cold = b.filter(pc.invert(hot_mask_arr))
        cold_fqn = cold.column("full_name").combine_chunks()
        keys = [
            pl.DataFrame({"fqn": pl.from_arrow(cold_fqn)})
            .select((pl.col("fqn") + pl.lit("\x1f0")).alias("k"))["k"]
            .to_arrow()
            .cast(pa.string())
        ]
        nids = [cold.column("id").combine_chunks().cast(pa.uint64())]
        cold_labs = cold.column("label").combine_chunks().cast(pa.string())
        fqs = [cold_fqn.cast(pa.string())]
        sigs = [
            pc.coalesce(cold.column("signature"), pa.scalar("")).combine_chunks().cast(pa.string())
            if "signature" in cold.column_names
            else pa.nulls(cold.num_rows, pa.string())
        ]
        hot_fqn = fqn.to_pylist()
        hot_lab = lab_col.to_pylist()
        hot_sig = sig.to_pylist() if isinstance(sig, (pa.Array, pa.ChunkedArray)) else [""] * len(hot_fqn)
        labs = [cold_labs]
        k2, n2, f2, g2, l2 = [], [], [], [], []
        for i in np.nonzero(hm)[0]:
            for s_ in range(n_salts):
                k2.append(f"{hot_fqn[i]}\x1f{s_}")
                n2.append(int(nid[i]))
                f2.append(hot_fqn[i])
                g2.append(hot_sig[i] or "")
                l2.append(hot_lab[i])
        if k2:
            keys.append(pa.array(k2, pa.string()))
            nids.append(pa.array(n2, pa.uint64()))
            fqs.append(pa.array(f2, pa.string()))
            sigs.append(pa.array(g2, pa.string()))
            labs.append(pa.array(l2, pa.string()))
        key_col = pa.concat_arrays(keys)
        n_total = len(key_col)
        return pa.table(
            {
                "key": key_col,
                "side": pa.array(["D"] * n_total, pa.string()),
                "nid": pa.concat_arrays(nids),
                "lab": pa.concat_arrays(labs),
                "fqn": pa.concat_arrays(fqs),
                "sig": pa.concat_arrays(sigs),
                "fx": pa.array(np.zeros(n_total, dtype=np.int8), pa.int8()),
            },
            schema=_SALT_SCHEMA,
        )

    # plain TASKS with a per-worker TagFacts memo (keyed on the dyn ref):
    # no pinned actor CPUs, so concurrent stages (dims tagging, the Sort)
    # never starve at low CPU counts
    tf_key = (
        dyn_fqn_ref.hex() if hasattr(dyn_fqn_ref, "hex") else str(id(dyn_fqn_ref))
    ) + f"/{n_salts}/{len(hot_keys)}"

    def tag_facts(batch: pa.Table) -> pa.Table:
        tf = _WORKER_LINKER.get(tf_key)
        if tf is None:
            tf = TagFacts()
            _WORKER_LINKER[tf_key] = tf
        return tf(batch)

    facts = facts_ds.map_batches(tag_facts, batch_format="pyarrow")
    dims = methods_ds.map_batches(tag_dims, batch_format="pyarrow")
    # materialize before the groupby: the sort's boundary-sampling pass
    # would otherwise re-execute the tagged upstream a second time
    union = facts.union(dims).materialize()

    def join_group(batch: pa.Table) -> pa.Table:
        """Vectorized per-group emit: min dim id (or stub) to all facts;
        resolved fx=0 facts also get the callee-ret-type EVAL_TYPE edge."""
        import numpy as np

        side = batch.column("side")
        dmask = pc.equal(side, "D")
        fmask = pc.equal(side, "F")
        dims_b = batch.filter(dmask)
        all_facts = batch.filter(fmask)
        if all_facts.num_rows == 0:
            return EDGES_SCHEMA.empty_table()
        parts: list[pa.Table] = []
        # FieldAccessLinkerPass half: FACC facts join MEMBER dims only
        # (REF edge, no stub fallback on miss — reference drops+logs)
        facc_mask = pc.equal(all_facts.column("lab"), "FACC")
        facc_b = all_facts.filter(facc_mask)
        facts_b = all_facts.filter(pc.invert(facc_mask))
        if facc_b.num_rows and dims_b.num_rows:
            mem_d = dims_b.filter(pc.equal(dims_b.column("lab"), "MEMBER"))
            if mem_d.num_rows:
                m_nids = mem_d.column("nid").to_numpy(zero_copy_only=False)
                m_tgt = int(m_nids[int(np.argmin(m_nids))])
                parts.append(
                    pa.table(
                        {
                            "subj": facc_b.column("nid").combine_chunks().cast(pa.uint64()),
                            "pred": pa.array(["REF"] * facc_b.num_rows, pa.string()),
                            "obj": pa.array(
                                np.full(facc_b.num_rows, m_tgt, dtype=np.uint64),
                                pa.uint64(),
                            ),
                            "variable": pa.nulls(facc_b.num_rows, pa.string()),
                        },
                        schema=EDGES_SCHEMA,
                    )
                )
        # method half: calls/method_refs join METHOD dims
        dims_b = dims_b.filter(pc.equal(dims_b.column("lab"), "METHOD"))
        if facts_b.num_rows == 0:
            return (
                pa.concat_tables(parts) if parts else EDGES_SCHEMA.empty_table()
            )
        if dims_b.num_rows:
            nids_d = dims_b.column("nid").to_numpy(zero_copy_only=False)
            j = int(np.argmin(nids_d))
            tgt = int(nids_d[j])
            obj = np.full(facts_b.num_rows, tgt, dtype=np.uint64)
            subj = facts_b.column("nid").combine_chunks().cast(pa.uint64())
            pred = pc.if_else(
                pc.equal(facts_b.column("lab"), "CALL"),
                pa.scalar("CALL"),
                pa.scalar("REF"),
            )
            parts.append(
                pa.table(
                    {
                        "subj": subj,
                        "pred": pred if isinstance(pred, pa.Array) else pred.combine_chunks(),
                        "obj": pa.array(obj, pa.uint64()),
                        "variable": pa.nulls(facts_b.num_rows, pa.string()),
                    },
                    schema=EDGES_SCHEMA,
                )
            )
            ret = _ret_type_of(dims_b.column("sig")[j].as_py())
            if ret:
                ev = facts_b.filter(pc.equal(facts_b.column("fx"), 0))
                if ev.num_rows:
                    tid = type_id(ret)
                    parts.append(
                        pa.table(
                            {
                                "subj": ev.column("nid").combine_chunks().cast(pa.uint64()),
                                "pred": pa.array(["EVAL_TYPE"] * ev.num_rows, pa.string()),
                                "obj": pa.array([tid] * ev.num_rows, pa.uint64()),
                                "variable": pa.nulls(ev.num_rows, pa.string()),
                            },
                            schema=EDGES_SCHEMA,
                        )
                    )
        else:
            # stub fallback applies only to fx=0 rows (dyn candidate rows
            # are known-present; a missing one means the candidate lived
            # in another salt — drop, the fx=0 row covers the call)
            fb = facts_b.filter(pc.equal(facts_b.column("fx"), 0))
            if fb.num_rows == 0:
                return (
                    pa.concat_tables(parts) if parts else EDGES_SCHEMA.empty_table()
                )
            miss_fqn = fb.column("fqn")[0].as_py()
            # regime parity with CallLinker._primary: unresolved `<ret:`
            # sentinels collapse onto the shared <unknownFullName> stub
            if miss_fqn.startswith("<ret:"):
                miss_fqn = "<unknownFullName>"
            obj = np.full(fb.num_rows, stub_id(miss_fqn), dtype=np.uint64)
            pred = pc.if_else(
                pc.equal(fb.column("lab"), "CALL"),
                pa.scalar("CALL"),
                pa.scalar("REF"),
            )
            parts.append(
                pa.table(
                    {
                        "subj": fb.column("nid").combine_chunks().cast(pa.uint64()),
                        "pred": pred if isinstance(pred, pa.Array) else pred.combine_chunks(),
                        "obj": pa.array(obj, pa.uint64()),
                        "variable": pa.nulls(fb.num_rows, pa.string()),
                    },
                    schema=EDGES_SCHEMA,
                )
            )
        return parts[0] if len(parts) == 1 else pa.concat_tables(parts)

    return (
        union.groupby("key").map_groups(join_group, batch_format="pyarrow"),
        union.num_blocks(),
    )

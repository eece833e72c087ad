"""Per-batch survey combiner — the accumulator pattern (reference
`AstCreationPass.scala:27-72`: per-part partial accumulators merged
associatively).

`survey_partial` turns one node batch into tagged partial rows:
  'm'  METHOD full_name counts     (dup detection + broadcast sizing)
  'td' TYPE_DECL full_name counts  (dup detection)
  'mb' MEMBER full_name counts     (dup detection for the canonicalized
       Type.field join keys of FieldAccessLinkerPass)
  'ty' distinct type fqns — the FULL TYPE-dimension key set: value
       type_full_names, ;-exploded TYPE_DECL inherits, alias targets,
       TYPE_DECL full_names and METHOD return types (TypeNodePass union
       semantics, `TypeNodePass.scala:18-60`) — so the TYPE dimension is
       derivable from 'ty' rows ALONE, with no driver-side set union
  'ns' distinct namespace-block names
  'im' distinct IMPORT names (import-resolver module-path join input)
  'ca' CALL/METHOD_REF method_full_name rows carrying THREE partials:
       `sc` = true per-batch call COUNT (value_counts — summed totals are
       real call-site frequencies for the salted join's hot-key
       threshold), `sn`/`sx` = per-batch min/max ARGUMENT counts (the
       MethodStubCreator CallSummary aggregate, reference
       `MethodStubCreator.scala:24-70`; final agg = Sum(sc), Min(sn),
       Max(sx))

The parse stage emits these rows INTO its checkpoint (row_kind=survey);
the link stage aggregates them with ONE distributed groupby (the
`survey_agg` checkpoint) instead of collecting partials to the driver —
the survey control plane scales with the cluster, not the driver."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

SURVEY_SCHEMA = pa.schema(
    [
        pa.field("kind", pa.string()),
        pa.field("key", pa.string()),
        pa.field("c", pa.int64()),
        pa.field("n", pa.int64()),
        pa.field("x", pa.int64()),
    ]
)


def survey_partial(batch: pa.Table, edges: "pa.Table | None" = None) -> pa.Table:
    ks, keys, cs, ns_, xs = [], [], [], [], []

    def emit(kind: str, key: str, c: int, n: int = 0, x: int = 0) -> None:
        ks.append(kind)
        keys.append(key)
        cs.append(c)
        ns_.append(n)
        xs.append(x)

    labels = batch.column("label")
    # per-call-fqn min/max ARGUMENT counts (from this batch's edges)
    mm: dict[str, list[int]] = {}
    n_by_subj: dict[int, int] = {}
    if edges is not None and edges.num_rows:
        argvc = (
            edges.filter(pc.equal(edges.column("pred"), "ARGUMENT"))
            .column("subj")
            .value_counts()
        )
        n_by_subj = dict(
            zip(argvc.field("values").to_pylist(), argvc.field("counts").to_pylist())
        )
        call_rows = batch.filter(pc.equal(labels, "CALL"))
        for nid, fqn in zip(
            call_rows.column("id").to_pylist(),
            call_rows.column("method_full_name").to_pylist(),
        ):
            if not fqn:
                continue
            n = int(n_by_subj.get(nid, 0))
            cur = mm.get(fqn)
            if cur is None:
                mm[fqn] = [n, n]
            else:
                if n < cur[0]:
                    cur[0] = n
                if n > cur[1]:
                    cur[1] = n
    for kind, lab in (("m", "METHOD"), ("td", "TYPE_DECL"), ("mb", "MEMBER")):
        vc = batch.filter(pc.equal(labels, lab)).column("full_name").value_counts()
        for v, c in zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()):
            if v:
                emit(kind, v, c)
    # ---- 'ty': the complete TYPE-dimension key set ----------------------
    tfn = pc.coalesce(batch.column("type_full_name"), pa.scalar(""))
    nonempty = batch.filter(pc.not_equal(tfn, ""))
    td_mask = pc.equal(nonempty.column("label"), "TYPE_DECL")
    tvals: set = set(
        pc.unique(nonempty.filter(pc.invert(td_mask)).column("type_full_name")).to_pylist()
    )
    for v in pc.unique(nonempty.filter(td_mask).column("type_full_name")).to_pylist():
        tvals.update(p for p in v.split(";") if p)
    # typedef alias targets (signature "alias:T" on TYPE_DECL)
    sig = pc.coalesce(batch.column("signature"), pa.scalar(""))
    alias_sigs = batch.filter(
        pc.and_(pc.equal(labels, "TYPE_DECL"), pc.starts_with(sig, "alias:"))
    ).column("signature")
    for v in pc.unique(alias_sigs).to_pylist():
        if v and len(v) > 6:
            tvals.add(v[6:])
    # TYPE_DECL full_names themselves (TypeNodePass unions declared types)
    tvals.update(
        v
        for v in pc.unique(
            batch.filter(pc.equal(labels, "TYPE_DECL")).column("full_name")
        ).to_pylist()
        if v
    )
    # METHOD return types off "ret(args)" signatures (type recovery's
    # EVAL_TYPE edges need their TYPE endpoint in the dimension)
    msig = batch.filter(pc.equal(labels, "METHOD")).column("signature")
    for s in pc.unique(msig).to_pylist():
        if s and "(" in s:
            r = s.split("(")[0]
            if r and r != "ANY":
                tvals.add(r)
    # sorted: set order follows the worker's string-hash seed, and the
    # survey rows are written to the parse checkpoint as they come
    for v in sorted(filter(None, tvals)):
        emit("ty", v, 1)
    for v in pc.unique(
        batch.filter(pc.equal(labels, "NAMESPACE_BLOCK")).column("name")
    ).to_pylist():
        if v:
            emit("ns", v, 1)
    # 'im': distinct IMPORT names (module-path resolver input — makes
    # the import scan a survey column instead of a full node-split pass)
    for v in pc.unique(
        batch.filter(pc.equal(labels, "IMPORT")).column("name")
    ).to_pylist():
        if v:
            emit("im", v, 1)
    calls = batch.filter(
        pc.is_in(labels, value_set=pa.array(["CALL", "METHOD_REF"]))
    ).column("method_full_name")
    cvc = calls.value_counts()
    for v, c in zip(cvc.field("values").to_pylist(), cvc.field("counts").to_pylist()):
        if v:
            lo, hi = mm.get(v, (0, 0))
            emit("ca", v, c, lo, hi)
    # 'th': recovered-type hint fqns on ambiguous multi-hint CALLs
    # (XTypeHintCallLinker input; unmatched hints become METHOD stubs
    # under <speculatedMethods>, `XTypeHintCallLinker.scala:107-123`)
    if "dynamic_type_hint_full_name" in batch.column_names:
        hcol = batch.column("dynamic_type_hint_full_name")
        if hcol.null_count < len(hcol):
            hrows = batch.filter(pc.and_(pc.equal(labels, "CALL"), hcol.is_valid()))
            hmm: dict[str, list[int]] = {}
            for nid, hl in zip(
                hrows.column("id").to_pylist(),
                hrows.column("dynamic_type_hint_full_name").to_pylist(),
            ):
                n = int(n_by_subj.get(nid, 0))
                for h in hl or []:
                    cur = hmm.get(h)
                    if cur is None:
                        hmm[h] = [1, n, n]
                    else:
                        cur[0] += 1
                        if n < cur[1]:
                            cur[1] = n
                        if n > cur[2]:
                            cur[2] = n
            for h, (c, lo, hi) in sorted(hmm.items()):
                emit("th", h, c, lo, hi)
    return pa.table(
        {
            "kind": pa.array(ks, pa.string()),
            "key": pa.array(keys, pa.string()),
            "c": pa.array(cs, pa.int64()),
            "n": pa.array(ns_, pa.int64()),
            "x": pa.array(xs, pa.int64()),
        },
        schema=SURVEY_SCHEMA,
    )

"""Scanner query bundle — the querydb analog.

The reference ships 41 vulnerability-query files under
`querydb/src/main/scala/io/joern/scanners/` (e.g.
`c/DangerousFunctions.scala:13-52` — `cpg.method("(?i)gets").callIn`;
`c/CopyLoops.scala`, `c/FormatStrings`, …), each a `Query` record with
name/author/title/score/traversal discovered by `QueryDatabase`
(`macros/.../QueryDatabase.scala:12`) and run serially by `ScanPass`
(`console/.../scan/ScanPass.scala:8-16`) into FINDING nodes.

Here a query = (metadata, function Cpg -> findings Table).  `run_scan`
executes a bundle serially (same contract as ScanPass: queries are
internally parallel — each traversal is a distributed Ray pipeline —
so no outer parallelism) and returns a findings table exportable to
SARIF via `io.export.export_sarif`.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc

from .dsl import Cpg

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class CodeExamples:
    """Reference `QueryUtil.scala:7-14`: each query embeds positive
    (must-flag) and negative (must-not-flag) example programs; the
    conformance harness compiles them through the REAL pipeline and
    asserts findings/non-findings."""

    positive: str
    negative: str
    lang: str = "c"


@dataclass(frozen=True)
class Query:
    """Reference `macros/.../Query.scala:10-22`: name/title/description/
    score + traversal."""

    name: str
    title: str
    score: float
    traversal: Callable[[Cpg], pa.Table]
    tags: tuple = ()
    examples: "CodeExamples | None" = None


def _findings(t: pa.Table, qname: str, message: str) -> pa.Table:
    return pa.table(
        {
            "name": pa.array([qname] * t.num_rows, pa.string()),
            "url": t.column("url").cast(pa.string()),
            "line": t.column("line").cast(pa.int32()),
            "message": pa.array(
                [f"{message}: {c}" for c in t.column("code").to_pylist()], pa.string()
            ),
        }
    )


def _calls_to(cpg: Cpg, regex: str) -> pa.Table:
    return cpg.method(regex).call_in().l(["url", "line", "code"])


# ---- the bundle (C-flavored, mirroring querydb/c) -------------------------


def q_gets(cpg: Cpg) -> pa.Table:
    """`DangerousFunctions.scala:13-24` — gets() is never safe."""
    return _findings(_calls_to(cpg, "^gets$"), "call-to-gets", "unsafe gets")


def q_strcpy(cpg: Cpg) -> pa.Table:
    return _findings(
        _calls_to(cpg, "^(strcpy|strcat|sprintf)$"),
        "unbounded-string-copy",
        "unbounded copy",
    )


def q_scanf(cpg: Cpg) -> pa.Table:
    return _findings(_calls_to(cpg, "^scanf$"), "uncontrolled-scanf", "scanf without width")


def q_system(cpg: Cpg) -> pa.Table:
    return _findings(
        _calls_to(cpg, "^(system|popen|exec[lv]p?e?)$"),
        "shell-injection-sink",
        "command execution",
    )


def q_format_string(cpg: Cpg) -> pa.Table:
    """printf with a non-literal first argument (format-string shape)."""
    calls = cpg.call("^printf$")
    args = calls.argument().l(["id", "label", "url", "line", "code"])
    nonlit = args.filter(pc.invert(pc.equal(args.column("label"), "LITERAL")))
    return _findings(nonlit, "format-string", "non-literal printf argument")


def q_malloc_no_check(cpg: Cpg) -> pa.Table:
    """malloc assignments (candidates for missing NULL checks —
    `NullTermination`-style shape)."""
    t = cpg.call().code(".*= malloc\\(.*").l(["url", "line", "code"])
    return _findings(t, "malloc-unchecked", "allocation (verify NULL check)")


def q_free_use(cpg: Cpg) -> pa.Table:
    """use-after-free via dataflow: uses reached by defs that flow into
    free() arguments (F3 shape, bounded depth)."""
    frees = cpg.call("^free$")
    args = frees.argument()
    reached = args.reachable_by(cpg.call().code(".*malloc\\(.*"))
    t = reached.l(["url", "line", "code"])
    return _findings(t, "use-after-free-candidate", "freed allocation flows here")


def q_large_stack_buffer(cpg: Cpg) -> pa.Table:
    """LOCALs with large array types (`c/StackBuffers` shape).  The
    array-size predicate runs as a streamed vectorized filter inside
    each batch (extract_regex + cast + compare) — only hits ever reach
    the driver; LOCALs are O(graph)."""

    def _big_arrays(b: pa.Table) -> pa.Table:
        tfn = pc.coalesce(b.column("type_full_name"), pa.scalar(""))
        ex = pc.extract_regex(tfn, r"\[\s*(?P<n>\d+)")
        size = pc.cast(
            pc.coalesce(pc.struct_field(ex, "n"), pa.scalar("0")), pa.int64()
        )
        return b.filter(pc.greater_equal(size, 128))

    t = cpg.local()._filter(_big_arrays).l(["url", "line", "code"])
    return _findings(t, "large-stack-buffer", "large stack buffer")


def q_int_mult_alloc(cpg: Cpg) -> pa.Table:
    """`c/IntegerOverflows` shape: multiplication inside an allocation
    size argument (n * size overflows before malloc sees it)."""
    t = cpg.call().code(".*malloc\\([^)]*\\*[^)]*\\).*").l(["url", "line", "code"])
    return _findings(t, "mult-in-alloc", "multiplication inside malloc size")


def q_sql_concat(cpg: Cpg) -> pa.Table:
    """java/SQLInjection shape: executeQuery/execute with a concatenated
    (non-literal) argument."""
    calls = cpg.call("^(executeQuery|executeUpdate|execute|rawQuery)$")
    args = calls.argument().l(["id", "label", "name", "url", "line", "code"])
    conc = args.filter(
        pc.or_(
            pc.equal(pc.coalesce(args.column("name"), pa.scalar("")), "<operator>.addition"),
            pc.equal(args.column("label"), "IDENTIFIER"),
        )
    )
    return _findings(conc, "sql-injection-candidate", "non-literal SQL query")


def q_hardcoded_credential(cpg: Cpg) -> pa.Table:
    """Hardcoded secret shape: assignment whose code looks like
    password/secret/token = \"literal\"."""
    t = (
        cpg.call("^<operator>\\.assignment$")
        .code('(?i).*(password|passwd|secret|api_key|apikey|token)\\s*=\\s*"[^"]+".*')
        .l(["url", "line", "code"])
    )
    return _findings(t, "hardcoded-credential", "credential in source")


def q_weak_crypto(cpg: Cpg) -> pa.Table:
    """Weak-hash usage: MD5/SHA1/DES primitives."""
    t = _calls_to(cpg, "^(?i)(md5|md5_init|sha1|sha1_init|des_encrypt)$")
    return _findings(t, "weak-crypto", "weak cryptographic primitive")


def q_js_eval(cpg: Cpg) -> pa.Table:
    """js: eval()/new Function() on dynamic input."""
    t = _calls_to(cpg, "^eval$")
    return _findings(t, "js-eval", "dynamic code evaluation")


def q_py_exec(cpg: Cpg) -> pa.Table:
    """python: exec()/eval()/os.system()/pickle.loads sinks."""
    calls = cpg.call("^(exec|eval|system|loads)$").l(
        ["url", "line", "code", "method_full_name"]
    )
    mask = [
        bool(m)
        and (
            m in ("exec", "eval")
            or m.endswith(".system")
            or m.endswith(".loads")
            or m in ("system", "loads")
        )
        for m in calls.column("method_full_name").to_pylist()
    ]
    t = calls.filter(pa.array(mask, pa.bool_()))
    return _findings(t, "py-exec", "dynamic execution / unsafe deserialization")


def q_empty_catch(cpg: Cpg) -> pa.Table:
    """Swallowed exceptions: CATCH with an empty body block."""
    catches = cpg.control_structure().name_exact("CATCH")
    kids = catches.ast_children()
    blocks = kids.l(["id", "label", "url", "line", "code"])
    block_ids = set(
        blocks.filter(pc.equal(blocks.column("label"), "BLOCK")).column("id").to_pylist()
    )
    nonempty_parents: set[int] = set()
    if block_ids:
        # a block with ANY outgoing AST edge is non-empty — one streamed
        # is_in-filtered scan of the edges table (no driver materialize;
        # the probe set is O(catch blocks), not O(edges))
        probe = pa.array(sorted(block_ids), pa.uint64())

        def _nonempty(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.equal(batch.column("pred"), "AST"),
                pc.is_in(batch.column("subj"), value_set=probe),
            )
            return pa.table({"subj": pc.unique(batch.filter(m).column("subj"))})

        for b in (
            cpg.edges_ds()
            .map_batches(_nonempty, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        ):
            nonempty_parents.update(b.column("subj").to_pylist())
    empty_blocks = block_ids - nonempty_parents
    t = blocks.filter(
        pc.is_in(blocks.column("id"), value_set=pa.array(list(empty_blocks) or [0], pa.uint64()))
    )
    return _findings(t, "empty-catch", "exception swallowed")


def q_strncpy_sizeof(cpg: Cpg) -> pa.Table:
    """strncpy whose size is sizeof(src) (classic off-by-one family)."""
    t = cpg.call("^strncpy$").code(".*sizeof.*").l(["url", "line", "code"])
    return _findings(t, "strncpy-sizeof", "strncpy size from sizeof")


def q_atoi_unchecked(cpg: Cpg) -> pa.Table:
    """atoi/atol without error handling (`c/IntegerTruncations` shape)."""
    t = _calls_to(cpg, "^(atoi|atol|atoll)$")
    return _findings(t, "unchecked-atoi", "unchecked numeric conversion")


def q_copy_loop(cpg: Cpg) -> pa.Table:
    """`c/CopyLoops.scala:15-39` — index-based copy inside a loop with no
    visible bound on the destination: assignment `a[i] = b[i]` whose AST
    ancestors include a for/while control structure."""
    assigns = cpg.call().name_exact("<operator>.assignment").code(
        r".*\w+\[\w+\]\s*=\s*\w+\[.*"
    )
    # per-ASSIGNMENT scoping: owner-attributed ancestor walk — only
    # assignments whose OWN AST ancestry crosses a for/while survive
    # (an unrelated a[i]=b[i] elsewhere in the same document does not)
    t = assigns.where_ast_ancestor(
        ("CONTROL_STRUCTURE",), r"\s*(for|while)\b.*"
    ).l(["url", "line", "code"])
    return _findings(t, "copy-loop", "unbounded index copy in loop")


def q_strlen_truncation(cpg: Cpg) -> pa.Table:
    """`c/IntegerTruncations.scala:16-38` — strlen (size_t) assigned to a
    narrow int variable.  Declaration initializers lower to `n = strlen(s)`
    (no type in the assignment code), so the variable's LOCAL
    type_full_name carries the truncation evidence — same evidence the
    reference reads off `local.typeFullName`."""
    import re

    assigns = (
        cpg.call()
        .name_exact("<operator>.assignment")
        .code(r".*\w+\s*=\s*strlen\s*\(.*")
        .l(["url", "line", "code"])
    )
    if not assigns.num_rows:
        return _findings(assigns.append_column("code2", pa.array([], pa.string())).drop(["code2"]), "strlen-truncation", "")
    # streamed filter: only NARROW-typed locals in documents that contain
    # a strlen assignment ever reach the driver (both predicates pushed
    # into the scan; the probe set is O(matched assignments))
    urls = pa.array(sorted(set(assigns.column("url").to_pylist())), pa.string())
    narrow_types = pa.array(
        ["int", "short", "unsigned int", "unsigned short", "char"], pa.string()
    )
    locs = (
        cpg.local()
        ._filter(
            lambda b: b.filter(
                pc.and_(
                    pc.is_in(b.column("url"), value_set=urls),
                    pc.is_in(b.column("type_full_name"), value_set=narrow_types),
                )
            )
        )
        .l(["url", "name", "type_full_name"])
    )
    narrow = {
        (u, n)
        for u, n, t in zip(
            locs.column("url").to_pylist(),
            locs.column("name").to_pylist(),
            locs.column("type_full_name").to_pylist(),
        )
        if t in ("int", "short", "unsigned int", "unsigned short", "char")
    }
    keep = []
    for i, (u, c) in enumerate(
        zip(assigns.column("url").to_pylist(), assigns.column("code").to_pylist())
    ):
        m = re.match(r"\s*(\w+)\s*=", c or "")
        if m and (u, m.group(1)) in narrow:
            keep.append(i)
    t = assigns.take(keep) if keep else assigns.slice(0, 0)
    return _findings(t, "strlen-truncation", "strlen result truncated to int")


def q_signed_shift(cpg: Cpg) -> pa.Table:
    """`c/SignedLeftShift.scala:14-36` — left shift of a negative signed
    value is undefined behavior."""
    sh = cpg.call().name_exact("<operator>.shiftLeft")
    args = sh.argument().l(["label", "name", "code", "url", "line"])
    # a negative operand appears either as a literal "-1" or as the
    # unary-minus operator call wrapping a literal (C tokenization)
    neg = args.filter(
        pc.or_(
            pc.and_(
                pc.equal(args.column("label"), "LITERAL"),
                pc.match_substring_regex(
                    pc.coalesce(args.column("code"), pa.scalar("")), r"^-\d"
                ),
            ),
            pc.equal(
                pc.coalesce(args.column("name"), pa.scalar("")), "<operator>.minus"
            ),
        )
    )
    return _findings(neg, "signed-left-shift", "left shift of negative value")


_RETVAL_FNS = ("read", "write", "recv", "send", "realloc", "setuid", "setgid")


def q_retval_unchecked(cpg: Cpg) -> pa.Table:
    """`c/RetvalChecks.scala:14-44` — return value of read/write/realloc/
    setuid discarded (the call is a bare statement: its AST parent is a
    BLOCK)."""
    calls = cpg.call("^(" + "|".join(_RETVAL_FNS) + ")$")
    t = calls.l(["id", "url", "line", "code"])
    if not t.num_rows:
        return _findings(t, "retval-unchecked", "")
    parents = calls.ast_parent().l(["id", "label"])
    block_ids = set(
        parents.filter(pc.equal(parents.column("label"), "BLOCK")).column("id").to_pylist()
    )
    # discarded = call whose parent is a BLOCK; probe via the edges table
    edges = cpg.edges_ds()
    call_ids = pa.array(t.column("id").to_pylist(), pa.uint64())
    blk = pa.array(sorted(block_ids) or [0], pa.uint64())

    def probe(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(b.column("pred"), "AST"),
            pc.and_(
                pc.is_in(b.column("subj"), value_set=blk),
                pc.is_in(b.column("obj"), value_set=call_ids),
            ),
        )
        return pa.table({"obj": b.filter(m).column("obj")})

    bare: set[int] = set()
    for b in edges.map_batches(probe, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        bare.update(b.column("obj").to_pylist())
    hit = t.filter(
        pc.is_in(t.column("id"), value_set=pa.array(sorted(bare) or [0], pa.uint64()))
    )
    return _findings(hit, "retval-unchecked", "discarded return value")


def q_toctou(cpg: Cpg) -> pa.Table:
    """`c/FileOpRace.scala:14-36` — access() check followed by open() in
    the SAME method (time-of-check/time-of-use race).  Per-call method
    attribution rides the CONTAINS shortcut edges (METHOD -> descendant,
    ContainsEdgePass), so an access() in one method never gets flagged
    because some other method pairs access with open."""
    acc = cpg.call("^access$").l(["id", "url", "line", "code"])
    opn_ids = set(
        cpg.call("^(open|fopen)$").l(["id"]).column("id").to_pylist()
    )
    acc_ids = set(acc.column("id").to_pylist())
    empty = pa.table(
        {
            "url": pa.array([], pa.string()),
            "line": pa.array([], pa.int32()),
            "code": pa.array([], pa.string()),
        }
    )
    if not acc_ids or not opn_ids:
        return _findings(empty, "toctou-race", "")
    # one streamed CONTAINS scan for both probe sets -> (container, call)
    probe = pa.array(sorted(acc_ids | opn_ids), pa.uint64())

    def pick(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(b.column("pred"), "CONTAINS"),
            pc.is_in(b.column("obj"), value_set=probe),
        )
        f = b.filter(m)
        return pa.table({"subj": f.column("subj"), "obj": f.column("obj")})

    pairs: list[tuple[int, int]] = []
    for b in (
        cpg.edges_ds()
        .map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        pairs.extend(zip(b.column("subj").to_pylist(), b.column("obj").to_pylist()))
    # restrict containers to METHODs (CONTAINS also runs from TYPE_DECL;
    # class-level co-location is not a race)
    cont_ids = {s for s, _o in pairs}
    carr = pa.array(sorted(cont_ids) or [0], pa.uint64())
    mrows = (
        cpg.method()
        ._filter(lambda b: b.filter(pc.is_in(b.column("id"), value_set=carr)))
        .l(["id"])
    )
    method_ids = set(mrows.column("id").to_pylist())
    acc_m: dict[int, set] = {}
    opn_m: set[int] = set()
    for s, o in pairs:
        if s not in method_ids:
            continue
        if o in acc_ids:
            acc_m.setdefault(o, set()).add(s)
        if o in opn_ids:
            opn_m.add(s)
    hit = sorted(cid for cid, ms in acc_m.items() if ms & opn_m)
    if not hit:
        return _findings(empty, "toctou-race", "")
    t = acc.filter(
        pc.is_in(acc.column("id"), value_set=pa.array(hit, pa.uint64()))
    )
    return _findings(t, "toctou-race", "access() check races the later open()")


def q_socket_any_bind(cpg: Cpg) -> pa.Table:
    """`c/SocketApi.scala:14-38` — bind on INADDR_ANY / 0.0.0.0 exposes
    the service on every interface."""
    t = cpg.call("^bind$").code(r".*(INADDR_ANY|0\.0\.0\.0).*").l(["url", "line", "code"])
    return _findings(t, "bind-any-interface", "socket bound to all interfaces")


def q_getruntime_exec(cpg: Cpg) -> pa.Table:
    """`java/DangerousFunctions.scala` getRuntimeExec — Runtime.exec of a
    dynamic command."""
    t = cpg.call().code(r".*getRuntime\s*\(\s*\)\s*\.\s*exec.*").l(
        ["url", "line", "code"]
    )
    return _findings(t, "runtime-exec", "Runtime.getRuntime().exec")


def q_weak_cipher_mode(cpg: Cpg) -> pa.Table:
    """`java/CryptographyMisuse.scala:15-57` — Cipher.getInstance with a
    broken primitive/mode (DES, RC4, ECB)."""
    t = cpg.call("^getInstance$").code(r".*(DES|RC4|ECB).*").l(["url", "line", "code"])
    return _findings(t, "weak-cipher-mode", "weak cipher/mode requested")


def q_trust_all_cert(cpg: Cpg) -> pa.Table:
    """`java/CertificateChecks.scala:14-46` — overriding
    checkServerTrusted/checkClientTrusted (trust-all TrustManager)."""
    t = cpg.method("^(checkServerTrusted|checkClientTrusted)$").l(
        ["url", "line", "code"]
    )
    return _findings(t, "trust-all-certs", "certificate check override")


def q_py_pickle(cpg: Cpg) -> pa.Table:
    """python deserialization of untrusted data (querydb android/java
    `UnsafeDeserialization` shape on the python frontend)."""
    t = cpg.call("^loads$").code(r".*pickle\s*\.\s*loads\s*\(.*").l(
        ["url", "line", "code"]
    )
    return _findings(t, "py-pickle-load", "pickle.loads of untrusted data")


def q_js_document_write(cpg: Cpg) -> pa.Table:
    """`java/CrossSiteScripting.scala` sink shape on the JS frontend:
    document.write of dynamic input."""
    t = cpg.call("^write$").code(r".*document\s*\.\s*write\s*\(.*").l(
        ["url", "line", "code"]
    )
    return _findings(t, "js-document-write", "document.write sink")


def q_memcpy_dynamic_size(cpg: Cpg) -> pa.Table:
    """`c/HeapBasedOverflow.scala:14-40` / `MissingLengthCheck.scala` —
    memcpy whose size argument is not a literal (no visible bound)."""
    calls = cpg.call("^memcpy$")
    args = calls.argument().l(["label", "argument_index", "url", "line", "code"])
    dyn = args.filter(
        pc.and_(
            pc.equal(args.column("argument_index"), 3),
            pc.invert(pc.equal(args.column("label"), "LITERAL")),
        )
    )
    return _findings(dyn, "memcpy-dynamic-size", "memcpy with unbounded size")


def _contains_pairs(cpg: Cpg, probe_ids: set) -> list[tuple[int, int]]:
    """(METHOD id, contained node id) pairs for the probe set — one
    streamed CONTAINS scan + a METHOD-label check on the (small)
    container set, same scoping machinery as q_toctou."""
    if not probe_ids:
        return []
    probe = pa.array(sorted(probe_ids), pa.uint64())

    def pick(b: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(b.column("pred"), "CONTAINS"),
            pc.is_in(b.column("obj"), value_set=probe),
        )
        f = b.filter(m)
        return pa.table({"subj": f.column("subj"), "obj": f.column("obj")})

    pairs: list[tuple[int, int]] = []
    for b in (
        cpg.edges_ds()
        .map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow", batch_size=None)
    ):
        pairs.extend(zip(b.column("subj").to_pylist(), b.column("obj").to_pylist()))
    cont = {s for s, _o in pairs}
    if not cont:
        return []
    carr = pa.array(sorted(cont), pa.uint64())
    mrows = (
        cpg.method()
        ._filter(lambda b: b.filter(pc.is_in(b.column("id"), value_set=carr)))
        .l(["id"])
    )
    mids = set(mrows.column("id").to_pylist())
    return [(s, o) for s, o in pairs if s in mids]


def _ordered_precedence(cpg: Cpg, act_regex: str, guard_regex: str, qname: str, message: str) -> pa.Table:
    """Flag `act` calls whose enclosing METHOD has no `guard` call on an
    EARLIER line (the dominatedBy approximation on straight-line
    credential-drop code — reference `CredentialDrop.scala:29-31`
    `whereNot(_.dominatedBy.isCall.name(...))`)."""
    act = cpg.call(act_regex).l(["id", "url", "line", "code"])
    guard = cpg.call(guard_regex).l(["id", "line"])
    if not act.num_rows:
        return _findings(act.select(["url", "line", "code"]), qname, "")
    act_ids = set(act.column("id").to_pylist())
    g_ids = set(guard.column("id").to_pylist())
    pairs = _contains_pairs(cpg, act_ids | g_ids)
    g_line = dict(zip(guard.column("id").to_pylist(), guard.column("line").to_pylist()))
    meth_of: dict[int, int] = {}
    guards_in: dict[int, list[int]] = {}
    for m, n in pairs:
        if n in act_ids:
            meth_of[n] = m
        if n in g_ids:
            guards_in.setdefault(m, []).append(g_line.get(n, -1))
    keep = []
    for i, (aid, aline) in enumerate(
        zip(act.column("id").to_pylist(), act.column("line").to_pylist())
    ):
        m = meth_of.get(aid)
        gls = guards_in.get(m, [])
        if not any(gl < aline for gl in gls):
            keep.append(i)
    t = act.take(keep) if keep else act.slice(0, 0)
    return _findings(t.select(["url", "line", "code"]), qname, message)


def q_setuid_no_setgid(cpg: Cpg) -> pa.Table:
    """`c/CredentialDrop.scala:13-56` — set*uid without a preceding
    set*gid in the same method drops user but keeps group privileges."""
    return _ordered_precedence(
        cpg,
        "(?i)set(res|re|e|)uid",
        "(?i)set(res|re|e|)gid",
        "setuid-without-setgid",
        "user id changed without changing groups first",
    )


def q_setgid_no_setgroups(cpg: Cpg) -> pa.Table:
    """`c/CredentialDrop.scala:58-98` — set*gid without setgroups keeps
    ancillary group membership."""
    return _ordered_precedence(
        cpg,
        "(?i)set(res|re|e|)gid",
        "setgroups",
        "setgid-without-setgroups",
        "group changed without setting ancillary groups",
    )


def q_too_many_params(cpg: Cpg) -> pa.Table:
    """`c/Metrics.scala:11-37` tooManyParameters(n=4): the parameter
    count reads vectorized off the `ret(t1,...,tn)` signature — a
    streamed filter, no per-method collection."""

    def big(b: pa.Table) -> pa.Table:
        sig = pc.coalesce(b.column("signature"), pa.scalar(""))
        inner = pc.replace_substring_regex(sig, r"^[^(]*\(|\)[^)]*$", "")
        n_commas = pc.subtract(
            pc.utf8_length(inner),
            pc.utf8_length(pc.replace_substring(inner, ",", "")),
        )
        m = pc.and_(
            pc.and_(
                pc.greater(n_commas, 3), pc.greater(pc.utf8_length(inner), 0)
            ),
            pc.invert(pc.match_substring(pc.coalesce(b.column("name"), pa.scalar("")), "<")),
        )
        return b.filter(m)

    t = cpg.method()._filter(big).l(["url", "line", "code"])
    return _findings(t, "too-many-params", "more than 4 parameters")


def q_too_high_complexity(cpg: Cpg) -> pa.Table:
    """`c/Metrics.scala:39-76` tooHighComplexity(n=4): per-method
    CONTROL_STRUCTURE count > 4 — fully distributed (bucketed join of
    CONTAINS edges against control-structure ids, bucketed count per
    method), nothing of O(graph) on the driver."""
    from ..util import bucketed_group_agg, bucketed_join

    def cs_edges(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(b.column("pred"), "CONTAINS"))
        return pa.table({"subj": f.column("subj"), "obj": f.column("obj")})

    def cs_nodes(b: pa.Table) -> pa.Table:
        f = b.filter(pc.equal(b.column("label"), "CONTROL_STRUCTURE"))
        return pa.table({"cs_id": f.column("id")})

    U = pa.uint64()
    joined = bucketed_join(
        cpg.edges_ds().map_batches(cs_edges, batch_format="pyarrow"),
        [("subj", U), ("obj", U)],
        cpg.nodes_ds().map_batches(cs_nodes, batch_format="pyarrow"),
        [("cs_id", U)],
        on=["obj"],
        right_on=["cs_id"],
        num_buckets=8,
    )
    counts = bucketed_group_agg(joined, ["subj"], [("obj", "count")], num_buckets=8)
    hot: set[int] = set()
    for b in counts.iter_batches(batch_format="pyarrow", batch_size=None):
        hit = b.filter(pc.greater(b.column("obj_count"), 4))
        hot.update(hit.column("subj").to_pylist())
    if not hot:
        return _findings(
            pa.table(
                {
                    "url": pa.array([], pa.string()),
                    "line": pa.array([], pa.int32()),
                    "code": pa.array([], pa.string()),
                }
            ),
            "too-high-complexity",
            "",
        )
    harr = pa.array(sorted(hot), pa.uint64())
    t = (
        cpg.method()
        ._filter(lambda b: b.filter(pc.is_in(b.column("id"), value_set=harr)))
        .l(["url", "line", "code"])
    )
    return _findings(t, "too-high-complexity", "more than 4 control structures")


def q_strncpy_no_null_term(cpg: Cpg) -> pa.Table:
    """`c/NullTermination.scala:16-79` — strncpy into a malloc'd buffer
    of the SAME size, with no explicit null-termination assignment in
    the method (dst[..] = 0)."""
    import re

    sn = cpg.call("^strncpy$").l(["id", "url", "line", "code"])
    if not sn.num_rows:
        return _findings(sn.select(["url", "line", "code"]), "strncpy-no-null-term", "")
    al = cpg.call().code(r".*=\s*malloc\s*\(.*").l(["id", "code"])
    zt = cpg.call().name_exact("<operator>.assignment").code(
        r".*\w+\s*\[[^\]]*\]\s*=\s*('\\0'|0)\s*.*"
    ).l(["id", "code"])
    pairs = _contains_pairs(
        cpg,
        set(sn.column("id").to_pylist())
        | set(al.column("id").to_pylist())
        | set(zt.column("id").to_pylist()),
    )
    by_meth: dict[int, dict[str, list[int]]] = {}
    kind_of = {}
    for i in sn.column("id").to_pylist():
        kind_of[i] = "sn"
    for i in al.column("id").to_pylist():
        kind_of.setdefault(i, "al")
    for i in zt.column("id").to_pylist():
        kind_of.setdefault(i, "zt")
    for m, n in pairs:
        by_meth.setdefault(m, {}).setdefault(kind_of.get(n, "?"), []).append(n)
    al_code = dict(zip(al.column("id").to_pylist(), al.column("code").to_pylist()))
    zt_code = dict(zip(zt.column("id").to_pylist(), zt.column("code").to_pylist()))
    meth_of = {n: m for m, n in pairs if kind_of.get(n) == "sn"}
    keep = []
    for i, (sid, scode) in enumerate(
        zip(sn.column("id").to_pylist(), sn.column("code").to_pylist())
    ):
        m = re.match(r"strncpy\s*\(\s*(\w+)\s*,\s*\w+\s*,\s*(\w+)", scode or "")
        if not m:
            continue
        dst, size = m.group(1), m.group(2)
        mm = meth_of.get(sid)
        kinds = by_meth.get(mm, {})
        same_size_alloc = any(
            re.match(rf".*\b{re.escape(dst)}\s*=\s*malloc\s*\(\s*{re.escape(size)}\s*\)", al_code.get(a, "") or "")
            for a in kinds.get("al", [])
        )
        null_terminated = any(
            (zt_code.get(z, "") or "").strip().startswith(dst)
            for z in kinds.get("zt", [])
        )
        if same_size_alloc and not null_terminated:
            keep.append(i)
    t = sn.take(keep) if keep else sn.slice(0, 0)
    return _findings(
        t.select(["url", "line", "code"]), "strncpy-no-null-term",
        "strncpy fills the whole buffer, no null terminator",
    )


def q_array_access_no_check(cpg: Cpg) -> pa.Table:
    """`c/MissingLengthCheck.scala` constant-array-access-no-check
    shape: array access indexed by a PARAMETER in a method with no
    comparison on that parameter."""
    import re

    ia = cpg.call().name_exact("<operator>.indexAccess").l(
        ["id", "url", "line", "code"]
    )
    if not ia.num_rows:
        return _findings(ia.select(["url", "line", "code"]), "index-no-length-check", "")
    cmps = cpg.call(
        "^<operator>\\.(lessThan|lessEqualsThan|greaterThan|greaterEqualsThan|equals|notEquals)$"
    ).l(["id", "code"])
    pairs = _contains_pairs(
        cpg,
        set(ia.column("id").to_pylist()) | set(cmps.column("id").to_pylist()),
    )
    ia_ids = set(ia.column("id").to_pylist())
    meth_of = {n: m for m, n in pairs if n in ia_ids}
    cmp_code_by_meth: dict[int, list[str]] = {}
    cmp_code = dict(zip(cmps.column("id").to_pylist(), cmps.column("code").to_pylist()))
    for m, n in pairs:
        if n in cmp_code:
            cmp_code_by_meth.setdefault(m, []).append(cmp_code[n] or "")
    keep = []
    for i, (nid, code) in enumerate(
        zip(ia.column("id").to_pylist(), ia.column("code").to_pylist())
    ):
        m = re.match(r".*\[\s*(\w+)\s*\]", code or "")
        if not m or m.group(1).isdigit():
            continue
        idx = m.group(1)
        checked = any(
            re.search(rf"\b{re.escape(idx)}\b", c)
            for c in cmp_code_by_meth.get(meth_of.get(nid), [])
        )
        if not checked:
            keep.append(i)
    t = ia.take(keep) if keep else ia.slice(0, 0)
    return _findings(
        t.select(["url", "line", "code"]), "index-no-length-check",
        "variable index without a bounds comparison",
    )


def q_object_deserialization(cpg: Cpg) -> pa.Table:
    """`java/DangerousFunctions` / `android/UnsafeDeserialization` —
    ObjectInputStream.readObject on attacker-controllable streams."""
    t = cpg.call("^readObject$").l(["url", "line", "code"])
    return _findings(t, "object-deserialization", "Java native deserialization")


def q_process_builder(cpg: Cpg) -> pa.Table:
    """java ProcessBuilder with a non-literal (dynamic) command."""
    calls = cpg.call("^ProcessBuilder$")
    args = calls.argument().l(["label", "url", "line", "code"])
    dyn = args.filter(pc.equal(args.column("label"), "IDENTIFIER"))
    return _findings(dyn, "process-builder-dynamic", "dynamic ProcessBuilder command")


def q_spel_injection(cpg: Cpg) -> pa.Table:
    """`java/SpringExpressionLanguageInjection.scala:14-45` —
    parseExpression with a non-literal argument."""
    calls = cpg.call("^parseExpression$")
    args = calls.argument().l(["label", "url", "line", "code"])
    dyn = args.filter(pc.equal(args.column("label"), "IDENTIFIER"))
    return _findings(dyn, "spel-injection", "dynamic SpEL expression parsed")


def q_xss_response_write(cpg: Cpg) -> pa.Table:
    """`java/CrossSiteScripting.scala` sink shape: servlet response
    writer printing a dynamic value."""
    t = (
        cpg.call("^(print|println|write)$")
        .code(r".*getWriter\s*\(\s*\)\s*\.\s*(print|println|write)\s*\(\s*[A-Za-z_].*")
        .l(["url", "line", "code"])
    )
    return _findings(t, "xss-response-write", "dynamic value written to HTTP response")


def q_insecure_protocol(cpg: Cpg) -> pa.Table:
    """`kotlin/NetworkProtocols.scala` usage-of-insecure-protocol —
    plaintext http:// URLs in networking calls."""
    t = cpg.literal('"http://.*').l(["url", "line", "code"])
    return _findings(t, "insecure-protocol", "cleartext http:// URL")


def q_root_detection_paths(cpg: Cpg) -> pa.Table:
    """`android/RootDetection.scala` — su/system-partition path literals
    used for root checks."""
    t = cpg.literal(
        r'".*(/system/(x?bin|app)/|/sbin/|/su/bin).*"'
    ).l(["url", "line", "code"])
    return _findings(t, "root-detection-via-file-checks", "root-detection path literal")


def q_unsafe_reflection(cpg: Cpg) -> pa.Table:
    """`android/UnsafeReflection.scala` fragment-injection shape:
    Class.forName with a non-literal class name."""
    calls = cpg.call("^forName$").code(r".*Class\s*\.\s*forName.*")
    args = calls.argument().l(["label", "url", "line", "code"])
    dyn = args.filter(pc.equal(args.column("label"), "IDENTIFIER"))
    return _findings(dyn, "unsafe-reflection", "dynamic Class.forName")


def q_vuln_prng(cpg: Cpg) -> pa.Table:
    """`android/Misconfigurations.scala:101-150` vuln-prng —
    SecureRandom.getInstance of the broken SHA1PRNG."""
    t = cpg.call("^getInstance$").code(r".*SecureRandom\s*\.\s*getInstance.*SHA1PRNG.*").l(
        ["url", "line", "code"]
    )
    return _findings(t, "vuln-prng", "seeded SHA1PRNG SecureRandom")


BUNDLE: tuple[Query, ...] = (
    Query(
        "call-to-gets", "Dangerous function gets()", 8.0, q_gets, ("c", "cwe-242"),
        CodeExamples(
            "int read_line(void) {\n  char buf[32];\n  gets(buf);\n  return buf[0];\n}\n",
            "int read_line_ok(void) {\n  char buf[32];\n  fgets(buf, 32, stdin);\n  return buf[0];\n}\n",
        ),
    ),
    Query(
        "unbounded-string-copy", "strcpy/strcat/sprintf", 7.0, q_strcpy, ("c", "cwe-120"),
        CodeExamples(
            "void cp(char *dst, char *src) {\n  strcpy(dst, src);\n}\n",
            "void cp_ok(char *dst, char *src) {\n  strncpy(dst, src, 16);\n}\n",
        ),
    ),
    Query(
        "uncontrolled-scanf", "scanf without width", 5.0, q_scanf, ("c",),
        CodeExamples(
            'int rd(void) {\n  char b[8];\n  scanf("%s", b);\n  return b[0];\n}\n',
            'int rd_ok(void) {\n  char b[8];\n  fscanf(stdin, "%7s", b);\n  return b[0];\n}\n',
        ),
    ),
    Query(
        "shell-injection-sink", "system()/popen()", 8.0, q_system, ("c", "cwe-78"),
        CodeExamples(
            "int run(char *cmd) {\n  return system(cmd);\n}\n",
            "int run_ok(char *cmd) {\n  return printf(cmd);\n}\n",
        ),
    ),
    Query(
        "format-string", "non-literal format", 6.0, q_format_string, ("c", "cwe-134"),
        CodeExamples(
            'void log_msg(char *msg) {\n  printf(msg);\n}\n',
            'void log_ok(void) {\n  printf("starting up");\n}\n',
        ),
    ),
    Query(
        "malloc-unchecked", "unchecked malloc", 3.0, q_malloc_no_check, ("c",),
        CodeExamples(
            "void mk(void) {\n  char *p = malloc(16);\n  p[0] = 0;\n}\n",
            "void mk_ok(void) {\n  char buf[16];\n  buf[0] = 0;\n}\n",
        ),
    ),
    Query(
        "use-after-free-candidate", "UAF candidate", 9.0, q_free_use, ("c", "cwe-416"),
        CodeExamples(
            "void uaf(void) {\n  char *p = malloc(8);\n  free(p);\n}\n",
            "void release(char *q) {\n  free(q);\n}\n",
        ),
    ),
    Query(
        "large-stack-buffer", "large stack buffer", 4.0, q_large_stack_buffer, ("c",),
        CodeExamples(
            "void big(void) {\n  char buf[4096];\n  buf[0] = 1;\n}\n",
            "void small(void) {\n  char buf[8];\n  buf[0] = 1;\n}\n",
        ),
    ),
    Query(
        "mult-in-alloc", "multiplication in malloc size", 7.0, q_int_mult_alloc,
        ("c", "cwe-190"),
        CodeExamples(
            "char *mk(int n) {\n  char *p = malloc(n * 8);\n  return p;\n}\n",
            "char *mk_ok(int n) {\n  char *p = malloc(64);\n  return p;\n}\n",
        ),
    ),
    Query(
        "sql-injection-candidate", "concatenated SQL", 8.0, q_sql_concat,
        ("java", "cwe-89"),
        CodeExamples(
            'public class Dao {\n  public int find(String id) {\n    int r = executeQuery("SELECT * FROM t WHERE id=" + id);\n    return r;\n  }\n}\n',
            'public class DaoOk {\n  public int find(String id) {\n    int r = executeQuery("SELECT * FROM t WHERE id=?");\n    return r;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "hardcoded-credential", "credential in source", 7.0, q_hardcoded_credential,
        ("generic", "cwe-798"),
        CodeExamples(
            'int auth(void) {\n  char *password = "hunter2secret";\n  return password[0];\n}\n',
            "int auth_ok(char *env) {\n  char *password = env;\n  return password[0];\n}\n",
        ),
    ),
    Query(
        "weak-crypto", "weak hash primitive", 5.0, q_weak_crypto, ("generic", "cwe-327"),
        CodeExamples(
            "int h(char *d) {\n  return md5(d);\n}\n",
            "int h_ok(char *d) {\n  return sha256(d);\n}\n",
        ),
    ),
    Query(
        "js-eval", "eval of dynamic input", 7.0, q_js_eval, ("javascript", "cwe-95"),
        CodeExamples(
            "function go(input) {\n  return eval(input);\n}\n",
            "function go_ok(input) {\n  return JSON.parse(input);\n}\n",
            "javascript",
        ),
    ),
    Query(
        "py-exec", "python dynamic execution", 7.0, q_py_exec, ("python", "cwe-95"),
        CodeExamples(
            "def go(payload):\n    return eval(payload)\n",
            "def go_ok(payload):\n    return len(payload)\n",
            "python",
        ),
    ),
    Query(
        "strncpy-sizeof", "strncpy size from sizeof", 4.0, q_strncpy_sizeof, ("c",),
        CodeExamples(
            "void cp(char *d, char *s) {\n  strncpy(d, s, sizeof(s));\n}\n",
            "void cp_ok(char *d, char *s) {\n  strncpy(d, s, 15);\n}\n",
        ),
    ),
    Query(
        "unchecked-atoi", "unchecked numeric conversion", 3.0, q_atoi_unchecked, ("c",),
        CodeExamples(
            "int parse(char *s) {\n  int v = atoi(s);\n  return v;\n}\n",
            "long parse_ok(char *s) {\n  long v = strtol(s, 0, 10);\n  return v;\n}\n",
        ),
    ),
    Query(
        "empty-catch", "swallowed exception", 3.0, q_empty_catch, ("java",),
        CodeExamples(
            "class Swallow {\n  void f() {\n    try {\n      g();\n    } catch (Exception e) {}\n  }\n  void g() {}\n}\n",
            "class Handle {\n  void f() {\n    try {\n      g();\n    } catch (Exception e) {\n      report(e);\n    }\n  }\n  void g() {}\n}\n",
            lang="java",
        ),
    ),
    Query(
        "copy-loop", "index copy loop without bound", 6.0, q_copy_loop,
        ("c", "cwe-120"),
        CodeExamples(
            "void cp(char *d, char *s, int n) {\n  for (int i = 0; i < n; i++) {\n    d[i] = s[i];\n  }\n}\n",
            "void cp_ok(char *d, char *s, int n) {\n  for (int i = 0; i < n; i++) {\n    d[i] = 0;\n  }\n  d[0] = s[0];\n}\n",
        ),
    ),
    Query(
        "strlen-truncation", "strlen into int", 5.0, q_strlen_truncation,
        ("c", "cwe-197"),
        CodeExamples(
            "int sz(char *s) {\n  int n = strlen(s);\n  return n;\n}\n",
            "long sz_ok(char *s) {\n  long n = strlen(s);\n  return n;\n}\n",
        ),
    ),
    Query(
        "signed-left-shift", "negative left shift (UB)", 6.0, q_signed_shift,
        ("c", "cwe-758"),
        CodeExamples(
            "int mask(int x) {\n  return -1 << x;\n}\n",
            "unsigned mask_ok(unsigned x) {\n  return 1 << x;\n}\n",
        ),
    ),
    Query(
        "retval-unchecked", "discarded return value", 4.0, q_retval_unchecked,
        ("c", "cwe-252"),
        CodeExamples(
            "void rd(int fd, char *b) {\n  read(fd, b, 8);\n}\n",
            "int rd_ok(int fd, char *b) {\n  int n = read(fd, b, 8);\n  return n;\n}\n",
        ),
    ),
    Query(
        "toctou-race", "access/open race", 7.0, q_toctou, ("c", "cwe-367"),
        CodeExamples(
            "int chk(char *p) {\n  if (access(p, 0) == 0) {\n    int fd = open(p, 0);\n    return fd;\n  }\n  return -1;\n}\n",
            "int probe_ok(char *p) {\n  int r = access(p, 0);\n  return r;\n}\nint opener_ok(char *p) {\n  int fd = open(p, 0);\n  return fd;\n}\n",
        ),
    ),
    Query(
        "bind-any-interface", "bind to INADDR_ANY", 4.0, q_socket_any_bind,
        ("c", "cwe-1327"),
        CodeExamples(
            "int srv(int s) {\n  return bind(s, INADDR_ANY, 16);\n}\n",
            "int srv_ok(int s, char *a) {\n  return bind(s, a, 16);\n}\n",
        ),
    ),
    Query(
        "runtime-exec", "Runtime.getRuntime().exec", 8.0, q_getruntime_exec,
        ("java", "cwe-78"),
        CodeExamples(
            "public class R {\n  public int go(String cmd) {\n    int r = getRuntime().exec(cmd);\n    return r;\n  }\n}\n",
            "public class ROk {\n  public int go(String cmd) {\n    int r = log(cmd);\n    return r;\n  }\n}\n",
            "java",
        ),
    ),
    Query(
        "weak-cipher-mode", "DES/RC4/ECB cipher", 6.0, q_weak_cipher_mode,
        ("java", "cwe-327"),
        CodeExamples(
            'public class C {\n  public int enc() {\n    int c = getInstance("DES");\n    return c;\n  }\n}\n',
            'public class COk {\n  public int enc() {\n    int c = getInstance("AES");\n    return c;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "trust-all-certs", "trust-all TrustManager", 8.0, q_trust_all_cert,
        ("java", "cwe-295"),
        CodeExamples(
            "public class T {\n  public void checkServerTrusted(String c, String a) {\n    return;\n  }\n}\n",
            "public class TOk {\n  public void verifyPin(String c) {\n    return;\n  }\n}\n",
            "java",
        ),
    ),
    Query(
        "py-pickle-load", "pickle.loads of input", 7.0, q_py_pickle,
        ("python", "cwe-502"),
        CodeExamples(
            "def load(data):\n    return pickle.loads(data)\n",
            "def load_ok(data):\n    return json.loads(data)\n",
            "python",
        ),
    ),
    Query(
        "js-document-write", "document.write sink", 5.0, q_js_document_write,
        ("javascript", "cwe-79"),
        CodeExamples(
            "function show(input) {\n  document.write(input);\n  return 1;\n}\n",
            "function show_ok(input) {\n  console.log(input);\n  return 1;\n}\n",
            "javascript",
        ),
    ),
    Query(
        "memcpy-dynamic-size", "memcpy unbounded size", 5.0, q_memcpy_dynamic_size,
        ("c", "cwe-120"),
        CodeExamples(
            "void cp(char *d, char *s, int n) {\n  memcpy(d, s, n);\n}\n",
            "void cp_ok(char *d, char *s) {\n  memcpy(d, s, 16);\n}\n",
        ),
    ),
    Query(
        "setuid-without-setgid", "uid drop without gid drop", 2.0,
        q_setuid_no_setgid, ("c", "setxid"),
        CodeExamples(
            "void bad1(void) {\n  setresuid();\n}\n",
            "void good1(void) {\n  setgroups();\n  setresgid();\n  setresuid();\n}\n",
        ),
    ),
    Query(
        "setgid-without-setgroups", "gid change without setgroups", 2.0,
        q_setgid_no_setgroups, ("c", "setxid"),
        CodeExamples(
            "void bad2(void) {\n  setresgid();\n}\n",
            "void good2(void) {\n  setgroups();\n  setresgid();\n}\n",
        ),
    ),
    Query(
        "too-many-params", "more than 4 parameters", 1.0,
        q_too_many_params, ("c", "metrics"),
        CodeExamples(
            "int too_many(int a, int b, int c, int d, int e) {\n  return a;\n}\n",
            "int param_count_fine(int a, int b, int c, int d) {\n  return a;\n}\n",
        ),
    ),
    Query(
        "too-high-complexity", "cyclomatic complexity > 4", 1.0,
        q_too_high_complexity, ("c", "metrics"),
        CodeExamples(
            "int complex_fn(int x) {\n  if (x > 0) { x++; }\n  if (x > 1) { x++; }\n"
            "  if (x > 2) { x++; }\n  while (x > 3) { x--; }\n"
            "  for (int i = 0; i < 3; i++) { x += i; }\n  return x;\n}\n",
            "int simple_fn(int x) {\n  if (x > 0) { x++; }\n  return x;\n}\n",
        ),
    ),
    Query(
        "strncpy-no-null-term", "strncpy without null termination", 4.0,
        q_strncpy_no_null_term, ("c", "strings"),
        CodeExamples(
            "int term_bad(char *src, int n) {\n  char *ptr = malloc(n);\n"
            "  strncpy(ptr, src, n);\n  return 1;\n}\n",
            "int term_good(char *src, int n) {\n  char *ptr = malloc(n);\n"
            "  strncpy(ptr, src, n);\n  ptr[5] = 0;\n  return 1;\n}\n",
        ),
    ),
    Query(
        "index-no-length-check", "unchecked variable index", 3.0,
        q_array_access_no_check, ("c", "cwe-125"),
        CodeExamples(
            "int get_at(int *arr, int i) {\n  return arr[i];\n}\n",
            "int get_at_ok(int *arr, int i, int n) {\n  if (i < n) {\n"
            "    return arr[i];\n  }\n  return 0;\n}\n",
        ),
    ),
    Query(
        "object-deserialization", "native deserialization", 8.0,
        q_object_deserialization, ("java", "cwe-502"),
        CodeExamples(
            "public class Des {\n  public int load(ObjectInputStream in) {\n"
            "    int r = in.readObject();\n    return r;\n  }\n}\n",
            "public class DesOk {\n  public int load(String s) {\n"
            "    int r = parseInt(s);\n    return r;\n  }\n}\n",
            "java",
        ),
    ),
    Query(
        "process-builder-dynamic", "dynamic ProcessBuilder", 7.0,
        q_process_builder, ("java", "cwe-78"),
        CodeExamples(
            "public class Pb {\n  public int go(String cmd) {\n"
            "    int p = ProcessBuilder(cmd);\n    return p;\n  }\n}\n",
            'public class PbOk {\n  public int go() {\n'
            '    int p = ProcessBuilder("ls");\n    return p;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "spel-injection", "SpEL injection", 8.0, q_spel_injection,
        ("java", "cwe-917"),
        CodeExamples(
            "public class Spel {\n  public int go(String expression) {\n"
            "    int e = parseExpression(expression);\n    return e;\n  }\n}\n",
            'public class SpelOk {\n  public int go() {\n'
            '    int e = parseExpression("1+1");\n    return e;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "xss-response-write", "response writer XSS sink", 7.0,
        q_xss_response_write, ("java", "cwe-79"),
        CodeExamples(
            "public class Xss {\n  public int go(String input) {\n"
            "    int r = getWriter().print(input);\n    return r;\n  }\n}\n",
            'public class XssOk {\n  public int go() {\n'
            '    int r = getWriter().print("ok");\n    return r;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "insecure-protocol", "cleartext http:// URL", 4.0,
        q_insecure_protocol, ("kotlin", "cwe-319"),
        CodeExamples(
            "fun go(): Int {\n"
            '    val u = openConnection("http://example.com/api")\n'
            "    return u\n}\n",
            "fun goOk(): Int {\n"
            '    val u = openConnection("https://example.com/api")\n'
            "    return u\n}\n",
            "kotlin",
        ),
    ),
    Query(
        "root-detection-via-file-checks", "root-detection path literal", 2.0,
        q_root_detection_paths, ("android",),
        CodeExamples(
            "public class Root {\n  public int check() {\n"
            '    int f = exists("/system/xbin/su");\n    return f;\n  }\n}\n',
            "public class RootOk {\n  public int check() {\n"
            '    int f = exists("/data/user/log.txt");\n    return f;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "unsafe-reflection", "dynamic Class.forName", 6.0,
        q_unsafe_reflection, ("android", "cwe-470"),
        CodeExamples(
            "public class Refl {\n  public int go(String cls) {\n"
            "    int c = Class.forName(cls);\n    return c;\n  }\n}\n",
            "public class ReflOk {\n  public int go() {\n"
            '    int c = Class.forName("com.app.Safe");\n    return c;\n  }\n}\n',
            "java",
        ),
    ),
    Query(
        "vuln-prng", "broken SHA1PRNG", 4.0, q_vuln_prng,
        ("android", "cwe-330"),
        CodeExamples(
            "public class Prng {\n  public int go() {\n"
            '    int r = SecureRandom.getInstance("SHA1PRNG");\n    return r;\n  }\n}\n',
            "public class PrngOk {\n  public int go() {\n"
            '    int r = SecureRandom.getInstance("DRBG");\n    return r;\n  }\n}\n',
            "java",
        ),
    ),
)


def run_scan(
    cpg: Cpg, names: tuple = (), tags: tuple = ()
) -> pa.Table:
    """ScanPass analog: run each selected query serially (each traversal
    is internally a parallel Ray pipeline), concatenate findings.  A
    query that raises is logged at WARNING with its error and the scan
    goes on without it, as the reference's does (`scan/package.scala:
    32-36`); the findings' schema metadata `failed_queries` holds the
    JSON list of the names of those queries."""
    out: list[pa.Table] = []
    failed: list[str] = []
    for q in BUNDLE:
        if names and q.name not in names:
            continue
        if tags and not (set(tags) & set(q.tags)):
            continue
        try:
            out.append(q.traversal(cpg))
        except Exception as e:  # noqa: BLE001 — one query's error ends only that query
            logger.warning("scan query %s failed: %s: %s", q.name, type(e).__name__, e)
            failed.append(q.name)
    if not out:
        findings = pa.table(
            {
                "name": pa.array([], pa.string()),
                "url": pa.array([], pa.string()),
                "line": pa.array([], pa.int32()),
                "message": pa.array([], pa.string()),
            }
        )
    else:
        findings = pa.concat_tables(out)
    return findings.replace_schema_metadata({"failed_queries": json.dumps(failed)})

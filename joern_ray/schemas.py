"""Arrow schema constants — the fixed, code-generated schema system of the
reference (nodes/edges generated from the CPG schema spec; see SURVEY.md §1.1,
reference `x2cpg/Ast.scala:54-64` optional eager validation) becomes explicit
``pyarrow.Schema`` constants enforced at stage boundaries.
"""

from __future__ import annotations

import pyarrow as pa

# ---------------------------------------------------------------------------
# Input: Common-Crawl-style web pages (BASELINE.json input_hint).
# ---------------------------------------------------------------------------
DOCS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("warc_ts", pa.timestamp("us")),
        pa.field("html", pa.large_binary()),
        pa.field("text", pa.string()),
        pa.field("lang", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Intermediate: detected code fragments (doc -> 0..n fragments).
# Spans reference the ORIGINAL html bytes so no content is copied upstream
# of the parse stage (SURVEY.md §1.2: fragments carry (url, byte_start,
# byte_end) spans).
# ---------------------------------------------------------------------------
FRAGMENTS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("fragment_idx", pa.int32()),
        pa.field("frag_lang", pa.string()),  # c | cpp | java | javascript | unknown
        pa.field("code", pa.string()),
        pa.field("byte_start", pa.int64()),
        pa.field("byte_end", pa.int64()),
        pa.field("content_hash", pa.uint64()),
    ]
)

# ---------------------------------------------------------------------------
# Output: the CPG node table (SURVEY.md §7.0 target output contract).
# Node ids are deterministic content hashes (no global counter — required
# for distributed construction; reference uses in-memory sequential ids,
# SURVEY.md §1.2).
# ---------------------------------------------------------------------------
NODES_SCHEMA = pa.schema(
    [
        pa.field("id", pa.uint64()),
        pa.field("label", pa.string()),  # METHOD | CALL | IDENTIFIER | ...
        pa.field("name", pa.string()),
        pa.field("full_name", pa.string()),
        pa.field("signature", pa.string()),
        pa.field("code", pa.string()),
        pa.field("order", pa.int32()),
        pa.field("argument_index", pa.int32()),
        pa.field("dispatch_type", pa.string()),
        pa.field("method_full_name", pa.string()),
        pa.field("type_full_name", pa.string()),
        # multi-valued recovered-type hints on unresolved dynamic CALLs
        # (reference property DYNAMIC_TYPE_HINT_FULL_NAME, consumed by
        # `XTypeHintCallLinker.scala:21-120`); single-hint calls resolve
        # at parse time (setCallees semantics, :95-101) so only ambiguous
        # multi-hint calls carry a list here
        pa.field("dynamic_type_hint_full_name", pa.list_(pa.string())),
        pa.field("line", pa.int32()),
        pa.field("col", pa.int32()),
        pa.field("url", pa.string()),
        pa.field("fragment_idx", pa.int32()),
        pa.field("lang", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Output: the edge/triples table — (subj, pred, obj) with the single
# load-bearing edge property `variable` on REACHING_DEF (reference
# `DdgGenerator.scala:216-229`).
# ---------------------------------------------------------------------------
EDGES_SCHEMA = pa.schema(
    [
        pa.field("subj", pa.uint64()),
        pa.field("pred", pa.string()),
        pa.field("obj", pa.uint64()),
        pa.field("variable", pa.string()),
    ]
)

# ---------------------------------------------------------------------------
# Rejects: per-row failure isolation — never raise inside a UDF for a data
# error; emit a reject row instead (reference skips unparseable files and
# continues, `c2cpg/.../AstCreationPass.scala:200-215`).
# ---------------------------------------------------------------------------
REJECTS_SCHEMA = pa.schema(
    [
        pa.field("url", pa.string()),
        pa.field("fragment_idx", pa.int32()),
        pa.field("stage", pa.string()),
        pa.field("reason", pa.string()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()


def rows_to_table(rows: list[dict], schema: pa.Schema) -> pa.Table:
    """Column-pivot a list of row dicts into an Arrow table with `schema`.

    Missing keys become nulls. This is the bridge from the per-fragment
    Python parse (unavoidably row-oriented) back into columnar blocks.
    """
    if not rows:
        return schema.empty_table()
    cols = {name: [r.get(name) for r in rows] for name in schema.names}
    return pa.table(
        {n: pa.array(cols[n], type=schema.field(n).type) for n in schema.names},
        schema=schema,
    )

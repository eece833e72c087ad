"""Fragment-parse stage: fragments batch -> nodes + edges (+ rejects).

The analogue of the reference's `AstCreationPass` (one parser instance per
pass shared by all parallel parts, `c2cpg/.../AstCreationPass.scala:92-93`)
plus ALL per-method overlay passes (CFG / dominators / CDG / reaching-def /
CONTAINS — reference runs them as separate `ForkJoinParallelCpgPass`es per
method; here they are fused into the parse UDF because each fragment's
methods are already in memory — zero extra shuffles, SURVEY.md §4.2).

Ray Data has single-output operators, so the stage emits ONE tagged-union
Arrow table carrying node rows, edge rows and reject rows discriminated by
`row_kind`; cheap downstream filters split the streams (same pattern as
`detect_fragments_batch`).

Plain-task design: `parse_fragments_batch` is the `map_batches` UDF; it
calls a per-process `ParseFragments` memo, so parser construction and the
parse-tree cache live once per worker process (reused by every task that
process runs) without an actor pool pinning CPUs.  The cache keys on
`(content_hash, dialect)`: web corpora are full of byte-identical
boilerplate snippets (FIXTURES.md: 5 % shared blocks), and re-flattening a
cached tree under a new (url, fragment_idx) is ~10x cheaper than
re-parsing.  Outputs do not depend on the cache: a template is the
content's parse, instanced under each (url, fragment_idx).
"""

from __future__ import annotations

from collections import OrderedDict

import pyarrow as pa

from ..functions.hashing import node_ids
from ..graph.cfg import method_overlays
from ..parsing.astmodel import flatten
from ..parsing.parser import FragmentParser, ParseError
from ..schemas import EDGES_SCHEMA, NODES_SCHEMA, REJECTS_SCHEMA, rows_to_table

# Union layout: nodes cols ∪ edges cols ∪ reject cols ∪ survey cols +
# row_kind, the key the checkpoint splits on (each split keeps only its
# kind's columns: `pipelines.cpg.PARSE_SPLITS`).
UNION_SCHEMA = pa.schema(
    [
        *NODES_SCHEMA,
        *[f for f in EDGES_SCHEMA],
        pa.field("stage", pa.string()),
        pa.field("reason", pa.string()),
        # survey partial columns (row_kind="survey"): the per-batch
        # combiner output (SURVEY kinds m/td/ty/ns/ca) rides in the
        # checkpoint so the link stage never re-scans the node stream
        pa.field("skind", pa.string()),
        pa.field("skey", pa.string()),
        pa.field("sc", pa.int64()),
        pa.field("sn", pa.int64()),
        pa.field("sx", pa.int64()),
        pa.field("row_kind", pa.string()),
    ]
)

# METHOD/TYPE_DECL/MEMBER rows get their own row_kind so the
# canonicalization + index projections read a small dedicated split
# instead of filtering the full node stream (MEMBER rides along for the
# cross-fragment FieldAccessLinkerPass two-key join).
MT_LABELS = ("METHOD", "TYPE_DECL", "MEMBER")


def make_union_from_tables(nt: pa.Table, et: pa.Table, rt: pa.Table) -> pa.Table:
    import pyarrow.compute as pc

    from ..stages.survey import survey_partial

    svt = survey_partial(nt, et)
    # split nodes into plain vs METHOD/TYPE_DECL (own row_kind)
    mt_mask = pc.is_in(nt.column("label"), value_set=pa.array(list(MT_LABELS)))
    mt = nt.filter(mt_mask)
    plain = nt.filter(pc.invert(mt_mask))
    n_p, n_m, n_e, n_r, n_s = (
        plain.num_rows,
        mt.num_rows,
        et.num_rows,
        rt.num_rows,
        svt.num_rows,
    )
    cols: dict[str, pa.ChunkedArray | pa.Array] = {}
    for name in NODES_SCHEMA.names:
        typ = NODES_SCHEMA.field(name).type
        pieces = [
            plain.column(name).combine_chunks(),
            mt.column(name).combine_chunks(),
        ]
        if name == "url":  # rejects carry url too
            pieces += [pa.nulls(n_e, typ), rt.column("url").combine_chunks(), pa.nulls(n_s, typ)]
        elif name == "fragment_idx":
            pieces += [pa.nulls(n_e, typ), rt.column("fragment_idx").combine_chunks(), pa.nulls(n_s, typ)]
        else:
            pieces.append(pa.nulls(n_e + n_r + n_s, typ))
        cols[name] = pa.concat_arrays(pieces)
    for name in EDGES_SCHEMA.names:
        typ = EDGES_SCHEMA.field(name).type
        cols[name] = pa.concat_arrays(
            [
                pa.nulls(n_p + n_m, typ),
                et.column(name).combine_chunks(),
                pa.nulls(n_r + n_s, typ),
            ]
        )
    for name in ("stage", "reason"):
        typ = REJECTS_SCHEMA.field(name).type
        cols[name] = pa.concat_arrays(
            [pa.nulls(n_p + n_m + n_e, typ), rt.column(name).combine_chunks(), pa.nulls(n_s, typ)]
        )
    for sname, styp in (
        ("skind", pa.string()),
        ("skey", pa.string()),
        ("sc", pa.int64()),
        ("sn", pa.int64()),
        ("sx", pa.int64()),
    ):
        src = svt.column(
            {"skind": "kind", "skey": "key", "sc": "c", "sn": "n", "sx": "x"}[sname]
        ).combine_chunks()
        cols[sname] = pa.concat_arrays([pa.nulls(n_p + n_m + n_e + n_r, styp), src])
    cols["row_kind"] = pa.array(
        ["node"] * n_p + ["mtnode"] * n_m + ["edge"] * n_e + ["reject"] * n_r + ["survey"] * n_s,
        pa.string(),
    )
    return pa.table(cols, schema=UNION_SCHEMA)


class ParseFragments:
    """Stateful parse stage: FRAGMENTS_SCHEMA batches -> UNION_SCHEMA
    batches.  One instance per process (`parse_fragments_batch`)."""

    _SENT_URL = "\x00SENTINEL"
    _SENT_KEY = "\x00SENTINEL#0"
    # template node columns: everything except the per-instance ones
    _TMPL_COLS = [c for c in NODES_SCHEMA.names if c not in ("id", "url", "fragment_idx")]
    _SUBST_COLS = ("full_name", "method_full_name", "type_full_name")

    def __init__(self, cache_size: int = 4096, with_overlays: bool = True) -> None:
        from ..parsing.csharpfrontend import CSharpFragmentParser
        from ..parsing.rustfrontend import RustFragmentParser
        from ..parsing.swiftfrontend import SwiftFragmentParser
        from ..parsing.gofrontend import GoFragmentParser
        from ..parsing.kotlinfrontend import KotlinFragmentParser
        from ..parsing.phpfrontend import PhpFragmentParser
        from ..parsing.pyfrontend import PyFragmentParser
        from ..parsing.rubyfrontend import RubyFragmentParser

        self.parsers = {
            d: FragmentParser(d) for d in ("c", "cpp", "java", "javascript")
        }
        self.parsers["python"] = PyFragmentParser()
        self.parsers["go"] = GoFragmentParser()
        self.parsers["ruby"] = RubyFragmentParser()
        self.parsers["php"] = PhpFragmentParser()
        self.parsers["kotlin"] = KotlinFragmentParser()
        self.parsers["csharp"] = CSharpFragmentParser()
        self.parsers["rust"] = RustFragmentParser()
        self.parsers["swift"] = SwiftFragmentParser()
        self.cache: OrderedDict[tuple[int, str], dict] = OrderedDict()
        self.cache_size = cache_size
        self.with_overlays = with_overlays
        self.hits = 0
        self.misses = 0

    def _template(self, code: str, dialect: str, content_hash: int) -> dict | None:
        """Parse + overlay ONCE per distinct fragment content, flatten to
        a COLUMNAR template keyed on node sequence numbers.  Instancing a
        template under a new (url, fragment_idx) is then list-extends +
        one vectorized id computation — no tree walk, no per-row dicts.
        """
        key = (content_hash, dialect)
        if key in self.cache:
            self.cache.move_to_end(key)
            self.hits += 1
            return self.cache[key]
        self.misses += 1
        parser = self.parsers[dialect]
        try:
            root = parser.parse(code, self._SENT_URL, 0)
        except (ParseError, RecursionError):
            self.cache[key] = None  # negative cache: identical content fails identically
            return None
        nrows, erows = flatten(root, self._SENT_URL, 0, dialect)
        if self.with_overlays:
            for a, pred, b, var in method_overlays(root):
                erows.append({"subj": a.id, "pred": pred, "obj": b.id, "variable": var})
        id2seq = {r["id"]: i for i, r in enumerate(nrows)}
        node_cols = {c: [r[c] for r in nrows] for c in self._TMPL_COLS}
        subst_idx = {
            c: [
                i
                for i, v in enumerate(node_cols[c])
                if isinstance(v, str) and self._SENT_KEY in v
            ]
            for c in self._SUBST_COLS
        }
        import numpy as np

        tmpl = {
            "n": len(nrows),
            "node_cols": node_cols,
            "subst_idx": {c: ix for c, ix in subst_idx.items() if ix},
            "subj_seq": np.array([id2seq[e["subj"]] for e in erows], dtype=np.int64),
            "obj_seq": np.array([id2seq[e["obj"]] for e in erows], dtype=np.int64),
            "preds": [e["pred"] for e in erows],
            "vars": [e["variable"] for e in erows],
        }
        self.cache[key] = tmpl
        if len(self.cache) > self.cache_size:
            self.cache.popitem(last=False)
        return tmpl

    def __call__(self, batch: pa.Table) -> pa.Table:
        # Accept detect_fragments' tagged union directly: upstream reject
        # rows pass through unchanged; `doc` rows become FILE nodes (one
        # per url — FileCreationPass analog with zero extra passes);
        # fragment rows get parsed.
        import numpy as np

        passthrough_rejects: list[dict] = []
        file_rows: list[dict] = []
        if "row_kind" in batch.column_names:
            import pyarrow.compute as pc

            from ..stages.link import file_id

            rej = batch.filter(pc.equal(batch.column("row_kind"), "reject"))
            passthrough_rejects = [
                {"url": u, "fragment_idx": i, "stage": s, "reason": r}
                for u, i, s, r in zip(
                    rej.column("url").to_pylist(),
                    rej.column("fragment_idx").to_pylist(),
                    rej.column("stage").to_pylist(),
                    rej.column("reason").to_pylist(),
                )
            ]
            docs = batch.filter(pc.equal(batch.column("row_kind"), "doc"))
            file_rows = [
                {
                    "id": file_id(u),
                    "label": "FILE",
                    "name": u,
                    "full_name": u,
                    "url": u,
                    "order": 0,
                    "argument_index": -1,
                    "line": -1,
                    "col": -1,
                }
                for u in docs.column("url").to_pylist()
            ]
            batch = batch.filter(pc.equal(batch.column("row_kind"), "fragment"))
        urls = batch.column("url").to_pylist()
        idxs = batch.column("fragment_idx").to_pylist()
        langs = batch.column("frag_lang").to_pylist()
        codes = batch.column("code").to_pylist()
        hashes = batch.column("content_hash").to_pylist()
        # columnar accumulators
        acc: dict[str, list] = {c: [] for c in self._TMPL_COLS}
        acc_id: list[np.ndarray] = []
        acc_url: list[str] = []
        acc_idx: list[int] = []
        acc_counts: list[int] = []
        e_subj: list[np.ndarray] = []
        e_obj: list[np.ndarray] = []
        e_pred: list[str] = []
        e_var: list = []
        reject_rows: list[dict] = passthrough_rejects
        from ..functions.hashing import hash64 as _h64

        for url, idx, lang, code, chash in zip(urls, idxs, langs, codes, hashes):
            if lang in ("json", "yaml", "xml"):
                # config fragments become CONFIG_FILE nodes (reference
                # `XConfigFileCreationPass.scala:1-136` lifts package.json
                # etc. into CONFIG_FILE nodes)
                file_rows.append(
                    {
                        "id": _h64(url, idx, "CONFIG_FILE"),
                        "label": "CONFIG_FILE",
                        "name": f"{url}#{idx}",
                        "full_name": f"{url}#{idx}",
                        "code": code[:300],
                        "url": url,
                        "fragment_idx": idx,
                        "lang": lang,
                        "order": 0,
                        "argument_index": -1,
                        "line": 1,
                        "col": 1,
                    }
                )
                continue
            if lang not in self.parsers:
                reject_rows.append(
                    {
                        "url": url,
                        "fragment_idx": idx,
                        "stage": "parse",
                        "reason": f"unsupported_language:{lang}",
                    }
                )
                continue
            tmpl = self._template(code, lang, chash)
            if tmpl is None:
                reject_rows.append(
                    {
                        "url": url,
                        "fragment_idx": idx,
                        "stage": "parse",
                        "reason": "parse_failure",
                    }
                )
                continue
            n = tmpl["n"]
            ids = node_ids(url, idx, n)
            acc_id.append(ids)
            acc_url.append(url)
            acc_idx.append(idx)
            acc_counts.append(n)
            frag_key = f"{url}#{idx}"
            for c, vals in tmpl["node_cols"].items():
                si = tmpl["subst_idx"].get(c)
                if si:
                    vals = list(vals)
                    for i in si:
                        vals[i] = vals[i].replace(self._SENT_KEY, frag_key)
                acc[c].extend(vals)
            e_subj.append(ids[tmpl["subj_seq"]])
            e_obj.append(ids[tmpl["obj_seq"]])
            e_pred.extend(tmpl["preds"])
            e_var.extend(tmpl["vars"])
        # assemble node table columns
        n_nodes = sum(acc_counts)
        node_cols: dict[str, pa.Array] = {}
        if n_nodes or file_rows:
            id_arr = (
                np.concatenate(acc_id) if acc_id else np.empty(0, dtype=np.uint64)
            )
            url_col: list[str] = []
            idx_col: list[int] = []
            for u, i, c in zip(acc_url, acc_idx, acc_counts):
                url_col.extend([u] * c)
                idx_col.extend([i] * c)
            node_cols["id"] = pa.concat_arrays(
                [
                    pa.array(id_arr, pa.uint64()),
                    pa.array([r["id"] for r in file_rows], pa.uint64()),
                ]
            )
            for c in self._TMPL_COLS:
                typ = NODES_SCHEMA.field(c).type
                node_cols[c] = pa.concat_arrays(
                    [
                        pa.array(acc[c], typ),
                        pa.array([r.get(c) for r in file_rows], typ),
                    ]
                )
            node_cols["url"] = pa.concat_arrays(
                [
                    pa.array(url_col, pa.string()),
                    pa.array([r["url"] for r in file_rows], pa.string()),
                ]
            )
            node_cols["fragment_idx"] = pa.concat_arrays(
                [
                    pa.array(idx_col, pa.int32()),
                    pa.nulls(len(file_rows), pa.int32()),
                ]
            )
        nt = (
            pa.table({c: node_cols[c] for c in NODES_SCHEMA.names}, schema=NODES_SCHEMA)
            if node_cols
            else NODES_SCHEMA.empty_table()
        )
        et = (
            pa.table(
                {
                    "subj": pa.array(np.concatenate(e_subj), pa.uint64()),
                    "pred": pa.array(e_pred, pa.string()),
                    "obj": pa.array(np.concatenate(e_obj), pa.uint64()),
                    "variable": pa.array(e_var, pa.string()),
                },
                schema=EDGES_SCHEMA,
            )
            if e_subj
            else EDGES_SCHEMA.empty_table()
        )
        return make_union_from_tables(nt, et, rows_to_table(reject_rows, REJECTS_SCHEMA))


# Per-process ParseFragments memo (same pattern as
# `util.worker_get`): built by the first task a worker process runs, reused
# by every later one.
_PARSE_MEMO: dict = {}


def parse_fragments_batch(batch: pa.Table) -> pa.Table:
    """Task UDF for `map_batches`: parse through the process's memo."""
    stage = _PARSE_MEMO.get("stage")
    if stage is None:
        stage = _PARSE_MEMO["stage"] = ParseFragments()
    return stage(batch)

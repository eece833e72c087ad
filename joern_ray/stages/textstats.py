"""Text-analysis operators for large-scale training-data pipelines:
token counting, language ID, quality scoring, document fingerprinting.

These extend the engine beyond the reference's operator set (the task
brief lists them as first-class); the closest reference analogue is the
per-file metrics Report (`x2cpg/.../utils/Report.scala:27-60`) and the
joern-vectors feature hasher (`joern-cli/.../JoernVectors.scala:16-60`).

All stages are `map_batches(batch_format="pyarrow")` UDFs; regexes are
compiled at module import (per-process, the actor-state analogue for
stateless tasks).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WS_RE = re.compile(r"\S+")
_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be for with on at by this that "
    "it as from".split()
)

# Tiny per-language character/digraph profiles for the n-gram heuristic
# language guesser (reference guesses language per file by extension +
# directory majority vote, `console/.../cpgcreation/package.scala:50-77`;
# webtext needs content-based guessing instead).
_LANG_PROFILES: dict[str, frozenset] = {
    "en": frozenset(["th", "he", "in", "er", "an", "re", "nd", " t", "on", "at"]),
    "de": frozenset(["en", "er", "ch", "de", "ei", "ie", "te", "sc", "un", "ng"]),
    "fr": frozenset(["es", "le", "de", "en", "re", "nt", "ou", "qu", "ai", "ur"]),
    "es": frozenset(["de", "es", "en", "el", "la", "os", "ar", "ue", "ra", "ci"]),
}


# stopword-token regex over the DOUBLE-SPACED padded text (see
# quality_score_batch): every \S+ token is flanked by its own spaces, so
# the space-consuming match can't starve a consecutive stopword — count
# equals `token.lower() in STOPWORDS` over \S+ tokens (RE2 lacks
# lookahead, hence the padding trick)
_STOP_RE_PC = r"(?i)\s(?:" + "|".join(sorted(_STOPWORDS)) + r")\s"


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds n_tokens_ws (whitespace) and n_tokens_bpe (BPE-ish regex) —
    pyarrow `count_substring_regex` kernels, no per-row Python."""
    col = pc.coalesce(batch.column(text_col), pa.scalar(""))
    ws = pc.count_substring_regex(col, pattern=r"\S+")
    bpe = pc.count_substring_regex(
        col, pattern=r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"
    )
    return batch.append_column(
        "n_tokens_ws", pc.cast(ws, pa.int64())
    ).append_column("n_tokens_bpe", pc.cast(bpe, pa.int64()))


def quality_score_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds quality heuristics: length, punct ratio, stopword ratio, mean
    word length, and a composite `quality_ok` flag (C4-style filters).
    Fully vectorized: mean word length falls out of the identity
    sum(len(w) for w in \\S+ tokens) == n_chars - n_whitespace_chars."""
    col = pc.coalesce(batch.column(text_col), pa.scalar(""))
    length = pc.cast(pc.utf8_length(col), pa.int64()).to_numpy(zero_copy_only=False)
    n_punct = pc.count_substring_regex(col, pattern=r"[^\w\s]").to_numpy(
        zero_copy_only=False
    )
    n_ws_chars = pc.count_substring_regex(col, pattern=r"\s").to_numpy(
        zero_copy_only=False
    )
    nw = pc.count_substring_regex(col, pattern=r"\S+").to_numpy(zero_copy_only=False)
    spaced = pc.binary_join_element_wise(
        pa.scalar(" "),
        pc.replace_substring_regex(col, pattern=r"\s+", replacement="  "),
        pa.scalar(" "),
        "",
    )
    n_stop = pc.count_substring_regex(spaced, pattern=_STOP_RE_PC).to_numpy(
        zero_copy_only=False
    )
    punct = n_punct / np.maximum(1, length)
    nw_safe = np.maximum(1, nw)
    stop = np.where(nw > 0, n_stop / nw_safe, 0.0)
    wlen = np.where(nw > 0, (length - n_ws_chars) / nw_safe, 0.0)
    ok = (length >= 20) & (punct < 0.3) & (wlen >= 2.0) & (wlen <= 15.0)
    out = batch
    for name, arr, typ in (
        ("n_chars_q", length, pa.int64()),
        ("punct_ratio", punct, pa.float64()),
        ("stopword_ratio", stop, pa.float64()),
        ("mean_word_len", wlen, pa.float64()),
    ):
        out = out.append_column(name, pa.array(arr, typ))
    return out.append_column("quality_ok", pa.array(ok, pa.bool_()))


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds `lang_pred`: digraph-overlap heuristic language guess.
    Vectorized per digraph (PRESENCE of each profile digraph in the first
    2000 chars), argmax across languages with first-wins tie-breaking —
    identical scores to the per-row set-intersection formulation."""
    col = pc.utf8_lower(
        pc.utf8_slice_codeunits(
            pc.coalesce(batch.column(text_col), pa.scalar("")), 0, 2000
        )
    )
    n = len(col)
    langs = list(_LANG_PROFILES)
    scores = np.zeros((len(langs), n), dtype=np.int64)
    for li, lang in enumerate(langs):
        for d in _LANG_PROFILES[lang]:
            scores[li] += (
                pc.greater(pc.count_substring(col, pattern=d), 0)
                .to_numpy(zero_copy_only=False)
                .astype(np.int64)
            )
    best = np.argmax(scores, axis=0)  # first-wins on ties (dict order)
    best_score = scores[best, np.arange(n)]
    preds = np.where(best_score > 0, np.array(langs, dtype=object)[best], "und")
    return batch.append_column("lang_pred", pa.array(preds.tolist(), pa.string()))


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Adds `fingerprint`: polynomial rolling hash (base-257, mod 2^64 via
    uint64 wraparound) over the normalized text (whitespace-collapsed,
    lowercased) — order-sensitive, vectorized across the WHOLE batch:
    normalization via Arrow kernels, then one flat uint8 view of the
    string buffer with per-document exponents and a segmented reduceat
    (no per-row Python)."""
    col = pc.coalesce(batch.column(text_col), pa.scalar(""))
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(col), pattern=r"\s+", replacement=" ")
    ).combine_chunks()
    n = len(norm)
    if n == 0:
        return batch.append_column("fingerprint", pa.array([], pa.uint64()))
    # zero-copy views of the utf8 buffer: offsets (int32, +arr.offset) and
    # byte data
    off_buf = np.frombuffer(norm.buffers()[1], dtype=np.int32)
    offs = off_buf[norm.offset : norm.offset + n + 1].astype(np.int64)
    data_all = np.frombuffer(norm.buffers()[2], dtype=np.uint8)
    starts = offs[:-1]
    ends = offs[1:]
    lens = ends - starts
    total = int(ends[-1] - offs[0])
    out = np.zeros(n, np.uint64)
    # the flat-view math assumes contiguous segments (true for any
    # freshly-built kernel output); fall back to the per-row path if a
    # sliced/composed array ever violates it
    if total and not np.array_equal(starts[1:], ends[:-1]):
        with np.errstate(over="ignore"):
            for i in range(n):
                bts = data_all[starts[i] : ends[i]].astype(np.uint64)
                if len(bts):
                    p = np.full(len(bts), np.uint64(257), dtype=np.uint64)
                    p[0] = 1
                    out[i] = np.uint64((bts * np.cumprod(p)[::-1]).sum()) & np.uint64(
                        (1 << 63) - 1
                    )
        return batch.append_column("fingerprint", pa.array(out, pa.uint64()))
    if total:
        seg = data_all[offs[0] : offs[0] + total].astype(np.uint64)
        max_len = int(lens.max())
        with np.errstate(over="ignore"):
            powers = np.empty(max_len, dtype=np.uint64)
            powers[0] = 1
            if max_len > 1:
                np.cumprod(np.full(max_len - 1, 257, dtype=np.uint64), out=powers[1:])
            # exponent of byte at global pos g in doc i = ends[i]-1-g
            rel_ends = (ends - offs[0]).astype(np.int64)
            exp = np.repeat(rel_ends, lens) - 1 - np.arange(total, dtype=np.int64)
            terms = seg * powers[exp]
            # segmented sum; reduceat misbehaves on empty segments — fix up
            red_starts = np.minimum(starts - offs[0], total - 1)
            sums = np.add.reduceat(terms, red_starts)
            out = np.where(lens > 0, sums, np.uint64(0)).astype(np.uint64)
        out &= np.uint64((1 << 63) - 1)
    return batch.append_column("fingerprint", pa.array(out, pa.uint64()))

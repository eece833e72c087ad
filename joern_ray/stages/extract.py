"""Text extraction + code-fragment detection over raw html.

`extract_text` is a **pure function of the html bytes** — the north-rule
invariant is byte-identical extracted text per url (BASELINE.json
input_hint).  It is the analogue of the reference's deterministic
preprocessing (e.g. `EjsPreprocessor` stripping templating before parse,
`jssrc2cpg/.../preprocessing/EjsPreprocessor.scala`) and must stay
dependency-free and version-pinned: stdlib `re` + `html.unescape` only.

`detect_fragments` finds embedded code blocks and reports them as
`(url, fragment_idx, lang, code, byte_start, byte_end)` rows; malformed
blocks become reject rows instead of exceptions (failure-isolation
semantics of the reference's per-file skip,
`c2cpg/.../AstCreationPass.scala:200-215`).

Both run inside `map_batches(batch_format="pyarrow")`; the html column is
only read here — everything downstream carries spans + extracted strings,
never the raw page (SURVEY.md §7.4 "very wide rows ... project html away").
"""

from __future__ import annotations

import html as _htmlmod
import re

import pyarrow as pa

from ..functions.hashing import hash64_bytes
from ..schemas import FRAGMENTS_SCHEMA, REJECTS_SCHEMA, rows_to_table

# --- extract_text ----------------------------------------------------------

_DROP_RE = re.compile(
    r"<!--.*?-->|<script\b[^>]*>.*?</script\s*>|<style\b[^>]*>.*?</style\s*>",
    re.S | re.I,
)
_TAG_SPLIT_RE = re.compile(r"(<[^>]*>)")
_BLOCK_TAGS = frozenset(
    "p div br hr h1 h2 h3 h4 h5 h6 li ul ol table tr td th nav header footer "
    "section article aside main blockquote pre title head body html form".split()
)
_WS_RE = re.compile(r"[ \t\r\n\f\v]+")
_NL_RE = re.compile(r"\n{2,}")
_TAGNAME_RE = re.compile(r"</?\s*([a-zA-Z0-9]+)")


def extract_text(html: bytes) -> str:
    """html bytes -> extracted text. Pure, deterministic, stdlib-only.

    Rules: drop comments/script/style; `<pre>`…`</pre>` content is kept
    verbatim (entities unescaped); other text has whitespace collapsed to
    single spaces; block-level tags introduce newlines; runs of blank
    lines collapse to one; result is stripped.
    """
    s = html.decode("utf-8", errors="replace")
    s = _DROP_RE.sub("", s)
    parts = _TAG_SPLIT_RE.split(s)
    out: list[str] = []
    pre_depth = 0
    for part in parts:
        if not part:
            continue
        if part.startswith("<"):
            m = _TAGNAME_RE.match(part)
            if not m:
                continue
            tag = m.group(1).lower()
            if tag == "pre":
                pre_depth = max(0, pre_depth + (-1 if part.startswith("</") else 1))
            if tag in _BLOCK_TAGS:
                out.append("\n")
            continue
        text = _htmlmod.unescape(part)
        if pre_depth > 0:
            out.append(text)
        else:
            collapsed = _WS_RE.sub(" ", text)
            if collapsed and collapsed != " ":
                out.append(collapsed)
    joined = "".join(out)
    joined = _NL_RE.sub("\n", joined)
    return joined.strip()


# --- detect_fragments ------------------------------------------------------

_FRAG_RE = re.compile(
    rb'<pre><code class="language-([a-zA-Z+#]+)">(.*?)</code></pre>', re.S
)
_FRAG_OPEN_RE = re.compile(rb'<pre><code class="language-([a-zA-Z+#]+)">')

_LANG_ALIASES = {
    "json": "json",
    "yaml": "yaml",
    "xml": "xml",
    "c": "c",
    "cpp": "cpp",
    "c++": "cpp",
    "java": "java",
    "javascript": "javascript",
    "js": "javascript",
    "python": "python",
    "py": "python",
    "python3": "python",
    "go": "go",
    "golang": "go",
    "ruby": "ruby",
    "rb": "ruby",
    "php": "php",
    "kotlin": "kotlin",
    "kt": "kotlin",
    "csharp": "csharp",
    "cs": "csharp",
    "c#": "csharp",
    "rust": "rust",
    "rs": "rust",
    "swift": "swift",
}


_FRAG_BARE_RE = re.compile(rb"<pre><code>(.*?)</code></pre>", re.S)

# content markers for the language guess, checked IN ORDER (first hit
# wins) — reference `console/.../cpgcreation/package.scala:63-77` guesses
# by extension majority; web fragments have no filenames, so obvious
# syntax markers come first and the in-document majority is the
# "directory majority" analog
_CONTENT_MARKERS: list[tuple[str, "re.Pattern"]] = [
    ("php", re.compile(r"<\?php|\$\w+\s*->")),
    ("c", re.compile(r"#include\s*<|\bprintf\s*\(|\bmalloc\s*\(")),
    ("cpp", re.compile(r"\bstd::|\btemplate\s*<|\bnullptr\b")),
    # csharp BEFORE java: `public static class` matches both, the
    # C#-only markers disambiguate
    ("csharp", re.compile(r"\busing\s+System\b|\bnamespace\s+\w+|\bConsole\.Write")),
    ("java", re.compile(r"\bpublic\s+(static\s+)?(class|void|int)\b|\bSystem\.out\b")),
    # swift BEFORE go: both declare with `func`, but only Swift types
    # params with a colon (`func f(x: Int)`); the other markers are
    # Swift-only keywords
    ("swift", re.compile(r"\bfunc\s+\w+\s*\([^)]*:|\bimport\s+Foundation\b|\bguard\s+let\b|\bextension\s+[A-Z]")),
    ("go", re.compile(r"^package\s+\w+|\bfunc\s+\w+\s*\(", re.M)),
    ("rust", re.compile(r"\bfn\s+\w+\s*\(|\blet\s+mut\b|\bimpl\s+\w+|::<?\w+")),
    ("ruby", re.compile(r"\bdef\s+\w+.*\n(.|\n)*?\bend\b|\battr_accessor\b")),
    ("python", re.compile(r"\bdef\s+\w+\s*\(.*\)\s*:|\bimport\s+\w+$|\belif\b", re.M)),
    ("javascript", re.compile(r"\bfunction\s*\w*\s*\(|\bconst\s+\w+\s*=|=>")),
]


def guess_language(code: str, doc_majority: "str | None" = None) -> str:
    """Language for an UNTAGGED code block: obvious syntax markers first,
    then the surrounding document's majority language (the reference's
    directory-majority vote), else unknown."""
    for lang, pat in _CONTENT_MARKERS:
        if pat.search(code):
            return lang
    return doc_majority or "unknown"


def detect_fragments_in_html(url: str, html: bytes):
    """-> (fragment_rows, reject_rows). Byte offsets index the raw html."""
    frags: list[dict] = []
    rejects: list[dict] = []
    n_closed = 0
    for m in _FRAG_RE.finditer(html):
        lang_raw = m.group(1).decode("ascii", "replace").lower()
        code = _htmlmod.unescape(m.group(2).decode("utf-8", "replace"))
        frags.append(
            {
                "url": url,
                "fragment_idx": len(frags),
                "frag_lang": _LANG_ALIASES.get(lang_raw, "unknown"),
                "code": code,
                "byte_start": m.start(2),
                "byte_end": m.end(2),
                "content_hash": hash64_bytes(code.encode()),
            }
        )
        n_closed += 1
    # bare <pre><code> blocks (no language class): majority vote —
    # content markers first, then the document's classified majority
    bare = list(_FRAG_BARE_RE.finditer(html))
    if bare:
        from collections import Counter

        tallies = Counter(
            f["frag_lang"] for f in frags if f["frag_lang"] != "unknown"
        )
        doc_majority = tallies.most_common(1)[0][0] if tallies else None
        for m in bare:
            code = _htmlmod.unescape(m.group(1).decode("utf-8", "replace"))
            frags.append(
                {
                    "url": url,
                    "fragment_idx": len(frags),
                    "frag_lang": guess_language(code, doc_majority),
                    "code": code,
                    "byte_start": m.start(1),
                    "byte_end": m.end(1),
                    "content_hash": hash64_bytes(code.encode()),
                }
            )
    n_open = sum(1 for _ in _FRAG_OPEN_RE.finditer(html))
    if n_open > n_closed:
        rejects.append(
            {
                "url": url,
                "fragment_idx": n_closed,
                "stage": "detect_fragments",
                "reason": "unclosed_code_block",
            }
        )
    return frags, rejects


def detect_fragments_batch(batch: pa.Table) -> pa.Table:
    """flat_map-style: docs batch -> fragments table (tagged with rejects
    and one `doc` passthrough row per input url).

    Output unions fragment rows, reject rows and doc rows in ONE table
    with a `row_kind` discriminator so a single map_batches emits all
    streams; a cheap downstream filter splits them (Ray Data has
    single-output operators only).  The `doc` rows let the parse stage
    emit FILE nodes without a second pass over the docs table (each url
    is seen exactly once here).
    """
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    frag_rows: list[dict] = []
    rej_rows: list[dict] = []
    for url, html in zip(urls, htmls):
        f, r = detect_fragments_in_html(url, html)
        frag_rows.extend(f)
        rej_rows.extend(r)
    frag_t = rows_to_table(frag_rows, FRAGMENTS_SCHEMA)
    rej_t = rows_to_table(rej_rows, REJECTS_SCHEMA)
    n_f, n_r, n_d = len(frag_rows), len(rej_rows), len(urls)
    kind = pa.array(
        ["fragment"] * n_f + ["reject"] * n_r + ["doc"] * n_d, pa.string()
    )
    # union into one wide table: fragments cols + reject cols + row_kind
    cols: dict[str, pa.Array] = {}
    for name in FRAGMENTS_SCHEMA.names:
        typ = FRAGMENTS_SCHEMA.field(name).type
        if name == "url":
            cols[name] = pa.concat_arrays(
                [
                    frag_t.column(name).combine_chunks(),
                    rej_t.column(name).combine_chunks(),
                    pa.array(urls, typ),
                ]
            )
        elif name == "fragment_idx":
            cols[name] = pa.concat_arrays(
                [
                    frag_t.column(name).combine_chunks(),
                    rej_t.column(name).combine_chunks(),
                    pa.nulls(n_d, typ),
                ]
            )
        else:
            cols[name] = pa.concat_arrays(
                [frag_t.column(name).combine_chunks(), pa.nulls(n_r + n_d, typ)]
            )
    for name in ("stage", "reason"):
        typ = REJECTS_SCHEMA.field(name).type
        cols[name] = pa.concat_arrays(
            [pa.nulls(n_f, typ), rej_t.column(name).combine_chunks(), pa.nulls(n_d, typ)]
        )
    cols["row_kind"] = kind
    return pa.table(cols)

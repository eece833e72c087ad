"""Seeded webtext corpora for the benchmark, with the facts planted in them.

This generator is the benchmark's own: it imports nothing from `joern_ray`,
so a change to the program cannot change the benchmark's inputs. A corpus
is a pure function of (workload, seed).

Every fragment sits in a `<pre><code class="language-X">` block of an html
page. Besides the filler that sets each workload's shape, both corpora carry
the same planted facts, each in a page of its own so that one fact cannot
mask another:

- uniquely named function definitions (`defs`: url + full name),
- C calls from one page to a uniquely named C function defined on another
  page (`xcalls`),
- one positive and one negative page for each planted scanner pattern
  (`scan_pos` / `scan_neg`),
- `p = malloc(n); free(p);` pairs whose allocation must reach the `free`
  argument through data flow (`uaf`).

No page calls a function named `exec`, `eval`, `system` or `loads`, on any
seed: the `py-exec` scanner query fails on such a graph (see README.md).
"""

from __future__ import annotations

import html
import random
from dataclasses import dataclass, field

LANGS = (
    "c", "cpp", "java", "javascript", "python", "go",
    "ruby", "php", "kotlin", "csharp", "rust", "swift",
)

# pages per workload; both corpora hold about the same number of fragments
MIXED_DOCS = 60
BOILER_DOCS = 60
FRAGS_PER_DOC = 4
# of every 20 boilerplate fragments: 16 exact copies of a pool entry, 3
# near-copies (one constant changed), 1 unique
BOILER_KINDS = ("copy",) * 16 + ("near",) * 3 + ("unique",)

N_XCALLS = 4
N_UAF = 4

_WORDS = (
    "the graph of code on the web is large and most of it repeats "
    "parse link query build index page post answer snippet example"
).split()


@dataclass
class Corpus:
    """Pages plus the facts the checks compare the program's output with."""

    workload: str
    seed: int
    docs: list = field(default_factory=list)  # (url, html bytes)
    fragments: list = field(default_factory=list)  # (url, lang, code)
    defs: list = field(default_factory=list)  # (url, full_name)
    xcalls: list = field(default_factory=list)  # (caller_url, callee, def_url)
    scan_pos: dict = field(default_factory=dict)  # query -> [url]
    scan_neg: dict = field(default_factory=dict)  # query -> [url]
    uaf: list = field(default_factory=list)  # (url, var, alloc_code)
    pool_size: int = 0
    copies: int = 0
    near_copies: int = 0


def _tok(r: random.Random) -> str:
    return "".join(r.choice("abcdefghijkmnpqrstuvwxyz23456789") for _ in range(7))


# ---- distinct fragments: one uniquely named definition each --------------
# Each maker returns (code, full_name of the planted definition). `pad` is a
# block of arithmetic and branches on the local `s`, so that a distinct
# fragment carries enough statements for parse to dominate a build.

N_PAD = 6

# per language: (assignment, branch) with {a}/{b} constants and {i} indent
_STMT = {
    "c": ("{i}s = s + {a} * {b};\n", "{i}if (s > {a}) {{\n{i}  s = s - {b};\n{i}}}\n"),
    "javascript": ("{i}s = s + {a} * {b};\n", "{i}if (s > {a}) {{\n{i}  s = s - {b};\n{i}}}\n"),
    "python": ("{i}s = s + {a} * {b}\n", "{i}if s > {a}:\n{i}    s = s - {b}\n"),
    "go": ("{i}s = s + {a} * {b}\n", "{i}if s > {a} {{\n{i}    s = s - {b}\n{i}}}\n"),
    "ruby": ("{i}s = s + {a} * {b}\n", "{i}if s > {a}\n{i}  s = s - {b}\n{i}end\n"),
    "php": ("{i}$s = $s + {a} * {b};\n", "{i}if ($s > {a}) {{\n{i}  $s = $s - {b};\n{i}}}\n"),
    "kotlin": ("{i}s = s + {a} * {b}\n", "{i}if (s > {a}) {{\n{i}    s = s - {b}\n{i}}}\n"),
    "rust": ("{i}s = s + {a} * {b};\n", "{i}if s > {a} {{\n{i}    s = s - {b};\n{i}}}\n"),
    "swift": ("{i}s = s + {a} * {b}\n", "{i}if s > {a} {{\n{i}    s = s - {b}\n{i}}}\n"),
}
for _l in ("cpp", "java", "csharp"):
    _STMT[_l] = _STMT["c"]


def _pad(lang: str, r: random.Random, indent: str) -> str:
    assign, branch = _STMT[lang]
    return "".join(
        (assign if k % 2 == 0 else branch).format(i=indent, a=r.randint(2, 99), b=r.randint(2, 9))
        for k in range(N_PAD)
    )


def _c(t: str, r: random.Random):
    k, m = r.randint(2, 9), r.randint(10, 99)
    return (
        f"int mx_{t}(int a, int b) {{\n"
        "  int s = 0;\n"
        + _pad("c", r, "  ")
        + "  for (int i = 0; i < a; i++) {\n"
        f"    if (i % {k} == 0) {{\n      s = s + b;\n    }} else {{\n      s = s - 1;\n    }}\n"
        "  }\n"
        f"  while (s > {m}) {{\n    s = s / 2;\n  }}\n"
        "  return s;\n"
        "}\n"
    ), f"mx_{t}"


def _cpp(t: str, r: random.Random):
    n = r.randint(2, 64)
    return (
        f"int *cx_{t}(int n) {{\n"
        "  int s = 0;\n"
        + _pad("cpp", r, "  ")
        + f"  int *buf = new int({n});\n"
        "  if (buf == nullptr) {\n    return nullptr;\n  }\n"
        "  for (int i = 0; i < n; i++) {\n    buf[0] = buf[0] + i + s;\n  }\n"
        "  return buf;\n"
        "}\n"
    ), f"cx_{t}"


def _java(t: str, r: random.Random):
    k, m = r.randint(2, 9), r.randint(10, 99)
    cls = "J" + t.capitalize()
    return (
        f"public class {cls} {{\n"
        "  private int count;\n"
        f"  public int run_{t}(int x) {{\n"
        "    int s = x;\n"
        + _pad("java", r, "    ")
        + f"    for (int i = 0; i < {k}; i++) {{\n      s = s + i;\n    }}\n"
        f"    if (s > {m}) {{\n      return s;\n    }}\n"
        "    return count;\n"
        "  }\n"
        "}\n"
    ), f"{cls}.run_{t}"


def _javascript(t: str, r: random.Random):
    k = r.randint(2, 9)
    return (
        f"function js_{t}(obj) {{\n"
        f"  var s = obj.p{k};\n"
        + _pad("javascript", r, "  ")
        + "  if (s) {\n    return s;\n  }\n"
        f"  for (var i = 0; i < {k}; i++) {{\n    s = s + i;\n  }}\n"
        "  return null;\n"
        "}\n"
    ), f"js_{t}"


def _python(t: str, r: random.Random):
    k, m = r.randint(1, 9), r.randint(1, 3)
    return (
        f"def py_{t}(x: int) -> int:\n"
        f"    s = x + {k}\n"
        + _pad("python", r, "    ")
        + "    for i in [1, 2, 3]:\n"
        f"        if i > {m}:\n"
        "            s += i\n"
        "    return s\n"
    ), f"py_{t}"


def _go(t: str, r: random.Random):
    k = r.randint(2, 9)
    return (
        f"package g{t}\n"
        f"func Go_{t}(n int) int {{\n"
        "    s := 0\n"
        + _pad("go", r, "    ")
        + f"    for i := 0; i < {k}; i++ {{\n        s += n\n    }}\n"
        "    return s\n"
        "}\n"
    ), f"g{t}.Go_{t}"


def _ruby(t: str, r: random.Random):
    v = r.randint(1, 9)
    return (
        f"def rb_{t}(n)\n"
        f"  s = n + {v}\n"
        + _pad("ruby", r, "  ")
        + "  return s\n"
        "end\n"
    ), f"rb_{t}"


def _php(t: str, r: random.Random):
    v = r.randint(1, 9)
    return (
        "<?php\n"
        f"function ph_{t}($xs) {{\n"
        "  $s = 0;\n"
        + _pad("php", r, "  ")
        + "  foreach ($xs as $x) {\n    $s = $s + $x;\n  }\n"
        f"  return $s + {v};\n"
        "}\n"
        "?>\n"
    ), f"ph_{t}"


def _kotlin(t: str, r: random.Random):
    v = r.randint(1, 9)
    return (
        f"fun kt_{t}(n: Int): Int {{\n"
        "    var s = 0\n"
        + _pad("kotlin", r, "    ")
        + "    when (n) {\n"
        f"        0 -> s = {v}\n"
        "        else -> s = n\n"
        "    }\n"
        "    return s\n"
        "}\n"
    ), f"kt_{t}"


def _csharp(t: str, r: random.Random):
    v = r.randint(1, 9)
    cls = "Cs" + t.capitalize()
    return (
        "using System;\n"
        f"public class {cls} {{\n"
        f"    public int Run_{t}(int x) {{\n"
        "        int s = x;\n"
        + _pad("csharp", r, "        ")
        + f"        return s + {v};\n"
        "    }\n"
        "}\n"
    ), f"{cls}.Run_{t}"


def _rust(t: str, r: random.Random):
    v = r.randint(1, 9)
    return (
        f"fn rs_{t}(n: i64) -> i64 {{\n"
        f"    let mut s = n + {v};\n"
        + _pad("rust", r, "    ")
        + "    for i in items {\n        s = s + i;\n    }\n"
        "    return s;\n"
        "}\n"
    ), f"rs_{t}"


def _swift(t: str, r: random.Random):
    v = r.randint(1, 9)
    return (
        f"func sw_{t}(n: Int) -> Int {{\n"
        f"    var s = n + {v}\n"
        + _pad("swift", r, "    ")
        + "    return s\n"
        "}\n"
    ), f"sw_{t}"

DISTINCT = {
    "c": _c, "cpp": _cpp, "java": _java, "javascript": _javascript,
    "python": _python, "go": _go, "ruby": _ruby, "php": _php,
    "kotlin": _kotlin, "csharp": _csharp, "rust": _rust, "swift": _swift,
}

# ---- boilerplate pool: shared helper FQNs, duplicated class names and hot
# calls. `{v}` is the constant a near-copy changes.
POOL = (
    ("c", "static int helper() {{\n  return {v};\n}}\n"),
    ("c", 'int log_value(int n) {{\n  printf("v=%d\\n", n + {v});\n  return n;\n}}\n'),
    ("c", "int grow_buffer(int n) {{\n  void *p = malloc(n * {v});\n  return p != 0;\n}}\n"),
    ("c", "int clamp(int x) {{\n  if (x > {v}) {{\n    return {v};\n  }}\n  return x;\n}}\n"),
    ("java", "public class Widget {{\n  private int count;\n"
             "  public int getCount() {{\n    return count + {v};\n  }}\n}}\n"),
    ("java", "public class Config {{\n  public int timeout() {{\n    return {v};\n  }}\n}}\n"),
    ("javascript", "function trackEvent(e) {{\n  var n = e.count + {v};\n  return n;\n}}\n"),
    ("python", "def format_row(x: int) -> int:\n    return x + {v}\n"),
    ("go", "package util\nfunc Max(a int, b int) int {{\n    if a > b {{\n        return a\n    }}\n"
           "    return b + {v}\n}}\n"),
    ("csharp", "using System;\npublic class Logger {{\n    public int Write(int x) {{\n"
               "        return x + {v};\n    }}\n}}\n"),
)

# ---- planted scanner patterns: query -> (positive, negative) C fragments.
# Patterns whose query expands call sites (`gets`, `strcpy`, ...) are left
# out: each planted callee adds Ray executions to every pass, and a run has
# to fit its time budget.
SCAN_PATTERNS = {
    "format-string": (
        "int say_{t}(char *msg) {{\n  printf(msg);\n  return 0;\n}}\n",
        'int say_{t}(void) {{\n  printf("hello\\n");\n  return 0;\n}}\n',
    ),
    "malloc-unchecked": (
        "int grab_{t}(int n) {{\n  char *q = malloc(n);\n  return q != 0;\n}}\n",
        "int grab_{t}(int n) {{\n  char *q = calloc(n, 1);\n  return q != 0;\n}}\n",
    ),
    "mult-in-alloc": (
        "int alloc_{t}(int n) {{\n  char *q = malloc(n * 8);\n  return q != 0;\n}}\n",
        "int alloc_{t}(int n) {{\n  char *q = malloc(n + 8);\n  return q != 0;\n}}\n",
    ),
    "use-after-free-candidate": (
        "int uaf_{t}(void) {{\n  char *x = malloc(8);\n  free(x);\n  return x[0];\n}}\n",
        "int uaf_{t}(char *x) {{\n  free(x);\n  return 0;\n}}\n",
    ),
}


def _page(url: str, r: random.Random, frags: list) -> bytes:
    parts = [f"<html><head><title>{url}</title></head><body>"]
    for lang, code in frags:
        words = " ".join(r.choice(_WORDS) for _ in range(r.randint(6, 16)))
        parts.append(f"<p>{words}</p>")
        parts.append(
            f'<pre><code class="language-{lang}">{html.escape(code, quote=False)}</code></pre>'
        )
    parts.append("<footer>example</footer></body></html>")
    return "".join(parts).encode("utf-8")


def _add_page(c: Corpus, r: random.Random, frags: list) -> str:
    url = f"https://{c.workload}.example/{c.seed}/{len(c.docs)}"
    c.docs.append((url, _page(url, r, frags)))
    c.fragments.extend((url, lang, code) for lang, code in frags)
    return url


def _distinct(r: random.Random, lang: str) -> tuple:
    code, full_name = DISTINCT[lang](_tok(r), r)
    return lang, code, full_name


def _plant(c: Corpus, r: random.Random) -> None:
    """Pages of planted facts, identical in shape for every workload."""
    for _ in range(N_XCALLS):
        t, v = _tok(r), r.randint(2, 9)
        callee = f"xd_{t}"
        def_url = _add_page(c, r, [("c", f"int {callee}(int v) {{\n  return v * {v} + 1;\n}}\n")])
        call_url = _add_page(
            c, r, [("c", f"int xc_{t}(void) {{\n  int r = {callee}({v});\n  return r;\n}}\n")]
        )
        c.defs.append((def_url, callee))
        c.xcalls.append((call_url, callee, def_url))
    for q, (pos, neg) in sorted(SCAN_PATTERNS.items()):
        c.scan_pos[q] = [_add_page(c, r, [("c", pos.format(t=_tok(r)))])]
        c.scan_neg[q] = [_add_page(c, r, [("c", neg.format(t=_tok(r)))])]
    for _ in range(N_UAF):
        t, n = _tok(r), r.randint(8, 64)
        var = f"p_{t}"
        alloc = f"{var} = malloc({n})"
        code = (
            f"int release_{t}(void) {{\n  char *{alloc};\n  {var}[0] = 'a';\n"
            f"  free({var});\n  return 0;\n}}\n"
        )
        c.uaf.append((_add_page(c, r, [("c", code)]), var, alloc))


def make_corpus(workload: str, seed: int, filler_docs: "int | None" = None) -> Corpus:
    """The corpus of `workload` for `seed`: filler pages that give the
    workload its shape (`filler_docs` of them, default the workload's own
    count), then the planted-fact pages."""
    r = random.Random(f"{workload}:{seed}")
    c = Corpus(workload, seed)
    # The seed draws names, constants, text and which page holds which
    # fragment; how many fragments of each language and kind there are is
    # fixed, so that the work of a build hardly moves from seed to seed.
    if workload == "build_mixed":
        n = MIXED_DOCS if filler_docs is None else filler_docs
        langs = [LANGS[i % len(LANGS)] for i in range(n * FRAGS_PER_DOC)]
        r.shuffle(langs)
        for d in range(n):
            frags = [_distinct(r, lang) for lang in langs[d * FRAGS_PER_DOC:(d + 1) * FRAGS_PER_DOC]]
            url = _add_page(c, r, [(lang, code) for lang, code, _ in frags])
            c.defs.extend((url, fn) for _, _, fn in frags)
    elif workload == "build_boilerplate":
        n = BOILER_DOCS if filler_docs is None else filler_docs
        c.pool_size = len(POOL)
        # (kind, pool entry or language): pool entries and the unique
        # fragments' languages go round-robin
        slots = [
            (BOILER_KINDS[i % len(BOILER_KINDS)], i) for i in range(n * FRAGS_PER_DOC)
        ]
        r.shuffle(slots)
        for d in range(n):
            frags, unique = [], []
            for kind, i in slots[d * FRAGS_PER_DOC:(d + 1) * FRAGS_PER_DOC]:
                if kind == "unique":
                    lang, code, full_name = _distinct(r, LANGS[i // len(BOILER_KINDS) % len(LANGS)])
                    frags.append((lang, code))
                    unique.append(full_name)
                else:
                    lang, tmpl = POOL[i % len(POOL)]
                    frags.append((lang, tmpl.format(v=r.randint(10, 99) if kind == "near" else 1)))
                    c.near_copies += kind == "near"
                    c.copies += kind == "copy"
            url = _add_page(c, r, frags)
            c.defs.extend((url, fn) for fn in unique)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _plant(c, r)
    return c


def docs_table(c: Corpus):
    """The pages as the program's docs table: (url, warc_ts, html, text, lang)."""
    import pyarrow as pa

    n = len(c.docs)
    return pa.table(
        {
            "url": pa.array([u for u, _ in c.docs], pa.string()),
            "warc_ts": pa.array([1_767_225_600_000_000 + i for i in range(n)], pa.timestamp("us")),
            "html": pa.array([h for _, h in c.docs], pa.large_binary()),
            "text": pa.array([""] * n, pa.string()),
            "lang": pa.array(["en"] * n, pa.string()),
        }
    )


def describe(c: Corpus) -> dict:
    """Corpus make-up for the README and the traced run's output."""
    from collections import Counter

    per_lang = Counter(lang for _, lang, _ in c.fragments)
    distinct = len({(lang, code) for _, lang, code in c.fragments})
    return {
        "docs": len(c.docs),
        "fragments": len(c.fragments),
        "fragments_per_lang": dict(sorted(per_lang.items())),
        "distinct_share": round(distinct / max(1, len(c.fragments)), 3),
        "pool_size": c.pool_size,
        "copies": c.copies,
        "near_copies": c.near_copies,
        "planted_defs": len(c.defs),
        "planted_xcalls": len(c.xcalls),
        "planted_scan_patterns": len(c.scan_pos),
        "planted_uaf": len(c.uaf),
    }

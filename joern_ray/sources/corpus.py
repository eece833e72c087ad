"""Deterministic synthetic webtext corpus (FIXTURES.md §1-2).

Generates the `input_hint` table shape `(url, warc_ts, html, text, lang)`
with embedded C / C++ / Java / JavaScript code fragments modeled on the
reference's test programs (`tests/code/c/test.c`, `CallTests.scala:17-23`,
`tests/code/jssrc/simple.js`, `tests/code/javasrc/MethodTest.java` — see
FIXTURES.md F1-F10).  Everything is a pure function of (seed, doc index):
no wall clock, no network, no external data.

Scale path: the corpus is generated *distributed* — `ray.data.range(n)`
→ `map_batches(gen_docs_batch)` — so the bench corpus never materializes
on the driver.  `text` is stored as `extract_text(html)` so tests can
assert the byte-identical-extraction invariant per url.
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa

from ..schemas import DOCS_SCHEMA
from ..stages.extract import extract_text

SEED = 42
EPOCH_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00Z in microseconds

# ---------------------------------------------------------------------------
# Fragment template bank.  Each template is (lang, fn taking a Random ->
# code str).  Templates are parameterized so FQNs/bodies vary per doc while
# remaining deterministic.
# ---------------------------------------------------------------------------

_HOT_CALLS = ["malloc", "printf", "memcpy"]  # hot-key skew fodder (F8)


def _f1_c_call(r: random.Random) -> str:
    a, b = r.randint(1, 9), r.randint(1, 9)
    fn = f"add{r.randint(0, 999)}"
    return (
        f"int {fn}(int x, int y) {{ return x + y; }}\n"
        f'int main(int argc, char **argv) {{ printf("%d\\n", {fn}(({a}+{b}), {b})); }}\n'
    )


def _f2_c_def(r: random.Random) -> str:
    k = r.randint(0, 49)
    return (
        "#include <stdio.h>\n"
        f"void print_number_{k}(int x) {{\n  printf(\"%d\\n\", x);\n}}\n"
    )


def _f2_c_use(r: random.Random) -> str:
    k = r.randint(0, 49)
    v = r.randint(1, 99)
    return (
        f"int main(void) {{\n  print_number_{k}({v});\n  return 0;\n}}\n"
    )


def _f3_c_uaf(r: random.Random) -> str:
    n = r.randint(8, 64)
    return (
        "int use_after_free(void) {\n"
        f"  char *x = malloc({n});\n"
        "  free(x);\n"
        "  x[0] = 'a';\n"
        "  return x[0];\n"
        "}\n"
    )


def _f4_c_control(r: random.Random) -> str:
    lim = r.randint(2, 9)
    return (
        "int control(int x) {\n"
        f"  if (x < {lim}) {{\n    x = x + 1;\n  }} else {{\n    x = x - 1;\n  }}\n"
        f"  while (x > 0 && x < {lim * 2}) {{\n    x--;\n  }}\n"
        f"  for (int i = 0; i < {lim}; i++) {{\n    x += i;\n  }}\n"
        "  return x;\n"
        "}\n"
    )


def _f5_js(r: random.Random) -> str:
    prop = f"prop{r.randint(0, 99)}"
    return (
        "function lookForProperty(obj) {\n"
        f"  var found = obj.{prop};\n"
        "  if (found) {\n    return found;\n  }\n"
        "  return null;\n"
        "}\n"
        f"var handler = function (x) {{ return lookForProperty(x); }};\n"
        f"var fired = handler({{ {prop}: {r.randint(1, 9)} }});\n"
    )


def _f6_java(r: random.Random) -> str:
    cls = f"Widget{r.randint(0, 199)}"
    n = r.randint(1, 9)
    return (
        f"public class {cls} {{\n"
        "  private int count;\n"
        f"  public {cls}(int c) {{ this.count = c; }}\n"
        "  public int getCount() { return count; }\n"
        f"  public int callsExternalMethod(int x) {{\n"
        f"    int y = externalLib(x + {n});\n"
        "    return y * count;\n"
        "  }\n"
        "}\n"
    )


def _f7_dup(r: random.Random) -> str:
    v = r.randint(1, 5)
    # FQN "helper" is intentionally shared across many docs (F7 canonicalization)
    return f"static int helper() {{ return {v}; }}\n"


def _f8_hot(r: random.Random) -> str:
    h = r.choice(_HOT_CALLS)
    n = r.randint(16, 256)
    if h == "malloc":
        body = f"  void *p = malloc({n});\n  return p != 0;\n"
    elif h == "printf":
        body = f'  printf("v=%d\\n", {n});\n  return 1;\n'
    else:
        body = f"  char b[{n}];\n  memcpy(b, src, {n});\n  return 1;\n"
    return f"int hot_{h}_{r.randint(0, 9)}(char *src) {{\n{body}}}\n"


def _f9_neardup(r: random.Random) -> str:
    # same body shape, perturbed identifiers/whitespace (minhash fodder)
    v = r.choice(["val", "value", "v", "tmp"])
    pad = " " * r.randint(0, 3)
    return (
        f"int accumulate(int *{v}, int n) {{\n"
        f"{pad}  int total = 0;\n"
        f"{pad}  for (int i = 0; i < n; i++) {{ total += {v}[i]; }}\n"
        f"{pad}  return total;\n"
        "}\n"
    )


def _f11_json(r: random.Random) -> str:
    name = f"pkg{r.randint(0, 99)}"
    return (
        '{\n  "name": "%s",\n  "version": "1.%d.%d",\n'
        '  "dependencies": { "lodash": "^4.%d.0" }\n}\n'
        % (name, r.randint(0, 9), r.randint(0, 9), r.randint(0, 17))
    )


def _f10_cpp(r: random.Random) -> str:
    n = r.randint(2, 20)
    return (
        f"int *grow(int n) {{\n  int *buf = new int({n});\n"
        "  if (buf == nullptr) { return nullptr; }\n"
        "  delete buf;\n  return buf;\n}\n"
    )


def _f12_py_def(r: random.Random) -> str:
    k = r.randint(0, 49)
    n = r.randint(1, 9)
    return (
        f"def py_helper_{k}(x: int) -> int:\n"
        f"    y = x + {n}\n"
        "    return y\n"
        f"def py_main_{r.randint(0, 199)}():\n"
        f"    total = py_helper_{k}({n})\n"
        "    for i in [1, 2, 3]:\n"
        "        if i > 1:\n"
        "            total += i\n"
        "    return total\n"
    )


def _f13_py_class(r: random.Random) -> str:
    cls = f"Handler{r.randint(0, 99)}"
    v = r.randint(1, 9)
    return (
        f"class {cls}:\n"
        "    def handle(self, x: int) -> int:\n"
        "        return x\n"
        f"class Retry{cls}({cls}):\n"
        "    def handle(self, x: int) -> int:\n"
        f"        return x + {v}\n"
        f"def dispatch_{r.randint(0, 99)}(n: int) -> int:\n"
        f"    h = {cls}()\n"
        "    return h.handle(n)\n"
    )


def _f14_py_client(r: random.Random) -> str:
    """Uses Handler/RetryHandler classes DEFINED IN OTHER DOCUMENTS
    (template _f13): the receiver type is recovered by the parse-time
    symbol table as a dynamic type HINT (XTypeRecovery), the first call
    resolves single-hint, the reassigned receiver's second call carries
    a multi-hint list through XTypeHintCallLinker."""
    k = r.randint(0, 99)
    k2 = r.randint(0, 99)
    return (
        f"def client_{r.randint(0, 199)}(n: int) -> int:\n"
        f"    h = Handler{k}()\n"
        "    v = h.handle(n)\n"
        f"    h = RetryHandler{k2}()\n"
        "    return h.handle(v)\n"
    )


def _f15_ruby(r: random.Random) -> str:
    """Ruby class hierarchy + typed-receiver dispatch (rubysrc2cpg-analog
    frontend, round 4): Job.new types the local, j.perform dispatches
    dynamically with the RetryJob override as SAFEDISPATCH candidate."""
    k = r.randint(0, 99)
    v = r.randint(1, 9)
    return (
        f"class Job{k}\n"
        "  def perform(x)\n"
        "    return x\n"
        "  end\n"
        "end\n"
        f"class RetryJob{k} < Job{k}\n"
        "  def perform(x)\n"
        f"    return x + {v}\n"
        "  end\n"
        "end\n"
        f"def submit_{r.randint(0, 199)}(n)\n"
        f"  j = Job{k}.new\n"
        "  return j.perform(n)\n"
        "end\n"
    )


def _f16_go(r: random.Random) -> str:
    """Go package func + receiver method (gosrc2cpg-analog frontend)."""
    k = r.randint(0, 99)
    lim = r.randint(2, 9)
    return (
        f"package svc{k}\n"
        f"type Counter{k} struct {{\n    total int\n}}\n"
        f"func (c *Counter{k}) Add(n int) int {{\n"
        "    c.total += n\n"
        "    return c.total\n"
        "}\n"
        f"func Scale{k}(n int) int {{\n"
        "    total := 0\n"
        f"    for i := 0; i < {lim}; i++ {{\n"
        "        total += n\n"
        "    }\n"
        "    return total\n"
        "}\n"
    )


def _f17_csharp(r: random.Random) -> str:
    """C# class hierarchy + var-allocation typing (csharpsrc2cpg-analog
    frontend, round 5): `var s = new Svc()` types the local, s.Run
    dispatches dynamically with the Retry override as candidate."""
    k = r.randint(0, 99)
    v = r.randint(1, 9)
    return (
        "using System;\n"
        f"public class Svc{k} {{\n"
        "    public int Total { get; set; }\n"
        "    public virtual int Run(int x) {\n"
        "        return x;\n"
        "    }\n"
        "}\n"
        f"public class RetrySvc{k} : Svc{k} {{\n"
        "    public override int Run(int x) {\n"
        f"        return x + {v};\n"
        "    }\n"
        "}\n"
        f"public static class App{r.randint(0, 199)} {{\n"
        "    public static int Main(int n) {\n"
        f"        var s = new Svc{k}();\n"
        "        Console.WriteLine(n);\n"
        "        return s.Run(n);\n"
        "    }\n"
        "}\n"
    )


def _f18_php(r: random.Random) -> str:
    """PHP class + $this qualification + foreach (php2cpg-analog)."""
    k = r.randint(0, 99)
    v = r.randint(1, 9)
    return (
        "<?php\n"
        f"class Cart{k} {{\n"
        "  public $items;\n"
        "  public function total($xs) {\n"
        "    $sum = 0;\n"
        "    foreach ($xs as $x) {\n"
        "      $sum = $sum + $x;\n"
        "    }\n"
        "    return $sum;\n"
        "  }\n"
        "  public function checkout($xs) {\n"
        f"    return $this->total($xs) + {v};\n"
        "  }\n"
        "}\n"
        f"$c = new Cart{k}();\n"
        "echo $c->checkout(array(1, 2));\n"
        "?>\n"
    )


def _f19_kotlin(r: random.Random) -> str:
    """Kotlin class + body property + when lowering (kotlin2cpg-analog)."""
    k = r.randint(0, 99)
    v = r.randint(1, 9)
    return (
        f"class Task{k}(val name: String) {{\n"
        "    var retries: Int = 0\n"
        "    fun run(x: Int): Int {\n"
        "        return x\n"
        "    }\n"
        "}\n"
        f"fun schedule{r.randint(0, 199)}(n: Int): Int {{\n"
        f"    val t = Task{k}(\"job\")\n"
        "    var total = 0\n"
        "    when (n) {\n"
        f"        0 -> total = {v}\n"
        "        else -> total = n\n"
        "    }\n"
        "    return t.run(total)\n"
        "}\n"
    )


def _f20_rust(r: random.Random) -> str:
    """Rust struct + impl methods + Type::new typing (rust2cpg-analog)."""
    k = r.randint(0, 99)
    v = r.randint(1, 9)
    return (
        f"struct Meter{k} {{\n    count: i64,\n}}\n"
        f"impl Meter{k} {{\n"
        f"    fn new() -> Meter{k} {{\n"
        f"        return Meter{k} {{ count: {v} }};\n"
        "    }\n"
        "    fn bump(&self, n: i64) -> i64 {\n"
        "        return self.count + n;\n"
        "    }\n"
        "}\n"
        f"fn observe{r.randint(0, 199)}(n: i64) -> i64 {{\n"
        f"    let m = Meter{k}::new();\n"
        "    let mut total = 0;\n"
        "    for i in items {\n"
        "        total = total + i;\n"
        "    }\n"
        "    return m.bump(total);\n"
        "}\n"
    )


def _f21_swift(r: random.Random) -> str:
    """Swift class + extension method + C() init typing
    (swiftsrc2cpg-analog)."""
    k = r.randint(0, 99)
    v = r.randint(1, 9)
    return (
        f"class Counter{k} {{\n"
        "    var total: Int = 0\n"
        "    func add(n: Int) -> Int {\n"
        f"        return self.total + n + {v}\n"
        "    }\n"
        "}\n"
        f"extension Counter{k} {{\n"
        "    func reset() -> Int {\n"
        "        return 0\n"
        "    }\n"
        "}\n"
        f"func tally{r.randint(0, 199)}(xs: Int) -> Int {{\n"
        f"    let c = Counter{k}()\n"
        "    guard let v = c.add(n: xs) else {\n"
        "        return 0\n"
        "    }\n"
        "    return v\n"
        "}\n"
    )


# (template fn, lang, weight) — language mix: C ~28 %, JS ~15 %, Java
# ~11 %, Python ~13 % (round 2: pysrc2cpg-analog frontend; round 3:
# type-hint client template), C++ ~6 %, Ruby ~5 %, Go ~3 %, plus the
# round-5 frontends C# ~4 %, PHP ~3 %, Kotlin ~3 %, Rust ~3 %,
# Swift ~3 % (corpus v6: every shipped frontend appears in
# method_lang_counts).
_TEMPLATES: list[tuple] = [
    (_f1_c_call, "c", 8),
    (_f2_c_def, "c", 4),
    (_f2_c_use, "c", 4),
    (_f3_c_uaf, "c", 6),
    (_f4_c_control, "c", 6),
    (_f7_dup, "c", 4),
    (_f8_hot, "c", 8),
    (_f9_neardup, "c", 4),
    (_f5_js, "javascript", 24),
    (_f6_java, "java", 17),
    (_f12_py_def, "python", 8),
    (_f13_py_class, "python", 7),
    (_f14_py_client, "python", 5),
    (_f10_cpp, "cpp", 10),
    (_f11_json, "json", 4),
    (_f15_ruby, "ruby", 8),
    (_f16_go, "go", 5),
    (_f17_csharp, "csharp", 6),
    (_f18_php, "php", 5),
    (_f19_kotlin, "kotlin", 4),
    (_f20_rust, "rust", 5),
    (_f21_swift, "swift", 4),
]
_TEMPLATE_POP = [t for t in _TEMPLATES for _ in range(t[2])]

_TOPICS = ["news", "blog", "docs", "forum", "wiki", "qa", "tutorial", "code"]
_WORDS = (
    "the quick brown fox jumps over lazy dog while considering distributed "
    "systems data pipelines arrow columnar execution shuffles streaming "
    "backpressure graph knowledge entity linking canonical forms"
).split()


def _escape_html(code: str) -> str:
    return code.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def gen_doc(i: int, seed: int = SEED) -> dict:
    """Pure function (seed, i) -> one docs row."""
    r = random.Random((seed << 20) ^ i)
    topic = _TOPICS[i % len(_TOPICS)]
    url = f"https://host{i % 97}.example/{topic}/{i}"
    lang = "en" if r.random() < 0.9 else r.choice(["de", "zh"])

    # 0-3 code blocks; ~1.2 mean. 5 % of docs share byte-identical blocks
    # (exact-dup fodder): they draw from a tiny fixed pool.
    n_frags = r.choices([0, 1, 2, 3], weights=[25, 45, 22, 8])[0]
    frags: list[tuple[str, str]] = []
    for _ in range(n_frags):
        if r.random() < 0.05:
            rr = random.Random(seed ^ 0xDEAD ^ (i % 7))  # shared pool of 7
            fn, flang, _w = rr.choice(_TEMPLATE_POP)
            frags.append((flang, fn(rr)))
        else:
            fn, flang, _w = r.choice(_TEMPLATE_POP)
            frags.append((flang, fn(r)))

    paras = [
        " ".join(r.choice(_WORDS) for _ in range(r.randint(8, 24)))
        for _ in range(r.randint(2, 5))
    ]
    parts = [
        f"<html><head><title>{topic} {i}</title>",
        "<script>trackPageView();</script><style>.x{color:red}</style></head>",
        f'<body><nav>home | {topic}</nav><h1>{topic} page {i}</h1>',
    ]
    for j, para in enumerate(paras):
        parts.append(f"<p>{para}</p>")
        if j < len(frags):
            flang, code = frags[j]
            name = flang
            parts.append(
                f'<pre><code class="language-{name}">{_escape_html(code)}</code></pre>'
            )
    # leftover frags after the last paragraph
    for flang, code in frags[len(paras):]:
        parts.append(
            f'<pre><code class="language-{flang}">{_escape_html(code)}</code></pre>'
        )
    # 1 % malformed pages: unclosed code block (reject-path fodder, F10)
    if r.random() < 0.01:
        parts.append('<pre><code class="language-c">int broken = ')
    parts.append("<footer>© example</footer></body></html>")
    html = "".join(parts).encode("utf-8")
    return {
        "url": url,
        "warc_ts": EPOCH_US + i * 1_337_000_000,
        "html": html,
        "text": extract_text(html),
        "lang": lang,
    }


def gen_docs_batch(batch: "pa.Table | dict", seed: int = SEED) -> pa.Table:
    """map_batches UDF over `ray.data.range(n)` — batch carries an `id`
    column of doc indices."""
    ids = batch["id"] if isinstance(batch, dict) else batch.column("id")
    idx = np.asarray(ids)
    rows = [gen_doc(int(i), seed) for i in idx]
    return pa.table(
        {
            "url": pa.array([d["url"] for d in rows], pa.string()),
            "warc_ts": pa.array(
                [d["warc_ts"] for d in rows], pa.timestamp("us")
            ),
            "html": pa.array([d["html"] for d in rows], pa.large_binary()),
            "text": pa.array([d["text"] for d in rows], pa.string()),
            "lang": pa.array([d["lang"] for d in rows], pa.string()),
        },
        schema=DOCS_SCHEMA,
    )


def docs_dataset(n_docs: int, seed: int = SEED, parallelism: int = -1):
    """Distributed corpus as a Ray Dataset (lazy; generation happens inside
    map_batches tasks, never on the driver)."""
    import ray.data

    ds = ray.data.range(n_docs, override_num_blocks=parallelism if parallelism > 0 else None)
    return ds.map_batches(
        lambda b: gen_docs_batch(b, seed), batch_format="pyarrow", batch_size=256
    )


def docs_table(n_docs: int, seed: int = SEED, offset: int = 0) -> pa.Table:
    """Driver-side small corpus for unit tests (no Ray)."""
    rows = pa.table({"id": pa.array(range(offset, offset + n_docs), pa.int64())})
    return gen_docs_batch(rows, seed)

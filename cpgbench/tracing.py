"""Tracing for the traced run, done from outside the program.

`Tracer.install()` wraps, in this process only:

- the layer functions the driver calls during a build (`partitioned_write`
  as bound in `joern_ray.pipelines.cpg`, `minhash_dedup`), recording spans;
- the driver's Ray boundary: every streaming execution started
  (`StreamingExecutor.execute`), every batch iterated into the driver
  (`DataIterator._iter_batches`, which `iter_batches`, `iter_rows`, `take`
  and `to_pandas` all go through) and every `ray.put`.

Spans and counters stay in memory and are written to a file at the end.
The untraced run installs nothing.

`Stopwatch` is the benchmark's clock for both runs: wall time net of the
hypervisor steal in the same interval.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
import time
from contextlib import contextmanager


def steal_s() -> float:
    """Hypervisor steal time so far, per CPU: time the CPUs were ready to
    run but held back by the host (/proc/stat sums it over all CPUs)."""
    with open("/proc/stat") as f:
        steal = int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    return steal / (os.cpu_count() or 1)


class Stopwatch:
    """Elapsed wall time net of the steal in the same interval. On a shared
    host the steal during one run ranged from 4 % to half of its wall time
    and moved every timing with it; the program's own time does not
    include it."""

    def __init__(self) -> None:
        self.t0, self.s0 = time.perf_counter(), steal_s()

    def net(self) -> float:
        return (time.perf_counter() - self.t0) - (steal_s() - self.s0)


def _batch_size(b) -> tuple:
    """(rows, bytes) of one batch in any of Ray Data's batch formats."""
    if hasattr(b, "num_rows") and hasattr(b, "nbytes"):  # pyarrow.Table
        return b.num_rows, b.nbytes
    if hasattr(b, "memory_usage"):  # pandas.DataFrame
        return len(b), int(b.memory_usage(index=False).sum())
    if isinstance(b, dict):  # numpy batch
        vals = list(b.values())
        return (len(vals[0]) if vals else 0), sum(getattr(v, "nbytes", 0) for v in vals)
    return len(b), 0


def _put_size(obj) -> int:
    nb = getattr(obj, "nbytes", None)
    if isinstance(nb, int):
        return nb
    try:
        return len(pickle.dumps(obj, protocol=5))
    except Exception:  # noqa: BLE001 -- unpicklable objects are counted as 0 bytes
        return 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent)
        self.counters: dict = {}
        self._local = threading.local()  # span stack per thread: builds write from threads
        self._lock = threading.Lock()
        self._undo: list = []

    # ---- spans and counters -------------------------------------------
    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            with self._lock:
                self.spans.append((name, t0, time.perf_counter(), parent))

    def add(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self.counters)

    def span_total(self, name: str, since: float = 0.0) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name and s >= since)

    # ---- wrapping --------------------------------------------------------
    def _patch(self, owner, attr: str, make) -> None:
        orig = getattr(owner, attr)
        setattr(owner, attr, make(orig))
        self._undo.append((owner, attr, orig))

    def _spanned(self, name: str):
        def make(orig):
            def wrapped(*a, **k):
                with self.span(name):
                    return orig(*a, **k)

            return wrapped

        return make

    def install(self) -> None:
        import ray
        from ray.data._internal.execution.streaming_executor import StreamingExecutor
        from ray.data.iterator import DataIterator

        import joern_ray.pipelines.cpg as cpg_mod
        import joern_ray.stages.dedup as dedup_mod

        self._patch(cpg_mod, "partitioned_write", self._spanned("io.partitioned_write"))
        self._patch(dedup_mod, "minhash_dedup", self._spanned("dedup.minhash_dedup"))

        tracer = self

        def make_execute(orig):
            def execute(self_, *a, **k):
                tracer.add("ray.executions")
                return orig(self_, *a, **k)

            return execute

        def make_iter(orig):
            def _iter_batches(self_, *a, **k):
                it = orig(self_, *a, **k)

                def gen():
                    for b in it:
                        rows, nbytes = _batch_size(b)
                        tracer.add("driver.collect_rows", rows)
                        tracer.add("driver.collect_bytes", nbytes)
                        yield b

                return gen()

            return _iter_batches

        def make_put(orig):
            def put(value, *a, **k):
                tracer.add("driver.put_bytes", _put_size(value))
                return orig(value, *a, **k)

            return put

        self._patch(StreamingExecutor, "execute", make_execute)
        self._patch(DataIterator, "_iter_batches", make_iter)
        self._patch(ray, "put", make_put)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def write(self, path: str, extra: dict) -> None:
        t0 = min((s for _, s, _, _ in self.spans), default=0.0)
        with open(path, "w") as f:
            json.dump(
                {
                    "spans": [
                        {"name": n, "start_s": round(s - t0, 6), "end_s": round(e - t0, 6), "parent": p}
                        for n, s, e, p in self.spans
                    ],
                    "counters": self.counters,
                    **extra,
                },
                f,
                indent=1,
            )


def layer_benches(corpus, tracer: Tracer) -> dict:
    """In-process numbers for the build's layers, over the corpus's pages
    and fragments: fragment detection, each frontend's `parse()`, CFG
    overlays, and the `ParseFragments` stage with its template cache."""
    import pyarrow.compute as pc

    from joern_ray.graph.cfg import method_overlays
    from joern_ray.stages.extract import detect_fragments_batch
    from joern_ray.stages.parse import ParseFragments

    from corpus import LANGS, docs_table  # noqa: I001 -- the benchmark's own module

    out = {}
    docs = docs_table(corpus)
    with tracer.span("stages.extract"):
        sw = Stopwatch()
        frags = detect_fragments_batch(docs)
        dt = sw.net()
    out["extract.docs_per_s"] = (docs.num_rows / dt, "1/s")

    stage = ParseFragments()
    distinct = {}
    for _url, lang, code in corpus.fragments:
        distinct.setdefault(lang, {}).setdefault(code, None)
    roots = []
    for lang in LANGS:
        codes = list(distinct.get(lang, {}))
        parser = stage.parsers[lang]
        with tracer.span(f"parsing.{lang}"):
            sw = Stopwatch()
            for i, code in enumerate(codes):
                roots.append(parser.parse(code, "https://bench/parse", i))
            dt = sw.net()
        out[f"parsing.{lang}.frags_per_s"] = (len(codes) / dt if codes else 0.0, "1/s")

    with tracer.span("graph.cfg"):
        sw = Stopwatch()
        for root in roots:
            method_overlays(root)
        out["cfg.overlays_s"] = (sw.net(), "s")

    only = frags.filter(pc.equal(frags.column("row_kind"), "fragment"))
    with tracer.span("stages.parse"):
        sw = Stopwatch()
        stage(frags)
        dt = sw.net()
    out["parse.frags_per_s"] = (only.num_rows / dt, "1/s")
    total = stage.hits + stage.misses
    out["parse.cache_hit_ratio"] = (stage.hits / total if total else 0.0, "ratio")
    return out

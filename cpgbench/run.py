#!/usr/bin/env python3
"""Seeded build-and-query benchmark for joern_ray.

    python3 cpgbench/run.py --workload build_mixed --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. One run:

1. set-up: starts a local Ray cluster of NUM_CPUS logical CPUs, generates the
   workload's corpus from the seed (three times; the median counts) and
   writes it as Parquet;
2. measurement: whole rounds while `--seconds` have not passed (a round is
   far longer than the window, so a run makes one round). A round is one
   cold `build_cpg` into a fresh directory, then one query pass over the
   graph by a single closed-loop client: a Neo4j-CSV export, the DSL
   traversals of `checks.DSL_TRAVERSALS`, the SCAN_QUARTER of the scanner
   queries and one `reachable_by`. The traced run builds twice, exports
   EXPORTS times and runs every scanner query;
3. checks of every output (see checks.py);
4. teardown: Ray shut down, every child process ended, the Ray session
   directory and the work directory removed.

Times are wall time net of hypervisor steal (`tracing.Stopwatch`).

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` -- the end-to-end metrics with `--trace 0`, the
per-layer metrics with `--trace 1`. A traced run also writes its spans and
counters to `.cpgbench_traces/`.

An operation that does not end by the run's deadline counts as failed; the
run then stops, tears down and reports.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import time
from statistics import median

from tracing import Stopwatch

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".cpgbench_work")
TRACES = os.path.join(ROOT, ".cpgbench_traces")
# Ray's session sockets live under its temp dir and a unix socket path may
# not exceed 107 bytes, so the dir name is short
RAY_TMP = os.path.join(ROOT, ".cbr")
RAY_TMP_MAX = 40

# the tier-1 test fixture's cluster size; at 2 or fewer logical CPUs
# `build_cpg` hangs (README.md, fault 3)
NUM_CPUS = 4
OBJECT_STORE_BYTES = 512 << 20
FINGERPRINT = "cpgbench"
RUN_DEADLINE_S = 160  # every operation must end this long after the start
WORKLOADS = ("build_mixed", "build_boilerplate")
# An untraced pass runs every fourth scanner query of the bundle, from
# position 1: the whole bundle costs 30-45 s of Ray executions, and a run
# has to fit the benchmark's time budget. The traced run times all 43.
SCAN_QUARTER = slice(1, None, 4)
# the traced pass exports this many times, for the per-layer median; the
# untraced pass exports once, for the export check
EXPORTS = 3
SMOKE_DOCS = 4


class Hung(Exception):
    """An operation did not end by the run's deadline."""


def bounded(fn, deadline: float):
    """fn() in a daemon thread; raise Hung if it has not returned by the
    perf_counter `deadline`."""
    box: dict = {}

    def target():
        try:
            box["value"] = fn()
        except BaseException as e:  # noqa: BLE001 -- re-raised in the caller
            box["error"] = e

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(max(0.0, deadline - time.perf_counter()))
    if t.is_alive():
        raise Hung(getattr(fn, "__name__", "operation"))
    if "error" in box:
        raise box["error"]
    return box["value"]


def rss_bytes() -> int:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


class PeakRss:
    """Highest driver RSS while the block runs, sampled every 10 ms."""

    def __enter__(self):
        self.peak = rss_bytes()
        self._stop = threading.Event()
        self._t = threading.Thread(target=self._run, daemon=True)
        self._t.start()
        return self

    def _run(self):
        while not self._stop.wait(0.01):
            self.peak = max(self.peak, rss_bytes())

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join()
        self.peak = max(self.peak, rss_bytes())


def tree_size(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _dirs, names in os.walk(path) for f in names
    )


def descendants(pid: int) -> list:
    """Pids of every live process below `pid`, read from /proc."""
    children: dict = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z":  # a zombie has ended; reaping it is its parent's job
            children.setdefault(int(ppid), []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        for c in children.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def log(msg: str) -> None:
    print(f"[cpgbench] {msg}", file=sys.stderr, flush=True)


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool, filler_docs=None) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.filler_docs = filler_docs
        self.t_start = time.perf_counter()
        self.deadline = self.t_start + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.failed_ops: list = []
        self.problems: list = []  # check failures
        self.m: dict = {}  # metric name -> list of samples
        self.layer: dict = {}  # per-layer metric name -> (value, unit)
        self.tracer = None
        self.session_dir = None

    def sample(self, name: str, value: float) -> None:
        self.m.setdefault(name, []).append(value)

    # ---- set-up ----------------------------------------------------------
    def start_ray(self) -> None:
        import ray

        kw = {}
        if len(RAY_TMP) <= RAY_TMP_MAX:
            kw["_temp_dir"] = RAY_TMP
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            include_dashboard=False,
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            **kw,
        )
        self.session_dir = ray._private.worker._global_node.get_session_dir_path()
        # ray.init installs its own SIGTERM handler; a stop request must
        # unwind through this run's teardown instead
        signal.signal(signal.SIGTERM, _stop)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False

    def setup(self) -> None:
        import pyarrow.parquet as pq

        from corpus import docs_table, make_corpus

        sw = Stopwatch()
        # in the main thread: Ray ties its daemons' lives to the starting thread
        self.start_ray()
        ray_s = sw.net()
        self.docs_path = os.path.join(WORK, "docs.parquet")
        gen = []
        for _ in range(3):
            sw = Stopwatch()
            self.corpus = make_corpus(self.workload, self.seed, self.filler_docs)
            pq.write_table(docs_table(self.corpus), self.docs_path)
            gen.append(sw.net())
        self.sample("setup_s", ray_s + median(gen))
        log(f"set-up: ray {ray_s:.2f}s, corpus {median(gen):.2f}s")

    def docs_factory(self, columns):
        import ray.data

        return ray.data.read_parquet(self.docs_path, columns=columns)

    # ---- operations ----------------------------------------------------------
    def op(self, name: str, fn):
        """One attempted operation. -> (ok, value, seconds net of steal)."""
        self.attempted += 1
        sw = Stopwatch()
        try:
            value = bounded(fn, self.deadline)
        except Hung:
            self.failed += 1
            self.failed_ops.append(f"{name}: did not end by the deadline")
            raise
        except Exception as e:  # noqa: BLE001 -- a failed operation is counted, not fatal
            self.failed += 1
            self.failed_ops.append(f"{name}: {type(e).__name__}: {e}")
            return False, None, sw.net()
        dt = sw.net()
        log(f"  {name}: {dt:.3f}s net, {time.perf_counter() - sw.t0:.3f}s wall")
        return True, value, dt

    def build(self, tag: str):
        from joern_ray.pipelines.cpg import build_cpg

        import checks

        out = os.path.join(WORK, f"cpg-{tag}")
        shutil.rmtree(out, ignore_errors=True)
        snap = self.tracer.snapshot() if self.tracer else {}
        rss0 = rss_bytes()
        t_span = time.perf_counter()
        with PeakRss() as peak:
            ok, res, dt = self.op(f"build {tag}", lambda: build_cpg(self.docs_factory, out, FINGERPRINT))
        if not ok:
            return None
        self.sample("build_s", dt)
        self.sample("driver_peak_rss_mb", peak.peak / 2**20)
        self.sample("cpg_bytes", tree_size(out))
        con = checks.connect(res["nodes_path"], res["edges_path"])
        self.problems += checks.planted_defs(con, self.corpus.defs)
        self.problems += checks.planted_xcalls(con, self.corpus.xcalls)
        self.problems += checks.unique_ids(con)
        dangling, bad = checks.endpoints(con)
        self.problems += bad
        self.sample("cpg.dangling_type_refs", dangling)
        if self.tracer:
            self.trace_build(out, snap, rss0, t_span, dt)
        return res, con, checks.digest(con)

    def query_pass(self, res, con, tag: str) -> None:
        """One closed-loop pass over a built graph: exports, DSL
        traversals, scanner queries, then data flow."""
        import ray.data

        from joern_ray.graph.dataflow import reachable_by
        from joern_ray.io.export import export_neo4j_csv
        from joern_ray.query.dsl import Cpg
        from joern_ray.query.scanners import BUNDLE

        import checks

        cpg = Cpg(res["nodes_path"], res["edges_path"])
        tr = self.tracer
        busy = []  # the pass's operation times; its checks are not timed

        def op(name, fn):
            ok, value, dt = self.op(name, fn)
            busy.append(dt)
            return ok, value, dt

        with PeakRss() as peak:
            for k in range(EXPORTS if tr else 1):
                export_dir = os.path.join(WORK, f"neo4j-{tag}-{k}")
                edges_ds = ray.data.read_parquet(
                    res["edges_path"], columns=["subj", "pred", "obj", "variable"]
                )
                ok, exp, dt = op(
                    "export_neo4j_csv",
                    lambda: export_neo4j_csv(cpg.nodes_ds(), edges_ds, export_dir),
                )
                if ok:
                    self.problems += checks.export_counts(exp, res["nodes_path"], res["edges_path"])
                    if tr:
                        rows = checks.footer_rows(res["nodes_path"]) + checks.footer_rows(res["edges_path"])
                        self.sample("export.rows_per_s", rows / dt)
                shutil.rmtree(export_dir, ignore_errors=True)

            snap = tr.snapshot() if tr else {}
            for name, steps, sql in checks.DSL_TRAVERSALS:
                ok, t, dt = op(f"dsl {name}", lambda steps=steps: steps(cpg).l(["id"]))
                self.sample("query_s", dt)
                if ok:
                    self.problems += checks.dsl_answer(con, name, sql, t.column("id").to_pylist())
            if tr:
                now = tr.snapshot()
                rows = now.get("driver.collect_rows", 0) - snap.get("driver.collect_rows", 0)
                self.layer["dsl.collect_rows"] = (rows, "count")
            snap = self.delta("dsl.executions", snap)

            queries = BUNDLE if tr else BUNDLE[SCAN_QUARTER]
            findings: dict = {}
            scan_s = 0.0
            for q in queries:
                ok, t, dt = op(f"scan {q.name}", lambda q=q: q.traversal(cpg))
                scan_s += dt
                if ok:
                    findings[q.name] = set(t.column("url").to_pylist())
                if tr:
                    self.layer[f"scan.{q.name}_s"] = (dt, "s")
            snap = self.delta("scan.executions", snap)
            ran = {q.name for q in queries}
            self.problems += checks.scanner_findings(
                findings,
                {q: u for q, u in self.corpus.scan_pos.items() if q in ran},
                {q: u for q, u in self.corpus.scan_neg.items() if q in ran},
            )

            expect = checks.uaf_sinks(con, self.corpus.uaf)
            sinks = sorted({s for ss, _ in expect.values() for s in ss})
            # one call, timed per layer only: a call varies by up to half from
            # the next (every hop starts an actor pool), and the repeats a
            # steady median needs do not fit a run's time budget
            ok, t, dt = op("reachable_by", lambda: reachable_by(cpg.edges_ds, sinks))
            if ok:
                self.problems += checks.dataflow(expect, set(t.column("node").to_pylist()))
            if tr:
                self.layer["dataflow.reachable_by_s"] = (dt, "s")
            self.delta("dataflow.executions", snap)
        self.sample("driver_peak_rss_mb", peak.peak / 2**20)
        if tr:
            self.sample("trace.pass_s", sum(busy))
        log(f"pass {tag}: {sum(busy):.2f}s net in operations (scan {scan_s:.2f}s)")

    def delta(self, name: str, snap: dict) -> dict:
        """Record the streaming executions started since `snap`; -> new snap."""
        if not self.tracer:
            return snap
        now = self.tracer.snapshot()
        self.layer[name] = (now.get("ray.executions", 0) - snap.get("ray.executions", 0), "count")
        return now

    def round(self, n: int) -> None:
        """One cold build and one query pass over its graph. The traced run
        builds twice, to check that two cold builds agree, before its pass.
        No build follows a pass: `reachable_by` leaves its actors holding
        cluster CPUs for a while after it returns, and a build started then
        can wait on them for 20 s (README.md, fault 4)."""
        import checks

        builds = [self.build(f"{n}{k}") for k in range(2 if self.tracer else 1)]
        if len(builds) == 2 and all(builds):
            self.problems += checks.repeat_build(builds[0][2], builds[1][2])
        last = builds[-1]
        if last:
            self.query_pass(last[0], last[1], str(n))
            if self.tracer:
                self.minhash(last[0])
        for b in builds:
            if b:
                b[1].close()
                shutil.rmtree(b[0]["out_dir"], ignore_errors=True)

    # ---- traced run --------------------------------------------------------
    def trace_build(self, out: str, snap: dict, rss0: int, t_span: float, dt: float) -> None:
        tr = self.tracer
        now = tr.snapshot()
        for key in ("ray.executions", "driver.collect_rows", "driver.collect_bytes", "driver.put_bytes"):
            self.sample(key, now.get(key, 0) - snap.get(key, 0))
        self.sample("driver.rss_growth_mb", (rss_bytes() - rss0) / 2**20)
        self.sample("io.partitioned_write_s", tr.span_total("io.partitioned_write", since=t_span))
        phases = {
            "cpg.parse_s": "parse",
            "cpg.survey_s": "survey_agg",
            "cpg.canonicalize_s": "canonical_mt",
            "cpg.link_write_s": "edges",
        }
        total = 0.0
        for metric, stage in phases.items():
            with open(os.path.join(out, stage, "_manifest.json")) as f:
                wall = float(json.load(f).get("wall_s", 0.0))
            self.sample(metric, wall)
            total += wall
        self.sample("cpg.other_s", dt - total)
        self.sample("trace.build_s", dt)

    def minhash(self, res) -> None:
        import pyarrow as pa
        import ray.data

        from joern_ray.stages.dedup import minhash_dedup

        import checks

        con = checks.connect(res["nodes_path"], res["edges_path"])
        t = con.execute(
            "SELECT id::BIGINT AS method_id, code AS text FROM nodes"
            " WHERE label = 'METHOD' AND coalesce(code, '') <> '' ORDER BY id"
        ).arrow()
        con.close()
        ds = ray.data.from_arrow(pa.table({"method_id": t["method_id"], "text": t["text"]}))
        ok, _, dt = self.op(
            "minhash_dedup",
            lambda: minhash_dedup(ds, text_col="text", id_col="method_id").materialize(),
        )
        self.layer["dedup.minhash_s"] = (dt, "s")

    # ---- the run -------------------------------------------------------------
    def execute(self) -> dict:
        import ray

        try:
            self.setup()
            if self.trace:
                from tracing import Tracer, layer_benches

                self.tracer = Tracer()
                self.layer.update(layer_benches(self.corpus, self.tracer))
                self.tracer.install()
            t_measure = time.perf_counter()
            n = 0
            while True:
                self.round(n)
                n += 1
                if self.trace or time.perf_counter() - t_measure >= self.seconds:
                    break
        except Hung:
            pass
        finally:
            if self.tracer:
                self.tracer.uninstall()
            self.teardown(ray)
        return self.result()

    def teardown(self, ray) -> None:
        t0 = time.perf_counter()
        # processes whose parent dies are re-parented away from this tree,
        # so note every one before Ray goes down
        tree = set(descendants(os.getpid()))
        try:
            ray.shutdown()
        except Exception as e:  # noqa: BLE001 -- leftovers are killed below
            print(f"ray.shutdown: {type(e).__name__}: {e}", file=sys.stderr)
        for _ in range(50):
            left = [p for p in tree | set(descendants(os.getpid())) if alive(p)]
            if not left:
                break
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.1)
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:  # reap our own ended children
                pass
        except ChildProcessError:
            pass
        if self.session_dir:
            shutil.rmtree(self.session_dir, ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)
        shutil.rmtree(WORK, ignore_errors=True)
        log(f"teardown: {time.perf_counter() - t0:.2f}s; run: {time.perf_counter() - self.t_start:.2f}s")

    def result(self) -> dict:
        for p in self.problems:
            print(f"check failed: {p}", file=sys.stderr)
        for p in self.failed_ops:
            print(f"operation failed: {p}", file=sys.stderr)
        metrics: dict = {}
        if not self.trace:
            units = {
                "setup_s": "s", "build_s": "s", "cpg_bytes": "bytes", "driver_peak_rss_mb": "MB",
            }
            for name, unit in units.items():
                if self.m.get(name):
                    metrics[name] = {"value": median(self.m[name]), "unit": unit}
        else:
            units = {
                "ray.executions": "count", "driver.collect_rows": "count",
                "driver.collect_bytes": "bytes", "driver.put_bytes": "bytes",
                "driver.rss_growth_mb": "MB", "io.partitioned_write_s": "s",
                "cpg.parse_s": "s", "cpg.survey_s": "s", "cpg.canonicalize_s": "s",
                "cpg.link_write_s": "s", "cpg.other_s": "s", "cpg.dangling_type_refs": "count",
                "trace.build_s": "s", "trace.pass_s": "s", "export.rows_per_s": "1/s",
                "query_s": "s",
            }
            for name, unit in units.items():
                if self.m.get(name):
                    key = "dsl.query_p50_s" if name == "query_s" else name
                    metrics[key] = {"value": median(self.m[name]), "unit": unit}
            for name, (value, unit) in sorted(self.layer.items()):
                metrics[name] = {"value": value, "unit": unit}
            os.makedirs(TRACES, exist_ok=True)
            self.tracer.write(
                os.path.join(TRACES, f"{self.workload}-seed{self.seed}.json"),
                {"workload": self.workload, "seed": self.seed, "metrics": metrics},
            )
        return {
            "correct": not self.problems,
            "attempted": max(1, self.attempted),
            "failed": self.failed,
            "metrics": metrics,
        }


def _stop(*_):
    sys.exit(143)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--smoke", action="store_true",
        help=f"{SMOKE_DOCS} filler pages besides the planted ones: proves the path, measures nothing",
    )
    args = ap.parse_args(argv)
    # a stop request unwinds through the run's teardown
    signal.signal(signal.SIGTERM, _stop)

    sys.path.insert(0, ROOT)
    try:
        import joern_ray  # noqa: F401
    except ImportError as e:
        print(f"cpgbench: the program is not here ({e}); run from a checkout root", file=sys.stderr)
        return 2
    # Ray workers are started by this process's raylet and inherit its
    # environment: they need the program and the benchmark's modules
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    filler = SMOKE_DOCS if args.smoke else None
    result = Run(args.workload, args.seed, args.seconds, bool(args.trace), filler).execute()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except SystemExit as e:  # a stop request, after the run's teardown
        code = e.code if isinstance(e.code, int) else 1
    sys.stdout.flush()
    sys.stderr.flush()
    # Ray has been shut down and every child ended; exit at once, without
    # waiting on Ray's background threads (or an operation's thread left
    # running past its deadline)
    os._exit(code)

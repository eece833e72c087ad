"""`build_cpg` in a fresh Ray session of its own: it completes on a
2-CPU cluster, because the parse stage runs as plain tasks and no actor
pool pins the CPUs its read and write tasks need; it starts Ray Data's
stats actor before it calls `docs_factory`, so that cold start overlaps
the docs read's instead of following it; and it never imports polars on
the driver, whose only users are worker UDFs (importing it there after
ray.data raised the driver's peak RSS by ~20 MB)."""

import functools
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SESSION = textwrap.dedent(
    """
    import sys

    import ray

    ray.init(
        address="local",
        num_cpus=2,
        include_dashboard=False,
        object_store_memory=256 << 20,
        _temp_dir=sys.argv[2],
    )
    from joern_ray.pipelines.cpg import build_cpg
    from joern_ray.sources.corpus import docs_dataset
    """
)

BUILD = SESSION + textwrap.dedent(
    """
    res = build_cpg(lambda columns: docs_dataset(24, parallelism=2), sys.argv[1], "twocpu-24")
    print("BUILT", res["resumed"], flush=True)
    print("POLARS ON DRIVER", "polars" in sys.modules, flush=True)
    ray.shutdown()
    """
)

# the docs factory looks for the stats actor before it builds any Dataset
STATS_ACTOR_FIRST = SESSION + textwrap.dedent(
    """
    import time

    from ray.data._internal.stats import STATS_ACTOR_NAME

    def docs(columns):
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if any(
                a["name"] == STATS_ACTOR_NAME
                for a in ray.util.list_named_actors(all_namespaces=True)
            ):
                print("STATS ACTOR BEFORE DOCS", flush=True)
                break
            time.sleep(0.05)
        return docs_dataset(8, parallelism=2)

    res = build_cpg(docs, sys.argv[1], "stats-actor-8")
    print("BUILT", res["resumed"], flush=True)
    ray.shutdown()
    """
)


def _run(script: str) -> str:
    """Run `script` in a fresh interpreter with its own Ray session;
    returns its output after checking it exited 0 and built."""
    tmp = tempfile.mkdtemp(prefix="jr2c", dir="/tmp")  # short: unix socket paths
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", script, os.path.join(tmp, "out"), os.path.join(tmp, "r")],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,  # one process group: a hang kills Ray's daemons too
    )
    try:
        out, _ = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        raise AssertionError("build_cpg did not finish in 240 s on 2 CPUs:\n" + out[-3000:])
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        shutil.rmtree(tmp, ignore_errors=True)
    assert proc.returncode == 0 and "BUILT False" in out, out[-3000:]
    return out


@functools.cache
def _two_cpu_build() -> str:
    return _run(BUILD)


def test_build_on_two_cpus():
    _two_cpu_build()


def test_build_keeps_polars_off_the_driver():
    out = _two_cpu_build()
    assert "POLARS ON DRIVER False" in out, out[-3000:]


def test_stats_actor_starts_before_docs_read():
    out = _run(STATS_ACTOR_FIRST)
    assert "STATS ACTOR BEFORE DOCS" in out, out[-3000:]

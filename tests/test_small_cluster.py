"""`build_cpg` completes on a 2-CPU cluster: the parse stage runs as plain
tasks, so no actor pool pins the CPUs its read and write tasks need."""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = textwrap.dedent(
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

    res = build_cpg(lambda columns: docs_dataset(24, parallelism=2), sys.argv[1], "twocpu-24")
    print("BUILT", res["resumed"], flush=True)
    ray.shutdown()
    """
)


def test_build_on_two_cpus():
    tmp = tempfile.mkdtemp(prefix="jr2c", dir="/tmp")  # short: unix socket paths
    env = dict(os.environ, PYTHONPATH=ROOT)
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, os.path.join(tmp, "out"), os.path.join(tmp, "r")],
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

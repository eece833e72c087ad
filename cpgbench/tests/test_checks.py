"""Self-tests of the benchmark's checks: each check must pass on a sound
output and fail on a deliberately broken one. The smoke tests run the
whole benchmark path on a tiny corpus.

    python3 -m pytest cpgbench/tests -q
"""

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.csv as pcsv
import pyarrow.parquet as pq
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402


def _graph(tmp_path):
    """A three-node graph: main() calls f(), with its edges over two files."""
    nodes = pa.table(
        {
            "id": pa.array([1, 2, 3], pa.uint64()),
            "label": ["METHOD", "CALL", "METHOD"],
            "name": ["f", "f", "main"],
            "full_name": ["f", None, "main"],
            "code": ["int f(void)", "f()", "int main(void)"],
            "url": ["u/def", "u/call", "u/call"],
            "line": pa.array([1, 2, 1], pa.int32()),
        }
    )
    nf = str(tmp_path / "nodes.parquet")
    pq.write_table(nodes, nf)
    e1 = pa.table(
        {"subj": pa.array([2], pa.uint64()), "pred": ["CALL"], "obj": pa.array([1], pa.uint64()),
         "variable": pa.array([None], pa.string())}
    )
    e2 = pa.table(
        {"subj": pa.array([3], pa.uint64()), "pred": ["AST"], "obj": pa.array([2], pa.uint64()),
         "variable": pa.array([None], pa.string())}
    )
    ef = [str(tmp_path / "e1.parquet"), str(tmp_path / "e2.parquet")]
    pq.write_table(e1, ef[0])
    pq.write_table(e2, ef[1])
    return [nf], ef


def test_edge_file_removed_fails_repeat_and_planted_call(tmp_path):
    nf, ef = _graph(tmp_path)
    full = checks.connect(nf, ef)
    assert checks.planted_xcalls(full, [("u/call", "f", "u/def")]) == []
    assert checks.endpoints(full) == (0, [])
    broken = checks.connect(nf, ef[1:])  # the file holding the CALL edge is gone
    assert checks.repeat_build(checks.digest(full), checks.digest(full)) == []
    assert checks.repeat_build(checks.digest(full), checks.digest(broken))
    assert checks.planted_xcalls(broken, [("u/call", "f", "u/def")])


def test_planted_definition_missing_fails(tmp_path):
    nf, ef = _graph(tmp_path)
    con = checks.connect(nf, ef)
    assert checks.planted_defs(con, [("u/def", "f")]) == []
    assert checks.planted_defs(con, [("u/def", "g")])


def test_dangling_edge_fails_endpoint_check(tmp_path):
    nf, ef = _graph(tmp_path)
    bad = pa.table(
        {"subj": pa.array([3], pa.uint64()), "pred": ["AST"], "obj": pa.array([99], pa.uint64()),
         "variable": pa.array([None], pa.string())}
    )
    pq.write_table(bad, str(tmp_path / "bad.parquet"))
    n, problems = checks.endpoints(checks.connect(nf, ef + [str(tmp_path / "bad.parquet")]))
    assert n == 0 and problems


def test_finding_dropped_fails():
    pos = {"call-to-gets": ["u/1"], "format-string": ["u/2"]}
    neg = {"call-to-gets": ["u/3"]}
    found = {"call-to-gets": {"u/1", "u/9"}, "format-string": {"u/2"}}
    assert checks.scanner_findings(found, pos, neg) == []
    dropped = {"call-to-gets": {"u/9"}, "format-string": {"u/2"}}
    assert checks.scanner_findings(dropped, pos, neg)
    assert checks.scanner_findings({"call-to-gets": {"u/1", "u/3"}, "format-string": {"u/2"}}, pos, neg)


def test_dsl_answer_off_by_one_row_fails(tmp_path):
    nf, ef = _graph(tmp_path)
    con = checks.connect(nf, ef)
    sql = "select id from nodes where label = 'METHOD'"
    assert checks.dsl_answer(con, "methods", sql, [1, 3]) == []
    assert checks.dsl_answer(con, "methods", sql, [1])
    assert checks.dsl_answer(con, "methods", sql, [1, 3, 3])


def test_dataflow_unreached_fails():
    expect = {"u/1": ([10], [20])}
    assert checks.dataflow(expect, {20, 30}) == []
    assert checks.dataflow(expect, {30})
    assert checks.dataflow({"u/1": ([], [20])}, {20})


def test_truncated_csv_export_fails(tmp_path):
    nf, ef = _graph(tmp_path)
    out = {"nodes": str(tmp_path / "csv_nodes"), "edges": str(tmp_path / "csv_edges")}
    for kind, files in (("nodes", nf), ("edges", ef)):
        os.makedirs(out[kind])
        for i, f in enumerate(files):
            pcsv.write_csv(pq.read_table(f), os.path.join(out[kind], f"{i}.csv"))
    assert checks.export_counts(out, nf, ef) == []
    victim = os.path.join(out["nodes"], "0.csv")
    with open(victim, "rb") as f:
        data = f.read()
    with open(victim, "wb") as f:
        f.write(data[: data.rindex(b"\n", 0, len(data) - 1) + 1])  # drop the last row
    assert checks.export_counts(out, nf, ef)
    with open(victim, "wb") as f:
        f.write(data[: len(data) // 2])  # cut inside a row
    assert checks.export_counts(out, nf, ef)


@pytest.mark.parametrize("workload,trace", [("build_mixed", 0), ("build_boilerplate", 1)])
def test_smoke_whole_path(workload, trace):
    """Every stage of a run, on a tiny corpus: correct, and only the py-exec
    scanner query fails (both passes include it)."""
    p = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    r = json.loads(p.stdout.strip().splitlines()[-1])
    assert r["correct"], p.stderr[-3000:]
    assert r["failed"] == 1 and "scan py-exec" in p.stderr
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    want = {m["name"] for m in bench["per_layer" if trace else "end_to_end"]}
    assert set(r["metrics"]) == want

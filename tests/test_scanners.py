"""t1: scanner query bundle (querydb analog) over a built CPG."""

import shutil

import pyarrow as pa
import pytest

OUT = "/tmp/joern_ray_test_scan"

VULN_DOC = (
    '<html><body><pre><code class="language-c">'
    "int main(int argc, char **argv) {\n"
    "  char buf[256];\n"
    "  gets(buf);\n"
    "  strcpy(buf, argv[1]);\n"
    "  system(buf);\n"
    "  printf(buf);\n"
    "  char *p = malloc(64);\n"
    "  free(p);\n"
    "  return p[0];\n"
    "}\n"
    "</code></pre></body></html>"
)


@pytest.fixture(scope="module")
def cpg(ray_session):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg
    from joern_ray.query.dsl import Cpg

    shutil.rmtree(OUT, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://vuln/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([VULN_DOC.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, OUT, "vuln-1")
    return Cpg(res["nodes_path"], res["edges_path"])


def test_scan_bundle_finds_the_planted_vulns(cpg):
    from joern_ray.query.scanners import run_scan

    findings = run_scan(cpg)
    names = set(findings.column("name").to_pylist())
    assert {
        "call-to-gets",
        "unbounded-string-copy",
        "shell-injection-sink",
        "format-string",
        "large-stack-buffer",
    } <= names
    # every finding carries a location
    assert all(u == "https://vuln/1" for u in findings.column("url").to_pylist())


def test_scan_filter_by_name_and_tag(cpg):
    from joern_ray.query.scanners import run_scan

    only = run_scan(cpg, names=("call-to-gets",))
    assert set(only.column("name").to_pylist()) == {"call-to-gets"}
    cwe = run_scan(cpg, tags=("cwe-78",))
    assert set(cwe.column("name").to_pylist()) == {"shell-injection-sink"}


def test_scan_to_sarif(cpg, tmp_path):
    import json

    from joern_ray.io.export import export_sarif
    from joern_ray.query.scanners import run_scan

    findings = run_scan(cpg, names=("call-to-gets", "shell-injection-sink"))
    p = export_sarif(findings, str(tmp_path / "scan.sarif"))
    doc = json.load(open(p))
    rules = {r["ruleId"] for r in doc["runs"][0]["results"]}
    assert "call-to-gets" in rules


def test_scan_names_its_failed_queries(cpg, monkeypatch, caplog):
    """A query that raises is logged at WARNING with its name and error
    and listed in the findings' `failed_queries` metadata; every other
    query's findings are unchanged."""
    import dataclasses
    import json
    import logging

    import joern_ray.query.scanners as scanners

    def rows(t, drop=None):
        return sorted(repr(r) for r in t.to_pylist() if r["name"] != drop)

    before = scanners.run_scan(cpg)
    assert json.loads(before.schema.metadata[b"failed_queries"]) == []

    def boom(_cpg):
        raise RuntimeError("planted failure")

    monkeypatch.setattr(
        scanners,
        "BUNDLE",
        tuple(
            dataclasses.replace(q, traversal=boom) if q.name == "format-string" else q
            for q in scanners.BUNDLE
        ),
    )
    with caplog.at_level(logging.WARNING, logger="joern_ray.query.scanners"):
        after = scanners.run_scan(cpg)
    assert json.loads(after.schema.metadata[b"failed_queries"]) == ["format-string"]
    [rec] = [r for r in caplog.records if r.name == "joern_ray.query.scanners"]
    assert rec.levelno == logging.WARNING
    assert "format-string" in rec.getMessage() and "planted failure" in rec.getMessage()
    assert rows(after) == rows(before, drop="format-string")
    assert "format-string" in before.column("name").to_pylist()

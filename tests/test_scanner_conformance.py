"""Scanner conformance: every query with embedded code examples is
compiled through the REAL pipeline and must flag its positive example
and stay silent on its negative (reference `QueryUtil.scala:7-14`
codeExamples pattern)."""

import shutil

import pyarrow as pa
import pytest


def _escape(code: str) -> str:
    return code.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@pytest.fixture(scope="module")
def example_cpg(ray_session):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg
    from joern_ray.query.scanners import BUNDLE

    urls, htmls = [], []
    for q in BUNDLE:
        if q.examples is None:
            continue
        for kind, code in (("pos", q.examples.positive), ("neg", q.examples.negative)):
            urls.append(f"https://ex/{q.name}/{kind}")
            htmls.append(
                (
                    f'<html><body><pre><code class="language-{q.examples.lang}">'
                    f"{_escape(code)}</code></pre></body></html>"
                ).encode()
            )
    t = pa.table(
        {
            "url": urls,
            "warc_ts": pa.array(list(range(len(urls))), pa.timestamp("us")),
            "html": pa.array(htmls, pa.large_binary()),
            "text": [""] * len(urls),
            "lang": ["en"] * len(urls),
        }
    )
    out = "/tmp/joern_ray_test_scanconf"
    shutil.rmtree(out, ignore_errors=True)
    res = build_cpg(
        lambda columns: ray.data.from_arrow(t),
        out,
        "scanconf-1",
    )
    from joern_ray.query.dsl import Cpg

    return Cpg(res["nodes_path"], res["edges_path"])


def test_each_query_flags_positive_not_negative(example_cpg):
    from joern_ray.query.scanners import BUNDLE

    failures = []
    for q in BUNDLE:
        if q.examples is None:
            continue
        t = q.traversal(example_cpg)
        urls = set(t.column("url").to_pylist())
        pos, neg = f"https://ex/{q.name}/pos", f"https://ex/{q.name}/neg"
        if pos not in urls:
            failures.append(f"{q.name}: positive example NOT flagged")
        if neg in urls:
            failures.append(f"{q.name}: negative example flagged")
    assert not failures, "\n".join(failures)


def test_run_scan_covers_bundle(example_cpg):
    from joern_ray.query.scanners import BUNDLE, run_scan

    findings = run_scan(example_cpg)
    flagged = set(findings.column("name").to_pylist())
    expected = {q.name for q in BUNDLE if q.examples is not None}
    missing = expected - flagged
    assert not missing, f"queries with examples but zero findings: {missing}"

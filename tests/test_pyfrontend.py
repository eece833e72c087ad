"""Python frontend: golden triples, CFG overlays, rejects, full-pipeline
dynamic dispatch (pysrc2cpg analog — reference
joern-cli/frontends/pysrc2cpg, testDistro.py:52-61 'py' corpus)."""

import collections
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.pyfrontend import PyFragmentParser

PY_SRC = """\
def add(x, y):
    return x + y

def main():
    total = add(1, 2)
    print(total)
    return total
"""


def _parse(src):
    root = PyFragmentParser().parse(src, "https://py/1", 0)
    return flatten(root, "https://py/1", 0, "python")


def test_golden_python_triples():
    nodes, edges = _parse(PY_SRC)
    byid = {n["id"]: n for n in nodes}
    trip = {
        (
            f"{byid[e['subj']]['label']}:{byid[e['subj']]['name']}",
            e["pred"],
            f"{byid[e['obj']]['label']}:{byid[e['obj']]['name']}",
        )
        for e in edges
        if e["subj"] in byid and e["obj"] in byid
    }
    expected = {
        ("METHOD:add", "AST", "METHOD_PARAMETER_IN:x"),
        ("METHOD:add", "AST", "METHOD_PARAMETER_IN:y"),
        ("CALL:<operator>.addition", "ARGUMENT", "IDENTIFIER:x"),
        ("CALL:<operator>.addition", "ARGUMENT", "IDENTIFIER:y"),
        ("RETURN:", "AST", "CALL:<operator>.addition"),
        ("CALL:add", "ARGUMENT", "LITERAL:"),
        ("CALL:print", "ARGUMENT", "IDENTIFIER:total"),
        ("IDENTIFIER:x", "REF", "METHOD_PARAMETER_IN:x"),
        ("IDENTIFIER:total", "REF", "LOCAL:total"),
        ("METHOD_PARAMETER_IN:x", "PARAMETER_LINK", "METHOD_PARAMETER_OUT:x"),
    }
    missing = expected - trip
    assert not missing, f"missing triples: {missing}"
    # call fqns feed the linker: add resolves by name
    add_call = [
        n for n in nodes if n["label"] == "CALL" and n["name"] == "add"
    ]
    assert add_call and add_call[0]["method_full_name"] == "add"


def test_python_method_signature_and_types():
    nodes, _ = _parse(
        "def f(a: int, b: str) -> bool:\n    return a > 0\n"
    )
    m = [n for n in nodes if n["label"] == "METHOD" and n["name"] == "f"][0]
    assert m["signature"] == "bool(int,str)"
    params = {
        n["name"]: n["type_full_name"]
        for n in nodes
        if n["label"] == "METHOD_PARAMETER_IN"
    }
    assert params == {"a": "int", "b": "str"}


def test_python_class_hierarchy():
    src = (
        "class Animal:\n    def speak(self):\n        return 0\n"
        "class Dog(Animal):\n    def speak(self):\n        return 1\n"
    )
    nodes, _ = _parse(src)
    tds = {
        n["name"]: n["type_full_name"] for n in nodes if n["label"] == "TYPE_DECL"
    }
    assert tds == {"Animal": "", "Dog": "Animal"}
    fqns = {n["full_name"] for n in nodes if n["label"] == "METHOD"}
    assert {"Animal.speak", "Dog.speak"} <= fqns


def test_python_cfg_overlays():
    from joern_ray.graph.cfg import method_overlays

    src = (
        "def loop(n):\n"
        "    total = 0\n"
        "    for i in [1, 2, 3]:\n"
        "        if i > 1:\n"
        "            total += i\n"
        "    return total\n"
    )
    root = PyFragmentParser().parse(src, "https://py/2", 0)
    preds = collections.Counter(p for _a, p, _b, _v in method_overlays(root))
    assert preds["CFG"] >= 5
    assert preds["DOMINATE"] >= 1
    assert preds["REACHING_DEF"] >= 1
    assert preds["CONTAINS"] >= 1


def test_python_reject_on_malformed():
    from joern_ray.stages.extract import detect_fragments_batch
    from joern_ray.stages.parse import ParseFragments

    bad = b'<pre><code class="language-python">def broken(:\n  pass</code></pre>'
    batch = pa.table({"url": ["https://pybad/1"], "html": [bad]})
    out = ParseFragments()(detect_fragments_batch(batch))
    kinds = collections.Counter(out.column("row_kind").to_pylist())
    assert kinds["reject"] == 1


def test_python_pipeline_dynamic_dispatch(ray_session):
    """Full pipeline over a python doc: a.speak() links to both
    Animal.speak and the Dog.speak override (SAFEDISPATCH via the python
    class hierarchy)."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    doc = (
        '<html><body><pre><code class="language-python">'
        "class Animal:\n"
        "    def speak(self):\n"
        "        return 0\n"
        "class Dog(Animal):\n"
        "    def speak(self):\n"
        "        return 1\n"
        "def visit():\n"
        "    a = Animal()\n"
        "    return a.speak()\n"
        "</code></pre></body></html>"
    )
    out = "/tmp/joern_ray_test_pydyn"
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://pydyn/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "pydyn-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"],
                columns=["id", "label", "name", "full_name", "lang"],
            ).iter_batches(batch_format="pyarrow")
        )
    )
    edges = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    langs = set(
        nodes.filter(pc.equal(nodes.column("label"), "METHOD")).column("lang").to_pylist()
    )
    assert "python" in langs
    byid = dict(
        zip(
            nodes.column("id").to_pylist(),
            zip(nodes.column("label").to_pylist(), nodes.column("full_name").to_pylist()),
        )
    )
    speak_calls = nodes.filter(
        pc.and_(pc.equal(nodes.column("label"), "CALL"), pc.equal(nodes.column("name"), "speak"))
    )
    assert speak_calls.num_rows == 1
    cid = speak_calls.column("id")[0].as_py()
    targets = {
        byid[o][1]
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s == cid and o in byid
    }
    assert targets == {"Animal.speak", "Dog.speak"}

"""Kotlin frontend goldens (kotlin2cpg analog,
`joern_ray/parsing/kotlinfrontend.py`).

Reference shape: `joern-cli/frontends/kotlin2cpg` — fun declarations
(block + single-expression), primary-constructor properties as MEMBERs,
`class C(...) : D()` inheritance, val/var constructor typing, for-in
and when lowerings, imports.
"""

import collections

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.kotlinfrontend import KotlinFragmentParser

KT_SRC = """import java.net.URL

open class Animal(val name: String) {
    open fun speak(): Int {
        return 0
    }
}
class Dog(name: String) : Animal(name) {
    override fun speak(): Int {
        return 1
    }
}
fun visit(n: Int): Int {
    val a = Animal("rex")
    var total = 0
    for (i in items) {
        total = total + i
    }
    when (total) {
        0 -> total = 1
        else -> total = 2
    }
    if (total > 3) {
        println(total)
    }
    return a.speak()
}
fun twice(x: Int): Int = x * 2
"""


def _parse(src=KT_SRC):
    p = KotlinFragmentParser()
    root = p.parse(src, "https://kt/1", 0)
    return root, flatten(root, "https://kt/1", 0, "kotlin")


def test_funs_classes_members_imports():
    _root, (nodes, _e) = _parse()
    methods = {n["full_name"]: n for n in nodes if n["label"] == "METHOD"}
    assert {"Animal.speak", "Dog.speak", "visit", "twice"} <= set(methods)
    assert methods["visit"]["signature"] == "Int(Int)"
    assert methods["twice"]["signature"] == "Int(Int)"
    # primary constructors become linkable C.init methods
    assert "Animal.init" in methods and "Dog.init" in methods
    tds = {n["full_name"]: n for n in nodes if n["label"] == "TYPE_DECL"}
    assert tds["Dog"]["type_full_name"] == "Animal"
    # `val name: String` primary-ctor property -> MEMBER Animal.name
    mems = {n["full_name"] for n in nodes if n["label"] == "MEMBER"}
    assert "Animal.name" in mems
    assert {n["name"] for n in nodes if n["label"] == "IMPORT"} == {"java.net.URL"}


def test_ctor_typing_and_dispatch():
    _root, (nodes, _e) = _parse()
    calls = {n["method_full_name"] for n in nodes if n["label"] == "CALL"}
    # val a = Animal("rex") links the ctor call to Animal.init
    assert "Animal.init" in calls
    speak = [n for n in nodes if n["label"] == "CALL" and n["name"] == "speak"]
    assert speak and speak[0]["method_full_name"] == "Animal.speak"
    assert speak[0]["dispatch_type"] == "DYNAMIC_DISPATCH"


def test_for_when_lowering_and_overlays():
    root, (nodes, _e) = _parse()
    cs = collections.Counter(
        n["name"] for n in nodes if n["label"] == "CONTROL_STRUCTURE"
    )
    assert cs["WHILE"] == 1  # for (i in items)
    assert cs["SWITCH"] == 1 and cs["IF"] >= 2  # when + branch + if
    ov = method_overlays(root)
    preds = collections.Counter(p for _a, p, _c, _v in ov)
    assert preds["CFG"] > 10 and preds["CONTAINS"] > 5


def test_kotlin_pipeline_dynamic_dispatch(ray_session, tmp_path_factory):
    """Full pipeline: Dog's override is a SAFEDISPATCH candidate of the
    Animal-typed receiver call; METHOD rows carry lang=kotlin."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    code = (
        "open class Animal {\n"
        "    open fun speak(): Int {\n        return 0\n    }\n"
        "}\n"
        "class Dog : Animal() {\n"
        "    override fun speak(): Int {\n        return 1\n    }\n"
        "}\n"
        "fun visit(n: Int): Int {\n"
        "    val a = Animal()\n"
        "    return a.speak()\n"
        "}\n"
    )
    doc = (
        '<html><body><pre><code class="language-kotlin">' + code
        + "</code></pre></body></html>"
    )
    out = str(tmp_path_factory.mktemp("ktdyn") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://ktdyn/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "ktdyn-1")
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
    meths = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "METHOD"),
            pc.match_substring(
                pc.coalesce(nodes.column("full_name"), pa.scalar("")), "speak"
            ),
        )
    )
    assert set(meths.column("lang").to_pylist()) == {"kotlin"}
    byid = dict(
        zip(nodes.column("id").to_pylist(), nodes.column("full_name").to_pylist())
    )
    call = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "speak"),
        )
    )
    cid = call.column("id")[0].as_py()
    targets = {
        byid.get(o)
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s == cid
    }
    assert {"Animal.speak", "Dog.speak"} <= targets


def test_body_val_var_properties_are_members():
    # ADVICE r4: body-declared `val`/`var` properties must be MEMBERs
    # (kotlin2cpg member lowering), not LOCALs
    src = """class Config {
    val host: String = "localhost"
    private var port: Int = 8080
    fun show(): Int {
        val tmp = 1
        return tmp
    }
}
"""
    _root, (nodes, _e) = _parse(src)
    members = {n["name"]: n for n in nodes if n["label"] == "MEMBER"}
    assert {"host", "port"} <= set(members)
    assert members["host"]["full_name"] == "Config.host"
    assert members["host"]["type_full_name"] == "String"
    assert members["port"]["full_name"] == "Config.port"
    # method-local val stays a LOCAL
    locals_ = {n["name"] for n in nodes if n["label"] == "LOCAL"}
    assert "tmp" in locals_
    assert "host" not in locals_

"""C# frontend goldens (csharpsrc2cpg analog,
`joern_ray/parsing/csharpfrontend.py`).

Reference shape: `joern-cli/frontends/csharpsrc2cpg` — using directives,
namespaces, `class C : Base`, auto-properties as MEMBERs, `var`
allocation typing, Console.* type-qualified static calls.
"""

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.csharpfrontend import CSharpFragmentParser

CS_SRC = """using System;
using System.Collections.Generic;

namespace Zoo {
    public class Animal {
        public string Name { get; set; }
        private int age = 3;
        public Animal(string name) {
            this.Name = name;
        }
        public virtual int Speak() {
            return 0;
        }
    }
    public class Dog : Animal, IPet {
        public override int Speak() {
            return 1;
        }
    }
    public static class Program {
        public static int Visit(int n) {
            var a = new Animal("rex");
            int total = 0;
            for (int i = 0; i < n; i++) {
                total = total + i;
            }
            if (total > 3) {
                Console.WriteLine(total);
            }
            return a.Speak();
        }
    }
}
"""


def _parse(src=CS_SRC):
    p = CSharpFragmentParser()
    root = p.parse(src, "https://cs/1", 0)
    return root, flatten(root, "https://cs/1", 0, "csharp")


def test_classes_properties_members_imports():
    _root, (nodes, _e) = _parse()
    tds = {n["full_name"]: n for n in nodes if n["label"] == "TYPE_DECL"}
    assert {"Animal", "Dog", "Program"} <= set(tds)
    assert tds["Dog"]["type_full_name"] == "Animal;IPet"
    mems = {n["full_name"]: n for n in nodes if n["label"] == "MEMBER"}
    assert mems["Animal.Name"]["type_full_name"] == "string"  # auto-property
    assert mems["Animal.age"]["type_full_name"] == "int"
    meths = {n["full_name"]: n for n in nodes if n["label"] == "METHOD"}
    assert {"Animal.Speak", "Dog.Speak", "Program.Visit", "Animal.Animal"} <= set(meths)
    assert meths["Program.Visit"]["signature"] == "int(int)"
    imports = {n["name"] for n in nodes if n["label"] == "IMPORT"}
    assert {"System", "System.Collections.Generic"} <= imports
    ns = [n for n in nodes if n["label"] == "NAMESPACE_BLOCK"]
    assert any(n["name"] == "Zoo" for n in ns)


def test_var_alloc_typing_and_static_qualification():
    _root, (nodes, _e) = _parse()
    calls = {n["method_full_name"] for n in nodes if n["label"] == "CALL"}
    assert "Animal.Speak" in calls  # var a = new Animal(); a.Speak()
    assert "Console.WriteLine" in calls  # Uppercase receiver qualification


def test_overlays_build():
    root, (nodes, _e) = _parse()
    ov = method_overlays(root)
    preds = {p for _a, p, _b, _v in ov}
    assert {"CFG", "DOMINATE", "CONTAINS"} <= preds


def test_csharp_pipeline_dynamic_dispatch(ray_session, tmp_path_factory):
    """Full pipeline: the Dog override is a SAFEDISPATCH candidate of the
    Animal-typed receiver call, and METHOD rows carry lang=csharp."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    doc = (
        '<html><body><pre><code class="language-csharp">'
        + CS_SRC.replace("<", "&lt;").replace(">", "&gt;")
        + "</code></pre></body></html>"
    )
    out = str(tmp_path_factory.mktemp("csdyn") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://csdyn/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "csdyn-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "name", "full_name", "lang"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    m_by = dict(zip(meths.column("full_name").to_pylist(), meths.column("id").to_pylist()))
    assert {"Animal.Speak", "Dog.Speak", "Program.Visit"} <= set(m_by)
    langs = set(
        meths.filter(
            pc.equal(pc.coalesce(meths.column("full_name"), pa.scalar("")), "Program.Visit")
        ).column("lang").to_pylist()
    )
    assert langs == {"csharp"}
    edges = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    calls = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "Speak"),
        )
    )
    assert calls.num_rows == 1
    cid = calls.column("id")[0].as_py()
    targets = {
        o
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s == cid
    }
    # SAFEDISPATCH: both Animal.Speak and the Dog override
    assert {m_by["Animal.Speak"], m_by["Dog.Speak"]} <= targets

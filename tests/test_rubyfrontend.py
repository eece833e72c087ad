"""Ruby frontend goldens (rubysrc2cpg analog,
`joern_ray/parsing/rubyfrontend.py`).

Reference shape: `joern-cli/frontends/rubysrc2cpg` — `def`/`end`
methods, `class C < D` inheritance, `attr_accessor` MEMBERs, `require`
IMPORTs, `@ivar` self fieldAccess, `X.new` -> `X.initialize`
constructor qualification, do-blocks as lambda METHOD arguments.
"""

import collections
import shutil

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.rubyfrontend import RubyFragmentParser

RB_SRC = """require 'json'

class Animal
  attr_accessor :name, :age

  def initialize(name)
    @name = name
  end

  def speak
    return 0
  end
end

class Dog < Animal
  def speak
    return 1
  end
end

def run(n)
  a = Animal.new("rex")
  total = 0
  while total < n
    total += a.speak
  end
  if total > 10
    puts total
  elsif total > 5
    puts :mid
  else
    raise "too small"
  end
  [1, 2, 3].each do |i|
    total += i
  end
  return total
end
"""


def _parse(src=RB_SRC):
    p = RubyFragmentParser()
    root = p.parse(src, "https://rb/1", 0)
    return root, flatten(root, "https://rb/1", 0, "ruby")


def test_methods_classes_members_imports():
    _root, (nodes, _e) = _parse()
    methods = {n["full_name"]: n for n in nodes if n["label"] == "METHOD"}
    assert "Animal.initialize" in methods
    assert "Animal.speak" in methods and "Dog.speak" in methods
    assert "run" in methods
    assert methods["run"]["signature"] == "ANY(ANY)"
    tds = {n["full_name"]: n for n in nodes if n["label"] == "TYPE_DECL"}
    assert tds["Dog"]["type_full_name"] == "Animal"  # INHERITS handle
    mems = {n["name"]: n for n in nodes if n["label"] == "MEMBER"}
    assert mems["name"]["full_name"] == "Animal.name"  # FieldAccess key
    assert {n["name"] for n in nodes if n["label"] == "IMPORT"} == {"json"}


def test_constructor_and_typed_dispatch():
    """`a = Animal.new` types the local; `a.speak` dispatches as
    Animal.speak (DYNAMIC) and `.new` maps to the initialize def."""
    _root, (nodes, _e) = _parse()
    calls = {n["method_full_name"]: n for n in nodes if n["label"] == "CALL"}
    assert calls["Animal.initialize"]["dispatch_type"] == "DYNAMIC_DISPATCH"
    assert calls["Animal.speak"]["name"] == "speak"
    assert calls["Animal.speak"]["dispatch_type"] == "DYNAMIC_DISPATCH"


def test_symbols_blocks_and_control_flow():
    _root, (nodes, _e) = _parse()
    lits = {n["code"] for n in nodes if n["label"] == "LITERAL"}
    assert ":mid" in lits
    cs = collections.Counter(
        n["name"] for n in nodes if n["label"] == "CONTROL_STRUCTURE"
    )
    assert cs["WHILE"] == 1 and cs["IF"] >= 2 and cs["THROW"] == 1
    # do-block lowers to a lambda METHOD passed by METHOD_REF
    assert any(
        n["label"] == "METHOD" and n["name"] == "<block>" for n in nodes
    )
    assert any(n["label"] == "METHOD_REF" for n in nodes)


def test_ivar_lowering_and_overlays():
    root, (nodes, _e) = _parse()
    # @name = name  ->  fieldAccess(self, name) assignment
    fa = [
        n
        for n in nodes
        if n["label"] == "CALL" and n["method_full_name"] == "<operator>.fieldAccess"
    ]
    assert fa and fa[0]["code"] == "@name"
    ids = {n["name"] for n in nodes if n["label"] == "IDENTIFIER"}
    assert "self" in ids
    # shared CFG/dominator/DDG overlays accept the tree
    ov = method_overlays(root)
    preds = collections.Counter(p for _a, p, _c, _v in ov)
    assert preds["CFG"] > 10 and preds["CONTAINS"] > 10


def test_rescue_and_modifier_if():
    src = (
        "def safe(x)\n"
        "  return 10 / x\n"
        "rescue ZeroDivisionError => e\n"
        "  return 0\n"
        "end\n"
        "v = safe(2)\n"
        "puts v if v > 0\n"
    )
    _root, (nodes, _e) = _parse(src)
    cs = collections.Counter(
        n["name"] for n in nodes if n["label"] == "CONTROL_STRUCTURE"
    )
    assert cs["CATCH"] == 1
    assert cs["IF"] == 1  # the modifier-if
    assert sum(1 for n in nodes if n["label"] == "RETURN") == 2


def test_ruby_pipeline_dynamic_dispatch(ray_session, tmp_path_factory):
    """Full pipeline: the Dog override is a SAFEDISPATCH candidate of the
    Animal-typed receiver call, and METHOD rows carry lang=ruby."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    doc = (
        '<html><body><pre><code class="language-ruby">'
        "class Animal\n"
        "  def speak\n"
        "    return 0\n"
        "  end\n"
        "end\n"
        "class Dog &lt; Animal\n"
        "  def speak\n"
        "    return 1\n"
        "  end\n"
        "end\n"
        "def visit(n)\n"
        "  a = Animal.new\n"
        "  return a.speak\n"
        "end\n"
        "</code></pre></body></html>"
    )
    out = str(tmp_path_factory.mktemp("rbdyn") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://rbdyn/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "rbdyn-1")
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
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    langs = set(
        meths.filter(
            pc.match_substring(
                pc.coalesce(meths.column("full_name"), pa.scalar("")), "speak"
            )
        ).column("lang").to_pylist()
    )
    assert langs == {"ruby"}
    byid = dict(
        zip(nodes.column("id").to_pylist(), nodes.column("full_name").to_pylist())
    )
    speak_call = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "speak"),
        )
    )
    cid = speak_call.column("id")[0].as_py()
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

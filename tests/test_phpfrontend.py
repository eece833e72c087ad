"""PHP frontend goldens (php2cpg analog,
`joern_ray/parsing/phpfrontend.py`).

Reference shape: `joern-cli/frontends/php2cpg` — `<?php` tags, classes
with visibility-modifier members, `$this->m()` qualification,
`$x = new C()` receiver typing, foreach lowering, require/use IMPORTs.
"""

import collections

import pyarrow as pa
import pyarrow.compute as pc

from joern_ray.graph.cfg import method_overlays
from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.phpfrontend import PhpFragmentParser

PHP_SRC = """<?php
require 'db.php';
use App\\Models\\User;

class Animal {
  public $name;
  public function speak() {
    return 0;
  }
  public function rename($n) {
    return $this->speak();
  }
}
class Dog extends Animal {
  public function speak() {
    return 1;
  }
}
function visit($n) {
  $a = new Animal();
  $total = 0;
  foreach ($items as $i) {
    $total = $total + $i;
  }
  if ($total > 3) {
    echo $total, "big";
  }
  return $a->speak();
}
$v = visit(2);
echo $v;
?>
"""


def _parse(src=PHP_SRC):
    p = PhpFragmentParser()
    root = p.parse(src, "https://php/1", 0)
    return root, flatten(root, "https://php/1", 0, "php")


def test_classes_members_imports():
    _root, (nodes, _e) = _parse()
    methods = {n["full_name"] for n in nodes if n["label"] == "METHOD"}
    assert {"Animal.speak", "Animal.rename", "Dog.speak", "visit"} <= methods
    tds = {n["full_name"]: n for n in nodes if n["label"] == "TYPE_DECL"}
    assert tds["Dog"]["type_full_name"] == "Animal"
    mems = {n["name"]: n for n in nodes if n["label"] == "MEMBER"}
    assert mems["name"]["full_name"] == "Animal.name"
    assert {n["name"] for n in nodes if n["label"] == "IMPORT"} == {
        "db.php", "App.Models.User",
    }


def test_receiver_typing_and_this_qualification():
    _root, (nodes, _e) = _parse()
    calls = [n for n in nodes if n["label"] == "CALL" and n["name"] == "speak"]
    mfns = {c["method_full_name"] for c in calls}
    # $a = new Animal(); $a->speak() -> Animal.speak (typed receiver)
    # $this->speak() inside Animal.rename -> Animal.speak
    assert mfns == {"Animal.speak"}
    assert all(c["dispatch_type"] == "DYNAMIC_DISPATCH" for c in calls)


def test_foreach_echo_and_overlays():
    root, (nodes, _e) = _parse()
    cs = collections.Counter(
        n["name"] for n in nodes if n["label"] == "CONTROL_STRUCTURE"
    )
    assert cs["WHILE"] == 1 and cs["IF"] == 1  # foreach lowers to WHILE
    echos = [n for n in nodes if n["label"] == "CALL" and n["name"] == "echo"]
    assert len(echos) == 2
    ov = method_overlays(root)
    preds = collections.Counter(p for _a, p, _c, _v in ov)
    assert preds["CFG"] > 10 and preds["CONTAINS"] > 5


def test_php_pipeline_dynamic_dispatch(ray_session, tmp_path_factory):
    """Full pipeline: the Dog override is a SAFEDISPATCH candidate of
    the Animal-typed receiver call, and METHOD rows carry lang=php."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    code = (
        "&lt;?php\n"
        "class Animal {\n"
        "  public function speak() {\n    return 0;\n  }\n"
        "}\n"
        "class Dog extends Animal {\n"
        "  public function speak() {\n    return 1;\n  }\n"
        "}\n"
        "function visit($n) {\n"
        "  $a = new Animal();\n"
        "  return $a->speak();\n"
        "}\n"
    )
    doc = (
        '<html><body><pre><code class="language-php">' + code
        + "</code></pre></body></html>"
    )
    out = str(tmp_path_factory.mktemp("phpdyn") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://phpdyn/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "phpdyn-1")
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
    assert set(meths.column("lang").to_pylist()) == {"php"}
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


def test_strip_tags_preserves_string_literals():
    # ADVICE r4: `?>` / `<?` inside string literals are literal text —
    # a whole-source regex blanked them and corrupted LITERAL nodes
    from joern_ray.parsing.phpfrontend import _strip_tags

    src = '<?php\n$s = "a?>b";\n$t = \'x<?php y\';\necho $s;\n?>'
    stripped = _strip_tags(src)
    assert '"a?>b"' in stripped
    assert "'x<?php y'" in stripped
    assert "<?php" not in stripped.replace("x<?php y", "")
    assert len(stripped) == len(src)  # offsets preserved
    # and the literal survives into the parsed graph
    _root, (nodes, _e) = _parse(src)
    lits = {n["code"] for n in nodes if n["label"] == "LITERAL"}
    assert '"a?>b"' in lits

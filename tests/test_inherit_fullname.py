"""Cross-document XInheritanceFullNamePass goldens (reference
`x2cpg/.../frontend/XInheritanceFullNamePass.scala:1-142`): an
import-qualified inherited base canonicalizes to the declaring
TYPE_DECL's full name, and the dyn closure resolves overrides
through it, in both dyn regimes."""

import os

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest


def _py(body: str) -> str:
    return (
        '<html><body><pre><code class="language-python">' + body
        + "</code></pre></body></html>"
    )


# `class C(zoo.D)`: the Python frontend records the base as `D`, so the
# graph links C to D without the pass
PY_DOCS = [
    (
        "https://inh/zoo.py",
        _py(
            "class D:\n"
            "    def m(self):\n"
            "        return 0\n"
            "def visit():\n"
            "    d = D()\n"
            "    return d.m()\n"
        ),
    ),
    (
        "https://inh/app.py",
        _py(
            "import zoo\n"
            "class C(zoo.D):\n"
            "    def m(self):\n"
            "        return 1\n"
        ),
    ),
]


@pytest.mark.parametrize("lang", ["python", "java"])
def test_inherit_fullname_cross_document(build_pages, resolver_corpora, dyn_regime, lang):
    from joern_ray.stages.link import type_id

    docs = PY_DOCS if lang == "python" else resolver_corpora["java_inherit"]
    g = build_pages(docs, f"inh-{lang}")
    assert g.res["dyn_regime"] == dyn_regime
    nodes = g.nodes
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    td_by = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    assert "C" in td_by and "D" in td_by
    trip = set(g.triples())
    # 1. corrective INHERITS_FROM edge to D's canonical full name
    assert (td_by["C"], "INHERITS_FROM", type_id("D")) in trip
    if lang == "java":
        # the Java frontend records the base `zoo.D`: the pass writes
        # the corrective edge, in its own root
        t = pq.read_table(os.path.join(g.res["out_dir"], "edges_inherit"))
        assert list(zip(*(t.column(c).to_pylist() for c in ("subj", "pred", "obj")))) == [
            (td_by["C"], "INHERITS_FROM", type_id("D"))
        ]
    # 2. the dyn closure resolves the override through the import:
    #    d.m() (receiver typed D) carries a CALL edge to C.m as well
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    m_by = dict(zip(meths.column("full_name").to_pylist(), meths.column("id").to_pylist()))
    assert {"D.m", "C.m"} <= set(m_by)
    calls = nodes.filter(
        pc.and_(pc.equal(nodes.column("label"), "CALL"), pc.equal(nodes.column("name"), "m"))
    )
    assert calls.num_rows == 1
    targets = [fn for _lab, _u, fn in g.call_targets("m", docs[0][0])]
    assert "D.m" in targets
    assert "C.m" in targets, "override not resolved across the import"

"""XTypeRecovery symbol-table hints + XTypeHintCallLinker analog.

Reference semantics covered:
- `XTypeRecovery.scala:198-209` — symbol-table recovery of receiver types
  from constructor assignments (imported / cross-document classes);
- `XTypeHintCallLinker.scala:93-105` (setCallees) — exactly ONE hint
  resolves the call's method_full_name; ambiguous sets ride the
  dynamic_type_hint_full_name list;
- `XTypeHintCallLinker.scala:38-79` — hint explode -> method join, miss
  -> stub (`MethodStubCreator`), speculative stubs under the
  `<speculatedMethods>` namespace (:166-183).
"""

import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from joern_ray.parsing.astmodel import flatten
from joern_ray.parsing.pyfrontend import PyFragmentParser
from joern_ray.stages.link import namespace_id, stub_id, type_id

PY_LIB = (
    '<html><body><pre><code class="language-python">'
    "class Foo:\n"
    "    def bar(self):\n"
    "        return 1\n"
    "class Bar:\n"
    "    def baz(self):\n"
    "        return 2\n"
    "</code></pre></body></html>"
)

PY_USE = (
    '<html><body><pre><code class="language-python">'
    "x = Foo()\n"
    "x.bar()\n"
    "q = Qux()\n"
    "q.quux(1, 2)\n"
    "z = Foo()\n"
    "z = Bar()\n"
    "z.baz()\n"
    "</code></pre></body></html>"
)


def _parse_rows(src: str):
    root = PyFragmentParser().parse(src, "https://hint/1", 0)
    return flatten(root, "https://hint/1", 0, "python")


def test_single_hint_resolves_mfn_and_receiver_type():
    nodes, _edges = _parse_rows("x = Foo()\nx.bar()\n")
    calls = [n for n in nodes if n["label"] == "CALL" and n["name"] == "bar"]
    assert len(calls) == 1
    # setCallees single-hint semantics: mfn IS the hint, no list carried
    assert calls[0]["method_full_name"] == "Foo.bar"
    assert calls[0]["dynamic_type_hint_full_name"] is None
    recvs = [n for n in nodes if n["label"] == "IDENTIFIER" and n["name"] == "x"]
    assert any(r["type_full_name"] == "Foo" for r in recvs)


def test_multi_hint_carries_sorted_list():
    nodes, _edges = _parse_rows("z = Foo()\nz = Bar()\nz.baz()\n")
    calls = [n for n in nodes if n["label"] == "CALL" and n["name"] == "baz"]
    assert len(calls) == 1
    assert calls[0]["method_full_name"] == "z.baz"  # stays unresolved
    assert calls[0]["dynamic_type_hint_full_name"] == ["Bar.baz", "Foo.baz"]


def test_copy_assignment_propagates_hints():
    nodes, _edges = _parse_rows("a = Foo()\nb = a\nb.bar()\n")
    calls = [n for n in nodes if n["label"] == "CALL" and n["name"] == "bar"]
    assert calls[0]["method_full_name"] == "Foo.bar"


def test_known_local_class_still_wins():
    # in-fragment classes keep the precise instance_types pathway
    nodes, _edges = _parse_rows(
        "class Foo:\n    def bar(self):\n        return 1\nx = Foo()\nx.bar()\n"
    )
    calls = [n for n in nodes if n["label"] == "CALL" and n["name"] == "bar"]
    assert calls[0]["method_full_name"] == "Foo.bar"
    assert calls[0]["dynamic_type_hint_full_name"] is None


@pytest.mark.parametrize("force_shuffle", [False, True])
def test_hint_linking_pipeline(ray_session, force_shuffle, tmp_path, monkeypatch):
    """Cross-document: hints link calls to real methods when the class
    lives in ANOTHER document; unmatched hints become stubs; hint-only
    stubs hang off <speculatedMethods>.  Runs in BOTH link regimes."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    if force_shuffle:  # the shuffle regime keeps a width above 1
        monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
    out = str(tmp_path / ("hint_sh" if force_shuffle else "hint_bc"))
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://hintlib/1", "https://hintuse/1"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array(
                    [PY_LIB.encode(), PY_USE.encode()], pa.large_binary()
                ),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(
        docs_factory,
        out,
        f"hint-{int(force_shuffle)}",
        force_shuffle_link=force_shuffle,
    )
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"],
                columns=["id", "label", "name", "full_name", "signature"],
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
    methods = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    by_fqn = dict(
        zip(methods.column("full_name").to_pylist(), methods.column("id").to_pylist())
    )
    call_edges = edges.filter(pc.equal(edges.column("pred"), "CALL"))
    pairs = set(
        zip(call_edges.column("subj").to_pylist(), call_edges.column("obj").to_pylist())
    )

    # 1. x.bar() resolved to the REAL cross-document Foo.bar method
    assert "Foo.bar" in by_fqn
    foo_bar_id = by_fqn["Foo.bar"]
    assert any(o == foo_bar_id for _s, o in pairs)

    # 2. single-hint unknown class -> stub Qux.quux with 2-arg signature
    qq = stub_id("Qux.quux")
    stub_rows = nodes.filter(pc.equal(nodes.column("id"), pa.scalar(qq, pa.uint64())))
    assert stub_rows.num_rows == 1
    assert stub_rows.column("signature")[0].as_py() == "ANY(ANY,ANY)"
    assert any(o == qq for _s, o in pairs)

    # 3. multi-hint z.baz(): one CALL edge to the REAL Bar.baz, one to the
    #    speculative Foo.baz stub
    assert "Bar.baz" in by_fqn
    assert any(o == by_fqn["Bar.baz"] for _s, o in pairs)
    fb = stub_id("Foo.baz")
    assert any(o == fb for _s, o in pairs)

    # 4. Foo.baz is hint-only -> <speculatedMethods> namespace + AST edge
    ns_id = namespace_id("<speculatedMethods>")
    ns_rows = nodes.filter(pc.equal(nodes.column("id"), pa.scalar(ns_id, pa.uint64())))
    assert ns_rows.num_rows == 1
    ast_edges = edges.filter(pc.equal(edges.column("pred"), "AST"))
    ast_pairs = set(
        zip(ast_edges.column("subj").to_pylist(), ast_edges.column("obj").to_pylist())
    )
    assert (ns_id, fb) in ast_pairs

    # 5. recovered receiver type feeds EVAL_TYPE (x: Foo)
    ev = edges.filter(pc.equal(edges.column("pred"), "EVAL_TYPE"))
    assert type_id("Foo") in set(ev.column("obj").to_pylist())


def test_rettype_iteration2_cross_document(build_pages, resolver_corpora, dyn_regime):
    """SymbolTable iteration 2 golden (`XTypeRecovery.scala:25,151-177`):
    `x = make()` + `x.g()` resolves through make's RETURN type even
    though make is defined in ANOTHER document — iteration 1 (in-doc
    hints) provably cannot know make's return type.  Both dyn regimes
    resolve it through the same signature lookup."""
    g = build_pages(resolver_corpora["ret_type"], "ret2-1")
    assert g.res["dyn_regime"] == dyn_regime
    meths = g.nodes.filter(
        pc.and_(
            pc.equal(g.nodes.column("label"), "METHOD"),
            pc.equal(g.nodes.column("full_name"), "Widget.g"),
        )
    )
    assert meths.num_rows == 1
    targets = g.call_targets("g", "https://ret2/app.py")
    assert ("METHOD", "https://ret2/lib.py", "Widget.g") in targets, (
        "x.g() not linked to Widget.g via make's return type"
    )


def test_unresolved_ret_sentinel_never_materializes(ray_session, tmp_path):
    """ADVICE r4: an unresolvable `<ret:f>` hint must not leak into the
    graph as a phantom TYPE / EVAL_TYPE target / stub METHOD named
    `<ret:f>.g` — the call collapses onto the shared <unknownFullName>
    stub (the reference never materializes such names)."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg
    from joern_ray.stages.link import stub_id

    doc = (
        '<html><body><pre><code class="language-python">'
        "def use():\n"
        "    x = mystery()\n"
        "    return x.frob()\n"
        "</code></pre></body></html>"
    )
    out = str(tmp_path / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://retx/app.py"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "retx-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "name", "full_name"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    # 1. no node of ANY label carries a <ret: name
    for col in ("name", "full_name"):
        leaked = nodes.filter(
            pc.starts_with(pc.coalesce(nodes.column(col), pa.scalar("")), "<ret:")
        )
        assert leaked.num_rows == 0, f"<ret: sentinel leaked into {col}"
    # 2. the shared <unknownFullName> stub exists exactly once
    unk = nodes.filter(
        pc.equal(
            pc.coalesce(nodes.column("full_name"), pa.scalar("")), "<unknownFullName>"
        )
    )
    assert unk.num_rows == 1
    assert unk.column("label")[0].as_py() == "METHOD"
    # 3. the x.frob() CALL links to it
    edges = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["edges_path"], columns=["subj", "pred", "obj"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    call = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "CALL"),
            pc.equal(pc.coalesce(nodes.column("name"), pa.scalar("")), "frob"),
        )
    )
    assert call.num_rows == 1
    cid = call.column("id")[0].as_py()
    targets = {
        o
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s == cid
    }
    assert stub_id("<unknownFullName>") in targets

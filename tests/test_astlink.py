"""Cross-fragment AstLinkerPass goldens (reference
`x2cpg/.../base/AstLinkerPass.scala:10-62`): a class reopened across
documents yields ONE AST tree — children of renamed-duplicate
TYPE_DECLs re-link to the canonical class."""

import pyarrow as pa
import pyarrow.compute as pc


def _build(tmp_path, docs):
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    out = str(tmp_path / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": [u for u, _ in docs],
                "warc_ts": pa.array([0] * len(docs), pa.timestamp("us")),
                "html": pa.array([d.encode() for _, d in docs], pa.large_binary()),
                "text": [""] * len(docs),
                "lang": ["en"] * len(docs),
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "astlink-1")
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["id", "label", "name", "full_name", "url"]
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
    return res, nodes, edges


def _rb(body: str) -> str:
    return (
        '<html><body><pre><code class="language-ruby">' + body
        + "</code></pre></body></html>"
    )


def test_reopened_class_one_ast_tree(ray_session, tmp_path):
    """Ruby `class Widget` reopened in a second document: the canonical
    TYPE_DECL gets AST edges to BOTH methods (one local, one via the
    cross-fragment link); the duplicate decl keeps its provenance row."""
    docs = [
        ("https://al/a.rb", _rb("class Widget\n  def alpha\n    return 1\n  end\nend\n")),
        ("https://al/b.rb", _rb("class Widget\n  def beta\n    return 2\n  end\nend\n")),
    ]
    _res, nodes, edges = _build(tmp_path, docs)
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    by_fqn = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    assert "Widget" in by_fqn
    assert any(f.startswith("Widget<duplicate>") for f in by_fqn), by_fqn
    canon = by_fqn["Widget"]
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    m_by = dict(zip(meths.column("full_name").to_pylist(), meths.column("id").to_pylist()))
    assert {"Widget.alpha", "Widget.beta"} <= set(m_by)
    ast = edges.filter(pc.equal(edges.column("pred"), "AST"))
    pairs = set(zip(ast.column("subj").to_pylist(), ast.column("obj").to_pylist()))
    # both methods hang off the canonical TYPE_DECL -> one tree
    assert (canon, m_by["Widget.alpha"]) in pairs
    assert (canon, m_by["Widget.beta"]) in pairs


def test_reopened_class_no_dangling_endpoints(ray_session, tmp_path):
    """A class defined on two pages: every edge endpoint is a node.  The
    TYPE node `Widget` REFs the canonical declaration only; the renamed
    `Widget<duplicate>0` has no TYPE node, so no REF edge either."""
    from joern_ray.stages.link import type_id

    docs = [
        ("https://al3/a.rb", _rb("class Widget\n  def alpha\n    return 1\n  end\nend\n")),
        ("https://al3/b.rb", _rb("class Widget\n  def beta\n    return 2\n  end\nend\n")),
    ]
    _res, nodes, edges = _build(tmp_path, docs)
    ids = set(nodes.column("id").to_pylist())
    dangling = [
        (s, p, o)
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if s not in ids or o not in ids
    ]
    assert dangling == []
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    by_fqn = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    ref = edges.filter(pc.equal(edges.column("pred"), "REF"))
    refs = set(zip(ref.column("subj").to_pylist(), ref.column("obj").to_pylist()))
    assert (type_id("Widget"), by_fqn["Widget"]) in refs
    dups = [by_fqn[f] for f in by_fqn if f.startswith("Widget<duplicate>")]
    assert dups and not [o for _s, o in refs if o in dups]


def test_astlink_colliding_member_and_method(ray_session, tmp_path):
    """A method name that ALSO collides (`speak` in both reopenings) is
    itself renamed; the renamed copy still re-links to the canonical
    class, and MEMBERs of the duplicate class re-link too."""
    docs = [
        (
            "https://al2/a.rb",
            _rb(
                "class Pet\n  attr_accessor :kind\n  def speak\n    return 1\n  end\nend\n"
            ),
        ),
        (
            "https://al2/b.rb",
            _rb(
                "class Pet\n  attr_accessor :tail\n  def speak\n    return 2\n  end\nend\n"
            ),
        ),
    ]
    _res, nodes, edges = _build(tmp_path, docs)
    tds = nodes.filter(pc.equal(nodes.column("label"), "TYPE_DECL"))
    by_fqn = dict(zip(tds.column("full_name").to_pylist(), tds.column("id").to_pylist()))
    canon = by_fqn["Pet"]
    ast = edges.filter(pc.equal(edges.column("pred"), "AST"))
    children = {o for s, o in zip(ast.column("subj").to_pylist(), ast.column("obj").to_pylist()) if s == canon}
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    m_by = dict(zip(meths.column("full_name").to_pylist(), meths.column("id").to_pylist()))
    # both the canonical speak and the renamed duplicate hang off Pet
    assert m_by["Pet.speak"] in children
    dup_speak = [f for f in m_by if f.startswith("Pet.speak<duplicate>")]
    assert dup_speak and m_by[dup_speak[0]] in children
    mems = nodes.filter(pc.equal(nodes.column("label"), "MEMBER"))
    mem_by = dict(zip(mems.column("full_name").to_pylist(), mems.column("id").to_pylist()))
    # the duplicate-side member (tail or kind — whichever doc lost the
    # canonicalization sort) re-links to the canonical Pet
    dup_side = {mem_by[f] for f in mem_by if f in ("Pet.kind", "Pet.tail")}
    assert dup_side & children, "no duplicate-class MEMBER re-linked"

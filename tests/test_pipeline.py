"""t1 smoke: full Ray pipeline on a tiny corpus — golden triples,
manifests, resume idempotence (FIXTURES.md §4)."""

import collections
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from joern_ray.functions.views import edges_fqn_table, precision_recall

OUT = "/tmp/joern_ray_test_pipeline"


def _docs_factory(columns):
    from joern_ray.sources.corpus import docs_dataset

    ds = docs_dataset(120, parallelism=4)
    if columns:
        ds = ds.map_batches(lambda b: b.select(columns), batch_format="pyarrow")
    return ds


@pytest.fixture(scope="module")
def cpg(ray_session):
    from joern_ray.pipelines.cpg import build_cpg

    shutil.rmtree(OUT, ignore_errors=True)
    # width 4: the broadcast side of the link-regime parity test
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 4)
        res = build_cpg(_docs_factory, OUT, "test-120")
    yield res


def _read_all(ray_session, path, columns=None):
    import ray.data

    if columns is None:  # nodes span multiple roots — fixed projection
        from joern_ray.schemas import NODES_SCHEMA

        columns = list(NODES_SCHEMA.names)
    t = pa.concat_tables(
        list(
            ray.data.read_parquet(path, columns=columns).iter_batches(
                batch_format="pyarrow"
            )
        )
    )
    # parallel read tasks surface batches in nondeterministic order; the
    # on-disk files are deterministic — compare in sorted order
    keys = [(c, "ascending") for c in ("id", "subj", "pred", "obj", "label") if c in t.column_names]
    return t.take(pc.sort_indices(t, sort_keys=keys))


def test_pipeline_produces_graph(ray_session, cpg):
    nodes = _read_all(ray_session, cpg["nodes_path"])
    edges = _read_all(ray_session, cpg["edges_path"], columns=["subj", "pred", "obj", "variable"])
    assert nodes.num_rows > 1000 and edges.num_rows > 5000
    labels = set(nodes.column("label").to_pylist())
    assert {"METHOD", "CALL", "IDENTIFIER", "LITERAL", "FILE", "TYPE", "NAMESPACE"} <= labels
    preds = set(edges.column("pred").to_pylist())
    assert {"AST", "CFG", "CALL", "ARGUMENT", "REACHING_DEF", "DOMINATE", "EVAL_TYPE", "SOURCE_FILE"} <= preds


def test_node_ids_unique(ray_session, cpg):
    nodes = _read_all(ray_session, cpg["nodes_path"])
    ids = nodes.column("id").to_pylist()
    assert len(ids) == len(set(ids))


def test_every_call_linked(ray_session, cpg):
    nodes = _read_all(ray_session, cpg["nodes_path"])
    edges = _read_all(ray_session, cpg["edges_path"], columns=["subj", "pred", "obj", "variable"])
    calls = nodes.filter(pc.equal(nodes.column("label"), "CALL"))
    call_edges = edges.filter(pc.equal(edges.column("pred"), "CALL"))
    # every CALL node has >= 1 outgoing CALL edge (method or stub);
    # dynamic-dispatch sites legitimately carry one edge per
    # SAFEDISPATCH candidate (e.g. the python Handler override template)
    linked_subjects = set(call_edges.column("subj").to_pylist())
    call_ids = set(calls.column("id").to_pylist())
    unlinked = call_ids - linked_subjects
    assert not unlinked, f"{len(unlinked)} CALL nodes without a CALL edge"
    assert call_edges.num_rows >= calls.num_rows
    node_ids = set(nodes.column("id").to_pylist())
    dangling = [o for o in call_edges.column("obj").to_pylist() if o not in node_ids]
    assert dangling == []  # stubs exist for all unresolved targets


def test_manifests_written(cpg):
    # every output root carries a completion manifest (streaming
    # checkpoint writes; resume = skip stages whose manifest matches)
    for root in ("parse", "canonical_mt", "dims", "edges"):
        assert os.path.exists(
            os.path.join(cpg["out_dir"], root, "_manifest.json")
        ), root


def test_splits_carry_only_declared_columns(cpg):
    """Every file of a parse or dims split holds exactly its kind's
    declared fields, in one row group, and no split is undeclared."""
    import pyarrow.parquet as pq

    from joern_ray.pipelines.cpg import PARSE_SPLITS
    from joern_ray.schemas import EDGES_SCHEMA, NODES_SCHEMA

    roots = {
        "parse": ("row_kind", PARSE_SPLITS),
        "dims": ("rk", {"node": NODES_SCHEMA, "edge": EDGES_SCHEMA}),
    }
    seen = set()
    for root, (column, schemas) in roots.items():
        for d in sorted(os.listdir(os.path.join(cpg["out_dir"], root))):
            if d.startswith("_"):
                continue
            key, value = d.split("=")
            assert key == column and value in schemas, (root, d)
            for f in os.listdir(os.path.join(cpg["out_dir"], root, d)):
                pf = pq.ParquetFile(os.path.join(cpg["out_dir"], root, d, f))
                assert pf.schema_arrow == schemas[value], (root, d, f)
                assert pf.metadata.num_row_groups == 1, (root, d, f)
                seen.add(f"{root}/{d}")
    for split in ("node", "mtnode", "edge", "survey"):
        assert f"parse/row_kind={split}" in seen
    assert {"dims/rk=node", "dims/rk=edge"} <= seen


def test_every_file_follows_the_write_policy(cpg):
    """Every Parquet file of every root is zstd-compressed throughout,
    stores its 64-bit integer (id) columns without a dictionary and its
    other columns with one, and each split file (`SplitSink`) is one
    row group."""
    import pyarrow.parquet as pq

    out = cpg["out_dir"]
    roots = set()
    for dirpath, _dirs, names in os.walk(out):
        for f in names:
            if not f.endswith(".parquet"):
                continue
            path = os.path.join(dirpath, f)
            root = os.path.relpath(path, out).split(os.sep)[0]
            roots.add(root)
            pf = pq.ParquetFile(path)
            md = pf.metadata
            if root in ("parse", "dims"):
                assert md.num_row_groups == 1, path
            for rg in range(md.num_row_groups):
                for i in range(md.num_columns):
                    col = md.row_group(rg).column(i)
                    assert col.compression == "ZSTD", (path, col.path_in_schema)
                    # a list column's leaf is `name.list.element`
                    t = pf.schema_arrow.field(col.path_in_schema.split(".")[0]).type
                    wide_int = pa.types.is_integer(t) and t.bit_width == 64
                    assert col.has_dictionary_page != wide_int, (path, col.path_in_schema)
    assert roots >= {
        "parse", "dims", "edges", "survey_agg", "canonical_mt", "equivalences", "edges_astlink"
    }


def test_checkpoint_needs_a_schema_or_splits(tmp_path):
    """Without `splits`, `checkpoint` writes under the `write_options` of
    the declared schema, so a call without one fails before running the
    factory."""
    from joern_ray.io.checkpoint import checkpoint

    def factory():
        raise AssertionError("ran the lineage")

    with pytest.raises(ValueError, match="schema"):
        checkpoint(factory, str(tmp_path / "root"), "stage", "fp")


def test_n_stubs_counts_dims_methods(cpg):
    """`n_stubs` is the METHOD rows of the dims' node split: the stubs of
    unresolved calls (this corpus calls library functions it never
    defines)."""
    import pyarrow.parquet as pq

    labels = pq.read_table(
        os.path.join(cpg["out_dir"], "dims", "rk=node"), columns=["label"]
    ).column("label")
    assert cpg["n_stubs"] == pc.sum(pc.equal(labels, "METHOD")).as_py() > 0


def test_resume_skips_and_is_identical(ray_session, cpg, monkeypatch):
    from joern_ray.pipelines.cpg import build_cpg

    before = _read_all(ray_session, cpg["nodes_path"])
    monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 4)
    res2 = build_cpg(_docs_factory, OUT, "test-120")
    assert res2["resumed"] is True
    # a resumed build returns the fresh build's keys, stats and paths
    assert {**res2, "resumed": False} == cpg
    after = _read_all(ray_session, cpg["nodes_path"])
    assert before.equals(after)


GOLDEN_DOC = (
    '<html><body><pre><code class="language-c">'
    "int add(int x, int y) { return x + y; }\n"
    'int main(int argc, char **argv) { printf(&quot;%d&quot;, add((1+2), 3)); }\n'
    "</code></pre></body></html>"
)

# Hand-derived golden triples for F1 (FIXTURES.md §2) — FQN-keyed, id-free.
EXPECTED_F1 = {
    # method structure
    ("METHOD:add@1", "AST", "METHOD_PARAMETER_IN:x@1"),
    ("METHOD:add@1", "AST", "METHOD_PARAMETER_IN:y@1"),
    ("CALL:<operator>.addition@1", "ARGUMENT", "IDENTIFIER:x@1"),
    ("CALL:<operator>.addition@1", "ARGUMENT", "IDENTIFIER:y@1"),
    ("RETURN:return x + y@1", "AST", "CALL:<operator>.addition@1"),
    # main's calls
    ("CALL:printf@2", "ARGUMENT", 'LITERAL:"%d"@2'),
    ("CALL:printf@2", "ARGUMENT", "CALL:add@2"),
    ("CALL:add@2", "ARGUMENT", "CALL:<operator>.addition@2"),
    ("CALL:add@2", "ARGUMENT", "LITERAL:3@2"),
    # static call linking across the fragment
    ("CALL:add@2", "CALL", "METHOD:add@1"),
}


def test_golden_f1_triples(ray_session):
    """Parse the F1 fixture through the real stages and check the
    hand-derived triple set at P/R = 1.0 on the asserted preds."""
    from joern_ray.stages.extract import detect_fragments_batch
    from joern_ray.stages.parse import ParseFragments

    batch = pa.table({"url": ["https://g/1"], "html": [GOLDEN_DOC.encode()]})
    frags = detect_fragments_batch(batch)
    out = ParseFragments()(frags)
    nodes = out.filter(
        pc.is_in(out.column("row_kind"), value_set=pa.array(["node", "mtnode"]))
    )
    edges = out.filter(pc.equal(out.column("row_kind"), "edge"))
    # link calls driver-side: name -> method id
    midx = {
        fn: i
        for fn, i, lab in zip(
            nodes.column("full_name").to_pylist(),
            nodes.column("id").to_pylist(),
            nodes.column("label").to_pylist(),
        )
        if lab == "METHOD"
    }
    link_rows = []
    for lab, nid, fqn in zip(
        nodes.column("label").to_pylist(),
        nodes.column("id").to_pylist(),
        nodes.column("method_full_name").to_pylist(),
    ):
        if lab == "CALL" and fqn in midx:
            link_rows.append({"subj": nid, "pred": "CALL", "obj": midx[fqn], "variable": None})
    from joern_ray.schemas import EDGES_SCHEMA, rows_to_table

    all_edges = pa.concat_tables([edges.select(EDGES_SCHEMA.names), rows_to_table(link_rows, EDGES_SCHEMA)])
    fqn = edges_fqn_table(nodes, all_edges)
    got_all = {
        (s.split("@")[0] + "@" + s.split("@")[-1], p, o.split("@")[0] + "@" + o.split("@")[-1])
        for s, p, o in zip(
            fqn.column("subj_fqn").to_pylist(),
            fqn.column("pred").to_pylist(),
            fqn.column("obj_fqn").to_pylist(),
        )
    }
    _, r = precision_recall(got_all & EXPECTED_F1, EXPECTED_F1)
    assert r == 1.0, f"missing: {EXPECTED_F1 - got_all}"


def test_rejects_surface_in_parse_output(ray_session):
    from joern_ray.stages.extract import detect_fragments_batch
    from joern_ray.stages.parse import ParseFragments

    bad = b'<pre><code class="language-c">int broken = '
    batch = pa.table({"url": ["https://bad/1"], "html": [bad]})
    out = ParseFragments()(detect_fragments_batch(batch))
    kinds = collections.Counter(out.column("row_kind").to_pylist())
    assert kinds["reject"] == 1
    # only the FILE node from the doc passthrough — nothing parsed
    nodes = out.filter(pc.equal(out.column("row_kind"), "node"))
    assert nodes.column("label").to_pylist() == ["FILE"]


def test_shuffle_link_regime_matches_broadcast(ray_session, cpg, monkeypatch):
    """force_shuffle_link produces the same FULL edge multiset (every
    pred — CALL, REF, EVAL_TYPE, SOURCE_FILE, INHERITS_FROM, overlays)
    as the broadcast regime: the regime intended for the largest inputs
    must not produce a poorer graph."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg, read_edges

    out = "/tmp/joern_ray_test_shuffle"
    shutil.rmtree(out, ignore_errors=True)
    monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 4)
    res = build_cpg(_docs_factory, out, "test-120", force_shuffle_link=True)
    assert res["link_regime"] == "salted_shuffle"

    def edge_multiset(out_dir):
        t = pa.concat_tables(
            list(
                read_edges(out_dir, ["subj", "pred", "obj"]).iter_batches(
                    batch_format="pyarrow"
                )
            )
        )
        return collections.Counter(
            zip(
                t.column("subj").to_pylist(),
                t.column("pred").to_pylist(),
                t.column("obj").to_pylist(),
            )
        )

    # compare against the broadcast build from the module fixture dir
    shuffle_edges = edge_multiset(out)
    broadcast_edges = edge_multiset(OUT)
    only_b = broadcast_edges - shuffle_edges
    only_s = shuffle_edges - broadcast_edges
    assert not only_b and not only_s, (
        f"broadcast-only: {list(only_b.items())[:5]}, "
        f"shuffle-only: {list(only_s.items())[:5]}"
    )


def test_hot_key_salting_activates_and_stays_correct(ray_session, monkeypatch):
    """Plant one fqn in > threshold call sites: hot-key detection must
    trigger (survey counts CALLS, not batches) and the salted join must
    still produce exactly one correct CALL edge per site."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    # 30 docs, each calling hot_fn() 4 times -> 120 calls to one fqn
    docs = []
    for i in range(30):
        code = "int hot_fn(int v) { return v; }\n" if i == 0 else ""
        code += (
            f"int use_{i}(int a) {{ "
            + " ".join(f"hot_fn({j});" for j in range(4))
            + " return a; }\n"
        )
        docs.append(
            f'<html><body><pre><code class="language-c">{code}</code></pre></body></html>'
        )
    t = pa.table(
        {
            "url": [f"https://hot/{i}" for i in range(30)],
            "warc_ts": pa.array(list(range(30)), pa.timestamp("us")),
            "html": pa.array([d.encode() for d in docs], pa.large_binary()),
            "text": [""] * 30,
            "lang": ["en"] * 30,
        }
    )
    out = "/tmp/joern_ray_test_hotkey"
    shutil.rmtree(out, ignore_errors=True)
    monkeypatch.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)
    monkeypatch.setattr("joern_ray.pipelines.cpg.HOT_KEY_THRESHOLD", 100)
    monkeypatch.setattr("joern_ray.pipelines.cpg.N_SALTS", 4)
    res = build_cpg(
        lambda columns: ray.data.from_arrow(t),
        out,
        "hotkey-30",
        force_shuffle_link=True,
    )
    assert res["n_hot_keys"] >= 1  # hot_fn crossed the threshold
    nodes = _read_all(ray_session, res["nodes_path"])
    edges = _read_all(
        ray_session, res["edges_path"], columns=["subj", "pred", "obj", "variable"]
    )
    hot_def = nodes.filter(
        pc.and_(
            pc.equal(nodes.column("label"), "METHOD"),
            pc.equal(nodes.column("full_name"), "hot_fn"),
        )
    )
    assert hot_def.num_rows == 1
    hot_id = hot_def.column("id")[0].as_py()
    call_edges = edges.filter(
        pc.and_(pc.equal(edges.column("pred"), "CALL"), pc.equal(edges.column("obj"), hot_id))
    )
    # every one of the 120 salted call sites resolved to the single def
    assert call_edges.num_rows == 120
    assert len(set(call_edges.column("subj").to_pylist())) == 120


def test_cross_document_call_link(ray_session):
    """F2 (FIXTURES.md): a method defined in doc A, called from doc B —
    the link shuffle resolves the CALL edge ACROSS documents."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg, read_edges

    doc_a = (
        '<html><body><pre><code class="language-c">'
        "void print_number_x(int x) { printf(x); }\n"
        "</code></pre></body></html>"
    )
    doc_b = (
        '<html><body><pre><code class="language-c">'
        "int main(void) { print_number_x(42); return 0; }\n"
        "</code></pre></body></html>"
    )
    out = "/tmp/joern_ray_test_crossdoc"
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://a/1", "https://b/2"],
                "warc_ts": pa.array([0, 1], pa.timestamp("us")),
                "html": pa.array([doc_a.encode(), doc_b.encode()], pa.large_binary()),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "crossdoc")
    nodes = _read_all(ray_session, res["nodes_path"])
    edges = _read_all(
        ray_session, res["edges_path"], columns=["subj", "pred", "obj", "variable"]
    )
    byid = dict(zip(nodes.column("id").to_pylist(), zip(
        nodes.column("label").to_pylist(),
        nodes.column("name").to_pylist(),
        nodes.column("url").to_pylist(),
    )))
    cross = [
        (byid[s], byid[o])
        for s, p, o in zip(
            edges.column("subj").to_pylist(),
            edges.column("pred").to_pylist(),
            edges.column("obj").to_pylist(),
        )
        if p == "CALL" and s in byid and o in byid
        and byid[s][1] == "print_number_x" and byid[s][0] == "CALL"
    ]
    assert cross, "call site not linked"
    (call_info, target_info) = cross[0]
    assert call_info[2] == "https://b/2"  # call site in doc B
    assert target_info[0] == "METHOD" and target_info[2] == "https://a/1"  # def in doc A


def test_dynamic_dispatch_candidates(ray_session):
    """SAFEDISPATCH: a.speak() with static type Animal links to both
    Animal.speak and the Dog.speak override (DynamicCallLinker analog)."""
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    doc = (
        '<html><body><pre><code class="language-java">'
        "public class Animal { public int speak() { return 0; } }\n"
        "public class Dog extends Animal { public int speak() { return 1; } }\n"
        "public class Zoo { public int visit(Animal a) { return a.speak(); } }\n"
        "</code></pre></body></html>"
    )
    out = "/tmp/joern_ray_test_dyn"
    shutil.rmtree(out, ignore_errors=True)

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://dyn/1"],
                "warc_ts": pa.array([0], pa.timestamp("us")),
                "html": pa.array([doc.encode()], pa.large_binary()),
                "text": [""],
                "lang": ["en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "dyn-1")
    nodes = _read_all(ray_session, res["nodes_path"])
    edges = _read_all(
        ray_session, res["edges_path"], columns=["subj", "pred", "obj", "variable"]
    )
    byid = dict(
        zip(
            nodes.column("id").to_pylist(),
            zip(nodes.column("label").to_pylist(), nodes.column("full_name").to_pylist()),
        )
    )
    speak_call = nodes.filter(
        pc.and_(pc.equal(nodes.column("label"), "CALL"), pc.equal(nodes.column("name"), "speak"))
    )
    cid = speak_call.column("id")[0].as_py()
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


def test_entity_equivalences_written(ray_session, cpg):
    """MinHash entity collapse: near-identical method bodies across docs
    map to one canonical entity id (the corpus plants near-dups, F9)."""
    import pyarrow.dataset as pads

    assert cpg["equivalences_path"]
    t = pads.dataset(cpg["equivalences_path"], format="parquet").to_table()
    assert t.num_rows > 0
    # mapping is idempotent: entity ids are themselves method ids with
    # entity_id == min of their cluster
    eq = dict(zip(t.column("method_id").to_pylist(), t.column("entity_id").to_pylist()))
    assert all(eq.get(v, v) == v for v in eq.values())

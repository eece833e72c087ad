"""JSON compilation database goldens (reference
`c2cpg/.../parser/JSONCompilationDatabaseParser.scala:34-111` and its
test `io/JSONCompilationDatabaseParserTests.scala`)."""

import pyarrow as pa

from joern_ray.sources.compdb import (
    CommandObject,
    apply_compdb_batch,
    define_prelude,
    parse_compilation_database,
)

CDB = """[
  { "directory": "/home/user/llvm/build",
    "arguments": ["/usr/bin/clang++", "-Irelative", "-DSOMEDEF=with spaces", "-c", "-o", "file.o", "file.cc"],
    "file": "file.cc" },
  { "directory": "/home/user/dir",
    "command": "clang++ -Iinc -I include -DMY_DEF=1 -DFLAG -o file.o main.cpp",
    "file": "main.cpp" },
  { "directory": "/home/user/dir",
    "command": "clang++ -o util.o util.c",
    "file": "/abs/path/util.c" }
]"""


def test_parse_fields_defines_includes():
    db = parse_compilation_database(CDB)
    assert db is not None and len(db) == 3
    a, b, c = db
    # arguments form (reference safeArguments)
    assert a.compiled_file() == "/home/user/llvm/build/file.cc"
    assert ("SOMEDEF", "with spaces") in a.defines()
    assert a.includes() == ["relative"]
    # command form (reference defineInCommandPattern/includeInCommandPattern)
    assert b.compiled_file() == "/home/user/dir/main.cpp"
    assert ("MY_DEF", "1") in b.defines()
    assert ("FLAG", "") in b.defines()
    assert "inc" in b.includes()
    # absolute file wins over directory (reference compiledFile())
    assert c.compiled_file() == "/abs/path/util.c"
    assert c.defines() == []


def test_parse_malformed_returns_none():
    assert parse_compilation_database("{not json") is None
    assert parse_compilation_database('{"a": 1}') is None
    # missing `file` key
    assert parse_compilation_database('[{"directory": "/d"}]') is None


def test_duplicate_entries_dedup():
    dup = '[{"directory": "/d", "file": "x.c"}, {"directory": "/d", "file": "x.c"}]'
    db = parse_compilation_database(dup)
    assert db is not None and len(db) == 1


def test_define_prelude():
    co = CommandObject(directory="/d", file="x.c", arguments=["-DA=1", "-DB"])
    assert define_prelude(co) == "#define A 1\n#define B\n"


def _frag_batch(rows):
    return pa.table(
        {
            "url": [r[0] for r in rows],
            "fragment_idx": pa.array([0] * len(rows), pa.int32()),
            "frag_lang": [r[1] for r in rows],
            "code": [r[2] for r in rows],
            "byte_start": pa.array([0] * len(rows), pa.int64()),
            "byte_end": pa.array([0] * len(rows), pa.int64()),
            "content_hash": pa.array([7] * len(rows), pa.int64()),
        }
    )


def test_apply_compdb_batch_filters_and_preludes():
    db = parse_compilation_database(
        '[{"directory": "/src", "file": "keep.c", "command": "cc -DLIMIT=9 keep.c"}]'
    )
    batch = _frag_batch(
        [
            ("https://ex.com/keep.c", "c", "int f() { return LIMIT; }"),
            ("https://ex.com/drop.c", "c", "int g() { return 1; }"),
            ("https://ex.com/any.py", "python", "def h():\n    return 2\n"),
        ]
    )
    out = apply_compdb_batch(batch, db)
    urls = out.column("url").to_pylist()
    # in-DB C file kept (with prelude), out-of-DB C file dropped,
    # non-C language untouched
    assert urls == ["https://ex.com/keep.c", "https://ex.com/any.py"]
    code0 = out.column("code").to_pylist()[0]
    assert code0.startswith("#define LIMIT 9\n")
    assert out.column("content_hash").to_pylist()[0] != 7
    assert out.column("code").to_pylist()[1].startswith("def h()")
    assert out.column("content_hash").to_pylist()[1] == 7


def test_compdb_pipeline_macro_method(ray_session, tmp_path_factory):
    """Full pipeline: the database's function-like define becomes a
    call-linkable METHOD via MacroHandler, and the out-of-DB C document
    contributes no METHOD nodes."""
    import pyarrow.compute as pc
    import ray.data

    from joern_ray.pipelines.cpg import build_cpg

    def _doc(body):
        return (
            '<html><body><pre><code class="language-c">'
            + body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            + "</code></pre></body></html>"
        ).encode()

    # function-like define via the arguments form: the prelude line
    # `#define SQ(x) ((x)*(x))` is what MacroHandler lifts to a METHOD
    cdb = (
        '[{"directory": "/src", "file": "keep.c",'
        ' "arguments": ["cc", "-DSQ(x)=((x)*(x))", "keep.c"]}]'
    )
    doc1 = _doc("int use(int n) {\n  return SQ(n);\n}\n")
    doc2 = _doc("int dropped(void) {\n  return 3;\n}\n")
    out = str(tmp_path_factory.mktemp("cdb") / "cpg")

    def docs_factory(columns):
        t = pa.table(
            {
                "url": ["https://c.org/keep.c", "https://c.org/drop.c"],
                "warc_ts": pa.array([0, 0], pa.timestamp("us")),
                "html": pa.array([doc1, doc2], pa.large_binary()),
                "text": ["", ""],
                "lang": ["en", "en"],
            }
        )
        return ray.data.from_arrow(t)

    res = build_cpg(docs_factory, out, "cdb-1", compdb_json=cdb)
    nodes = pa.concat_tables(
        list(
            ray.data.read_parquet(
                res["nodes_path"], columns=["label", "name", "full_name", "url"]
            ).iter_batches(batch_format="pyarrow")
        )
    )
    meths = nodes.filter(pc.equal(nodes.column("label"), "METHOD"))
    names = set(meths.column("full_name").to_pylist())
    assert "use" in names
    assert "SQ" in names  # macro METHOD from the database prelude
    assert "dropped" not in names  # out-of-DB file not parsed

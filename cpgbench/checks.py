"""Output checks. Each compares the program's output with a fact planted by
the corpus generator, with DuckDB SQL over the Parquet a build wrote, or
with a property the method must have. None compares with a stored copy of
an earlier output.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import os

# The DSL traversals of one query-session pass: (name, traversal over a
# `joern_ray.query.dsl.Cpg`, DuckDB SQL asking the same question). The SQL
# reads the views `nodes` and `edges` and returns the answer's node ids.
# `_full_match` in the DSL is a full regex match over coalesce(col, '').
DSL_TRAVERSALS = (
    (
        "method_by_name",
        lambda cpg: cpg.method("(xd|xc)_[a-z0-9]+"),
        "select id from nodes where label = 'METHOD'"
        " and regexp_full_match(coalesce(name, ''), '(xd|xc)_[a-z0-9]+')",
    ),
    (
        "free_arguments",
        lambda cpg: cpg.call("free").argument(),
        "select id from nodes where id in (select obj from edges where pred = 'ARGUMENT'"
        " and subj in (select id from nodes where label = 'CALL' and name = 'free'))",
    ),
    (
        "xdef_callers",
        lambda cpg: cpg.method("xd_[a-z0-9]+").call_in(),
        "select id from nodes where id in (select subj from edges where pred = 'CALL'"
        " and obj in (select id from nodes where label = 'METHOD'"
        " and regexp_full_match(coalesce(name, ''), 'xd_[a-z0-9]+')))",
    ),
    (
        "int_literals",
        lambda cpg: cpg.literal("[0-9]+"),
        "select id from nodes where label = 'LITERAL'"
        " and regexp_full_match(coalesce(code, ''), '[0-9]+')",
    ),
    (
        "planted_identifiers",
        lambda cpg: cpg.identifier().name("p_[a-z0-9]+"),
        "select id from nodes where label = 'IDENTIFIER'"
        " and regexp_full_match(coalesce(name, ''), 'p_[a-z0-9]+')",
    ),
    (
        "type_decls",
        lambda cpg: cpg.type_decl(),
        "select id from nodes where label = 'TYPE_DECL'",
    ),
)


def connect(nodes_files: list, edges_files: list):
    """DuckDB connection with tables `nodes` and `edges` loaded from a
    build's Parquet files (loaded once: every check reads them again)."""
    import duckdb

    con = duckdb.connect()
    con.execute("SET threads = 1")
    opts = "union_by_name = true, hive_partitioning = false"
    con.execute(f"CREATE TABLE nodes AS SELECT * FROM read_parquet({list(nodes_files)!r}, {opts})")
    con.execute(f"CREATE TABLE edges AS SELECT * FROM read_parquet({list(edges_files)!r}, {opts})")
    return con


def planted_defs(con, defs: list) -> list:
    """Every planted definition is a METHOD with its full name and url."""
    if not defs:
        return []
    con.execute("CREATE OR REPLACE TEMP TABLE want_defs (url VARCHAR, full_name VARCHAR)")
    con.executemany("INSERT INTO want_defs VALUES (?, ?)", defs)
    missing = con.execute(
        "SELECT url, full_name FROM want_defs EXCEPT SELECT url, full_name FROM nodes"
        " WHERE label = 'METHOD'"
    ).fetchall()
    return [f"planted definition missing: {u} {fn}" for u, fn in sorted(missing)[:5]] + (
        [f"... {len(missing)} planted definitions missing"] if len(missing) > 5 else []
    )


def planted_xcalls(con, xcalls: list) -> list:
    """Every planted cross-page call has a CALL edge to the callee's METHOD."""
    if not xcalls:
        return []
    con.execute(
        "CREATE OR REPLACE TEMP TABLE want_x (caller_url VARCHAR, callee VARCHAR, def_url VARCHAR)"
    )
    con.executemany("INSERT INTO want_x VALUES (?, ?, ?)", xcalls)
    missing = con.execute(
        "SELECT * FROM want_x w WHERE NOT EXISTS ("
        " SELECT 1 FROM nodes c JOIN edges e ON e.subj = c.id AND e.pred = 'CALL'"
        " JOIN nodes m ON m.id = e.obj"
        " WHERE c.label = 'CALL' AND c.name = w.callee AND c.url = w.caller_url"
        " AND m.label = 'METHOD' AND m.full_name = w.callee AND m.url = w.def_url)"
    ).fetchall()
    return [f"planted call has no CALL edge: {row}" for row in missing]


def digest(con) -> tuple:
    """(edge count, edge multiset hash, node count, node table hash): equal
    for equal multisets whatever the row order or file layout."""
    e = con.execute(
        "SELECT count(*), sum(hash(subj, pred, obj, variable)::HUGEINT) FROM edges"
    ).fetchone()
    n = con.execute("SELECT count(*), sum(hash(t)::HUGEINT) FROM nodes t").fetchone()
    return (e[0], int(e[1] or 0), n[0], int(n[1] or 0))


def repeat_build(first: tuple, second: tuple) -> list:
    """Two cold builds of one corpus give the same edges and node table."""
    out = []
    if first[:2] != second[:2]:
        out.append(f"edge multisets differ between builds: {first[:2]} vs {second[:2]}")
    if first[2:] != second[2:]:
        out.append(f"node tables differ between builds: {first[2:]} vs {second[2:]}")
    return out


def unique_ids(con) -> list:
    n, d = con.execute("SELECT count(*), count(DISTINCT id) FROM nodes").fetchone()
    return [] if n == d else [f"{n - d} duplicate node ids"]


def endpoints(con) -> tuple:
    """-> (dangling TYPE->TYPE_DECL REF edges, failures). Every other edge
    must have both endpoints among the node ids."""
    dangling_type_refs, other = con.execute(
        "WITH ids AS (SELECT DISTINCT id FROM nodes),"
        " td AS (SELECT id FROM nodes WHERE label = 'TYPE_DECL'),"
        " bad AS (SELECT e.* FROM edges e WHERE e.subj NOT IN (SELECT id FROM ids)"
        "  OR e.obj NOT IN (SELECT id FROM ids))"
        " SELECT count(*) FILTER (WHERE pred = 'REF' AND obj IN (SELECT id FROM td)"
        "   AND subj NOT IN (SELECT id FROM ids)),"
        "  count(*) FILTER (WHERE NOT (pred = 'REF' AND obj IN (SELECT id FROM td)"
        "   AND subj NOT IN (SELECT id FROM ids)))"
        " FROM bad"
    ).fetchone()
    return dangling_type_refs, ([f"{other} edges with an endpoint that is no node"] if other else [])


def dsl_answer(con, name: str, sql: str, got_ids: list) -> list:
    want = sorted(r[0] for r in con.execute(sql).fetchall())
    got = sorted(got_ids)
    if got == want:
        return []
    return [f"DSL {name}: {len(got)} rows, DuckDB {len(want)} rows"]


def scanner_findings(findings: dict, scan_pos: dict, scan_neg: dict) -> list:
    """`findings`: query name -> set of finding urls (failed queries absent)."""
    out = []
    for q, urls in scan_pos.items():
        if q not in findings:
            out.append(f"scanner {q}: no findings returned")
            continue
        miss = set(urls) - findings[q]
        if miss:
            out.append(f"scanner {q}: planted urls not found: {sorted(miss)}")
    for q, urls in scan_neg.items():
        hit = set(urls) & findings.get(q, set())
        if hit:
            out.append(f"scanner {q}: flagged planted negatives: {sorted(hit)}")
    return out


def uaf_sinks(con, uaf: list) -> dict:
    """url -> (ids of the free() argument nodes, id of `p = malloc(n)`)."""
    out = {}
    for url, var, alloc in uaf:
        sinks = [
            r[0]
            for r in con.execute(
                "SELECT a.id FROM nodes c JOIN edges e ON e.subj = c.id AND e.pred = 'ARGUMENT'"
                " JOIN nodes a ON a.id = e.obj WHERE c.label = 'CALL' AND c.name = 'free'"
                " AND c.url = ? AND a.name = ?",
                [url, var],
            ).fetchall()
        ]
        src = con.execute(
            "SELECT id FROM nodes WHERE label = 'CALL' AND url = ? AND code = ?", [url, alloc]
        ).fetchall()
        out[url] = (sinks, [r[0] for r in src])
    return out


def dataflow(expect: dict, reached: set) -> list:
    """`reachable_by` from each planted free(p) argument reaches p = malloc(n)."""
    out = []
    for url, (sinks, srcs) in sorted(expect.items()):
        if not sinks or not srcs:
            out.append(f"dataflow {url}: planted free()/malloc nodes not in the graph")
        elif not set(srcs) & reached:
            out.append(f"dataflow {url}: malloc assignment not reached from free() argument")
    return out


def csv_rows(root: str) -> int:
    import pyarrow.csv as pcsv

    # method code spans lines, so quoted values may hold newlines
    opts = pcsv.ParseOptions(newlines_in_values=True)
    n = 0
    for dirpath, _dirs, names in os.walk(root):
        for f in sorted(names):
            if f.endswith(".csv"):
                n += pcsv.read_csv(os.path.join(dirpath, f), parse_options=opts).num_rows
    return n


def footer_rows(files: list) -> int:
    import pyarrow.parquet as pq

    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def export_counts(export: dict, nodes_files: list, edges_files: list) -> list:
    """Neo4j CSV row counts equal the node and edge Parquet footer counts."""
    out = []
    for kind, files in (("nodes", nodes_files), ("edges", edges_files)):
        try:
            got = csv_rows(export[kind])
        except Exception as e:  # noqa: BLE001 -- an unreadable CSV fails the check
            out.append(f"export {kind}: unreadable CSV ({type(e).__name__}: {e})")
            continue
        want = footer_rows(files)
        if got != want:
            out.append(f"export {kind}: {got} CSV rows, {want} Parquet rows")
    return out

"""t0: golden CFG successor sets (reference `CfgTestFixture.succOf`
style, `x2cpg/src/test/.../testfixtures/CfgTestFixture.scala:15-60`),
dominators, CDG, reaching definitions."""

import random

from joern_ray.graph.cfg import CfgBuilder, dominance_edges, method_overlays
from joern_ray.parsing.astmodel import PNode
from joern_ray.parsing.parser import FragmentParser


def build(src, dialect="c"):
    root = FragmentParser(dialect).parse(src, "u", 0)

    def find_method(n):
        if n.label == "METHOD":
            return n
        for c in n.children:
            r = find_method(c)
            if r is not None:
                return r

    m = find_method(root)
    b = CfgBuilder()
    cfg, nodes = b.build(m)
    succ: dict[str, set[str]] = {}
    for a, c in cfg:
        succ.setdefault(a.code, set()).add(c.code)
    return root, m, cfg, succ


def test_if_else_succ():
    _, m, _, succ = build("int f(int x) { if (x < 1) { y(); } else { z(); } return 0; }")
    assert succ["x < 1"] == {"y()", "z()"}  # true edge + false edge
    assert "RET" in succ["return 0"]


def test_if_no_else_falls_through():
    _, _, _, succ = build("int f(int x) { if (x) { y(); } return 0; }")
    assert succ["x"] == {"y()", "0"}


def test_while_loop_back_and_exit():
    _, _, _, succ = build("int f(int x) { while (x) { x = g(); } return x; }")
    # condition -> body entry (true) and loop exit (false)
    assert "x = g()" in str(succ["x"]) or succ["x"]  # cond successors
    # assignment loops back to the condition identifier
    back = succ["x = g()"]
    assert "x" in back


def test_do_executes_body_first():
    _, m, cfg, succ = build("int f(int x) { do { g(); } while (x); return 0; }")
    entry_succs = succ[m.code]
    assert "g()" in entry_succs  # body before condition


def test_short_circuit_and():
    _, _, _, succ = build("int f(int a, int b) { if (a && b) { g(); } return 0; }")
    # `a` flows to `b` (true) AND to the && node (short-circuit false)
    assert "b" in succ["a"] and "a && b" in succ["a"]


def test_break_exits_loop():
    _, _, _, succ = build("int f(int x) { while (x) { if (x) { break; } g(); } return 0; }")
    assert "0" in succ["break"]


def test_goto_resolves_label():
    _, _, _, succ = build("int f() { goto done; g(); done: return 0; }")
    assert "done:" in succ["goto done"]


def test_dominators_diamond():
    src = "int f(int x) { if (x) { a(); } else { b(); } c(); return 0; }"
    root, m, cfg, succ = build(src)
    ov = method_overlays(root)
    dom = {(a.code, c.code) for a, p, c, _ in ov if p == "DOMINATE"}
    # condition dominates both branches and the join
    assert ("x", "a()") in dom and ("x", "b()") in dom
    pdom = {(a.code, c.code) for a, p, c, _ in ov if p == "POST_DOMINATE"}
    # join node post-dominates both branches
    assert ("c()", "a()") in pdom and ("c()", "b()") in pdom


def test_cdg_branches_depend_on_condition():
    src = "int f(int x) { if (x) { a(); } else { b(); } c(); return 0; }"
    root, *_ = build(src)
    ov = method_overlays(root)
    cdg = {(a.code, c.code) for a, p, c, _ in ov if p == "CDG"}
    assert ("x", "a()") in cdg and ("x", "b()") in cdg
    assert ("x", "c()") not in cdg  # join is not control-dependent


def _dominators(succ: dict[int, set[int]], entry: int) -> dict[int, set[int]]:
    """Dominator sets by their definition, over the nodes reachable from
    `entry`: the fixpoint of Dom(v) = {v} | the intersection of Dom(p)
    over v's reachable predecessors."""
    reach, todo = {entry}, [entry]
    while todo:
        for w in succ.get(todo.pop(), ()):
            if w not in reach:
                reach.add(w)
                todo.append(w)
    dom = {v: set(reach) for v in reach}
    dom[entry] = {entry}
    changed = True
    while changed:
        changed = False
        for v in reach - {entry}:
            preds = [dom[p] for p in reach if v in succ.get(p, ())]
            new = {v} | set.intersection(*preds)
            if new != dom[v]:
                dom[v], changed = new, True
    return dom


def _idom(dom: dict[int, set[int]], v: int) -> int:
    # the strict dominators form a chain; the nearest has the most
    return max(dom[v] - {v}, key=lambda d: len(dom[d]))


def test_dominance_matches_definition():
    """`dominance_edges` on random CFGs with loops, self-loops, duplicate
    edges and dead code (nodes only an edge names, not reachable from
    the entry) against the set definitions: DOMINATE and POST_DOMINATE
    are the immediate (post-)dominators of `nodes`, and CDG holds (a, w)
    for each edge (a, b) and each w that post-dominates b but does not
    strictly post-dominate a, w != a."""
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 12)
        dead = list(range(n, n + rng.randint(0, 2)))
        exit_ = n - 1
        edges = []
        for v in range(1, n - 1):  # every live node: reached from 0, reaches exit
            edges.append((rng.randrange(v), v))
            edges.append((v, rng.randint(v + 1, exit_)))
        for d in dead:
            edges.append((d, rng.randrange(n)))
        for _ in range(rng.randint(0, 2 * n)):
            edges.append((rng.randrange(n - 1), rng.randrange(n)))
        if n == 2 or rng.random() < 0.5:
            edges.append((0, exit_))
        rng.shuffle(edges)
        pn = [PNode("CALL", code=str(i)) for i in range(n + len(dead))]
        nodes = list(range(n))
        rng.shuffle(nodes)
        d, p, cdg = dominance_edges(
            [pn[v] for v in nodes], [(pn[a], pn[b]) for a, b in edges], pn[0], pn[exit_]
        )

        def ints(pairs):
            return [(int(a.code), int(b.code)) for a, b in pairs]

        succ: dict[int, set[int]] = {}
        rsucc: dict[int, set[int]] = {}
        for a, b in edges:
            succ.setdefault(a, set()).add(b)
            rsucc.setdefault(b, set()).add(a)
        dom, pdom = _dominators(succ, 0), _dominators(rsucc, exit_)
        assert sorted(ints(d)) == sorted((_idom(dom, v), v) for v in dom if v != 0)
        assert sorted(ints(p)) == sorted((_idom(pdom, v), v) for v in range(n) if v != exit_)
        want = {
            (a, w)
            for a, b in edges
            for w in pdom[b]
            if w != a and w not in pdom[a] - {a}
        }
        assert len(set(ints(cdg))) == len(cdg)
        assert set(ints(cdg)) == want


def test_reaching_def_kill():
    src = "int f() { int a = 1; a = 2; return a; }"
    root, *_ = build(src)
    ov = method_overlays(root)
    rd = [(a.code, c.code, v) for a, p, c, v in ov if p == "REACHING_DEF"]
    # only the second assignment reaches the return's use of a
    reaching_return = [r for r in rd if r[0].startswith("a = ") and r[2] == "a"]
    assert ("a = 2", "a", "a") in reaching_return
    assert all(src_ != "a = 1" or dst != "a" for src_, dst, _ in rd if dst == "a" and src_.startswith("a ="))


def test_reaching_def_param():
    src = "int f(int p) { return p; }"
    root, *_ = build(src)
    ov = method_overlays(root)
    rd = [(a.label, c.code, v) for a, p, c, v in ov if p == "REACHING_DEF"]
    assert ("METHOD_PARAMETER_IN", "p", "p") in rd


def test_uaf_fixture_flow():
    src = """int uaf(void) {
      char *x = malloc(8);
      free(x);
      return x[0];
    }"""
    root, *_ = build(src)
    ov = method_overlays(root)
    rd = [(a.code, v) for a, p, c, v in ov if p == "REACHING_DEF"]
    assert ("x = malloc(8)", "x") in rd


def test_contains_edges():
    root, m, *_ = build("int f() { g(); }")
    ov = method_overlays(root)
    contains = [(a.label, c.code) for a, p, c, _ in ov if p == "CONTAINS"]
    assert ("METHOD", "g()") in contains

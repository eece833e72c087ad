"""Per-method graph overlays: CFG, dominators, CDG, reaching definitions.

Re-expresses the reference's per-method passes — `CfgCreator`'s structural
recursion with a fringe of dangling edges (`x2cpg/.../cfgcreation/
CfgCreator.scala:43-773`), `CfgDominatorPass` (Cooper-Harvey-Kennedy
iteration, `cfgdominator/CfgDominator.scala:7-90`), `CdgPass`
(post-dominance frontier, `codepencegraph/CdgPass.scala:23-68`) and
`ReachingDefPass`/`DdgGenerator` (gen/kill MOP solve with a 4000-defs
bail-out, `dataflowengineoss/.../reachingdef/*`) — as pure Python over the
in-UDF PNode tree.

These run INSIDE the parse `map_batches` UDF, per fragment, before
flattening: each method's CFG is independent (the reference runs them as
`ForkJoinParallelCpgPass[Method]`), so at Ray level they are
embarrassingly parallel and need no shuffle (SURVEY.md §2.8).

Final CPG CFG edges carry no True/False label (the True/False distinction
exists only during construction in the reference, `cfgcreation/Cfg.scala`);
all emitted edges here are `(src PNode, pred, dst PNode, variable|None)`.
"""

from __future__ import annotations

from ..parsing.astmodel import PNode

MAX_REACHING_DEFS = 4000  # reference bail-out, `ReachingDefPass.scala:14,40-52`

# Node labels that participate in CFG (expression-level nodes).
_CFG_LEAF = frozenset(
    ["IDENTIFIER", "LITERAL", "FIELD_IDENTIFIER", "METHOD_REF", "UNKNOWN"]
)
_SHORT_CIRCUIT = {"<operator>.logicalAnd", "<operator>.logicalOr"}
_CONDITIONAL = "<operator>.conditional"


class _Ctx:
    """Loop/switch context for break/continue/goto resolution."""

    __slots__ = ("break_sinks", "continue_target")

    def __init__(self) -> None:
        self.break_sinks: list[PNode] = []
        self.continue_target: PNode | None = None


class CfgBuilder:
    """One method -> CFG edge list + ordered node list."""

    def __init__(self) -> None:
        self.edges: list[tuple[PNode, PNode]] = []
        self.succ: dict[int, list[PNode]] = {}
        self.labels: dict[str, PNode] = {}
        self.gotos: list[tuple[PNode, str]] = []
        self.returns: list[PNode] = []
        self.ctx: list[_Ctx] = []

    # -- public -----------------------------------------------------------

    def build(self, method: PNode) -> tuple[list[tuple[PNode, PNode]], list[PNode]]:
        """Returns (cfg_edges, cfg_nodes) for one METHOD subtree.

        Entry = METHOD node itself; exit = METHOD_RETURN child.
        """
        body = None
        method_return = None
        for c in method.children:
            if c.label == "BLOCK" and body is None:
                body = c
            elif c.label == "METHOD_RETURN":
                method_return = c
        if method_return is None:  # defensive; parser always adds one
            return [], []
        entry, fringe = (None, []) if body is None else self._seq(body.children)
        if entry is None:
            self._edge(method, method_return)
        else:
            self._edge(method, entry)
            for f in fringe:
                self._edge(f, method_return)
        for r in self.returns:
            self._edge(r, method_return)
        for g, name in self.gotos:
            target = self.labels.get(name)
            if target is not None:
                self._edge(g, target)
        nodes = self._order_nodes(method, method_return)
        return self.edges, nodes

    # -- helpers ----------------------------------------------------------

    def _edge(self, a: PNode, b: PNode) -> None:
        self.edges.append((a, b))
        self.succ.setdefault(id(a), []).append(b)

    def _seq(self, stmts: list[PNode]) -> tuple[PNode | None, list[PNode]]:
        """Sequence statements: fringe of each flows into entry of next."""
        entry: PNode | None = None
        fringe: list[PNode] = []
        for s in stmts:
            e, f = self._stmt(s)
            if e is None:
                continue
            if entry is None:
                entry = e
            for prev in fringe:
                self._edge(prev, e)
            fringe = f
        return entry, fringe

    def _stmt(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        lab = n.label
        if lab == "BLOCK":
            return self._seq(n.children)
        if lab == "LOCAL" or lab == "METHOD" or lab == "TYPE_DECL" or lab == "MEMBER":
            return None, []  # declarations are not executed
        if lab == "RETURN":
            e, f = self._seq(n.children)
            if e is None:
                self.returns.append(n)
                return n, []
            for prev in f:
                self._edge(prev, n)
            self.returns.append(n)
            return e, []
        if lab == "JUMP_TARGET":
            if n.name not in ("case", "default"):
                self.labels[n.name] = n
            return n, [n]
        if lab == "CONTROL_STRUCTURE":
            return self._control(n)
        # expression statement
        return self._expr(n)

    def _control(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        name = n.name
        if name == "IF":
            return self._if(n)
        if name == "WHILE":
            return self._while(n)
        if name == "DO":
            return self._do(n)
        if name == "FOR":
            return self._for(n)
        if name == "SWITCH":
            return self._switch(n)
        if name == "BREAK":
            if self.ctx:
                self.ctx[-1].break_sinks.append(n)
            return n, []
        if name == "CONTINUE":
            tgt = next(
                (c.continue_target for c in reversed(self.ctx) if c.continue_target),
                None,
            )
            if tgt is not None:
                self._edge(n, tgt)
            return n, []
        if name == "GOTO":
            lbl = n.code.split()[-1] if " " in n.code else ""
            self.gotos.append((n, lbl))
            return n, []
        if name in ("TRY", "CATCH", "FINALLY", "ELSE", "THROW"):
            # sequence the bodies; THROW terminates flow
            e, f = self._seq(n.children)
            if name == "THROW":
                return (e if e is not None else n), []
            return e, f
        # unknown control structure — treat as opaque node
        return n, [n]

    def _if(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        cond = n.condition_child
        kids = [c for c in n.children if c is not cond]
        then_node = kids[0] if kids else None
        else_node = kids[1] if len(kids) > 1 else None
        ce, cf = self._expr(cond) if cond is not None else (None, [])
        if ce is None:
            ce, cf = (then_node, []) if then_node is not None else (None, [])
        fringe: list[PNode] = []
        if then_node is not None:
            te, tf = self._stmt(then_node)
            if te is not None:
                for c in cf:
                    self._edge(c, te)  # TrueEdge
                fringe.extend(tf)
            else:
                fringe.extend(cf)
        if else_node is not None:
            ee, ef = self._stmt(else_node)
            if ee is not None:
                for c in cf:
                    self._edge(c, ee)  # FalseEdge
                fringe.extend(ef)
            else:
                fringe.extend(cf)
        else:
            fringe.extend(cf)  # no else: condition false falls through
        return ce, fringe

    def _while(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        cond = n.condition_child
        body = next((c for c in n.children if c is not cond), None)
        ce, cf = self._expr(cond) if cond is not None else (None, [])
        ctx = _Ctx()
        ctx.continue_target = ce
        self.ctx.append(ctx)
        be, bf = self._stmt(body) if body is not None else (None, [])
        self.ctx.pop()
        if ce is None:  # while with no cond — infinite loop shape
            if be is not None:
                for f in bf:
                    self._edge(f, be)
            return be, ctx.break_sinks
        if be is not None:
            for c in cf:
                self._edge(c, be)  # TrueEdge
            for f in bf:
                self._edge(f, ce)  # loop back
        else:
            for c in cf:
                self._edge(c, ce)
        return ce, list(cf) + ctx.break_sinks  # FalseEdge exits

    def _do(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        cond = n.condition_child
        body = next((c for c in n.children if c is not cond), None)
        ctx = _Ctx()
        self.ctx.append(ctx)
        be, bf = self._stmt(body) if body is not None else (None, [])
        self.ctx.pop()
        ce, cf = self._expr(cond) if cond is not None else (None, [])
        if be is None:
            return ce, cf
        for f in bf:
            if ce is not None:
                self._edge(f, ce)
        if ce is not None:
            for c in cf:
                self._edge(c, be)  # TrueEdge loops back
            return be, list(cf) + ctx.break_sinks
        return be, bf + ctx.break_sinks

    def _for(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        cond = n.condition_child
        kids = [c for c in n.children if c is not cond]
        # parser layout: [init..., update?, body] — body is last, update is
        # the second-to-last expression kid when present
        body = kids[-1] if kids else None
        rest = kids[:-1]
        update = None
        if len(rest) >= 1 and rest[-1].label not in ("LOCAL",) and cond is not None:
            # update exists only when the for header had 3 clauses; detect by
            # checking the node is an expression (CALL/IDENTIFIER/...)
            if rest[-1].label in ("CALL", "IDENTIFIER", "LITERAL", "UNKNOWN", "BLOCK"):
                update = rest[-1]
                rest = rest[:-1]
        init_entry, init_fringe = self._seq(rest)
        ce, cf = self._expr(cond) if cond is not None else (None, [])
        ctx = _Ctx()
        ue = uf = None
        ctx.continue_target = None  # set after update is built
        # build update first so continue can target it
        if update is not None:
            ue, uf = self._expr(update)
        ctx.continue_target = ue if ue is not None else ce
        self.ctx.append(ctx)
        be, bf = self._stmt(body) if body is not None else (None, [])
        self.ctx.pop()
        # wire: init -> cond -> (T) body -> update -> cond ; (F) exit
        head = ce if ce is not None else (be if be is not None else ue)
        entry = init_entry if init_entry is not None else head
        for f in init_fringe:
            if head is not None:
                self._edge(f, head)
        loop_back_target = head
        if ce is not None:
            if be is not None:
                for c in cf:
                    self._edge(c, be)
                tail_fringe = bf
            else:
                tail_fringe = list(cf)
            if ue is not None:
                for f in tail_fringe:
                    self._edge(f, ue)
                for f in uf or []:
                    self._edge(f, ce)
            else:
                for f in tail_fringe:
                    self._edge(f, ce)
            return entry, list(cf) + ctx.break_sinks
        # no condition: for(;;) — loop forever, exits via break
        if be is not None:
            chain = bf
            if ue is not None:
                for f in chain:
                    self._edge(f, ue)
                chain = uf or []
            for f in chain:
                if loop_back_target is not None:
                    self._edge(f, loop_back_target)
        return entry, ctx.break_sinks

    def _switch(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        cond = n.condition_child
        body = next((c for c in n.children if c is not cond), None)
        ce, cf = self._expr(cond) if cond is not None else (None, [])
        ctx = _Ctx()
        self.ctx.append(ctx)
        has_default = False
        case_entries: list[PNode] = []
        # sequence the body but record case/default entries for dispatch
        if body is not None and body.label == "BLOCK":
            entry, fringe = None, []
            for s in body.children:
                e, f = self._stmt(s)
                if e is None:
                    continue
                if s.label == "JUMP_TARGET":
                    case_entries.append(e)
                    if s.name == "default":
                        has_default = True
                if entry is None:
                    entry = e
                for prev in fringe:
                    self._edge(prev, e)
                fringe = f
            bf = fringe
        else:
            be, bf = self._stmt(body) if body is not None else (None, [])
        self.ctx.pop()
        for c in cf:
            for ce2 in case_entries:
                self._edge(c, ce2)  # CaseEdge
        out = list(bf) + ctx.break_sinks
        if not has_default:
            out.extend(cf)
        return (ce if ce is not None else (case_entries[0] if case_entries else None)), out

    def _expr(self, n: PNode | None) -> tuple[PNode | None, list[PNode]]:
        """Expression CFG: operands in evaluation order, then the node
        itself; short-circuit for &&, ||, ?: (reference
        `CfgCreator.scala` cfgForAndExpression etc.)."""
        if n is None:
            return None, []
        lab = n.label
        if lab in _CFG_LEAF:
            return n, [n]
        if lab == "CALL":
            if n.name in _SHORT_CIRCUIT and len(n.children) == 2:
                le, lf = self._expr(n.children[0])
                re_, rf = self._expr(n.children[1])
                if le is None:
                    return self._expr_simple(n)
                if re_ is not None:
                    for f in lf:
                        self._edge(f, re_)  # True (&&) / False (||)
                    for f in rf:
                        self._edge(f, n)
                for f in lf:
                    self._edge(f, n)  # short-circuit edge
                return le, [n]
            if n.name == _CONDITIONAL and len(n.children) == 3:
                ce, cf = self._expr(n.children[0])
                ae, af = self._expr(n.children[1])
                be, bf = self._expr(n.children[2])
                if ce is None:
                    return self._expr_simple(n)
                for branch_e, branch_f in ((ae, af), (be, bf)):
                    if branch_e is not None:
                        for f in cf:
                            self._edge(f, branch_e)
                        for f in branch_f:
                            self._edge(f, n)
                    else:
                        for f in cf:
                            self._edge(f, n)
                return ce, [n]
            return self._expr_simple(n)
        if lab == "BLOCK":  # comma operator / wrapped exprs
            e, f = self._seq(n.children)
            return (e, f) if e is not None else (None, [])
        if lab in ("CONTROL_STRUCTURE", "RETURN", "JUMP_TARGET"):
            return self._stmt(n)
        # METHOD (lambda lifted) etc. — not a CFG node
        return None, []

    def _expr_simple(self, n: PNode) -> tuple[PNode | None, list[PNode]]:
        entry: PNode | None = None
        fringe: list[PNode] = []
        for c in n.children:
            e, f = self._expr(c)
            if e is None:
                continue
            if entry is None:
                entry = e
            for prev in fringe:
                self._edge(prev, e)
            fringe = f
        for f in fringe:
            self._edge(f, n)
        return (entry if entry is not None else n), [n]

    def _order_nodes(self, method: PNode, method_return: PNode) -> list[PNode]:
        """Reverse-post-order from METHOD (reference `NodeOrdering.scala:
        42-50` numbers CFG nodes RPO for the dataflow solve)."""
        seen: set[int] = set()
        post: list[PNode] = []

        # iterative DFS (fragments can be deep)
        stack: list[tuple[PNode, int]] = [(method, 0)]
        seen.add(id(method))
        while stack:
            node, ci = stack[-1]
            succs = self.succ.get(id(node), [])
            if ci < len(succs):
                stack[-1] = (node, ci + 1)
                s = succs[ci]
                if id(s) not in seen:
                    seen.add(id(s))
                    stack.append((s, 0))
            else:
                post.append(node)
                stack.pop()
        rpo = list(reversed(post))
        if id(method_return) not in seen:
            rpo.append(method_return)
        return rpo


# ---------------------------------------------------------------------------
# Dominators (Cooper-Harvey-Kennedy "a simple, fast dominance algorithm" —
# the reference's `CfgDominator.scala:7-90` implements the same iteration).
# ---------------------------------------------------------------------------


def _idoms(
    succ: list[list[int]], preds: list[list[int]], entry: int
) -> tuple[list[int], list[int]]:
    """Immediate dominators over a graph of ints 0..n-1 -> (rpo, idom):
    `rpo` lists the nodes reachable from `entry` in reverse post-order of
    a DFS taking successors in list order, and `idom[v]` is v's immediate
    dominator, -1 for `entry` and for nodes not reached.  The RPO is
    computed here, so the CHK intersect terminates whatever order the
    caller numbered the nodes in."""
    seen = [False] * len(succ)
    seen[entry] = True
    post: list[int] = []
    stack: list[tuple[int, int]] = [(entry, 0)]
    while stack:
        v, ci = stack[-1]
        ss = succ[v]
        if ci < len(ss):
            stack[-1] = (v, ci + 1)
            s = ss[ci]
            if not seen[s]:
                seen[s] = True
                stack.append((s, 0))
        else:
            post.append(v)
            stack.pop()
    rpo = post[::-1]
    num = [-1] * len(succ)
    for i, v in enumerate(rpo):
        num[v] = i  # entry == 0
    rpreds = [[num[p] for p in preds[v] if num[p] >= 0] for v in rpo]
    dom = [-1] * len(rpo)
    dom[0] = 0
    changed = True
    while changed:
        changed = False
        for i in range(1, len(rpo)):
            new = -1
            for p in rpreds[i]:
                if dom[p] < 0:
                    continue
                if new < 0:
                    new = p
                    continue
                b1, b2 = p, new  # intersect
                while b1 != b2:
                    while b1 > b2:
                        b1 = dom[b1]
                    while b2 > b1:
                        b2 = dom[b2]
                new = b1
            if new >= 0 and dom[i] != new:
                dom[i] = new
                changed = True
    idom = [-1] * len(succ)
    for i in range(1, len(rpo)):
        if dom[i] >= 0:
            idom[rpo[i]] = rpo[dom[i]]
    return rpo, idom


def dominance_edges(
    nodes: list[PNode], edges: list[tuple[PNode, PNode]], entry: PNode, exit_: PNode
) -> tuple[list[tuple[PNode, PNode]], ...]:
    """-> (DOMINATE edges idom(n)->n, POST_DOMINATE edges ipdom(n)->n,
    CDG edges) of one method's CFG, for n in `nodes` (which hold `entry`
    and `exit_`).  The CFG is indexed once as ints (`nodes` first, then
    any other edge endpoint) and solved once per direction; CDG walks the
    post-dominator tree of that solve.

    CDG is control dependence via the post-dominance frontier (Ferrante
    et al.; the reference's `CdgPass.scala:23-68` walks the same
    frontier): for each CFG edge (a, b), walk b up the ipdom chain to
    ipdom(a), marking every visited node control-dependent on a."""
    order = list({id(n): n for n in nodes}.values())
    k = len(order)  # indexes below k are `nodes`
    index = {id(n): i for i, n in enumerate(order)}
    for ab in edges:
        for n in ab:
            if id(n) not in index:
                index[id(n)] = len(order)
                order.append(n)
    iedges = [(index[id(a)], index[id(b)]) for a, b in edges]
    succ: list[list[int]] = [[] for _ in order]
    preds: list[list[int]] = [[] for _ in order]
    for a, b in iedges:
        succ[a].append(b)
        preds[b].append(a)
    rpo, idom = _idoms(succ, preds, index[id(entry)])
    prpo, ipdom = _idoms(preds, succ, index[id(exit_)])
    d_edges = [(order[idom[v]], order[v]) for v in rpo[1:] if v < k and idom[v] >= 0]
    p_edges = [(order[ipdom[v]], order[v]) for v in prpo[1:] if v < k and ipdom[v] >= 0]
    cdg: list[tuple[PNode, PNode]] = []
    seen: set[tuple[int, int]] = set()
    for a, b in iedges:
        stop = ipdom[a]  # -1: walk to the root
        runner = b
        hops = 0
        while runner >= 0 and runner != stop:
            if runner == a:
                break  # self-loop — reference skips self-dependence
            if (a, runner) not in seen:
                seen.add((a, runner))
                cdg.append((order[a], order[runner]))
            runner = ipdom[runner]
            hops += 1
            if hops > len(nodes) + 1:  # degenerate chain guard
                break
    return d_edges, p_edges, cdg


# ---------------------------------------------------------------------------
# Reaching definitions (gen/kill forward MOP; reference
# `ReachingDefProblem.scala:22-123` + `DdgGenerator.scala:16-229`).
# ---------------------------------------------------------------------------

_ASSIGN_NAMES = frozenset(
    [
        "<operator>.assignment",
        "<operator>.assignmentPlus",
        "<operator>.assignmentMinus",
        "<operator>.assignmentMultiplication",
        "<operator>.assignmentDivision",
        "<operator>.assignmentModulo",
        "<operator>.preIncrement",
        "<operator>.postIncrement",
        "<operator>.preDecrement",
        "<operator>.postDecrement",
    ]
)


def _defined_var(n: PNode) -> str | None:
    """Variable a CFG node defines, if any."""
    if n.label == "METHOD_PARAMETER_IN":
        return n.name
    if n.label == "CALL" and n.name in _ASSIGN_NAMES and n.children:
        tgt = n.children[0]
        if tgt.label == "IDENTIFIER":
            return tgt.name
    return None


def _used_vars(n: PNode) -> list[str]:
    if n.label == "IDENTIFIER":
        return [n.name]
    return []


def reaching_def_edges(
    nodes: list[PNode],
    edges: list[tuple[PNode, PNode]],
    method: PNode,
) -> list[tuple[PNode, PNode, str]] | None:
    """-> [(def_node, use_node, variable)] or None when the method exceeds
    the defs bail-out (reference skips such methods, `ReachingDefPass.
    scala:26-52`)."""
    params = [c for c in method.children if c.label == "METHOD_PARAMETER_IN"]
    index = {id(n): i for i, n in enumerate(nodes)}
    # LHS identifier of a PLAIN assignment is a pure def — not a use
    # (compound assignments/incr-decr read the old value, so they stay).
    pure_def_targets: set[int] = set()
    for n in nodes:
        if (
            n.label == "CALL"
            and n.name == "<operator>.assignment"
            and n.children
            and n.children[0].label == "IDENTIFIER"
        ):
            pure_def_targets.add(id(n.children[0]))
    defs: list[tuple[int, str]] = []  # (node_idx, var)
    for n in nodes:
        v = _defined_var(n)
        if v is not None and id(n) in index:
            defs.append((index[id(n)], v))
    for p in params:
        if id(p) not in index:
            # params aren't CFG nodes; treat method entry as their def site
            defs.append((index[id(method)], p.name))
    if len(defs) > MAX_REACHING_DEFS:
        return None
    def_ids = {i: set() for i in range(len(nodes))}  # node -> def indices gen'd
    kill_by_var: dict[str, set[int]] = {}
    for di, (ni, var) in enumerate(defs):
        def_ids[ni].add(di)
        kill_by_var.setdefault(var, set()).add(di)
    preds: dict[int, list[int]] = {i: [] for i in range(len(nodes))}
    for a, b in edges:
        ia, ib = index.get(id(a)), index.get(id(b))
        if ia is not None and ib is not None:
            preds[ib].append(ia)
    n_defs = len(defs)
    IN = [0] * len(nodes)
    OUT = [0] * len(nodes)
    gen = [0] * len(nodes)
    kill = [0] * len(nodes)
    for di, (ni, var) in enumerate(defs):
        gen[ni] |= 1 << di
        kill[ni] |= sum(
            1 << dj for dj in kill_by_var.get(var, ()) if dj != di
        )
    # param defs at the method-entry node also gen there (set above)
    changed = True
    iters = 0
    max_iters = 4 * (len(nodes) + 1)
    while changed and iters < max_iters:
        changed = False
        iters += 1
        for i in range(len(nodes)):  # nodes already in RPO → fast converge
            new_in = 0
            for p in preds[i]:
                new_in |= OUT[p]
            new_out = gen[i] | (new_in & ~kill[i])
            if new_in != IN[i] or new_out != OUT[i]:
                IN[i], OUT[i] = new_in, new_out
                changed = True
    # emit edges: def -> use for every variable read reachable at the node
    var_defs: dict[str, list[int]] = {}
    for di, (ni, var) in enumerate(defs):
        var_defs.setdefault(var, []).append(di)
    param_by_name = {p.name: p for p in params}
    out_edges: list[tuple[PNode, PNode, str]] = []
    seen: set[tuple[int, int, str]] = set()
    for i, n in enumerate(nodes):
        if id(n) in pure_def_targets:
            continue
        for var in _used_vars(n):
            for di in var_defs.get(var, ()):
                if IN[i] & (1 << di):
                    ni, _ = defs[di]
                    src = nodes[ni]
                    if src is method and var in param_by_name:
                        src = param_by_name[var]
                    key = (id(src), id(n), var)
                    if key not in seen and src is not n:
                        seen.add(key)
                        out_edges.append((src, n, var))
    return out_edges


# ---------------------------------------------------------------------------
# Driver: run all per-method overlays over a fragment's PNode tree.
# ---------------------------------------------------------------------------


def contains_edges(root: PNode) -> list[tuple[PNode, PNode]]:
    """CONTAINS shortcut edges: METHOD/TYPE_DECL -> every AST descendant
    expression/statement (reference `ContainsEdgePass.scala:15-50`)."""
    out: list[tuple[PNode, PNode]] = []
    _CONTAIN_SRC = ("METHOD", "TYPE_DECL")
    _CONTAIN_DST = frozenset(
        [
            "CALL",
            "IDENTIFIER",
            "FIELD_IDENTIFIER",
            "LITERAL",
            "METHOD_REF",
            "RETURN",
            "BLOCK",
            "CONTROL_STRUCTURE",
            "JUMP_TARGET",
            "UNKNOWN",
            "LOCAL",
        ]
    )

    def walk(n: PNode, owner: PNode | None) -> None:
        next_owner = n if n.label in _CONTAIN_SRC else owner
        for c in n.children:
            if next_owner is not None and c.label in _CONTAIN_DST:
                out.append((next_owner, c))
            walk(c, next_owner)

    walk(root, None)
    return out


def method_overlays(root: PNode) -> list[tuple[PNode, str, PNode, str | None]]:
    """All per-fragment overlay edges for every METHOD under `root`:
    CFG, DOMINATE, POST_DOMINATE, CDG, REACHING_DEF(+variable), CONTAINS.
    """
    out: list[tuple[PNode, str, PNode, str | None]] = []

    def methods(n: PNode):
        if n.label == "METHOD":
            yield n
        for c in n.children:
            yield from methods(c)

    for m in methods(root):
        b = CfgBuilder()
        cfg, nodes = b.build(m)
        if not cfg:
            continue
        method_return = next(
            (c for c in m.children if c.label == "METHOD_RETURN"), None
        )
        for a, c in cfg:
            out.append((a, "CFG", c, None))
        if method_return is not None and len(nodes) > 1:
            d, p, cd = dominance_edges(nodes, cfg, m, method_return)
            out.extend((a, "DOMINATE", c, None) for a, c in d)
            out.extend((a, "POST_DOMINATE", c, None) for a, c in p)
            out.extend((a, "CDG", c, None) for a, c in cd)
            rd = reaching_def_edges(nodes, cfg, m)
            if rd is not None:
                out.extend((a, "REACHING_DEF", c, v) for a, c, v in rd)
    for a, c in contains_edges(root):
        out.append((a, "CONTAINS", c, None))
    return out

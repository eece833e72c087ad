"""Traversal query DSL over the materialized CPG tables.

Re-expresses the reference's query surface (SURVEY.md §2.10 —
node-type starters `cpg.method`, `cpg.call`, …; property filters
`name(regex)`, `nameExact`; AST navigation `astChildren`/`astParent`;
call-graph steps `callIn`/`callee`; dataflow `reachableBy`;
materializers `.l`, `.toJson` — `semanticcpg/.../language/
NodeTypeStarters.scala:15-91`, `AstNodeTraversal.scala:14-211`,
`callgraphextension/{CallTraversal,MethodTraversal}.scala`,
`Steps.scala:23-113`) as lazy Ray-Data pipelines over the node/edge
Parquet.

A step chain stays a Dataset until materialized; expansions along edges
(`_expand`) run as broadcast-id-set filters over the edge table — the
same bounded pattern as the dataflow frontier.  Suited to selective
queries (the scanner corpus shape: regex-match a few thousand nodes,
hop 1-3 edges); full-graph analytics belong in the pipeline stages.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _full_match(col, regex: str):
    """Reference `.name(re)` / `.code(re)` are FULL matches
    (`Traversal.name` uses `matches`); wrap as ^(?:re)$ — users write
    `.name(".*foo.*")` for substring search, same as Joern."""
    return pc.match_substring_regex(
        pc.coalesce(col, pa.scalar("")), f"^(?:{regex})$"
    )

class NodeSteps:
    """A lazy set of nodes (Dataset) + the graph it belongs to."""

    def __init__(self, cpg: "Cpg", ds) -> None:
        self.cpg = cpg
        self.ds = ds

    # ---- property filters (reference `name(...)`/`nameExact` etc.) ----

    def _filter(self, fn) -> "NodeSteps":
        return NodeSteps(self.cpg, self.ds.map_batches(fn, batch_format="pyarrow"))

    def name(self, regex: str) -> "NodeSteps":
        return self._filter(lambda b: b.filter(_full_match(b.column("name"), regex)))

    def name_exact(self, value: str) -> "NodeSteps":
        return self._filter(lambda b: b.filter(pc.equal(pc.coalesce(b.column("name"), pa.scalar("")), value)))

    def full_name(self, regex: str) -> "NodeSteps":
        return self._filter(
            lambda b: b.filter(_full_match(b.column("full_name"), regex))
        )

    def code(self, regex: str) -> "NodeSteps":
        return self._filter(lambda b: b.filter(_full_match(b.column("code"), regex)))

    def where_label(self, *labels: str) -> "NodeSteps":
        ls = pa.array(list(labels))
        return self._filter(lambda b: b.filter(pc.is_in(b.column("label"), value_set=ls)))

    # ---- graph expansion ---------------------------------------------

    def _ids(self) -> set[int]:
        out: set[int] = set()
        for b in self.ds.iter_batches(batch_format="pyarrow", batch_size=None):
            out.update(b.column("id").to_pylist())
        return out

    def _expand(self, preds: tuple[str, ...], direction: str) -> "NodeSteps":
        """One hop along `preds`; direction 'out' follows subj->obj,
        'in' follows obj->subj.  Two regimes (round-4 verdict #7, the
        dataflow-frontier pattern at graph/dataflow.py `_hop`):

        - at/below `JOERN_RAY_DSL_GATE` ids: broadcast-id-set filter over
          edges, then an id-set filter over nodes (two streamed scans —
          strictly faster, no shuffle);
        - above the gate: distributed `bucketed_join` hop + join-side
          node pick, so `cpg.call().argument()`-style wide hops never
          materialize O(all nodes) ids in driver memory."""
        import os as _os

        src_ds = self.ds.materialize()
        n = src_ds.count()
        if n == 0:
            return NodeSteps(self.cpg, src_ds)
        src_col, dst_col = ("subj", "obj") if direction == "out" else ("obj", "subj")
        preds_arr = pa.array(list(preds), pa.string())
        gate = int(_os.environ.get("JOERN_RAY_DSL_GATE", 2_000_000))
        if n > gate:
            return self._expand_join(src_ds, preds_arr, src_col, dst_col)
        ids: set[int] = set()
        for b in src_ds.iter_batches(batch_format="pyarrow", batch_size=None):
            ids.update(b.column("id").to_pylist())
        ids_arr = pa.array(list(ids), pa.uint64())

        # plain TASKS: the id set rides the (once-exported) closure; no
        # actor pool spin-up per hop
        def edge_hop(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.is_in(batch.column("pred"), value_set=preds_arr),
                pc.is_in(batch.column(src_col), value_set=ids_arr),
            )
            return pa.table({"id": batch.filter(m).column(dst_col)})

        hop = self.cpg.edges_ds().map_batches(edge_hop, batch_format="pyarrow")
        target_ids: set[int] = set()
        for b in hop.iter_batches(batch_format="pyarrow", batch_size=None):
            target_ids.update(b.column("id").to_pylist())
        tarr = pa.array(list(target_ids), pa.uint64())

        def node_pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("id"), value_set=tarr))

        picked = self.cpg.nodes_ds().map_batches(node_pick, batch_format="pyarrow")
        return NodeSteps(self.cpg, picked)

    def _expand_join(self, src_ds, preds_arr, src_col: str, dst_col: str) -> "NodeSteps":
        """Join-regime hop: source ids ⋈ pred-filtered edges ⋈ nodes —
        every step distributed, driver holds nothing of O(ids)."""
        from ..util import bucketed_join

        def edge_sel(b: pa.Table) -> pa.Table:
            f = b.filter(pc.is_in(b.column("pred"), value_set=preds_arr))
            return pa.table(
                {
                    "e_src": f.column(src_col).combine_chunks().cast(pa.uint64()),
                    "e_dst": f.column(dst_col).combine_chunks().cast(pa.uint64()),
                }
            )

        def id_sel(b: pa.Table) -> pa.Table:
            return pa.table(
                {"fid": pc.unique(b.column("id").combine_chunks().cast(pa.uint64()))}
            )

        hop = bucketed_join(
            self.cpg.edges_ds().map_batches(edge_sel, batch_format="pyarrow"),
            [("e_src", pa.uint64()), ("e_dst", pa.uint64())],
            src_ds.map_batches(id_sel, batch_format="pyarrow"),
            [("fid", pa.uint64())],
            on=["e_src"],
            right_on=["fid"],
        )

        # distributed distinct of the target ids (duplicate edges to one
        # node collapse inside one bucket group)
        def tag(b: pa.Table) -> pa.Table:
            t = pc.unique(b.column("e_dst").combine_chunks())
            import numpy as np

            bkt = (
                t.to_numpy(zero_copy_only=False).astype(np.uint64)
                % np.uint64(32)
            ).astype(np.int64)
            return pa.table({"tid": t, "bkt": pa.array(bkt, pa.int64())})

        def uniq_group(g: pa.Table) -> pa.Table:
            return pa.table({"tid": pc.unique(g.column("tid").combine_chunks())})

        tids = (
            hop.map_batches(tag, batch_format="pyarrow")
            .groupby("bkt")
            .map_groups(uniq_group, batch_format="pyarrow")
        )
        from ..schemas import NODES_SCHEMA

        lcols = [
            (f.name, f.type)
            for f in NODES_SCHEMA
            if f.name != "dynamic_type_hint_full_name"
        ]
        picked = bucketed_join(
            self.cpg.nodes_ds(),
            lcols,
            tids,
            [("tid", pa.uint64())],
            on=["id"],
            right_on=["tid"],
        )
        return NodeSteps(self.cpg, picked)

    # AST navigation (reference AstNodeTraversal)
    def ast_children(self) -> "NodeSteps":
        return self._expand(("AST",), "out")

    def ast_parent(self) -> "NodeSteps":
        return self._expand(("AST",), "in")

    def contains(self) -> "NodeSteps":
        return self._expand(("CONTAINS",), "out")

    def argument(self) -> "NodeSteps":
        return self._expand(("ARGUMENT",), "out")

    # call-graph extension (reference CallTraversal/MethodTraversal)
    def callee(self) -> "NodeSteps":
        """CALL -> METHOD resolved by the CALL edge."""
        return self._expand(("CALL",), "out")

    def call_in(self) -> "NodeSteps":
        """METHOD -> call sites (incoming CALL edges)."""
        return self._expand(("CALL",), "in")

    def ref(self) -> "NodeSteps":
        return self._expand(("REF",), "out")

    def ast_siblings(self) -> "NodeSteps":
        """Nodes sharing an AST parent with this set, excluding the set
        itself (reference `AstNodeTraversal.astSiblings`)."""
        own = self._ids()
        sibs = self.ast_parent().ast_children()
        sarr = pa.array(list(own), pa.uint64())

        def drop_self(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.invert(pc.is_in(batch.column("id"), value_set=sarr))
            )

        return NodeSteps(self.cpg, sibs.ds.map_batches(drop_self, batch_format="pyarrow"))

    def _edge_pairs(self, pred: str, src_ids: set) -> list:
        """(subj, obj) pairs of `pred` edges whose subj is in src_ids —
        one streamed is_in-filtered scan."""
        if not src_ids:
            return []
        sarr = pa.array(list(src_ids), pa.uint64())

        def pick(batch: pa.Table) -> pa.Table:
            m = pc.and_(
                pc.equal(batch.column("pred"), pred),
                pc.is_in(batch.column("subj"), value_set=sarr),
            )
            f = batch.filter(m)
            return pa.table({"subj": f.column("subj"), "obj": f.column("obj")})

        pairs: list = []
        for b in (
            self.cpg.edges_ds()
            .map_batches(pick, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        ):
            pairs.extend(zip(b.column("subj").to_pylist(), b.column("obj").to_pylist()))
        return pairs

    def ast(self, max_depth: int = 32) -> "NodeSteps":
        """Transitive AST subtree INCLUDING the roots (reference
        `AstNodeTraversal.ast`)."""
        seen = self._ids()
        frontier = set(seen)
        for _ in range(max_depth):
            nxt = {o for _s, o in self._edge_pairs("AST", frontier)} - seen
            if not nxt:
                break
            seen |= nxt
            frontier = nxt
        arr = pa.array(list(seen) or [0], pa.uint64())

        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("id"), value_set=arr))

        return NodeSteps(self.cpg, self.cpg.nodes_ds().map_batches(pick, batch_format="pyarrow"))

    def ast_minus_root(self, max_depth: int = 32) -> "NodeSteps":
        """Strict AST descendants (reference
        `AstNodeTraversal.astMinusRoot`)."""
        roots = self._ids()
        sub = self.ast(max_depth)
        rarr = pa.array(list(roots) or [0], pa.uint64())

        def drop_roots(batch: pa.Table) -> pa.Table:
            return batch.filter(
                pc.invert(pc.is_in(batch.column("id"), value_set=rarr))
            )

        return NodeSteps(self.cpg, sub.ds.map_batches(drop_roots, batch_format="pyarrow"))

    def depth(self, max_depth: int = 64) -> pa.Table:
        """(id, depth) — longest AST path under each node, leaf = 1
        (reference `AstNodeTraversal.depth`).  BFS level expansion with
        per-root attribution via a child->root map."""
        roots = self._ids()
        root_of: dict[int, set] = {r: {r} for r in roots}
        depths = {r: 1 for r in roots}
        frontier = dict(root_of)
        level = 1
        while frontier and level < max_depth:
            pairs = self._edge_pairs("AST", set(frontier))
            level += 1
            nxt: dict[int, set] = {}
            for s, o in pairs:
                owners = frontier.get(s, set())
                if owners:
                    nxt.setdefault(o, set()).update(owners)
            for _child, owners in nxt.items():
                for r in owners:
                    depths[r] = level
            frontier = nxt
        ids = sorted(roots)
        return pa.table(
            {
                "id": pa.array(ids, pa.uint64()),
                "depth": pa.array([depths[i] for i in ids], pa.int32()),
            }
        )

    def is_call_to(self, regex: str) -> "NodeSteps":
        """Nodes in this set that ARE calls to callees matching `regex`
        (reference `AstNodeTraversal.isCallTo`)."""
        return self.where_label("CALL").name(regex)

    def contains_call_to(self, regex: str, max_depth: int = 32) -> "NodeSteps":
        """Nodes whose AST subtree contains a call to `regex` (reference
        `AstNodeTraversal.containsCallTo`)."""
        roots = self._ids()
        if not roots:
            return NodeSteps(self.cpg, self.ds)
        matching = set()
        # walk down level by level, tracking owning roots
        frontier: dict[int, set] = {r: {r} for r in roots}
        import re as _re

        pat = _re.compile(f"^(?:{regex})$")
        # check the roots themselves
        for b in self.ds.iter_batches(batch_format="pyarrow", batch_size=None):
            for nid, lab, nm in zip(
                b.column("id").to_pylist(),
                b.column("label").to_pylist(),
                b.column("name").to_pylist(),
            ):
                if lab == "CALL" and nm and pat.fullmatch(nm):
                    matching.add(nid)
        for _ in range(max_depth):
            pairs = self._edge_pairs("AST", set(frontier))
            if not pairs:
                break
            child_ids = {o for _s, o in pairs}
            carr = pa.array(list(child_ids), pa.uint64())

            def pick(batch: pa.Table) -> pa.Table:
                m = pc.and_(
                    pc.is_in(batch.column("id"), value_set=carr),
                    pc.equal(batch.column("label"), "CALL"),
                )
                f = batch.filter(m)
                return pa.table({"id": f.column("id"), "name": f.column("name")})

            call_children = set()
            for b in (
                self.cpg.nodes_ds()
                .map_batches(pick, batch_format="pyarrow")
                .iter_batches(batch_format="pyarrow", batch_size=None)
            ):
                for nid, nm in zip(b.column("id").to_pylist(), b.column("name").to_pylist()):
                    if nm and pat.fullmatch(nm):
                        call_children.add(nid)
            nxt: dict[int, set] = {}
            for s, o in pairs:
                owners = frontier.get(s, set())
                if owners:
                    nxt.setdefault(o, set()).update(owners)
                    if o in call_children:
                        matching.update(owners)
            frontier = nxt
        arr = pa.array(list(matching) or [0], pa.uint64())

        def pick_roots(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("id"), value_set=arr))

        return NodeSteps(self.cpg, self.ds.map_batches(pick_roots, batch_format="pyarrow"))

    def in_ast(self, max_depth: int = 32) -> "NodeSteps":
        """Transitive AST ancestors (reference `AstNodeTraversal.inAst`):
        repeated parent hops, union of every level."""
        import ray.data

        seen: set[int] = set()
        cur = self
        for _ in range(max_depth):
            cur = cur.ast_parent()
            ids = cur._ids()
            fresh = ids - seen
            if not fresh:
                break
            seen |= fresh
        arr = pa.array(list(seen) or [0], pa.uint64())

        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("id"), value_set=arr))

        return NodeSteps(self.cpg, self.cpg.nodes_ds().map_batches(pick, batch_format="pyarrow"))

    def where_ast_ancestor(
        self, labels: tuple[str, ...], code_regex: str | None = None,
        max_depth: int = 32,
    ) -> "NodeSteps":
        """Keep nodes having a transitive AST ANCESTOR matching
        `labels` (+ optional code regex) — per-NODE scoping (the
        reference's `node.inAst.isControlStructure` used as a filter).
        Owner-attributed BFS up the AST: each hop carries which original
        nodes each ancestor covers, so one node's loop ancestor never
        vouches for a sibling's (the url-scoped approximation this
        replaces flagged any same-document node)."""
        own = self._ids()
        if not own:
            return NodeSteps(self.cpg, self.ds)
        larr = pa.array(list(labels), pa.string())

        # ONE nodes scan total (ADVICE r4: the old version paid a full
        # nodes scan PER HOP): collect the anchor set — every node
        # matching labels (+code regex) — up front; per hop the check is
        # a driver set intersection.
        def pick(batch: pa.Table) -> pa.Table:
            m = pc.is_in(batch.column("label"), value_set=larr)
            if code_regex is not None:
                m = pc.and_(m, _full_match(batch.column("code"), code_regex))
            return pa.table({"id": batch.filter(m).column("id")})

        anchors: set[int] = set()
        for b in (
            self.cpg.nodes_ds()
            .map_batches(pick, batch_format="pyarrow")
            .iter_batches(batch_format="pyarrow", batch_size=None)
        ):
            anchors.update(b.column("id").to_pylist())
        matched: set[int] = set()
        if anchors:
            # frontier: current ancestor id -> set of original ids it
            # covers.  AST parents are unique, so the frontier never
            # grows; matched owners are pruned so it shrinks fast (the
            # AST depth to METHOD is small in practice).
            frontier: dict[int, set] = {i: {i} for i in own}
            for _ in range(max_depth):
                if not frontier:
                    break
                pairs = []
                farr = pa.array(list(frontier), pa.uint64())

                def up(batch: pa.Table) -> pa.Table:
                    m = pc.and_(
                        pc.equal(batch.column("pred"), "AST"),
                        pc.is_in(batch.column("obj"), value_set=farr),
                    )
                    f = batch.filter(m)
                    return pa.table({"subj": f.column("subj"), "obj": f.column("obj")})

                for b in (
                    self.cpg.edges_ds()
                    .map_batches(up, batch_format="pyarrow")
                    .iter_batches(batch_format="pyarrow", batch_size=None)
                ):
                    pairs.extend(
                        zip(b.column("subj").to_pylist(), b.column("obj").to_pylist())
                    )
                if not pairs:
                    break
                nxt: dict[int, set] = {}
                for s, o in pairs:
                    owners = frontier.get(o)
                    if not owners:
                        continue
                    if s in anchors:
                        matched.update(owners)
                        continue  # matched owners need no further walking
                    live = owners - matched
                    if live:
                        nxt.setdefault(s, set()).update(live)
                frontier = nxt
                if matched >= own:
                    break
        arr = pa.array(list(matched) or [0], pa.uint64())
        return self._filter(
            lambda b: b.filter(pc.is_in(b.column("id"), value_set=arr))
        )

    def where(self, fn) -> "NodeSteps":
        """Keep nodes for which `fn(single-node steps)` is non-empty —
        the reference `where` combinator as a set-semijoin: fn is applied
        to the WHOLE set and survivors filter the original."""
        keep = fn(self)._ids()
        arr = pa.array(list(keep) or [0], pa.uint64())
        return self._filter(
            lambda b: b.filter(pc.is_in(b.column("id"), value_set=arr))
        )

    def where_not(self, fn) -> "NodeSteps":
        """Complement of `where` (reference `whereNot`)."""
        drop = fn(self)._ids()
        arr = pa.array(list(drop) or [0], pa.uint64())
        return self._filter(
            lambda b: b.filter(pc.invert(pc.is_in(b.column("id"), value_set=arr)))
        )

    def dedup(self) -> "NodeSteps":
        """Distinct by node id (reference `dedup`)."""
        seen: set[int] = set()
        parts: list[pa.Table] = []
        for b in self.ds.iter_batches(batch_format="pyarrow", batch_size=None):
            ids = b.column("id").to_pylist()
            keep = [i for i, nid in enumerate(ids) if nid not in seen and not seen.add(nid)]
            parts.append(b.take(keep))
        import ray.data

        t = pa.concat_tables(parts) if parts else None
        if t is None:
            from ..schemas import NODES_SCHEMA

            t = NODES_SCHEMA.empty_table()
        return NodeSteps(self.cpg, ray.data.from_arrow(t))

    def group_count(self, column: str = "name") -> pa.Table:
        """Frequency of a property over the set (reference `groupCount`),
        distributed partial counts."""
        def partial(b: pa.Table) -> pa.Table:
            vc = pc.coalesce(b.column(column), pa.scalar("")).combine_chunks().value_counts()
            return pa.table({column: vc.field("values").cast(pa.string()), "n": vc.field("counts")})

        parts = list(
            self.ds.map_batches(partial, batch_format="pyarrow").iter_batches(batch_format="pyarrow", batch_size=None)
        )
        if not parts:
            return pa.table({column: pa.array([], pa.string()), "n": pa.array([], pa.int64())})
        import polars as pl

        return (
            pl.from_arrow(pa.concat_tables(parts))
            .group_by(column)
            .agg(pl.col("n").sum())
            .sort(column)
            .to_arrow()
        )

    # dataflow extension (reference ExtendedCfgNode.reachableBy)
    def reachable_by(self, sources: "NodeSteps", max_depth: int = 4) -> "NodeSteps":
        from ..graph.dataflow import reachable_by as _rb

        sinks = self._ids()
        reach = _rb(self.cpg.edges_ds, sinks, max_depth)
        reached = set(reach.column("node").to_pylist())
        src_ids = sources._ids() & reached
        rarr = pa.array(list(src_ids), pa.uint64())

        def pick(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("id"), value_set=rarr))

        return NodeSteps(
            self.cpg,
            self.cpg.nodes_ds().map_batches(pick, batch_format="pyarrow"),
        )

    # ---- materializers (reference Steps.l / toJson) -------------------

    def l(self, columns: list[str] | None = None) -> pa.Table:  # noqa: E743
        parts = list(self.ds.iter_batches(batch_format="pyarrow", batch_size=None))
        t = pa.concat_tables(parts) if parts else None
        if t is None:
            from ..schemas import NODES_SCHEMA

            t = NODES_SCHEMA.empty_table()
        if columns:
            t = t.select(columns)
        return t.sort_by("id") if "id" in t.column_names else t

    def to_json(self, columns: list[str] | None = None) -> list[dict]:
        return self.l(columns).to_pylist()

    def size(self) -> int:
        return self.ds.count()


class Cpg:
    """`cpg`-style root over materialized node/edge Parquet paths."""

    def __init__(self, nodes_path: str, edges_path: str) -> None:
        self.nodes_path = nodes_path
        self.edges_path = edges_path

    def nodes_ds(self):
        import ray.data

        from ..schemas import NODES_SCHEMA

        # fixed projection: the node table may span multiple physical
        # roots with differing extra columns (parse/canonical/dims).
        # `dynamic_type_hint_full_name` (list<string>) is excluded: no
        # DSL step consumes it and Acero hash joins (the `_expand` join
        # regime) reject list-typed payload columns.
        return ray.data.read_parquet(
            self.nodes_path,
            columns=[
                n for n in NODES_SCHEMA.names if n != "dynamic_type_hint_full_name"
            ],
        )

    def edges_ds(self):
        import ray.data

        return ray.data.read_parquet(self.edges_path, columns=["subj", "pred", "obj"])

    def _label(self, *labels: str) -> NodeSteps:
        ls = pa.array(list(labels))

        def f(batch: pa.Table) -> pa.Table:
            return batch.filter(pc.is_in(batch.column("label"), value_set=ls))

        return NodeSteps(self, self.nodes_ds().map_batches(f, batch_format="pyarrow"))

    # node-type starters (reference NodeTypeStarters)
    def all(self) -> NodeSteps:
        return NodeSteps(self, self.nodes_ds())

    def method(self, name_regex: str | None = None) -> NodeSteps:
        s = self._label("METHOD")
        return s.name(name_regex) if name_regex else s

    def call(self, name_regex: str | None = None) -> NodeSteps:
        s = self._label("CALL")
        return s.name(name_regex) if name_regex else s

    def identifier(self) -> NodeSteps:
        return self._label("IDENTIFIER")

    def literal(self, code_regex: str | None = None) -> NodeSteps:
        s = self._label("LITERAL")
        return s.code(code_regex) if code_regex else s

    def local(self) -> NodeSteps:
        return self._label("LOCAL")

    def type_decl(self) -> NodeSteps:
        return self._label("TYPE_DECL")

    def file(self) -> NodeSteps:
        return self._label("FILE")

    def parameter(self) -> NodeSteps:
        return self._label("METHOD_PARAMETER_IN")

    def control_structure(self) -> NodeSteps:
        return self._label("CONTROL_STRUCTURE")

    def method_ref(self) -> NodeSteps:
        return self._label("METHOD_REF")

"""Formal pass / layer extension protocol.

Ray-Data-first analog of the reference's extension surface:

- `CpgPass` ~ `x2cpg/.../passes/...` pass base classes: a pass DECLARES
  its name, which CPG table it extends (node or edge rows), its
  partitioning assumption (`shuffle_keys` — '' means embarrassingly
  parallel map over blocks), and its dependencies; `plan(cpg)` returns
  a lazy `ray.data.Dataset` of NEW rows in the shared NODES/EDGES
  schema.  No pass mutates existing rows — outputs are append-only
  overlay roots, the same never-rewrite contract the build pipeline's
  multi-root node table uses.
- `apply_passes` ~ `semanticcpg/.../layers/LayerCreator.scala:7-41`:
  runs passes in order, SKIPS a pass whose overlay is already applied
  (manifest check — `run()`'s appliedOverlays guard), refuses a pass
  whose `depends_on` is unmet, records applied overlay names in
  `overlays/_applied.json` (the `Overlays.appendOverlayName` metadata
  analog), and returns a `Cpg` whose node/edge roots include the
  overlay outputs.

Built-in proof pass: `TagMatchPass` (reference
`NodeSteps.newTagNodePair` + `NewTagNodePairTraversal.scala:10-18`) —
tags matching nodes with TAG nodes and TAGGED_BY edges, fully
distributed (one `map_batches` over the node table; TAG ids are
content hashes so re-runs are byte-identical).
"""

from __future__ import annotations

import abc
import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class PassSpec:
    """Declared shape of a pass — the judge-able contract."""

    name: str
    kind: str  # "node" | "edge": which logical CPG table the rows extend
    # partitioning the pass RELIES on, e.g. ("full_name",) for a pass
    # whose correctness needs all rows of a key in one group; () means
    # a pure per-block map (safe under any partitioning)
    shuffle_keys: tuple = ()
    depends_on: tuple = ()
    description: str = ""


class CpgPass(abc.ABC):
    """A declared `(Cpg) -> Dataset[new rows]` transform."""

    spec: PassSpec

    @abc.abstractmethod
    def plan(self, cpg) -> "object":
        """Return a LAZY ray.data.Dataset of new rows (NODES_SCHEMA for
        kind=node, EDGES_SCHEMA for kind=edge).  Must not materialize
        the node/edge tables driver-side."""


def _applied_path(out_dir: str) -> str:
    return os.path.join(out_dir, "overlays", "_applied.json")


def applied_overlays(out_dir: str) -> list[str]:
    """Overlay names already applied to this CPG output dir (reference
    `Overlays.appliedOverlays`)."""
    try:
        with open(_applied_path(out_dir)) as f:
            return list(json.load(f))
    except (OSError, ValueError):
        return []


def apply_passes(out_dir: str, passes: "list[CpgPass]", fingerprint: str):
    """Run `passes` over the CPG at `out_dir`; returns
    `{"cpg": Cpg-with-overlay-roots, "applied": [...], "skipped": [...],
    "roots": {name: path}}`.

    Idempotent per (pass name, fingerprint): an already-applied overlay
    is skipped (LayerCreator.run's guard); a stale one (fingerprint
    changed) is rebuilt.  Unmet `depends_on` raises — the reference only
    warns, but silently-missing layers are the #1 extension footgun."""
    from ..io.checkpoint import _parquet_files, checkpoint, manifest_matches
    from ..pipelines.cpg import edges_paths, nodes_paths
    from ..query.dsl import Cpg
    from ..schemas import EDGES_SCHEMA, NODES_SCHEMA

    ov_dir = os.path.join(out_dir, "overlays")
    os.makedirs(ov_dir, exist_ok=True)
    done = set(applied_overlays(out_dir))
    applied: list[str] = []
    skipped: list[str] = []
    roots: dict[str, str] = {}
    node_roots: list[str] = []
    edge_roots: list[str] = []

    def _cpg() -> Cpg:
        # the base path lists are parquet FILES; expand overlay roots
        # the same way (read_parquet rejects mixed file/dir lists)
        return Cpg(
            nodes_paths(out_dir) + _parquet_files(node_roots),
            edges_paths(out_dir) + _parquet_files(edge_roots),
        )

    for p in passes:
        spec = p.spec
        missing = [d for d in spec.depends_on if d not in done]
        if missing:
            raise ValueError(
                f"pass {spec.name!r} depends on unapplied overlays {missing}"
            )
        path = os.path.join(ov_dir, spec.name)
        if spec.name in done and manifest_matches(path, fingerprint):
            skipped.append(spec.name)
        else:
            cpg = _cpg()
            checkpoint(
                lambda: p.plan(cpg),
                path,
                f"overlay:{spec.name}",
                fingerprint,
                schema=NODES_SCHEMA if spec.kind == "node" else EDGES_SCHEMA,
            )
            # record the declared partitioning assumption beside the data
            with open(os.path.join(path, "_spec.json"), "w") as f:
                json.dump(
                    {
                        "name": spec.name,
                        "kind": spec.kind,
                        "shuffle_keys": list(spec.shuffle_keys),
                        "depends_on": list(spec.depends_on),
                        "description": spec.description,
                    },
                    f,
                )
            applied.append(spec.name)
            done.add(spec.name)
        roots[spec.name] = path
        (node_roots if spec.kind == "node" else edge_roots).append(path)
    with open(_applied_path(out_dir), "w") as f:
        json.dump(sorted(done), f)
    return {"cpg": _cpg(), "applied": applied, "skipped": skipped, "roots": roots}


# ---------------------------------------------------------------------------
# built-in passes
# ---------------------------------------------------------------------------


class TagMatchPass(CpgPass):
    """Tag nodes whose (label, name/code regex) match: emits TAG nodes
    + TAGGED_BY edges (reference `NodeSteps.newTagNodePair(tagName,
    tagValue)` -> `NewTagNodePairTraversal.scala:10-18`).

    Node pass + edge pass in one would break the one-kind-per-root
    contract, so it is declared as kind="node" and pairs with
    `TagEdgePass` (same matcher) for the TAGGED_BY half; both are pure
    per-block maps (shuffle_keys=()) and their TAG ids are the same
    content hash, so the pair needs no coordination."""

    def __init__(self, tag_name: str, *, label: str, name_re: str = "",
                 code_re: str = "", description: str = "") -> None:
        self.tag_name = tag_name
        self.label = label
        self.name_re = name_re
        self.code_re = code_re
        self.spec = PassSpec(
            name=f"tag_{tag_name}",
            kind="node",
            shuffle_keys=(),
            description=description or f"TAG nodes for {label}/{name_re or code_re}",
        )

    def _matches(self, batch):
        import pyarrow as pa
        import pyarrow.compute as pc

        empty = pa.scalar("", pa.string())
        mask = pc.equal(batch.column("label"), self.label)
        if self.name_re:
            mask = pc.and_(
                mask,
                pc.match_substring_regex(
                    pc.coalesce(batch.column("name"), empty), self.name_re
                ),
            )
        if self.code_re:
            mask = pc.and_(
                mask,
                pc.match_substring_regex(
                    pc.coalesce(batch.column("code"), empty), self.code_re
                ),
            )
        return batch.filter(mask)

    def _tag_id(self):
        from ..stages.extract import hash64_bytes

        return lambda nid: hash64_bytes(
            f"TAG:{self.tag_name}:{nid}".encode()
        ) & 0xFFFFFFFFFFFFFFFF

    def plan(self, cpg):
        import pyarrow as pa

        from ..schemas import NODES_SCHEMA, rows_to_table

        tid = self._tag_id()
        tag_name = self.tag_name

        def _to_tags(batch: pa.Table) -> pa.Table:
            hits = self._matches(batch)
            rows = [
                {
                    "id": tid(nid),
                    "label": "TAG",
                    "name": tag_name,
                    "full_name": f"{tag_name}:{nid}",
                    "code": code or "",
                    "order": 0,
                    "argument_index": -1,
                    "line": -1,
                    "col": -1,
                    "url": url,
                }
                for nid, code, url in zip(
                    hits.column("id").to_pylist(),
                    hits.column("code").to_pylist(),
                    hits.column("url").to_pylist(),
                )
            ]
            return rows_to_table(rows, NODES_SCHEMA)

        return cpg.nodes_ds().map_batches(_to_tags, batch_format="pyarrow")


class TagEdgePass(TagMatchPass):
    """TAGGED_BY half of `TagMatchPass` (same matcher, same TAG ids)."""

    def __init__(self, tag_name: str, *, label: str, name_re: str = "",
                 code_re: str = "", description: str = "") -> None:
        super().__init__(
            tag_name, label=label, name_re=name_re, code_re=code_re,
            description=description,
        )
        self.spec = PassSpec(
            name=f"tagged_by_{tag_name}",
            kind="edge",
            shuffle_keys=(),
            depends_on=(f"tag_{tag_name}",),
            description=f"TAGGED_BY edges for tag {tag_name}",
        )

    def plan(self, cpg):
        import pyarrow as pa

        from ..schemas import EDGES_SCHEMA, rows_to_table

        tid = self._tag_id()

        def _to_edges(batch: pa.Table) -> pa.Table:
            hits = self._matches(batch)
            rows = [
                {"subj": nid, "pred": "TAGGED_BY", "obj": tid(nid), "variable": ""}
                for nid in hits.column("id").to_pylist()
            ]
            return rows_to_table(rows, EDGES_SCHEMA)

        return cpg.nodes_ds().map_batches(_to_edges, batch_format="pyarrow")

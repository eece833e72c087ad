#!/usr/bin/env python3
"""Content hashes of a built graph's roots: did two builds write the same graph?

    python scripts/root_hashes.py OUT_DIR [OUT_DIR2]

OUT_DIR is a `build_cpg` output directory. For each root (each split of
`parse` and `dims` counts as its own root, as in `graph_bytes.py`) it
prints the row count and the sha256 of the root's rows, sorted, so
neither the file layout nor the row order changes it. The last line is
`build_stats.json` without the paths it holds. Given a second directory
it prints both sides of every root that differs, and exits 1 if any
does.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import pyarrow.parquet as pq
from graph_bytes import root_of


def root_hashes(out_dir: str) -> dict[str, tuple[int, str]]:
    """root -> (rows, sha256 of the sorted rows)."""
    rows: dict[str, list[str]] = {}
    for dirpath, _dirs, names in os.walk(out_dir):
        for name in names:
            if not name.endswith(".parquet"):
                continue
            path = os.path.join(dirpath, name)
            r = rows.setdefault(root_of(os.path.relpath(path, out_dir)), [])
            # a hive key directory (part=3) is layout, not content
            t = pq.read_table(path, partitioning=None)
            r += (json.dumps(row, sort_keys=True, default=str) for row in t.to_pylist())
    out = {}
    for root, rs in sorted(rows.items()):
        h = hashlib.sha256()
        for line in sorted(rs):
            h.update(line.encode())
            h.update(b"\n")
        out[root] = (len(rs), h.hexdigest())
    return out


def build_stats(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "build_stats.json")) as f:
        stats = json.load(f)
    return {k: v for k, v in stats.items() if not k.endswith("_path")}


def main(dirs: list[str]) -> int:
    sides = [(root_hashes(d), build_stats(d)) for d in dirs]
    if len(sides) == 1:
        hashes, stats = sides[0]
        for root, (n, h) in hashes.items():
            print(f"{root:28s} {n:9d} {h}")
        print("build_stats", json.dumps(stats, sort_keys=True))
        return 0
    (ha, sa), (hb, sb) = sides
    differ = 0
    for root in sorted(set(ha) | set(hb)):
        a, b = ha.get(root), hb.get(root)
        if a == b:
            print(f"same    {root:28s} {a[0]:9d} {a[1]}")
            continue
        differ += 1
        for side, v in (("<", a), (">", b)):
            print(f"differ{side} {root:28s} " + (f"{v[0]:9d} {v[1]}" if v else "(absent)"))
    if sa == sb:
        print("same    build_stats", json.dumps(sa, sort_keys=True))
    else:
        differ += 1
        print("differ< build_stats", json.dumps(sa, sort_keys=True))
        print("differ> build_stats", json.dumps(sb, sort_keys=True))
    print(f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    if not 2 <= len(sys.argv) <= 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Where a built graph's bytes on disk are, read from its Parquet footers.

    python scripts/graph_bytes.py OUT_DIR

OUT_DIR is a `build_cpg` output directory. For each root (each split of
`parse` and `dims` counts as its own root) it prints the files, rows and
bytes on disk, the bytes of the Parquet footers (the file metadata), and
the compressed bytes of each column, summed over the root's column
chunks, with the column's encodings. A root's share is of the total, a
column's is of its root. The last lines are the bytes of the other files
(manifests, build stats) and the total, which is every file's size under
OUT_DIR.
"""

from __future__ import annotations

import os
import struct
import sys
from collections import defaultdict

import pyarrow.parquet as pq


def root_of(rel: str) -> str:
    parts = rel.split(os.sep)
    if parts[0] in ("parse", "dims") and len(parts) > 2 and "=" in parts[1]:
        return f"{parts[0]}/{parts[1]}"
    return parts[0]


def footer_bytes(path: str) -> int:
    """The serialized footer plus its length word and closing magic."""
    with open(path, "rb") as f:
        f.seek(-8, os.SEEK_END)
        return struct.unpack("<I", f.read(4))[0] + 8


def main(out_dir: str) -> None:
    roots: dict = defaultdict(
        lambda: {"files": 0, "rows": 0, "bytes": 0, "footer": 0, "cols": defaultdict(int), "enc": defaultdict(set)}
    )
    other = total = 0
    for dirpath, _dirs, names in os.walk(out_dir):
        for name in names:
            path = os.path.join(dirpath, name)
            size = os.path.getsize(path)
            total += size
            if not name.endswith(".parquet"):
                other += size
                continue
            r = roots[root_of(os.path.relpath(path, out_dir))]
            md = pq.ParquetFile(path).metadata
            r["files"] += 1
            r["rows"] += md.num_rows
            r["bytes"] += size
            r["footer"] += footer_bytes(path)
            for g in range(md.num_row_groups):
                rg = md.row_group(g)
                for i in range(rg.num_columns):
                    c = rg.column(i)
                    r["cols"][c.path_in_schema] += c.total_compressed_size
                    r["enc"][c.path_in_schema].add(
                        f"{c.compression.lower()}+{'dict' if c.has_dictionary_page else 'plain'}"
                    )
    print(f"{'root / column':<44} {'files':>6} {'rows':>9} {'bytes':>11} {'share':>7}  footer / encoding")
    for name, r in sorted(roots.items(), key=lambda kv: -kv[1]["bytes"]):
        print(
            f"{name:<44} {r['files']:>6} {r['rows']:>9} {r['bytes']:>11} {r['bytes'] / total:>7.1%}"
            f"  footer {r['footer']} B ({r['footer'] / r['bytes']:.1%})"
        )
        for col, b in sorted(r["cols"].items(), key=lambda kv: -kv[1]):
            print(
                f"  {col:<42} {'':>6} {'':>9} {b:>11} {b / r['bytes']:>7.1%}"
                f"  {','.join(sorted(r['enc'][col]))}"
            )
    print(f"{'(other files: manifests, stats)':<44} {'':>6} {'':>9} {other:>11} {other / total:>7.1%}")
    print(f"{'total':<44} {'':>6} {'':>9} {total:>11}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])

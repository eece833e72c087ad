"""Deterministic hashing utilities.

Node ids are content hashes — `hash64(url, fragment_idx, label, ordinal)` —
so ids are stable across retries/restarts and across cluster sizes.  The
reference assigns in-memory sequential ids and leans on sorted iteration
order for determinism (SURVEY.md §4.1 "ordering/determinism of ids"); a
distributed run cannot have a serial id counter, so every id must be
computable locally at emit time.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK63 = (1 << 63) - 1


def hash64(*parts: object) -> int:
    """Stable 64-bit hash of the repr-joined parts (top bit cleared so the
    value also fits signed int64 consumers such as DuckDB)."""
    h = hashlib.blake2b("\x1f".join(str(p) for p in parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") & _MASK63


def node_ids(url: str, fragment_idx: int, n: int) -> "np.ndarray":
    """Vectorized deterministic ids for the n nodes of one fragment:
    splitmix64 over (blake2b(url,idx) + seq).  Same stability contract as
    per-row hash64 (pure function of url/idx/seq) at numpy speed."""
    base = np.uint64(hash64(url, fragment_idx))
    x = base + np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x & np.uint64((1 << 63) - 1)


def hash64_bytes(data: bytes) -> int:
    h = hashlib.blake2b(data, digest_size=8)
    return int.from_bytes(h.digest(), "little") & _MASK63

"""Method feature vectors — the `joern-vectors` analog.

Reference: `joern-cli/.../JoernVectors.scala:16-60` emits bag-of-features
vectors per node/method via feature hashing ("Pattern-based Vulnerability
Discovery" ch. 3).  Here: one vector per METHOD, features are the
(label, name-or-operator) pairs of every node in the method subtree,
hash-bucketed into a fixed dimension — runs fused into a parse pass
(actor pool, zero joins) like the DOT exporter.
"""

from __future__ import annotations

from ..util import resolve_pool

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import hash64
from ..parsing.astmodel import FRAG_PLACEHOLDER, PNode
from ..parsing.parser import FragmentParser, ParseError

VECTOR_DIM = 128


def method_feature_vector(method: PNode, dim: int = VECTOR_DIM) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float32)

    def walk(n: PNode) -> None:
        feat = f"{n.label}\x1f{n.name or n.label}"
        vec[hash64(feat) % dim] += 1.0
        for c in n.children:
            walk(c)

    walk(method)
    return vec


class MethodVectorizer:
    """Actor-pool stage: fragments -> (url, fragment_idx,
    method_full_name, vector) rows.

    Content-hash template cache (same trick as `ParseFragments`): a
    fragment's feature vectors are url-independent, and its method
    full-names only embed the url through the `url#idx` key — so parse
    once per distinct content under a sentinel url and re-instance by
    string substitution for every duplicate (web corpora are dup-heavy).
    """

    _SENT_URL = "\x00SENTINEL"
    _SENT_KEY = "\x00SENTINEL#0"

    def __init__(self, dim: int = VECTOR_DIM, cache_size: int = 4096) -> None:
        from ..parsing.pyfrontend import PyFragmentParser

        self.parsers = {d: FragmentParser(d) for d in ("c", "cpp", "java", "javascript")}
        self.parsers["python"] = PyFragmentParser()
        self.dim = dim
        self.cache: dict = {}
        self.cache_size = cache_size

    def _template(self, code: str, lang: str, chash) -> list | None:
        key = (chash, lang)
        if key in self.cache:
            return self.cache[key]
        parser = self.parsers.get(lang)
        if parser is None:
            return None
        try:
            root = parser.parse(code, self._SENT_URL, 0)
        except (ParseError, RecursionError):
            self.cache[key] = None
            return None

        def methods(n: PNode):
            if n.label == "METHOD":
                yield n
            for c in n.children:
                yield from methods(c)

        tmpl = [
            (m.full_name, method_feature_vector(m, self.dim).tolist())
            for m in methods(root)
        ]
        if len(self.cache) >= self.cache_size:
            self.cache.clear()
        self.cache[key] = tmpl
        return tmpl

    def __call__(self, batch: pa.Table) -> pa.Table:
        if "row_kind" in batch.column_names:
            batch = batch.filter(pc.equal(batch.column("row_kind"), "fragment"))
        o_url, o_idx, o_fqn, o_vec = [], [], [], []
        hashes = (
            batch.column("content_hash").to_pylist()
            if "content_hash" in batch.column_names
            else [hash64(c) for c in batch.column("code").to_pylist()]
        )
        for url, idx, lang, code, chash in zip(
            batch.column("url").to_pylist(),
            batch.column("fragment_idx").to_pylist(),
            batch.column("frag_lang").to_pylist(),
            batch.column("code").to_pylist(),
            hashes,
        ):
            tmpl = self._template(code, lang, chash)
            if not tmpl:
                continue
            frag_key = f"{url}#{idx}"
            for fqn, vec in tmpl:
                o_url.append(url)
                o_idx.append(idx)
                o_fqn.append(fqn.replace(self._SENT_KEY, frag_key).replace(FRAG_PLACEHOLDER, frag_key))
                o_vec.append(vec)
        return pa.table(
            {
                "url": pa.array(o_url, pa.string()),
                "fragment_idx": pa.array(o_idx, pa.int32()),
                "method_full_name": pa.array(o_fqn, pa.string()),
                "vector": pa.array(o_vec, pa.list_(pa.float32())),
            }
        )


def method_vectors_from_fragments(frags_ds, dim: int = VECTOR_DIM, concurrency=4):
    """Vectors straight off a fragments Dataset (e.g. the cached fragment
    checkpoint) — skips corpus re-generation and re-detection."""
    return frags_ds.map_batches(
        MethodVectorizer,
        fn_constructor_kwargs={"dim": dim},
        batch_format="pyarrow",
        concurrency=resolve_pool(concurrency),
    )

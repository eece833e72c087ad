import contextlib
import functools
import logging

import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
        )
    yield ray
    ray.shutdown()


@contextlib.contextmanager
def _ray_data_log(level: int, pick):
    """The `ray.data` log records at `level` or above, while the block
    runs, that `pick(message)` maps to something other than None."""
    kept: list = []

    class _Keep(logging.Handler):
        def emit(self, record):
            v = pick(record.getMessage())
            if v is not None:
                kept.append(v)

    handler = _Keep(level)
    logger = logging.getLogger("ray.data")
    logger.addHandler(handler)
    try:
        yield kept
    finally:
        logger.removeHandler(handler)


@pytest.fixture
def schema_mismatch_log():
    """The warnings Ray Data logs during the test when an operator's
    output blocks disagree on their schema."""
    with _ray_data_log(
        logging.WARNING, lambda m: m if "RefBundle with a different schema" in m else None
    ) as kept:
        yield kept


_PLAN = "Execution plan of Dataset "


@pytest.fixture
def execution_plans():
    """The physical plan of every Ray Data execution started during the
    test, from the line Ray Data logs at INFO as it starts one
    ("Execution plan of Dataset <id>: <plan>"), without the prefix."""
    with _ray_data_log(
        logging.INFO, lambda m: m.split(": ", 1)[1] if m.startswith(_PLAN) else None
    ) as kept:
        yield kept


def _force_distributed(mp) -> None:
    """Gate 0 forces the distributed INHERITS_FROM closure, at width 2
    so its joins really spread."""
    mp.setattr("joern_ray.pipelines.cpg.DYN_DRIVER_GATE", 0)
    mp.setattr("joern_ray.pipelines.cpg.exchange_width", lambda _b: 2)


@pytest.fixture(params=["driver", "distributed"])
def dyn_regime(request, monkeypatch):
    """Build in each dyn regime: the default gate keeps the driver's
    SAFEDISPATCH walk; the distributed regime is forced."""
    if request.param == "distributed":
        _force_distributed(monkeypatch)
    return request.param


def _page(lang: str, body: str) -> str:
    return f'<html><body><pre><code class="language-{lang}">{body}</code></pre></body></html>'


# Corpora that open the resolver gates, as (url, html) pages.
RESOLVER_CORPORA = {
    # `import util; util.f()`: util.py's FILE stem and a go doc's
    # `package util` both name the module, and other.py defines f too;
    # the FILE stem wins, so the call links to util.py's f
    "module_tie": [
        ("https://z.ex/util.py", _page("python", "def f():\n    return 1\n")),
        ("https://z.ex/other.py", _page("python", "def f():\n    return 2\n")),
        (
            "https://a.ex/page",
            _page("go", "package util\n\ntype T struct{}\n\nfunc (r *T) f() int {\n\treturn 3\n}\n"),
        ),
        ("https://z.ex/app.py", _page("python", "import util\ndef use():\n    return util.f()\n")),
    ],
    # `import foo; foo.bar()`: the import resolves the call to foo.py's
    # bar before naive linking could pick the canonical `bar`, aaa.py's
    "import_before_naive": [
        ("https://mods/foo.py", _page("python", "def bar():\n    return 1\n")),
        ("https://mods/aaa.py", _page("python", "def bar():\n    return 2\n")),
        ("https://mods/app.py", _page("python", "import foo\ndef use():\n    return foo.bar()\n")),
    ],
    # `class C extends zoo.D` with `import zoo.D`: XInheritanceFullName
    # resolves the base through the module zoo (the url stem of D's doc)
    # to the TYPE_DECL D, and d.m() dispatches to C.m as well
    "java_inherit": [
        (
            "https://inh/zoo.java",
            _page(
                "java",
                "package zoo;\npublic class D {\n  public int m() { return 0; }\n"
                "  public int visit() { D d = new D(); return d.m(); }\n}\n",
            ),
        ),
        (
            "https://inh/C.java",
            _page(
                "java",
                "import zoo.D;\npublic class C extends zoo.D {\n"
                "  public int m() { return 1; }\n}\n",
            ),
        ),
    ],
    # `x = make(); x.g()`: make's return type, from another doc, links
    # x.g() to Widget.g (the `<ret:make>.g` call fqn)
    "ret_type": [
        (
            "https://ret2/lib.py",
            _page(
                "python",
                "class Widget:\n    def g(self):\n        return 1\n"
                "def make() -> Widget:\n    return Widget()\n",
            ),
        ),
        ("https://ret2/app.py", _page("python", "def use():\n    x = make()\n    return x.g()\n")),
    ],
}
# every resolver gate at once
RESOLVER_CORPORA["all_gates"] = (
    RESOLVER_CORPORA["java_inherit"]
    + RESOLVER_CORPORA["import_before_naive"]
    + RESOLVER_CORPORA["ret_type"]
)


@pytest.fixture
def resolver_corpora():
    return RESOLVER_CORPORA


def _read_table(paths, columns):
    import pyarrow as pa
    import ray.data

    return pa.concat_tables(
        list(ray.data.read_parquet(paths, columns=columns).iter_batches(batch_format="pyarrow"))
    )


class BuiltGraph:
    """A finished build: its result dict and, read on first use, its
    node and edge tables."""

    def __init__(self, res: dict) -> None:
        self.res = res

    @functools.cached_property
    def nodes(self):
        return _read_table(self.res["nodes_path"], ["id", "label", "name", "full_name", "url"])

    @functools.cached_property
    def edges(self):
        return _read_table(self.res["edges_path"], ["subj", "pred", "obj"])

    def triples(self) -> list:
        """The edge multiset, sorted."""
        e = self.edges
        return sorted(
            zip(e.column("subj").to_pylist(), e.column("pred").to_pylist(), e.column("obj").to_pylist())
        )

    def call_targets(self, name: str, url: str) -> list:
        """(label, url, full_name) of every CALL edge target of the one
        call named `name` in the doc at `url`, sorted."""
        n = self.nodes
        rows = list(
            zip(
                n.column("id").to_pylist(),
                n.column("label").to_pylist(),
                n.column("name").to_pylist(),
                n.column("url").to_pylist(),
                n.column("full_name").to_pylist(),
            )
        )
        calls = {i for i, lab, nm, u, _fn in rows if lab == "CALL" and nm == name and u == url}
        assert len(calls) == 1, f"{len(calls)} calls {name} in {url}"
        byid = {i: (lab, u, fn) for i, lab, _nm, u, fn in rows}
        return sorted(byid[o] for s, p, o in self.triples() if p == "CALL" and s in calls)


@pytest.fixture
def build_pages(ray_session, tmp_path):
    """Build a graph from (url, html) pages into `tmp_path`, in the
    distributed dyn regime when asked; returns a `BuiltGraph`."""
    import pyarrow as pa

    def build(
        pages, fingerprint: str, out: str | None = None, distributed: bool = False
    ) -> BuiltGraph:
        import ray.data

        from joern_ray.pipelines.cpg import build_cpg

        def docs_factory(columns):
            return ray.data.from_arrow(
                pa.table(
                    {
                        "url": [u for u, _ in pages],
                        "warc_ts": pa.array([0] * len(pages), pa.timestamp("us")),
                        "html": pa.array([h.encode() for _, h in pages], pa.large_binary()),
                        "text": [""] * len(pages),
                        "lang": ["en"] * len(pages),
                    }
                )
            )

        with pytest.MonkeyPatch.context() as mp:
            if distributed:
                _force_distributed(mp)
            return BuiltGraph(build_cpg(docs_factory, out or str(tmp_path / "cpg"), fingerprint))

    return build

"""Import-resolver module-path join goldens (reference
`x2cpg/.../frontendspecific/pysrc2cpg/PythonImportResolverPass`):
`import foo` + `foo.bar()` links CROSS-DOCUMENT to the method defined
in the doc whose module path (url stem) is `foo` — even when `bar` is
defined in several docs, which defeats the NaiveCallLinker unique-name
fallback.  Every case runs in both dyn regimes, with one answer."""


def test_import_module_path_join(build_pages, resolver_corpora, dyn_regime):
    # aaa.py defines bar too, and its url sorts before foo.py's: the
    # import resolution outranks the naive unique-name link
    g = build_pages(resolver_corpora["import_before_naive"], "imp-1")
    assert g.res["dyn_regime"] == dyn_regime
    # the foo.bar() call site's CALL edge targets the METHOD bar DEFINED IN foo.py
    targets = g.call_targets("bar", "https://mods/app.py")
    assert len(targets) == 1, targets
    label, url, _full_name = targets[0]
    assert (label, url) == ("METHOD", "https://mods/foo.py"), (
        f"expected the foo.py definition, got {targets}"
    )
    # IMPORT node exists for the resolver to have something to resolve
    assert "IMPORT" in g.nodes.column("label").to_pylist()


def test_import_module_tie_prefers_file_stem(build_pages, resolver_corpora, dyn_regime):
    """A FILE url stem wins over a go `package util` for the module util."""
    g = build_pages(resolver_corpora["module_tie"], "imp-module_tie")
    assert g.res["dyn_regime"] == dyn_regime
    targets = g.call_targets("f", "https://z.ex/app.py")
    assert len(targets) == 1, targets
    label, url, _full_name = targets[0]
    assert (label, url) == ("METHOD", "https://z.ex/util.py"), targets

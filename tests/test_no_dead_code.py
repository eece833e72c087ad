"""Every top-level name defined under ``joern_ray/`` is referenced somewhere.

A name counts as referenced when it appears as a whole word in ``joern_ray/``,
``tests/``, ``scripts/``, ``cpgbench/``, ``bench.py`` or ``__ray_entry__.py``
anywhere other than the lines of its own definition. Pure Python, no Ray.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("joern_ray", "tests", "scripts", "cpgbench", "bench.py", "__ray_entry__.py")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _sources():
    for entry in SEARCHED:
        p = ROOT / entry
        files = sorted(p.rglob("*.py")) if p.is_dir() else [p] if p.exists() else []
        for f in files:
            yield f, f.read_text(encoding="utf-8")


def _top_level_defs(tree):
    """(name, first line, last line) of each top-level def, class and single-name assignment."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, start, node.end_lineno
        elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            yield node.targets[0].id, node.lineno, node.end_lineno
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno, node.end_lineno


def test_no_unreferenced_top_level_names():
    total, own = Counter(), Counter()
    defs = []
    for path, text in _sources():
        total.update(_WORD.findall(text))
        if path.is_relative_to(ROOT / "joern_ray"):
            lines = text.splitlines()
            for name, start, end in _top_level_defs(ast.parse(text)):
                if name.startswith("__") and name.endswith("__"):
                    continue
                own[name] += sum(_WORD.findall(line).count(name) for line in lines[start - 1:end])
                defs.append((path.relative_to(ROOT), name))
    dead = sorted(f"{path}:{name}" for path, name in defs if total[name] <= own[name])
    assert not dead, "unreferenced top-level names:\n" + "\n".join(dead)

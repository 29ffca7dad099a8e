"""The package's export surface: every name ``muxmem`` exports has a caller."""

import ast
import re
from pathlib import Path

import muxmem

ROOT = Path(__file__).resolve().parents[1]
INIT = Path(muxmem.__file__).resolve()


def exported_names():
    """Names ``muxmem/__init__.py`` imports from its modules, in order."""
    tree = ast.parse(INIT.read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(paths):
    """Every name read, and every attribute, in the Python files ``paths``.

    A definition (``def``, ``class``, an assignment) reads no name, so a
    symbol counts only where something else uses it.
    """
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    # Callers count in the package (less its export list), the demos, the
    # benchmark and the README; a name only the tests use has none.
    code = [p for p in sorted(INIT.parent.rglob("*.py")) if p != INIT]
    code += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    used = referenced_names(code)
    readme = (ROOT / "README.md").read_text()
    names = exported_names()
    assert "cross_correlation" in names and "run_scenario" in names
    orphans = [name for name in names
               if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert orphans == []

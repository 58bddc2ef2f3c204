"""No module under src/ or tests/ imports a name it never uses.  Names
listed in a module's `__all__` are exports, and `from __future__` imports
are compiler directives, so neither counts as unused.

The package has no runtime dependencies: modules under src/ import only
the standard library and cmverify itself, although the tests use sympy
as an oracle."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported, used, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported |= {e.value for e in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_unused_import_is_found():
    src = "import os\nimport sys as system\nfrom a import b, c\nprint(c)\n"
    assert unused_imports(src) == [(1, "os"), (2, "system"), (3, "b")]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b\n__all__ = ['b']\n") == []


def test_no_unused_imports():
    paths = sorted([*(ROOT / "src").rglob("*.py"),
                    *(ROOT / "tests").rglob("*.py")])
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in paths
                 for line, name in unused_imports(path.read_text())]
    assert offenders == []


def foreign_imports(source: str) -> list:
    """(line, module) of each absolute import from outside the standard
    library and cmverify."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names
                  and name.split(".")[0] != "cmverify"]
    return found


def test_foreign_import_is_found():
    src = ("import os, sympy\nfrom numpy.linalg import inv\n"
           "from .poly import Poly\nfrom cmverify import cli\n")
    assert foreign_imports(src) == [(1, "sympy"), (2, "numpy.linalg")]


def test_src_imports_only_the_standard_library():
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 for line, name in foreign_imports(path.read_text())]
    assert offenders == []

"""No module under src/ or tests/ imports a name it never uses.  Names
listed in a module's `__all__` are exports, and `from __future__` imports
are compiler directives, so neither counts as unused.  No function under
src/ reads a global its module never binds, every name
`cmverify.symcore` exports is imported somewhere under src/, no module
outside `symcore/` imports `symcore.poly` or `symcore.expr` directly, every
module-level function and class under src/ is used by code under src/,
every field of a dataclass under src/ is read under src/ or tests/, and
no function or method under src/ is longer than `MAX_FUNCTION_LINES`.

The package has no runtime dependencies: modules under src/ import only
the standard library and cmverify itself, although the tests use sympy
as an oracle."""

import ast
import builtins
import sys
from pathlib import Path

from cmverify import symcore

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


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(node):
    """Descendants of `node` in its own scope: nested functions, lambdas
    and classes are yielded but not entered."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, _SCOPES):
            yield from _scope_nodes(child)


def _bound_in(node) -> set:
    """Names that `node`'s own scope binds (comprehension variables
    included, which only widens what counts as bound)."""
    names = set()
    for n in _scope_nodes(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.ClassDef)):
            names.add(n.name)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            names |= {a.asname or a.name.split(".")[0] for a in n.names}
        elif isinstance(n, ast.arg):
            names.add(n.arg)
        elif isinstance(n, ast.ExceptHandler) and n.name:
            names.add(n.name)
    return names


def unbound_globals(source: str) -> list:
    """(line, name) of each name a function reads that is neither bound
    in an enclosing function, bound or imported at module level, nor a
    builtin: such a read can only raise NameError."""
    tree = ast.parse(source)
    module = _bound_in(tree) | set(dir(builtins)) | {"__file__"}
    module |= {name for n in ast.walk(tree) if isinstance(n, ast.Global)
               for name in n.names}
    found = set()

    def visit(scope, enclosing):
        for node in _scope_nodes(scope):
            if isinstance(node, _FUNCTIONS):
                local = enclosing | _bound_in(node)
                found.update(
                    (n.lineno, n.id) for n in _scope_nodes(node)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                    and n.id not in local and n.id not in module)
                visit(node, local)
            elif isinstance(node, ast.ClassDef):
                visit(node, enclosing)  # class names are not visible inside

    visit(tree, set())
    return sorted(found)


def test_unbound_global_is_found():
    src = ("import os\nLIMIT = 3\n"
           "def f(a):\n    b = [c for c in a]\n    return os, LIMIT, b, len, _GONE\n"
           "class K:\n    SIZE = 1\n    def g(self):\n        return SIZE\n"
           "def h():\n    def inner():\n        return d + e\n    d = 1\n")
    assert unbound_globals(src) == [(5, "_GONE"), (9, "SIZE"), (12, "e")]


def test_functions_read_only_bound_globals():
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 for line, name in unbound_globals(path.read_text())]
    assert offenders == []


def test_every_symcore_export_is_imported_under_src():
    """`cmverify.symcore.__all__` lists only names some module under src/
    imports (the package's own re-export does not count)."""
    init = ROOT / "src" / "cmverify" / "symcore" / "__init__.py"
    imported = {alias.asname or alias.name
                for path in (ROOT / "src").rglob("*.py") if path != init
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert sorted(set(symcore.__all__) - imported) == []


def kernel_internal_imports(source: str) -> list:
    """(line, name) of each import that reaches into `symcore.poly` or
    `symcore.expr` instead of through `cmverify.symcore`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}"
                     for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if any(f".symcore.{m}." in f".{name}."
                         for m in ("poly", "expr"))]
    return found


def test_kernel_internal_import_is_found():
    src = ("from .symcore.poly import Poly\nfrom .symcore import poly, Expr\n"
           "import cmverify.symcore.expr\nfrom ..symcore import esum\n"
           "from . import symcore\nfrom .poly import Poly\n")
    assert kernel_internal_imports(src) == [
        (1, "symcore.poly.Poly"), (2, "symcore.poly"),
        (3, "cmverify.symcore.expr")]


def test_kernel_is_reached_only_through_its_exports():
    """Outside `symcore/`, modules under src/ import the kernel's names
    from `cmverify.symcore`, whose `__all__` is its boundary."""
    kernel = ROOT / "src" / "cmverify" / "symcore"
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in sorted((ROOT / "src" / "cmverify").rglob("*.py"))
                 if kernel not in path.parents
                 for line, name in kernel_internal_imports(path.read_text())]
    assert offenders == []


def unreferenced_definitions(sources: dict) -> list:
    """(path, line, name) of each module-level function or class that no
    code in `sources` ({path: source}) names outside its own definition,
    as a name or as an attribute."""
    defs, refs = [], []
    for path, source in sources.items():
        tree = ast.parse(source)
        defs += [(path, node.name, node.lineno, node.end_lineno)
                 for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((path, node.attr, node.lineno))
    return sorted((path, first, name) for path, name, first, last in defs
                  if not any(ref == name and (at != path
                                              or not first <= line <= last)
                             for at, ref, line in refs))


def test_unreferenced_definition_is_found():
    sources = {
        "a.py": "def used():\n    return 1\n\n\n"
                "def dead(n):\n    return dead(n - 1)\n\n\n"
                "class Gone:\n    pass\n",
        "b.py": "from a import used, Gone\nprint(used())\n",
    }
    assert unreferenced_definitions(sources) == [("a.py", 5, "dead"),
                                                 ("a.py", 9, "Gone")]


def test_every_src_definition_is_used_under_src():
    """Tests and bench do not count: a helper only they call is dead
    library code."""
    sources = {str(path.relative_to(ROOT)): path.read_text()
               for path in sorted((ROOT / "src").rglob("*.py"))}
    assert unreferenced_definitions(sources) == []


def unread_fields(defining: dict, reading: list) -> list:
    """(path, line, name) of each field of a `@dataclass` class in
    `defining` ({path: source}) that no source in `reading` reads as an
    attribute."""
    read = {node.attr for source in reading
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    found = []
    for path, source in defining.items():
        for cls in ast.walk(ast.parse(source)):
            if isinstance(cls, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in cls.decorator_list):
                found += [(path, node.lineno, node.target.id)
                          for node in cls.body
                          if isinstance(node, ast.AnnAssign)
                          and isinstance(node.target, ast.Name)
                          and node.target.id not in read]
    return sorted(found)


def test_unread_field_is_found():
    defining = {"a.py": "from dataclasses import dataclass\n\n\n"
                        "@dataclass(frozen=True)\nclass P:\n    kept: int\n"
                        "    unread: str = ''\n\n\nclass Plain:\n"
                        "    other: int\n"}
    reading = [defining["a.py"],
               "p = P(1, 'x')\nprint(p.kept)\np.unread = 'y'\n"]
    assert unread_fields(defining, reading) == [("a.py", 7, "unread")]


def test_every_dataclass_field_is_read():
    defining = {str(path.relative_to(ROOT)): path.read_text()
                for path in sorted((ROOT / "src").rglob("*.py"))}
    reading = [path.read_text() for path in (ROOT / "tests").rglob("*.py")]
    assert unread_fields(defining, [*defining.values(), *reading]) == []


MAX_FUNCTION_LINES = 126


def long_functions(source: str, limit: int) -> list:
    """(line, name, length) of each function or method, nested ones
    included, whose definition spans more than `limit` lines."""
    return sorted((node.lineno, node.name, node.end_lineno - node.lineno + 1)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.end_lineno - node.lineno + 1 > limit)


def test_long_function_is_found():
    src = ("def short():\n    return 1\n\n\n"
           "class K:\n    def long(self):\n" + "        pass\n" * 3)
    assert long_functions(src, 3) == [(6, "long", 4)]
    assert long_functions(src, 4) == []


def test_no_function_under_src_is_too_long():
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name} ({length} lines)"
                 for path in sorted((ROOT / "src").rglob("*.py"))
                 for line, name, length in long_functions(path.read_text(),
                                                          MAX_FUNCTION_LINES)]
    assert offenders == []

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import dualgcn

MODULES = sorted(f"dualgcn.{m.name}" for m in pkgutil.iter_modules(dualgcn.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what the module does not define: {missing}"


def test_package_reexports_only_exported_names():
    stale = []
    for name, value in vars(dualgcn).items():
        home = getattr(value, "__module__", None)
        if name.startswith("_") or not isinstance(home, str) or not home.startswith("dualgcn."):
            continue
        if name not in getattr(importlib.import_module(home), "__all__", ()):
            stale.append(f"{home}.{name}")
    assert not stale, f"dualgcn re-exports names outside their module's __all__: {stale}"


REPO = Path(__file__).resolve().parents[1]


def _definitions(tree):
    """Top-level functions and classes, and the methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
        # perfbench's tracer patches names given as strings: t.wrap(module, "name", ...)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "wrap" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            yield node.args[1].value


def test_every_definition_has_a_caller():
    """Each function, class and method of the package is named somewhere in
    the package or in perfbench's modules; the package's own re-exports
    and the tests do not count."""
    sources = [p for p in sorted((REPO / "src" / "dualgcn").glob("*.py")) if p.name != "__init__.py"]
    users = sources + [p for p in sorted((REPO / "perfbench").glob("*.py"))
                       if not p.name.startswith("test_")]
    assert sources and len(users) > len(sources)
    named = set()
    for path in users:
        named.update(_references(ast.parse(path.read_text(), str(path))))
    unused = [f"{path.stem}.{name}" for path in sources
              for name in _definitions(ast.parse(path.read_text(), str(path)))
              if name not in named and not (name.startswith("__") and name.endswith("__"))]
    assert not unused, f"defined but named nowhere: {unused}"


def _unread_imports(source: str, filename: str) -> list[str]:
    """Names an import binds that the module never reads, lists in
    __all__ or marks with `# noqa: F401` on the import's line."""
    tree = ast.parse(source, filename)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                unread.append(f"{filename}:{alias.lineno}: {bound}")
    return unread


def test_unread_import_scan_flags_what_it_should():
    source = ("from __future__ import annotations\nimport os\nimport logging as log\n"
              "from x import (\n    a,\n    b,\n)\nfrom y import c  # noqa: F401\n"
              "from z import d\n__all__ = ['d']\n\ndef f():\n    import json\n    return a\n")
    assert _unread_imports(source, "m.py") == ["m.py:2: os", "m.py:3: log", "m.py:6: b", "m.py:13: json"]


def test_every_import_is_read():
    """Each name a package module imports is read there, exported in its
    __all__ or marked `# noqa: F401`: no linter runs on the package.  The
    package's __init__ imports only to re-export, which
    test_package_reexports_only_exported_names checks."""
    unread = [entry for path in sorted((REPO / "src" / "dualgcn").glob("*.py")) if path.name != "__init__.py"
              for entry in _unread_imports(path.read_text(), path.name)]
    assert not unread, f"imported but never read: {unread}"

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

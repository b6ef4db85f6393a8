import importlib
import pkgutil

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

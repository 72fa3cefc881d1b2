import importlib
import pkgutil

import pytest

import hypq

MODULES = ["hypq"] + [f"hypq.{m.name}" for m in pkgutil.iter_modules(hypq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)

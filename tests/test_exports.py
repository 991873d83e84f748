"""Every public name the package and its modules export exists."""

import importlib
import pkgutil

import pytest

import xkmeans

MODULES = ["xkmeans"] + [f"xkmeans.{m.name}" for m in pkgutil.iter_modules(xkmeans.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_succeeds_and_every_all_name_exists(name):
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)  # a stale __all__ entry raises here
    for attr in getattr(module, "__all__", ()):
        assert hasattr(module, attr), f"{name}.__all__ names {attr!r}, which it does not define"
        assert attr in namespace

"""Every module of the package star-imports, so no ``__all__`` names a missing object,
and the package exports exactly the names its modules list in ``__all__``."""

import importlib
import pkgutil
from types import ModuleType

import pytest

import falsikit

MODULES = sorted(info.name for info in pkgutil.iter_modules(falsikit.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from falsikit.{module} import *", namespace)
    assert set(getattr(falsikit, module).__dict__.get("__all__", ())) <= set(namespace)


def test_package_exports_the_modules_public_names():
    exported = {name for name, value in vars(falsikit).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    public = set().union(*(getattr(importlib.import_module(f"falsikit.{module}"), "__all__", ())
                           for module in MODULES))
    assert exported == public

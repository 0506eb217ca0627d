"""Every module of the package star-imports, so no ``__all__`` names a missing object."""

import pkgutil

import pytest

import falsikit

MODULES = sorted(info.name for info in pkgutil.iter_modules(falsikit.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    namespace = {}
    exec(f"from falsikit.{module} import *", namespace)
    assert set(getattr(falsikit, module).__dict__.get("__all__", ())) <= set(namespace)

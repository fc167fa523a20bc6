"""Every public name a module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import pytest

import bispectral

MODULES = sorted(info.name for info in pkgutil.iter_modules(bispectral.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    module = importlib.import_module(f"bispectral.{name}")
    assert module.__all__
    namespace = {}
    exec(f"from bispectral.{name} import *", namespace)
    assert set(module.__all__) <= set(namespace)

"""Every name a module lists in __all__ must resolve, so that
``from lyacert.<module> import *`` keeps working after a deletion."""

import importlib
import pkgutil

import pytest

import lyacert

MODULES = sorted(m.name for m in pkgutil.iter_modules(lyacert.__path__))


def test_modules_found():
    assert "detect" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lyacert.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing

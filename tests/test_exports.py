"""Every name a module lists in __all__ must resolve, so that
``from lyacert.<module> import *`` keeps working after a deletion; and the
norm enclosures and the PSD map test draw no random numbers."""

import importlib
import pkgutil

import numpy as np
import pytest

import lyacert
from lyacert.cones import ConeSpec, CongruenceMap, map_preserves_cone
from lyacert.linalg import induced_norm
from lyacert.lyapunov import projective_norm

MODULES = sorted(m.name for m in pkgutil.iter_modules(lyacert.__path__))


def test_modules_found():
    assert "detect" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"lyacert.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing


def test_norms_and_map_test_are_seedless(monkeypatch):
    M = np.array([[1.0, -2.0, 0.5], [0.3, 1.0, 2.0], [-1.0, 0.0, 1.5]])
    L = CongruenceMap(M=M).matrix()

    def no_rng(*args, **kwargs):
        raise AssertionError("numpy.random.default_rng called")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    assert induced_norm(M, 3.0, 1.5).lower > 0
    assert projective_norm(M, 3.0).lower > 0
    assert map_preserves_cone(ConeSpec.psd(3), L).preserves

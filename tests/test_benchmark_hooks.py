"""The traced benchmark run (benchmarks/spans.py) wraps package functions and
kernel entry points by (module, attribute) name.  A rename or removal must
fail here, in the tier-1 suite, and not first in the benchmark."""

import importlib

import pytest

from conftest import benchmark_module

_spans = benchmark_module("spans")


@pytest.mark.parametrize("module, attr, name", _spans.SPANS + _spans.KERNELS)
def test_hook_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))

"""The traced benchmark run (benchmarks/spans.py) wraps package functions and
kernel entry points by (module, attribute) name.  A rename or removal must
fail here, in the tier-1 suite, and not first in the benchmark."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS_FILE = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_spans = _load_spans()


@pytest.mark.parametrize("module, attr, name", _spans.SPANS + _spans.KERNELS)
def test_hook_resolves(module, attr, name):
    assert callable(getattr(importlib.import_module(module), attr))

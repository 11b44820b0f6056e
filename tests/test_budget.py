"""Work budgets: kernel calls per certificate, by verdict.

Timings on a shared machine do not resolve small changes; the number of
factorizations a certificate makes is deterministic.  This file certifies
a fixed corpus (the five gallery fixtures and the seed-1 small-mix round
of benchmarks/problems.py) and counts, per verdict, the real Schur forms
(LAPACK gees, workspace queries excluded), Bartels-Stewart solves (LAPACK
trsyl), Riccati solves, SVDs, matrix exponentials and symmetric
eigenvalue solves.  Today's totals are the bounds: a change that adds a
factorization to the certify path fails here.  Raising a bound is a test
change and is recorded with its reason.
"""

import collections

import numpy as np
import pytest
import scipy.linalg

from lyacert.certify import (
    GALLERY_FIXTURES,
    VERDICT_INCONCLUSIVE,
    VERDICT_STABLE,
    VERDICT_UNSTABLE,
    parse_problem,
    problem_from_dict,
    wonham_certify,
)

from conftest import benchmark_module

#: per verdict, the certificates in the corpus and their total kernel calls
BUDGET = {
    VERDICT_STABLE: {"certificates": 33, "schur": 66, "trsyl": 96, "care": 33,
                     "svd": 33, "expm": 47, "eigvalsh": 584},
    VERDICT_UNSTABLE: {"certificates": 16, "schur": 34, "trsyl": 18, "care": 16,
                       "svd": 40, "expm": 0, "eigvalsh": 9},
    VERDICT_INCONCLUSIVE: {"certificates": 6, "schur": 12, "trsyl": 0, "care": 0,
                           "svd": 12, "expm": 0, "eigvalsh": 0},
}
KERNELS = ("schur", "trsyl", "care", "svd", "expm", "eigvalsh")


def _corpus():
    for _, problem, _ in GALLERY_FIXTURES:
        yield problem_from_dict(problem)
    for problem in benchmark_module("problems").small_mix(1):
        yield parse_problem(problem["text"])


def _counting(counts, name, func):
    def call(*args, **kwargs):
        counts[name] += 1
        return func(*args, **kwargs)
    return call


@pytest.fixture(scope="module")
def work():
    """{verdict: Counter of certificates and kernel calls} over the corpus."""
    counts = collections.Counter()
    get_lapack_funcs = scipy.linalg.get_lapack_funcs

    def counted_lapack(names, arrays):
        func = get_lapack_funcs(names, arrays)
        if names == "trsyl":
            return _counting(counts, "trsyl", func)
        if names != "gees":
            return func

        def gees(select, a, **kwargs):
            counts["schur"] += kwargs.get("lwork") != -1
            return func(select, a, **kwargs)
        return gees

    table = collections.defaultdict(collections.Counter)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "get_lapack_funcs", counted_lapack)
        for module, attr, name in ((scipy.linalg, "solve_continuous_are", "care"),
                                   (scipy.linalg, "expm", "expm"),
                                   (np.linalg, "svd", "svd"),
                                   (np.linalg, "eigvalsh", "eigvalsh")):
            mp.setattr(module, attr, _counting(counts, name, getattr(module, attr)))
        for spec in _corpus():
            counts.clear()
            verdict = wonham_certify(spec).verdict
            table[verdict].update(counts)
            table[verdict]["certificates"] += 1
    return table


@pytest.mark.parametrize("verdict", sorted(BUDGET))
def test_corpus_is_fixed(work, verdict):
    assert work[verdict]["certificates"] == BUDGET[verdict]["certificates"]


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("verdict", sorted(BUDGET))
def test_within_budget(work, verdict, kernel):
    assert work[verdict][kernel] <= BUDGET[verdict][kernel]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 6: the injection's A - FC takes a second Schur form, and "
    "a stable A still gets a Riccati solve"))
@pytest.mark.parametrize("kernel, per_certificate", [("schur", 1), ("care", 0)])
def test_stable_certificate_target(work, kernel, per_certificate):
    stable = work[VERDICT_STABLE]
    assert stable[kernel] == per_certificate * stable["certificates"]

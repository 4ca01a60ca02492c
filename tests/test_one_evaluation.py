"""Each Charlier value C_n(p) and each binomial binom(p, k) is built once.

``classical.charlier_at`` is the one place a member of the family is
evaluated in x, and ``classical.binom_rational`` the one place binom_poly(k)
is; both are cached per argument pair.  A serial run of every suite, from
cleared caches, must therefore substitute x into each charlier(n) and each
binom_poly(k) once per point, however many identities read the value.
"""

import os
from collections import Counter

import pytest

from charlier import classical as cl
from charlier.polynomials import Poly, Var
from charlier.verify import SuiteSpec, run_suite
from test_mutants import clear_caches


def substituted_into(family, lowest, calls):
    """Counter of (k, point) over the calls that substituted x into the very
    object family(k), k >= lowest; family(k) has x-degree k."""
    counts = Counter()
    for p, point in calls:
        k = max(p.degree_in(Var.X), lowest)
        if p is family(k):
            counts[k, point] += 1
    return counts


@pytest.fixture(scope="module")
def substitutions():
    """The counters of substituted_into for charlier and binom_poly, over one
    serial run of every suite at n, i <= 12."""
    calls = []
    real = Poly.substitute

    def spy(self, v, value):
        if v is Var.X:
            calls.append((self, value))
        return real(self, v, value)

    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(Poly, "substitute", spy)
            patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            assert run_suite(SuiteSpec("all", 12, 12)).all_passed()
        # counted before the caches are cleared, while family(k) is the object read
        return {"charlier": substituted_into(cl.charlier, -1, calls),
                "binom_poly": substituted_into(cl.binom_poly, 0, calls)}
    finally:
        clear_caches()


@pytest.mark.parametrize("family,points", [("charlier", 50), ("binom_poly", 117)])
def test_each_value_is_substituted_once(substitutions, family, points):
    counts = substitutions[family]
    assert max(counts.values()) == 1
    assert sum(counts.values()) == points

"""The coefficient family built from per-index pieces.

a_i is built from cached bracket sums and charlier(n) reads a cached
falling-factorial basis; both must equal the per-order reference routes
exactly.  The uniqueness certificate must stay an independent route:
a wrong bracket changes a_i but not the forward-substitution solution.  A
hash pins the whole order-20 table.
"""

import hashlib
import inspect
import sys

import pytest

from charlier import diffeq as dq
from charlier.classical import binom_poly, charlier
from charlier.cli import main
from charlier.polynomials import X
from reference_routes import reference_binom_poly, reference_charlier, reference_coeff_ai

# SHA-256 of `charlier coeffs --max-i 20 --format json` stdout.
JSON_MAX20 = "f0fcede4e51f4e312b9794e4d47eabcf4741bccf1c4a27acc2c97b44ad155061"


@pytest.mark.parametrize("i", range(1, 15))
def test_coefficients_match_per_order_reference(i):
    expected = reference_coeff_ai(i)
    assert dq.coeff_ai(i) == expected
    assert dq.coeff_ai(i).terms() == expected.terms()


@pytest.mark.parametrize("n", range(21))
def test_charlier_matches_per_term_reference(n):
    expected = reference_charlier(n)
    assert charlier(n) == expected
    assert charlier(n).terms() == expected.terms()


@pytest.mark.parametrize("k", range(13))
def test_binom_poly_is_the_falling_factorial(k):
    assert binom_poly(k) == reference_binom_poly(k)
    assert binom_poly(k).terms() == reference_binom_poly(k).terms()


def test_binom_poly_builds_without_recursion():
    # 50 frames above the current depth: a recursive build of 300 would
    # need about 300.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 50)
    try:
        top = binom_poly(300)
    finally:
        sys.setrecursionlimit(limit)
    assert top == binom_poly(299) * (X - 299) / 300


def test_negative_binom_index_rejected():
    with pytest.raises(ValueError):
        binom_poly(-1)


def test_uniqueness_does_not_read_the_brackets(monkeypatch):
    solved = dq.solve_coefficients(4)
    right = dq._bracket

    def wrong(k):
        return right(k) + X if k == 3 else right(k)

    def clear_caches():
        dq.coeff_ai.cache_clear()
        dq._bracket_sum.cache_clear()
        right.cache_clear()

    clear_caches()
    monkeypatch.setattr(dq, "_bracket", wrong)
    try:
        assert dq.coeff_ai(3) != reference_coeff_ai(3)
        assert not dq.verify_uniqueness(4)
        assert dq.solve_coefficients(4) == solved
    finally:
        clear_caches()


def test_deep_table_is_byte_stable(capsys):
    assert main(["coeffs", "--max-i", "20", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_MAX20

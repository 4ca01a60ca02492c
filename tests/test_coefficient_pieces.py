"""The coefficient family built from per-index pieces.

a_i is built from cached bracket sums and charlier(n) reads a cached
falling-factorial basis; both must equal the per-order reference routes
exactly.  Each bracket comes from the one before it by a two-term
recurrence and the shifted pieces C_k(x-1), C_k(x-2) from lowering, so
building a_i shifts nothing; each piece must equal its definition written
with shift_x, and the shifted brackets must obey the recurrence.
solve_coefficients, the forward substitution that no verify case calls,
must stay the library's independent route: a wrong bracket changes a_i but
not its solution.  Both mass actions must equal their order-zero term plus
the bracket sums D_j times binom(x, n - j), the second through lowering.
Hashes pin the whole order-20 and order-30 tables.
"""

import hashlib
import inspect
import sys
from math import factorial

import pytest

from charlier import diffeq as dq
from charlier.classical import binom_poly, charlier
from charlier.cli import main
from charlier.pointmass import shifted_charlier
from charlier.polynomials import A, Poly, Var, X, parity_sign
from reference_routes import (
    reference_binom_poly,
    reference_bracket_sum,
    reference_charlier,
    reference_coeff_ai,
)
from test_mutants import clear_caches

# SHA-256 of `charlier coeffs --max-i 20 --format json` stdout.
JSON_MAX20 = "f0fcede4e51f4e312b9794e4d47eabcf4741bccf1c4a27acc2c97b44ad155061"
# SHA-256 of `charlier coeffs --max-i 30 --format json` stdout, the largest
# order the CLI accepts.
JSON_MAX30 = "1912515ab91a061f87357c522e3f58ec70a5169ff4635fcf5ee4278d7000f49a"


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


def shifted_bracket(k):
    """B_k = (-1)^k [C_k(-1) C_k(x-2) - C_k(-2) C_k(x-1)], shifted directly."""
    ck = charlier(k)
    return (ck.substitute(Var.X, -1) * ck.shift_x(-2)
            - ck.substitute(Var.X, -2) * ck.shift_x(-1)) * parity_sign(k)


@pytest.mark.parametrize("k", range(1, 21))
def test_bracket_matches_its_shifted_definition(k):
    assert dq._bracket(k) == shifted_bracket(k)


@pytest.mark.parametrize("k", range(1, 21))
def test_shifted_brackets_obey_the_two_term_recurrence(k):
    # k B_k + a B_{k-1} = (-1)^k C_{k-1}(-2) x C_{k-1}(x-2), every piece
    # shifted directly, apart from the route that builds _bracket.
    prev = charlier(k - 1)
    expected = prev.substitute(Var.X, -2) * X * prev.shift_x(-2) * parity_sign(k)
    assert k * shifted_bracket(k) + A * shifted_bracket(k - 1) == expected

@pytest.mark.parametrize("k", range(31))
def test_lowered_pieces_are_the_shifted_family(k):
    assert dq._lowered(k, 0) == charlier(k)
    assert dq._lowered(k, 1) == charlier(k).shift_x(-1)
    assert dq._lowered(k, 2) == charlier(k).shift_x(-2)


@pytest.mark.parametrize("j", range(1, 31))
def test_bracket_sum_is_the_direct_convolution(j):
    assert dq._bracket_sum(j) == reference_bracket_sum(j)


@pytest.mark.parametrize("j", range(1, 31))
def test_coefficients_are_e_to_the_at_times_the_bracket_sums(j):
    # D'_j = sum_{m<j} ((-a)^m / m!) a_{j-m}, the sums the mass actions read
    direct = sum((dq.coeff_ai(j - m) * (-A) ** m / factorial(m) for m in range(j)), Poly())
    assert dq._series_sum(j).terms() == direct.terms() == dq._bracket_sum(j).terms()


def test_lowered_pieces_and_kernel_build_without_recursion():
    # 25 frames above the current depth: building either by recursion on
    # the index would need one frame per index below it.
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        top, bracket = dq._lowered(60, 2), dq._bracket(35)
    finally:
        sys.setrecursionlimit(limit)
        clear_caches()
    assert top == charlier(60).shift_x(-2)
    assert bracket == shifted_bracket(35)


def test_coefficients_are_built_without_shift_x(monkeypatch):
    calls = []
    real = Poly.shift_x

    def spy(self, offset):
        calls.append(offset)
        return real(self, offset)

    clear_caches()
    monkeypatch.setattr(Poly, "shift_x", spy)
    try:
        table = [dq.coeff_ai(i) for i in range(1, 21)]
    finally:
        monkeypatch.undo()
        clear_caches()
    assert calls == []
    assert table[4] == reference_coeff_ai(5)


def bracket_sum_action(n):
    """S_n = sum_{j=1}^{n} D_j binom(x, n - j) with D_j = _bracket_sum(j)."""
    return sum((dq._bracket_sum(j) * binom_poly(n - j) for j in range(1, n + 1)), Poly())


@pytest.mark.parametrize("n", range(13))
def test_mass_action_is_order_zero_plus_bracket_sums(n):
    expected = dq.coeff_a0(n) * charlier(n) + bracket_sum_action(n)
    assert dq.mass_operator(n, n).apply(charlier(n)) == expected


@pytest.mark.parametrize("n", range(13))
def test_shifted_mass_action_by_lowering(n):
    # T_0 = 0 and T_n = S_n - T_{n-1}
    tail = Poly()
    for m in range(1, n + 1):
        tail = bracket_sum_action(m) - tail
    expected = dq.coeff_a0(n) * shifted_charlier(n) + tail
    assert dq.mass_operator(n, n).apply(shifted_charlier(n)) == expected


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


def test_deepest_table_is_byte_stable(capsys):
    assert main(["coeffs", "--max-i", "30", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_MAX30

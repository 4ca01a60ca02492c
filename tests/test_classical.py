"""Classical family: construction, values, identities, moments, orthogonality."""

import math
from fractions import Fraction

import pytest

from charlier.classical import (
    binom_poly,
    binom_rational,
    charlier,
    charlier_mirror,
    convolution_residual,
    inner_product_classical,
    laguerre,
    moment,
    moments_of,
    orthogonality_residual,
    second_order_residual,
    stirling2,
    stirling2_row,
    value_at_minus_one,
    value_at_zero,
    verify_inverse_matrix,
    verify_laguerre_relation,
    verify_lowering,
    verify_second_order,
    verify_shift_identity,
    verify_value_difference,
    verify_value_formulas,
)
from charlier.polynomials import A, Poly, Var, X

half = Fraction(1, 2)


def bell_numbers(upto: int) -> list[int]:
    """Bell numbers through the Aitken array, independent of stirling2."""
    row = [1]
    bells = [1]
    for _ in range(upto):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        bells.append(row[0])
    return bells


class TestFamily:
    def test_small_members(self):
        assert charlier(0) == 1
        assert charlier(1) == X - A
        assert charlier(2) == X**2 / 2 - X / 2 - A * X + A**2 / 2

    def test_zero_member(self):
        assert charlier(-1) == 0
        with pytest.raises(ValueError):
            charlier(-2)

    @pytest.mark.parametrize("n", range(9))
    def test_degree_and_leading_coeff(self, n):
        cn = charlier(n)
        assert cn.degree_in(Var.X) == n
        assert cn.coeff_of(Var.X, n) == Fraction(1, math.factorial(n))

    def test_mirror(self):
        assert charlier_mirror(1) == -X + A

    def test_binom_poly(self):
        assert binom_poly(0) == 1
        assert binom_poly(2) == X * (X - 1) / 2

    def test_binom_rational(self):
        assert binom_rational(3, 2) == 3
        assert binom_rational(half, 2) == Fraction(-1, 8)


class TestValues:
    def test_closed_forms_small(self):
        assert value_at_zero(2) == A**2 / 2
        assert value_at_minus_one(2) == 1 + A + A**2 / 2
        assert value_at_minus_one(0) == 1

    @pytest.mark.parametrize("n", range(13))
    def test_substitution_matches_closed_forms(self, n):
        assert verify_value_formulas(n)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_value_difference(self, n):
        assert verify_value_difference(n)


class TestLaguerre:
    def test_degree_zero(self):
        assert laguerre(0, A, Var.X) == 1

    def test_degree_one_symbolic_parameter(self):
        assert laguerre(1, A, Var.X) == A + 1 - X

    def test_parameter_minus_one(self):
        assert laguerre(0, -1, Var.A) == 1

    def test_parameter_must_avoid_variable(self):
        with pytest.raises(ValueError):
            laguerre(2, X, Var.X)

    @pytest.mark.parametrize("n", [0, 1, 6])
    def test_connection(self, n):
        assert verify_laguerre_relation(n)


class TestDifferenceIdentities:
    @pytest.mark.parametrize("n", [0, 2, 10])
    def test_lowering(self, n):
        assert verify_lowering(n)

    def test_lowering_value(self):
        assert charlier(2).delta() == X - A

    @pytest.mark.parametrize("n", range(9))
    def test_nabla_shifts_the_lowered_member(self, n):
        assert charlier(n).nabla() == charlier(n - 1).shift_x(-1)

    @pytest.mark.parametrize("n", [0, 1, 12])
    def test_second_order(self, n):
        assert verify_second_order(n)

    def test_second_order_residual_is_polynomial_zero(self):
        assert second_order_residual(5) == Poly()

    @pytest.mark.parametrize(
        "n,p", [(3, -1), (3, 3), (4, half), (6, Fraction(-5, 3)), (8, 8)]
    )
    def test_shift_identity(self, n, p):
        assert verify_shift_identity(n, p)

    @pytest.mark.parametrize("r", range(31))
    def test_exponential_times_generating_function_is_binomial(self, r):
        # e^(at) sum_n C_n t^n = (1 + t)^x, read at t^r
        terms = (A**m / math.factorial(m) * charlier(r - m) for m in range(r + 1))
        assert sum(terms, Poly()) == binom_poly(r)


class TestConvolution:
    def test_diagonal(self):
        assert convolution_residual(5, 5) == 0

    def test_first_off_diagonal(self):
        # (x - a) + (-x + a) collapses immediately
        assert convolution_residual(1, 0) == 0

    def test_far_off_diagonal(self):
        assert convolution_residual(8, 3) == 0

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_inverse_matrix(self, n):
        assert verify_inverse_matrix(n)


class TestMoments:
    def test_first_moments(self):
        assert moment(0) == 1
        assert moment(2) == A + A**2
        assert moment(3) == A + 3 * A**2 + A**3

    def test_stirling_base(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7

    def test_moments_match_recursive_stirling(self):
        def recursive(k: int, j: int) -> int:
            if k == 0:
                return 1 if j == 0 else 0
            if j <= 0 or j > k:
                return 0
            return j * recursive(k - 1, j) + recursive(k - 1, j - 1)

        for k in range(11):
            expected = Poly({(0, j, 0): recursive(k, j) for j in range(k + 1)})
            assert moment(k) == expected

    def test_stirling_rows_in_any_order_are_fresh_copies(self):
        def from_row_zero(k: int) -> list[int]:
            row = [1]
            for _ in range(k):
                row = [j * s + t for j, (s, t) in enumerate(zip(row + [0], [0] + row))]
            return row

        for k in [*range(62), 5, 0, 70, 3, -1]:
            row = stirling2_row(k)
            assert row == from_row_zero(k)
            row[-1] += 1
            assert stirling2_row(k) == from_row_zero(k)

    def test_high_moment_without_recursion(self):
        # Bypass the cache so the whole Stirling row is built from scratch.
        m = moment.__wrapped__(1500)
        assert m.degree_in(Var.A) == 1500
        assert m.coeff_of(Var.A, 1500) == 1
        assert m.coeff_of(Var.A, 1499) == math.comb(1500, 2)
        assert m.coeff_of(Var.A, 1) == 1

    @pytest.mark.parametrize("k", range(11))
    def test_bell_number_cross_check(self, k):
        bells = bell_numbers(10)
        assert moment(k).evaluate(a=1) == bells[k]

    @pytest.mark.parametrize("k", range(11))
    def test_numeric_oracle_double_precision(self, k):
        # truncated weighted sum at a = 1, sixty terms, fsum for stability
        numeric = math.fsum(
            math.exp(-1.0) * x**k / math.factorial(x) for x in range(61)
        )
        exact = float(moment(k).evaluate(a=1))
        assert abs(numeric - exact) <= 1e-12 * max(1.0, exact)

    @pytest.mark.parametrize("k", range(11))
    def test_numeric_oracle_exact_truncation(self, k):
        # Same truncated sum in exact arithmetic, self-normalized so the
        # weight factor cancels; the tail is far below the tolerance.
        num = sum(Fraction(x**k, math.factorial(x)) for x in range(61))
        den = sum(Fraction(1, math.factorial(x)) for x in range(61))
        assert abs(num / den - moment(k).evaluate(a=1)) < Fraction(1, 10**12)


class TestMomentRows:
    """The rows r_n[j] = <x^j, C_n> against the three-term recurrence and
    lowering, each side read from moments_of."""

    @staticmethod
    def rows(n):
        return moments_of(charlier(n), n + 2)  # charlier(-1) is zero

    @pytest.mark.parametrize("n", range(13))
    def test_rows_obey_the_three_term_recurrence(self, n):
        # (n+1) C_{n+1} = (x - a - n) C_n - a C_{n-1}
        prev, row, nxt = self.rows(n - 1), self.rows(n), self.rows(n + 1)
        for j in range(n + 1):
            expected = (row[j + 1] - (A + n) * row[j] - A * prev[j]) / (n + 1)
            assert nxt[j] == expected

    @pytest.mark.parametrize("n", range(13))
    def test_shifted_rows_by_lowering(self, n):
        # C_n(x-1) = C_n(x) - C_{n-1}(x-1)
        shifted = moments_of(charlier(n).shift_x(-1), n + 1)
        lower = moments_of(charlier(n - 1).shift_x(-1), n + 1)
        row = self.rows(n)
        assert shifted == [row[j] - lower[j] for j in range(n + 1)]


class TestInnerProduct:
    def test_diagonal_norm(self):
        ip = inner_product_classical(charlier(1), charlier(1))
        assert ip == A

    def test_off_diagonal(self):
        assert inner_product_classical(charlier(0), charlier(3)) == 0

    @pytest.mark.parametrize("n", range(7))
    def test_shifted_member_against_one(self, n):
        ip = inner_product_classical(Poly.const(1), charlier(n).shift_x(-1))
        assert ip == (1 if n % 2 == 0 else -1)

    @pytest.mark.parametrize("m", range(9))
    @pytest.mark.parametrize("n", range(9))
    def test_orthogonality_battery(self, m, n):
        if m <= n:
            assert orthogonality_residual(m, n) == 0

    def test_bilinearity(self):
        p, q, r = charlier(2), charlier(3), X**2 - A
        lhs = inner_product_classical(p + r, q)
        assert lhs == inner_product_classical(p, q) + inner_product_classical(r, q)

"""Ring arithmetic, substitution calculus and rendering of Poly."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlier.classical import charlier
from charlier.polynomials import EXPONENT_LIMIT, A, N, Poly, Var, X
from strategies import polys

half = Fraction(1, 2)


class TestConstruction:
    def test_zero_is_empty(self):
        assert not Poly()
        assert Poly() == 0
        assert Poly({(1, 0, 0): 0}) == Poly()

    def test_duplicate_keys_merge(self):
        assert Poly({(0, 0, 0): 3}) + Poly({(0, 0, 0): -3}) == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(-1, 0, 0): 1})

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(ValueError):
            Poly({(1.5, 0, 0): 1})
        with pytest.raises(ValueError):
            Poly({(0, 2.0, 0): 1})

    def test_exponent_beyond_field_rejected(self):
        for exp in ((EXPONENT_LIMIT, 0, 0), (0, EXPONENT_LIMIT, 0), (0, 0, EXPONENT_LIMIT)):
            with pytest.raises(ValueError):
                Poly({exp: 1})
        top = EXPONENT_LIMIT - 1
        assert Poly({(top, top, top): 1}).degree_in(Var.N) == top

    def test_constants_compare_with_numbers(self):
        assert Poly.const(half) == half
        assert Poly.const(2) == 2
        assert hash(Poly.const(2)) == hash(2)

    def test_variables(self):
        assert X == Poly({(1, 0, 0): 1})
        assert A == Poly({(0, 1, 0): 1})
        assert N == Poly({(0, 0, 1): 1})


class TestArithmetic:
    def test_additive_inverse(self):
        assert X + (-X) == 0

    def test_cancellation(self):
        assert (X + A) + (X - A) == 2 * X

    def test_rational_combine(self):
        assert A**2 / 2 + A / 2 == (A**2 + A) / 2

    def test_difference_of_squares(self):
        assert (X - A) * (X + A) == X**2 - A**2

    def test_zero_annihilates(self):
        assert (X**2 - A) * Poly() == 0

    def test_scalar_multiple(self):
        assert (X - 1) * (X - 2) / 2 * 2 == X**2 - 3 * X + 2

    def test_pow(self):
        assert X**0 == 1
        assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
        with pytest.raises(ValueError):
            X ** (-1)

    def test_product_overflow_never_carries(self):
        # Each product reaches EXPONENT_LIMIT; in the a and N fields an
        # unchecked sum would carry into the neighbouring variable.
        top = EXPONENT_LIMIT - 1
        for v in (X, A, N):
            with pytest.raises(ValueError):
                (v**top) * v
        with pytest.raises(ValueError):
            Poly({(0, 0, top): 1}) * (N + A)

    def test_huge_power_fails_fast(self):
        with pytest.raises(ValueError):
            X ** (1 << 40)
        with pytest.raises(ValueError):
            (X + A + 1) ** (1 << 40)
        assert Poly.const(1) ** (1 << 40) == 1

    def test_division(self):
        assert (2 * X) / 2 == X
        with pytest.raises(ZeroDivisionError):
            X / 0


class TestSubstitution:
    def test_substitute_x(self):
        assert (X - A).substitute(Var.X, 0) == -A
        assert (X**2 - X).substitute(Var.X, -1) == 2

    def test_substitute_chain(self):
        stored = A**2 / 2  # value of the degree-2 family member at x = 0
        assert stored.substitute(Var.A, 3) == Fraction(9, 2)

    def test_negate_var(self):
        assert (X - A).negate_var(Var.A) == X + A
        assert (X**2).negate_var(Var.X) == X**2
        assert (X - A).negate_var(Var.X).negate_var(Var.A) == -X + A

    def test_evaluate(self):
        p = X**2 - 2 * A * X + N
        assert p.evaluate(x=3, a=1, n=half) == 9 - 6 + half


class TestShiftCalculus:
    def test_shift_examples(self):
        assert (X**2).shift_x(-1) == X**2 - 2 * X + 1
        assert (X - A).shift_x(1) == X + 1 - A
        p = X**3 - A * X + N
        assert p.shift_x(0) is p

    def test_rational_shift(self):
        assert (X**2).shift_x(half) == X**2 + X + Fraction(1, 4)

    def test_delta(self):
        assert (X**2).delta() == 2 * X + 1
        assert Poly.const(7).delta() == 0

    def test_nabla(self):
        assert (X**2).nabla() == 2 * X - 1
        assert Poly.const(7).nabla() == 0


def test_differences_never_call_shift_x(monkeypatch):
    # the lowering lemma reads shift_x, so it must stay apart from the delta
    # that the chains and the lowering tag read
    def steps():
        chain = [charlier(12)]
        while chain[-1]:
            chain.append(chain[-1].delta())
        backward = [charlier(12)]
        for _ in range(3):
            backward.append(backward[-1].nabla())
        return chain, backward

    before = steps()

    def refuse(self, offset):
        raise AssertionError("shift_x called")

    monkeypatch.setattr(Poly, "shift_x", refuse)
    assert steps() == before


class TestInspection:
    def test_degree_in(self):
        assert (X**2 - A).degree_in(Var.X) == 2
        assert Poly().degree_in(Var.A) == -1
        a2 = -half * A * X**2 + (A**2 / 2 + 3 * A / 2 + 1) * X
        assert a2.degree_in(Var.A) == 2

    def test_coeff_of(self):
        assert (X**2 - 2 * A * X).coeff_of(Var.X, 1) == -2 * A
        assert (X**2).coeff_of(Var.X, 5) == 0
        assert (-X).coeff_of(Var.X, 1) == -1

    def test_constant_value(self):
        assert Poly().constant_value() == 0
        assert Poly.const(half).constant_value() == half
        with pytest.raises(ValueError):
            X.constant_value()

    def test_terms_are_graded_lex_descending(self):
        p = X + A * X + X**2 + 1
        exps = [e for e, _ in p.terms()]
        assert exps == [(2, 0, 0), (1, 1, 0), (1, 0, 0), (0, 0, 0)]


class TestRendering:
    def test_zero(self):
        assert str(Poly()) == "0"

    def test_linear(self):
        assert str(X - A) == "x - a"

    def test_constant_tail(self):
        assert str(A + 2) == "a + 2"

    def test_fraction_coefficients(self):
        p = -half * A * X**2 + half * A**2 * X + Fraction(3, 2) * A * X + X
        assert str(p) == "-1/2*a*x^2 + 1/2*a^2*x + 3/2*a*x + x"

    def test_mass_variable(self):
        assert str(N * X + X - A) == "N*x + x - a"

    def test_repr_roundtrip_info(self):
        assert repr(X - A) == "Poly('x - a')"


@settings(deadline=None)
@given(polys, polys)
def test_addition_commutes(p, q):
    assert p + q == q + p


@settings(deadline=None)
@given(polys, polys)
def test_multiplication_commutes(p, q):
    assert p * q == q * p


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys)
def test_addition_associates(p, q, r):
    assert (p + q) + r == p + (q + r)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys)
def test_multiplication_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@settings(deadline=None, max_examples=60)
@given(polys, polys, polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(deadline=None)
@given(polys)
def test_structural_equality_is_zero_difference(p):
    q = Poly(dict(p.terms()))
    assert q == p and not (q - p)


@settings(deadline=None)
@given(polys)
def test_delta_nabla_commute(p):
    assert p.delta().nabla() == p.nabla().delta()


@settings(deadline=None)
@given(polys)
def test_delta_lowers_x_degree_by_one(p):
    d = p.degree_in(Var.X)
    if d >= 1:
        assert p.delta().degree_in(Var.X) == d - 1


@settings(deadline=None)
@given(polys, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_shift_roundtrip(p, c):
    assert p.shift_x(c).shift_x(-c) == p


@settings(deadline=None)
@given(polys)
def test_negate_var_involution(p):
    for v in Var:
        assert p.negate_var(v).negate_var(v) == p


@settings(deadline=None)
@given(polys)
def test_rendering_is_reconstructible(p):
    assert str(Poly(dict(p.terms()))) == str(p)

"""Every entry point that takes a number takes it exactly.

An int or a Fraction is accepted; a float is a TypeError everywhere, as it
already was for the ring operators, instead of silently becoming the
Fraction of its binary expansion.
"""

from fractions import Fraction

import pytest

from charlier.classical import binom_rational, charlier_at, laguerre, shift_identity_residual
from charlier.polynomials import Poly, Var, X, sum_products

ENTRY_POINTS = {
    "const": lambda v: Poly.const(v),
    "constructor": lambda v: Poly({(1, 0, 0): v}),
    "shift_x": lambda v: X.shift_x(v),
    "substitute": lambda v: X.substitute(Var.X, v),
    "substitute_zero": lambda v: Poly().substitute(Var.X, v),
    "evaluate_x": lambda v: X.evaluate(x=v),
    "evaluate_a": lambda v: X.evaluate(a=v),
    "evaluate_n": lambda v: X.evaluate(n=v),
    "mul": lambda v: X * v,
    "rmul": lambda v: v * X,
    "add": lambda v: X + v,
    "sub": lambda v: X - v,
    "rsub": lambda v: v - X,
    "truediv": lambda v: X / v,
    "binom_rational": lambda v: binom_rational(v, 2),
    "charlier_at": lambda v: charlier_at(2, v),
    "laguerre_alpha": lambda v: laguerre(2, v, Var.A),
    "shift_identity_residual": lambda v: shift_identity_residual(2, v),
    "sum_products": lambda v: sum_products([(X, X), (X, v)]),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("value", [0.5, 0.1, 2.0])
def test_float_is_a_type_error(name, value):
    with pytest.raises(TypeError):
        ENTRY_POINTS[name](value)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("value", [2, Fraction(1, 2)])
def test_exact_numbers_are_accepted(name, value):
    ENTRY_POINTS[name](value)


@pytest.mark.parametrize("name", ["binom_rational", "charlier_at"])
def test_a_cached_value_is_not_read_by_an_equal_float(name):
    ENTRY_POINTS[name](2)
    with pytest.raises(TypeError):
        ENTRY_POINTS[name](2.0)


def test_exact_values_are_unchanged():
    assert Poly.const(Fraction(1, 10)).constant_value() == Fraction(1, 10)
    assert X.shift_x(Fraction(1, 2)) == X + Fraction(1, 2)
    assert (X * X).evaluate(x=Fraction(1, 3)) == Fraction(1, 9)
    assert binom_rational(Fraction(1, 2), 2) == Fraction(-1, 8)
    assert not shift_identity_residual(4, Fraction(1, 2))

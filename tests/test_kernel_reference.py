"""The integer kernel of Poly against the Fraction-per-term reference.

Every operation is run on the same random operands in both representations;
the results must agree on ``terms()``, ``str()``, ``==`` and ``hash``.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlier import polynomials
from charlier.classical import charlier
from charlier.polynomials import EXPONENT_LIMIT, A, N, Poly, Var, X, horner_x, sum_products
from reference_poly import RefPoly
from strategies import coefficients, term_maps

pairs = term_maps.map(lambda t: (Poly(t), RefPoly(t)))
scalars = st.one_of(st.integers(min_value=-6, max_value=6), coefficients)
# a Poly or a scalar factor, with its reference
factors = st.one_of(pairs, pairs, scalars.map(lambda c: (c, c)))
points = st.fractions(min_value=-3, max_value=3, max_denominator=5)

SHIFTS = (1, -1, -2, Fraction(1, 2), Fraction(-3, 5))
SUBSTITUTIONS = (0, -1, -2, Fraction(1, 3))


def assert_same(p: Poly, r: RefPoly) -> None:
    assert p.terms() == r.terms()
    assert str(p) == str(r)
    assert hash(p) == hash(r)


@settings(deadline=None)
@given(pairs, pairs)
def test_ring_operations(left, right):
    (p, r), (q, s) = left, right
    assert_same(p + q, r + s)
    assert_same(p - q, r - s)
    assert_same(p * q, r * s)
    assert_same(-p, -r)
    assert (p == q) == (r == s)
    assert (p - q == 0) == (r - s == 0)


@settings(deadline=None)
@given(pairs, scalars)
def test_scalar_operations(pair, c):
    p, r = pair
    assert_same(p + c, r + c)
    assert_same(c + p, c + r)
    assert_same(p - c, r - c)
    assert_same(c - p, c - r)
    assert_same(p * c, r * c)
    assert_same(c * p, c * r)
    if c:
        assert_same(p / c, r / c)
    assert (p == c) == (r == c)


@settings(deadline=None, max_examples=60)
@given(pairs, st.integers(min_value=0, max_value=3))
def test_powers(pair, k):
    p, r = pair
    assert_same(p**k, r**k)


# one-term bases: each variable alone and one mixed monomial, with
# coefficients 1, negative and fractional
MONOMIALS = [
    {(1, 0, 0): 1}, {(0, 1, 0): -1}, {(0, 0, 1): Fraction(2, 3)},
    {(2, 1, 1): Fraction(-5, 4)}, {(0, 3, 0): 1}, {(0, 0, 0): Fraction(-3, 2)},
]


@pytest.mark.parametrize("terms", MONOMIALS, ids=str)
def test_one_term_powers(terms, monkeypatch):
    # a one-term base is raised directly, never through a product
    products = []
    real = polynomials.sum_products
    monkeypatch.setattr(polynomials, "sum_products",
                        lambda pairs: products.append(pairs) or real(pairs))
    for k in range(7):
        assert_same(Poly(terms) ** k, RefPoly(terms) ** k)
    assert products == []


def test_one_term_power_reaching_the_exponent_limit_is_rejected():
    top = EXPONENT_LIMIT // 2
    with pytest.raises(ValueError):
        Poly({(0, 2, 0): Fraction(-1, 3)}) ** top
    with pytest.raises(ValueError):
        Poly({(1, 0, 1): 1}) ** EXPONENT_LIMIT
    assert (A**2) ** (top - 1) == Poly({(0, EXPONENT_LIMIT - 2, 0): 1})


def assert_same_calculus(p: Poly, r: RefPoly) -> None:
    for offset in SHIFTS:
        assert_same(p.shift_x(offset), r.shift_x(offset))
    assert_same(p.delta(), r.delta())
    assert_same(p.nabla(), r.nabla())


@settings(deadline=None)
@given(pairs)
def test_difference_calculus(pair):
    assert_same_calculus(*pair)


# members of the family and their shifts: dense rows up to x-degree 33, and in
# the last one rows of different lengths and an N part
DEEP = {
    "charlier": charlier,
    "shifted": lambda n: charlier(n).shift_x(-1),
    "with-N": lambda n: charlier(n) + N * X ** (n + 3) / 7,
}


@pytest.mark.parametrize("n", range(31))
@pytest.mark.parametrize("member", sorted(DEEP))
def test_difference_calculus_on_deep_rows(member, n):
    p = DEEP[member](n)
    assert_same_calculus(p, RefPoly(dict(p.terms())))


@settings(deadline=None)
@given(pairs, points, points, points)
def test_substitution_and_inspection(pair, x, a, n):
    p, r = pair
    for v in Var:
        for value in SUBSTITUTIONS:
            assert_same(p.substitute(v, value), r.substitute(v, value))
        for k in range(4):
            assert_same(p.coeff_of(v, k), r.coeff_of(v, k))
        assert_same(p.negate_var(v), r.negate_var(v))
        assert p.degree_in(v) == r.degree_in(v)
    assert p.evaluate(x, a, n) == r.evaluate(x, a, n)
    assert type(p.evaluate(x, a, n)) is Fraction


@settings(deadline=None)
@given(st.lists(st.tuples(factors, factors), max_size=4))
def test_sum_of_products(products):
    result = sum_products((p, q) for (p, _), (q, _) in products)
    expected = RefPoly()
    for (_, r), (_, s) in products:
        expected = expected + r * s
    assert_same(result, expected)
    assert result == sum((p * q for (p, _), (q, _) in products), Poly())
    assert (result == 0) == (expected == 0)


def test_sum_of_products_cancels_to_canonical_zero():
    zero = sum_products([(X / 3, A / 2), (X, A * Fraction(-1, 6)), (2, Fraction(-1, 2)), (1, 1)])
    assert (zero._terms, zero._den) == ({}, 1)
    assert zero == Poly() and str(zero) == "0" and hash(zero) == hash(0)
    assert (sum_products([])._terms, sum_products([])._den) == ({}, 1)


def test_sum_of_products_rejects_exponent_overflow():
    top = Poly({(EXPONENT_LIMIT - 1, 0, 0): 1})
    with pytest.raises(ValueError):
        sum_products([(A, A), (top, X)])


@settings(deadline=None)
@given(st.lists(st.tuples(pairs, st.tuples(scalars, scalars)), max_size=4), pairs)
def test_horner_in_x(steps, last):
    # P_0 + f_1 (P_1 + ... + f_m P_m) with f_r = c_r + d_r x, nested in RefPoly
    result = horner_x([p for (p, _), _ in steps] + [last[0]], [f for _, f in steps])
    expected = last[1]
    for (_, r), (c, d) in reversed(steps):
        expected = r + (RefPoly.variable(Var.X) * d + c) * expected
    assert_same(result, expected)


def test_horner_rejects_exponent_overflow():
    top = Poly({(EXPONENT_LIMIT - 1, 0, 0): 1})
    with pytest.raises(ValueError):
        horner_x([A, top], [(1, 1)])
    with pytest.raises(ValueError):
        horner_x([A, top], [(0, Fraction(-1, 3))])
    # the step's x^LIMIT term is formed, though it cancels in the next one
    below = Poly({(EXPONENT_LIMIT - 2, 0, 0): 1})
    with pytest.raises(ValueError):
        horner_x([A, -top, below], [(0, 1), (0, 1)])
    assert horner_x([A, top], [(3, 0)]) == A + 3 * top
    with pytest.raises(ValueError):
        horner_x([A], [(1, 1)])

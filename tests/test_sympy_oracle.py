"""Independent oracle: the closed forms rebuilt from their definitions in sympy.

Nothing here calls the library to build a reference.  The Charlier family
comes from its generating function exp(-a t) (1 + t)^x, the moments from
sympy's Bell (Touchard) polynomials, the point-mass family from the moment
determinant of the inner product <f, g> + N f(0) g(0), and the operator from
sympy's own shifts.  Each result is compared with the library's through
``Poly.terms()``.  The module is skipped when sympy is not installed.
"""

from fractions import Fraction
from functools import cache

import pytest

sp = pytest.importorskip("sympy")

from charlier.classical import charlier, moment  # noqa: E402
from charlier.diffeq import coeff_a0, coeff_ai  # noqa: E402
from charlier.pointmass import gen_charlier  # noqa: E402

x, a, N, t = sp.symbols("x a N t")
GENS = (x, a, N)


def terms_of(expr) -> dict:
    """Exponent triple (x, a, N) -> Fraction, the form ``Poly.terms()`` uses."""
    poly = sp.Poly(sp.expand(expr), *GENS)
    return {
        monom: Fraction(int(c.p), int(c.q)) for monom, c in poly.terms() if c != 0
    }


@cache
def sympy_charlier(n: int):
    """The n-th t-derivative of exp(-a t) (1 + t)^x at t = 0, over n!."""
    if n < 0:
        return sp.Integer(0)
    derivative = sp.diff(sp.exp(-a * t) * (1 + t) ** x, t, n)
    return sp.expand(derivative.subs(t, 0) / sp.factorial(n))


@cache
def sympy_mirror(n: int):
    """C_n(1 - x; -a), the t^n coefficient of exp(a t) (1 + t)^(1 - x)."""
    return sympy_charlier(n).subs({x: 1 - x, a: -a}, simultaneous=True)


def delta(f):
    return sp.expand(f.subs(x, x + 1) - f)


def nabla(f):
    return sp.expand(f - f.subs(x, x - 1))


@cache
def sympy_ai(i: int):
    """sum_{k=1}^{i} (-1)^k C_{i-k}(1 - x; -a) [C_k(-1) C_k(x-2) - C_k(-2) C_k(x-1)]."""
    total = sp.Poly(0, x, a)
    for k in range(1, i + 1):
        ck = sympy_charlier(k)
        bracket = ck.subs(x, -1) * ck.subs(x, x - 2) - ck.subs(x, -2) * ck.subs(x, x - 1)
        total += (-1) ** k * sp.Poly(sympy_mirror(i - k), x, a) * sp.Poly(bracket, x, a)
    return total.as_expr()


def sympy_a0(n: int):
    """(-1)^(n-1) C_{n-1}(-2); zero at n = 0."""
    return sp.expand((-1) ** (n - 1) * sympy_charlier(n - 1).subs(x, -2))


def sympy_gen_charlier(n: int):
    """Moment determinant: orthogonal to 1, x, ..., x^(n-1) under
    <f, g> + N f(0) g(0), whose moments are bell(j + k, a) + N [j + k = 0]."""
    rows = [
        [sp.bell(j + k, a) + (N if j + k == 0 else 0) for k in range(n + 1)]
        for j in range(n)
    ]
    rows.append([x**k for k in range(n + 1)])
    return sp.expand(sp.Matrix(rows).det())


@pytest.mark.parametrize("n", range(6))
def test_charlier_and_laguerre_connection(n):
    expected = sympy_charlier(n)
    assert dict(charlier(n).terms()) == terms_of(expected)
    assert sp.expand(sp.assoc_laguerre(n, x - n, a) - expected) == 0


@pytest.mark.parametrize("k", range(9))
def test_moments_are_bell_polynomials(k):
    assert dict(moment(k).terms()) == terms_of(sp.bell(k, a))


@pytest.mark.parametrize("i", range(1, 5))
def test_coefficients(i):
    assert dict(coeff_ai(i).terms()) == terms_of(sympy_ai(i))
    assert dict(coeff_a0(i).terms()) == terms_of(sympy_a0(i))


def equation(y, n: int):
    """N sum_{i=0}^{n} a_i Delta^i y + x Delta Nabla y + (a - x) Delta y + n y."""
    mass, power = sympy_a0(n) * y, y
    for i in range(1, n + 1):
        power = delta(power)
        mass += sympy_ai(i) * power
    return sp.expand(N * mass + x * delta(nabla(y)) + (a - x) * delta(y) + n * y)


@pytest.mark.parametrize("n", range(5))
def test_difference_equation_expands_to_zero(n):
    gen = sum(
        sp.Rational(c.numerator, c.denominator) * x**ex * a**ea * N**en
        for (ex, ea, en), c in gen_charlier(n).terms()
    )
    assert equation(gen, n) == 0
    # The library's member spans the line of the moment determinant.
    y = sympy_gen_charlier(n)
    assert sp.degree(y, x) == n
    assert sp.expand(y * sp.Poly(gen, x).LC() - gen * sp.Poly(y, x).LC()) == 0
    assert equation(y, n) == 0


@pytest.mark.parametrize("i", range(1, 13))
def test_consecutive_leading_coefficients_share_only_a_power_of_a(i):
    # The library certifies this through its own Euclid on Poly; here sympy
    # takes the gcd of the x^i and x^(i+1) coefficients of its own a_i, a_(i+1).
    lead, lead_next = (sympy_ai(j).coeff(x, j) for j in (i, i + 1))
    assert lead != 0 and lead_next != 0
    assert len(sp.Poly(sp.gcd(lead, lead_next), a).terms()) == 1

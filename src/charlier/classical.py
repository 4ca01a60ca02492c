"""The classical Charlier family and its identity toolbox.

``charlier(n)`` is the degree-n orthogonal polynomial for the Poisson-type
weight with parameter a, normalized so the leading x-coefficient is 1/n!.
The index -1 is legal and names the zero polynomial, which keeps the
recurrences used downstream free of special cases.

Alongside the family itself this module carries the helpers everything else
leans on: the Laguerre polynomials with a symbolic parameter, the moment
functional of the weight (Stirling-number closed form), and exact checks of
the classical identities (degree lowering, the second order difference
equation, the convolution identity, shift expansions, value formulas).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Sequence

from .polynomials import A, Poly, RationalLike, Var, X, _rational, parity_sign, sum_products


# binom(x, k) for k < len(_BINOMIALS), extended upward by binom_poly.
_BINOMIALS = [Poly.const(1)]


def binom_poly(k: int) -> Poly:
    """binom(x, k) as the falling-factorial polynomial x(x-1)...(x-k+1)/k!.

    The basis is built once, upward from binom(x, 0) = 1 by
    binom(x, j) = binom(x, j-1) * (x-j+1)/j, in a loop, so no k recurses.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    basis = _BINOMIALS
    while len(basis) <= k:
        j = len(basis)
        basis.append(basis[-1] * (X - (j - 1)) / j)
    return basis[k]


def binom_rational(p: RationalLike, k: int) -> Fraction:
    """binom(p, k) for arbitrary rational p: binom_poly(k) at x = p."""
    return binom_poly(k).substitute(Var.X, p).constant_value()


@cache
def charlier(n: int) -> Poly:
    """Degree-n member of the family; n = -1 gives the zero polynomial.

    charlier(n) = sum_{k=0}^{n} binom(x, k) (-a)^(n-k) / (n-k)!.
    """
    if n < -1:
        raise ValueError("index must be >= -1")
    if n == -1:
        return Poly()
    return sum_products(
        (binom_poly(k), A ** (n - k) * Fraction(parity_sign(n - k), factorial(n - k)))
        for k in range(n + 1)
    )


def charlier_mirror(n: int) -> Poly:
    """charlier(n) with both the parameter a and the argument x negated."""
    return charlier(n).negate_var(Var.A).negate_var(Var.X)


def value_at_zero(n: int) -> Poly:
    """Closed form of charlier(n) at x = 0: (-a)^n / n!."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return A**n * Fraction(parity_sign(n), factorial(n))


def value_at_minus_one(n: int) -> Poly:
    """Closed form at x = -1: (-1)^n times the partial sum of a^k/k!, k <= n."""
    if n < 0:
        raise ValueError("index must be >= 0")
    s = parity_sign(n)
    return Poly({(0, k, 0): Fraction(s, factorial(k)) for k in range(n + 1)})


def laguerre(n: int, alpha: Poly | RationalLike, t: Var) -> Poly:
    """Degree-n Laguerre polynomial in the variable t with parameter alpha.

    alpha may be any polynomial not involving t, so connection formulas with
    a polynomial parameter stay exact.  The t^k term is (-1)^k t^k / (k! (n-k)!)
    times (alpha+k+1)...(alpha+n), one rising product built from k = n down.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if not isinstance(alpha, Poly):
        alpha = Poly.const(alpha)
    if alpha.degree_in(t) > 0:
        raise ValueError("alpha must not involve t")
    tv = Poly.variable(t)
    rising = Poly.const(1)
    pairs = [(rising, tv**n * Fraction(parity_sign(n), factorial(n)))]
    for k in range(n - 1, -1, -1):
        rising = rising * (alpha + (k + 1))
        pairs.append((rising, tv**k * Fraction(parity_sign(k), factorial(k) * factorial(n - k))))
    return sum_products(pairs)


# -- identity checks ---------------------------------------------------------


def verify_laguerre_relation(n: int) -> bool:
    """charlier(n) equals the Laguerre polynomial in a with parameter x - n."""
    return charlier(n) == laguerre(n, X - n, Var.A)


def verify_lowering(n: int) -> bool:
    """The forward difference sends charlier(n) to charlier(n-1)."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return charlier(n).delta() == charlier(n - 1)


def second_order_residual(n: int) -> Poly:
    """a*y(x+1) + (n-a-x)*y(x) + x*y(x-1) at y = charlier(n); identically zero."""
    y = charlier(n)
    return A * y.shift_x(1) + (n - A - X) * y + X * y.shift_x(-1)


def verify_second_order(n: int) -> bool:
    return not second_order_residual(n)


def shift_identity_residual(n: int, p: RationalLike) -> Poly:
    """charlier(n) at x + p minus its expansion sum binom(p, k) charlier(n-k)."""
    p = _rational(p)
    rhs = sum_products((charlier(n - k), binom_rational(p, k)) for k in range(n + 1))
    return charlier(n).shift_x(p) - rhs


def verify_shift_identity(n: int, p: RationalLike) -> bool:
    return not shift_identity_residual(n, p)


def convolution_residual(i: int, j: int) -> Poly:
    """sum_k charlier(i-k) * charlier_mirror(k-j), minus the Kronecker delta."""
    if not 0 <= j <= i:
        raise ValueError("need 0 <= j <= i")
    total = sum_products((charlier(i - k), charlier_mirror(k - j)) for k in range(j, i + 1))
    return total - (1 if i == j else 0)


def verify_convolution(i: int, j: int) -> bool:
    return not convolution_residual(i, j)


def verify_inverse_matrix(n: int) -> bool:
    """The unit triangular matrices with entries charlier(i-j) and
    charlier_mirror(i-j) multiply to the identity: entry (i, j <= i) is
    convolution_residual(i, j) + delta_ij, and above the diagonal it is 0."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return all(not convolution_residual(i, j) for i in range(n) for j in range(i + 1))


def verify_value_formulas(n: int) -> bool:
    """Substitution into charlier(n) reproduces both closed-form values."""
    cn = charlier(n)
    return cn.substitute(Var.X, 0) == value_at_zero(n) and cn.substitute(
        Var.X, -1
    ) == value_at_minus_one(n)


def verify_value_difference(n: int) -> bool:
    """C_n(0) - C_n(-1) equals C_{n-1}(-1), as polynomials in a."""
    if n < 1:
        raise ValueError("index must be >= 1")
    cn = charlier(n)
    lhs = cn.substitute(Var.X, 0) - cn.substitute(Var.X, -1)
    return lhs == charlier(n - 1).substitute(Var.X, -1)


# -- the moment functional ---------------------------------------------------


def stirling2_row(k: int) -> list[int]:
    """S(k, j) for j = 0..k, built row by row from S(0, 0) = 1."""
    row = [1]
    for _ in range(k):
        row = [j * s + t for j, (s, t) in enumerate(zip(row + [0], [0] + row))]
    return row


def stirling2(k: int, j: int) -> int:
    """Partitions of a k-set into j nonempty blocks."""
    return stirling2_row(k)[j] if 0 <= j <= k else 0


@cache
def moment(k: int) -> Poly:
    """k-th moment of the unit-mass Poisson-type weight, as a polynomial in a."""
    if k < 0:
        raise ValueError("moment order must be >= 0")
    return Poly({(0, j, 0): s for j, s in enumerate(stirling2_row(k))})


def moments_of(q: Poly, size: int) -> list[Poly]:
    """The moment vector of q: the pairings <x^j, q> for j < size.

    Entry j sends the x^k coefficient of q to moment(j + k), so pairing any p
    of x-degree below size with q is a dot product with this vector.
    """
    columns = [q.coeff_of(Var.X, k) for k in range(q.degree_in(Var.X) + 1)]
    return [
        sum_products((c, moment(j + k)) for k, c in enumerate(columns))
        for j in range(size)
    ]


def dot_moments(p: Poly, vector: Sequence[Poly]) -> Poly:
    """<p, q> from the moment vector of q: sum_j [x^j]p * vector[j]."""
    return sum_products(
        (p.coeff_of(Var.X, j), vector[j]) for j in range(p.degree_in(Var.X) + 1)
    )


def inner_product_classical(p: Poly, q: Poly) -> Poly:
    """Bilinear moment functional sending x^k to moment(k), evaluated as the
    dot product of p's x-coefficients with the moment vector of q."""
    return dot_moments(p, moments_of(q, p.degree_in(Var.X) + 1))


@cache
def moment_vector(n: int) -> tuple[Poly, ...]:
    """<x^j, charlier(n)> for j = 0..n."""
    return tuple(moments_of(charlier(n), n + 1))


def orthogonality_residual(m: int, n: int) -> Poly:
    """inner product of charlier(m), charlier(n) minus its closed form,
    paired through the moment vector of the higher degree."""
    if m < 0 or n < 0:
        raise ValueError("indices must be >= 0")
    expected = A**n * Fraction(1, factorial(n)) if m == n else Poly()
    low, high = sorted((m, n))
    return dot_moments(charlier(low), moment_vector(high)) - expected

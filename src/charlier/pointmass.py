"""Charlier polynomials for the Poisson-type weight with a point mass at 0.

The modified inner product adds N f(0) g(0) to the moment functional of the
classical weight.  ``gen_charlier(n)`` is the degree-n polynomial orthogonal
for that inner product, carried with the mass size N as a ring indeterminate,
so orthogonality statements are zero-polynomial facts in (a, N) rather than
numeric spot checks.  Setting N = 0 recovers the classical family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial

from .classical import charlier, dot_moments, moments_of
from .classical import moment_vector as classical_moment_vector
from .polynomials import N, Poly, Var, parity_sign, sum_products


@cache
def gen_weights(n: int) -> tuple[Poly, Poly]:
    """The weights (scale, offset) of gen_charlier(n) = scale C_n(x) - offset C_n(x-1).

    scale = 1 + N (-1)^n C_n(-1) and offset = N (-1)^n C_n(0), with
    C_n = charlier(n).  Both are polynomials in (a, N) free of x, which is
    what lets every x-linear functional of gen_charlier(n) be read off the
    same functional of the two classical pieces.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    cn = charlier(n)
    s = parity_sign(n)
    return 1 + N * cn.substitute(Var.X, -1) * s, N * cn.substitute(Var.X, 0) * s


@cache
def shifted_charlier(n: int) -> Poly:
    """C_n(x-1), the second classical piece of gen_charlier(n)."""
    return charlier(n).shift_x(-1)


@cache
def gen_charlier(n: int) -> Poly:
    """Degree-n member of the point-mass family, affine in N.

    gen_charlier(n) = scale C_n(x) - offset C_n(x-1) with the x-free weights
    (scale, offset) = gen_weights(n), fixed by the two orthogonality
    conditions the classical family does not already grant.
    """
    scale, offset = gen_weights(n)
    return sum_products([(scale, charlier(n)), (-offset, shifted_charlier(n))])


def alternative_form_residual(n: int) -> Poly:
    """Rewriting of gen_charlier(n) through the forward difference of the
    shifted polynomial; must agree with the direct construction."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    cn = charlier(n)
    s = parity_sign(n)
    scale = 1 - N * charlier(n - 1).substitute(Var.X, -1) * s
    alt = scale * cn + N * cn.substitute(Var.X, 0) * s * shifted_charlier(n).delta()
    return alt - gen_charlier(n)


def verify_alternative_form(n: int) -> bool:
    return not alternative_form_residual(n)


def _general_moments(q: Poly, size: int) -> list[Poly]:
    """<x^j, q> under the point-mass inner product for j < max(size, 1).

    Only the constant test function sees the mass, so N q(0) enters entry 0
    alone.
    """
    vector = moments_of(q, max(size, 1))
    vector[0] = vector[0] + N * q.substitute(Var.X, 0)
    return vector


def inner_product_general(p: Poly, q: Poly) -> Poly:
    """Moment functional of the classical weight plus the mass term N p(0) q(0)."""
    return dot_moments(p, _general_moments(q, p.degree_in(Var.X) + 1))


@cache
def moment_vector(n: int) -> tuple[Poly, ...]:
    """<x^j, gen_charlier(n)> under the point-mass inner product, j = 0..n.

    By linearity in the x-free weights of gen_weights(n), the classical part
    is scale * classical.moment_vector(n) - offset * (moments of C_n(x-1));
    the mass term N gen_charlier(n)(0) enters entry 0 alone.
    """
    scale, offset = gen_weights(n)
    shifted = moments_of(shifted_charlier(n), n + 1)
    vector = [
        sum_products([(scale, c), (-offset, t)])
        for c, t in zip(classical_moment_vector(n), shifted)
    ]
    vector[0] = vector[0] + N * gen_charlier(n).substitute(Var.X, 0)
    return tuple(vector)


def orthogonality_residual(m: int, n: int) -> Poly:
    """inner_product_general of two distinct family members; identically zero."""
    if not 0 <= m < n:
        raise ValueError("need 0 <= m < n")
    return dot_moments(gen_charlier(m), moment_vector(n))


def verify_orthogonality(m: int, n: int) -> bool:
    return not orthogonality_residual(m, n)


def verify_construction_steps(n: int) -> bool:
    """The linear conditions that pin down gen_charlier(n).

    (a) for n >= 2, gen_charlier(n) is orthogonal to x * x^j for j <= n-2,
        read off its moment vector (the mass term drops out since the test
        function vanishes at 0);
    (b) for n >= 1, the weights of gen_weights(n) satisfy the remaining
        constant-function condition.
    Degrees 0 and 1 make part (a) vacuous and pass trivially.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    moments = moment_vector(n)
    for j in range(n - 1):
        if moments[j + 1]:
            return False
    if n >= 1:
        cn = charlier(n)
        scale, offset = gen_weights(n)
        at_zero = cn.substitute(Var.X, 0)
        at_minus_one = cn.substitute(Var.X, -1)
        if N * scale * at_zero - (parity_sign(n) + N * at_minus_one) * offset:
            return False
    return True


def norm_general(n: int) -> Poly:
    """Squared norm of gen_charlier(n) under the point-mass inner product.

    Nonzero as a polynomial in (a, N); its N = 0 slice is a^n / n!.
    """
    return dot_moments(gen_charlier(n), moment_vector(n))


def norm_classical_slice(n: int) -> Poly:
    """The expected N = 0 slice of norm_general(n)."""
    return Poly.variable(Var.A) ** n * Fraction(1, factorial(n))

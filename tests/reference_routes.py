"""Reference routes for the tests: operators, inner products, the Charlier
family and the coefficient family the slow way.

These are the straightforward forms that the shared-work layers replaced:
each operator term builds its own Nabla^m then Delta^d of the argument, an
inner product forms the full product p*q and reads its x-coefficients off one
by one, charlier(n) rebuilds every binom(x, k) from k linear factors,
a_i rebuilds every front and bracket of its convolution, a bracket sum
multiplies out every binomial front, and every functional of gen_charlier(n)
is taken of gen_charlier(n) itself rather than of its two classical pieces.
They are slow and obviously right, and the tests require the library routes
to match them exactly.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from charlier import diffeq
from charlier.classical import binom_poly, charlier, charlier_mirror, moment
from charlier.diffeq import (
    CoeffProvider,
    DiffOperator,
    DifferenceChain,
    classical_operator,
    classical_series_operator,
    mass_operator,
)
from charlier.pointmass import gen_charlier
from charlier.polynomials import A, N, Poly, Var, X, parity_sign


def reference_apply(op: DiffOperator, y: Poly) -> Poly:
    """Sum of coeff * Delta^d Nabla^m y, every term from y afresh."""
    out = Poly()
    for term in op.terms:
        z = y
        for _ in range(term.nabla_order):
            z = z.nabla()
        for _ in range(term.delta_order):
            z = z.delta()
        out = out + term.coeff * z
    return out


def reference_inner_product_classical(p: Poly, q: Poly) -> Poly:
    """Expand p*q in x and send x^k to moment(k)."""
    product = p * q
    total = Poly()
    for k in range(product.degree_in(Var.X) + 1):
        total = total + product.coeff_of(Var.X, k) * moment(k)
    return total


def reference_inner_product_general(p: Poly, q: Poly) -> Poly:
    """The classical functional plus the mass term N p(0) q(0)."""
    mass = N * p.substitute(Var.X, 0) * q.substitute(Var.X, 0)
    return reference_inner_product_classical(p, q) + mass


def reference_binom_poly(k: int) -> Poly:
    """x(x-1)...(x-k+1)/k!, from its k linear factors."""
    out = Poly.const(Fraction(1, factorial(k)))
    for j in range(k):
        out = out * (X - j)
    return out


def reference_charlier(n: int) -> Poly:
    """sum_k binom(x, k) (-a)^(n-k)/(n-k)!, every binomial built afresh."""
    total = Poly()
    for k in range(n + 1):
        total = total + reference_binom_poly(k) * A ** (n - k) * Fraction(
            parity_sign(n - k), factorial(n - k)
        )
    return total


def reference_coeff_ai(i: int) -> Poly:
    """sum_k charlier_mirror(i-k)(x-1) (-1)^k [C_k(-1) C_k(x-2) - C_k(-2) C_k(x-1)],
    the front and the bracket of every k rebuilt for this i."""
    total = Poly()
    for k in range(1, i + 1):
        front = charlier_mirror(i - k).shift_x(-1)
        ck = charlier(k)
        bracket = ck.substitute(Var.X, -1) * ck.shift_x(-2) - ck.substitute(
            Var.X, -2
        ) * ck.shift_x(-1)
        total = total + front * bracket * parity_sign(k)
    return total


def reference_bracket_sum(j: int) -> Poly:
    """sum_{k=1}^{j} binom(1-x, j-k) B_k, every binom(1-x, r) shifted from
    binom(-x, r) and multiplied out against the library's bracket B_k."""
    total = Poly()
    for k in range(1, j + 1):
        front = binom_poly(j - k).negate_var(Var.X).shift_x(-1)
        total = total + front * diffeq._bracket(k)
    return total


def reference_gen_charlier(n: int) -> Poly:
    """(1 + N s C_n(-1)) C_n(x) - N s C_n(0) C_n(x-1) with s = (-1)^n, the
    construction written out in one expression."""
    cn = charlier(n)
    s = parity_sign(n)
    scale = 1 + N * cn.substitute(Var.X, -1) * s
    offset = N * cn.substitute(Var.X, 0) * s
    return scale * cn - offset * cn.shift_x(-1)


def reference_point_mass_actions(n: int, coeffs: CoeffProvider) -> tuple[Poly, Poly, Poly]:
    """The degree-n mass action, the equation and the combined equation at
    gen_charlier(n), every operator applied to the chain of gen_charlier(n)."""
    chain = DifferenceChain(gen_charlier(n))
    mass = mass_operator(n, n, coeffs).apply(chain)
    equation = N * mass + classical_operator(n).apply(chain)
    combined = N * mass + classical_series_operator(n).apply(chain)
    return mass, equation, combined


def reference_point_mass_moments(n: int) -> list[Poly]:
    """<x^j, gen_charlier(n)> for j = 0..n, each from the full product."""
    return [reference_inner_product_general(X**j, gen_charlier(n)) for j in range(n + 1)]

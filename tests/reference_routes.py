"""Reference routes for the tests: operators and inner products the slow way.

These are the straightforward forms that the shared-work layers replaced:
each operator term builds its own Nabla^m then Delta^d of the argument, and an
inner product forms the full product p*q and reads its x-coefficients off one
by one.  They are slow and obviously right, and the property tests require
the library routes to match them exactly.
"""

from __future__ import annotations

from charlier.classical import moment
from charlier.diffeq import DiffOperator
from charlier.polynomials import N, Poly, Var


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

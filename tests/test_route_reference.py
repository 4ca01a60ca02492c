"""Shared-work routes against the straightforward reference routes.

Operators read one difference chain and inner products go through moment
vectors; both must give exactly what ``reference_routes`` gives.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charlier import classical as cl
from charlier import pointmass as pm
from charlier.diffeq import (
    DiffOperator,
    DifferenceChain,
    OperatorActions,
    backshift_operator,
    classical_operator,
    classical_series_operator,
)
from charlier.polynomials import Poly, Var, X
from reference_routes import (
    reference_apply,
    reference_inner_product_classical,
    reference_inner_product_general,
)
from strategies import polys

# Orders up to 4 reach past the x-degree 3 of the random arguments, so the
# skipped terms are exercised too.
orders = st.integers(min_value=0, max_value=4)
operators = st.lists(st.tuples(polys, orders, orders), max_size=6).map(DiffOperator)


@settings(deadline=None)
@given(polys, polys)
def test_inner_products_match_full_product(p, q):
    assert cl.inner_product_classical(p, q) == reference_inner_product_classical(p, q)
    assert pm.inner_product_general(p, q) == reference_inner_product_general(p, q)


@settings(deadline=None)
@given(operators, polys)
def test_apply_matches_per_term_reference(op, y):
    assert op.apply(y) == reference_apply(op, y)


@settings(deadline=None)
@given(operators, operators, polys)
def test_operators_share_one_chain(first, second, y):
    chain = DifferenceChain(y)
    assert first.apply(chain) == reference_apply(first, y)
    assert second.apply(chain) == reference_apply(second, y)


@settings(deadline=None)
@given(polys)
def test_series_operators_match_their_closed_forms(y):
    degree = max(y.degree_in(Var.X), 0)
    assert backshift_operator(degree).apply(y) == y.shift_x(-1)
    # the series form of the classical operator agrees on x-degree <= n
    n = degree + 1
    assert classical_series_operator(n).apply(y) == classical_operator(n).apply(y)


@pytest.mark.parametrize("n", range(9))
def test_moment_vectors_are_inner_products(n):
    general, classical = pm.moment_vector(n), cl.moment_vector(n)
    assert len(general) == len(classical) == n + 1
    for j in range(n + 1):
        assert general[j] == pm.inner_product_general(X**j, pm.gen_charlier(n))
        assert classical[j] == cl.inner_product_classical(X**j, cl.charlier(n))


@pytest.mark.parametrize("n", range(7))
def test_mixed_differences_match_reference(n):
    actions = OperatorActions()
    for m in range(n + 2):
        for k in range(n + 2 - m):
            expected = reference_apply(DiffOperator([(Poly.const(1), k, m)]), cl.charlier(n))
            assert actions.mixed_difference(n, k, m) == expected

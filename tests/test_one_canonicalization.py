"""A sum of products is canonicalized once.

With its pieces built, a_i is one ``sum_products`` over monomial multiples
of the cached bracket sums, a bracket sum is one ``horner_x`` over the cached
brackets, and an operator with no backward difference applied to a built
chain is one ``sum_products`` over its terms: each makes exactly one
``Poly._make`` call, where a loop of ``total + p * q`` makes two per product.
"""

import pytest

from charlier import diffeq as dq
from charlier.classical import charlier
from charlier.polynomials import Poly


@pytest.fixture
def make_calls(monkeypatch):
    calls = []
    make = Poly._make

    def counting(terms, den):
        calls.append(den)
        return make(terms, den)

    monkeypatch.setattr(Poly, "_make", staticmethod(counting))
    return calls


@pytest.mark.parametrize("i", [1, 2, 7, 12])
def test_coefficient_is_one_canonicalization(i, make_calls):
    expected = dq.coeff_ai(i)  # builds (or finds) every piece a_i reads
    make_calls.clear()
    assert dq.coeff_ai.__wrapped__(i) == expected
    assert len(make_calls) == 1


@pytest.mark.parametrize("j", [1, 2, 7, 12, 20])
def test_bracket_sum_is_one_canonicalization(j, make_calls):
    expected = dq._bracket_sum(j)  # builds (or finds) every bracket it reads
    make_calls.clear()
    assert dq._bracket_sum.__wrapped__(j) == expected
    assert len(make_calls) == 1


OPERATORS = {
    "mass": lambda: dq.mass_operator(9, 9),
    "series": lambda: dq.classical_series_operator(9),
    "backshift": lambda: dq.backshift_operator(9),
}


@pytest.mark.parametrize("name", OPERATORS)
def test_forward_operator_is_one_canonicalization(name, make_calls):
    operator = OPERATORS[name]()
    assert not any(term.nabla_order for term in operator.terms)
    chain = dq.DifferenceChain(charlier(9))
    expected = operator.apply(chain)  # builds the chain's powers
    make_calls.clear()
    assert operator.apply(chain) == expected
    assert len(make_calls) == 1

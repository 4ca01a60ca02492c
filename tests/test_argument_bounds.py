"""Each library function rejects an argument below its bound by naming that
bound, not one that a lower call inside it happens to check."""

import re

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier.polynomials import Var, X

# the call, and the whole message of the ValueError it raises
BELOW_THE_BOUND = {
    "classical.value_at_zero": (lambda: cl.value_at_zero(-1), "index must be >= 0"),
    "classical.value_at_minus_one": (lambda: cl.value_at_minus_one(-1), "index must be >= 0"),
    "classical.laguerre": (lambda: cl.laguerre(-1, 0, Var.A), "degree must be >= 0"),
    "classical.verify_lowering": (lambda: cl.verify_lowering(-1), "index must be >= 0"),
    "classical.convolution_residual": (lambda: cl.convolution_residual(1, 2), "need 0 <= j <= i"),
    "classical.verify_inverse_matrix": (lambda: cl.verify_inverse_matrix(0),
                                        "matrix size must be >= 1"),
    "classical.verify_value_difference": (lambda: cl.verify_value_difference(0),
                                          "index must be >= 1"),
    "classical.moment": (lambda: cl.moment(-1), "moment order must be >= 0"),
    "classical.orthogonality_residual": (lambda: cl.orthogonality_residual(-1, 0),
                                         "indices must be >= 0"),
    "diffeq.DifferenceChain": (lambda: dq.DifferenceChain(X)[-1],
                               "difference orders must be nonnegative"),
    "diffeq.build_coeff_table": (lambda: dq.build_coeff_table(0), "max_i must be >= 1"),
    "diffeq.verify_degree_claims": (lambda: dq.verify_degree_claims(0), "order must be >= 1"),
    "diffeq.shifted_second_order_residual": (lambda: dq.shifted_second_order_residual(0),
                                             "index must be >= 1"),
    "diffeq.leading_x_closed_form": (lambda: dq.leading_x_closed_form(0), "order must be >= 1"),
    "diffeq.leading_x_laguerre_form": (lambda: dq.leading_x_laguerre_form(0),
                                       "order must be >= 1"),
    "diffeq.leading_x_laguerre_chain": (lambda: dq.leading_x_laguerre_chain(1),
                                        "chain form needs order >= 2"),
    "diffeq.forward_substitution_rhs": (lambda: dq.forward_substitution_rhs(0),
                                        "index must be >= 1"),
    "diffeq.solve_coefficients": (lambda: dq.solve_coefficients(0), "max_i must be >= 1"),
    # every action of a piece of degree n < 0 is refused by diffeq._piece
    "diffeq.mass_action_residual": (lambda: dq.mass_action_residual(-1), "degree must be >= 0"),
    "diffeq.mass_action_shifted_residual": (lambda: dq.mass_action_shifted_residual(-1),
                                            "degree must be >= 0"),
    "diffeq.mass_action_cross_residual": (lambda: dq.mass_action_cross_residual(-1),
                                          "degree must be >= 0"),
    "diffeq.apply_difference_equation": (lambda: dq.apply_difference_equation(-1),
                                         "degree must be >= 0"),
    "diffeq.classical_infinite_order_residual": (
        lambda: dq.classical_infinite_order_residual(-1), "degree must be >= 0"),
    "diffeq.combined_equation_residual": (lambda: dq.combined_equation_residual(-1),
                                          "degree must be >= 0"),
    "diffeq.mixed_difference-degree": (lambda: dq.OperatorActions().mixed_difference(-1, 0, 0),
                                       "degree must be >= 0"),
    "diffeq.mixed_difference-nabla-order": (
        lambda: dq.OperatorActions().mixed_difference(3, 0, -1),
        "difference orders must be nonnegative"),
    "pointmass.alternative_form_residual": (lambda: pm.alternative_form_residual(-1),
                                            "degree must be >= 0"),
    "pointmass.verify_construction_steps": (lambda: pm.verify_construction_steps(-1),
                                            "degree must be >= 0"),
    "polynomials.Poly.coeff_of": (lambda: X.coeff_of(Var.X, -1), "power must be nonnegative"),
}


@pytest.mark.parametrize("name", sorted(BELOW_THE_BOUND))
def test_an_argument_below_the_bound_names_the_bound(name):
    call, message = BELOW_THE_BOUND[name]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()

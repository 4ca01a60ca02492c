"""Difference operator, coefficient families and the equation itself."""

from fractions import Fraction

import pytest

from charlier.classical import charlier
from charlier.diffeq import (
    DiffOperator,
    OperatorActions,
    apply_difference_equation,
    backshift_residual,
    classical_infinite_order_residual,
    classical_operator,
    coeff_a0,
    coeff_ai,
    combined_equation_residual,
    forward_substitution_rhs,
    leading_x_closed_form,
    leading_x_coeff,
    leading_x_laguerre_chain,
    leading_x_laguerre_form,
    mass_action_cross_residual,
    mass_action_residual,
    mass_action_shifted_residual,
    shifted_second_order_residual,
    solve_coefficients,
    verify_backshift_expansion,
    verify_classical_infinite_order,
    verify_combined_equation,
    verify_degree_claims,
    verify_degree_escalation,
    verify_difference_equation,
    verify_leading_coprime,
    verify_leading_x,
    verify_mass_action,
    verify_mass_action_cross,
    verify_mass_action_shifted,
    verify_mixed_leading,
    verify_shifted_second_order,
    verify_uniqueness,
    _gcd_in_a,
)
from charlier.polynomials import A, Poly, Var, X, parity_sign
from test_mutants import without_top_x

half = Fraction(1, 2)

A2_EXPECTED = -half * A * X**2 + (A**2 / 2 + 3 * A / 2 + 1) * X


class TestOperator:
    def test_identity_term(self):
        op = DiffOperator([(Poly.const(1), 0, 0)])
        p = X**2 - A * X
        assert op.apply(p) == p

    def test_mixed_term(self):
        op = DiffOperator([(X, 1, 1)])
        assert op.apply(X**2) == 2 * X

    def test_classical_operator_annihilates(self):
        assert classical_operator(3).apply(charlier(3)) == 0

    def test_truncation_is_exact(self):
        op = DiffOperator([(X**5, 3, 0)])
        assert op.apply(X**2) == 0

    def test_like_orders_merge(self):
        op = DiffOperator([(X, 1, 0), (A - X, 1, 0)])
        assert len(op.terms) == 1
        assert op.terms[0].coeff == A

    def test_zero_coefficients_drop(self):
        op = DiffOperator([(X, 2, 1), (-X, 2, 1)])
        assert op.terms == ()

    def test_negative_orders_rejected(self):
        with pytest.raises(ValueError):
            DiffOperator([(X, -1, 0)])

    def test_mixed_differences_never_call_shift_x(self, monkeypatch):
        # Delta^d Nabla^m y is Nabla^m of a power of the chain of y, with no
        # shift back by m
        def steps():
            actions = OperatorActions()
            mixed = [actions.mixed_difference(12, k, m) for k in range(13) for m in range(13 - k)]
            return [classical_operator(n).apply(charlier(12)) for n in (12, 11)] + mixed

        before = steps()
        assert before[:2] == [0, -charlier(12)]

        def refuse(self, offset):
            raise AssertionError("shift_x called")

        monkeypatch.setattr(Poly, "shift_x", refuse)
        assert steps() == before


class TestCoefficients:
    def test_order_zero_values(self):
        assert coeff_a0(0) == 0
        assert coeff_a0(1) == 1
        assert coeff_a0(2) == 2 + A
        assert coeff_a0(3) == A**2 / 2 + 2 * A + 3

    def test_order_one(self):
        assert coeff_ai(1) == -X

    def test_order_two(self):
        assert coeff_ai(2) == A2_EXPECTED

    def test_order_three_structure(self):
        a3 = coeff_ai(3)
        assert a3.substitute(Var.X, 0) == 0
        assert a3.degree_in(Var.X) == 3
        assert a3.degree_in(Var.A) == 4
        assert a3.coeff_of(Var.X, 3) == A / 6 - A**2 / 12
        assert a3.coeff_of(Var.A, 4) == -X / 12

    @pytest.mark.parametrize("i", range(1, 9))
    def test_vanish_at_zero(self, i):
        assert coeff_ai(i).substitute(Var.X, 0) == 0

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            coeff_ai(0)
        with pytest.raises(ValueError):
            coeff_a0(-1)


class TestLeadingCoefficients:
    def test_first_orders(self):
        assert leading_x_coeff(1) == -1
        assert leading_x_coeff(2) == -A / 2
        assert leading_x_coeff(3) == A / 6 - A**2 / 12

    def test_closed_forms_small(self):
        assert leading_x_closed_form(2) == -A / 2
        assert leading_x_laguerre_form(1) == -1
        assert leading_x_laguerre_chain(2) == -A / 2

    @pytest.mark.parametrize("i", range(1, 9))
    def test_all_forms_agree(self, i):
        assert verify_leading_x(i)

    @pytest.mark.parametrize("i", [1, 2, 6])
    def test_degree_claims(self, i):
        assert verify_degree_claims(i)

    @pytest.mark.parametrize("i", range(1, 9))
    def test_degree_escalation(self, i):
        assert verify_degree_escalation(i)

    # dropped: the orders whose x^i part the provider leaves out of a_i
    @pytest.mark.parametrize("dropped,holds", [((3,), True), ((4,), True), ((3, 4), False)])
    def test_degree_escalation_reads_either_coefficient(self, dropped, holds):
        actions = OperatorActions(without_top_x(dropped)(coeff_ai))
        assert actions.verify_degree_escalation(3) == holds

    @pytest.mark.parametrize("i", range(1, 21))
    def test_no_shared_positive_root(self, i):
        assert verify_leading_coprime(i)

    def test_gcd_detects_common_roots(self):
        # (a^2 - 1) and (a - 1) share a root; (a - 3) does not
        assert _gcd_in_a(A**2 - 1, A - 1) == A - 1
        assert _gcd_in_a(A**2 - 1, A - 3) == 1

    def test_gcd_keeps_the_common_a_power(self):
        assert _gcd_in_a(A * (A - 1), A * (A + 2)) == A


class TestMassAction:
    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_at_x(self, n):
        assert verify_mass_action(n)

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_at_shifted_x(self, n):
        assert verify_mass_action_shifted(n)

    @pytest.mark.parametrize("n", [0, 2, 9])
    def test_cross_combination(self, n):
        assert verify_mass_action_cross(n)

    def test_degree_one_by_hand(self):
        # action on x - a: (x - a) + (-x) * 1 = -a, matching -a times one
        assert mass_action_residual(1) == Poly()
        assert mass_action_shifted_residual(1) == Poly()
        assert mass_action_cross_residual(1) == Poly()

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_shifted_second_order(self, n):
        assert verify_shifted_second_order(n)

    def test_shifted_second_order_hand_expansion(self):
        assert shifted_second_order_residual(1) == Poly()


class TestEquation:
    @pytest.mark.parametrize("n", [0, 1, 5, 12])
    def test_zero_polynomial(self, n):
        assert apply_difference_equation(n) == Poly()

    def test_verify_wrapper(self):
        assert verify_difference_equation(3)

    def test_corrupted_coefficient_breaks_it(self):
        bad = lambda i: -coeff_ai(i) if i == 1 else coeff_ai(i)
        assert apply_difference_equation(1, bad) != 0

    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_mass_layers_vanish_separately(self, n):
        lhs = apply_difference_equation(n)
        assert lhs.coeff_of(Var.N, 1) == 0
        assert lhs.coeff_of(Var.N, 2) == 0

    @pytest.mark.parametrize("n", [0, 1, 11])
    def test_classical_infinite_order(self, n):
        assert verify_classical_infinite_order(n)

    def test_classical_infinite_order_hand_expansion(self):
        assert classical_infinite_order_residual(1) == Poly()

    @pytest.mark.parametrize("n", [0, 1, 10])
    def test_combined_equation(self, n):
        assert verify_combined_equation(n)

    def test_combined_residual_zero(self):
        assert combined_equation_residual(4) == Poly()


class TestBackshift:
    def test_constant(self):
        assert verify_backshift_expansion(Poly.const(1))

    def test_square_by_hand(self):
        # x^2 - (2x + 1) + 2 equals (x - 1)^2
        assert backshift_residual(X**2) == Poly()

    def test_family_member(self):
        assert verify_backshift_expansion(charlier(5))


class TestUniqueness:
    def test_forward_substitution_first_order(self):
        assert solve_coefficients(1)[1] == -X

    @pytest.mark.parametrize("i_max", [1, 4, 8])
    def test_matches_closed_form(self, i_max):
        assert verify_uniqueness(i_max)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rhs_compact_rewriting(self, n):
        # the same right-hand side through the degree-n values alone
        cn = charlier(n)
        compact = (
            cn.substitute(Var.X, -1) * cn.shift_x(-2)
            - cn.substitute(Var.X, -2) * cn.shift_x(-1)
        ) * parity_sign(n)
        assert forward_substitution_rhs(n) == compact


class TestMixedLeading:
    def test_reflexive(self):
        assert verify_mixed_leading(3, 3, 5)

    def test_single_backward_step(self):
        assert verify_mixed_leading(1, 0, 2)

    def test_deep_mix(self):
        assert verify_mixed_leading(4, 2, 7)

    def test_bad_indices_rejected(self):
        with pytest.raises(ValueError):
            verify_mixed_leading(3, 4, 5)

"""The point-mass family read through its two classical pieces.

gen_charlier(n) = scale C_n(x) - offset C_n(x-1) with weights free of x, so
its mass action, both forms of the equation and its moment vector are
combinations of the same functionals of charlier(n) and of the one cached
C_n(x-1).  Each must equal the direct route exactly, also under a corrupt
coefficient provider, and a wrong shared piece must still fail the run.
"""

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier import verify
from charlier.classical import charlier
from charlier.diffeq import DifferenceChain, OperatorActions, coeff_ai
from charlier.polynomials import Var, X
from charlier.verify import SuiteSpec, run_suite
from reference_routes import (
    reference_gen_charlier,
    reference_point_mass_actions,
    reference_point_mass_moments,
)


def negated_a3(i):
    return -coeff_ai(i) if i == 3 else coeff_ai(i)


PROVIDERS = {"coeff_ai": coeff_ai, "negated_a3": negated_a3}


def assert_identical(got, expected):
    assert got == expected
    assert got.terms() == expected.terms()


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
@pytest.mark.parametrize("n", range(13))
def test_actions_match_direct_route(provider, n):
    coeffs = PROVIDERS[provider]
    actions = OperatorActions(coeffs)
    mass, equation, combined = reference_point_mass_actions(n, coeffs)
    assert_identical(actions.mass("generalized", n), mass)
    assert_identical(actions.equation(n), equation)
    assert_identical(actions.combined_equation_residual(n), combined)
    # the corrupt a_3 reaches the generalized action from degree 3 on
    if provider == "negated_a3" and n >= 3:
        assert mass != OperatorActions().mass("generalized", n)
        assert equation


@pytest.mark.parametrize("n", range(13))
def test_moment_vector_matches_direct_route(n):
    expected = reference_point_mass_moments(n)
    got = pm.moment_vector(n)
    assert len(got) == len(expected) == n + 1
    for entry, reference in zip(got, expected):
        assert_identical(entry, reference)


@pytest.mark.parametrize("n", range(21))
def test_gen_charlier_is_the_written_construction(n):
    assert_identical(pm.gen_charlier(n), reference_gen_charlier(n))
    # the route through the pieces is exact linearity only for x-free weights
    assert all(w.degree_in(Var.X) <= 0 for w in pm.gen_weights(n))


@pytest.fixture
def built_chains(monkeypatch):
    """The argument of every DifferenceChain built during the test."""
    built = []
    right = DifferenceChain.__init__

    def spy(self, y):
        built.append(y)
        right(self, y)

    monkeypatch.setattr(DifferenceChain, "__init__", spy)
    return built


@pytest.mark.parametrize("n", range(13))
def test_no_chain_is_built_of_a_point_mass_member(n, built_chains):
    actions = OperatorActions()
    actions.equation(n)
    actions.combined_equation_residual(n)
    actions.mass("generalized", n)
    assert built_chains and all(y.degree_in(Var.N) <= 0 for y in built_chains)
    with pytest.raises(ValueError, match="unknown argument"):
        actions.chain("generalized", n)


def test_a_diffeq_run_builds_chains_of_the_pieces_only(built_chains):
    # the mixed differences of mixed-leading are nabla powers of a piece's
    # chain, and build no chain of their own
    assert run_suite(SuiteSpec("diffeq", 10, 10)).all_passed()
    pieces = [charlier(n) for n in range(11)] + [pm.shifted_charlier(n) for n in range(11)]
    assert built_chains and all(any(y == p for p in pieces) for y in built_chains)


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_an_instance_keeps_its_chains_and_actions(provider):
    actions, other = OperatorActions(PROVIDERS[provider]), OperatorActions(PROVIDERS[provider])
    for argument in ("charlier", "shifted"):
        chain = actions.chain(argument, 4)
        assert actions.chain(argument, 4) is chain
        assert other.chain(argument, 4) is not chain
        assert other.chain(argument, 4)[2] == chain[2]
    for operator in ("mass", "series", "classical"):
        for argument in ("charlier", "shifted", "generalized"):
            action = actions._action(operator, argument, 4)
            assert actions._action(operator, argument, 4) is action
            assert other._action(operator, argument, 4) is not action
            assert other._action(operator, argument, 4) == action
    assert actions.mass("generalized", 4) is actions._action("mass", "generalized", 4)
    departure = actions._departure(3)
    assert actions._departure(3) is departure
    assert other._departure(3) is not departure
    for k, m in ((2, 0), (1, 2), (0, 3)):
        mixed = actions.mixed_difference(4, k, m)
        assert actions.mixed_difference(4, k, m) is mixed
        assert other.mixed_difference(4, k, m) is not mixed
        assert other.mixed_difference(4, k, m) == mixed
    assert actions.mixed_difference(4, 2, 0) is actions.chain("charlier", 4)[2]


UNKNOWN_PIECE_READS = {
    "chain": lambda actions: actions.chain("mirror", 3),
    "mass": lambda actions: actions.mass("mirror", 3),
    "series": lambda actions: actions._action("series", "mirror", 3),
    "classical": lambda actions: actions._action("classical", "mirror", 3),
}


@pytest.mark.parametrize("read", sorted(UNKNOWN_PIECE_READS))
def test_an_unknown_piece_is_named_in_the_error(read):
    actions = OperatorActions(negated_a3)
    for _ in range(2):  # a raise is never memoized
        with pytest.raises(ValueError, match="unknown argument"):
            UNKNOWN_PIECE_READS[read](actions)


def test_diffeq_reads_only_the_pieces():
    assert not hasattr(dq, "gen_charlier")
    assert not hasattr(dq, "gen_weights")


def test_checker_catches_a_wrong_shifted_piece(monkeypatch):
    right = pm.shifted_charlier

    def wrong(n):
        return right(n) + X if n == 3 else right(n)

    def clear_caches():
        for cached in (right, pm.gen_charlier, pm.moment_vector):
            cached.cache_clear()

    # every module that binds the right piece, so none reads it after the patch
    bound = [m for m in (cl, pm, dq, verify) if vars(m).get("shifted_charlier") is right]
    spec = SuiteSpec("all", 5, 5)
    clear_caches()
    for module in bound:
        monkeypatch.setattr(module, "shifted_charlier", wrong)
    try:
        failing = {(c.identity, tuple(c.indices))
                   for c in run_suite(spec).cases if c.status == "fail"}
    finally:
        monkeypatch.undo()
        clear_caches()
    assert {("difference-equation", (3,)), ("construction", (3,))} <= failing
    assert all(3 in indices for _, indices in failing)
    assert run_suite(spec).all_passed()

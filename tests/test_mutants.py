"""Mutant table: a wrong input must fail the identity tag that reads it.

Each entry replaces one input of the certificates, at every name it is bound
to, by a wrong version, and ``verify --suite all`` must then fail the entry's
tag and exit 1.  That run forks: the classical and generalized tags fail in
the child, so their failures must come back across the process boundary, and
the diffeq tags fail beside it.  Every cache is cleared before and after each
mutant, and every tag of a run of every suite has an entry.
"""

import json

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier import verify
from charlier.cli import main
from charlier.diffeq import DiffOperator
from charlier.polynomials import A, N, Poly, Var, X
from charlier.verify import SUITES, SuiteSpec


def wrong_mirror(right):
    return lambda n: right(n) + X if n == 2 else right(n)


def wrong_offset(right):
    def weights(n):
        scale, offset = right(n)
        return (scale, offset + N * A) if n == 3 else (scale, offset)

    return weights


def plus_at(index, extra):
    """The right function, with extra added to its value at one first argument."""
    def mutate(right):
        return lambda n, *rest: right(n, *rest) + extra if n == index else right(n, *rest)

    return mutate


def wrong_scale(right):
    def weights(n):
        scale, offset = right(n)
        return (scale + A, offset) if n == 3 else (scale, offset)

    return weights


def wrong_delta(right):
    return lambda self: right(self) + 1 if self.degree_in(Var.X) == 3 else right(self)


def wrong_forward_shift(right):
    return lambda self, offset: right(self, offset) + X if offset == 1 else right(self, offset)


def wrong_stirling_row(right):
    def row(k):
        out = right(k)
        return out[:-1] + [-out[-1]] if k == 3 else out

    return row


def wrong_moment_entry(entry, extra):
    def mutate(right):
        def vector(n):
            out = list(right(n))
            if n == 3:
                out[entry] = out[entry] + extra
            return tuple(out)

        return vector

    return mutate


def times_at(indices, factor):
    def mutate(right):
        return lambda i: right(i) * factor if i in indices else right(i)

    return mutate


def with_term(index, item):
    """The right operator, with one more term (coeff, d, m) at one index."""
    def mutate(right):
        return lambda n: DiffOperator([*right(n).terms, item]) if n == index else right(n)

    return mutate


def wrong_nabla(right):
    return lambda self: right(self) + X**2 if self.degree_in(Var.X) == 3 else right(self)


def without_top_x(indices):
    def mutate(right):
        def coeffs(i):
            p = right(i)
            return p - X**i * p.coeff_of(Var.X, i) if i in indices else p

        return coeffs

    return mutate


# The series operator plus the identity at degree 3: read by both series tags.
series_plus_identity = with_term(3, (Poly.const(1), 0, 0))

# tag, name of the input, modules (or the class) that bind it, its wrong
# version from the right one
MUTANTS = [
    ("convolution", "charlier_mirror", (cl,), wrong_mirror),
    ("construction", "gen_weights", (pm,), wrong_offset),
    ("lowering", "delta", (Poly,), wrong_delta),
    ("second-order", "shift_x", (Poly,), wrong_forward_shift),
    ("laguerre", "laguerre", (cl, dq), plus_at(3, A)),
    ("values", "value_at_minus_one", (cl,), plus_at(3, 1)),
    ("shift", "binom_poly", (cl,), plus_at(2, 1)),
    ("value-difference", "charlier", (cl, pm, dq), plus_at(3, 1)),
    ("inverse-matrix", "charlier_mirror", (cl,), wrong_mirror),
    ("orthogonality", "moment", (cl,), plus_at(4, 1)),
    ("moment", "stirling2_row", (cl,), wrong_stirling_row),
    ("mass-free", "gen_weights", (pm,), wrong_scale),
    ("structure", "gen_charlier", (pm,), plus_at(3, N**2)),
    ("alternative-form", "shifted_charlier", (cl, pm, dq), plus_at(3, X)),
    ("norm", "moment_vector", (pm,), wrong_moment_entry(-1, -1)),
    ("orthogonality-general", "moment_vector", (pm,), wrong_moment_entry(0, 1)),
    ("difference-equation", "classical_operator", (dq,), with_term(3, (X, 2, 0))),
    ("n-stratification", "coeff_a0", (dq,), plus_at(3, 1)),
    ("mass-action", "_mass_sum", (dq,), plus_at(3, X)),
    # the table coeffs prints: the mass sums must read it, not a second route
    ("mass-action", "coeff_ai", (dq,), plus_at(3, X * A)),
    ("mass-action-shifted", "shifted_charlier", (cl, pm, dq), plus_at(3, X)),
    ("mass-action-cross", "_bracket_sum", (dq,), plus_at(3, X * A)),
    ("classical-infinite-order", "classical_series_operator", (dq,), series_plus_identity),
    ("combined-equation", "classical_series_operator", (dq,), series_plus_identity),
    ("shifted-second-order", "shifted_charlier", (cl, pm, dq), plus_at(2, A)),
    ("backshift", "backshift_operator", (dq,), with_term(3, (X, 3, 0))),
    ("coeff-structure", "_bracket", (dq,), plus_at(2, X * A**5)),
    ("leading-x", "leading_x_laguerre_chain", (dq,), plus_at(3, A)),
    # the chain form is compared from i = 2 on, not only from i = 3
    ("leading-x", "leading_x_laguerre_chain", (dq,), plus_at(2, A)),
    ("uniqueness", "_bracket", (dq,), plus_at(3, X)),
    ("degree-escalation", "coeff_ai", (dq,), without_top_x((2, 3))),
    ("coprime-leading", "leading_x_closed_form", (dq,), times_at((3, 4), A - 1)),
    ("mixed-leading", "nabla", (Poly,), wrong_nabla),
]


# A tag's first entry is named by the tag, a later one by the tag and its input.
MUTANT_IDS = [tag if all(m[0] != tag for m in MUTANTS[:k]) else f"{tag}-{name}"
              for k, (tag, name, _, _) in enumerate(MUTANTS)]


def clear_caches():
    for module in (cl, pm, dq):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize("tag,name,modules,mutate", MUTANTS, ids=MUTANT_IDS)
def test_mutant_fails_its_tag_in_the_forked_half(tag, name, modules, mutate, forks, capsys,
                                                 monkeypatch):
    received = []
    real_received = verify._received

    def spy(data):
        records = real_received(data)
        received.append(records is not None)
        return records

    monkeypatch.setattr(verify, "_received", spy)
    wrong = mutate(getattr(modules[0], name))
    clear_caches()
    try:
        for module in modules:
            monkeypatch.setattr(module, name, wrong)
        code = main(["verify", "--suite", "all", "--n-max", "5", "--i-max", "5"])
    finally:
        monkeypatch.undo()
        clear_caches()
    failing = {c["identity"] for c in json.loads(capsys.readouterr().out)["cases"]
               if c["status"] == "fail"}
    assert code == 1
    assert tag in failing
    assert len(forks) == 1 and received == [True]


def test_every_tag_has_a_mutant():
    tags = {tag for tag, _, _ in verify._suite_cases(SUITES, SuiteSpec(), None)}
    assert len(tags) == 31
    assert tags == {m[0] for m in MUTANTS}


@pytest.mark.parametrize("tag,name,modules,mutate", MUTANTS, ids=MUTANT_IDS)
def test_mutant_patches_every_binding(tag, name, modules, mutate):
    # A binding left unpatched would let the certificates read the right input.
    right = getattr(modules[0], name)
    bound = {m for m in (cl, pm, dq, verify) if vars(m).get(name) is right}
    assert bound <= set(modules)
    assert all(getattr(m, name) is right for m in modules)

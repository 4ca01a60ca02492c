"""Mutant table: a wrong input must fail the identity tag that reads it.

Each entry replaces one input of the certificates, at every name it is bound
to, by a wrong version, and ``verify --suite all`` must then fail the entry's
tag and exit 1.  The tags here belong to the suites a run of every suite
sends to its forked child, so the failures must come back across that
process boundary.  Every cache is cleared before and after each mutant, and
every tag those suites report has an entry.
"""

import json

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier import verify
from charlier.cli import main
from charlier.polynomials import A, N, Poly, Var, X
from charlier.verify import FORKED_SUITES, SuiteSpec


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


# tag, name of the input, modules (or the class) that bind it, its wrong
# version from the right one
MUTANTS = [
    ("convolution", "charlier_mirror", (cl,), wrong_mirror),
    ("construction", "gen_weights", (pm, dq), wrong_offset),
    ("lowering", "delta", (Poly,), wrong_delta),
    ("second-order", "shift_x", (Poly,), wrong_forward_shift),
    ("laguerre", "laguerre", (cl, dq), plus_at(3, A)),
    ("values", "value_at_minus_one", (cl,), plus_at(3, 1)),
    ("shift", "binom_poly", (cl, dq), plus_at(2, 1)),
    ("value-difference", "charlier", (cl, pm, dq), plus_at(3, 1)),
    ("inverse-matrix", "charlier_mirror", (cl,), wrong_mirror),
    ("orthogonality", "moment", (cl,), plus_at(4, 1)),
    ("moment", "stirling2_row", (cl,), wrong_stirling_row),
    ("mass-free", "gen_weights", (pm, dq), wrong_scale),
    ("structure", "gen_charlier", (pm, dq), plus_at(3, N**2)),
    ("alternative-form", "shifted_charlier", (pm, dq), plus_at(3, X)),
    ("norm", "moment_vector", (pm,), wrong_moment_entry(-1, -1)),
    ("orthogonality-general", "moment_vector", (pm,), wrong_moment_entry(0, 1)),
]


def clear_caches():
    for module in (cl, pm, dq):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@pytest.mark.parametrize("tag,name,modules,mutate", MUTANTS, ids=[m[0] for m in MUTANTS])
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


def test_every_forked_tag_has_a_mutant():
    tags = {tag for tag, _, _ in verify._suite_cases(FORKED_SUITES, SuiteSpec(), None)}
    assert tags - {m[0] for m in MUTANTS} == set()


@pytest.mark.parametrize("tag,name,modules,mutate", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_patches_every_binding(tag, name, modules, mutate):
    # A binding left unpatched would let the certificates read the right input.
    right = getattr(modules[0], name)
    bound = {m for m in (cl, pm, dq, verify) if vars(m).get(name) is right}
    assert bound <= set(modules)
    assert all(getattr(m, name) is right for m in modules)

"""The routes that rest on lemmas: the mass actions through the series of the
printed a_i, the moment vectors through the three-term recurrence, and the one
home of the lemmas they read.

Each route must equal the direct one exactly, a row must not depend on how
far any row was built, and a broken lemma must fail the cases that read it at
its index, and no others, with an error that names the lemma and the index.
"""

import hashlib
import inspect
import json
import sys
from functools import cache

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier.cli import INDEX_LIMIT, main
from charlier.diffeq import DifferenceChain, OperatorActions, coeff_ai, mass_operator
from charlier.polynomials import A, X
from charlier.verify import SuiteSpec, run_suite
from test_mutants import clear_caches

# SHA-256 of the report of verify --suite all --n-max 20 --i-max 20 without
# its elapsed_ms fields, serialized with json.dumps(..., sort_keys=True), as
# the chain and full-product routes wrote it.
DEEP_REPORT = "2b4d87b69ae9d400e9207f9a3319275fe3f3f5646c18b0772b56a26d86a0579b"


def negated_at(order):
    def coeffs(i):
        return -coeff_ai(i) if i == order else coeff_ai(i)

    return coeffs


@cache
def chain(argument, n):
    piece = cl.charlier(n) if argument == "charlier" else pm.shifted_charlier(n)
    return DifferenceChain(piece)


@pytest.mark.parametrize("order", [None, *range(1, 9)])
def test_mass_route_is_the_operator_on_the_chain(order):
    coeffs = coeff_ai if order is None else negated_at(order)
    actions = OperatorActions(None if order is None else coeffs)
    for n in range(21):
        operator = mass_operator(n, n, coeffs)
        for argument in ("charlier", "shifted"):
            got = actions.mass(argument, n)
            expected = operator.apply(chain(argument, n))
            assert got == expected and got.terms() == expected.terms(), (argument, n)


@pytest.mark.parametrize("n", range(31))
def test_rows_are_the_moments_of_the_pieces(n):
    # Past the diagonal too: the rows above n read those entries.
    assert cl.moment_row(n, n + 4) == cl.moments_of(cl.charlier(n), n + 4)
    assert pm.shifted_moment_row(n, n + 4) == cl.moments_of(pm.shifted_charlier(n), n + 4)


def test_rows_build_without_recursion():
    # 25 frames above the current depth: an entry built by recursion on the
    # row index would need one frame per row below it.
    clear_caches()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 25)
    try:
        row, shifted = cl.moment_row(60, 2), pm.shifted_moment_row(60, 2)
    finally:
        sys.setrecursionlimit(limit)
        clear_caches()
    assert row == cl.moments_of(cl.charlier(60), 2)
    assert shifted == cl.moments_of(pm.shifted_charlier(60), 2)


@pytest.mark.parametrize("vector", [cl.moment_vector, pm.moment_vector])
def test_moment_vectors_reject_a_negative_degree(vector):
    with pytest.raises(ValueError, match=">= 0"):
        vector(-1)


def test_rows_do_not_depend_on_the_run_n_max():
    def rows_after(n_max):
        clear_caches()
        assert run_suite(SuiteSpec("generalized", n_max, 1)).all_passed()
        return [(cl.moment_row(n, 6), pm.shifted_moment_row(n, 6), pm.moment_vector(n))
                for n in range(6)]

    try:
        assert rows_after(5) == rows_after(20)
    finally:
        clear_caches()


@pytest.mark.parametrize("lemma", sorted(cl.LEMMAS))
def test_every_lemma_holds_to_the_index_limit(lemma):
    assert all(cl.LEMMAS[lemma](k) for k in range(INDEX_LIMIT + 1))


# lemma, the index it is broken at, and the degree of the cases whose step
# reads it: S_n reads the binom identity at n - 1, the others at n.
BROKEN = [
    ("lowering", 3, 3),
    ("piece at x-1", 3, 3),
    ("binom identity", 2, 3),
    ("row recurrence", 3, 3),
]

MASS_READERS = {
    "difference-equation", "n-stratification", "mass-action", "mass-action-shifted",
    "mass-action-cross", "combined-equation", "uniqueness",
}
SHIFTED_MASS_READERS = MASS_READERS - {"mass-action"}
MOMENT_READERS = {"construction", "norm", "orthogonality-general"}

# the tags that fail, each with its cases at the degree of the step
FAILING_TAGS = {
    "lowering": MASS_READERS,
    "piece at x-1": SHIFTED_MASS_READERS | MOMENT_READERS,
    "binom identity": MASS_READERS,
    "row recurrence": MOMENT_READERS | {"orthogonality"},
}


@pytest.mark.parametrize("lemma,index,degree", BROKEN, ids=[b[0] for b in BROKEN])
def test_a_broken_lemma_fails_only_the_cases_of_its_index(lemma, index, degree, monkeypatch):
    right = cl.LEMMAS[lemma]
    monkeypatch.setitem(cl.LEMMAS, lemma, lambda k: k != index and right(k))
    spec = SuiteSpec("all", 5, 5)
    clear_caches()
    try:
        failed = [c for c in run_suite(spec).cases if c.status == "fail"]
    finally:
        monkeypatch.undo()
        clear_caches()
    assert {c.identity for c in failed} == FAILING_TAGS[lemma]
    assert all(c.indices[-1] == degree for c in failed)
    assert {c.residual for c in failed} == {f"error: lemma {lemma!r} fails at index {index}"}
    assert run_suite(spec).all_passed()


def test_a_wrong_printed_coefficient_fails_every_mass_reader(capsys, monkeypatch):
    # x a added to the a_3 that coeffs prints reaches S_n and T_n at n >= 3,
    # so every case that reads a mass action fails at those degrees.
    right = dq.coeff_ai
    clear_caches()
    try:
        monkeypatch.setattr(dq, "coeff_ai", lambda i: right(i) + X * A if i == 3 else right(i))
        code = main(["verify", "--suite", "all", "--n-max", "5", "--i-max", "5"])
    finally:
        monkeypatch.undo()
        clear_caches()
    failed = {(c["identity"], *c["indices"]) for c in json.loads(capsys.readouterr().out)["cases"]
              if c["status"] == "fail"}
    assert code == 1
    assert failed == {(tag, n) for tag in MASS_READERS for n in range(3, 6)}


def test_a_corrupt_run_builds_each_exact_sum_once(capsys):
    argv = ["verify", "--suite", "diffeq", "--n-max", "8", "--i-max", "8", "--corrupt-ai", "3"]
    clear_caches()
    try:
        assert main(argv) == 1
        # both instances of the run read the sums of degrees 0..8
        built = [dq._mass_sum.cache_info(), dq._shifted_mass_sum.cache_info()]
    finally:
        clear_caches()
    assert [info.misses for info in built] == [9, 9]
    assert all(info.hits for info in built)
    assert json.loads(capsys.readouterr().out)["summary"]["failed"]


def test_deep_report_is_byte_stable(capsys):
    assert main(["verify", "--suite", "all", "--n-max", "20", "--i-max", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    for case in report["cases"]:
        case.pop("elapsed_ms")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == DEEP_REPORT

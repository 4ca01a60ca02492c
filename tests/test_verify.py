"""Suite runner: byte-stable reports and per-run isolation of shared work."""

import hashlib
import json

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier import verify
from charlier.cli import main
from charlier.diffeq import coeff_ai
from charlier.polynomials import A, N, Poly
from charlier.verify import SuiteSpec, run_suite

# SHA-256 of the report without its elapsed_ms fields, serialized with
# json.dumps(..., sort_keys=True).
PINNED_REPORTS = [
    (("verify", "--suite", "all"), 0,
     "a3f6196688fa0642c865394cbf5f798b7b0085abb2b88a9bac9e559958aec68a"),
    (("verify", "--suite", "diffeq", "--n-max", "8", "--i-max", "8", "--corrupt-ai", "1"), 1,
     "410b9e53a97b059624af0522ea60144495734f1035d45f035c0dbba11ad49e6a"),
    (("verify", "--suite", "all", "--n-max", "16", "--i-max", "16"), 0,
     "e1c409d1e245a55ab0a59bc2df84742684017592bfe60f8ecb5aab5997c465a8"),
    (("verify", "--suite", "diffeq", "--n-max", "12", "--i-max", "12", "--corrupt-ai", "5"), 1,
     "918638ab6acaf120483a29fa31139ad1cdf7c1dcdc52315e6f7329cb545e87c0"),
    # uniqueness rows 4..8 past n_max, which no mass-action case builds
    (("verify", "--suite", "diffeq", "--n-max", "3", "--i-max", "8", "--corrupt-ai", "6"), 1,
     "345873f17bf0fde18115877282ae005a9fc4b5c8877fa9c129a030f5dcba47c2"),
]

# Identities that read the mass operator of degree n >= I once the order-I
# coefficient is corrupted.
MASS_TAGS = (
    "difference-equation", "n-stratification", "combined-equation",
    "mass-action", "mass-action-shifted", "mass-action-cross",
)


def normalized_digest(stdout: str) -> str:
    report = json.loads(stdout)
    for case in report["cases"]:
        case.pop("elapsed_ms")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", PINNED_REPORTS)
def test_report_is_byte_stable(argv, code, digest, capsys):
    assert main(list(argv)) == code
    assert normalized_digest(capsys.readouterr().out) == digest


@pytest.fixture
def unsolved(monkeypatch):
    """No forward substitution: uniqueness is read from the mass-action rows
    on C_i(x-1), not solved a second time."""
    def unread(max_i):
        raise AssertionError("solve_coefficients was called")

    monkeypatch.setattr(dq, "solve_coefficients", unread)


@pytest.mark.parametrize("argv,code,digest", PINNED_REPORTS)
def test_pinned_reports_need_no_forward_substitution(argv, code, digest, unsolved, forks,
                                                     capsys):
    assert main(list(argv)) == code
    assert normalized_digest(capsys.readouterr().out) == digest
    assert len(forks) == (argv[2] == "all")


def test_diffeq_run_needs_no_forward_substitution(unsolved, capsys):
    assert main(["verify", "--suite", "diffeq"]) == 0


def test_each_convolution_is_summed_once_per_distance(monkeypatch):
    calls = []
    right = cl.convolution_residual

    def counted(i, j):
        calls.append((i, j))
        return right(i, j)

    monkeypatch.setattr(cl, "convolution_residual", counted)
    cases = [c for c in verify._classical_cases(SuiteSpec("classical", 12, 12))
             if c[0] == "convolution"]
    records = verify._run_cases(cases)
    assert len(records) == 91 and all(r.status == "pass" for r in records)
    assert sorted(calls) == [(m, 0) for m in range(13)]


def test_classical_run_sums_each_convolution_by_its_distance(monkeypatch):
    calls = []
    right = cl.convolution_residual

    def counted(i, j):
        calls.append((i, j))
        return right(i, j)

    monkeypatch.setattr(cl, "convolution_residual", counted)
    records = verify._run_cases(verify._classical_cases(SuiteSpec("classical", 12, 12)))
    assert records and all(r.status == "pass" for r in records)
    # once per distance: the inverse-matrix cases read the convolution cases' sums
    assert sorted(calls) == [(m, 0) for m in range(13)]


def corrupt(bad: int):
    def coeffs(i: int):
        table = coeff_ai(i)
        return -table if i == bad else table
    return coeffs


def test_shared_work_stays_within_one_run():
    spec = SuiteSpec("diffeq", 5, 5)
    for bad in range(1, 6):
        clean = run_suite(spec)
        assert clean.all_passed(), bad
        failing = {(c.identity, tuple(c.indices)) for c in run_suite(spec, corrupt(bad)).cases
                   if c.status == "fail"}
        expected = {(tag, (n,)) for tag in MASS_TAGS for n in range(bad, 6)}
        expected |= {(tag, (bad,)) for tag in ("coeff-structure", "leading-x", "uniqueness")}
        assert failing == expected, bad
    assert run_suite(spec).all_passed()


def test_a_corrupt_run_builds_each_chain_once(monkeypatch):
    # the uniqueness rows of a provider's run read the provider's chains
    calls = []
    real = Poly.delta
    monkeypatch.setattr(Poly, "delta", lambda self: calls.append(1) or real(self))
    spec = SuiteSpec("diffeq", 8, 8)
    counts = []
    for coeffs, passed in ((None, True), (corrupt(4), False), (None, True)):
        calls.clear()
        assert run_suite(spec, coeffs).all_passed() == passed
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2] > 0


@pytest.mark.parametrize(
    "spec",
    [SuiteSpec("diffeq", 3, 1), SuiteSpec("diffeq", 1, 4), SuiteSpec("classical", 3, 3),
     SuiteSpec("all", 3, 3)],
    ids=str,
)
def test_reads_ai_names_the_orders_a_run_reads(spec):
    read: set[int] = set()

    def recording(i: int):
        read.add(i)
        return coeff_ai(i)

    assert run_suite(spec, recording).all_passed()
    assert read == {i for i in range(1, 30) if spec.reads_ai(i)}


def test_norm_certificate_rejects_a_negative_coefficient(monkeypatch):
    assert all(verify._norm_positive(n) for n in range(13))
    # a negative term off the N = 0 slice, which sampling could miss
    honest = pm.norm_general
    monkeypatch.setattr(pm, "norm_general", lambda n: honest(n) - A**40 * N)
    assert not any(verify._norm_positive(n) for n in range(13))

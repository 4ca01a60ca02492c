"""The value records of the package, and the modules the CLI starts without."""

import subprocess
import sys
from pathlib import Path

import pytest

from charlier.diffeq import CoeffTable, DiffOperator, DiffTerm, build_coeff_table
from charlier.polynomials import A, X
from charlier.verify import CaseRecord, SuiteSpec, VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_cli_import_generates_no_classes_and_skips_csv():
    # -S leaves out site and its .pth files, so only the CLI's own imports load.
    code = "import sys; sys.path.insert(0, sys.argv[1]); import charlier.cli; print(*sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert not {"dataclasses", "inspect", "csv"} & set(result.stdout.split())


class TestSuiteSpec:
    @pytest.mark.parametrize(
        "args,message",
        [
            (("hermite", 3, 3), "unknown suite 'hermite'"),
            (("all", -1, 3), "n_max must be >= 0"),
            (("all", 3, 0), "i_max must be >= 1"),
        ],
    )
    def test_invalid_spec_is_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            SuiteSpec(*args)

    @pytest.mark.parametrize("args", [("all", 2.0, 3), ("all", 2, 3.0), ("diffeq", "2", 3),
                                      ("all", True, 3), ("all", 3, True)])
    def test_non_integer_range_is_rejected(self, args):
        # Rejected here, not in range() after a forked child has started.
        with pytest.raises(TypeError, match="n_max and i_max must be ints"):
            SuiteSpec(*args)

    def test_defaults_and_keywords(self):
        assert SuiteSpec() == SuiteSpec("all", 12, 12)
        assert SuiteSpec(n_max=0) == SuiteSpec("all", 0, 12)
        spec = SuiteSpec(suite="diffeq", n_max=3, i_max=1)
        assert (spec.suite, spec.n_max, spec.i_max) == ("diffeq", 3, 1)

    def test_is_immutable(self):
        spec = SuiteSpec("diffeq", 3, 1)
        with pytest.raises(AttributeError):
            spec.n_max = 5
        with pytest.raises(AttributeError):
            spec.extra = 1
        assert spec.n_max == 3

    def test_equality_and_hash(self):
        spec = SuiteSpec("diffeq", 3, 1)
        assert spec == SuiteSpec(suite="diffeq", n_max=3, i_max=1)
        assert hash(spec) == hash(SuiteSpec("diffeq", 3, 1))
        assert spec != SuiteSpec("diffeq", 3, 2)
        assert len({spec, SuiteSpec("diffeq", 3, 1), SuiteSpec("all")}) == 2

    def test_repr_is_the_parameter_id(self):
        text = "SuiteSpec(suite='diffeq', n_max=3, i_max=1)"
        assert repr(SuiteSpec("diffeq", 3, 1)) == text
        assert str(SuiteSpec("diffeq", 3, 1)) == text


def test_diff_term_fields():
    term = DiffTerm(X, 2, 1)
    assert (term.coeff, term.delta_order, term.nabla_order) == (X, 2, 1)
    [built] = DiffOperator([(A, 3, 0)]).terms
    assert built == DiffTerm(A, 3, 0) and built.delta_order == 3


def test_coeff_table_fields():
    table = build_coeff_table(2)
    assert isinstance(table, CoeffTable)
    assert sorted(table.a0) == [0, 1, 2] and sorted(table.ai) == [1, 2]
    assert str(table.ai[1]) == "-x"


class TestCaseRecord:
    def test_fields_and_default_residual(self):
        record = CaseRecord("lowering", (3,), "pass", 1.23456)
        assert (record.identity, record.indices, record.status) == ("lowering", (3,), "pass")
        assert record.elapsed_ms == 1.23456 and record.residual is None
        assert record.to_json() == {
            "identity": "lowering", "indices": [3], "status": "pass", "elapsed_ms": 1.235,
        }

    def test_residual_is_reported(self):
        record = CaseRecord("shift", (2, "1/2"), "fail", 0.5, "x - a")
        assert record.residual == "x - a"
        assert record.to_json()["residual"] == "x - a"


def test_verification_report_counts():
    cases = [CaseRecord("a", (0,), "pass", 0.0), CaseRecord("b", (1,), "fail", 0.0, "x")]
    report = VerificationReport("classical", 1, 2, cases)
    assert (report.suite, report.n_max, report.i_max, report.cases) == ("classical", 1, 2, cases)
    assert (report.passed, report.failed, report.all_passed()) == (1, 1, False)
    summary = report.to_json()["summary"]
    assert summary == {"total": 2, "passed": 1, "failed": 1}
    assert VerificationReport("all", 0, 1, cases[:1]).all_passed()

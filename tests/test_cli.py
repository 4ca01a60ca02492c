"""Command line contract: formats, golden outputs, exit codes, determinism."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charlier.cli import main

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parent / "src"

ENV = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}


def run_cli(*args: str):
    return subprocess.run(
        [sys.executable, "-m", "charlier", *args],
        capture_output=True,
        text=True,
        env=ENV,
    )


class TestPoly:
    def test_classical_members(self):
        assert run_cli("poly", "charlier", "1").stdout == "x - a\n"
        assert run_cli("poly", "charlier", "0").stdout == "1\n"

    def test_generalized_members(self):
        assert run_cli("poly", "generalized", "0").stdout == "1\n"
        assert run_cli("poly", "generalized", "1").stdout == "N*x + x - a\n"

    def test_negative_degree_is_usage_error(self):
        result = run_cli("poly", "charlier", "-3")
        assert result.returncode == 2

    def test_unknown_family_is_usage_error(self):
        assert run_cli("poly", "hermite", "1").returncode == 2


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "fmt,name",
        [("json", "coeffs_max3.json"), ("csv", "coeffs_max3.csv"), ("latex", "coeffs_max3.tex")],
    )
    def test_coeffs_byte_stable(self, fmt, name):
        result = run_cli("coeffs", "--max-i", "3", "--format", fmt)
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / name).read_text()

    def test_moments_byte_stable(self):
        result = run_cli("moments", "--max-k", "3")
        assert result.returncode == 0
        assert result.stdout == (GOLDEN / "moments_max3.json").read_text()

    def test_coeffs_json_schema(self):
        payload = json.loads(run_cli("coeffs", "--max-i", "2").stdout)
        assert {row["n"]: row["poly"] for row in payload["a0"]} == {
            0: "0",
            1: "1",
            2: "a + 2",
        }
        row = payload["ai"][0]
        assert row == {"i": 1, "poly": "-x", "deg_x": 1, "deg_a": 0}

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "table.json"
        result = run_cli("coeffs", "--max-i", "1", "--out", str(target))
        assert result.returncode == 0
        assert result.stdout == ""
        assert json.loads(target.read_text())["ai"][0]["poly"] == "-x"

    def test_unwritable_out_is_an_io_error(self, tmp_path):
        target = tmp_path / "missing" / "x.txt"
        result = run_cli("poly", "charlier", "3", "--out", str(target))
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert "cannot write" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ("coeffs", "--max-i", "1"),
            ("poly", "charlier", "2"),
            ("verify", "--suite", "diffeq", "--n-max", "1", "--i-max", "1"),
            ("moments", "--max-k", "1"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_out_is_an_io_error(self, argv):
        # An empty path names no file; it must not fall back to stdout.
        result = run_cli(*argv, "--out", "")
        assert result.returncode == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith("charlier: error: cannot write '': ")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_is_an_io_error(self):
        # A block-buffered stdout (the default off a tty) is flushed again at
        # shutdown, so both buffering modes are covered.  A run of every suite
        # may fork a child, which must print nothing of its own.
        buffered = {k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"}
        commands = (("coeffs", "--max-i", "3"),
                    ("verify", "--suite", "all", "--n-max", "2", "--i-max", "2"))
        for args, env in itertools.product(commands, (buffered, {**buffered, "PYTHONUNBUFFERED": "1"})):
            with open("/dev/full", "w") as full:
                result = subprocess.run(
                    [sys.executable, "-m", "charlier", *args],
                    stdout=full,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
            assert result.returncode == 2, (args, result.stderr)
            assert len(result.stderr.splitlines()) == 1, (args, result.stderr)
            assert "cannot write stdout" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs preexec_fn")
    @pytest.mark.parametrize(
        "argv",
        [("poly", "charlier", "1"), ("verify", "--suite", "all", "--n-max", "2", "--i-max", "2")],
        ids=lambda argv: argv[0],
    )
    def test_closed_stdout_is_an_io_error(self, argv):
        # With file descriptor 1 closed the interpreter sets sys.stdout to None;
        # a verify run must not report that as a failed identity (exit 1).
        result = subprocess.run(
            [sys.executable, "-m", "charlier", *argv],
            stderr=subprocess.PIPE,
            text=True,
            env=ENV,
            preexec_fn=lambda: os.close(1),
        )
        assert result.returncode == 2, result.stderr
        [line] = result.stderr.splitlines()
        assert line.startswith("charlier: error: cannot write stdout: ")

    def test_bad_format_is_usage_error(self):
        assert run_cli("coeffs", "--format", "xml").returncode == 2

    def test_bad_max_i_is_usage_error(self):
        assert run_cli("coeffs", "--max-i", "0").returncode == 2


class TestVerify:
    def test_small_suite_passes(self):
        result = run_cli("verify", "--suite", "classical", "--n-max", "3")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] == len(report["cases"])
        assert all(c["status"] == "pass" for c in report["cases"])

    def test_trivial_diffeq_case(self):
        result = run_cli("verify", "--suite", "diffeq", "--n-max", "0", "--i-max", "1")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        tags = {c["identity"] for c in report["cases"]}
        assert "difference-equation" in tags

    def test_corrupted_coefficient_fails_with_residual(self):
        result = run_cli(
            "verify",
            "--suite",
            "diffeq",
            "--n-max",
            "2",
            "--i-max",
            "2",
            "--corrupt-ai",
            "1",
        )
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["summary"]["failed"] > 0
        broken = [
            c
            for c in report["cases"]
            if c["identity"] == "difference-equation" and c["indices"] == [1]
        ]
        assert broken and broken[0]["status"] == "fail"
        assert broken[0]["residual"]  # the nonzero polynomial is rendered

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "classical", "--corrupt-ai", "2"),
            ("--suite", "generalized", "--n-max", "3", "--corrupt-ai", "1"),
            ("--suite", "diffeq", "--n-max", "3", "--i-max", "3", "--corrupt-ai", "9"),
            ("--suite", "all", "--n-max", "2", "--i-max", "4", "--corrupt-ai", "5"),
        ],
    )
    def test_unread_corrupt_index_is_a_usage_error(self, argv, capsys):
        # Nothing reads that a_i, so the self test would corrupt nothing.
        assert main(["verify", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "--corrupt-ai" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--suite", "diffeq", "--n-max", "3", "--i-max", "1", "--corrupt-ai", "3"),
            ("--suite", "all", "--n-max", "2", "--i-max", "4", "--corrupt-ai", "4"),
        ],
    )
    def test_read_corrupt_index_fails_the_run(self, argv, capsys):
        assert main(["verify", *argv]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["failed"] > 0

    def test_every_case_appears_once(self):
        result = run_cli("verify", "--suite", "generalized", "--n-max", "3")
        report = json.loads(result.stdout)
        keys = [(c["identity"], tuple(c["indices"])) for c in report["cases"]]
        assert len(keys) == len(set(keys))

    def test_report_deterministic_modulo_timing(self):
        def stripped():
            out = run_cli("verify", "--suite", "diffeq", "--n-max", "3", "--i-max", "3")
            report = json.loads(out.stdout)
            for case in report["cases"]:
                case.pop("elapsed_ms")
            return report

        assert stripped() == stripped()

    def test_unknown_suite_is_usage_error(self):
        assert run_cli("verify", "--suite", "bogus").returncode == 2

"""The classical and generalized suites in a forked child beside diffeq.

A run of every suite on a host with a second usable CPU runs those two suites
in a forked child.  Its report must equal the serial run's, and a child that
fails, sends much, or outlives an interrupted parent must change nothing.
"""

import gc
import json
import marshal
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier import verify
from charlier.cli import main
from charlier.polynomials import A, X
from charlier.verify import SuiteSpec, run_suite
from test_mutants import clear_caches
from test_verify import normalized_digest

SRC = Path(__file__).resolve().parent.parent / "src"


def report(argv, capsys):
    code = main(list(argv))
    return code, normalized_digest(capsys.readouterr().out)


def serial_report(argv, capsys, monkeypatch):
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork")
        return report(argv, capsys)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "argv,code",
    [
        (("verify", "--suite", "all", "--n-max", "5", "--i-max", "5"), 0),
        (("verify", "--suite", "all"), 0),
        (("verify", "--suite", "all", "--n-max", "8", "--i-max", "8", "--corrupt-ai", "3"), 1),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else None,
)
def test_forked_and_serial_reports_agree(argv, code, forks, capsys, monkeypatch):
    forked = report(argv, capsys)
    assert len(forks) == 1
    assert forked[0] == code
    assert forked == serial_report(argv, capsys, monkeypatch)


@pytest.mark.parametrize(
    "spec", [SuiteSpec("classical", 3, 3), SuiteSpec("diffeq", 3, 3)], ids=str
)
def test_one_suite_never_forks(spec, forks):
    assert run_suite(spec).all_passed()
    assert forks == []


def test_one_usable_cpu_runs_serially(forks, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert run_suite(SuiteSpec("all", 3, 3)).all_passed()
    assert forks == []


def test_a_piece_that_raises_fails_its_cases_on_both_paths(forks, capsys, monkeypatch):
    # Both halves read charlier(n), shifted_charlier(n) and gen_weights(n), and
    # each builds them on first use in its own process; only the child reads
    # gen_charlier(n).  An error there must fail the cases that read it, as it
    # does serially.
    argv = ("verify", "--suite", "all", "--n-max", "4", "--i-max", "4")
    right = pm.gen_weights

    def broken(n):
        if n == 3:
            raise ArithmeticError("broken weights")
        return right(n)

    clear_caches()
    try:
        monkeypatch.setattr(pm, "gen_weights", broken)
        forked = report(argv, capsys)
        assert len(forks) == 1
        assert forked[0] == 1
        assert forked == serial_report(argv, capsys, monkeypatch)
    finally:
        monkeypatch.undo()
        clear_caches()


def test_a_forked_runs_caller_builds_nothing_for_the_child(forks, monkeypatch):
    # Only the child reads gen_charlier(n); a call recorded here was made in
    # the caller, whose own half never reads it.
    calls = []
    right = pm.gen_charlier

    def recorded(n):
        calls.append(n)
        return right(n)

    monkeypatch.setattr(pm, "gen_charlier", recorded)
    assert run_suite(SuiteSpec("all", 4, 4)).all_passed()
    assert len(forks) == 1
    assert calls == []


def open_fds():
    """The descriptors this process holds, or None where /proc is absent."""
    fd_dir = Path("/proc/self/fd")
    return sorted(os.listdir(fd_dir)) if fd_dir.is_dir() else None


@pytest.mark.parametrize("call", ["pipe", "fork"])
def test_a_refused_pipe_or_fork_runs_serially(call, forks, capsys, monkeypatch):
    argv = ("verify", "--suite", "all", "--n-max", "5", "--i-max", "5")

    def refused(*args):
        raise OSError(f"no {call}")

    before = open_fds()
    monkeypatch.setattr(os, call, refused)
    assert report(argv, capsys) == serial_report(argv, capsys, monkeypatch)
    assert forks == []
    assert_no_child_left()
    assert open_fds() == before


def test_a_forked_run_leaves_the_callers_frozen_objects_frozen(forks):
    sentinel = ["frozen by the caller"]
    gc.freeze()
    try:
        assert run_suite(SuiteSpec("all", 3, 3)).all_passed()
        assert len(forks) == 1
        assert not any(obj is sentinel for obj in gc.get_objects())
    finally:
        gc.unfreeze()


def test_a_child_that_cannot_deliver_is_replaced(forks, capsys, monkeypatch):
    argv = ("verify", "--suite", "all", "--n-max", "5", "--i-max", "5")

    def broken(fd, records):
        raise RuntimeError("no delivery")

    monkeypatch.setattr(verify, "_ship", broken)
    forked = report(argv, capsys)
    assert len(forks) == 1
    assert forked == serial_report(argv, capsys, monkeypatch)
    assert_no_child_left()


def test_records_beyond_a_pipe_buffer_do_not_hang(forks, capsys, monkeypatch):
    import signal

    def timeout(signum, frame):
        raise TimeoutError("the forked run hung")

    right = cl.charlier_mirror
    big = (X + A + 1) ** 5
    monkeypatch.setattr(cl, "charlier_mirror", lambda n: right(n) + big)
    argv = ("verify", "--suite", "all")
    previous = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(120)
    try:
        forked = report(argv, capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 1
    assert_no_child_left()

    monkeypatch.delattr(os, "fork")
    spec = SuiteSpec("all", 12, 12)
    serial = run_suite(spec)
    assert forked == (1, normalized_digest(json.dumps(serial.to_json())))
    assert {c.identity for c in serial.cases if c.status == "fail"} == {"convolution", "inverse-matrix"}
    # what the child sent: every record of the forked suites
    forked_tags = {tag for tag, _, _ in verify._suite_cases(verify.FORKED_SUITES, spec, None)}
    shipped = [tuple(c) for c in serial.cases if c.identity in forked_tags]
    assert len(marshal.dumps(shipped)) > 64 * 1024


def test_an_interrupted_parent_kills_and_reaps_its_child(forks, monkeypatch):
    def interrupted(chain):
        raise KeyboardInterrupt

    def stuck(n):
        time.sleep(30)

    monkeypatch.setattr(dq, "backshift_residual", interrupted)  # read in this process
    monkeypatch.setattr(cl, "verify_lowering", stuck)  # read in the child
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(SuiteSpec("all", 3, 3))
    assert time.monotonic() - start < 20  # the child was killed, not waited for
    assert len(forks) == 1
    assert_no_child_left()


def test_no_child_is_left_after_a_run(forks):
    assert run_suite(SuiteSpec("all", 3, 3)).all_passed()
    assert len(forks) == 1
    assert_no_child_left()


def test_buffered_stdout_is_written_once():
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    code = (
        "import os, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from charlier.verify import SuiteSpec, run_suite\n"
        "sys.stdout.write('before the run\\n')\n"
        "print(run_suite(SuiteSpec('all', 3, 3)).all_passed())\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    result = subprocess.run(
        [sys.executable, "-c", code, str(SRC)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "before the run\nTrue\n"

"""The classical and generalized suites in a forked child beside diffeq.

A run of every suite has two paths.  Where a child can run, those two suites
run in a forked child, which first moves off its parent's CPU, while the
calling process runs diffeq.  Otherwise (no fork, one usable CPU, another
thread, a refused pipe or fork), or when the child does not deliver, the
calling process runs them itself after diffeq.  The two reports must be
equal, and a child that fails, sends much, cannot move, or outlives an
interrupted parent must change nothing.
"""

import contextlib
import gc
import json
import marshal
import os
import subprocess
import sys
import threading
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


def open_fds():
    """The descriptors this process holds, or None where /proc is absent."""
    fd_dir = Path("/proc/self/fd")
    return sorted(os.listdir(fd_dir)) if fd_dir.is_dir() else None


def refused(*args):
    raise OSError("refused")


def cannot_ship(fd, records):
    raise RuntimeError("no delivery")


def ships_truncated(fd, records):
    """verify._ship without the last byte of the marshal data; the child
    then exits 0, and verify._received must turn the data down."""
    with open(fd, "wb") as pipe:
        pipe.write(marshal.dumps([tuple(r) for r in records])[:-1])


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


def test_a_forked_run_leaves_the_callers_frozen_objects_frozen(forks):
    sentinel = ["frozen by the caller"]
    gc.freeze()
    try:
        assert run_suite(SuiteSpec("all", 3, 3)).all_passed()
        assert len(forks) == 1
        assert not any(obj is sentinel for obj in gc.get_objects())
    finally:
        gc.unfreeze()


@contextlib.contextmanager
def patched(target, name, value=None):
    """target.name set to value, or deleted if value is None, in the block."""
    with pytest.MonkeyPatch.context() as patch:
        if value is None:
            patch.delattr(target, name)
        else:
            patch.setattr(target, name, value)
        yield


@contextlib.contextmanager
def a_second_thread():
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        yield
    finally:
        done.set()
        thread.join()


NO_DELIVERING_CHILD = {
    "no-fork": lambda: patched(os, "fork"),
    "one-usable-cpu": lambda: patched(os, "sched_getaffinity", lambda pid: {0}),
    "a-second-thread": a_second_thread,
    "a-refused-pipe": lambda: patched(os, "pipe", refused),
    "a-refused-fork": lambda: patched(os, "fork", refused),
    "a-child-that-cannot-ship": lambda: patched(verify, "_ship", cannot_ship),
    "a-child-that-ships-what-does-not-unmarshal": lambda: patched(verify, "_ship", ships_truncated),
}


@pytest.mark.parametrize("fault", NO_DELIVERING_CHILD)
def test_a_run_without_a_delivering_child_runs_one_fallback(fault, forks, capsys, monkeypatch):
    # This process runs the diffeq half, then FORKED_SUITES in one call, and
    # reports what the forked run does.  Every run, forked or not, leaves no
    # child and no descriptor behind.
    argvs = [("verify", "--suite", "all", "--n-max", "5", "--i-max", "5", *corrupt)
             for corrupt in ((), ("--corrupt-ai", "3"))]
    before = open_fds()

    def run(argv):
        result = report(argv, capsys)
        assert_no_child_left()
        assert open_fds() == before
        return result

    forked = [run(argv) for argv in argvs]
    assert len(forks) == 2
    spec = SuiteSpec("all", 5, 5)
    halves = [{tag for tag, _, _ in verify._suite_cases(names, spec, None)}
              for names in (("diffeq",), verify.FORKED_SUITES)]
    calls, run_cases = [], verify._run_cases

    def spy(cases):
        cases = list(cases)
        calls.append({tag for tag, _, _ in cases})
        return run_cases(cases)

    monkeypatch.setattr(verify, "_run_cases", spy)
    for argv, expected in zip(argvs, forked):
        calls.clear()
        with NO_DELIVERING_CHILD[fault]():
            assert run(argv) == expected
        assert calls == halves
    # a fault met before the fork, one-usable-cpu among them, forks nothing
    assert len(forks) == (4 if fault.startswith("a-child-that-") else 2)


RECORDS = [verify.CaseRecord("lowering", (3,), "pass", 0.5),
           verify.CaseRecord("inverse-matrix", (2, 4), "fail", 1.25, "x + a")]

# Each error verify._received turns down; the fault table above reaches only
# the first, through a child that exits 0.
NOT_RECORDS = {
    "truncated": marshal.dumps([tuple(r) for r in RECORDS])[:-1],  # EOFError
    "an-unknown-type-code": b"\xff",  # ValueError
    "not-a-list-of-records": marshal.dumps(5),  # TypeError
    "a-record-too-short": marshal.dumps([("lowering",)]),  # TypeError
    "a-record-too-long": marshal.dumps([(*RECORDS[0], None, "extra")]),  # TypeError
}


@pytest.mark.parametrize("data", NOT_RECORDS.values(), ids=NOT_RECORDS)
def test_data_that_are_not_records_are_turned_down(data):
    assert verify._received(data) is None


def test_what_a_child_ships_is_received_whole(tmp_path):
    path = tmp_path / "shipped"
    verify._ship(os.open(path, os.O_WRONLY | os.O_CREAT), RECORDS)
    received = verify._received(path.read_bytes())
    assert received == RECORDS
    assert all(type(record) is verify.CaseRecord for record in received)


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


def affinity_calls(monkeypatch, mask):
    """The sched_setaffinity calls made here, with ``mask`` as the mask."""
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, set(cpus))),
                        raising=False)
    return calls


@pytest.mark.parametrize("cpu", [0, 2, 5])
def test_the_child_moves_off_its_parents_cpu_and_gets_its_mask_back(cpu, monkeypatch):
    mask = {0, 2, 5}
    calls = affinity_calls(monkeypatch, mask)
    verify._move_off(cpu)
    assert len(calls) == 2
    (pid, moved), restored = calls
    assert pid == 0 and len(moved) == 1 and moved < mask and cpu not in moved
    assert restored == (0, mask)


@pytest.mark.parametrize("mask,cpu", [({3}, 3), ({0, 1}, None)], ids=["one-cpu", "unknown-cpu"])
def test_the_child_stays_with_one_cpu_or_an_unknown_one(mask, cpu, monkeypatch):
    calls = affinity_calls(monkeypatch, mask)
    verify._move_off(cpu)
    assert calls == []


@pytest.mark.parametrize("call", ["sched_getaffinity", "sched_setaffinity"])
def test_a_refused_or_missing_affinity_call_only_skips_the_move(call, monkeypatch):
    monkeypatch.delattr(os, call, raising=False)
    verify._move_off(0)

    def refused(*args):
        raise OSError("not allowed")

    monkeypatch.setattr(os, call, refused, raising=False)
    verify._move_off(0)


def test_the_cpu_is_read_from_proc_or_not_at_all(monkeypatch, tmp_path):
    if Path("/proc/self/stat").is_file():
        assert verify._cpu_now() in os.sched_getaffinity(0)
    stat, real_open = tmp_path / "stat", open
    monkeypatch.setattr(verify, "open", lambda path, mode: real_open(stat, mode), raising=False)
    # field 39 comes after a name that holds ") "; fields 3..38 are 36 more
    fields = " R" + " 0" * 35 + " 7" + " 0" * 13
    for text, cpu in (("1 (a) b)" + fields, 7), ("", None), ("1 (a) b) R" + " 0" * 30, None),
                      ("1 (a)" + fields.replace("7", "x"), None)):
        stat.write_text(text)
        assert verify._cpu_now() == cpu
    stat.unlink()
    assert verify._cpu_now() is None


def test_the_forked_child_moves_off_the_cpu_read_before_the_fork(forks, monkeypatch, tmp_path):
    log = tmp_path / "affinity"

    def record(pid, cpus):
        with open(log, "a") as out:
            out.write(f"{os.getpid()} {pid} {sorted(cpus)}\n")

    monkeypatch.setattr(verify, "_cpu_now", lambda: 1)
    monkeypatch.setattr(os, "sched_setaffinity", record, raising=False)
    assert run_suite(SuiteSpec("all", 3, 3)).all_passed()
    assert len(forks) == 1
    lines = log.read_text().splitlines()
    child = lines[0].split()[0]
    assert child != str(os.getpid())
    assert lines == [f"{child} 0 [0]", f"{child} 0 [0, 1]"]


def test_a_child_refused_its_move_reports_as_the_serial_run(forks, capsys, monkeypatch):
    argv = ("verify", "--suite", "all", "--n-max", "5", "--i-max", "5")

    def refused(pid, cpus):
        raise OSError("not allowed")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    forked = report(argv, capsys)
    assert len(forks) == 1
    assert forked == serial_report(argv, capsys, monkeypatch)
    assert_no_child_left()

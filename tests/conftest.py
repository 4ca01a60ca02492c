import os
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls made during the test, with two CPUs usable whatever
    the host has, so a run of every suite takes the forked path."""
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    real, calls = os.fork, []

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return calls

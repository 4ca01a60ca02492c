"""Mutant table: a wrong input must fail the identity tag that reads it.

Each entry replaces one input of the certificates, at every name it is bound
to, by a wrong version, and ``verify --suite all`` must then fail the entry's
tag and exit 1.  The tags here belong to the suites a run of every suite
sends to its forked child, so the failures must come back across that
process boundary.  Every cache is cleared before and after each mutant.
"""

import json

import pytest

from charlier import classical as cl
from charlier import diffeq as dq
from charlier import pointmass as pm
from charlier import verify
from charlier.cli import main
from charlier.polynomials import A, N, X


def wrong_mirror(right):
    return lambda n: right(n) + X if n == 2 else right(n)


def wrong_offset(right):
    def weights(n):
        scale, offset = right(n)
        return (scale, offset + N * A) if n == 3 else (scale, offset)

    return weights


# tag, name of the input, modules that bind it, its wrong version from the right one
MUTANTS = [
    ("convolution", "charlier_mirror", (cl,), wrong_mirror),
    ("construction", "gen_weights", (pm, dq), wrong_offset),
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

"""Every index argument of the CLI is bounded by INDEX_LIMIT.

The bound is checked at parse time only: no command here gets past argument
parsing with an index at the limit or beyond it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from charlier.cli import INDEX_LIMIT, build_parser

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = {**os.environ, "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")}

# argv with the index left open, the namespace attribute it fills, and its
# smallest legal value
INDEX_ARGUMENTS = [
    (("poly", "charlier"), "n", 0),
    (("coeffs", "--max-i"), "max_i", 1),
    (("verify", "--n-max"), "n_max", 0),
    (("verify", "--i-max"), "i_max", 1),
    (("verify", "--corrupt-ai"), "corrupt_ai", 1),
    (("moments", "--max-k"), "max_k", 0),
]


def parse(prefix, value):
    return build_parser().parse_args([*prefix, str(value)])


@pytest.mark.parametrize("prefix,dest,low", INDEX_ARGUMENTS)
def test_limit_is_accepted(prefix, dest, low):
    assert getattr(parse(prefix, INDEX_LIMIT), dest) == INDEX_LIMIT
    assert getattr(parse(prefix, low), dest) == low


@pytest.mark.parametrize("prefix,dest,low", INDEX_ARGUMENTS)
@pytest.mark.parametrize("offset", [1, 10**20])
def test_above_limit_is_a_usage_error(prefix, dest, low, offset, capsys):
    with pytest.raises(SystemExit) as exc:
        parse(prefix, INDEX_LIMIT + offset)
    assert exc.value.code == 2
    assert f"must be in [{low}, {INDEX_LIMIT}]" in capsys.readouterr().err


@pytest.mark.parametrize("prefix,dest,low", INDEX_ARGUMENTS)
def test_below_range_is_a_usage_error(prefix, dest, low):
    with pytest.raises(SystemExit) as exc:
        parse(prefix, low - 1)
    assert exc.value.code == 2


def test_huge_index_exits_cleanly():
    result = subprocess.run(
        [sys.executable, "-m", "charlier", "poly", "charlier", "100000000000000000000"],
        capture_output=True,
        text=True,
        env=ENV,
        timeout=60,
    )
    assert result.returncode == 2
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1].startswith("charlier poly: error: argument n:")

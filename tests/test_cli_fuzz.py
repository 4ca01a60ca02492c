"""Generated argv for ``cli.main``: every call keeps the exit-code contract.

Indices around 0, around INDEX_LIMIT and beyond it, malformed numbers, every
suite and format, ``--out`` to paths that cannot be written, and
``--corrupt-ai`` orders that the run reads and that it does not.  Every call
ends in 0, 1 or 2 without a traceback, 1 only when a case failed, and 2 with
nothing on stdout.  Verify ranges stay at most 3, so a call takes
milliseconds.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from charlier.cli import INDEX_LIMIT, main

small = st.sampled_from(["-1", "0", "1", "2", "3"])
near_limit = st.sampled_from([str(INDEX_LIMIT - 1), str(INDEX_LIMIT), str(INDEX_LIMIT + 1)])
beyond = st.sampled_from([str(INDEX_LIMIT + 1), str(10**20)])
malformed = st.sampled_from(["", "x", "1.5", "-", "0x2", "1e3", "--1"])
# an index whose run stays cheap, and one taken where every value is cheap
cheap_index = st.one_of(small, beyond, malformed)
any_index = st.one_of(small, near_limit, beyond, malformed)

OPTIONS = {
    "coeffs": {"--format": st.sampled_from(["json", "csv", "latex", "xml"])},
    "poly": {},
    "verify": {
        "--suite": st.sampled_from(["classical", "generalized", "diffeq", "all", "bogus"]),
        "--corrupt-ai": any_index,
    },
    "moments": {"--max-k": any_index},
    "bogus": {},
}
# always given, so that no verify run falls back to the default ranges
REQUIRED = {
    "coeffs": {"--max-i": cheap_index},
    "verify": {"--n-max": cheap_index, "--i-max": cheap_index},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    pairs = [(flag, draw(values)) for flag, values in REQUIRED.get(command, {}).items()]
    pairs += [
        (flag, draw(values)) for flag, values in OPTIONS[command].items() if draw(st.booleans())
    ]
    if draw(st.booleans()):
        pairs.append(("--out", draw(st.sampled_from(["", "/nonexistent/x", "/dev/null/x"]))))
    argv = [command]
    if command == "poly":
        argv += [draw(st.sampled_from(["charlier", "generalized", "hermite"])), draw(any_index)]
    for flag, value in draw(st.permutations(pairs)):
        argv += [flag, value]
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(deadline=None, max_examples=150)
@given(argvs())
# a corrupt order the run reads, and one it does not
@example(["verify", "--suite", "diffeq", "--n-max", "2", "--i-max", "2", "--corrupt-ai", "2"])
@example(["verify", "--suite", "all", "--n-max", "1", "--i-max", "1", "--corrupt-ai", "3"])
def test_every_argv_keeps_the_exit_code_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    elif argv[0] == "verify":
        failed = json.loads(out)["summary"]["failed"]
        assert (failed > 0) == (code == 1)
    else:
        assert code == 0

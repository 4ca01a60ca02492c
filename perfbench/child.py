"""One benchmark child process: import the charlier CLI and run it once.

    python3 child.py STAMP_FILE [--trace DIR RUN_ID] [-- CLI_ARGS...]

The parent puts the checkout's ``src`` first on PYTHONPATH.  Right after
``charlier.cli`` is imported the child writes CLOCK_MONOTONIC, which every
process on the machine shares, to STAMP_FILE, so the parent can tell set-up
time from the rest.  Without ``--`` the child stops there (a set-up probe).
With ``--trace`` the layer tracer is installed before ``main`` runs and its
spans and metrics are written to DIR when ``main`` returns.  The CLI receives
only CLI_ARGS.
"""

import sys
import time


def main(argv: list[str]) -> int:
    stamp_file, rest = argv[0], argv[1:]
    trace = None
    if rest[:1] == ["--trace"]:
        trace, rest = rest[1:3], rest[3:]
    cli_args = rest[1:] if rest[:1] == ["--"] else None

    import charlier.cli

    stamp = time.clock_gettime(time.CLOCK_MONOTONIC)
    with open(stamp_file, "w", encoding="utf-8") as handle:
        handle.write(f"{stamp!r}\n{charlier.cli.__file__}\n")
    if cli_args is None:
        return 0
    if trace is None:
        return charlier.cli.main(cli_args)

    from pathlib import Path

    from tracing import Tracer

    tracer = Tracer(run_id=trace[1])
    tracer.install()
    try:
        return charlier.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.write(Path(trace[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

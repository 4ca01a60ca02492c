"""Benchmark of the charlier CLI, run end to end in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory, so there is nothing to build.  The harness is a closed loop
with one client: it starts one CLI process, waits for it to exit, then starts
the next, so two children never compete for the machine's cores.  Every child
is a fresh interpreter, so the ``functools.cache`` tables of the program start
cold, as they do for a user of the CLI.

Workloads, and why each was chosen:

verify-all      ``verify --suite all`` at its defaults (n_max = i_max = 12).
                The certificate run the CLI contract pays for; every module
                works in it and identities share heavily through the caches.
coeffs-deep     ``coeffs --max-i 20 --format json``.  Only builds and renders
                the coefficient tables: products of high degree and large
                coefficients that ``verify-all`` never reaches, and no operator
                application, inner product or suite runner.
verify-corrupt  ``verify --suite diffeq --n-max 8 --i-max 8 --corrupt-ai I``.
                The failure path: nonzero residuals are rendered into the
                report, and verdicts that stopped failing would no longer
                match the reference.  The seed draws the first I in 1..8;
                each round then runs all eight indices in turn from there, so
                runs with different seeds time the same set of cases.

``--trace 0`` runs whole rounds of the workload while another round still
fits in ``--seconds`` (at least one), between import-only set-up probes
(after one warm-up import), and reports the end-to-end metrics as medians
over the children:

wall_s       spawn of the child until it has exited
setup_s      spawn until ``charlier.cli`` is imported (probes and children)
cpu_s        the child's user plus system time
peak_rss_mb  the child's maximum resident set size

``--trace 1`` runs the workload's first job once untraced and once with the
layer tracer of ``tracing.py`` installed, and reports the per-layer metrics
of ``PER_LAYER``: counts and self times from the traced child, per identity
busy time, case counts and output size from the untraced one, the tracing
overhead, and the share of failed children.

Every child's exit code and output are checked against ``reference.json``:
the SHA-256 of the output, for a verify report after removing its
``elapsed_ms`` fields.  A child that crashes, times out, exits with another
code or prints other output counts as failed.  The last line on stdout is
the JSON result; the line before it records the environment.  Scratch files,
spans and a full record of each run go to ``.perfbench-out/``.

``python3 perfbench/selftest.py`` checks the checker;
``python3 perfbench/make_reference.py`` rewrites ``reference.json`` from the
program as it stands, for a change that alters outputs on purpose.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import select
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"

WORKLOADS = ("verify-all", "coeffs-deep", "verify-corrupt")
DEFAULT_SEED = 6  # draws the corrupt index I = 2
CORRUPT_INDICES = tuple(range(1, 9))
SETUP_PROBES = 5
# Every child is killed at this many seconds into the run, so the run ends
# within the 180 s a run may take.
RUN_LIMIT_S = 170.0

IDENTITY_TAGS = (
    "alternative-form", "backshift", "classical-infinite-order", "coeff-structure",
    "combined-equation", "construction", "convolution", "coprime-leading",
    "degree-escalation", "difference-equation", "inverse-matrix", "laguerre",
    "leading-x", "lowering", "mass-action", "mass-action-cross",
    "mass-action-shifted", "mass-free", "mixed-leading", "moment",
    "n-stratification", "norm", "orthogonality", "orthogonality-general",
    "second-order", "shift", "shifted-second-order", "structure", "uniqueness",
    "value-difference", "values",
)

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# (name, unit, better) of every metric a traced run reports
PER_LAYER = (
    ("polynomials.mul.calls", "count", "lower"),
    ("polynomials.mul.term_products", "count", "lower"),
    ("polynomials.mul.self_s", "s", "lower"),
    ("polynomials.shift_x.calls", "count", "lower"),
    ("polynomials.shift_x.self_s", "s", "lower"),
    ("polynomials.delta.calls", "count", "lower"),
    ("polynomials.add.calls", "count", "lower"),
    ("polynomials.add.self_s", "s", "lower"),
    ("polynomials.max_terms", "count", "lower"),
    ("polynomials.max_coeff_bits", "bit", "lower"),
    ("polynomials.str.calls", "count", "lower"),
    ("polynomials.str.self_s", "s", "lower"),
    ("classical.inner_product.calls", "count", "lower"),
    ("classical.inner_product.self_s", "s", "lower"),
    ("classical.charlier.hit_ratio", "ratio", "higher"),
    ("classical.moment.hit_ratio", "ratio", "higher"),
    ("pointmass.inner_product.calls", "count", "lower"),
    ("pointmass.inner_product.self_s", "s", "lower"),
    ("pointmass.gen_charlier.hit_ratio", "ratio", "higher"),
    ("diffeq.apply.calls", "count", "lower"),
    ("diffeq.apply.differences", "count", "lower"),
    ("diffeq.apply.self_s", "s", "lower"),
    ("diffeq.coeff_ai.self_s", "s", "lower"),
    ("diffeq.coeff_ai.hit_ratio", "ratio", "higher"),
    ("diffeq.solve_coefficients.self_s", "s", "lower"),
    ("verify.cases", "count", "higher"),
    ("verify.cases_failed", "count", "lower"),
    ("verify.runner.self_s", "s", "lower"),
    *((f"verify.identity.{tag}.busy_s", "s", "lower") for tag in IDENTITY_TAGS),
    ("cli.render.self_s", "s", "lower"),
    ("cli.output_bytes", "B", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
    ("failed_frac", "ratio", "lower"),
)


@dataclass(frozen=True)
class Job:
    """One CLI invocation; ``key`` names its entry in the reference."""

    key: str
    args: tuple[str, ...]


@dataclass
class Sample:
    """What one child did, and whether its exit code and output were right."""

    key: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float | None
    exit_code: int | None
    output_bytes: int
    ok: bool


def workload_round(workload: str, seed: int) -> list[Job]:
    """The jobs of one round of a workload, in order."""
    if workload == "verify-all":
        return [Job("verify-all", ("verify", "--suite", "all"))]
    if workload == "coeffs-deep":
        return [Job("coeffs-deep", ("coeffs", "--max-i", "20", "--format", "json"))]
    if workload != "verify-corrupt":
        raise ValueError(f"unknown workload {workload!r}")
    first = random.Random(seed).randrange(len(CORRUPT_INDICES))
    order = CORRUPT_INDICES[first:] + CORRUPT_INDICES[:first]
    return [
        Job(f"verify-corrupt/{i}",
            ("verify", "--suite", "diffeq", "--n-max", "8", "--i-max", "8", "--corrupt-ai", str(i)))
        for i in order
    ]


# -- one child ------------------------------------------------------------------


def now() -> float:
    """CLOCK_MONOTONIC, which the children stamp with too."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _wait(pid: int, timeout: float) -> tuple[int | None, object]:
    """Wait for the child; kill it after ``timeout`` seconds.  Returns its exit
    code (None if killed) and resource usage."""
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
        finally:
            os.close(fd)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.wait4(pid, 0)
        raise
    if not ready:
        os.kill(pid, signal.SIGKILL)
    _, status, usage = os.wait4(pid, 0)
    return (os.waitstatus_to_exitcode(status) if ready else None), usage


def spawn(cli_args: tuple[str, ...] | None, deadline: float,
          trace: tuple[Path, str] | None = None) -> tuple[dict, bytes]:
    """Run child.py once.  ``cli_args`` None makes an import-only probe."""
    OUT.mkdir(parents=True, exist_ok=True)
    stamp = OUT / "stamp"
    stamp.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), str(stamp)]
    if trace is not None:
        cmd += ["--trace", str(trace[0]), trace[1]]
    if cli_args is not None:
        cmd += ["--", *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with open(OUT / "stdout", "w+b") as out, open(OUT / "stderr", "wb") as err:
        start = now()
        pid = os.posix_spawn(sys.executable, cmd, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        exit_code, usage = _wait(pid, deadline - start)
        wall = now() - start
        out.seek(0)
        output = out.read()
    # The stamp holds the import time and the file charlier.cli came from.
    lines = stamp.read_text(encoding="utf-8").split("\n") if stamp.exists() else []
    setup = None
    if len(lines) >= 2 and Path(lines[1]).resolve().is_relative_to(SRC):
        setup = float(lines[0]) - start
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "setup_s": setup,
        "exit_code": exit_code,
    }, output


def normalized(job: Job, output: bytes) -> bytes:
    """The output as compared with the reference: a verify report without
    its timing fields, any other output as printed."""
    if job.args[0] != "verify":
        return output
    try:
        report = json.loads(output)
        for case in report["cases"]:
            case.pop("elapsed_ms", None)
    except (ValueError, KeyError, TypeError, AttributeError):
        return b"unparseable report\n" + output
    return json.dumps(report, sort_keys=True).encode()


def fingerprint(job: Job, output: bytes) -> str:
    return hashlib.sha256(normalized(job, output)).hexdigest()


def run_job(job: Job, reference: dict, deadline: float,
            trace: tuple[Path, str] | None = None) -> tuple[Sample, bytes]:
    stats, output = spawn(job.args, deadline, trace)
    expected = reference.get(job.key, {})
    ok = (
        stats["setup_s"] is not None
        and stats["exit_code"] == expected.get("exit")
        and fingerprint(job, output) == expected.get("sha256")
    )
    return Sample(job.key, output_bytes=len(output), ok=ok, **stats), output


# -- the two kinds of run ---------------------------------------------------------


def _setup_probes(deadline: float, warm_up: bool) -> list[float]:
    """Set-up times of SETUP_PROBES import-only children.  A warm-up child,
    which byte-compiles ``src`` in a fresh checkout, goes first uncounted."""
    samples = []
    for _ in range(SETUP_PROBES + warm_up):
        stats, _ = spawn(None, deadline)
        if stats["exit_code"] != 0 or stats["setup_s"] is None:
            err = (OUT / "stderr").read_text(encoding="utf-8", errors="replace")
            raise RuntimeError(f"charlier.cli does not import from {SRC}:\n{err}")
        samples.append(stats["setup_s"])
    return samples[warm_up:]


def measure_end_to_end(jobs: list[Job], seconds: float, reference: dict) -> dict:
    """Whole rounds of ``jobs`` while another fits in ``seconds``."""
    deadline = now() + RUN_LIMIT_S
    setups = _setup_probes(deadline, warm_up=True)
    samples: list[Sample] = []
    loop_start = now()
    round_s = 0.0
    while not samples or (
        now() + round_s <= loop_start + seconds and now() + round_s < deadline
    ):
        round_start = now()
        samples += [run_job(job, reference, deadline)[0] for job in jobs]
        round_s = now() - round_start
    # probes at both ends, so set-up is sampled in two states of the machine
    setups += _setup_probes(deadline, warm_up=False)
    setups += [s.setup_s for s in samples if s.setup_s is not None]
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in samples),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in samples),
    }
    return {
        "samples": samples,
        "setup_samples": setups,
        "metrics": {name: (metrics[name], unit) for name, unit in END_TO_END},
    }


def _report_metrics(output: bytes) -> dict[str, float]:
    """Case counts and per-identity busy time of a verify report."""
    metrics = {f"verify.identity.{tag}.busy_s": 0.0 for tag in IDENTITY_TAGS}
    metrics["verify.cases"] = metrics["verify.cases_failed"] = 0
    try:
        report = json.loads(output)
        metrics["verify.cases"] = len(report["cases"])
        metrics["verify.cases_failed"] = report["summary"]["failed"]
        for case in report["cases"]:
            key = f"verify.identity.{case['identity']}.busy_s"
            if key in metrics:
                metrics[key] += case.get("elapsed_ms", 0.0) / 1000.0
    except (ValueError, KeyError, TypeError, AttributeError):
        pass
    return metrics


def measure_layers(job: Job, reference: dict, run_id: str) -> dict:
    """The job once untraced and once traced."""
    deadline = now() + RUN_LIMIT_S
    _setup_probes(deadline, warm_up=True)
    trace_dir = OUT / "trace" / run_id
    (trace_dir / "trace.json").unlink(missing_ok=True)
    plain, output = run_job(job, reference, deadline)
    traced, _ = run_job(job, reference, deadline, (trace_dir, run_id))
    samples = [plain, traced]
    try:
        layers = json.loads((trace_dir / "trace.json").read_text(encoding="utf-8"))["metrics"]
    except (OSError, ValueError, KeyError):
        layers = {}
        traced.ok = False
    layers.update(_report_metrics(output) if job.args[0] == "verify" else {})
    layers["cli.output_bytes"] = plain.output_bytes
    layers["trace_overhead_frac"] = traced.wall_s / plain.wall_s - 1.0
    layers["failed_frac"] = sum(not s.ok for s in samples) / len(samples)
    return {
        "samples": samples,
        "trace_dir": str(trace_dir),
        "metrics": {name: (layers.get(name, 0), unit) for name, unit, _ in PER_LAYER},
    }


# -- environment and entry point --------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(**run: object) -> dict:
    """What a result must be read with: numbers compare only on one machine."""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        **run,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "charlier" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'charlier' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    reference = load_reference()
    jobs = workload_round(args.workload, args.seed)
    env = environment(workload=args.workload, seed=args.seed, seconds=args.seconds,
                      trace=args.trace, jobs=[job.args for job in jobs])
    try:
        if args.trace:
            run_id = f"{args.workload}-seed{args.seed}"
            result = measure_layers(jobs[0], reference, run_id)
        else:
            result = measure_end_to_end(jobs, args.seconds, reference)
    except RuntimeError as exc:
        print(exc, file=sys.stderr)
        return 1
    samples = result["samples"]
    failed = sum(not s.ok for s in samples)
    summary = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }
    record = dict(result, environment=env, samples=[asdict(s) for s in samples], summary=summary)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

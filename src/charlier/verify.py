"""Verification suites with machine-readable reports.

Every case is an exact symbolic check.  A case either passes, fails with the
nonzero residual polynomial rendered into the record, or fails with the error
message if it raised; the runner never crashes on a broken identity.  Case
lists are sorted by (identity tag, indices) so reports are deterministic up
to the timing fields.
"""

from __future__ import annotations

import functools
import marshal
import os
import sys
import time
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Union

from . import classical as cl
from . import diffeq as dq
from . import pointmass as pm
from .diffeq import CoeffProvider
from .polynomials import Poly, Var
from .version import __version__

SUITES = ("classical", "generalized", "diffeq")
# Run in a forked child beside the diffeq suite when a run selects them all.
FORKED_SUITES = ("classical", "generalized")

Index = Union[int, str]
Outcome = Union[Poly, bool]
Case = tuple[str, tuple[Index, ...], Callable[[], Outcome]]


class SuiteSpec(NamedTuple("SuiteSpec", [("suite", str), ("n_max", int), ("i_max", int)])):
    """Which suite to run and how far the index ranges go."""

    __slots__ = ()

    def __new__(cls, suite: str = "all", n_max: int = 12, i_max: int = 12) -> SuiteSpec:
        if suite != "all" and suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (n_max, i_max)):
            raise TypeError(f"n_max and i_max must be ints, got {n_max!r} and {i_max!r}")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if i_max < 1:
            raise ValueError("i_max must be >= 1")
        return super().__new__(cls, suite, n_max, i_max)

    def reads_ai(self, i: int) -> bool:
        """Whether a run of this spec reads the order-i coefficient a_i.

        Only the diffeq suite reads a_i (see ``_diffeq_cases``): the equation
        at degree n applies orders 1..n, the coefficient cases orders 1..i_max.
        """
        return self.suite in ("diffeq", "all") and 1 <= i <= max(self.n_max, self.i_max)


class CaseRecord(NamedTuple):
    identity: str
    indices: tuple[Index, ...]
    status: str
    elapsed_ms: float
    residual: str | None = None

    def to_json(self) -> dict:
        record: dict = {
            "identity": self.identity,
            "indices": list(self.indices),
            "status": self.status,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
        if self.residual is not None:
            record["residual"] = self.residual
        return record


class VerificationReport:
    def __init__(self, suite: str, n_max: int, i_max: int, cases: list[CaseRecord]) -> None:
        self.suite = suite
        self.n_max = n_max
        self.i_max = i_max
        self.cases = cases

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.status == "pass")

    @property
    def failed(self) -> int:
        return len(self.cases) - self.passed

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "tool": "charlier",
            "version": __version__,
            "suite": self.suite,
            "n_max": self.n_max,
            "i_max": self.i_max,
            "cases": [c.to_json() for c in self.cases],
            "summary": {
                "total": len(self.cases),
                "passed": self.passed,
                "failed": self.failed,
            },
        }


def _case_key(record: CaseRecord) -> tuple:
    mixed = tuple(
        (0, v) if isinstance(v, int) else (1, str(v)) for v in record.indices
    )
    return (record.identity, mixed)


def _run_cases(cases: Iterable[Case]) -> list[CaseRecord]:
    records = []
    for identity, indices, thunk in cases:
        start = time.perf_counter()
        try:
            outcome = thunk()
        except Exception as exc:  # surface as a failed case, not a crash
            outcome = False
            residual: str | None = f"error: {exc}"
        else:
            residual = None
        elapsed = (time.perf_counter() - start) * 1000.0
        if isinstance(outcome, Poly):
            ok = not outcome
            if not ok:
                residual = str(outcome)
        else:
            ok = bool(outcome)
        records.append(
            CaseRecord(identity, indices, "pass" if ok else "fail", elapsed, residual)
        )
    return records


# -- suite case generators ----------------------------------------------------


def _moment_structure(k: int) -> bool:
    m = cl.moment(k)
    if m.degree_in(Var.A) != (k if k else 0):
        return False
    for _, coeff in m.terms():
        if coeff.denominator != 1 or coeff < 0:
            return False
    return m.substitute(Var.A, 0) == (1 if k == 0 else 0)


def _classical_cases(spec: SuiteSpec) -> Iterable[Case]:
    n_max = spec.n_max
    for n in range(n_max + 1):
        yield "lowering", (n,), lambda n=n: cl.verify_lowering(n)
        yield "second-order", (n,), lambda n=n: cl.second_order_residual(n)
        yield "laguerre", (n,), lambda n=n: cl.verify_laguerre_relation(n)
        yield "values", (n,), lambda n=n: cl.verify_value_formulas(n)
        for label, p in (("-1", -1), ("n", n), ("1/2", Fraction(1, 2))):
            yield "shift", (n, label), lambda n=n, p=p: cl.shift_identity_residual(n, p)
    for n in range(1, n_max + 1):
        yield "value-difference", (n,), lambda n=n: cl.verify_value_difference(n)
    by_distance = functools.cache(lambda m: cl.convolution_residual(m, 0))
    for i in range(n_max + 1):
        for j in range(i + 1):
            yield "convolution", (i, j), lambda i=i, j=j: by_distance(i - j)
    for n in range(1, min(n_max, 6) + 1):
        # cl.verify_inverse_matrix(n), read from the run's sums by distance
        yield "inverse-matrix", (n,), lambda n=n: all(not by_distance(m) for m in range(n))
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            yield "orthogonality", (m, n), lambda m=m, n=n: cl.orthogonality_residual(m, n)
    for k in range(min(n_max, 10) + 1):
        yield "moment", (k,), lambda k=k: _moment_structure(k)


def _norm_positive(n: int) -> bool:
    # A proof that the norm is > 0 for a > 0, N >= 0: its N = 0 slice is
    # a^n/n!, and no coefficient is negative, so at such a point every other
    # term is >= 0.
    norm = pm.norm_general(n)
    if norm.substitute(Var.N, 0) != pm.norm_classical_slice(n):
        return False
    return all(coeff >= 0 for _, coeff in norm.terms())


def _generalized_cases(spec: SuiteSpec) -> Iterable[Case]:
    n_max = spec.n_max
    for n in range(n_max + 1):
        yield "mass-free", (n,), lambda n=n: pm.gen_charlier(n).substitute(Var.N, 0) - cl.charlier(n)
        yield "structure", (n,), lambda n=n: (
            pm.gen_charlier(n).degree_in(Var.X) == n
            and pm.gen_charlier(n).degree_in(Var.N) <= 1
        )
        yield "alternative-form", (n,), lambda n=n: pm.alternative_form_residual(n)
        yield "construction", (n,), lambda n=n: pm.verify_construction_steps(n)
        yield "norm", (n,), lambda n=n: _norm_positive(n)
    for n in range(n_max + 1):
        for m in range(n):
            yield "orthogonality-general", (m, n), lambda m=m, n=n: pm.orthogonality_residual(m, n)


def _stratified_residual(lhs: Poly) -> Poly:
    # The N^1 and N^2 layers of the equation must vanish separately; keeping
    # the second layer multiplied by N makes cancellation between them
    # impossible in the combined residual.
    n_var = Poly.variable(Var.N)
    return lhs.coeff_of(Var.N, 1) + n_var * lhs.coeff_of(Var.N, 2)


def _diffeq_cases(spec: SuiteSpec, coeffs: CoeffProvider | None) -> Iterable[Case]:
    # The orders of a_i read here are the ones SuiteSpec.reads_ai names.
    n_max, i_max = spec.n_max, spec.i_max
    # The only holder of the coefficient provider; shared by this run only.
    actions = dq.OperatorActions(coeffs)
    for n in range(n_max + 1):
        yield "difference-equation", (n,), lambda n=n: actions.equation(n)
        yield "n-stratification", (n,), lambda n=n: _stratified_residual(actions.equation(n))
        yield "mass-action", (n,), lambda n=n: actions.mass_action_residual(n)
        yield "mass-action-shifted", (n,), lambda n=n: actions.mass_action_shifted_residual(n)
        yield "mass-action-cross", (n,), lambda n=n: actions.mass_action_cross_residual(n)
        yield "classical-infinite-order", (n,), lambda n=n: actions.classical_infinite_order_residual(n)
        yield "combined-equation", (n,), lambda n=n: actions.combined_equation_residual(n)
    for n in range(1, n_max + 1):
        yield "shifted-second-order", (n,), lambda n=n: dq.shifted_second_order_residual(n)
    for n in range(min(n_max, 10) + 1):
        yield "backshift", (n,), lambda n=n: dq.backshift_residual(actions.chain("charlier", n))
    # Row i of the unit triangular system for a_1..a_i is the mass action on
    # C_i(x-1), pivot Delta^i C_i(x-1) = 1: rows 1..i at coeff_ai make it the
    # only solution.  A provider's run reads the rows from a plain instance.
    exact = actions if coeffs is None else dq.OperatorActions()
    for i in range(1, i_max + 1):
        yield "coeff-structure", (i,), lambda i=i: actions.verify_degree_claims(i)
        yield "leading-x", (i,), lambda i=i: actions.verify_leading_x(i)
        yield "uniqueness", (i,), lambda i=i: (
            actions.chain("shifted", i)[i] - 1
            or exact.mass_action_shifted_residual(i)
            or dq.coeff_ai(i) - actions.ai(i)
        )
    for i in range(1, i_max):
        yield "degree-escalation", (i,), lambda i=i: actions.verify_degree_escalation(i)
    for i in range(1, min(i_max, 6) + 1):
        yield "coprime-leading", (i,), lambda i=i: dq.verify_leading_coprime(i)
    for i in range(min(i_max, 8) + 1):
        for k in range(i + 1):
            for n in range(i, min(n_max, 10) + 1):
                yield "mixed-leading", (i, k, n), lambda i=i, k=k, n=n: actions.verify_mixed_leading(i, k, n)


def _suite_cases(names: Iterable[str], spec: SuiteSpec, coeffs: CoeffProvider | None) -> list[Case]:
    cases: list[Case] = []
    for name in names:
        if name == "classical":
            cases.extend(_classical_cases(spec))
        elif name == "generalized":
            cases.extend(_generalized_cases(spec))
        else:
            cases.extend(_diffeq_cases(spec, coeffs))
    return cases


# -- the forked half ------------------------------------------------------------


def _can_fork() -> bool:
    """Whether a forked child can run beside this process: fork exists, a
    second CPU is usable, and no other thread could hold a lock the child
    inherits.  The child moves to that CPU as it starts (``_move_off``)."""
    if not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    threading = sys.modules.get("threading")
    return cpus > 1 and (threading is None or threading.active_count() == 1)


def _cpu_now() -> int | None:
    """The CPU this process runs on, field 39 of /proc/self/stat (``os`` has
    no sched_getcpu), or None where it cannot be read."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            # the name in field 2 may hold spaces and parentheses
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _move_off(cpu: int | None) -> None:
    """Move this process to a CPU of its affinity mask other than ``cpu``,
    then give it back that whole mask.

    A forked child starts on its parent's CPU, and the scheduler often
    leaves a short-lived one there, so the two halves of a run take turns
    on one CPU.  The restored mask leaves the scheduler free to move the
    child later, and the child never runs outside it.  If the CPU or the
    mask is unknown, or a call is refused, the child stays where it is.
    """
    if cpu is None:
        return
    try:
        mask = os.sched_getaffinity(0)
        if len(mask) > 1:
            os.sched_setaffinity(0, {min(mask - {cpu})})
            os.sched_setaffinity(0, mask)
    except (AttributeError, OSError):
        pass


def _ship(fd: int, records: list[CaseRecord]) -> None:
    with open(fd, "wb") as pipe:
        pipe.write(marshal.dumps([tuple(r) for r in records]))


def _received(data: bytes) -> list[CaseRecord] | None:
    try:
        return [CaseRecord(*fields) for fields in marshal.loads(data)]
    except (EOFError, ValueError, TypeError):
        return None


def _run_beside(spec: SuiteSpec, coeffs: CoeffProvider | None) -> list[CaseRecord] | None:
    """Run the diffeq cases here while a forked child runs FORKED_SUITES.

    The child first moves off the CPU this process ran on just before the
    fork (``_move_off``).  The coefficient provider, the run's
    OperatorActions and the coeff_ai caches stay in this process.  The child
    sends its records back through a pipe as marshalled tuples.  If it fails
    or sends what does not unmarshal, this process runs that half itself, so
    a worker fault never drops or falsifies a case.  Returns None if no
    child could be started.
    """
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    cpu = _cpu_now()
    try:
        pid = os.fork()
    except OSError:
        pid = -1
    if pid == 0:
        code = 1
        try:
            _move_off(cpu)
            os.close(read_fd)
            _ship(write_fd, _run_cases(_suite_cases(FORKED_SUITES, spec, coeffs)))
            code = 0
        finally:
            # No stdio flush, atexit or test-runner hook runs in the child.
            os._exit(code)
    os.close(write_fd)
    if pid < 0:
        os.close(read_fd)
        return None
    with open(read_fd, "rb") as pipe:
        try:
            records = _run_cases(_suite_cases(("diffeq",), spec, coeffs))
            # To EOF before waiting: a child blocked on a full pipe never exits.
            data = pipe.read()
        except BaseException:
            import signal

            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            _, status = os.waitpid(pid, 0)
    shipped = _received(data) if status == 0 else None
    if shipped is None:
        shipped = _run_cases(_suite_cases(FORKED_SUITES, spec, coeffs))
    return records + shipped


def run_suite(spec: SuiteSpec, coeffs: CoeffProvider | None = None) -> VerificationReport:
    """Run the selected suite(s); coeffs overrides the order-i coefficient
    table in the diffeq suite (used for failure-path self tests).

    A run of every suite on a host with a second usable CPU runs
    FORKED_SUITES in a forked child beside the diffeq suite; the report is
    the same either way.
    """
    names = SUITES if spec.suite == "all" else (spec.suite,)
    records = _run_beside(spec, coeffs) if len(names) > 1 and _can_fork() else None
    if records is None:
        records = _run_cases(_suite_cases(names, spec, coeffs))
    records.sort(key=_case_key)
    return VerificationReport(spec.suite, spec.n_max, spec.i_max, records)

"""Layer tracing for one charlier CLI run, installed from outside the program.

``Tracer.install`` wraps every function defined in the traced modules (the
module-level functions, public and private, and the public methods plus the
arithmetic and rendering operators of their classes) and swaps each wrapper
in at every name the original is bound to in any ``charlier`` module, so calls
through an imported name are traced too.  ``src/`` is never edited.

Each wrapped call is one span: (span id, parent span id, name id, start, end),
kept in arrays in memory and written out by ``Tracer.write`` when the run
ends.  Every span of one file belongs to the same run, whose id is stored once
in the header.  Per span name the tracer also keeps the call count and the
self time: the span's duration minus the time its child wrappers took,
tracing bookkeeping included, so tracing cost is not charged to the parent.

Layer metrics group span names (``LAYERS``) and add counters taken at the
same boundaries: term products of ``Poly.__mul__``, the largest term count
and coefficient bit length of any product, sum or shift, the differences
evaluated inside ``DiffOperator.apply`` and the cache hit ratios of the
cached public functions.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from enum import Enum
from pathlib import Path

MODULES = ("polynomials", "classical", "pointmass", "diffeq", "verify", "cli")

# Operators traced on classes besides their public methods.
OPERATORS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__pow__", "__eq__", "__str__",
})

_POLY = "polynomials.Poly."
_RENDER = (
    "cli._cmd_coeffs", "cli._cmd_poly", "cli._cmd_moments", "cli._cmd_verify",
    "cli._coeffs_json", "cli._coeffs_csv", "cli._coeffs_latex", "cli.latex_poly",
    "cli._emit", "verify.VerificationReport.to_json", "verify.CaseRecord.to_json",
)

# layer name -> span names whose calls and self time it sums
LAYERS = {
    "polynomials.mul": (_POLY + "__mul__", _POLY + "__rmul__"),
    "polynomials.add": tuple(
        _POLY + op for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")
    ),
    "polynomials.shift_x": (_POLY + "shift_x",),
    "polynomials.delta": (_POLY + "delta", _POLY + "nabla"),
    "polynomials.str": (_POLY + "__str__",),
    "classical.inner_product": ("classical.inner_product_classical",),
    "pointmass.inner_product": ("pointmass.inner_product_general",),
    "diffeq.apply": ("diffeq.DiffOperator.apply",),
    "diffeq.coeff_ai": ("diffeq.coeff_ai",),
    "diffeq.solve_coefficients": ("diffeq.solve_coefficients",),
    "verify.runner": ("verify._run_cases",),
    "cli.render": _RENDER,
}

# metric name -> cached function whose cache_info gives the hit ratio
HIT_RATIOS = {
    "classical.charlier.hit_ratio": "classical.charlier",
    "classical.moment.hit_ratio": "classical.moment",
    "pointmass.gen_charlier.hit_ratio": "pointmass.gen_charlier",
    "diffeq.coeff_ai.hit_ratio": "diffeq.coeff_ai",
}

_SPAN_COLUMNS = (("id", "q"), ("parent", "q"), ("name", "i"), ("start", "d"), ("end", "d"))


def _coefficients(p) -> list:
    terms = getattr(p, "_terms", None)
    if not isinstance(terms, dict):
        terms = dict(p.terms())
    return list(terms.values())


def _size(p) -> int:
    """Term count of a Poly operand; a scalar operand counts as one term."""
    if not hasattr(p, "terms"):
        return 1
    terms = getattr(p, "_terms", None)
    return len(terms) if isinstance(terms, dict) else len(p.terms())


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.active: list[int] = []
        self.spans = {col: array(code) for col, code in _SPAN_COLUMNS}
        self.next_id = 0
        # frames of the open spans: [span id, time taken by child wrappers]
        self.stack: list[list] = [[-1, 0.0]]
        self.term_products = 0
        self.max_terms = 0
        self.max_coeff_bits = 0
        self.differences = 0
        self.cached: dict[str, object] = {}
        self._apply_id = -1

    # -- installation --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.active.append(0)
        return len(self.names) - 1

    def install(self) -> None:
        """Wrap the traced functions of the already imported package."""
        package = [m for n, m in sys.modules.items() if n == "charlier" or n.startswith("charlier.")]
        replaced: dict[int, object] = {}
        for short in MODULES:
            module = sys.modules[f"charlier.{short}"]
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, Enum):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (attr in OPERATORS or not attr.startswith("_")):
                            setattr(obj, attr, self._wrap(fn, f"{short}.{name}.{attr}"))
                elif _traceable(obj):
                    span = f"{short}.{name}"
                    if hasattr(obj, "cache_info"):
                        self.cached[span] = obj
                    replaced[id(obj)] = self._wrap(obj, span)
        for module in package:
            namespace = vars(module)
            for name, obj in list(namespace.items()):
                if id(obj) in replaced:
                    namespace[name] = replaced[id(obj)]

    def _wrap(self, fn, span_name: str):
        name_id = self._name_id(span_name)
        after = self._after_hook(span_name)
        if span_name in LAYERS["diffeq.apply"]:
            self._apply_id = name_id
        stack, calls, self_s, active = self.stack, self.calls, self.self_s, self.active
        ids, parents, names = self.spans["id"], self.spans["parent"], self.spans["name"]
        starts, ends = self.spans["start"], self.spans["end"]
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            parent = stack[-1]
            frame = [span_id, 0.0]
            stack.append(frame)
            active[name_id] += 1
            start = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                stack.pop()
                active[name_id] -= 1
                calls[name_id] += 1
                self_s[name_id] += end - start - frame[1]
                ids.append(span_id)
                parents.append(parent[0])
                names.append(name_id)
                starts.append(start)
                ends.append(end)
                if ok and after is not None:
                    after(args, result)
                parent[1] += clock() - start
            return result

        return functools.update_wrapper(wrapper, fn)

    def _after_hook(self, span_name: str):
        layer = next((k for k, v in LAYERS.items() if span_name in v), None)
        if layer == "polynomials.mul":
            return self._after_mul
        if layer in ("polynomials.add", "polynomials.shift_x"):
            return self._after_size
        if layer == "polynomials.delta":
            return self._after_difference
        return None

    def _after_size(self, args, result) -> None:
        if result is NotImplemented:
            return
        coeffs = _coefficients(result)
        if len(coeffs) > self.max_terms:
            self.max_terms = len(coeffs)
        if coeffs:
            bits = max(
                max(abs(c.numerator) for c in coeffs).bit_length(),
                max(c.denominator for c in coeffs).bit_length(),
            )
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _after_mul(self, args, result) -> None:
        if result is NotImplemented:
            return
        self.term_products += _size(args[0]) * _size(args[1])
        self._after_size(args, result)

    def _after_difference(self, args, result) -> None:
        if self.active[self._apply_id] > 0:
            self.differences += 1

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, hit ratios and size maxima."""
        index = {name: i for i, name in enumerate(self.names)}
        metrics: dict[str, float] = {}
        for layer, spans in LAYERS.items():
            ids = [index[s] for s in spans if s in index]
            metrics[f"{layer}.calls"] = sum(self.calls[i] for i in ids)
            metrics[f"{layer}.self_s"] = sum(self.self_s[i] for i in ids)
        metrics["polynomials.mul.term_products"] = self.term_products
        metrics["polynomials.max_terms"] = self.max_terms
        metrics["polynomials.max_coeff_bits"] = self.max_coeff_bits
        metrics["diffeq.apply.differences"] = self.differences
        for metric, span in HIT_RATIOS.items():
            fn = self.cached.get(span)
            info = fn.cache_info() if fn is not None else None
            total = info.hits + info.misses if info else 0
            metrics[metric] = info.hits / total if total else 0.0
        return metrics

    def write(self, directory: Path) -> None:
        """Write the spans, the totals per span name and the layer metrics."""
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.bin", "wb") as handle:
            for column, _ in _SPAN_COLUMNS:
                self.spans[column].tofile(handle)
        header = {
            "run_id": self.run_id,
            "count": len(self.spans["id"]),
            "columns": [list(c) for c in _SPAN_COLUMNS],
            "names": self.names,
            "calls": self.calls,
            "self_s": self.self_s,
            "metrics": self.layer_metrics(),
        }
        (directory / "trace.json").write_text(json.dumps(header) + "\n", encoding="utf-8")


def _traceable(obj) -> bool:
    if inspect.isfunction(obj):
        return not inspect.isgeneratorfunction(obj)
    return callable(obj) and hasattr(obj, "cache_info") and not inspect.isclass(obj)


def read_spans(directory: Path) -> tuple[dict, dict[str, array]]:
    """Load a trace written by ``Tracer.write``: the header and span columns."""
    header = json.loads((directory / "trace.json").read_text(encoding="utf-8"))
    count = header["count"]
    columns: dict[str, array] = {}
    with open(directory / "spans.bin", "rb") as handle:
        for column, code in header["columns"]:
            columns[column] = array(code)
            columns[column].fromfile(handle, count)
    return header, columns

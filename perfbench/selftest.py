"""Checks of the benchmark itself.

    python3 perfbench/selftest.py

1. BENCHMARK.json lists exactly the workloads and metrics run.py reports.
2. The checker is checked: one verify-corrupt job scored against the right
   reference has failed_frac 0.0; against a wrong output hash, or a wrong
   expected exit code, it has 1.0.
3. Two traced runs of that job give identical counts, and the spans written
   are well formed: one per traced call, each inside its parent.

Prints one line per check and exits 0 when all hold.  Takes about half a
minute.
"""

import copy
import json
import sys

from run import (END_TO_END, OUT, PER_LAYER, ROOT, WORKLOADS, load_reference,
                 measure_end_to_end, measure_layers, workload_round)
from tracing import read_spans

COUNTS = [name for name, unit, _ in PER_LAYER if unit in ("count", "bit")]


def failed_frac(result: dict) -> float:
    samples = result["samples"]
    return sum(not s.ok for s in samples) / len(samples)


def spans_well_formed(trace_dir) -> bool:
    header, spans = read_spans(trace_dir)
    if header["count"] != sum(header["calls"]):
        return False
    interval = dict(zip(spans["id"], zip(spans["start"], spans["end"])))
    for span_id, parent in zip(spans["id"], spans["parent"]):
        start, end = interval[span_id]
        if start > end:
            return False
        if parent != -1:
            if parent not in interval:
                return False
            outer_start, outer_end = interval[parent]
            if not outer_start <= start <= end <= outer_end:
                return False
    return True


def main() -> int:
    results = []

    def check(name: str, ok: bool, detail: object = "") -> None:
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail != "" else ""))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check("BENCHMARK.json workloads", [w["name"] for w in spec["workloads"]] == list(WORKLOADS))
    check("BENCHMARK.json end_to_end",
          [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END))
    check("BENCHMARK.json per_layer",
          [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER))

    reference = load_reference()
    job = workload_round("verify-corrupt", seed=6)[0]
    check("seed 6 draws corrupt index 2", job.key == "verify-corrupt/2", job.key)
    jobs = [job]
    frac = failed_frac(measure_end_to_end(jobs, 0, reference))
    check("right reference gives failed_frac 0.0", frac == 0.0, frac)
    wrong_hash = copy.deepcopy(reference)
    wrong_hash[job.key]["sha256"] = "0" * 64
    frac = failed_frac(measure_end_to_end(jobs, 0, wrong_hash))
    check("wrong output hash gives failed_frac 1.0", frac == 1.0, frac)
    wrong_exit = copy.deepcopy(reference)
    wrong_exit[job.key]["exit"] = 0
    frac = failed_frac(measure_end_to_end(jobs, 0, wrong_exit))
    check("wrong exit code gives failed_frac 1.0", frac == 1.0, frac)

    first = measure_layers(job, reference, "selftest-1")
    second = measure_layers(job, reference, "selftest-2")
    check("traced runs pass the checker",
          first["metrics"]["failed_frac"][0] == second["metrics"]["failed_frac"][0] == 0.0)
    diff = {n: (first["metrics"][n][0], second["metrics"][n][0])
            for n in COUNTS if first["metrics"][n][0] != second["metrics"][n][0]}
    check("two traced runs give identical counts", not diff, diff or "")
    calls = [json.loads((OUT / "trace" / run / "trace.json").read_text())["calls"]
             for run in ("selftest-1", "selftest-2")]
    check("two traced runs give identical calls per span", calls[0] == calls[1])
    check("spans are well formed", spans_well_formed(OUT / "trace" / "selftest-1"))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())

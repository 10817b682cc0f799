"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Checks, from the root of a checkout:

1. each workload prints exactly the end-to-end metrics of ``BENCHMARK.json``
   with their units (``--trace 0``), and exactly its per-layer metrics
   (``--trace 1``, on ``kws-int8-serve``), with ``correct`` true;
2. the same seed yields the same inputs, and another seed other inputs;
3. a perturbed reference output makes the output check fail, for int8
   (bitwise), float (tolerance) and the search's re-evaluation check.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = "3"

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import search_workload  # noqa: E402
import serve_workloads  # noqa: E402
from tracing import NullTracer  # noqa: E402

FAILURES = []


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(label)


def run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        return {"error": proc.stderr[-2000:]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names_and_units(spec: dict) -> None:
    wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    runs = [(w["name"], 0, wanted) for w in spec["workloads"]]
    runs.append(("kws-int8-serve", 1, layer_units))
    for workload, trace, units in runs:
        out = run_benchmark(workload, trace)
        label = f"{workload} --trace {trace}"
        if "error" in out:
            check(f"{label} runs", False, out["error"])
            continue
        got = {name: m["unit"] for name, m in out["metrics"].items()}
        check(f"{label} metric names and units", got == units,
              f"differs by {sorted(set(got.items()) ^ set(units.items()))}")
        check(f"{label} keys", sorted(out) == ["attempted", "correct", "failed", "metrics"])
        check(f"{label} output checks pass", out["correct"] is True)


def check_inputs_follow_seed() -> None:
    for workload in serve_workloads.WORKLOADS.values():
        a = serve_workloads.input_digest(workload, 5, 30)
        check(f"{workload.name} same seed, same inputs",
              a == serve_workloads.input_digest(workload, 5, 30))
        check(f"{workload.name} other seed, other inputs",
              a != serve_workloads.input_digest(workload, 6, 30))
    seeds = search_workload.sweep_seeds(5, 30)
    check("kws-search same seed, same sweep seeds", seeds == search_workload.sweep_seeds(5, 30))
    check("kws-search other seed, other sweep seeds", seeds != search_workload.sweep_seeds(6, 30))


def check_perturbed_references() -> None:
    original = serve_workloads.reference_outputs

    def perturbed(server, digests, inputs):
        refs = original(server, digests, inputs)
        for name, ref in refs.items():
            # One int8 output quantum, or 100x the float tolerance.
            step = np.min(np.abs(np.diff(np.unique(ref)))) if len(np.unique(ref)) > 1 else 1.0
            refs[name] = ref + (step if name.endswith("int8") else
                                100 * serve_workloads.FLOAT_TOLERANCE * np.max(np.abs(ref)))
        return refs

    serve_workloads.reference_outputs = perturbed
    try:
        for workload in serve_workloads.WORKLOADS.values():
            result = serve_workloads.run(workload, 1, float(SMOKE_SECONDS), NullTracer())
            check(f"{workload.name} perturbed reference fails the output check",
                  result["metrics"]["result_quality"] < 1.0 and any(
                      "batch-1 reference" in p for p in result["problems"]))
    finally:
        serve_workloads.reference_outputs = original

    original_rng = search_workload.candidate_rng
    search_workload.candidate_rng = lambda seed, index: original_rng(seed + 1, index)
    try:
        result = search_workload.run(1, float(SMOKE_SECONDS), NullTracer())
        check("kws-search re-evaluation from the wrong stream fails the check",
              any("re-evaluating" in p for p in result["problems"]))
    finally:
        search_workload.candidate_rng = original_rng


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_inputs_follow_seed()
    check_perturbed_references()
    check_names_and_units(spec)
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-test checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())

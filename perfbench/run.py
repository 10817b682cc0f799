"""Benchmark entry point.

    python3 perfbench/run.py --workload kws-int8-serve --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout of the repository (``src/repro`` must
exist). The workload runs in a fresh child process (``workload.py``) with
BLAS and OpenMP threads pinned to 1 before numpy is imported.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the
workload twice for half of ``--seconds`` each, untraced and then traced,
prints the per-layer metrics (the traced-minus-untraced difference of
each end-to-end metric among them) and writes the spans as Chrome
trace-event JSON under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: A run, traced or not, must end within 180 s.
RUN_TIMEOUT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS", None)
    env.pop("REPRO_DEBUG_CHECKS", None)
    return env


def run_child(args, trace: int, trace_out=None) -> dict:
    """Run one workload process; relay its non-result lines; parse the result."""
    command = [sys.executable, os.path.join(HERE, "workload.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / (1 + args.trace)), "--trace", str(trace)]
    if trace_out:
        command += ["--trace-out", trace_out]
    proc = subprocess.run(command, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S / (1 + args.trace))
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def with_units(values: dict, catalogue: list) -> dict:
    """Attach BENCHMARK.json's units; every catalogued name must be present."""
    missing = [m["name"] for m in catalogue if m["name"] not in values]
    extra = sorted(set(values) - {m["name"] for m in catalogue})
    if missing or extra:
        raise RuntimeError(f"metric names differ from BENCHMARK.json: missing "
                           f"{missing}, unexpected {extra}")
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in catalogue}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    untraced = run_child(args, 0)
    results = [untraced]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        traced = run_child(args, 1, trace_out)
        results.append(traced)
        values = dict(traced["layers"])
        for name, value in untraced["metrics"].items():
            values[f"trace_overhead.{name}"] = traced["metrics"][name] - value
        metrics = with_units(values, spec["per_layer"])
        print(f"trace written to {os.path.relpath(trace_out, ROOT)}")
    else:
        metrics = with_units(untraced["metrics"], spec["end_to_end"])

    problems = [p for r in results for p in r["problems"]]
    for problem in problems:
        print(f"check failed: {problem}")
    for digest in untraced["digests"]:
        print(f"front digest {digest}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

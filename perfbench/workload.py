"""One workload in one fresh process: ``python3 perfbench/workload.py``.

``run.py`` starts this file with BLAS/OpenMP threads pinned to 1 in the
environment; the process refuses to run when it finds them unpinned. It
prints an environment fingerprint, then one JSON line with the end-to-end
metrics (and, with ``--trace 1``, the per-layer figures) as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def unpinned_threads() -> list:
    """Names of thread settings that are not 1 (env vars, then OpenBLAS)."""
    bad = [f"{name}={os.environ.get(name)!r}" for name in THREAD_VARS
           if os.environ.get(name) != "1"]
    count = openblas_threads()
    if count is not None and count != 1:
        bad.append(f"OpenBLAS runtime threads={count}")
    return bad


def openblas_threads():
    """OpenBLAS's own thread count, read through ctypes; None if unknown."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def git_sha(root: str) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def fingerprint(root: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "loadavg": os.getloadavg(),
    }


def instrument(tracer) -> None:
    """Spans around every call into the layers the per-layer run reports."""
    from repro import obs
    from repro.quantization import kernels
    from repro.runtime.interpreter import Interpreter
    from repro.tensor import gemm

    tracer.wrap(Interpreter, "invoke", "runtime.Interpreter.invoke", "runtime")
    for name in ("conv2d_int", "depthwise_conv2d_int", "dense_int"):
        tracer.wrap(kernels, name, f"quantization.{name}", "quantization")
    for name in ("conv2d_forward", "conv2d_backward_weight", "conv2d_backward_input",
                 "depthwise_conv2d_forward", "depthwise_conv2d_backward_weight",
                 "depthwise_conv2d_backward_input"):
        tracer.wrap(gemm, name, f"tensor.{name}", "tensor")
    tracer.count_obs_calls(obs, ("incr", "observe", "span"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    bad = unpinned_threads()
    if bad:
        print(f"refusing to run with unpinned BLAS threads: {', '.join(bad)}", file=sys.stderr)
        return 3

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, here)
    print("fingerprint " + json.dumps(fingerprint(root)), flush=True)

    import layers
    import search_workload
    import serve_workloads
    from tracing import NullTracer, Tracer

    tracer = Tracer() if args.trace else NullTracer()
    if args.trace:
        instrument(tracer)
    if args.workload in serve_workloads.WORKLOADS:
        workload = serve_workloads.WORKLOADS[args.workload]
        result = serve_workloads.run(workload, args.seed, args.seconds, tracer)
    elif args.workload == "kws-search":
        result = search_workload.run(args.seed, args.seconds, tracer)
    else:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.trace:
        tracer.restore()

    metrics = dict(result["metrics"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out = {
        "metrics": metrics,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "problems": result["problems"],
        "digests": result.get("digests", []),
    }
    if args.trace:
        with open(os.path.join(root, "BENCHMARK.json")) as handle:
            names = [m["name"] for m in json.load(handle)["per_layer"]]
        out["layers"] = layers.per_layer(result, tracer, names)
        if args.trace_out:
            tracer.write_chrome(args.trace_out, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer figures of a traced run, under fixed names.

The names are those of ``BENCHMARK.json``'s ``per_layer`` list. Every
workload reports every name. A layer a workload does not exercise reads 0
there (the int8 kernels on ``mixed-float-serve``, the search on
the serve workloads, the server on ``kws-search``): those are the
"should not move" cells of the table in ``README.md``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import obs
from repro.hw.devices import MEDIUM
from repro.obs.bridge import modeled_vs_measured
from repro.runtime.interpreter import Interpreter

from serve_workloads import MAX_BATCH

KINDS = ("conv2d", "depthwise_conv2d", "dense")
BATCHES = (1, MAX_BATCH)
PROBE_REPEATS = 5


def probe_kernels(graph, payloads: np.ndarray) -> Dict:
    """Per-model invoke time and per-op-kind kernel time at batch 1 and 16.

    Invoke wall time is measured with obs off; per-op times come from
    ``Interpreter.last_op_timings``, which is recorded while obs is on.
    Each figure is the median of ``PROBE_REPEATS`` invocations.
    """
    interp = Interpreter(graph, max_batch=MAX_BATCH)
    kind_of = {op.name: op.kind for op in graph.ops}
    out: Dict = {"invoke_ms": {}, "op_ms": {}}
    for batch in BATCHES:
        x = np.resize(payloads, (batch,) + payloads.shape[1:])
        interp.invoke(x)
        walls = []
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            interp.invoke(x)
            walls.append(time.perf_counter() - start)
        out["invoke_ms"][batch] = float(np.median(walls)) * 1e3
        per_kind: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        with obs.enabled_scope(True):
            for _ in range(PROBE_REPEATS):
                interp.invoke(x)
                sums = {kind: 0.0 for kind in KINDS}
                for name, seconds in interp.last_op_timings.items():
                    if kind_of[name] in sums:
                        sums[kind_of[name]] += seconds
                for kind in KINDS:
                    per_kind[kind].append(sums[kind])
        out["op_ms"][batch] = {kind: float(np.median(v)) * 1e3 for kind, v in per_kind.items()}
    return out


def measured_over_modeled(graph, payload: np.ndarray) -> float:
    """Measured host seconds per batch-1 invoke over the modeled MCU
    seconds of :mod:`repro.hw` (simulated, on the STM32F746ZG)."""
    rows = modeled_vs_measured(graph, MEDIUM, batch=payload[None], repeats=PROBE_REPEATS)
    modeled = sum(r.modeled_s for r in rows if r.modeled_s is not None)
    measured = sum(r.measured_s for r in rows)
    return measured / modeled if modeled else 0.0


def per_layer(result: Dict, tracer, names: List[str]) -> Dict[str, float]:
    """The traced run's value of every per-layer name in ``names`` except
    ``trace_overhead.*``, which ``run.py`` fills in from both runs."""
    values = {name: 0.0 for name in names if not name.startswith("trace_overhead.")}
    layers = result["layers"]

    if "graphs" in result:
        total = sum(result["shares"].values())
        for model, graph in result["graphs"].items():
            payloads = result["payloads"][model]
            probe = probe_kernels(graph, payloads)
            share = result["shares"][model] / total
            layer = "quantization" if model.endswith("int8") else "tensor"
            for batch in BATCHES:
                values[f"runtime.invoke_ms.{model}.b{batch}"] = probe["invoke_ms"][batch]
                for kind in KINDS:
                    # Expected kernel time per request of the workload's mix.
                    values[f"{layer}.op_ms.{kind}.b{batch}"] += share * probe["op_ms"][batch][kind]
            values[f"runtime.measured_over_modeled.{model}"] = measured_over_modeled(
                graph, payloads[0]
            )

    serve = layers.get("serve")
    if serve is not None:
        children = tracer.children()
        submits = [s.duration for s in tracer.spans if s.name == "serve.submit"]
        polls = [
            tracer.self_seconds(s, children)
            for s in tracer.spans
            if s.name == "serve.poll"
            and any(c.layer == "runtime" for c in children.get(s.sid, ()))
        ]
        waits = serve["queue_wait_ms"]
        values.update({
            "serve.submit_us": float(np.median(submits)) * 1e6,
            "serve.poll_self_ms": float(np.median(polls)) * 1e3,
            "serve.queue_wait_ms.p50": float(np.percentile(waits, 50)),
            "serve.queue_wait_ms.p95": float(np.percentile(waits, 95)),
            "serve.batch_size.mean": serve["batch_size_mean"],
            "serve.dispatches": float(serve["dispatches"]),
            "serve.retries": float(serve["retries"]),
            "serve.register_s": serve["register_s"],
            "obs.calls_per_request": tracer.obs_calls / layers["bench"]["sent"],
        })
        for code, count in serve["shed"].items():
            values[f"serve.shed.{code}"] = float(count)
        values["quantization.export_s"] = layers["quantization"]["export_s"]
        values["bench.gen_lag_p99_ms"] = float(np.percentile(layers["bench"]["gen_lag_ms"], 99))

    nas = layers.get("nas")
    if nas is not None:
        for key, value in nas.items():
            values[f"nas.{key}"] = float(value)

    bench = layers["bench"]
    values["bench.sent"] = float(bench["sent"])
    values["bench.completed"] = float(bench["completed"])
    values["bench.error_rate"] = float(bench["error_rate"])
    for layer, seconds in tracer.self_seconds_by_layer().items():
        values[f"self_s.{layer}"] = seconds
    return values

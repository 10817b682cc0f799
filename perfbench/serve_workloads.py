"""The two serving workloads: ``kws-int8-serve`` and ``mixed-float-serve``.

Each run has three phases on one :class:`repro.serve.ModelServer` with the
real monotonic clock:

1. **Set-up**: export the models, register them, one warm-up dispatch per
   model. It is timed once before the open loop and again, on a server
   that is then dropped, at every pause of the open loop.
2. **Open loop**: Poisson arrivals at a fixed rate, well below capacity.
   Every request is timed from when it was *due*, so a stall in the loop
   is charged to the requests it delays.
3. **Backlog**, interleaved with the open loop: at ``PAUSES`` points the
   arrivals pause while a fixed backlog per tenant drains at
   ``max_batch``. Capacity comes from the interquartile mean of the
   per-batch completion intervals, so one stall cannot swing it.

Outputs are checked against a batch-1 ``Interpreter.invoke`` of the same
registered graph, computed outside the timed phases.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.speech_commands import make_kws_dataset
from repro.errors import GraphError
from repro.models.micronets import micronet_ad_s, micronet_kws_s, micronet_vww_s
from repro.models.spec import export_float_graph, export_graph
from repro.runtime.interpreter import Interpreter
from repro.serve import ModelServer, TenantConfig, make_payload_pool
from repro.serve.server import (
    SHED_CIRCUIT,
    SHED_DEADLINE,
    SHED_EXECUTION,
    SHED_QUEUE_FULL,
    SHED_TIMEOUT,
)

from stats import iqm

SHED_CODES = (SHED_QUEUE_FULL, SHED_DEADLINE, SHED_EXECUTION, SHED_TIMEOUT, SHED_CIRCUIT)
#: Backlog drains interleaved with the open loop, spread over the run so a
#: burst of load from elsewhere on the machine cannot decide the capacity.
PAUSES = 10
MAX_BATCH = 16
PAYLOAD_POOL = 32
#: Server deadlines are this multiple of the workload's latency limit, so a
#: transient stall shows as a missed limit rather than as a shed request.
DEADLINE_FACTOR = 4.0
#: Float outputs may differ from batch 1 by this share of the model's
#: largest output magnitude over the payload pool: coalesced float batches
#: run BLAS with another summation order (measured up to 1.8e-11 on outputs
#: of ~3e-5, ~6e-7). The scale is the model's, not each output's: rounding
#: error follows the size of the sums, and some VWW-S logits cancel to
#: ~3e-8 while differing from batch 1 by ~4e-13.
FLOAT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class Tenant:
    name: str  #: model label used in metric names
    share: float  #: share of open-loop requests


@dataclass(frozen=True)
class ServeWorkload:
    name: str
    tenants: Tuple[Tenant, ...]
    int8: bool
    rate_rps: float
    limit_s: float
    backlog_batches: int  #: full batches per tenant in one backlog drain
    backlog_s: float  #: time set aside for all backlog drains

    def open_loop_requests(self, seconds: float) -> int:
        return max(1, int(self.rate_rps * max(seconds - self.backlog_s, 1.0)))


KWS_INT8 = ServeWorkload(
    name="kws-int8-serve",
    tenants=(Tenant("kws_s_int8", 1.0),),
    int8=True,
    rate_rps=6.0,
    limit_s=0.250,
    backlog_batches=1,
    backlog_s=4.5,
)
MIXED_FLOAT = ServeWorkload(
    name="mixed-float-serve",
    tenants=(Tenant("kws_s", 0.5), Tenant("ad_s", 0.3), Tenant("vww_s", 0.2)),
    int8=False,
    rate_rps=150.0,
    limit_s=0.050,
    backlog_batches=4,
    backlog_s=4.5,
)

ARCHS = {
    "kws_s_int8": micronet_kws_s,
    "kws_s": micronet_kws_s,
    "ad_s": micronet_ad_s,
    "vww_s": micronet_vww_s,
}


# ----------------------------------------------------------------------
# Inputs: everything the program receives is drawn here from the seed.
# ----------------------------------------------------------------------
@dataclass
class ServeInputs:
    calibration: np.ndarray  #: int8 calibration features (empty for float)
    payloads: Dict[str, np.ndarray]  #: tenant -> payload pool
    gaps_s: np.ndarray  #: open-loop inter-arrival gaps
    tenant_of: np.ndarray  #: open-loop tenant index per request
    payload_of: np.ndarray  #: open-loop payload index per request


def make_inputs(workload: ServeWorkload, seed: int, seconds: float) -> ServeInputs:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E7]))
    kws = make_kws_dataset(PAYLOAD_POOL + 16, rng=int(rng.integers(2**31)))
    payloads: Dict[str, np.ndarray] = {}
    for tenant in workload.tenants:
        if tenant.name.startswith("kws"):
            payloads[tenant.name] = kws.features[16:]
        else:
            shape = ARCHS[tenant.name]().input_shape
            payloads[tenant.name] = make_payload_pool(
                shape, PAYLOAD_POOL, seed=int(rng.integers(2**31))
            )
    count = workload.open_loop_requests(seconds)
    shares = np.array([t.share for t in workload.tenants])
    return ServeInputs(
        calibration=kws.features[:16] if workload.int8 else kws.features[:0],
        payloads=payloads,
        gaps_s=rng.exponential(1.0 / workload.rate_rps, size=count),
        tenant_of=rng.choice(len(workload.tenants), size=count, p=shares / shares.sum()),
        payload_of=rng.integers(0, PAYLOAD_POOL, size=count),
    )


# ----------------------------------------------------------------------
def setup_server(workload: ServeWorkload, inputs: ServeInputs, tracer) -> Tuple[
    ModelServer, Dict[str, str], float, float
]:
    """Export, register and warm every tenant; returns the server, the
    tenant digests, the export seconds and the register seconds."""
    server = ModelServer()
    digests: Dict[str, str] = {}
    export_s = register_s = 0.0
    config = TenantConfig(
        max_batch=MAX_BATCH, default_deadline_s=DEADLINE_FACTOR * workload.limit_s
    )
    for tenant in workload.tenants:
        arch = ARCHS[tenant.name]()
        start = time.perf_counter()
        name, layer = (("quantization.export_graph", "quantization") if workload.int8
                       else ("models.export_float_graph", "bench"))
        with tracer.span(name, layer):
            if workload.int8:
                graph = export_graph(arch, calibration=inputs.calibration)
            else:
                graph = export_float_graph(arch)
        middle = time.perf_counter()
        with tracer.span("serve.register", "serve"):
            digests[tenant.name] = server.register(graph, config)
        register_s += time.perf_counter() - middle
        export_s += middle - start
    for tenant in workload.tenants:
        server.submit(digests[tenant.name], inputs.payloads[tenant.name][0], tag=None)
    server.run_until_idle()
    warm = server.drain()
    if len(warm) != len(workload.tenants) or not all(r.ok for r in warm):
        raise RuntimeError("warm-up dispatch failed")
    return server, digests, export_s, register_s


def timed_setup(workload: ServeWorkload, inputs: ServeInputs, tracer):
    """``((server, digests), (setup_s, export_s, register_s))``."""
    start = time.perf_counter()
    server, digests, export_s, register_s = setup_server(workload, inputs, tracer)
    return (server, digests), (time.perf_counter() - start, export_s, register_s)


def reference_outputs(server: ModelServer, digests: Dict[str, str],
                      inputs: ServeInputs) -> Dict[str, np.ndarray]:
    """Batch-1 invoke of each registered graph on every pooled payload."""
    refs: Dict[str, np.ndarray] = {}
    for name, digest in digests.items():
        interp = Interpreter(server.pool(digest).graph)
        pool = inputs.payloads[name]
        refs[name] = np.stack([interp.invoke(pool[i:i + 1])[0] for i in range(len(pool))])
    return refs


def tolerances(refs: Dict[str, np.ndarray], int8: bool) -> Dict[str, Optional[float]]:
    """Per tenant: None (bitwise) for int8, else the float tolerance."""
    return {name: None if int8 else FLOAT_TOLERANCE * float(np.max(np.abs(ref)))
            for name, ref in refs.items()}


def output_matches(output: np.ndarray, reference: np.ndarray, atol: Optional[float]) -> bool:
    """Bitwise equal when ``atol`` is None, else within ``atol``."""
    if output.shape != reference.shape:
        return False
    if atol is None:
        return bool(np.array_equal(output, reference))
    return bool(np.max(np.abs(output - reference)) <= atol)


# ----------------------------------------------------------------------
@dataclass
class OpenLoopRecord:
    due: np.ndarray
    sent_at: np.ndarray
    finish: np.ndarray  #: NaN until answered
    ok: np.ndarray
    queue_s: np.ndarray
    outputs: List[object]


def run_open_loop(server: ModelServer, digests: Dict[str, str], workload: ServeWorkload,
                  inputs: ServeInputs, tracer, pause) -> OpenLoopRecord:
    """Send every request at its due time; at ``PAUSES`` evenly spaced
    points, once the server is idle, call ``pause()`` and shift the rest
    of the schedule by the time it took."""
    count = len(inputs.gaps_s)
    names = [t.name for t in workload.tenants]
    clock = server.clock
    rec = OpenLoopRecord(
        due=clock.now() + 0.01 + np.cumsum(inputs.gaps_s),
        sent_at=np.full(count, np.nan),
        finish=np.full(count, np.nan),
        ok=np.zeros(count, dtype=bool),
        queue_s=np.full(count, np.nan),
        outputs=[None] * count,
    )
    pause_at = [count * k // (PAUSES + 1) for k in range(1, PAUSES + 1)]
    deadline = DEADLINE_FACTOR * workload.limit_s
    sent = 0
    tracer.counting = True
    while True:
        now = clock.now()
        while sent < count and rec.due[sent] <= now:
            name = names[inputs.tenant_of[sent]]
            with tracer.span("serve.submit", "serve") as span:
                server.submit(digests[name], inputs.payloads[name][inputs.payload_of[sent]],
                              deadline_s=deadline, tag=sent)
            span.requests.append(sent)
            rec.sent_at[sent] = now
            sent += 1
        with tracer.span("serve.poll", "serve") as poll_span:
            server.poll()
        with tracer.span("serve.drain", "serve") as drain_span:
            responses = server.drain()
        for response in responses:
            i = response.tag
            poll_span.requests.append(i)
            drain_span.requests.append(i)
            rec.finish[i] = response.finish_s
            rec.ok[i] = response.ok
            rec.queue_s[i] = response.queue_s
            rec.outputs[i] = response.output
        idle = server.queued() == 0
        if sent >= count and idle:
            tracer.counting = False
            return rec
        if pause_at and sent >= pause_at[0] and idle:
            pause_at.pop(0)
            tracer.counting = False
            started = clock.now()
            pause()
            rec.due[sent:] += clock.now() - started
            tracer.counting = True
            continue
        wake = server.next_wake()
        target = rec.due[sent] if sent < count else np.inf
        if wake is not None:
            target = min(target, wake)
        delay = target - clock.now()
        if delay > 0:
            time.sleep(delay)


class Backlogs:
    """What runs at each pause of the open loop: one timed set-up of a
    throwaway server, then a fixed backlog per tenant drained at
    ``max_batch``.

    Every drain's per-batch completion intervals are kept per tenant; the
    capacity is ``max_batch`` over their interquartile mean.
    """

    def __init__(self, server: ModelServer, digests: Dict[str, str], workload: ServeWorkload,
                 inputs: ServeInputs, tracer) -> None:
        self.workload = workload
        self.inputs = inputs
        self.setups: List[Tuple[float, float, float]] = []
        self.server = server
        self.digests = digests
        self.size = workload.backlog_batches * MAX_BATCH
        self.tracer = tracer
        self.intervals: Dict[str, List[float]] = {name: [] for name in digests}
        self.drain_s: List[float] = []
        self.responses: List[Tuple[str, object]] = []
        self.sent = 0
        self.dispatches = 0

    def __call__(self) -> None:
        self.setups.append(timed_setup(self.workload, self.inputs, self.tracer)[1])
        started = self.server.clock.now()
        dispatches = self.server.stats.dispatches
        for name in self.digests:
            self.intervals[name].extend(self._drain(name))
        self.drain_s.append(self.server.clock.now() - started)
        self.dispatches += self.server.stats.dispatches - dispatches

    def _drain(self, name: str) -> List[float]:
        server, payloads = self.server, self.inputs.payloads[name]
        last = server.clock.now()
        for i in range(self.size):
            server.submit(self.digests[name], payloads[i % len(payloads)], deadline_s=60.0,
                          tag=("backlog", i % len(payloads)))
        self.sent += self.size
        intervals = []
        while server.queued():
            with self.tracer.span("serve.poll", "serve"):
                server.poll()
            with self.tracer.span("serve.drain", "serve"):
                drained = server.drain()
            for finish in sorted({r.finish_s for r in drained}):
                intervals.append(finish - last)
                last = finish
            self.responses.extend((name, r) for r in drained)
        return intervals

    def saturated_rps(self, name: str) -> float:
        return MAX_BATCH / iqm(self.intervals[name])


# ----------------------------------------------------------------------
def run(workload: ServeWorkload, seed: int, seconds: float, tracer) -> Dict:
    """One full serve run; returns e2e metrics, per-layer data and checks."""
    inputs = make_inputs(workload, seed, seconds)

    (server, digests), first_setup = timed_setup(workload, inputs, tracer)
    refs = reference_outputs(server, digests, inputs)
    names = [t.name for t in workload.tenants]

    backlogs = Backlogs(server, digests, workload, inputs, tracer)
    dispatches_before = server.stats.dispatches
    open_loop = run_open_loop(server, digests, workload, inputs, tracer, backlogs)
    open_dispatches = server.stats.dispatches - dispatches_before - backlogs.dispatches
    rps = {name: backlogs.saturated_rps(name) for name in names}
    setups = [first_setup] + backlogs.setups
    setup_s, export_s, register_s = (iqm(column) for column in zip(*setups))

    # --- checks (outside every timed phase) ------------------------------
    problems: List[str] = []
    atol = tolerances(refs, workload.int8)
    ok_idx = np.flatnonzero(open_loop.ok)
    matched = sum(
        output_matches(
            open_loop.outputs[i],
            refs[names[inputs.tenant_of[i]]][inputs.payload_of[i]],
            atol[names[inputs.tenant_of[i]]],
        )
        for i in ok_idx
    )
    backlog_sent = backlogs.sent
    backlog_ok = sum(r.ok for _, r in backlogs.responses)
    backlog_match = sum(
        output_matches(r.output, refs[name][r.tag[1]], atol[name])
        for name, r in backlogs.responses if r.ok
    )
    total_ok = len(ok_idx) + backlog_ok
    quality = (matched + backlog_match) / total_ok if total_ok else 0.0
    if quality != 1.0:
        problems.append(f"{total_ok - matched - backlog_match} of {total_ok} OK outputs "
                        f"differ from the batch-1 reference")
    stats = server.stats
    try:
        stats.verify_conservation(queued=server.queued())
    except GraphError as exc:  # the ledger's own error names the violation
        problems.append(str(exc))
    sent_total = len(open_loop.due) + backlog_sent + len(workload.tenants)
    if stats.submitted != sent_total or stats.completed + stats.shed_total != sent_total:
        problems.append(f"sent {sent_total} != completed {stats.completed} + shed "
                        f"{stats.shed_total} (submitted {stats.submitted})")
    if np.isnan(open_loop.finish).any():
        problems.append("open-loop requests left unanswered")

    latency = open_loop.finish - open_loop.due
    within = open_loop.ok & (latency <= workload.limit_s)
    shares = {t.name: t.share for t in workload.tenants}
    total_share = sum(shares.values())
    combined_rps = 1.0 / sum(shares[n] / total_share / rps[n] for n in names)
    ok_latency = latency[open_loop.ok]
    sent = len(open_loop.due)
    shed = int(sent - open_loop.ok.sum())
    return {
        "metrics": {
            "setup_s": setup_s,
            "latency_p50_ms": float(np.percentile(ok_latency, 50)) * 1e3,
            "latency_p95_ms": float(np.percentile(ok_latency, 95)) * 1e3,
            "slo_attainment": float(within.sum()) / sent,
            "saturated_rps": combined_rps,
            "time_to_result_s": iqm(backlogs.drain_s),
            "result_quality": quality,
        },
        "attempted": sent + backlog_sent,
        "failed": shed + (backlog_sent - backlog_ok),
        "problems": problems,
        "layers": {
            "serve": {
                "register_s": register_s,
                "queue_wait_ms": open_loop.queue_s[open_loop.ok] * 1e3,
                "batch_size_mean": float(open_loop.ok.sum()) / max(open_dispatches, 1),
                "dispatches": open_dispatches,
                "shed": {code: stats.shed.get(code, 0) for code in SHED_CODES},
                "retries": stats.retries,
            },
            "quantization": {"export_s": export_s if workload.int8 else 0.0},
            "bench": {
                "gen_lag_ms": (open_loop.sent_at - open_loop.due) * 1e3,
                "sent": sent,
                "completed": int(open_loop.ok.sum()),
                "error_rate": (shed + backlog_sent - backlog_ok) / (sent + backlog_sent),
            },
        },
        "graphs": {name: server.pool(digests[name]).graph for name in names},
        "payloads": inputs.payloads,
        "shares": shares,
    }


WORKLOADS: Dict[str, ServeWorkload] = {w.name: w for w in (KWS_INT8, MIXED_FLOAT)}


def input_digest(workload: ServeWorkload, seed: int, seconds: float) -> str:
    """Digest of every generated input (the self-test's same-seed check)."""
    inputs = make_inputs(workload, seed, seconds)
    h = hashlib.sha256()
    for array in (inputs.calibration, inputs.gaps_s, inputs.tenant_of, inputs.payload_of,
                  *[inputs.payloads[k] for k in sorted(inputs.payloads)]):
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()

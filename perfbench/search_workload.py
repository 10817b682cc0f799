"""The ``kws-search`` workload: proxy-screened random search on the fabric.

``RandomSearch`` over the default ``DSCNNSearchSpace`` (KWS 49x10x1, 12
classes) with zero-cost proxy screening, a real training oracle
(``MiniTaskOracle``) and the in-process serial executor. A run makes
``sweeps_for(seconds)`` sweeps, each from cold geometry memo caches, and
reports medians over them (means for the front's hypervolume).

What the seed draws: per sweep, the sweep seed, which keys the oracle's
task data and every candidate's weight init and batch order. What it
does not draw: the proposal stream and the proxy screen's seed, fixed per
sweep slot (``PROPOSAL_SEEDS``), so every run trains the same candidates.
With those drawn from the seed too, one sweep's time swings by a fifth
with the architectures it happens to sample, which would swamp any change
to the program.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.hw.latency import clear_latency_caches
from repro.nas.blackbox import DSCNNSearchSpace, RandomSearch, candidate_rng
from repro.nas.budgets import ResourceBudget, clear_profile_cache
from repro.nas.fabric import MiniTaskOracle, SerialExecutor, SweepResult, run_sweep
from repro.nas.fabric import oracle as oracle_module
from repro.nas.pareto import hypervolume_2d
from repro.nas.proxies import ProxyScreen

from stats import iqm

EVALUATIONS = 12
GENERATION_SIZE = 8
TRAIN_SIZE = 96
TEST_SIZE = 96
EPOCHS = 2
#: Set-ups timed before each sweep (so they sample the whole run).
SETUP_REPEATS = 3
#: Wall time one sweep is planned at; sets how many sweeps fill a run.
NOMINAL_SWEEP_S = 10.0
#: The proposal stream and proxy-screen seed of each sweep slot of a run.
PROPOSAL_SEEDS = (101, 102, 103, 104, 105, 106)
#: Per-evaluation latency limit (the search's ``slo_attainment``).
EVAL_LIMIT_S = 2.0
#: The small-MCU flash/SRAM budget of ``budgets_for_device`` plus an op
#: budget that the front's hypervolume is normalized by.
BUDGET = ResourceBudget(params=413440.0, activation_bytes=101580.8, ops=8e6)


class TimedScreen:
    """The proxy screen, timed (and traced) from the benchmark's side."""

    def __init__(self, screen: ProxyScreen, tracer) -> None:
        self.screen = screen
        self.tracer = tracer
        self.seconds = 0.0

    def __call__(self, session, candidates):
        start = time.perf_counter()
        with self.tracer.span("nas.proxy_screen", "nas"):
            keep = self.screen(session, candidates)
        self.seconds += time.perf_counter() - start
        return keep


class TracedOracle:
    """The oracle with a span per call; takes ``rng`` like the oracle."""

    def __init__(self, oracle: MiniTaskOracle, tracer) -> None:
        self.oracle = oracle
        self.tracer = tracer

    def __call__(self, arch, rng):
        with self.tracer.span("nas.oracle", "nas"):
            return self.oracle(arch, rng)


def sweeps_for(seconds: float) -> int:
    return min(len(PROPOSAL_SEEDS), max(1, int(round(seconds / NOMINAL_SWEEP_S))))


def sweep_seeds(seed: int, seconds: float) -> List[int]:
    """The sweep seeds of a run, one per sweep slot."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5EA]))
    return [int(s) for s in rng.integers(0, 2**31, size=sweeps_for(seconds))]


def setup(data_seed: int):
    """Build the search space, the oracle and its dataset from cold.

    The oracle builds its dataset lazily, inside its first evaluation, and
    memoizes it per process; the benchmark clears that memo and builds the
    dataset here so the work is timed as set-up, not as the first sweep's.
    """
    oracle_module._DATASET_CACHE.clear()
    space = DSCNNSearchSpace()
    oracle = MiniTaskOracle(
        data_seed=data_seed, train_size=TRAIN_SIZE, test_size=TEST_SIZE, epochs=EPOCHS
    )
    oracle_module._clustered_dataset(
        space.input_shape, space.num_classes, TRAIN_SIZE, TEST_SIZE, data_seed
    )
    return space, oracle


def front_digest(front) -> str:
    h = hashlib.sha256()
    for point in front:
        h.update(repr((point.name, float(point.score).hex(), point.costs)).encode())
    return h.hexdigest()[:16]


def hypervolume(front) -> float:
    """Accuracy-vs-ops hypervolume normalized by the op budget."""
    return hypervolume_2d(front, cost_index=2, reference_cost=BUDGET.ops) / BUDGET.ops


@dataclass
class Sweep:
    seed: int
    oracle: MiniTaskOracle
    result: SweepResult
    screen: TimedScreen
    seconds: float


def run(seed: int, seconds: float, tracer) -> Dict:
    """One full search run; returns e2e metrics, per-layer data and checks."""
    setups: List[float] = []
    sweeps: List[Sweep] = []
    for sweep_seed, proposal_seed in zip(sweep_seeds(seed, seconds), PROPOSAL_SEEDS):
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            space, oracle = setup(sweep_seed)
            setups.append(time.perf_counter() - start)
        clear_profile_cache()
        clear_latency_caches()
        screen = TimedScreen(ProxyScreen(seed=proposal_seed), tracer)
        searcher = RandomSearch(
            space, BUDGET, max_evaluations=EVALUATIONS, generation_size=GENERATION_SIZE,
            sweep_seed=sweep_seed,
        )
        start = time.perf_counter()
        with tracer.span("nas.run_sweep", "nas"):
            result = run_sweep(searcher, TracedOracle(oracle, tracer), rng=proposal_seed,
                               proxy=screen, executor=SerialExecutor())
        sweeps.append(Sweep(sweep_seed, oracle, result, screen, time.perf_counter() - start))

    # --- checks (outside the timed sweeps) -------------------------------
    problems: List[str] = []
    for sweep in sweeps:
        front = sweep.result.front
        if not front:
            problems.append(f"sweep {sweep.seed} produced an empty front")
            continue
        member = front[0]
        genome = next(g for g in sweep.result.eval_index if str(g) == member.name)
        index = sweep.result.eval_index[genome]
        again = sweep.oracle(space.to_arch(genome), candidate_rng(sweep.seed, index))
        if float(again) != member.score:
            problems.append(
                f"sweep {sweep.seed}: re-evaluating {member.name} (dispatch {index}) "
                f"gave {again!r}, the front holds {member.score!r}"
            )

    results = [s.result for s in sweeps]
    durations = [d for r in results for generation in r.timeline for _, d in generation]
    evaluations = sum(r.result.evaluations for r in results)
    failures = sum(len(r.result.failures) for r in results)
    dispatched = evaluations + failures
    # The timeline holds failed evaluations too; none of them count as met.
    within = max(sum(d <= EVAL_LIMIT_S for d in durations) - failures, 0)
    return {
        "metrics": {
            "setup_s": iqm(setups),
            "latency_p50_ms": float(np.percentile(durations, 50)) * 1e3,
            "latency_p95_ms": float(np.percentile(durations, 95)) * 1e3,
            "slo_attainment": within / dispatched if dispatched else 0.0,
            "saturated_rps": float(np.median(
                [s.result.result.evaluations / s.seconds for s in sweeps]
            )),
            "time_to_result_s": float(np.median([s.seconds for s in sweeps])),
            # Mean, not median: over a few sweeps the mean is the steadier.
            "result_quality": float(np.mean([hypervolume(r.front) for r in results])),
        },
        "attempted": dispatched,
        "failed": failures,
        "problems": problems,
        "digests": [front_digest(r.front) for r in results],
        "layers": {
            "nas": {
                "proxy_s": float(np.median([s.screen.seconds for s in sweeps])),
                "proxy_calls": float(np.median([s.screen.screen.scored_total for s in sweeps])),
                "oracle_ms.p50": float(np.percentile(durations, 50)) * 1e3,
                "oracle_s": float(np.median(
                    [sum(d for generation in r.timeline for _, d in generation) for r in results]
                )),
                "evaluations": float(np.median([r.evaluated for r in results])),
                "proposed": float(np.median([r.result.proposed for r in results])),
                "eval_fraction": float(np.median(
                    [r.evaluated / max(r.result.proposed, 1) for r in results]
                )),
                "shared_cache_hits": float(np.median([r.shared_cache_hits for r in results])),
            },
            "bench": {
                "sent": dispatched,
                "completed": evaluations,
                "error_rate": failures / dispatched if dispatched else 0.0,
            },
        },
    }

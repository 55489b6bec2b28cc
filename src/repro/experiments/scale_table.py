"""Experiment S1: engine scaling — rounds/s and memory vs ``n``.

The columnar engine's reason to exist is pushing aggregate runs from
hundreds of processes into the thousands and beyond (PERFORMANCE.md
§11–§14).  S1 makes that claim inspectable over two workloads:

* **heartbeat** — the pseudo-leader election alone, over
  ``scheduler × engine × n``, under the dense anonymity regime the
  matrix engines target (a bounded brand set, MS obligations, silent
  extra links).  The ``sched`` axis covers both execution models the
  matrix engines accelerate: the lock-step tick (whole-round matrix
  passes) and the drifting event loop (delivery-tick columns drained
  as masked passes);
* **ess** — Algorithm 3 itself on the lock-step scheduler, in the
  shape the end-to-end benchmark runs: distinct proposals, a source
  stable from round 3, ``UniformDelay(2, 6)`` lates, a quarter of the
  processes crashing, run until every correct process decides.

It reports simulated rounds per wall-clock second and the run's peak
traced allocation.  Four columns keep the table honest:

* **path** — the engine path the run actually took
  (``matrix-lockstep`` / ``matrix-drifting`` / ``object``): a columnar
  row reading ``object`` means the matrix engine declined it;
* **pinned** — every columnar row inside the overlap region (``n``
  small enough to afford an object run) re-runs the identical
  configuration on the object engine *of the same scheduler* and
  compares the whole trace plus the final algorithm views; ``yes``
  means identical.  Object rows read ``ref``; columnar rows beyond the
  overlap read ``n/a`` (the object engine is what the overlap bound
  protects you from waiting on);
* **ok** — Algorithm 3 rows: the consensus checker's verdict
  (validity, agreement, integrity, termination); ``n/a`` for
  heartbeat rows, which decide nothing;
* **peak-mb** — ``tracemalloc`` peak over a separate instrumented run
  (tracing slows execution, so timing and memory come from different
  runs of the same seeded configuration).

Timing numbers vary with the host; the *shape* — object rounds/s
collapsing with ``n`` while columnar stays flat-ish — is the
reproducible observation, and the pinned, ok and path columns are
deterministic.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from typing import List, Optional

from repro.analysis.tables import Table
from repro.core.checkers import check_consensus
from repro.core.ess_consensus import ESSConsensus
from repro.core.history import clear_intern_cache
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    CrashSchedule,
    RandomSource,
    RoundRobinSource,
    UniformDelay,
)
from repro.giraf.environments import (
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    SilentLinks,
)
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.sim.runner import stop_when_all_correct_decided

__all__ = ["run_s1", "s1_cells", "s1_scheduler"]

#: distinct brands in the heartbeat grid — the anonymity regime: many
#: processes, few behaviours, so distinct histories stay ≈ brands × rounds.
BRANDS = 8
#: heartbeat rounds per run
HEARTBEAT_ROUNDS = 12
#: Algorithm 3 horizon; its runs stop once every correct process decides
ESS_MAX_ROUNDS = 200


def s1_scheduler(workload: str, scheduler: str, n: int, engine: str, seed: int):
    """The (not yet run) scheduler of one S1 cell."""
    clear_intern_cache()
    if workload == "heartbeat":
        scheduler_cls = (
            LockStepScheduler if scheduler == "lockstep" else DriftingScheduler
        )
        return scheduler_cls(
            [HeartbeatPseudoLeader(pid % BRANDS) for pid in range(n)],
            MovingSourceEnvironment(
                RoundRobinSource(), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
            ),
            max_rounds=HEARTBEAT_ROUNDS,
            trace_mode="aggregate",
            engine=engine,
        )
    return LockStepScheduler(
        [ESSConsensus(value) for value in random.Random(seed).sample(range(10**6), n)],
        EventuallyStableSourceEnvironment(
            stabilization_round=3,
            preferred_source=0,
            source_schedule=RandomSource(seed),
            delay_policy=UniformDelay(2, 6, seed=seed),
        ),
        CrashSchedule.fraction(
            n, 0.25, seed=seed, earliest_round=1, latest_round=6, protect={0}
        ),
        max_rounds=ESS_MAX_ROUNDS,
        stop_when=stop_when_all_correct_decided,
        trace_mode="aggregate",
        engine=engine,
    )


def _fingerprint(sim) -> tuple:
    """Everything a run exposes, in comparable form."""
    views = []
    for proc in sim.processes:
        algorithm = proc.algorithm
        counters = sorted(
            (tuple(history), count)
            for history, count in algorithm.elector.counters.items()
        )
        if isinstance(algorithm, ESSConsensus):
            state = (
                algorithm.val,
                algorithm.proposed,
                algorithm.written,
                algorithm.written_old,
                algorithm.decision,
            )
        else:
            state = (algorithm.currently_leader, algorithm.leader_since)
        views.append(
            (proc.round, tuple(algorithm.elector.history), tuple(counters), state)
        )
    return sim.trace, views


def _s1_cell(cell) -> List[object]:
    workload, scheduler, n, engine, seed, pin_cap = cell
    # warmup: a tiny run outside the timing window, so one-time costs
    # (numpy import, code-object warmup) don't land on the first cell
    s1_scheduler(workload, scheduler, min(n, 8), engine, seed).run()
    # timing run (untraced)
    sim = s1_scheduler(workload, scheduler, n, engine, seed)
    started = time.perf_counter()
    trace = sim.run()
    elapsed = time.perf_counter() - started
    fingerprint = _fingerprint(sim)
    # memory run (traced; same seeded configuration)
    tracemalloc.start()
    s1_scheduler(workload, scheduler, n, engine, seed).run()
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    if engine == "object":
        pinned = "ref"
    elif n <= pin_cap:
        reference = s1_scheduler(workload, scheduler, n, "object", seed)
        reference.run()
        pinned = "yes" if fingerprint == _fingerprint(reference) else "NO"
    else:
        pinned = "n/a"
    if workload == "ess":
        ok = "yes" if check_consensus(trace).ok else "NO"
    else:
        ok = "n/a"
    rounds = trace.rounds_executed
    rounds_per_s = rounds / elapsed if elapsed > 0 else float("inf")
    return [
        workload,
        scheduler,
        n,
        engine,
        sim.engine_path,
        rounds,
        round(rounds_per_s, 1),
        round(peak / 1e6, 2),
        pinned,
        ok,
    ]


def s1_cells(
    quick: bool = True,
    seed: int = 0,
    engine: Optional[str] = None,
    scheduler: Optional[str] = None,
) -> List[tuple]:
    """The S1 grid as ``(workload, sched, n, engine, seed, pin_cap)``.

    ``engine`` / ``scheduler`` restrict the grid to one engine or one
    scheduler (the pinned column still runs its object references);
    default is the full cross product.
    """
    if quick:
        object_ns = [64, 256]
        columnar_ns = [64, 256, 1024]
        ess_object_ns = ess_columnar_ns = [64, 256]
        pin_cap = 256
    else:
        object_ns = [64, 256, 1024]
        columnar_ns = [64, 256, 1024, 4000, 10000]
        ess_object_ns = [64, 256, 1024]
        ess_columnar_ns = [64, 256, 1024, 4096]
        pin_cap = 1024
    engines = ["object", "columnar"] if engine is None else [engine]
    schedulers = ["lockstep", "drifting"] if scheduler is None else [scheduler]

    cells = []
    for sched in schedulers:
        for size in sorted(set(object_ns) | set(columnar_ns)):
            for name in engines:
                grid = object_ns if name == "object" else columnar_ns
                if size in grid:
                    cells.append(("heartbeat", sched, size, name, seed, pin_cap))
    if "lockstep" in schedulers:
        for size in sorted(set(ess_object_ns) | set(ess_columnar_ns)):
            for name in engines:
                grid = ess_object_ns if name == "object" else ess_columnar_ns
                if size in grid:
                    cells.append(("ess", "lockstep", size, name, seed, pin_cap))
    return cells


def run_s1(
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    engine: Optional[str] = None,
    scheduler: Optional[str] = None,
) -> Table:
    """S1: rounds/s and peak memory across ``workload × scheduler ×
    engine × n`` (see :func:`s1_cells` for the grid)."""
    # imported lazily: run_cells pulls in the full experiments package
    from repro.experiments.common import run_cells

    table = Table(
        experiment_id="S1",
        title=(
            "Engine scaling: rounds/s vs n for heartbeats "
            f"({BRANDS} brands) and Algorithm 3, aggregate traces"
        ),
        headers=[
            "workload",
            "sched",
            "n",
            "engine",
            "path",
            "rounds",
            "rounds/s",
            "peak-mb",
            "pinned",
            "ok",
        ],
        notes=[
            "path: the engine the run took (a columnar row reading "
            "object was declined by the matrix engines)",
            "pinned=yes: identical trace + final views vs an object-engine "
            "run of the same cell (ref=is the reference, n/a=object run "
            "too slow to afford)",
            "ok: Algorithm 3's consensus verdict (n/a for heartbeats)",
            "rounds/s is host-dependent; the shape (object collapsing "
            "with n, columnar staying flat) is the observation",
            "peak-mb is tracemalloc's peak over a separate traced run",
        ],
    )
    cells = s1_cells(quick=quick, seed=seed, engine=engine, scheduler=scheduler)
    for row in run_cells(_s1_cell, cells, jobs=jobs):
        table.add_row(*row)
    return table

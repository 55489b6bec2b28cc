"""Shared plumbing for the experiment suite.

Each experiment function has the signature
``run(quick: bool = True, seed: int = 0) -> Table`` (or a list of
tables).  ``quick`` selects the parameter grid used by the pytest
benchmarks; the full grid is what ``python -m repro.experiments`` runs
by default.  Everything is deterministic given ``seed``.

Grid experiments additionally accept ``jobs``: their parameter grid is
a list of independent cells (each cell derives its own seeds from the
base seed, never from execution order), so :func:`run_cells` can fan
them out over a ``multiprocessing`` pool.  Results come back in cell
order, which makes the parallel table byte-identical to the serial one
— equivalence-tested in ``tests/experiments``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, List, Optional, Sequence, TypeVar

from repro.analysis.stats import mean_or_none
from repro.core.checkers import check_consensus
from repro.core.history import clear_intern_cache
from repro.giraf.adversary import CrashSchedule
from repro.giraf.environments import Environment
from repro.giraf.scheduler import LockStepScheduler
from repro.giraf.traces import RunTrace
from repro.sim.runner import stop_when_all_correct_decided

__all__ = ["ConsensusSample", "sample_consensus", "aggregate_latency", "run_cells"]

Cell = TypeVar("Cell")
Row = TypeVar("Row")


@dataclass
class ConsensusSample:
    """One run's headline numbers for table aggregation."""

    terminated: bool
    safe: bool
    last_decision_round: Optional[int]
    sends: int
    deliveries: int
    trace: RunTrace


def sample_consensus(
    factory: Callable[[Hashable], object],
    proposals: Sequence[Hashable],
    environment: Environment,
    *,
    crash_schedule: Optional[CrashSchedule] = None,
    max_rounds: int = 300,
    record_snapshots: bool = False,
    bind_link_policy: bool = False,
    trace_mode: str = "full",
    engine: str = "object",
) -> ConsensusSample:
    """Run once and summarize (used by every consensus experiment).

    ``trace_mode="aggregate"`` runs the scheduler's lean path — counts
    instead of per-event lists.  Every number this summary reports is
    identical in both modes; pick aggregate when the caller consumes
    only the summary, full when it also inspects ``trace`` events.
    ``engine="columnar"`` runs eligible configurations (aggregate
    traces, stock Algorithm 3, a pure per-link link policy) as matrix
    passes and everything else on the object engine (pinned
    equivalent; see :mod:`repro.runtime.columnar_engine`).
    """
    algorithms = [factory(value) for value in proposals]
    scheduler = LockStepScheduler(
        algorithms,
        environment,
        crash_schedule,
        max_rounds=max_rounds,
        stop_when=stop_when_all_correct_decided,
        record_snapshots=record_snapshots,
        trace_mode=trace_mode,
        engine=engine,
    )
    if bind_link_policy and hasattr(environment.link_policy, "bind"):
        environment.link_policy.bind(scheduler.processes)  # type: ignore[attr-defined]
    trace = scheduler.run()
    report = check_consensus(trace)
    return ConsensusSample(
        terminated=report.termination,
        safe=report.safe,
        last_decision_round=trace.last_decision_round(),
        sends=trace.send_count(),
        deliveries=trace.message_count(),
        trace=trace,
    )


def aggregate_latency(samples: Sequence[ConsensusSample]) -> tuple:
    """``(mean latency, termination rate, safety rate, mean deliveries)``."""
    latency = mean_or_none(
        [s.last_decision_round for s in samples if s.terminated]
    )
    termination_rate = sum(s.terminated for s in samples) / len(samples)
    safety_rate = sum(s.safe for s in samples) / len(samples)
    deliveries = mean_or_none([s.deliveries for s in samples])
    return latency, termination_rate, safety_rate, deliveries


def run_cells(
    cell_fn: Callable[[Cell], Row],
    cells: Sequence[Cell],
    *,
    jobs: Optional[int] = None,
) -> List[Row]:
    """Map ``cell_fn`` over independent grid cells, optionally in parallel.

    ``jobs`` <= 1 (or ``None``) runs serially in-process.  Larger values
    fan the cells out over a process pool; ``cell_fn`` must be a
    module-level (picklable) function and each cell must carry every
    seed it needs.  ``pool.map`` preserves input order, so the rows —
    and therefore the rendered table — are identical to a serial run.

    Both paths drop the interned-history table after every cell, so a
    sweep's memory stays bounded by its largest cell — serially via the
    loop, in workers via the same wrapper (pool workers outlive many
    cells).  Histories a cell *returns* stay valid: pre-clear nodes
    keep hashing and comparing correctly, they merely lose fast-path
    eligibility (see :func:`repro.core.history.clear_intern_cache`).
    """
    bounded_fn = partial(_run_cell_bounded, cell_fn)
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        return [bounded_fn(cell) for cell in cells]
    # fork shares the interpreter state (fast, POSIX); spawn is the
    # portable fallback and works because cells re-derive everything
    # from their own parameters.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with context.Pool(min(jobs, len(cells))) as pool:
        return pool.map(bounded_fn, cells)


def _run_cell_bounded(cell_fn: Callable[[Cell], Row], cell: Cell) -> Row:
    """Run one cell, then drop the intern table it grew (module-level
    and partial-wrapped so pool workers can pickle it)."""
    try:
        return cell_fn(cell)
    finally:
        clear_intern_cache()

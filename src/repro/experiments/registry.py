"""The experiment registry: every table and figure, by ID.

``EXPERIMENTS`` maps the experiment IDs (listed in README.md's
Experiments section) to their runner functions; :func:`run_experiment` executes one and
returns its :class:`~repro.analysis.tables.Table`.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Optional

from repro.analysis.tables import Table
from repro.experiments.ablations import run_a1, run_a2, run_a3
from repro.experiments.baseline_table import run_t7
from repro.experiments.churn_tables import (
    run_c1,
    run_c2,
    run_c3,
    run_c4,
    run_c5,
)
from repro.experiments.consensus_tables import run_f1, run_f2, run_t1, run_t2
from repro.experiments.leader_figure import run_f3
from repro.experiments.scale_table import run_s1
from repro.experiments.sigma_table import run_t6
from repro.experiments.state_growth import run_t3
from repro.experiments.weakset_tables import run_f4, run_t4, run_t5

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]

Runner = Callable[..., Table]

EXPERIMENTS: Dict[str, Runner] = {
    "T1": run_t1,
    "T2": run_t2,
    "T3": run_t3,
    "T4": run_t4,
    "T5": run_t5,
    "T6": run_t6,
    "T7": run_t7,
    "F1": run_f1,
    "F2": run_f2,
    "F3": run_f3,
    "F4": run_f4,
    "A1": run_a1,
    "A2": run_a2,
    "A3": run_a3,
    "C1": run_c1,
    "C2": run_c2,
    "C3": run_c3,
    "C4": run_c4,
    "C5": run_c5,
    "S1": run_s1,
}


def run_experiment(
    experiment_id: str,
    *,
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    round_batch: Optional[int] = None,
    worlds_per_worker: Optional[int] = None,
    recover: Optional[bool] = None,
    fault_plan: Optional[object] = None,
    join_at: Optional[object] = None,
    leave_at: Optional[object] = None,
    engine: Optional[str] = None,
) -> Table:
    """Run one experiment by its ID (e.g. ``"T1"``).

    ``jobs`` fans grid experiments out over worker processes; runners
    whose workload is not cell-parallel simply ignore it.  ``backend``
    selects the shard-execution backend (``"serial"``,
    ``"multiprocess"``, ``"socket"``, or ``"socket:HOST:PORT"``) for
    the churn family, ``round_batch`` its frame coalescing and
    ``worlds_per_worker`` the socket backend's world multiplexing;
    ``recover`` turns on worker
    supervision and ``fault_plan`` injects a
    :class:`~repro.weakset.faults.FaultPlan` of scheduled transport
    faults.  ``join_at``/``leave_at`` hand C5 a custom membership-change
    scenario (rounds to grow at; ``(round, member)`` pairs to retire).
    ``engine`` selects the counter representation (``"object"`` /
    ``"columnar"``) for the consensus-family experiments that thread it
    through (S1, T1, T2, T3, F1, F2).  Runners without the matching
    knob ignore them.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {experiment_id!r}; known: {known}")
    runner = EXPERIMENTS[key]
    parameters = inspect.signature(runner).parameters
    kwargs = {"quick": quick, "seed": seed}
    for name, value in (
        ("jobs", jobs),
        ("backend", backend),
        ("round_batch", round_batch),
        ("worlds_per_worker", worlds_per_worker),
        ("recover", recover),
        ("fault_plan", fault_plan),
        ("join_at", join_at),
        ("leave_at", leave_at),
        ("engine", engine),
    ):
        if value is not None and name in parameters:
            kwargs[name] = value
    return runner(**kwargs)


def run_all(
    *,
    quick: bool = True,
    seed: int = 0,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    round_batch: Optional[int] = None,
    worlds_per_worker: Optional[int] = None,
    recover: Optional[bool] = None,
    fault_plan: Optional[object] = None,
    engine: Optional[str] = None,
) -> List[Table]:
    """Run the whole suite in ID order."""
    return [
        run_experiment(
            key,
            quick=quick,
            seed=seed,
            jobs=jobs,
            backend=backend,
            round_batch=round_batch,
            worlds_per_worker=worlds_per_worker,
            recover=recover,
            fault_plan=fault_plan,
            engine=engine,
        )
        for key in sorted(EXPERIMENTS)
    ]

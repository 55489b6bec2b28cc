"""Experiments C1–C3: the churn/throughput workload family.

Beyond the paper's tables: the sharded weak-set makes a sustained
add-stream workload natural, and these experiments characterize it.

* **C1** — add-latency distributions under churn.  A stream of adds is
  driven across K shard groups while the per-round source moves
  according to a configurable churn pattern; the table reports the
  p50/p95/p99 of the add latency (rounds from ``add`` to written,
  Theorem 3's finite wait) and the sustained throughput, per
  ``pattern × shards``.
* **C2** — shard-backend equivalence and cost.  The same workload run
  on the serial backend, the multiprocess (pipe) backend, and the
  socket (loopback TCP) backend, across round batching and world
  multiplexing; the latency columns are
  byte-identical by construction — the table demonstrates it — and
  the wall-clock column shows what the extra processes and the wire
  cost (or buy, on multi-core and multi-machine hosts).
* **C3** — crash churn on top of source churn.  The same add stream
  while the adversary crashes a fraction of the processes mid-run:
  queued adds on crashed processes are skipped, in-flight ones are
  abandoned, and the table shows how much of the offered load still
  lands (Algorithm 4 tolerates ``n - 1`` crashes; the surviving
  processes' adds keep completing).
* **C4** — infrastructure crash recovery.  Where C3 crashes the
  *simulated* processes, C4 kills the *shard worker processes
  themselves* (a seeded :class:`~repro.weakset.faults.FaultPlan`) and
  runs under worker supervision (``recover=True``): dead workers are
  respawned and their worlds replayed from the keyed seed streams.
  The table reports the recovery cost — respawns, replayed rounds,
  recovery wall-clock — against the crash fraction, backend, and round
  batch, and demonstrates the headline guarantee: the recovered run's
  results are identical to an unfaulted run of the same cell.
* **C5** — elastic sharding.  The same spaced add stream while the
  cluster *changes membership mid-run*: a shard member joins
  (``join_at``), retires (``leave_at``), or both.  The consistent-hash
  ring moves only the minimal key set and the affected worlds are
  replayed from their seeds, so the simulation-domain results are
  identical across backends (and — pinned in
  ``tests/weakset/test_membership.py`` — identical to a cluster
  *constructed* with the final membership).  The table reports the
  rebalance cost: values moved, world ticks replayed, wall-clock
  inside the migration.

All three scale far beyond their table grids: the driver
(:func:`repro.sim.runner.run_churn_workload`) accepts arbitrarily long
add streams (memory is tens of bytes per add; per-round cost grows
with each shard's accumulated value population, so shard count is the
lever for long streams) and the backend switch moves each shard world
onto its own core (``multiprocess``) or machine (``socket`` — see
``--listen``/``--connect`` in the CLI).
"""

from __future__ import annotations

import time

from typing import Optional, Sequence, Tuple

from repro.analysis.tables import Table
from repro.giraf.adversary import CrashSchedule
from repro.sim.runner import run_churn_workload
from repro.sim.workloads import CHURN_PATTERNS, recovery_fault_plan
from repro.weakset.faults import FaultPlan
from repro.weakset.supervisor import RetryPolicy

__all__ = ["run_c1", "run_c2", "run_c3", "run_c4", "run_c5"]


def run_c1(
    quick: bool = True,
    seed: int = 0,
    backend: str = "serial",
    round_batch: int = 1,
    worlds_per_worker: Optional[int] = None,
    recover: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Table:
    """C1: add-latency percentiles and throughput per churn pattern."""
    patterns = ["random", "round-robin", "flapping"] if quick else list(CHURN_PATTERNS)
    shard_counts = [1, 2] if quick else [1, 2, 4, 8]
    n = 4 if quick else 6
    total_adds = 18 if quick else 240
    adds_per_round = 2 if quick else 4

    table = Table(
        experiment_id="C1",
        title="Churn workload: add-latency distribution across shards",
        headers=[
            "pattern", "shards", "adds", "completed",
            "p50", "p95", "p99", "adds/round",
        ],
        notes=[
            "latency = rounds from add() to written (Theorem 3: always "
            "finite); percentiles are nearest-rank over completed adds",
            f"backend={backend}, round_batch={round_batch}; "
            "results are backend-invariant for a fixed seed "
            "(pinned in tests/weakset/test_shard_backends.py)",
        ],
    )
    for pattern in patterns:
        for shards in shard_counts:
            run = run_churn_workload(
                n=n,
                shards=shards,
                total_adds=total_adds,
                adds_per_round=adds_per_round,
                pattern=pattern,
                backend=backend,
                seed=seed,
                round_batch=round_batch,
                worlds_per_worker=worlds_per_worker,
                recover=recover,
                fault_plan=fault_plan,
            )
            table.add_row(
                pattern,
                shards,
                run.issued,
                run.completed,
                run.percentile_latency(50),
                run.percentile_latency(95),
                run.percentile_latency(99),
                run.throughput,
            )
    return table


def run_c2(
    quick: bool = True,
    seed: int = 0,
    worlds_per_worker: Optional[int] = None,
) -> Table:
    """C2: backend × batch equivalence and cost.

    The grid covers the full transport surface on one workload: round
    batching and socket world multiplexing.  ``worlds_per_worker``
    appends an extra socket row with that setting on top of the stock
    grid.  The ``pairs`` column counts request/reply pairs the driver
    exchanged with the shard worlds (the serial row's are direct,
    in-process exchanges) — the structural cost that batching and
    multiplexing shrink (batch=4 cuts it ~4x; worlds-per-worker=2
    halves the remainder).
    """
    n = 3 if quick else 6
    shards = 2 if quick else 4
    total_adds = 10 if quick else 160
    adds_per_round = 2 if quick else 4

    table = Table(
        experiment_id="C2",
        title="Shard backends: serial vs multiprocess vs socket "
        "(batch, mux)",
        headers=[
            "backend", "batch", "wpw", "completed",
            "p50", "p95", "p99", "pairs", "wall-s", "matches-serial",
        ],
        notes=[
            "the latency columns must match row-for-row: the transport "
            "backends replay the exact serial shard worlds (keyed-seeded "
            "streams are process-independent), whatever the round "
            "batching or world multiplexing",
            "pairs = request/reply pairs exchanged with the shard worlds "
            "(direct, in-process pairs for serial); batching divides it, "
            "wpw>1 multiplexes worlds onto shared frames",
            "wall-s is this machine's cost of the worker processes and "
            "per-round message passing (loopback TCP for the socket rows); "
            "on multi-core hosts the shard worlds step concurrently",
            f"shards={shards}, n={n}, seed={seed}",
        ],
    )
    reference = None
    cases = [
        ("serial", 1, 1),
        ("multiprocess", 1, 1),
        ("socket", 1, 1),
        ("socket", 4, 1),
        ("socket", 4, 2),
    ]
    if worlds_per_worker is not None:
        cases.append(("socket", 4, worlds_per_worker))
    for backend, round_batch, wpw in cases:
        start = time.perf_counter()
        run = run_churn_workload(
            n=n,
            shards=shards,
            total_adds=total_adds,
            adds_per_round=adds_per_round,
            pattern="random",
            backend=backend,
            seed=seed,
            round_batch=round_batch,
            worlds_per_worker=wpw if backend == "socket" else None,
        )
        wall = time.perf_counter() - start
        summary = (run.completed, run.latencies)
        if reference is None:
            reference = summary
        table.add_row(
            backend,
            round_batch,
            wpw,
            run.completed,
            run.percentile_latency(50),
            run.percentile_latency(95),
            run.percentile_latency(99),
            run.frame_pairs,
            wall,
            summary == reference,
        )
    return table


def run_c3(
    quick: bool = True,
    seed: int = 0,
    backend: str = "serial",
    round_batch: int = 1,
    worlds_per_worker: Optional[int] = None,
    recover: bool = False,
    fault_plan: Optional[FaultPlan] = None,
) -> Table:
    """C3: crash churn (process failures) on top of source churn."""
    patterns = ["random", "flapping"] if quick else list(CHURN_PATTERNS)
    fractions = [0.25, 0.5] if quick else [0.25, 0.5, 0.75]
    n = 4 if quick else 6
    shards = 2 if quick else 4
    total_adds = 18 if quick else 160
    adds_per_round = 2 if quick else 4

    table = Table(
        experiment_id="C3",
        title="Crash churn: add stream under process failures",
        headers=[
            "pattern", "crash-frac", "crashed", "issued", "completed",
            "skipped", "p50", "p95", "adds/round",
        ],
        notes=[
            "the adversary crashes floor(frac*n) processes in rounds 1-10; "
            "queued adds on crashed processes are skipped, in-flight ones "
            "abandoned — surviving processes' adds keep completing "
            "(Algorithm 4 tolerates n-1 crashes)",
            f"backend={backend}, round_batch={round_batch}; "
            "results are backend-invariant for a fixed seed "
            "(pinned in tests/weakset/test_shard_backends.py)",
        ],
    )
    for pattern in patterns:
        for fraction in fractions:
            crashes = CrashSchedule.fraction(n, fraction, seed=seed)
            run = run_churn_workload(
                n=n,
                shards=shards,
                total_adds=total_adds,
                adds_per_round=adds_per_round,
                pattern=pattern,
                backend=backend,
                seed=seed,
                crash_schedule=crashes,
                round_batch=round_batch,
                worlds_per_worker=worlds_per_worker,
                recover=recover,
                fault_plan=fault_plan,
            )
            table.add_row(
                pattern,
                f"{fraction:.2f}",
                len(crashes),
                run.issued,
                run.completed,
                run.skipped,
                run.percentile_latency(50),
                run.percentile_latency(95),
                run.throughput,
            )
    return table


def run_c4(
    quick: bool = True,
    seed: int = 0,
    backend: Optional[str] = None,
    round_batch: Optional[int] = None,
) -> Table:
    """C4: worker crash recovery — cost vs. crash fraction × backend × batch.

    Each cell kills a seeded fraction of the shard *worker processes*
    mid-run (:func:`repro.sim.workloads.recovery_fault_plan`) under
    supervision and reports what self-healing cost; the
    ``matches-unfaulted`` column re-runs the cell without faults and
    compares the completed-add count and every latency — deterministic
    replay makes them identical.
    """
    backends = [backend] if backend else (
        ["inproc", "multiprocess"] if quick else ["multiprocess", "socket"]
    )
    batches = [round_batch] if round_batch else [1, 4]
    fractions = [0.5] if quick else [0.25, 0.5, 1.0]
    n = 3 if quick else 6
    shards = 2 if quick else 4
    total_adds = 10 if quick else 120
    adds_per_round = 2 if quick else 4
    policy = RetryPolicy(attempts=3, base_delay=0.05, request_timeout=30.0)

    table = Table(
        experiment_id="C4",
        title="Worker crash recovery: respawn + replay cost per backend",
        headers=[
            "backend", "crash-frac", "batch", "kills", "detected",
            "respawned", "replayed", "rec-wall-ms", "completed",
            "matches-unfaulted",
        ],
        notes=[
            "a seeded FaultPlan kills floor(frac*shards) shard WORKER "
            "processes (the infrastructure, not the simulated processes) "
            "at seeded exchanges; recover=True respawns each one and "
            "replays its world from the keyed seed streams",
            "replayed = simulation rounds re-executed by respawned "
            "workers; rec-wall-ms = wall-clock inside recovery, in ms; "
            "matches-unfaulted compares completed count and every add "
            "latency against an unfaulted run of the same cell — "
            "deterministic replay makes them identical",
            f"shards={shards}, n={n}, seed={seed}",
        ],
    )
    for backend_name in backends:
        for fraction in fractions:
            for batch in batches:
                # batching coalesces rounds into fewer driver exchanges,
                # so shrink the kill window with it or the scheduled
                # faults land past the end of the run and never fire
                window = (2, max(3, 12 // batch))
                plan = recovery_fault_plan(
                    shards, fraction, seed=seed, window=window
                )
                run = run_churn_workload(
                    n=n,
                    shards=shards,
                    total_adds=total_adds,
                    adds_per_round=adds_per_round,
                    pattern="random",
                    backend=backend_name,
                    seed=seed,
                    round_batch=batch,
                    recover=True,
                    fault_plan=plan,
                    retry_policy=policy,
                )
                clean = run_churn_workload(
                    n=n,
                    shards=shards,
                    total_adds=total_adds,
                    adds_per_round=adds_per_round,
                    pattern="random",
                    backend=backend_name,
                    seed=seed,
                    round_batch=batch,
                )
                stats = run.recovery
                table.add_row(
                    backend_name,
                    f"{fraction:.2f}",
                    batch,
                    plan.kills,
                    stats.detections if stats else 0,
                    stats.respawns if stats else 0,
                    stats.replayed_rounds if stats else 0,
                    1000 * stats.wall_clock if stats else 0.0,
                    run.completed,
                    (run.completed, run.latencies)
                    == (clean.completed, clean.latencies),
                )
    return table


def run_c5(
    quick: bool = True,
    seed: int = 0,
    backend: Optional[str] = None,
    round_batch: Optional[int] = None,
    join_at: Optional[Sequence[int]] = None,
    leave_at: Optional[Sequence[Tuple[int, int]]] = None,
) -> Table:
    """C5: elastic sharding — membership-change cost per backend.

    Each cell drives the same spaced add stream (one add per round,
    round-robin over ``n`` clients — membership changes need per-pid
    adds far enough apart that the rewritten history is admissible
    under the new routing) while the cluster joins a member, retires
    one, or both.  ``join_at``/``leave_at`` replace the stock scenario
    grid with one custom scenario (the CLI's ``--join-at`` /
    ``--leave-at``).  The ``matches-serial`` column re-runs the
    scenario's first backend as reference and compares the completed
    count and every latency — the rebalance replays worlds from their
    keyed seeds, so they are identical.
    """
    backends = [backend] if backend else (
        ["serial", "inproc"] if quick else ["serial", "multiprocess", "socket"]
    )
    n = 8
    shards = 2
    total_adds = 16 if quick else 48
    if join_at is not None or leave_at is not None:
        scenarios = [("custom", tuple(join_at or ()), tuple(leave_at or ()))]
    else:
        grow, shrink = (6, 12) if quick else (10, 40)
        scenarios = [
            (f"join@{grow}", (grow,), ()),
            (f"leave@{shrink}", (), ((shrink, 0),)),
            (
                f"join@{grow},leave@{shrink}",
                (grow,),
                ((shrink, 0),),
            ),
        ]

    table = Table(
        experiment_id="C5",
        title="Elastic sharding: membership-change cost under load",
        headers=[
            "backend", "event", "batch", "moved", "replayed",
            "rebal-wall-ms", "completed", "p50", "matches-serial",
        ],
        notes=[
            "each row joins/retires shard members mid-stream; moved = "
            "values the consistent-hash ring reassigned (minimal: only "
            "keys whose owner changed), replayed = world ticks re-run "
            "to rebuild the affected worlds from their seed streams",
            "matches-serial compares completed count and every add "
            "latency against the scenario's reference backend — "
            "deterministic replay makes membership changes invisible "
            "to the simulation domain",
            f"n={n}, shards={shards}, adds={total_adds}, seed={seed}",
        ],
    )
    batch = round_batch or 1
    for label, joins, leaves in scenarios:
        reference = None
        for backend_name in backends:
            run = run_churn_workload(
                n=n,
                shards=shards,
                total_adds=total_adds,
                adds_per_round=1,
                pattern="random",
                backend=backend_name,
                seed=seed,
                round_batch=batch,
                join_at=joins,
                leave_at=leaves,
            )
            summary = (run.completed, run.latencies)
            if reference is None:
                reference = summary
            table.add_row(
                backend_name,
                label,
                batch,
                run.moved_values,
                run.replayed_ticks,
                1000 * sum(stats.wall_clock for stats in run.rebalances),
                run.completed,
                run.percentile_latency(50),
                summary == reference,
            )
    return table

"""High-level run drivers: one call = one configured simulation.

These wrap scheduler + environment + adversary assembly so tests,
examples, and the experiment harness never repeat the plumbing.  Every
knob is an explicit keyword with a reproducible default.

Two driver families live here:

* the **consensus** drivers (:func:`run_consensus` and the
  :func:`run_es_consensus` / :func:`run_ess_consensus` shortcuts) —
  one configured consensus instance, packaged with its checker verdict
  and metrics;
* the **churn/throughput** driver (:func:`run_churn_workload`) — a
  stream of weak-set adds across a :class:`ShardedWeakSetCluster`
  under a configurable source-movement pattern, reporting add-latency
  percentiles and throughput.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.stats import percentile
from repro.core.checkers import ConsensusReport, check_consensus
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.giraf.adversary import CrashSchedule, RandomSource
from repro.giraf.environments import (
    Environment,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
)
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.giraf.traces import RunTrace
from repro.sim.metrics import ConsensusMetrics, consensus_metrics
from repro.sim.workloads import ChurnEnvironments
from repro.weakset.faults import FaultPlan
from repro.weakset.spec import AddRecord
from repro.weakset.supervisor import RetryPolicy, ShardRecoveryStats

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids the
    # heavy sharding import at module load
    from repro.weakset.sharding import RebalanceStats

__all__ = [
    "ChurnRun",
    "ConsensusRun",
    "run_churn_workload",
    "run_consensus",
    "run_es_consensus",
    "run_ess_consensus",
    "stop_when_all_correct_decided",
]

AlgorithmFactory = Callable[[Hashable], object]


@dataclass
class ConsensusRun:
    """Everything one consensus simulation produced."""

    trace: RunTrace
    report: ConsensusReport
    metrics: ConsensusMetrics
    environment: Environment


def stop_when_all_correct_decided(trace: RunTrace) -> bool:
    """Early-exit predicate for consensus runs."""
    return trace.correct <= trace.decided_pids()


def run_consensus(
    factory: AlgorithmFactory,
    proposals: Sequence[Hashable],
    environment: Environment,
    *,
    crash_schedule: Optional[CrashSchedule] = None,
    max_rounds: int = 200,
    scheduler: str = "lockstep",
    record_snapshots: bool = False,
    stabilization_round: Optional[int] = None,
    stop_early: bool = True,
    periods: Optional[Sequence[float]] = None,
    phases: Optional[Sequence[float]] = None,
    trace_mode: str = "full",
    engine: str = "object",
    event_queue: str = "calendar",
) -> ConsensusRun:
    """Run one consensus instance and package trace + verdict + metrics.

    Args:
        factory: builds one algorithm instance from a proposal value.
        proposals: one proposal per process (``len(proposals)`` = n).
        environment: a constructed MS/ES/ESS environment.
        scheduler: ``"lockstep"`` or ``"drifting"``.
        stabilization_round: reference point for the latency metric
            (GST for ES, the stable round for ESS).
        trace_mode: ``"full"`` (checker-grade events) or
            ``"aggregate"`` (counter-only fast path; the returned
            metrics are identical — equivalence-tested — but the
            safety report degrades to count-based checks only).
        engine: ``"object"`` (per-process Python state, the default)
            or ``"columnar"`` (whole rounds as matrix passes when the
            run is eligible — aggregate traces, stock Algorithm 3 on
            the lock-step scheduler — else the object engine; pinned
            equivalent — see :mod:`repro.runtime.columnar_engine`).
        event_queue: continuous-time event core for the drifting
            scheduler (``"calendar"`` or ``"heap"``; ignored under
            lock-step, which has no event queue).
    """
    algorithms = [factory(value) for value in proposals]
    stop = stop_when_all_correct_decided if stop_early else None
    if scheduler == "lockstep":
        driver = LockStepScheduler(
            algorithms,
            environment,
            crash_schedule,
            max_rounds=max_rounds,
            stop_when=stop,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            engine=engine,
        )
    elif scheduler == "drifting":
        driver = DriftingScheduler(
            algorithms,
            environment,
            crash_schedule,
            max_rounds=max_rounds,
            stop_when=stop,
            record_snapshots=record_snapshots,
            periods=periods,
            phases=phases,
            trace_mode=trace_mode,
            engine=engine,
            event_queue=event_queue,
        )
    else:
        raise ValueError(f"unknown scheduler {scheduler!r}")
    trace = driver.run()
    return ConsensusRun(
        trace=trace,
        report=check_consensus(trace),
        metrics=consensus_metrics(trace, stabilization_round=stabilization_round),
        environment=environment,
    )


def run_es_consensus(
    proposals: Sequence[Hashable],
    *,
    gst: int = 1,
    crash_schedule: Optional[CrashSchedule] = None,
    max_rounds: int = 200,
    seed: int = 0,
    scheduler: str = "lockstep",
    record_snapshots: bool = False,
    trace_mode: str = "full",
    engine: str = "object",
    event_queue: str = "calendar",
    **algorithm_kwargs,
) -> ConsensusRun:
    """Algorithm 2 under a seeded ES environment."""
    environment = EventualSynchronyEnvironment(
        gst=gst, source_schedule=RandomSource(seed)
    )
    return run_consensus(
        lambda value: ESConsensus(value, **algorithm_kwargs),
        proposals,
        environment,
        crash_schedule=crash_schedule,
        max_rounds=max_rounds,
        scheduler=scheduler,
        record_snapshots=record_snapshots,
        stabilization_round=gst,
        trace_mode=trace_mode,
        engine=engine,
        event_queue=event_queue,
    )


def run_ess_consensus(
    proposals: Sequence[Hashable],
    *,
    stabilization_round: int = 1,
    preferred_source: int = 0,
    crash_schedule: Optional[CrashSchedule] = None,
    max_rounds: int = 400,
    seed: int = 0,
    scheduler: str = "lockstep",
    record_snapshots: bool = False,
    trace_mode: str = "full",
    engine: str = "object",
    event_queue: str = "calendar",
    **algorithm_kwargs,
) -> ConsensusRun:
    """Algorithm 3 under a seeded ESS environment.

    The ``preferred_source`` must be correct; pass a ``crash_schedule``
    built with ``protect={preferred_source}`` when injecting crashes.
    """
    environment = EventuallyStableSourceEnvironment(
        stabilization_round=stabilization_round,
        preferred_source=preferred_source,
        source_schedule=RandomSource(seed),
    )
    return run_consensus(
        lambda value: ESSConsensus(value, **algorithm_kwargs),
        proposals,
        environment,
        crash_schedule=crash_schedule,
        max_rounds=max_rounds,
        scheduler=scheduler,
        record_snapshots=record_snapshots,
        stabilization_round=stabilization_round,
        trace_mode=trace_mode,
        engine=engine,
        event_queue=event_queue,
    )


# ----------------------------------------------------------------------
# churn/throughput workload over the sharded weak-set
# ----------------------------------------------------------------------
@dataclass
class ChurnRun:
    """Everything one churn/throughput workload run produced.

    Attributes:
        issued: adds started (equals the requested ``total_adds``
            unless the round horizon ran out first or processes
            crashed out from under their queued adds).
        completed: adds whose value was written within the run.
        skipped: adds never issued because their process had already
            crashed in the owning shard (crash-churn runs only; an add
            issued *before* the crash counts in ``issued`` and simply
            never completes).
        rounds: simulated rounds the workload consumed.
        latencies: per-completed-add latency in rounds
            (``record.end - record.start``), in issue order (adds may
            complete out of issue order across shards).
        pattern/shards/backend: the configuration that produced this run.
        recovery: worker-supervision counters
            (:class:`~repro.weakset.supervisor.ShardRecoveryStats`)
            when the run was supervised (``recover=True``); ``None``
            otherwise.  Because recovered worlds are replayed
            deterministically, every *simulation-domain* field above is
            identical with and without the crashes — ``recovery`` is
            where the infrastructure cost shows.
        exchanges/frame_pairs: structural wire-cost counters from the
            shard driver — exchanges issued and the request/reply pairs
            they carried (one pair per worker channel per exchange;
            direct, in-process pairs on the serial backend).  These are
            what round batching and world multiplexing shrink,
            independent of timing noise.
        rebalances: one
            :class:`~repro.weakset.sharding.RebalanceStats` per
            membership change the run performed (``join_at`` /
            ``leave_at``), in firing order — where the elastic-scaling
            cost (moved values, replayed ticks, wall clock) shows.
            The simulation-domain results are rebalance-invariant in
            the sense pinned by ``tests/weakset/test_membership.py``:
            a run that joins a member at round R matches one
            *constructed* with the post-join membership.
    """

    issued: int
    completed: int
    rounds: int
    latencies: List[float] = field(default_factory=list)
    pattern: str = "random"
    shards: int = 1
    backend: str = "serial"
    skipped: int = 0
    recovery: Optional["ShardRecoveryStats"] = None
    exchanges: int = 0
    frame_pairs: int = 0
    rebalances: List["RebalanceStats"] = field(default_factory=list)

    @property
    def moved_values(self) -> int:
        """Total values migrated across all membership changes."""
        return sum(stats.moved_values for stats in self.rebalances)

    @property
    def replayed_ticks(self) -> int:
        """Total world ticks replayed across all membership changes."""
        return sum(stats.replayed_ticks for stats in self.rebalances)

    def percentile_latency(self, q: float) -> Optional[float]:
        """Nearest-rank percentile of the completed-add latencies.

        ``q`` is in ``[0, 100]``; returns ``None`` when nothing
        completed (the experiment tables render that as a dash).
        """
        return percentile(self.latencies, q)

    @property
    def throughput(self) -> Optional[float]:
        """Completed adds per simulated round (``None`` before any round)."""
        return self.completed / self.rounds if self.rounds else None


def run_churn_workload(
    *,
    n: int = 4,
    shards: int = 2,
    total_adds: int = 24,
    adds_per_round: int = 2,
    pattern: str = "random",
    backend: str = "serial",
    seed: int = 0,
    trace_mode: str = "aggregate",
    max_total_rounds: Optional[int] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    round_batch: int = 1,
    window: int = 1,
    worlds_per_worker: Optional[int] = None,
    recover: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    join_at: Sequence[int] = (),
    leave_at: Sequence[Tuple[int, int]] = (),
) -> ChurnRun:
    """Drive a stream of weak-set adds across shards and measure latency.

    Each simulated round issues up to ``adds_per_round`` new async adds
    (values round-robin over the ``n`` client processes, routed to
    shards by value hash), then advances every shard world one tick;
    after the stream is exhausted the run drains until every in-flight
    add completed or the horizon ran out.  An add whose ``(process,
    owning shard)`` pair still has one in flight is deferred to a later
    round — Algorithm 4 admits one blocked add per process per shard —
    so the issue order is deterministic and backend-independent.

    Args:
        n: client processes per shard group.
        shards: value-partitioned shard groups.
        total_adds: adds to issue over the whole run.  Memory scales
            gently (the driver retains one small operation record plus
            one latency float per add; the backend holds O(in-flight)
            control state), but wall-clock does not: Algorithm 4
            broadcasts each shard's whole accumulated ``PROPOSED`` set
            every round, so per-round cost grows with the values a
            shard has absorbed — sharding (splitting the population K
            ways) is what keeps long streams tractable.
        adds_per_round: target issue rate (the offered load).
        pattern: source-movement churn pattern, one of
            :data:`repro.sim.workloads.CHURN_PATTERNS`.
        backend: ``"serial"``, ``"inproc"``, ``"multiprocess"``,
            ``"socket"``, or ``"socket:HOST:PORT"`` — forwarded to
            :class:`~repro.weakset.sharding.ShardedWeakSetCluster`.
            Results are backend-invariant for a fixed seed.
        seed: base seed for the per-shard environments.
        trace_mode: per-shard trace fidelity; the default
            ``"aggregate"`` skips per-event allocation (the workload
            only consumes operation records, not trace events).
        max_total_rounds: round horizon; defaults to a generous bound
            derived from the workload size.
        crash_schedule: optional *process churn* on top of the source
            churn — every shard world applies the same adversary crash
            plan.  Queued adds whose process has crashed in the owning
            shard are skipped (counted in :attr:`ChurnRun.skipped`);
            adds already in flight when their process crashes are
            abandoned (issued, never completed) instead of stalling
            the drain loop.
        round_batch: coalesce up to this many lock-step rounds into
            one request/reply pair per worker during the **drain** phase (after
            the stream is exhausted — the issue loop stays per-round,
            since issuance decisions read completions between rounds).
            The completed-add latencies are batch-invariant (end
            stamps are simulated time); only the drained round count
            may overshoot by up to ``round_batch - 1``.  Default 1.
        window: keep up to this many round batches in flight during
            the drain phase (the drain step grows to
            ``round_batch * window`` so the pipelined driver has
            batches to overlap; see
            :meth:`~repro.weakset.sharding.TransportBackend.advance`).
            Results are window-invariant.  Default 1.
        worlds_per_worker: socket backend only — host this many shard
            worlds per worker process behind one multiplexed channel
            (fewer frame pairs per round; see
            :attr:`ChurnRun.frame_pairs`).
        recover: supervise the shard workers — dead workers are
            respawned and replayed instead of failing the run; the
            cost lands in :attr:`ChurnRun.recovery` (wire backends
            only).
        fault_plan: optional :class:`~repro.weakset.faults.FaultPlan`
            injecting scheduled *infrastructure* faults into the shard
            channels (distinct from ``crash_schedule``, which crashes
            *simulated* processes).
        retry_policy: optional
            :class:`~repro.weakset.supervisor.RetryPolicy` shaping
            recovery backoff and reply deadlines.
        join_at: rounds at which to grow the cluster by one member
            (:meth:`~repro.weakset.sharding.ShardedWeakSetCluster.join_shard`).
            Each fires once, when the run's round counter first reaches
            it; queued and in-flight adds are re-routed to the new
            ownership.  Per-change cost lands in
            :attr:`ChurnRun.rebalances`.
        leave_at: ``(round, member)`` pairs at which to retire a member
            (:meth:`~repro.weakset.sharding.ShardedWeakSetCluster.leave_shard`).
            Fires like ``join_at``; same-round events fire joins first.
            A membership change replays history under the new routing,
            so it fails closed (:class:`~repro.errors.SimulationError`)
            when one pid's adds that would share a new owner have no
            admissible replay — space per-pid adds apart (low
            ``adds_per_round`` relative to ``n``) to keep change
            rounds feasible; the outcome is deterministic per seed.

    Returns:
        A :class:`ChurnRun` with latency percentiles and throughput.

    Example:
        >>> run = run_churn_workload(n=3, shards=2, total_adds=4,
        ...                          adds_per_round=2, seed=1)
        >>> run.issued, run.completed
        (4, 4)
        >>> run.percentile_latency(50) is not None
        True
    """
    from repro.weakset.sharding import ShardedWeakSetCluster

    if total_adds < 0:
        raise ValueError("total_adds must be >= 0")
    if adds_per_round < 1:
        raise ValueError("adds_per_round must be >= 1")
    if max_total_rounds is None:
        # every add needs a handful of rounds to be written; budget a
        # drain tail on top of the issue phase
        max_total_rounds = 40 + 8 * (total_adds // adds_per_round + total_adds)
    cluster = ShardedWeakSetCluster(
        n,
        shards=shards,
        environment_factory=ChurnEnvironments(pattern=pattern, seed=seed),
        crash_schedule=crash_schedule,
        max_total_rounds=max_total_rounds,
        trace_mode=trace_mode,
        backend=backend,
        round_batch=round_batch,
        window=window,
        worlds_per_worker=worlds_per_worker,
        recover=recover,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    try:
        # Per-(pid, owning shard) pending queues plus a ready-heap keyed
        # by arrival index: each round issues the earliest-queued adds
        # whose slot is free (Algorithm 4 admits one blocked add per
        # process per shard).  The heap holds exactly the free slots
        # with pending work, so a round costs O(issued·log + busy)
        # regardless of how much of the stream is still queued — a
        # saturated run never rescans the backlog.
        pending: Dict[Tuple[int, int], deque] = {}
        for index in range(total_adds):
            value, pid = f"churn-{seed}-{index}", index % n
            key = (pid, cluster.shard_index_for(value))
            pending.setdefault(key, deque()).append((index, value, pid))
        ready = [(items[0][0], key) for key, items in pending.items()]
        heapq.heapify(ready)
        busy: Dict[Tuple[int, int], AddRecord] = {}
        records: List[AddRecord] = []
        remaining = total_adds
        skipped = 0
        rounds = 0
        rebalance_stats: List["RebalanceStats"] = []
        events = sorted(
            [(at, "join", None) for at in join_at]
            + [(at, "leave", member) for at, member in leave_at]
        )

        def drop_slot(key: Tuple[int, int]) -> None:
            """Abandon a crashed slot's queue (its pid cannot add again)."""
            nonlocal remaining, skipped
            dropped = len(pending.get(key, ()))
            if dropped:
                pending[key].clear()
            skipped += dropped
            remaining -= dropped

        def reroute() -> None:
            """Re-key the driver's routing tables after a membership
            change: queued and in-flight adds follow their values to
            the new ownership (slot indices shift when members come
            and go)."""
            nonlocal pending, ready, busy
            queued = sorted(
                item for items in pending.values() for item in items
            )
            pending = {}
            for index, value, pid in queued:
                key = (pid, cluster.shard_index_for(value))
                pending.setdefault(key, deque()).append((index, value, pid))
            busy = {
                (record.pid, cluster.shard_index_for(record.value)): record
                for record in busy.values()
            }
            ready = [
                (items[0][0], key)
                for key, items in pending.items()
                if key not in busy
            ]
            heapq.heapify(ready)

        while remaining or busy:
            if cluster.exhausted or rounds >= max_total_rounds:
                break
            while events and rounds >= events[0][0]:
                _at, kind, member = events.pop(0)
                if kind == "join":
                    cluster.join_shard()
                else:
                    cluster.leave_shard(member)
                rebalance_stats.append(cluster.last_rebalance)
                reroute()
            issued_now = 0
            while issued_now < adds_per_round and ready:
                _, key = heapq.heappop(ready)
                pid, owning_shard = key
                if crash_schedule is not None and cluster.backend.crashed(
                    owning_shard, pid
                ):
                    drop_slot(key)
                    continue
                _, value, _pid = pending[key].popleft()
                busy[key] = cluster.handle(pid).add_async(value)
                records.append(busy[key])
                remaining -= 1
                issued_now += 1
            # Issue phase: strictly one round per iteration (issuance
            # reads completions between rounds).  Drain phase (stream
            # exhausted): coalesce rounds into round_batch-sized frames
            # and hand the pipelined driver enough of them to keep its
            # window full.
            drain_span = round_batch * window
            step = drain_span if not remaining and drain_span > 1 else 1
            if events and events[0][0] > rounds:
                # land exactly on the next membership change
                step = min(step, events[0][0] - rounds)
            rounds += cluster.advance(step)
            for key, record in list(busy.items()):
                if record.end is not None:
                    del busy[key]
                    items = pending.get(key)
                    if items:
                        heapq.heappush(ready, (items[0][0], key))
                elif crash_schedule is not None and cluster.backend.crashed(
                    key[1], key[0]
                ):
                    # The process died with the add in flight: it will
                    # never be written — abandon it (and its queue) so
                    # the drain loop does not spin to the horizon.
                    del busy[key]
                    drop_slot(key)
        latencies = [
            record.end - record.start for record in records if record.end is not None
        ]
        return ChurnRun(
            issued=len(records),
            completed=len(latencies),
            rounds=rounds,
            latencies=latencies,
            pattern=pattern,
            shards=shards,
            backend=backend,
            skipped=skipped,
            recovery=cluster.recovery_stats,
            exchanges=getattr(cluster.backend, "exchanges", 0),
            frame_pairs=getattr(cluster.backend, "frame_pairs", 0),
            rebalances=rebalance_stats,
        )
    finally:
        cluster.close()

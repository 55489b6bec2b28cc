"""The benchmark's four workloads.

Each workload is a closed-loop generator with one client: it builds one
instance from its seed, runs the instance to its goal, checks the
output, and only then starts the next instance.  The program sees only
the generated inputs, through its public API.  ``tiny=True`` builds the
small untimed warm-up instance.

Why each workload exists, and which layers it stresses, is recorded in
``BENCHMARK.json`` and ``README.md`` next to this file.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import repro
import repro.weakset.spec
from repro import (
    DriftingScheduler,
    ESConsensus,
    ESSConsensus,
    LockStepScheduler,
    ShardedWeakSetCluster,
)
from repro._rng import clear_rng_cache
from repro.core.history import clear_intern_cache
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    CrashSchedule,
    RandomSource,
    UniformDelay,
)
from repro.giraf.environments import (
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    SilentLinks,
)
from repro.sim.runner import stop_when_all_correct_decided
from repro.sim.workloads import ChurnEnvironments
from repro.weakset.spec import OpLog

__all__ = ["Outcome", "WORKLOADS", "reset_program_state"]

# The consensus and weak-set instances are sized to take about 0.3 s
# each, so a run's medians rest on 55-90 of them; at n=128 a run held a
# quarter as many and its medians spread twice as wide.
#: consensus population and horizon; an instance that reaches the
#: horizon has failed
CONSENSUS_N = 64
CONSENSUS_MAX_ROUNDS = 200
#: heartbeat population and anonymity: 8 distinct behaviours; 40 rounds
#: grow the counter matrices to about 270 MB
HEARTBEAT_N = 10_000
HEARTBEAT_BRANDS = 8
HEARTBEAT_ROUNDS = 40
#: weak-set shape: offered load, stream length, and the horizon
WEAKSET_N = 8
WEAKSET_SHARDS = 2
WEAKSET_ADDS_PER_ROUND = 2
WEAKSET_OFFERED_ROUNDS = 80
WEAKSET_MAX_ROUNDS = 2_000


@dataclass
class Outcome:
    """What one instance produced.

    ``failures`` holds one message per failed operation (empty when the
    output is correct); ``fingerprint`` summarizes the output so runs of
    one seed can be compared across commits.
    """

    setup_s: float
    run_s: float
    rounds: int
    deliveries: int
    attempted: int
    failures: List[str]
    fingerprint: Dict[str, object]
    counters: Dict[str, int] = field(default_factory=dict)


def reset_program_state() -> None:
    """Start the next instance from the state a fresh process has.

    The program keeps process-wide memo tables (keyed RNG draws,
    interned histories and the matrix engines' warm index).  Instance
    seeds never repeat within a run, so stale entries only cost memory —
    except when the traced half re-runs the untraced half's seeds, where
    warm tables would make the traced instances cheaper than the ones
    they are compared with.  Called untimed before every instance.
    """
    clear_rng_cache()
    clear_intern_cache()
    gc.collect()


def _fingerprint(
    *, decisions: int, rounds: int, deliveries: int, adds: int, detail: object
) -> Dict[str, object]:
    digest = hashlib.sha256(
        repr((decisions, rounds, deliveries, adds, detail)).encode()
    ).hexdigest()[:16]
    return {
        "decisions": decisions,
        "rounds": rounds,
        "deliveries": deliveries,
        "adds": adds,
        "digest": digest,
    }


def _proposals(seed: int, n: int) -> List[int]:
    """Distinct proposal values, drawn from the seed."""
    return random.Random(seed).sample(range(1_000_000), n)


def _consensus_outcome(trace, setup_s: float, run_s: float) -> Outcome:
    # the checkers are looked up through their modules on every call, so
    # the traced run sees them (it wraps the program's namespaces only)
    report = repro.check_consensus(trace)
    failures = list(report.violations)
    if trace.rounds_executed >= CONSENSUS_MAX_ROUNDS:
        failures.append(f"reached max_rounds={CONSENSUS_MAX_ROUNDS}")
    decisions = sorted((event.pid, event.value, event.round_no) for event in trace.decisions)
    return Outcome(
        setup_s=setup_s,
        run_s=run_s,
        rounds=trace.rounds_executed,
        deliveries=trace.agg_deliveries,
        attempted=1,
        failures=["; ".join(failures)] if failures else [],
        fingerprint=_fingerprint(
            decisions=len(decisions),
            rounds=trace.rounds_executed,
            deliveries=trace.agg_deliveries,
            adds=0,
            detail=(decisions, sorted(trace.crashed_pids())),
        ),
    )


def ess_lockstep_crash(seed: int, tiny: bool = False) -> Outcome:
    """Algorithm 3 under ESS with crashes and random delays, lock-step."""
    n = 8 if tiny else CONSENSUS_N
    proposals = _proposals(seed, n)
    start = time.perf_counter()
    # From a stable round of 3 on, every instance decides in round 8; a
    # later one splits instances between rounds 6 and 10, and a median
    # over such a mix flips between the two modes from run to run.
    environment = EventuallyStableSourceEnvironment(
        stabilization_round=3,
        preferred_source=0,
        source_schedule=RandomSource(seed),
        delay_policy=UniformDelay(2, 6, seed=seed),
    )
    crashes = CrashSchedule.fraction(
        n, 0.25, seed=seed, earliest_round=1, latest_round=6, protect={0}
    )
    scheduler = LockStepScheduler(
        [ESSConsensus(value) for value in proposals],
        environment,
        crashes,
        max_rounds=CONSENSUS_MAX_ROUNDS,
        stop_when=stop_when_all_correct_decided,
        trace_mode="aggregate",
        engine="columnar",
    )
    ready = time.perf_counter()
    trace = scheduler.run()
    done = time.perf_counter()
    return _consensus_outcome(trace, ready - start, done - ready)


def es_drifting(seed: int, tiny: bool = False) -> Outcome:
    """Algorithm 2 under ES on the event-driven drifting scheduler."""
    n = 8 if tiny else CONSENSUS_N
    proposals = _proposals(seed, n)
    start = time.perf_counter()
    # With GST at 2 every instance decides in round 4; a later GST lets
    # a rare instance run to round 6 and set a run's peak memory.
    environment = EventualSynchronyEnvironment(
        gst=2,
        source_schedule=RandomSource(seed),
        delay_policy=UniformDelay(2, 6, seed=seed),
    )
    scheduler = DriftingScheduler(
        [ESConsensus(value) for value in proposals],
        environment,
        max_rounds=CONSENSUS_MAX_ROUNDS,
        stop_when=stop_when_all_correct_decided,
        trace_mode="aggregate",
        event_queue="calendar",
    )
    ready = time.perf_counter()
    trace = scheduler.run()
    done = time.perf_counter()
    return _consensus_outcome(trace, ready - start, done - ready)


def heartbeat_matrix(seed: int, tiny: bool = False) -> Outcome:
    """Pseudo-leader election alone at n=10,000 on the matrix engine."""
    n = 64 if tiny else HEARTBEAT_N
    rounds = 5 if tiny else HEARTBEAT_ROUNDS
    start = time.perf_counter()
    environment = MovingSourceEnvironment(
        RandomSource(seed), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
    )
    algorithms = [HeartbeatPseudoLeader(pid % HEARTBEAT_BRANDS) for pid in range(n)]
    scheduler = LockStepScheduler(
        algorithms,
        environment,
        max_rounds=rounds,
        trace_mode="aggregate",
        engine="columnar",
    )
    ready = time.perf_counter()
    trace = scheduler.run()
    done = time.perf_counter()
    leaders = [pid for pid, algorithm in enumerate(algorithms) if algorithm.currently_leader]
    failures = []
    if trace.agg_deliveries != rounds * (n - 1):
        failures.append(
            f"{trace.agg_deliveries} deliveries, expected rounds*(n-1)={rounds * (n - 1)}"
        )
    if not leaders:
        failures.append("no process ends as leader")
    return Outcome(
        setup_s=ready - start,
        run_s=done - ready,
        rounds=trace.rounds_executed,
        deliveries=trace.agg_deliveries,
        attempted=1,
        failures=["; ".join(failures)] if failures else [],
        fingerprint=_fingerprint(
            decisions=len(leaders),
            rounds=trace.rounds_executed,
            deliveries=trace.agg_deliveries,
            adds=0,
            detail=(leaders, sorted(trace.declared_sources.items())),
        ),
    )


def _stream(cluster: ShardedWeakSetCluster, pending: deque) -> int:
    """Offer the queued adds, one get per round; drain; return rounds.

    Algorithm 4 admits one blocked add per process per shard, so an add
    whose slot is busy waits for a later round, keeping its place.
    """
    busy: Dict[tuple, object] = {}
    rounds = 0
    while (pending or busy) and not cluster.exhausted:
        issued, deferred = 0, []
        while pending and issued < WEAKSET_ADDS_PER_ROUND:
            value, pid = pending.popleft()
            slot = (pid, cluster.shard_index_for(value))
            if slot in busy:
                deferred.append((value, pid))
                continue
            busy[slot] = cluster.handle(pid).add_async(value)
            issued += 1
        pending.extendleft(reversed(deferred))
        rounds += cluster.advance(1)
        busy = {slot: record for slot, record in busy.items() if record.end is None}
        cluster.handle(rounds % WEAKSET_N).get()
    return rounds


def weakset_rw(seed: int, tiny: bool = False) -> Outcome:
    """Sharded weak-set adds and gets over the multiprocess backend."""
    offered_rounds = 5 if tiny else WEAKSET_OFFERED_ROUNDS
    pending = deque(
        (f"v{seed}-{index}", index % WEAKSET_N)
        for index in range(WEAKSET_ADDS_PER_ROUND * offered_rounds)
    )
    offered = len(pending)
    start = time.perf_counter()
    cluster = ShardedWeakSetCluster(
        WEAKSET_N,
        shards=WEAKSET_SHARDS,
        environment_factory=ChurnEnvironments(pattern="random", seed=seed),
        max_total_rounds=WEAKSET_MAX_ROUNDS,
        trace_mode="aggregate",
        backend="multiprocess",
        start_method="fork",
    )
    try:
        cluster.handle(0).get()  # the first exchange: every worker is up
        ready = time.perf_counter()
        rounds = _stream(cluster, pending)
        done = time.perf_counter()
        counters = {
            "exchanges": cluster.backend.exchanges,
            "frame_pairs": cluster.backend.frame_pairs,
        }
        deliveries = sum(trace.agg_deliveries for trace in cluster.traces())
    finally:
        cluster.close()
    log = cluster.log
    failures = [f"add of {value!r} by p{pid} never issued" for value, pid in pending]
    failures += [
        f"add of {record.value!r} by p{record.pid} never completed"
        for record in log.adds
        if not record.completed
    ]
    for get in log.gets:
        report = repro.weakset.spec.check_weakset(OpLog(adds=log.adds, gets=[get]))
        failures += report.violations[:1]
    completed = sum(record.completed for record in log.adds)
    return Outcome(
        setup_s=ready - start,
        run_s=done - ready,
        rounds=rounds,
        deliveries=deliveries,
        attempted=offered + len(log.gets),
        failures=failures,
        fingerprint=_fingerprint(
            decisions=0,
            rounds=rounds,
            deliveries=deliveries,
            adds=completed,
            detail=(
                [(record.value, record.start, record.end) for record in log.adds],
                [len(get.result) for get in log.gets],
            ),
        ),
        counters=counters,
    )


WORKLOADS: Dict[str, Callable[..., Outcome]] = {
    "ess_lockstep_crash": ess_lockstep_crash,
    "es_drifting": es_drifting,
    "heartbeat_matrix": heartbeat_matrix,
    "weakset_rw": weakset_rw,
}

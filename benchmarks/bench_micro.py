"""Micro-benchmarks for the hot inner structures.

Not tied to a paper table; these track the costs the experiment
harness leans on — counter merging, the payload-size proxy, and raw
lock-step scheduling throughput — so regressions in the substrate are
visible independently of the experiment-level numbers.

The headline benches (``test_bench_counter_update_interned``,
``test_bench_lockstep_round_throughput``) measure the engine's
*default* path: interned histories riding in :class:`FrozenCounters`
and the aggregate trace mode — what every experiment actually
executes.  The ``*_scan`` / ``*_full_trace`` variants keep the legacy
paths honest (they remain supported and property-tested).
``benchmarks/capture.py`` records all of them into ``BENCH_micro.json``.
"""

import queue
import random
import socket
import threading
import time

from repro.core.counters import FrozenCounters, apply_round_update
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.core.history import clear_intern_cache, intern_history
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    RandomSource,
    RoundRobinSource,
    UniformDelay,
)
from repro.giraf.environments import (
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    SilentLinks,
)
from repro.giraf.messages import payload_size
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.runtime.events import CalendarEventQueue, HeapEventQueue
from repro.sim.runner import stop_when_all_correct_decided
from repro.sim.workloads import ChurnEnvironments
from repro.weakset.cluster import MSWeakSetCluster
from repro.weakset.protocol import (
    PeekReply,
    RoundReply,
    RoundRequest,
    decode_message,
    encode_message,
)
from repro.weakset.sharding import (
    MultiprocessBackend,
    ShardedWeakSetCluster,
    SocketBackend,
    spawn_socket_workers,
)


def _counter_workload(depth: int, fanout: int, *, interned: bool = True):
    """Counter maps sharing a deep trunk, one private leaf per process.

    This is the support shape relaying produces (and what the pointwise
    minimum actually intersects): every process carries the counters of
    the shared ⋄-proposer prefix chain plus its own divergent leaf.
    ``interned=True`` builds the engine's default representation
    (hash-consed histories in frozen counter maps); ``False`` builds
    the same workload as plain tuples — the seed representation — so
    the two benches compare the engines on identical inputs.
    """
    trunk = [0] * depth
    maps = []
    histories = []
    for branch in range(fanout):
        entries = {tuple(trunk[: i + 1]): i + 1 for i in range(depth)}
        leaf = tuple(trunk) + (branch,)
        entries[leaf] = 1
        if interned:
            entries = {intern_history(h): c for h, c in entries.items()}
            histories.append(intern_history(leaf))
            maps.append(FrozenCounters(entries))
        else:
            histories.append(leaf)
            maps.append(entries)
    return maps, histories


def test_bench_counter_update_interned(benchmark):
    """Default engine path: interned histories, stamped fused update."""
    maps, histories = _counter_workload(depth=60, fanout=8)
    result = benchmark(apply_round_update, maps, histories)
    assert all(result[h] >= 1 for h in histories)


def test_bench_counter_update_scan(benchmark):
    """Tuple-history path: per-entry prefix scans (the reference)."""
    maps, histories = _counter_workload(depth=60, fanout=8, interned=False)
    result = benchmark(apply_round_update, maps, histories)
    assert all(result[h] >= 1 for h in histories)


def test_bench_payload_size(benchmark):
    payload = frozenset(
        {tuple(range(i, i + 30)) for i in range(40)}
    )
    size = benchmark(payload_size, payload)
    assert size > 1000


def test_bench_payload_size_interned(benchmark):
    """Same structural measurement over interned (cached-size) histories."""
    payload = frozenset(
        {intern_history(range(i, i + 30)) for i in range(40)}
    )
    size = benchmark(payload_size, payload)
    assert size > 1000


def _run_lockstep(trace_mode: str):
    scheduler = LockStepScheduler(
        [ESConsensus(v) for v in range(16)],
        EventualSynchronyEnvironment(gst=1),
        max_rounds=50,
        stop_when=stop_when_all_correct_decided,
        trace_mode=trace_mode,
    )
    return scheduler.run()


def test_bench_lockstep_round_throughput(benchmark):
    """Default experiment path: aggregate trace mode."""
    trace = benchmark(_run_lockstep, "aggregate")
    assert trace.decided_pids()


def test_bench_lockstep_round_throughput_full_trace(benchmark):
    """Checker-grade full event traces (the seed's only mode)."""
    trace = benchmark(_run_lockstep, "full")
    assert trace.decided_pids()


def _run_drifting(trace_mode: str):
    scheduler = DriftingScheduler(
        [ESConsensus(v) for v in range(12)],
        EventualSynchronyEnvironment(gst=1),
        max_rounds=40,
        stop_when=stop_when_all_correct_decided,
        trace_mode=trace_mode,
    )
    return scheduler.run()


def test_bench_drifting_round_throughput(benchmark):
    """Drifting scheduler on the runtime kernel, aggregate sink."""
    trace = benchmark(_run_drifting, "aggregate")
    assert trace.decided_pids()


def test_bench_drifting_round_throughput_full_trace(benchmark):
    """Drifting scheduler, checker-grade full event traces."""
    trace = benchmark(_run_drifting, "full")
    assert trace.decided_pids()


#: one n=64 broadcast's late receivers (everyone but the sender)
DELAY_ROW_RECEIVERS = list(range(1, 64))


def _delay_row_v1_reference(lo, hi, seed, round_no, sender, receivers):
    """The per-link draw the keyed streams replaced, kept only as this
    bench's reference: one ``random.Random(repr(key))`` (SHA-512 seeding
    plus a Mersenne-Twister init) per late link."""
    return [
        random.Random(repr(("delay", seed, round_no, sender, receiver))).randint(
            lo, hi
        )
        for receiver in receivers
    ]


def test_bench_delay_row_v3_n64(benchmark):
    """One broadcast's late delays through ``UniformDelay.delay_row``:
    one SHAKE-128 block covers all 63 receivers."""
    row = benchmark(UniformDelay(2, 6, seed=3).delay_row, 7, 0, DELAY_ROW_RECEIVERS)
    assert len(row) == 63 and set(row) <= set(range(2, 7))


def test_bench_delay_row_v1_reference_n64(benchmark):
    """The same row drawn the old way, one seeded stream per link."""
    row = benchmark(_delay_row_v1_reference, 2, 6, 3, 7, 0, DELAY_ROW_RECEIVERS)
    assert len(row) == 63 and set(row) <= set(range(2, 7))


#: one lock-step round of the headline shape at n=64: 48 late senders,
#: every link late (the diagonal is a sender's own, drawn but unused)
DELAY_ROUND_SENDERS = list(range(16, 64))
DELAY_ROUND_RECEIVERS = list(range(64))


def _delay_round_late():
    import numpy as np

    shape = (len(DELAY_ROUND_SENDERS), len(DELAY_ROUND_RECEIVERS))
    late = np.ones(shape, dtype=bool)
    late[np.arange(len(DELAY_ROUND_SENDERS)), DELAY_ROUND_SENDERS] = False
    return late


def _delay_round_rows(policy, round_no, senders, late_receivers):
    """The same round as one ``delay_row`` per sender over its late
    receivers, the way the object engine draws it."""
    return [
        policy.delay_row(round_no, sender, late)
        for sender, late in zip(senders, late_receivers)
    ]


def test_bench_delay_round_matrix_n64(benchmark):
    """A 48 x 64 round of late delays through ``UniformDelay.delay_matrix``:
    one SHAKE-128 block per sender, gathered as one numpy array."""
    policy = UniformDelay(2, 6, seed=3)
    late = _delay_round_late()
    delays = benchmark(
        policy.delay_matrix, 7, DELAY_ROUND_SENDERS, DELAY_ROUND_RECEIVERS, late
    )
    assert delays.shape == late.shape
    assert set(delays[late].tolist()) == set(range(2, 7))


def test_bench_delay_round_rows_n64(benchmark):
    """The same round as 48 ``delay_row`` calls."""
    policy = UniformDelay(2, 6, seed=3)
    late_receivers = [
        [r for r in DELAY_ROUND_RECEIVERS if r != sender]
        for sender in DELAY_ROUND_SENDERS
    ]
    rows = benchmark(
        _delay_round_rows, policy, 7, DELAY_ROUND_SENDERS, late_receivers
    )
    assert len(rows) == 48 and all(len(row) == 63 for row in rows)


def _ess_uniform(n: int, engine: str = "object"):
    """Algorithm 3 under ESS, lock-step, random source moves and random
    late delays, until every process decides: every late link draws a
    keyed delay."""
    clear_intern_cache()
    scheduler = LockStepScheduler(
        [ESSConsensus(value) for value in range(n)],
        EventuallyStableSourceEnvironment(
            stabilization_round=1,
            preferred_source=0,
            source_schedule=RandomSource(3),
            delay_policy=UniformDelay(2, 6, seed=3),
        ),
        max_rounds=100,
        stop_when=stop_when_all_correct_decided,
        trace_mode="aggregate",
        engine=engine,
    )
    return scheduler.run()


def test_bench_ess_uniform_n256(benchmark):
    """The paper's ESS consensus at n=256 with randomized delays."""
    trace = benchmark.pedantic(_ess_uniform, args=(256,), rounds=3, iterations=1)
    assert len(trace.decided_pids()) == 256


def test_bench_ess_uniform_columnar_n256(benchmark):
    """The same run on the lock-step matrix engine (Algorithm 3 as
    boolean proposal matrices plus counter rows)."""
    trace = benchmark.pedantic(
        _ess_uniform, args=(256, "columnar"), rounds=3, iterations=1
    )
    assert len(trace.decided_pids()) == 256


def _heartbeat_lockstep(n: int, engine: str, rounds: int, source=None):
    """S1's regime at bench scale: heartbeat pseudo-leaders, 8 brands,
    MS obligations (round-robin unless ``source`` says otherwise), no
    extra links, aggregate traces — the dense anonymity workload the
    columnar engine collapses to matrix ops.  The intern table is
    cleared first so every iteration pays the same (empty-cache)
    interning bill."""
    clear_intern_cache()
    scheduler = LockStepScheduler(
        [HeartbeatPseudoLeader(pid % 8) for pid in range(n)],
        MovingSourceEnvironment(
            source or RoundRobinSource(),
            SilentLinks(),
            ConstantDelay(NEVER_DELIVERED),
        ),
        max_rounds=rounds,
        trace_mode="aggregate",
        engine=engine,
    )
    trace = scheduler.run()
    assert trace.rounds_executed == rounds
    return trace


def test_bench_aggregate_round_object_n100(benchmark):
    """The object engine's per-round cost at n=100 (12 rounds/run)."""
    trace = benchmark(_heartbeat_lockstep, 100, "object", 12)
    assert trace.agg_sends > 0


def test_bench_aggregate_round_columnar_n100(benchmark):
    """The columnar engine on the identical n=100 workload."""
    trace = benchmark(_heartbeat_lockstep, 100, "columnar", 12)
    assert trace.agg_sends > 0


def test_bench_aggregate_round_object_n10k(benchmark):
    """The object engine at n=10,000 — the honest baseline the
    columnar floor is measured against.  One iteration of 2 rounds is
    all this box can afford (several seconds *per round*); the twin
    below runs the identical workload."""
    trace = benchmark.pedantic(
        _heartbeat_lockstep, args=(10_000, "object", 2), rounds=1, iterations=1
    )
    assert trace.agg_sends > 0


def test_bench_aggregate_round_columnar_n10k(benchmark):
    """The columnar engine at n=10,000, same 2-round workload."""
    trace = benchmark.pedantic(
        _heartbeat_lockstep, args=(10_000, "columnar", 2), rounds=3, iterations=1
    )
    assert trace.agg_sends > 0


def test_bench_heartbeat_columnar_n10k_r40(benchmark):
    """The end-to-end ``heartbeat_matrix`` shape on the lock-step matrix
    engine: n=10,000, 8 brands, a random moving source, silent links,
    never-delivered lates, 40 rounds.  Most counter columns die after
    about 10 rounds, which the 2-round benches above never reach; this
    is the bench the live-column layout is measured on."""
    trace = benchmark.pedantic(
        _heartbeat_lockstep,
        args=(10_000, "columnar", 40, RandomSource(1)),
        rounds=3,
        iterations=1,
    )
    assert trace.agg_deliveries == 40 * 9_999


def _heartbeat_drifting(n: int, engine: str, rounds: int):
    """The drifting twin of ``_heartbeat_lockstep``: the same S1
    anonymity regime driven by the event loop — per-process nominal
    clocks, continuous-time deliveries, gating on the MS obligation.
    ``engine="columnar"`` takes the delivery-tick-column engine; the
    intern table is cleared first so every iteration pays the same
    (empty-cache) interning bill."""
    clear_intern_cache()
    scheduler = DriftingScheduler(
        [HeartbeatPseudoLeader(pid % 8) for pid in range(n)],
        MovingSourceEnvironment(
            RoundRobinSource(), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
        ),
        max_rounds=rounds,
        trace_mode="aggregate",
        engine=engine,
    )
    trace = scheduler.run()
    assert trace.agg_sends > 0
    return trace


def test_bench_drifting_round_object_n100(benchmark):
    """The object event loop's per-round cost at n=100 (12 rounds)."""
    trace = benchmark(_heartbeat_drifting, 100, "object", 12)
    assert trace.agg_sends > 0


def test_bench_drifting_round_columnar_n100(benchmark):
    """The drifting columnar engine on the identical n=100 workload."""
    trace = benchmark(_heartbeat_drifting, 100, "columnar", 12)
    assert trace.agg_sends > 0


def test_bench_drifting_round_object_n10k(benchmark):
    """The object event loop at n=10,000 — tens of seconds *per
    round* (every broadcast walks its n-1 receivers in Python), so one
    iteration of 2 rounds is all this box can afford; the twin below
    runs the identical workload."""
    trace = benchmark.pedantic(
        _heartbeat_drifting, args=(10_000, "object", 2), rounds=1, iterations=1
    )
    assert trace.agg_sends > 0


def test_bench_drifting_round_columnar_n10k(benchmark):
    """The drifting columnar engine at n=10,000, same 2-round workload."""
    trace = benchmark.pedantic(
        _heartbeat_drifting, args=(10_000, "columnar", 2), rounds=3, iterations=1
    )
    assert trace.agg_sends > 0


def _event_queue_churn(queue_factory, pending: int = 200_000, churn: int = 100_000):
    """Steady-state event churn at a size where the insert cost shows.

    Seeds ``pending`` in-flight events, then pops-and-reschedules
    ``churn`` times — the drifting scheduler's delivery pattern, scaled
    to the large ``n × rounds`` regime the calendar queue targets
    (every heap insert pays O(log N) sift work there; calendar inserts
    are bucket appends).
    """
    rng = random.Random(0)
    queue = queue_factory()
    now, seq = 0.0, 0
    for _ in range(pending):
        queue.push((now + rng.uniform(0.0, 6.0), seq, "deliver", None))
        seq += 1
    for _ in range(churn):
        now = queue.pop()[0]
        queue.push((now + rng.uniform(0.05, 6.0), seq, "deliver", None))
        seq += 1
    assert len(queue) == pending
    return seq


def test_bench_event_queue_heap(benchmark):
    """The historical global-heap event core on the churn workload."""
    total = benchmark.pedantic(
        _event_queue_churn, args=(HeapEventQueue,), rounds=3, iterations=1
    )
    assert total == 300_000


def test_bench_event_queue_calendar(benchmark):
    """The calendar (bucketed) event core on the identical workload."""
    total = benchmark.pedantic(
        _event_queue_churn,
        args=(lambda: CalendarEventQueue(1.0),),
        rounds=3,
        iterations=1,
    )
    assert total == 300_000


# one shard round trip's worth of hot frames: a round request carrying
# a burst of adds, its reply, and a peek reply hauling a PROPOSED set
_CODEC_MESSAGES = (
    RoundRequest(adds=tuple((t, t % 4, f"churn-0-{t}") for t in range(8))),
    RoundReply(
        alive=True,
        completions=tuple((t, 3.0 + t) for t in range(8)),
        crashed=frozenset({1, 3}),
        now=42.0,
    ),
    PeekReply(crashed=False, proposed=frozenset(f"churn-0-{i}" for i in range(40))),
)


def _frame_codec_round_trips(repeats: int = 200):
    for _ in range(repeats):
        for message in _CODEC_MESSAGES:
            assert decode_message(encode_message(message)) == message


def test_bench_frame_codec_binary(benchmark):
    """The frame codec: encode + decode of one round trip's frames."""
    benchmark(_frame_codec_round_trips)


def _nested_payload(index: int):
    """A nested tuple/frozenset value with all-string leaves — the
    shape the 'W' flattened layout column-packs into one lane."""
    return (
        (f"churn-{index}", (f"key-{index}", f"val-{index}")),
        frozenset({(f"tag-{index}", f"src-{index}"), (f"alt-{index}", "x")}),
    )


# the same round-trip shape as _CODEC_MESSAGES but with every payload
# nested two containers deep: requests hauling structured values and a
# peek reply hauling a PROPOSED set of them
_NESTED_MESSAGES = (
    RoundRequest(adds=tuple((t, t % 4, _nested_payload(t)) for t in range(8))),
    PeekReply(
        crashed=False, proposed=frozenset(_nested_payload(i) for i in range(20))
    ),
)


def _nested_codec_round_trips(repeats: int = 200):
    for _ in range(repeats):
        for message in _NESTED_MESSAGES:
            assert decode_message(encode_message(message)) == message


def test_bench_frame_codec_nested_binary(benchmark):
    """Nested payloads through the codec's flattened shape-prefixed
    layout (one shape string + one packed leaf lane instead of one
    dispatch per node)."""
    benchmark(_nested_codec_round_trips)


def _weakset_add_wave(shards: int):
    """A wave of adds across every process, riding batched delivery."""
    if shards == 1:
        cluster = MSWeakSetCluster(8, max_total_rounds=200)
    else:
        cluster = ShardedWeakSetCluster(8, shards=shards, max_total_rounds=200)
    records = []
    for batch in range(3):
        records += [
            cluster.handle(pid).add_async(f"w{pid}-{batch}") for pid in range(8)
        ]
        # one add per process may be in flight; drain the batch before
        # launching the next wave
        while not cluster.exhausted and any(
            record.end is None for record in records
        ):
            cluster.advance(1)
    assert all(record.end is not None for record in records)
    return records


def test_bench_weakset_cluster_adds(benchmark):
    """24 concurrent adds on one 8-process Algorithm-4 cluster."""
    records = benchmark(_weakset_add_wave, 1)
    assert all(record.end is not None for record in records)


def test_bench_weakset_sharded_adds(benchmark):
    """The same wave over 4 value-partitioned shard clusters."""
    records = benchmark(_weakset_add_wave, 4)
    assert all(record.end is not None for record in records)


def _churn(backend: str, **kwargs):
    """The churn workload's quick shape on a given shard backend."""
    from repro.sim.runner import run_churn_workload

    return run_churn_workload(
        n=4,
        shards=2,
        total_adds=12,
        adds_per_round=2,
        pattern="random",
        backend=backend,
        seed=0,
        **kwargs,
    )


def test_bench_churn_workload_serial(benchmark):
    """Churn add stream over 2 shard groups, serial backend."""
    run = benchmark(_churn, "serial")
    assert run.completed == 12


def test_bench_churn_workload_multiprocess(benchmark):
    """The same stream with one worker process per shard.

    Includes worker start-up/tear-down per iteration, so this is the
    end-to-end cost of the process seam, not just the steady state;
    pedantic mode bounds the number of spawns.
    """
    run = benchmark.pedantic(_churn, args=("multiprocess",), rounds=3, iterations=1)
    assert run.completed == 12


def test_bench_churn_workload_socket(benchmark):
    """The same stream again over loopback TCP (socket backend).

    Like the multiprocess twin this includes spawning the workers and
    the TCP accept/handshake per iteration — the end-to-end cost of
    the wire, which is what a multi-machine deployment pays once plus
    the per-round frame traffic.
    """
    run = benchmark.pedantic(_churn, args=("socket",), rounds=3, iterations=1)
    assert run.completed == 12


def test_bench_churn_workload_socket_batched(benchmark):
    """The socket stream again with drain rounds batched 4-per-frame.

    Same workload, same results (latencies are batch-invariant); the
    drain tail crosses the wire as one frame pair per 4 rounds.  On
    loopback the round trips are cheap so the win is modest — the
    batching lever is sized for high-latency links, where each saved
    round trip is a full RTT.
    """
    run = benchmark.pedantic(
        _churn,
        args=("socket",),
        kwargs={"round_batch": 4},
        rounds=3,
        iterations=1,
    )
    assert run.completed == 12


def test_bench_shard_recovery_time(benchmark):
    """The multiprocess stream with one worker killed and healed mid-run.

    A seeded FaultPlan kills shard 0's worker at the third driver
    exchange; supervision (``recover=True``) respawns it and replays
    its world from the seed streams.  The delta against the unfaulted
    multiprocess twin is the end-to-end recovery bill: detection,
    respawn (process start + handshake), and deterministic replay.
    The run's results must still match the serial reference exactly.
    """
    from repro.weakset.faults import FaultPlan, Fault
    from repro.weakset.supervisor import RetryPolicy

    plan = FaultPlan((Fault("kill", 0, 3),))
    policy = RetryPolicy(attempts=3, base_delay=0.01, request_timeout=30.0)
    run = benchmark.pedantic(
        _churn,
        args=("multiprocess",),
        kwargs={"recover": True, "fault_plan": plan, "retry_policy": policy},
        rounds=3,
        iterations=1,
    )
    assert run.completed == 12
    assert run.recovery is not None and run.recovery.respawns == 1


def _grown_membership_cluster(shards: int) -> ShardedWeakSetCluster:
    """A steady serial shard cluster at round 6 with 8 adds in flight."""
    cluster = ShardedWeakSetCluster(8, shards=shards, max_total_rounds=500)
    for pid in range(8):
        cluster.handle(pid).add_async(f"grow-{pid}")
    cluster.advance(6)
    return cluster


def test_bench_shard_rebalance_join(benchmark):
    """One ``join_shard()`` on a steady 2-shard serial cluster.

    What is timed is the whole membership change: the consistent-hash
    ring diff, the minimal moved-value set, migration, and the
    deterministic seed replay that rebuilds the newcomer's world to the
    current round.  Each bench round starts from a fresh steady cluster
    (built in setup, outside the measurement).  The fresh-twin bench
    below is the yardstick: a rebalance is pinned byte-identical to
    constructing the post-join membership from scratch, so its cost
    should stay in the same ballpark as (and amortize better than)
    that rebuild.
    """

    def join(cluster):
        member = cluster.join_shard()
        stats = cluster.last_rebalance
        assert stats.moved_values >= 1 and member in stats.rebuilt_members
        return stats

    benchmark.pedantic(
        join,
        setup=lambda: ((_grown_membership_cluster(2),), {}),
        rounds=5,
        iterations=1,
    )


def test_bench_shard_rebalance_fresh_twin(benchmark):
    """The rebalance's equivalence yardstick, measured directly:
    construct the post-join membership (3 shard groups) from scratch
    and drive it through the identical schedule to the same round."""
    cluster = benchmark(_grown_membership_cluster, 3)
    assert cluster.now == 6.0


def _steady_multiprocess_cluster() -> ShardedWeakSetCluster:
    """A 4-shard multiprocess cluster at steady state (adds landed)."""
    backend = MultiprocessBackend(
        4,
        shards=4,
        environment_factory=ChurnEnvironments(seed=0),
        crash_schedule=None,
        max_total_rounds=1_000_000,
        trace_mode="aggregate",
    )
    cluster = ShardedWeakSetCluster(4, shards=4, backend=backend)
    for pid in range(4):
        cluster.handle(pid).add_async(f"seed-{pid}")
    cluster.advance(10)
    return cluster


def test_bench_shard_harvest_overlapped(benchmark):
    """25 protocol round trips × 4 shard workers, selector harvest.

    Workers are spawned once outside the measurement; what is timed is
    the steady per-round exchange — send-all, then harvest completions
    as they arrive.  Multi-core is where the overlap hides a slow shard
    behind its siblings.
    """
    cluster = _steady_multiprocess_cluster()
    try:
        benchmark.pedantic(cluster.advance, args=(25,), rounds=5, iterations=1)
    finally:
        cluster.close()


def test_bench_churn_workload_socket_mux(benchmark):
    """The batched socket stream with both shard worlds multiplexed
    behind ONE worker process (``worlds_per_worker=2``).

    Against the ``socket_batched`` twin this halves the processes to
    spawn and hand-shake and collapses every exchange's two frame
    pairs into one — the whole end-to-end bill shrinks accordingly.
    """
    run = benchmark.pedantic(
        _churn,
        args=("socket",),
        kwargs={"round_batch": 4, "worlds_per_worker": 2},
        rounds=3,
        iterations=1,
    )
    assert run.completed == 12


class _DelayedLink:
    """A loopback TCP proxy adding a fixed one-way delay each way.

    Models a real network link in front of the shard workers, which is
    the deployment the socket backend exists for: every byte chunk is
    released ``delay`` seconds after it arrived, but later bytes keep
    flowing while earlier ones are still "in flight" — so an in-flight
    request wave genuinely overlaps the link latency exactly as it
    would on a WAN.  Zero-latency loopback cannot show what the
    pipelined window buys (there is nothing to hide); this link can.
    """

    def __init__(self, upstream, delay: float):
        self.upstream = upstream
        self.delay = delay
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self._sockets = [self.listener]
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while True:
            try:
                front, _peer = self.listener.accept()
            except OSError:
                return  # listener closed
            back = None
            for _ in range(100):
                try:
                    back = socket.create_connection(self.upstream, timeout=5.0)
                    break
                except OSError:
                    time.sleep(0.05)
            if back is None:
                front.close()
                continue
            for sock in (front, back):
                # the link must only add its own delay: Nagle holding
                # small frames behind delayed ACKs would add a 40 ms
                # stall that isn't part of the modelled latency
                try:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                except OSError:
                    pass
            self._sockets += [front, back]
            for source, sink in ((front, back), (back, front)):
                held = queue.SimpleQueue()
                threading.Thread(
                    target=self._pump_in, args=(source, held), daemon=True
                ).start()
                threading.Thread(
                    target=self._pump_out, args=(held, sink), daemon=True
                ).start()

    def _pump_in(self, source, held):
        while True:
            try:
                data = source.recv(65536)
            except OSError:
                data = b""
            held.put((time.monotonic() + self.delay, data))
            if not data:
                return

    def _pump_out(self, held, sink):
        while True:
            deadline, data = held.get()
            wait = deadline - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            if not data:
                try:
                    sink.shutdown(socket.SHUT_WR)
                except OSError:
                    pass
                return
            try:
                sink.sendall(data)
            except OSError:
                return

    def close(self):
        for sock in self._sockets:
            try:
                sock.close()
            except OSError:
                pass


class _LinkedCluster:
    """A 4-shard socket cluster whose workers sit behind a 2 ms-each-
    way :class:`_DelayedLink`, batching 4 rounds per frame; the
    pipelined window is the only lever between the twin benches."""

    def __init__(self, window: int, delay: float = 0.002):
        placeholder = socket.create_server(("127.0.0.1", 0))
        parent_address = placeholder.getsockname()[:2]
        placeholder.close()
        self.link = _DelayedLink(parent_address, delay)
        self.workers = spawn_socket_workers(self.link.address, 4)
        backend = SocketBackend(
            4,
            shards=4,
            environment_factory=ChurnEnvironments(seed=0),
            crash_schedule=None,
            max_total_rounds=1_000_000,
            trace_mode="aggregate",
            round_batch=4,
            window=window,
            listen=parent_address,
            accept_timeout=30.0,
        )
        self.cluster = ShardedWeakSetCluster(4, shards=4, backend=backend)
        for pid in range(4):
            self.cluster.handle(pid).add_async(f"seed-{pid}")
        self.cluster.advance(10)

    def close(self):
        self.cluster.close()
        for worker in self.workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.terminate()
        self.link.close()


def test_bench_shard_rounds_linked_unpipelined(benchmark):
    """32 batched rounds × 4 workers across a 2 ms link, window=1.

    Workers are spawned (and the link built) once outside the
    measurement.  Strict send-then-harvest pays the full round-trip
    latency once per batch: 8 chunks × ~4 ms RTT on top of the
    compute.
    """
    linked = _LinkedCluster(window=1)
    try:
        benchmark.pedantic(
            linked.cluster.advance, args=(32,), rounds=3, iterations=1
        )
    finally:
        linked.close()


def test_bench_shard_rounds_linked_pipelined(benchmark):
    """The same 32 rounds over the same link with window=4.

    Up to 4 batches are in flight per worker, so their round trips
    overlap on the wire: the latency bill is paid roughly once per
    window instead of once per batch, while replies stream back into
    the persistent selector.  Traces are byte-identical to the
    unpipelined twin — the window is pure transport shape.
    """
    linked = _LinkedCluster(window=4)
    try:
        benchmark.pedantic(
            linked.cluster.advance, args=(32,), rounds=3, iterations=1
        )
    finally:
        linked.close()

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
import statistics
import sys
import threading
import time
from collections import deque
from pathlib import Path

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
from repro.serialization import trace_to_json
from repro.sim.runner import stop_when_all_correct_decided
from repro.sim.workloads import ChurnEnvironments
from repro.weakset.cluster import MSWeakSetCluster
from repro.weakset.ms_weakset import MSWeakSetAlgorithm, VerbatimMSWeakSetAlgorithm
from repro.weakset.protocol import (
    MuxReply,
    PeekReply,
    ReplayRequest,
    StepBatchReply,
    StepBatchRequest,
    decode_message,
    encode_message,
)
from repro.weakset.sharding import (
    MultiprocessBackend,
    ShardedWeakSetCluster,
    SocketBackend,
    _member_replay_requests,
    spawn_socket_workers,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _interleave(benchmark, turns, sides, setup=None):
    """Time the two ``sides`` of a same-run ratio in alternation.

    ``sides`` maps a bench name to a zero-argument call.  After one
    untimed warm-up turn each side runs ``turns`` times, A, B, A, B, …,
    and each side's median over its own turns is recorded in
    ``extra_info["median_us"]`` under its name, which
    ``benchmarks/capture.py`` files in ``micro_us``.  A slow spell on
    the host then lands on both sides of the ratio alike, instead of on
    whichever side happened to run during it.

    ``setup`` optionally maps a side's name to a zero-argument call
    run before each of that side's turns, outside the timing; the side
    is then called with what it returns (a fresh cluster, say, that
    the timed call changes).
    """
    setup = setup or {}

    def turn(name, call):
        args = (setup[name](),) if name in setup else ()
        start = time.perf_counter()
        call(*args)
        return time.perf_counter() - start

    def alternate():
        samples = {name: [] for name in sides}
        for name, call in sides.items():
            turn(name, call)
        for _ in range(turns):
            for name, call in sides.items():
                samples[name].append(turn(name, call))
        return samples

    samples = benchmark.pedantic(alternate, rounds=1, iterations=1)
    benchmark.extra_info["median_us"] = {
        name: round(statistics.median(times) * 1e6, 3)
        for name, times in samples.items()
    }


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


def test_bench_drifting_round_throughput_pair(benchmark):
    """Drifting scheduler on the runtime kernel, aggregate sink
    (``test_bench_drifting_round_throughput``) against checker-grade
    full event traces (``..._full_trace``), timed in alternation: each
    side runs a few milliseconds, short enough for host load to move
    one side's median against the other's when they run apart."""

    def aggregate():
        assert _run_drifting("aggregate").decided_pids()

    def full():
        assert _run_drifting("full").decided_pids()

    _interleave(
        benchmark,
        150,
        {
            "test_bench_drifting_round_throughput": aggregate,
            "test_bench_drifting_round_throughput_full_trace": full,
        },
    )


def _es_drifting(scheduler_cls, seed: int):
    """One ``es_drifting`` instance (the e2e workload's shape):
    Algorithm 2 at n=64 in ES with GST 2 and ``UniformDelay(2, 6)``,
    run until every process decides."""
    scheduler = scheduler_cls(
        [ESConsensus(value) for value in random.Random(seed).sample(range(10**6), 64)],
        EventualSynchronyEnvironment(
            gst=2,
            source_schedule=RandomSource(seed),
            delay_policy=UniformDelay(2, 6, seed=seed),
        ),
        max_rounds=200,
        stop_when=stop_when_all_correct_decided,
        trace_mode="aggregate",
    )
    return scheduler.run()


def test_bench_drifting_es_n64_drained_vs_per_envelope(benchmark):
    """Three ``es_drifting`` instances on the drifting loop, which
    drains a receiver's arrivals when it computes
    (``test_bench_drifting_es_n64_drained``), against the frozen
    per-envelope loop the tests pin it to, one queue event per
    delivered envelope (``..._per_envelope``), timed in alternation.
    Both sides produce identical traces (asserted before the timing)."""
    sys.path.insert(0, str(REPO_ROOT / "tests" / "runtime"))
    from drifting_oracle import PerEnvelopeDriftingScheduler

    seeds = (901001, 901002, 901003)
    for seed in seeds:
        assert _es_drifting(DriftingScheduler, seed) == _es_drifting(
            PerEnvelopeDriftingScheduler, seed
        )

    def drained():
        for seed in seeds:
            _es_drifting(DriftingScheduler, seed)

    def per_envelope():
        for seed in seeds:
            _es_drifting(PerEnvelopeDriftingScheduler, seed)

    _interleave(
        benchmark,
        10,
        {
            "test_bench_drifting_es_n64_drained": drained,
            "test_bench_drifting_es_n64_per_envelope": per_envelope,
        },
    )


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


def test_bench_delay_round_matrix_vs_rows_n64(benchmark):
    """A 48 x 64 round of late delays through ``UniformDelay.delay_matrix``
    — one SHAKE-128 block per sender, gathered as one numpy array
    (``test_bench_delay_round_matrix_n64``) — against the same round as
    48 ``delay_row`` calls (``test_bench_delay_round_rows_n64``), timed
    in alternation: each side runs well under a millisecond."""
    policy = UniformDelay(2, 6, seed=3)
    late = _delay_round_late()
    late_receivers = [
        [r for r in DELAY_ROUND_RECEIVERS if r != sender]
        for sender in DELAY_ROUND_SENDERS
    ]

    def matrix():
        return policy.delay_matrix(
            7, DELAY_ROUND_SENDERS, DELAY_ROUND_RECEIVERS, late
        )

    def rows():
        return _delay_round_rows(policy, 7, DELAY_ROUND_SENDERS, late_receivers)

    delays = matrix()
    assert delays.shape == late.shape
    assert set(delays[late].tolist()) == set(range(2, 7))
    assert rows() == [
        delays[index][late[index]].tolist()
        for index in range(len(DELAY_ROUND_SENDERS))
    ]
    _interleave(
        benchmark,
        1000,
        {
            "test_bench_delay_round_matrix_n64": matrix,
            "test_bench_delay_round_rows_n64": rows,
        },
    )


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


def _heartbeat_lockstep_scheduler(n: int, engine: str, rounds: int, source=None):
    """S1's regime at bench scale: heartbeat pseudo-leaders, 8 brands,
    MS obligations (round-robin unless ``source`` says otherwise), no
    extra links, aggregate traces — the dense anonymity workload the
    columnar engine collapses to matrix ops.  The intern table is
    cleared first so every iteration pays the same (empty-cache)
    interning bill."""
    clear_intern_cache()
    return LockStepScheduler(
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


def _heartbeat_lockstep(n: int, engine: str, rounds: int, source=None):
    """Build (see ``_heartbeat_lockstep_scheduler``) and run."""
    trace = _heartbeat_lockstep_scheduler(n, engine, rounds, source).run()
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


def test_bench_heartbeat_n10k_r40_narrow_vs_int64_counters(benchmark):
    """The ``heartbeat_matrix`` shape above with the counter matrices
    in the type their bound allows (int8 at 40 rounds,
    ``test_bench_heartbeat_n10k_r40_narrow_counters``) against the same
    run with ``counter_dtype`` patched to int64 for this bench only
    (``..._int64_counters``), timed in alternation.  Each turn's
    scheduler is built untimed, so only ``run()`` is timed, as in the
    end-to-end workload's ``instance_s``.  Both sides produce identical
    traces (asserted before the timing)."""
    import numpy as np

    from repro.runtime import columnar_engine

    narrow_dtype = columnar_engine.counter_dtype

    def narrow():
        return _heartbeat_lockstep_scheduler(10_000, "columnar", 40, RandomSource(1))

    def int64():
        columnar_engine.counter_dtype = lambda max_rounds: np.dtype(np.int64)
        try:
            return narrow()
        finally:
            columnar_engine.counter_dtype = narrow_dtype

    def run(scheduler):
        assert scheduler.run().rounds_executed == 40

    assert narrow().run() == int64().run()
    _interleave(
        benchmark,
        10,
        {
            "test_bench_heartbeat_n10k_r40_narrow_counters": run,
            "test_bench_heartbeat_n10k_r40_int64_counters": run,
        },
        setup={
            "test_bench_heartbeat_n10k_r40_narrow_counters": narrow,
            "test_bench_heartbeat_n10k_r40_int64_counters": int64,
        },
    )


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


#: a get's PROPOSED set at the size weakset_rw's peeks haul (median 40
#: strings): the shape the codec's one bulk lane packs
_PROPOSED_STRINGS = frozenset(f"churn-0-{i}" for i in range(40))

# one shard round trip's worth of hot frames: a round request carrying
# a burst of adds, its reply, and a peek reply hauling a PROPOSED set
_CODEC_MESSAGES = (
    StepBatchRequest(
        rounds=1, adds=tuple((t, t % 4, f"churn-0-{t}") for t in range(8))
    ),
    StepBatchReply(
        alive=True,
        executed=1,
        completions=tuple((t, 3.0 + t) for t in range(8)),
        crashed=frozenset({1, 3}),
        now=42.0,
    ),
    PeekReply(crashed=False, proposed=_PROPOSED_STRINGS),
)


def _frame_codec_round_trips(repeats: int = 200):
    for _ in range(repeats):
        for message in _CODEC_MESSAGES:
            assert decode_message(encode_message(message)) == message


def test_bench_frame_codec_binary(benchmark):
    """The frame codec: encode + decode of one round trip's frames."""
    benchmark(_frame_codec_round_trips)


def _peek_round_trips(message, repeats: int = 200):
    for _ in range(repeats):
        assert decode_message(encode_message(message)) == message


def test_bench_frame_codec_proposed_bulk_vs_walker(benchmark):
    """A get's 40-string ``PeekReply`` on the codec's bulk lane
    (``test_bench_frame_codec_proposed_bulk``) against the same set
    plus one int, which no bulk lane takes, so the per-value walker
    carries it (``test_bench_frame_codec_proposed_walker``): 200 round
    trips a turn, timed in alternation, 15 turns each.  The bulk lane
    is the codec's one second layout, kept while it beats the walker.
    """
    bulk = PeekReply(crashed=False, proposed=_PROPOSED_STRINGS)
    walker = PeekReply(crashed=False, proposed=_PROPOSED_STRINGS | {40})
    _interleave(
        benchmark,
        15,
        {
            "test_bench_frame_codec_proposed_bulk": lambda: _peek_round_trips(bulk),
            "test_bench_frame_codec_proposed_walker": lambda: _peek_round_trips(
                walker
            ),
        },
    )


def _nested_payload(index: int):
    """A value two containers deep with all-string leaves: the walker
    recurses through every tuple and frozenset node."""
    return (
        (f"churn-{index}", (f"key-{index}", f"val-{index}")),
        frozenset({(f"tag-{index}", f"src-{index}"), (f"alt-{index}", "x")}),
    )


# the same round-trip shape as _CODEC_MESSAGES but with every payload
# nested two containers deep: requests hauling structured values and a
# peek reply hauling a PROPOSED set of them
_NESTED_MESSAGES = (
    StepBatchRequest(
        rounds=1, adds=tuple((t, t % 4, _nested_payload(t)) for t in range(8))
    ),
    PeekReply(
        crashed=False, proposed=frozenset(_nested_payload(i) for i in range(20))
    ),
)


def _nested_codec_round_trips(repeats: int = 200):
    for _ in range(repeats):
        for message in _NESTED_MESSAGES:
            assert decode_message(encode_message(message)) == message


def test_bench_frame_codec_nested_binary(benchmark):
    """Nested payloads through the codec's per-value walker: one
    dispatch per tuple/frozenset node and per leaf."""
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


def _weakset_stream(algorithm_class, rounds: int = 200):
    """One 8-process Algorithm-4 cluster offered two adds per round for
    ``rounds`` rounds under ``UniformDelay(2, 5)``: late deliveries keep
    landing in old slots while ``PROPOSED`` grows by about two values a
    round.  A process with an add still blocked queues the next one."""
    n = 8
    algorithms = [algorithm_class() for _ in range(n)]
    queues = [deque() for _ in range(n)]

    def offer(tick):
        for index in (2 * tick, 2 * tick + 1):
            queues[index % n].append(f"s{index}")
        for algorithm, pending in zip(algorithms, queues):
            if pending and not algorithm.blocked:
                algorithm.begin_add(pending.popleft())

    LockStepScheduler(
        algorithms,
        MovingSourceEnvironment(RandomSource(7), delay_policy=UniformDelay(2, 5)),
        max_rounds=rounds,
        trace_mode="aggregate",
        on_round=offer,
    ).run()
    return algorithms


def test_bench_weakset_stream_r200(benchmark):
    """The stream on the stock automaton, whose line 15 folds only the
    messages that arrived since its last compute."""
    algorithms = benchmark.pedantic(
        _weakset_stream, args=(MSWeakSetAlgorithm,), rounds=3, iterations=1
    )
    assert len(algorithms[0].get_now()) > 300


def test_bench_weakset_stream_r200_verbatim(benchmark):
    """The same stream on the verbatim line 15, which re-reads every
    slot and flattens every message at every compute."""
    algorithms = benchmark.pedantic(
        _weakset_stream, args=(VerbatimMSWeakSetAlgorithm,), rounds=3, iterations=1
    )
    assert len(algorithms[0].get_now()) > 300


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


def test_bench_churn_workload_socket_batched_vs_mux(benchmark):
    """The socket stream with drain rounds batched 4-per-frame
    (``test_bench_churn_workload_socket_batched``) against the same
    batched stream with both shard worlds multiplexed behind ONE worker
    process (``test_bench_churn_workload_socket_mux``,
    ``worlds_per_worker=2``), timed in alternation, 10 turns each.

    Batching leaves the results alone (latencies are batch-invariant);
    the drain tail crosses the wire as one frame pair per 4 rounds.  On
    loopback the round trips are cheap, so that win is modest — the
    batching lever is sized for high-latency links.  Multiplexing
    halves the processes to spawn and hand-shake and collapses every
    exchange's two frame pairs into one.  Both sides are dominated by
    spawning workers, whose cost moves with the host's load, hence the
    alternation.
    """

    def batched():
        assert _churn("socket", round_batch=4).completed == 12

    def mux():
        run = _churn("socket", round_batch=4, worlds_per_worker=2)
        assert run.completed == 12

    _interleave(
        benchmark,
        10,
        {
            "test_bench_churn_workload_socket_batched": batched,
            "test_bench_churn_workload_socket_mux": mux,
        },
    )


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


def test_bench_shard_rebalance_join_vs_fresh_twin(benchmark):
    """One ``join_shard()`` on a steady 2-shard serial cluster, against
    its equivalence yardstick, timed in alternation.

    The join side (``test_bench_shard_rebalance_join``) times the whole
    membership change: the consistent-hash ring diff, the minimal
    moved-value set, migration, and the deterministic seed replay that
    rebuilds the newcomer's world to the current round.  Each turn
    starts from a fresh steady cluster, built by ``_interleave``'s
    setup outside the timing.  The fresh-twin side
    (``test_bench_shard_rebalance_fresh_twin``) constructs the
    post-join membership (3 shard groups) from scratch and drives it
    through the identical schedule to the same round: a rebalance is
    pinned byte-identical to that rebuild, so its cost should stay in
    the same ballpark (and amortize better).
    """

    def join(cluster):
        member = cluster.join_shard()
        stats = cluster.last_rebalance
        assert stats.moved_values >= 1 and member in stats.rebuilt_members

    def fresh_twin():
        assert _grown_membership_cluster(3).now == 6.0

    _interleave(
        benchmark,
        15,
        {
            "test_bench_shard_rebalance_join": join,
            "test_bench_shard_rebalance_fresh_twin": fresh_twin,
        },
        setup={"test_bench_shard_rebalance_join": lambda: _grown_membership_cluster(2)},
    )


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


def test_bench_shard_harvest_steady(benchmark):
    """25 protocol round trips × 4 shard workers at steady state.

    Workers are spawned once outside the measurement; what is timed is
    the steady per-round exchange — send every shard's step, then
    harvest the replies in shard order.
    """
    cluster = _steady_multiprocess_cluster()
    try:
        benchmark.pedantic(cluster.advance, args=(25,), rounds=5, iterations=1)
    finally:
        cluster.close()


class _DelayedLink:
    """A loopback TCP proxy adding a fixed one-way delay each way.

    Models a real network link in front of the shard workers, which is
    the deployment the socket backend exists for: every byte chunk is
    released ``delay`` seconds after it arrived, but later bytes keep
    flowing while earlier ones are still "in flight", as on a WAN.
    Zero-latency loopback cannot show what round batching buys (there
    is no round-trip bill to save); this link can.

    The listener is bound at construction, but no thread runs until
    :meth:`start`, so the caller can fork the workers first: a child
    forked while the proxy's threads run could inherit a held lock.
    The upstream connect retries for ``connect_timeout`` seconds, the
    backend's accept timeout, because the workers reach the proxy
    before the parent listens.
    """

    def __init__(self, upstream, delay: float, connect_timeout: float = 30.0):
        self.upstream = upstream
        self.delay = delay
        self.connect_timeout = connect_timeout
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.address = self.listener.getsockname()[:2]
        self._sockets = [self.listener]

    def start(self):
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _connect_upstream(self):
        deadline = time.monotonic() + self.connect_timeout
        while True:
            try:
                back = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                if time.monotonic() >= deadline:
                    return None
                time.sleep(0.05)
                continue
            back.settimeout(None)  # an idle link must not read as EOF
            return back

    def _accept_loop(self):
        while True:
            try:
                front, _peer = self.listener.accept()
            except OSError:
                return  # listener closed
            back = self._connect_upstream()
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


class _LinkedClusters:
    """One 4-shard socket cluster per entry of ``round_batches``, each
    behind its own 2 ms-each-way :class:`_DelayedLink` and batching
    that many rounds per frame.

    Every worker is forked before any link starts a thread, and each
    cluster is warmed up (adds landed) outside the measurement.
    """

    def __init__(self, round_batches, delay: float = 0.002):
        self.links, self.workers, self.clusters = [], [], []
        try:
            placeholders = [
                socket.create_server(("127.0.0.1", 0)) for _ in round_batches
            ]
            addresses = [sock.getsockname()[:2] for sock in placeholders]
            self.links = [_DelayedLink(address, delay) for address in addresses]
            for sock in placeholders:
                sock.close()
            for link in self.links:
                self.workers += spawn_socket_workers(link.address, 4)
            for link in self.links:
                link.start()
            for link, round_batch in zip(self.links, round_batches):
                backend = SocketBackend(
                    4,
                    shards=4,
                    environment_factory=ChurnEnvironments(seed=0),
                    crash_schedule=None,
                    max_total_rounds=1_000_000,
                    trace_mode="aggregate",
                    round_batch=round_batch,
                    listen=link.upstream,
                    accept_timeout=link.connect_timeout,
                )
                cluster = ShardedWeakSetCluster(4, shards=4, backend=backend)
                self.clusters.append(cluster)
                for pid in range(4):
                    cluster.handle(pid).add_async(f"seed-{pid}")
                cluster.advance(10)
        except BaseException:
            self.close()
            raise

    def close(self):
        for cluster in self.clusters:
            cluster.close()
        for worker in self.workers:
            worker.join(timeout=5.0)
            if worker.is_alive():
                worker.terminate()
        for link in self.links:
            link.close()


def test_bench_shard_rounds_linked_batched_vs_unbatched(benchmark):
    """32 rounds × 4 workers across a 2 ms-each-way link, one frame
    pair per round (``test_bench_shard_rounds_linked_unbatched``)
    against 4 rounds per frame (``test_bench_shard_rounds_linked_batched``),
    timed in alternation, 5 turns each.

    Workers are spawned (and the links built) once outside the
    measurement.  The driver keeps one step in flight, so each step
    pays the link's round trip once: 32 round trips unbatched against
    8 batched, on top of the same compute.  Traces are byte-identical
    on both sides — batching is pure transport shape.
    """
    linked = _LinkedClusters([1, 4])
    unbatched, batched = linked.clusters
    try:
        _interleave(
            benchmark,
            5,
            {
                "test_bench_shard_rounds_linked_unbatched": (
                    lambda: unbatched.advance(32)
                ),
                "test_bench_shard_rounds_linked_batched": (
                    lambda: batched.advance(32)
                ),
            },
        )
    finally:
        linked.close()


def test_bench_shard_rebuild_linked_one_frame_vs_per_request(benchmark):
    """Rebuild one shard world across a 2 ms-each-way link: the whole
    replay in one ``ReplayRequest`` frame
    (``test_bench_shard_rebuild_linked_one_frame``, the backend's
    ``_rebuild``) against a per-request twin
    (``test_bench_shard_rebuild_linked_per_request``) that resets the
    world with an empty replay frame and then sends the same requests
    one frame at a time, timed in alternation, 5 turns each.

    The cluster (4 socket workers behind the link) is driven 40 rounds
    with one add per round outside the measurement, so member 1's
    history is about 40 requests: one round trip against about 41.
    Both sides leave the world where it was, so the traces are
    unchanged afterwards.
    """
    linked = _LinkedClusters([1])
    (cluster,) = linked.clusters
    backend = cluster.backend
    try:
        open_adds = {}
        for round_no in range(40):
            # one add a round, by a process with no add still open
            free = [
                pid for pid in range(4)
                if pid not in open_adds or open_adds[pid].end is not None
            ]
            if free:
                pid = free[round_no % len(free)]
                open_adds[pid] = cluster.handle(pid).add_async(f"rebuild-{round_no}")
            cluster.advance(1)
        before = [trace_to_json(trace) for trace in cluster.traces()]
        member = 1
        replay = _member_replay_requests(
            backend._history, member, backend._unsent_tokens()
        )
        assert len(replay) >= 30

        def one_frame():
            channel = backend._transports[member]
            backend._transports[member], replies = backend._rebuild(
                member, channel, replay
            )
            assert len(replies) == len(replay)

        def per_request():
            channel = backend._transports[member]
            channel.send(ReplayRequest(shard_index=member, subs=()))
            assert type(channel.recv()) is MuxReply
            for request in replay:
                channel.send(request)
                channel.recv()

        _interleave(
            benchmark,
            5,
            {
                "test_bench_shard_rebuild_linked_one_frame": one_frame,
                "test_bench_shard_rebuild_linked_per_request": per_request,
            },
        )
        assert [trace_to_json(trace) for trace in cluster.traces()] == before
    finally:
        linked.close()

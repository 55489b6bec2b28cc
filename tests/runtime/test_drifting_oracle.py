"""The drained drifting loop pinned to the frozen per-envelope oracle.

:class:`~repro.giraf.scheduler.DriftingLoop` lands a broadcast's
arrivals lazily: each delivered link waits, keyed ``(time, seq)``, in
its receiver's pending store until the receiver computes, an exit
re-probes its gate or the run ends, and a parked process gets one
keyed ``release`` event instead of a gate probe per arrival.
``drifting_oracle.py`` keeps the loop as it was before — one queue
event per envelope and link — and every run here must match it as a
whole trace, final inboxes and decisions, under ``==``: Algorithms 2,
3 and 4 and heartbeats, in MS, ES and ESS, with crashes before and
after send, halts on decision, drifted and integer clocks (equal-time
ties between end-of-rounds and arrivals), parked gates and both trace
modes.  Re-plans need an obligatory sender that leaves before sending,
which stock plans rarely choose (a process with a crash plan is never
a candidate), so some draws name a slowed victim the source of a few
rounds.

The queue itself shrinks from O(n²) to O(n) events per round, which
the event-count pin below holds at the ``es_drifting`` shape.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drifting_oracle
import repro.giraf.scheduler as scheduler_module
from drifting_oracle import PerEnvelopeDriftingScheduler
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.errors import SimulationError
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    CrashPlan,
    CrashSchedule,
    RandomSource,
    RoundRobinSource,
    UniformDelay,
)
from repro.giraf.environments import (
    AllTimelyLinks,
    BernoulliLinks,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    RoundPlan,
    SilentLinks,
)
from repro.giraf.scheduler import DriftingScheduler
from repro.sim.runner import stop_when_all_correct_decided
from repro.weakset.ms_weakset import MSWeakSetAlgorithm

ENVIRONMENTS = {
    "MS": lambda cls, gst, source, links, delays: cls(source, links, delays),
    "ES": lambda cls, gst, source, links, delays: cls(gst, source, links, delays),
    "ESS": lambda cls, gst, source, links, delays: cls(
        gst, 0, source, links, delays
    ),
}
ENVIRONMENT_CLASSES = {
    "MS": MovingSourceEnvironment,
    "ES": EventualSynchronyEnvironment,
    "ESS": EventuallyStableSourceEnvironment,
}


def _naming(cls, victim, rounds):
    """``cls`` with ``victim`` named the one obligatory sender of the
    first plan of each round in ``rounds``: a victim that crashes or
    halts before sending such a round forces a re-plan, whoever the
    stock plan would have chosen."""

    class Naming(cls):
        def plan_round(self, round_no, candidates):
            first = round_no not in self.planned
            self.planned.add(round_no)
            if first and round_no in rounds:
                return RoundPlan(source=victim, obligatory=frozenset({victim}))
            return super().plan_round(round_no, candidates)

    return Naming


def _algorithms(kind, n, seed):
    values = random.Random(seed).sample(range(1000), n)
    if kind == "es":
        return [ESConsensus(value) for value in values]
    if kind == "ess":
        return [ESSConsensus(value) for value in values]
    if kind == "heartbeat":
        return [HeartbeatPseudoLeader(pid % 3) for pid in range(n)]
    algorithms = [MSWeakSetAlgorithm() for _ in range(n)]
    for pid in range(0, n, 2):
        algorithms[pid].begin_add(f"v{values[pid]}")
    return algorithms


@st.composite
def drifting_runs(draw):
    """One generated drifting run, as a plain tuple so both loops build
    fresh, identical inputs."""
    n = draw(st.integers(1, 9))
    kind = draw(st.sampled_from(["es", "ess", "weakset", "heartbeat"]))
    seed = draw(st.integers(0, 10_000))
    env = draw(st.sampled_from(sorted(ENVIRONMENTS)))
    gst = draw(st.integers(1, 6))
    link = draw(st.sampled_from(["silent", "alltimely", "bernoulli"]))
    p = draw(st.floats(0.0, 1.0))
    delay = draw(st.sampled_from(["uniform", "constant", "never"]))
    crashes = ()
    if n > 1:
        crashes = tuple(
            sorted(
                draw(
                    st.lists(
                        st.tuples(
                            st.integers(1, n - 1), st.integers(1, 8), st.booleans()
                        ),
                        max_size=min(n - 1, 3),
                        unique_by=lambda plan: plan[0],
                    )
                )
            )
        )
    clocks = draw(st.sampled_from(["default", "drift", "integer"]))
    horizon = draw(st.integers(1, 12))
    trace_mode = draw(st.sampled_from(["full", "aggregate"]))
    payload_stats = trace_mode == "aggregate" and draw(st.booleans())
    stop = kind in ("es", "ess") and draw(st.booleans())
    # one draw in two names a victim source for a few rounds, mostly a
    # process the crash schedule takes down
    victim = draw(
        st.sampled_from([None, None, None] + [pid for pid, _, _ in crashes] * 2
                        + list(range(n)))
    )
    named = frozenset(draw(st.sets(st.integers(1, 8), min_size=1, max_size=3)))
    # a slow victim leaves the others parked on the rounds it owes
    slowdown = draw(st.sampled_from([1, 3, 5]))
    return (
        n, kind, seed, env, gst, link, p, delay, crashes, clocks, horizon,
        trace_mode, payload_stats, stop, victim, named, slowdown,
    )


def _build(config, cls):
    (n, kind, seed, env, gst, link, p, delay, crashes, clocks, horizon,
     trace_mode, payload_stats, stop, victim, named, slowdown) = config
    links = {
        "silent": SilentLinks,
        "alltimely": AllTimelyLinks,
        "bernoulli": lambda: BernoulliLinks(p, seed=seed),
    }[link]()
    delays = {
        "uniform": lambda: UniformDelay(2, 5, seed=seed),
        "constant": lambda: ConstantDelay(2 + seed % 3),
        "never": lambda: ConstantDelay(NEVER_DELIVERED),
    }[delay]()
    rng = random.Random(seed)
    if clocks == "drift":
        periods = [1.0 + 1.5 * rng.random() for _ in range(n)]
        phases = [rng.random() for _ in range(n)]
    elif clocks == "integer":
        periods = [rng.randint(1, 3) for _ in range(n)]
        phases = [rng.randint(0, 2) for _ in range(n)]
    else:  # the scheduler's defaults
        periods = [1.0 + 0.13 * pid for pid in range(n)]
        phases = [0.01 * pid for pid in range(n)]
    if victim is not None:
        periods[victim] *= slowdown
    environment_cls = ENVIRONMENT_CLASSES[env]
    if victim is not None:
        environment_cls = _naming(environment_cls, victim, named)
    environment = ENVIRONMENTS[env](
        environment_cls, gst, RandomSource(seed), links, delays
    )
    environment.planned = set()
    return cls(
        _algorithms(kind, n, seed),
        environment,
        crash_schedule=CrashSchedule(
            {pid: CrashPlan(at, before) for pid, at, before in crashes}
        ),
        periods=periods,
        phases=phases,
        max_rounds=horizon,
        stop_when=stop_when_all_correct_decided if stop else None,
        trace_mode=trace_mode,
        payload_stats=payload_stats,
    )


def _outcome(scheduler):
    """Everything a run exposes: the trace, and per process its round,
    lifecycle and final inbox."""
    trace = scheduler.run()
    return trace, [
        (
            proc.round,
            proc.crashed,
            proc.halted,
            {k: set(slot) for k, slot in proc.inbox_view().slots().items()},
        )
        for proc in scheduler.processes
    ]


def _assert_matches_oracle(config):
    trace, processes = _outcome(_build(config, DriftingScheduler))
    oracle_trace, oracle_processes = _outcome(
        _build(config, PerEnvelopeDriftingScheduler)
    )
    assert trace == oracle_trace
    assert trace.decisions == oracle_trace.decisions
    assert processes == oracle_processes


class TestGeneratedRuns:
    @given(config=drifting_runs())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_per_envelope_loop(self, config):
        _assert_matches_oracle(config)

    @pytest.mark.parametrize("trace_mode", ["full", "aggregate"])
    def test_es_consensus_with_crashes_and_ties(self, trace_mode):
        """Algorithm 2 at n=12 on integer clocks: end-of-rounds and late
        arrivals tie in time, obligatory senders crash on both sides of
        their send, and deciders halt."""
        _assert_matches_oracle(
            (12, "es", 7, "ES", 3, "bernoulli", 0.3, "uniform",
             ((2, 2, True), (5, 3, False), (9, 4, True)), "integer", 14,
             trace_mode, False, True, 9, frozenset({2, 4}), 3)
        )

    @pytest.mark.parametrize("trace_mode", ["full", "aggregate"])
    @pytest.mark.parametrize(
        "kind, env, stop",
        [("ess", "ESS", True), ("weakset", "MS", False), ("heartbeat", "ESS", False)],
        ids=["ess", "weakset", "heartbeat"],
    )
    def test_other_algorithms_with_crashes_and_ties(self, kind, env, stop, trace_mode):
        """Algorithm 3 in ESS, Algorithm 4 in MS and heartbeats in ESS
        on the same integer clocks, crash plans and slowed victim as
        the Algorithm 2 run: some twenty events share an instant, and
        dozens of gate releases pop."""
        _assert_matches_oracle(
            (12, kind, 7, env, 3, "bernoulli", 0.3, "uniform",
             ((2, 2, True), (5, 3, False), (9, 4, True)), "integer", 14,
             trace_mode, False, stop, 9, frozenset({2, 4}), 3)
        )

    @given(config=drifting_runs())
    @settings(max_examples=40)
    def test_pops_in_key_order(self, config):
        """Every generated run, halts, stops and re-plans included, pops
        its events in ``(time, seq)`` order: the loop never queues an
        event behind the one it is handling."""
        popped = []
        heappop = scheduler_module.heappop

        def pop(heap):
            popped.append(heappop(heap))
            return popped[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheduler_module, "heappop", pop)
            _build(config, DriftingScheduler).run()
        assert popped
        keys = [entry[:2] for entry in popped]
        assert keys == sorted(keys)


class _Victim(MovingSourceEnvironment):
    """Names pid 0 the source of round 4's first plan and the highest
    candidate otherwise."""

    def __init__(self):
        super().__init__(RoundRobinSource(), SilentLinks(), ConstantDelay(3))
        self.planned = set()

    def plan_round(self, round_no, candidates):
        first = round_no not in self.planned
        self.planned.add(round_no)
        source = 0 if first and round_no == 4 else candidates[-1]
        return RoundPlan(source=source, obligatory=frozenset({source}))


def _victim_run(cls, trace_mode="full"):
    """pid 1 runs ahead and parks on round 4, waiting for pid 0, which
    crashes before sending it 0.02 after pid 2 has sent round 4.  The
    re-plan names pid 2, whose envelope is still in flight to pid 1:
    the crash must re-arm pid 1's gate at that envelope's arrival."""
    scheduler = cls(
        [HeartbeatPseudoLeader(pid) for pid in range(3)],
        _Victim(),
        crash_schedule=CrashSchedule({0: CrashPlan(4, before_send=True)}),
        periods=[5.0, 1.0, 5.0],
        phases=[0.02, 0.0, 0.0],
        max_rounds=6,
        trace_mode=trace_mode,
    )
    return scheduler, scheduler.run()


class TestReplanRearm:
    def test_exit_rearms_a_parked_gate(self):
        scheduler, trace = _victim_run(DriftingScheduler)
        _, oracle_trace = _victim_run(PerEnvelopeDriftingScheduler)
        assert trace == oracle_trace
        assert trace.crashes[0].time == 20.02
        (arrival,) = [
            d for d in trace.deliveries
            if (d.sender, d.receiver, d.round_no) == (2, 1, 4)
        ]
        crash_time = trace.crashes[0].time
        assert arrival.sent_time == 20.0 < crash_time < arrival.delivered_time
        # pid 1 computes round 4 the moment pid 2's envelope lands
        assert trace.compute_times[1][4] == arrival.delivered_time

    def test_aggregate_traces_rearm_alike(self):
        """Without delivery events to read, the aggregate run re-arms
        the same gate: every process computes every round when it does
        in the full trace, pid 1's round 4 included."""
        _, full = _victim_run(DriftingScheduler)
        _, trace = _victim_run(DriftingScheduler, "aggregate")
        _, oracle_trace = _victim_run(PerEnvelopeDriftingScheduler, "aggregate")
        assert trace == oracle_trace
        assert trace.aggregate and not trace.deliveries
        assert trace.crashes == full.crashes
        assert trace.compute_times == full.compute_times
        assert trace.agg_deliveries == len(full.deliveries)


def _count_pushes(monkeypatch, module):
    """Count the event pushes ``module``'s loop makes from now on: its
    ``heappush``, wrapped."""
    pushed = [0]
    heappush = module.heappush

    def counting(heap, entry):
        pushed[0] += 1
        heappush(heap, entry)

    monkeypatch.setattr(module, "heappush", counting)
    return pushed


def _es_drifting(cls, seed=901001, n=64):
    """The ``es_drifting`` shape: Algorithm 2 at n=64 in ES (GST 2)."""
    scheduler = cls(
        [ESConsensus(value) for value in random.Random(seed).sample(range(10**6), n)],
        EventualSynchronyEnvironment(
            gst=2,
            source_schedule=RandomSource(seed),
            delay_policy=UniformDelay(2, 6, seed=seed),
        ),
        max_rounds=20,
        stop_when=stop_when_all_correct_decided,
        trace_mode="aggregate",
    )
    return scheduler.run()


class TestEventCount:
    def test_es_drifting_pushes_order_n_events_per_round(self, monkeypatch):
        n = 64
        pushes = _count_pushes(monkeypatch, scheduler_module)
        oracle_pushes = _count_pushes(monkeypatch, drifting_oracle)
        trace = _es_drifting(DriftingScheduler)
        oracle_trace = _es_drifting(PerEnvelopeDriftingScheduler)
        (pushed,), (oracle_pushed,) = pushes, oracle_pushes
        assert trace == oracle_trace
        rounds = trace.rounds_executed
        assert trace.agg_deliveries == n * (n - 1) * rounds
        # end-of-rounds and releases only: O(n) per round, against one
        # event per delivered envelope before
        assert pushed < 3 * n * (rounds + 1)
        assert oracle_pushed > trace.agg_deliveries > 10 * pushed


class TestClockValidation:
    @pytest.mark.parametrize(
        "periods, phases",
        [
            ([1.0, float("nan")], None),
            ([1.0, float("inf")], None),
            (None, [0.0, float("nan")]),
            (None, [float("-inf"), 0.0]),
            ([0.0, 1.0], None),
        ],
        ids=["nan-period", "inf-period", "nan-phase", "inf-phase", "zero-period"],
    )
    def test_non_finite_clocks_raise(self, periods, phases):
        with pytest.raises(SimulationError, match="periods|phases"):
            DriftingScheduler(
                [HeartbeatPseudoLeader(pid) for pid in range(2)],
                MovingSourceEnvironment(),
                periods=periods,
                phases=phases,
            )

    @pytest.mark.parametrize(
        "periods, phases",
        [
            ([1.0, -0.5], None),
            ([float("-inf"), 1.0], None),
            (None, [0.0, float("inf")]),
        ],
        ids=["negative-period", "minus-inf-period", "plus-inf-phase"],
    )
    def test_out_of_range_clocks_raise(self, periods, phases):
        with pytest.raises(SimulationError, match="periods|phases"):
            DriftingScheduler(
                [HeartbeatPseudoLeader(pid) for pid in range(2)],
                MovingSourceEnvironment(),
                periods=periods,
                phases=phases,
            )

    @pytest.mark.parametrize(
        "periods, phases",
        [([1.0, 1.0, 1.0], None), (None, [0.0]), (None, [0.0, 0.0, 0.0])],
        ids=["long-periods", "short-phases", "long-phases"],
    )
    def test_clock_counts_must_match_the_processes(self, periods, phases):
        with pytest.raises(SimulationError, match="process count"):
            DriftingScheduler(
                [HeartbeatPseudoLeader(pid) for pid in range(2)],
                MovingSourceEnvironment(),
                periods=periods,
                phases=phases,
            )

"""Drifting-engine equivalence: matrix event loop pinned to the object loop.

The :class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine`
replaces the drifting scheduler's per-envelope event machinery with
delivery-tick columns drained as masked matrix passes.  Like the
lock-step engine it is a representation switch, not a semantics
switch: every configuration must produce a
:class:`~repro.giraf.traces.RunTrace` that compares equal as a whole
dataclass, and final algorithm views that match field by field —
across environments × link/delay policies × crash schedules × GST
values × both event queues.  Beyond the hand-picked grid, generated
configurations (sizes, brands, MS/ES/ESS with swept GST, link and
delay policies, crash plans before and after send, drifted periods and
phases, both event queues) pin the matrix path cold and after an
unrelated columnar run has filled the interned history table, with the
same environment planning calls in the same order, and straddle each
``try_build`` condition so the declines are pinned too.
Without numpy every columnar request declines with the numpy reason
and the same pins hold against the object loop.

The second half covers the run-local slot table the counter matrices
are indexed through, runs after unrelated ones in one intern-cache
window, and the lazy finalize views (shared with the lock-step engine)
that keep teardown O(n) instead of O(n × width).
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import CounterRowView, numpy_available
from repro.core.history import clear_intern_cache, intern_cache_size
from repro.core.pseudo_leader import HeartbeatPseudoLeader
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
from repro.runtime.columnar_engine import NUMPY_REASON, ColumnarDriftingEngine
from repro.runtime.kernel import RuntimeKernel
from repro.sim.runner import run_es_consensus

CRASHES = CrashSchedule(
    {1: CrashPlan(2, True), 3: CrashPlan(3, False), 5: CrashPlan(5, True)}
)

ENVIRONMENTS = {
    "ms-silent-const": lambda: MovingSourceEnvironment(
        RoundRobinSource(), SilentLinks(), ConstantDelay(3)
    ),
    "ms-bernoulli-uniform": lambda: MovingSourceEnvironment(
        RandomSource(3), BernoulliLinks(0.4, seed=7), UniformDelay(2, 4, seed=5)
    ),
    "ms-alltimely": lambda: MovingSourceEnvironment(
        RoundRobinSource(), AllTimelyLinks(), ConstantDelay(2)
    ),
    "es-bernoulli": lambda: EventualSynchronyEnvironment(
        4, RandomSource(1), BernoulliLinks(0.3, seed=2), UniformDelay(2, 5, seed=9)
    ),
    "ess-stable": lambda: EventuallyStableSourceEnvironment(
        3, 0, RoundRobinSource(), BernoulliLinks(0.5, seed=4), ConstantDelay(2)
    ),
    "ms-never-delivered": lambda: MovingSourceEnvironment(
        RoundRobinSource(), SilentLinks(), ConstantDelay(NEVER_DELIVERED)
    ),
}

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the matrix engines need numpy"
)


def _final_views(scheduler):
    return [
        {
            "round": proc.round,
            "crashed": proc.crashed,
            "history": tuple(proc.algorithm.elector.history),
            "counters": {
                tuple(history): count
                for history, count in proc.algorithm.elector.counters.items()
            },
            "leader": proc.algorithm.currently_leader,
            "since": proc.algorithm.leader_since,
            "snapshot": dict(proc.algorithm.snapshot()),
        }
        for proc in scheduler.processes
    ]


def _run(
    engine,
    *,
    env="ms-bernoulli-uniform",
    environment=None,
    crashes=None,
    n=7,
    rounds=9,
    record_snapshots=True,
    trace_mode="aggregate",
    payload_stats=False,
    event_queue="calendar",
    clear=True,
):
    if clear:
        clear_intern_cache()
    driver = DriftingScheduler(
        [HeartbeatPseudoLeader(pid % 3) for pid in range(n)],
        environment if environment is not None else ENVIRONMENTS[env](),
        crash_schedule=crashes,
        max_rounds=rounds,
        record_snapshots=record_snapshots,
        trace_mode=trace_mode,
        payload_stats=payload_stats,
        engine=engine,
        event_queue=event_queue,
    )
    trace = driver.run()
    return driver, trace


def _assert_equivalent(expect_engine=True, **kwargs):
    reference, reference_trace = _run("object", **kwargs)
    columnar, columnar_trace = _run("columnar", **kwargs)
    took_engine = columnar._columnar_engine is not None
    assert took_engine == (expect_engine and numpy_available())
    assert columnar_trace == reference_trace
    assert _final_views(columnar) == _final_views(reference)


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("crashed", [False, True], ids=["nocrash", "crash"])
class TestDriftingEnginePins:
    """Drifting aggregate heartbeat runs take the matrix event loop."""

    def test_trace_and_views_identical(self, env, crashed):
        _assert_equivalent(env=env, crashes=CRASHES if crashed else None)


class TestDriftingEngineOptions:
    def test_without_snapshots(self):
        _assert_equivalent(record_snapshots=False)

    @pytest.mark.parametrize("event_queue", ["calendar", "heap"])
    def test_event_queues_agree(self, event_queue):
        _assert_equivalent(
            env="es-bernoulli", crashes=CRASHES, event_queue=event_queue
        )

    @pytest.mark.parametrize("gst", [1, 4, 8])
    def test_gst_sweep(self, gst):
        _assert_equivalent(
            environment=EventualSynchronyEnvironment(
                gst,
                RandomSource(11),
                BernoulliLinks(0.4, seed=3),
                UniformDelay(2, 4, seed=8),
            ),
            crashes=CRASHES,
        )

    def test_single_process(self):
        _assert_equivalent(n=1)

    def test_monobrand(self):
        clear_intern_cache()
        reference = DriftingScheduler(
            [HeartbeatPseudoLeader("x") for _ in range(6)],
            ENVIRONMENTS["ess-stable"](),
            max_rounds=8,
            trace_mode="aggregate",
            engine="object",
        )
        reference_trace = reference.run()
        clear_intern_cache()
        columnar = DriftingScheduler(
            [HeartbeatPseudoLeader("x") for _ in range(6)],
            ENVIRONMENTS["ess-stable"](),
            max_rounds=8,
            trace_mode="aggregate",
            engine="columnar",
        )
        assert (columnar._columnar_engine is not None) == numpy_available()
        assert columnar.run() == reference_trace
        assert _final_views(columnar) == _final_views(reference)

    def test_runner_event_queue_passthrough(self):
        clear_intern_cache()
        reference = run_es_consensus(
            [2, 0, 1],
            gst=3,
            max_rounds=40,
            scheduler="drifting",
            engine="object",
        )
        clear_intern_cache()
        heap = run_es_consensus(
            [2, 0, 1],
            gst=3,
            max_rounds=40,
            scheduler="drifting",
            engine="columnar",
            event_queue="heap",
        )
        assert heap.trace == reference.trace
        assert heap.report == reference.report
        assert heap.metrics == reference.metrics


ENVIRONMENT_CLASSES = {
    "MS": MovingSourceEnvironment,
    "ES": EventualSynchronyEnvironment,
    "ESS": EventuallyStableSourceEnvironment,
}

#: the stock latency methods ``try_build`` requires; overriding any one
#: of them (even by a delegate returning the same values) declines
LATENCY_METHODS = (
    "timely_latency",
    "late_latency",
    "timely_latencies",
    "late_latencies",
)

#: what each drawn decline must name in ``engine_decline``
DECLINE_TEXT = {
    "payload": "payload_stats=True",
    "full": "per-event objects",
    "latency": "overrides the stock latency draws",
}


@st.composite
def drifting_configs(draw, sizes=tuple(range(1, 20)) + (64,)):
    """A generated drifting heartbeat configuration, as a plain tuple so
    object and columnar runs each build fresh, identical inputs.  One
    draw in two asks for something ``try_build`` refuses (payload
    statistics, full traces, or an overridden latency method), so the
    fuzz straddles each eligibility condition."""
    n = draw(st.sampled_from(sizes))
    brands = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    env = draw(st.sampled_from(sorted(ENVIRONMENT_CLASSES)))
    gst = draw(st.integers(1, 8))
    link = draw(st.sampled_from(["silent", "alltimely", "bernoulli"]))
    p = draw(st.floats(0.0, 1.0))
    delay = draw(st.sampled_from(["uniform", "constant", "never"]))
    crashes = ()
    if n > 1:
        plans = draw(
            st.lists(
                st.tuples(st.integers(1, n - 1), st.integers(1, 10), st.booleans()),
                max_size=min(n - 1, 4),
                unique_by=lambda plan: plan[0],
            )
        )
        crashes = tuple(sorted(plans))
    drift = draw(st.sampled_from([0.0, 0.0, 0.5, 1.5]))
    horizon = draw(st.integers(1, 6 if n > 19 else 14))
    snapshots = draw(st.booleans())
    queue = draw(st.sampled_from(["calendar", "heap"]))
    decline = draw(
        st.sampled_from([None, None, None, "payload", "full", "latency"])
    )
    override = draw(st.sampled_from(LATENCY_METHODS))
    return (
        n, brands, seed, env, gst, link, p, delay, crashes, drift, horizon,
        snapshots, queue, decline, override,
    )


def _delegate(base):
    def method(self, *args):
        return base(self, *args)

    return method


def _recording(cls):
    """``cls`` with its two planning calls logged, in call order, to the
    instance's ``calls`` list.  Neither method is one ``try_build``
    checks, so the subclass leaves engine eligibility unchanged."""

    class Recording(cls):
        def plan_round(self, round_no, candidates):
            self.calls.append(("plan_round", round_no, tuple(candidates)))
            return super().plan_round(round_no, candidates)

        def plan_round_links(self, round_no, senders, receivers):
            self.calls.append(
                ("plan_round_links", round_no, tuple(senders), tuple(receivers))
            )
            return super().plan_round_links(round_no, senders, receivers)

    Recording.__name__ = cls.__name__
    return Recording


def _generated(config, engine):
    """Run one generated configuration; returns the scheduler, its
    trace and the environment's planning calls in order."""
    (n, brands, seed, env, gst, link, p, delay, crashes, drift, horizon,
     snapshots, queue, decline, override) = config
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
    cls = ENVIRONMENT_CLASSES[env]
    if decline == "latency":
        cls = type(
            f"Overridden{cls.__name__}",
            (cls,),
            {override: _delegate(getattr(cls, override))},
        )
    cls = _recording(cls)
    source = RandomSource(seed)
    if env == "MS":
        environment = cls(source, links, delays)
    elif env == "ES":
        environment = cls(gst, source, links, delays)
    else:
        environment = cls(gst, 0, source, links, delays)
    environment.calls = []
    periods = phases = None
    if drift:
        rng = random.Random(seed)
        periods = [1.0 + drift * rng.random() for _ in range(n)]
        phases = [rng.random() for _ in range(n)]
    scheduler = DriftingScheduler(
        [HeartbeatPseudoLeader(pid % brands) for pid in range(n)],
        environment,
        crash_schedule=CrashSchedule(
            {pid: CrashPlan(at, before) for pid, at, before in crashes}
        ),
        periods=periods,
        phases=phases,
        max_rounds=horizon,
        record_snapshots=snapshots,
        trace_mode="full" if decline == "full" else "aggregate",
        payload_stats=decline == "payload",
        engine=engine,
        event_queue=queue,
    )
    return scheduler, scheduler.run(), environment.calls


class TestGeneratedConfigurations:
    """Generated drifting heartbeat runs match the object event loop as
    whole traces and final views, from a cold history index and from
    one an unrelated columnar run has filled (no cache clear in
    between); ineligible draws run the object loop and say why.  Both
    make the same ``plan_round`` and ``plan_round_links`` calls in the
    same order: same rounds, candidates, senders and receivers."""

    @given(config=drifting_configs(), warmup=drifting_configs(sizes=range(1, 20)))
    @settings(max_examples=40)
    def test_trace_and_views_match_object_loop(self, config, warmup):
        decline = config[-2]
        clear_intern_cache()
        reference, reference_trace, reference_calls = _generated(config, "object")
        reference_views = _final_views(reference)
        for leg in ("cold", "warm"):
            clear_intern_cache()
            if leg == "warm":
                _generated(warmup, "columnar")
            columnar, columnar_trace, calls = _generated(config, "columnar")
            assert columnar_trace == reference_trace
            assert _final_views(columnar) == reference_views
            assert calls == reference_calls
            if not numpy_available():
                assert columnar.engine_path == "object"
                assert columnar.engine_decline == NUMPY_REASON
            elif decline is None:
                assert columnar.engine_path == "matrix-drifting"
                assert columnar.engine_decline is None
            else:
                assert columnar.engine_path == "object"
                assert DECLINE_TEXT[decline] in columnar.engine_decline


class TestFallbackPins:
    """Configurations the matrix engine declines run the object event
    loop (dict electors), so ``engine="columnar"`` changes nothing."""

    def test_payload_stats_fall_back_pinned(self):
        _assert_equivalent(expect_engine=False, payload_stats=True)

    def test_full_trace_mode_falls_back_pinned(self):
        _assert_equivalent(expect_engine=False, trace_mode="full")

    def test_overridden_latency_falls_back_pinned(self):
        class SkewedLatency(MovingSourceEnvironment):
            def timely_latency(self, round_no, sender, receiver):
                return 0.25

        _assert_equivalent(
            expect_engine=False,
            environment=SkewedLatency(
                RoundRobinSource(), SilentLinks(), ConstantDelay(3)
            ),
            crashes=CRASHES,
        )


class TestTryBuildEligibility:
    def _build(self, kernel):
        engine, _reason = ColumnarDriftingEngine.try_build(
            kernel, kernel.environment, record_snapshots=True
        )
        return engine

    def _kernel(self, algorithms=None, **kwargs):
        kwargs.setdefault("trace_mode", "aggregate")
        return RuntimeKernel(
            algorithms
            if algorithms is not None
            else [HeartbeatPseudoLeader(pid % 2) for pid in range(4)],
            MovingSourceEnvironment(),
            engine="columnar",
            **kwargs,
        )

    @needs_numpy
    def test_builds_for_aggregate_heartbeat(self):
        assert self._build(self._kernel()) is not None

    def test_refuses_full_traces(self):
        assert self._build(self._kernel(trace_mode="full")) is None

    def test_refuses_payload_stats(self):
        assert self._build(self._kernel(payload_stats=True)) is None

    def test_refuses_foreign_algorithms(self):
        from repro.core.ess_consensus import ESSConsensus

        kernel = self._kernel(algorithms=[ESSConsensus(pid) for pid in range(3)])
        assert self._build(kernel) is None

    def test_refuses_advanced_state(self):
        kernel = self._kernel()
        kernel.algorithms[1].elector.append("x")
        assert self._build(kernel) is None

    def test_refuses_overridden_latencies(self):
        class Batchy(MovingSourceEnvironment):
            def late_latencies(self, round_no, sender, receivers):
                return [2.0 for _ in receivers]

        kernel = RuntimeKernel(
            [HeartbeatPseudoLeader(0) for _ in range(3)],
            Batchy(),
            trace_mode="aggregate",
            engine="columnar",
        )
        assert self._build(kernel) is None


def _warm_up():
    """An unrelated columnar run filling the interned history table."""
    DriftingScheduler(
        [HeartbeatPseudoLeader(f"unrelated-{pid}") for pid in range(5)],
        ENVIRONMENTS["ms-silent-const"](),
        max_rounds=6,
        trace_mode="aggregate",
        engine="columnar",
    ).run()


@needs_numpy
class TestSlotTable:
    """The run-local slot table: ``_cols`` maps slot → index column
    with slot 0 a permanent zero, ``_slot_of`` maps column → slot,
    ``_chain`` lists each slot's prefix slots, and a slot is assigned on
    the run's first append of a history and never dropped."""

    def test_slot_zero_stays_zero(self):
        driver, _ = _run("columnar", crashes=CRASHES)
        engine = driver._columnar_engine
        assert engine._cols[0] == -1
        assert len(engine._chain[0]) == 0
        assert not engine._C[:, 0].any()
        for acc in engine._acc.values():
            assert not acc[:, 0].any()

    def test_slot_of_inverts_cols(self):
        driver, _ = _run("columnar", crashes=CRASHES)
        engine = driver._columnar_engine
        assert len(set(engine._cols)) == len(engine._cols)
        assert engine._slot_of == {
            col: slot for slot, col in enumerate(engine._cols) if slot
        }

    def test_slots_are_the_run_histories(self):
        """After an unrelated run has filled the intern table, the table
        still holds exactly the histories this run appended: every
        non-empty prefix of each process's final history."""
        clear_intern_cache()
        _warm_up()
        driver, _ = _run("columnar", crashes=CRASHES, clear=False)
        engine = driver._columnar_engine
        index = engine._index
        appended = {
            index.intern(tuple(proc.algorithm.elector.history)[:length])
            for proc in driver.processes
            for length in range(1, len(proc.algorithm.elector.history) + 1)
        }
        # more histories than the initial eight-slot capacity
        assert engine._C.shape[1] >= len(engine._cols) > 8
        assert set(engine._cols[1:]) == appended

    def test_chains_are_the_prefix_slots(self):
        """Every prefix of a stored history is stored too, so each
        slot's chain names its own column and every proper prefix's,
        nearest first, exactly as the index's ancestor walk does."""
        clear_intern_cache()
        _warm_up()
        driver, _ = _run("columnar", crashes=CRASHES, clear=False)
        engine = driver._columnar_engine
        for slot in range(1, len(engine._cols)):
            chain = [engine._cols[t] for t in engine._chain[slot]]
            assert chain == engine._index.ancestor_cols(engine._cols[slot])

    def test_growth_preserves_rows_and_accumulators(self):
        clear_intern_cache()
        kernel = RuntimeKernel(
            [HeartbeatPseudoLeader(pid % 2) for pid in range(4)],
            MovingSourceEnvironment(),
            trace_mode="aggregate",
            engine="columnar",
        )
        engine, _ = ColumnarDriftingEngine.try_build(
            kernel, kernel.environment, record_snapshots=False
        )
        capacity = engine._C.shape[1]
        engine._acc[3] = engine._np.zeros_like(engine._C)
        col, slot, slots = -1, 0, []
        for step in range(capacity + 2):
            col = engine._index.child_col(col, "g")
            slot = engine._slot(col, slot)
            slots.append(slot)
            engine._C[:, slot] = step + 1
            engine._acc[3][:, slot] = 2 * step + 1
        assert slots == list(range(1, capacity + 3))
        assert engine._C.shape[1] == engine._acc[3].shape[1] == 2 * capacity
        assert engine._C[0, : capacity + 3].tolist() == list(range(capacity + 3))
        assert engine._acc[3][3, 1 : capacity + 3].tolist() == list(
            range(1, 2 * capacity + 4, 2)
        )
        assert not engine._C[:, capacity + 3 :].any()
        assert engine._chain[slot].tolist() == slots[::-1]
        # a column seen before keeps its slot, and nothing grows
        assert engine._slot(engine._cols[3], 2) == 3
        assert len(engine._cols) == capacity + 3


@needs_numpy
class TestAmortization:
    """Runs after unrelated ones + lazy finalize views."""

    def test_warm_index_does_not_widen_the_matrices(self):
        """Runs inside one intern-cache window share the interned
        history table, so a run after an unrelated one meets every
        earlier history there; it must still store only the slots its
        own histories take, and still match the object loop."""
        reference, reference_trace = _run("object", crashes=CRASHES)
        cold, _ = _run("columnar", crashes=CRASHES)
        clear_intern_cache()
        DriftingScheduler(
            [HeartbeatPseudoLeader(f"unrelated-{pid}") for pid in range(16)],
            ENVIRONMENTS["ms-silent-const"](),
            max_rounds=12,
            trace_mode="aggregate",
            engine="columnar",
        ).run()
        assert intern_cache_size() >= 16 * 12
        warm, warm_trace = _run("columnar", crashes=CRASHES, clear=False)
        assert warm_trace == reference_trace
        assert _final_views(warm) == _final_views(reference)
        warm_engine, cold_engine = warm._columnar_engine, cold._columnar_engine
        assert len(warm_engine._cols) == len(cold_engine._cols)
        assert warm_engine._C.shape == cold_engine._C.shape

    def test_finalize_views_are_lazy_rows(self):
        driver, _ = _run("columnar", crashes=CRASHES)
        reference, _ = _run("object", crashes=CRASHES)
        for proc, ref in zip(driver.processes, reference.processes):
            elector = proc.algorithm.elector
            assert type(elector) is CounterRowView
            # a finished view, not a live elector: no counter map is
            # built until read, then it materializes from the matrix row
            assert elector._map is None
            assert {
                tuple(history): count
                for history, count in elector.counters.items()
            } == dict(ref.algorithm.elector.counters)
            assert elector._map is not None

    def test_short_run_overhead_bounded(self):
        # the regression mode: fixed setup/finalize costs dominating a
        # 2-round run.  With lazy views a short columnar run must beat
        # the object loop outright at a size where per-round work is
        # already matrix-bound.
        n, rounds = 1200, 2
        clear_intern_cache()
        _run("columnar", env="ms-silent-const", n=64, rounds=rounds, clear=False)
        started = time.perf_counter()
        _run(
            "columnar", env="ms-silent-const", n=n, rounds=rounds, clear=False
        )
        columnar_elapsed = time.perf_counter() - started
        started = time.perf_counter()
        _run("object", env="ms-silent-const", n=n, rounds=rounds, clear=False)
        object_elapsed = time.perf_counter() - started
        assert columnar_elapsed < object_elapsed


class _NamesTheVictim(MovingSourceEnvironment):
    """Names ``victim`` the obligatory source of the first plan of each
    round in ``rounds`` (candidate or not), and the highest candidate
    otherwise; logs every ``plan_round`` call as (round, candidates)."""

    def __init__(self, victim, rounds):
        super().__init__(RoundRobinSource(), SilentLinks(), ConstantDelay(3))
        self.victim, self.rounds, self.calls = victim, rounds, []

    def plan_round(self, round_no, candidates):
        first = all(planned != round_no for planned, _ in self.calls)
        self.calls.append((round_no, tuple(candidates)))
        if first and round_no in self.rounds:
            source = self.victim
        else:
            source = candidates[-1]
        return RoundPlan(source=source, obligatory=frozenset({source}))


def _replans(calls):
    """The ``plan_round`` calls for rounds planned before."""
    return [call for i, call in enumerate(calls) if call[0] in dict(calls[:i])]


class _HaltsAt(HeartbeatPseudoLeader):
    """A heartbeat that halts while computing round ``at``."""

    def __init__(self, brand, at):
        super().__init__(brand)
        self.at = at

    def compute(self, k, inbox):
        if k >= self.at:
            self.halt()
        return super().compute(k, inbox)


#: pid 0 is slow and named for rounds 3 and 4; pids 1 and 2 run ahead
#: to round 4 and park there until pid 0 leaves at its invocation 4
VICTIM_PERIODS = [5.0, 1.0, 1.0]
VICTIM_PHASES = [0.0, 0.1, 0.2]
#: when pid 0's fourth end-of-round fires (crash or halt)
VICTIM_EXIT_TIME = 20.0


def _victim_run(engine, *, halts=False):
    clear_intern_cache()
    environment = _NamesTheVictim(0, rounds={3, 4})
    if halts:
        algorithms = [_HaltsAt(0, 3)] + [_HaltsAt(pid, 99) for pid in (1, 2)]
        crashes = None
    else:
        algorithms = [HeartbeatPseudoLeader(pid) for pid in range(3)]
        crashes = CrashSchedule({0: CrashPlan(4, before_send=True)})
    scheduler = DriftingScheduler(
        algorithms,
        environment,
        crash_schedule=crashes,
        periods=VICTIM_PERIODS,
        phases=VICTIM_PHASES,
        max_rounds=6,
        trace_mode="aggregate",
        engine=engine,
    )
    return scheduler, scheduler.run(), environment.calls


def _log_releases(scheduler):
    """Log every end-of-round the run schedules while a delivery event
    drains — a parked gate's release — as (pid, invocation, time, now)."""
    kernel = scheduler._kernel
    log, current = [], [0.0, None]
    pop, push = kernel.next_event, kernel.schedule

    def next_event():
        event = pop()
        current[:] = event[:2]
        return event

    def schedule(time, kind, data):
        if kind == "eor" and current[1] not in (None, "eor"):
            log.append((*data, time, current[0]))
        push(time, kind, data)

    kernel.next_event, kernel.schedule = next_event, schedule
    return log


class TestLoopContract:
    """The drifting loop's ordering, which both paths share: an exit
    re-plans the rounds the leaver still owed, and a parked process
    fires at its nominal time or, when that has passed, the moment its
    gate opens."""

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_crash_replans_the_rounds_it_owed(self, engine):
        scheduler, trace, calls = _victim_run(engine)
        if engine == "columnar" and numpy_available():
            assert scheduler.engine_path == "matrix-drifting"
        # rounds 3 and 4 named pid 0; it crashed before sending round 4,
        # so round 4 alone was re-planned, over the processes left
        assert [call for call in calls if call[0] in (3, 4)][:2] == [
            (3, (1, 2)),
            (4, (1, 2)),
        ]
        assert _replans(calls) == [(4, (1, 2))]
        # both were parked on round 4 and fire at the crash instant,
        # long after their nominal times
        assert trace.crashes[0].time == VICTIM_EXIT_TIME
        for pid in (1, 2):
            assert trace.compute_times[pid][4] == VICTIM_EXIT_TIME
            assert VICTIM_PHASES[pid] + 5 * VICTIM_PERIODS[pid] < VICTIM_EXIT_TIME

    def test_paths_replan_alike(self):
        _, reference_trace, reference_calls = _victim_run("object")
        _, trace, calls = _victim_run("columnar")
        assert calls == reference_calls
        assert trace == reference_trace

    def test_halt_replans_like_a_crash(self):
        """Halts happen on the object path only: matrix-path heartbeats
        never halt."""
        _, trace, calls = _victim_run("object", halts=True)
        _, _, crash_calls = _victim_run("object")
        assert [(halt.pid, halt.round_no, halt.time) for halt in trace.halts] == [
            (0, 3, VICTIM_EXIT_TIME)
        ]
        assert _replans(calls) == _replans(crash_calls) == [(4, (1, 2))]
        for pid in (1, 2):
            assert trace.compute_times[pid][4] == VICTIM_EXIT_TIME

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_parked_gate_releases_at_nominal_or_now(self, engine):
        clear_intern_cache()
        periods = [3.0, 1.0, 1.0]
        phases = [0.0, 0.01, 0.02]
        scheduler = DriftingScheduler(
            [HeartbeatPseudoLeader(pid) for pid in range(3)],
            MovingSourceEnvironment(
                RandomSource(2), BernoulliLinks(0.4, seed=7), UniformDelay(2, 4, seed=5)
            ),
            periods=periods,
            phases=phases,
            max_rounds=12,
            trace_mode="aggregate",
            engine=engine,
        )
        releases = _log_releases(scheduler)
        trace = scheduler.run()
        assert releases
        for pid, invocation, time, now in releases:
            nominal = phases[pid] + invocation * periods[pid]
            assert time == max(nominal, now)
            assert trace.compute_times[pid][invocation - 1] == time
        # both sides of the max occur: a release after the nominal time
        # has passed, and one drained at an earlier event time (a
        # released process's next end-of-round is scheduled at its
        # nominal time, which may precede the release)
        assert any(time == now > phases[pid] + invocation * periods[pid]
                   for pid, invocation, time, now in releases)
        assert any(time > now for _, _, time, now in releases)

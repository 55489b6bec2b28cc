"""Drifting-engine equivalence: matrix event loop pinned to the object loop.

The :class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine`
replaces the drifting scheduler's per-envelope event machinery with
delivery-tick columns drained as masked matrix passes.  Like the
lock-step engine it is a representation switch, not a semantics
switch: every configuration must produce a
:class:`~repro.giraf.traces.RunTrace` that compares equal as a whole
dataclass, and final algorithm views that match field by field —
across environments × link/delay policies × crash schedules × GST
values.  Beyond the hand-picked grid, generated configurations (sizes,
brands, MS/ES/ESS with swept GST, link and delay policies, crash plans
before and after send, drifted periods and phases) pin the matrix path
cold and after an unrelated columnar run has filled the interned
history table, with the same environment planning calls in the same
order, and straddle each ``try_build`` condition so the declines are
pinned too.
Without numpy every columnar request declines with the numpy reason
and the same pins hold against the object loop.

The second half covers the run-local slot table the counter matrices
are indexed through, runs after unrelated ones in one intern-cache
window, and the lazy finalize views (shared with the lock-step engine)
that keep teardown O(n) instead of O(n × width).
"""

import random
import time
from collections import Counter
from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.giraf.scheduler as scheduler_module
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
from repro.giraf.scheduler import DriftingLoop, DriftingScheduler
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

    def test_runner_columnar_matches_object(self):
        clear_intern_cache()
        reference = run_es_consensus(
            [2, 0, 1],
            gst=3,
            max_rounds=40,
            scheduler="drifting",
            engine="object",
        )
        clear_intern_cache()
        columnar = run_es_consensus(
            [2, 0, 1],
            gst=3,
            max_rounds=40,
            scheduler="drifting",
            engine="columnar",
        )
        assert columnar.trace == reference.trace
        assert columnar.report == reference.report
        assert columnar.metrics == reference.metrics


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
    decline = draw(
        st.sampled_from([None, None, None, "payload", "full", "latency"])
    )
    override = draw(st.sampled_from(LATENCY_METHODS))
    return (
        n, brands, seed, env, gst, link, p, delay, crashes, drift, horizon,
        snapshots, decline, override,
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
     snapshots, decline, override) = config
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


def _log_releases(monkeypatch):
    """Log every end-of-round the run schedules while a delivery event
    drains — a parked gate's release — as (pid, invocation, time, now),
    and the time of every event the run pops, in pop order: the loop's
    ``heappush`` and ``heappop``, wrapped."""
    log, popped, current = [], [], [0.0, None]
    heappop, heappush = scheduler_module.heappop, scheduler_module.heappush

    def pop(heap):
        entry = heappop(heap)
        current[:] = entry[0], entry[2]
        popped.append(entry[0])
        return entry

    def push(heap, entry):
        time, _, kind, data = entry
        if kind == "eor" and current[1] not in (None, "eor"):
            log.append((*data, time, current[0]))
        heappush(heap, entry)

    monkeypatch.setattr(scheduler_module, "heappop", pop)
    monkeypatch.setattr(scheduler_module, "heappush", push)
    return log, popped


class TestLoopContract:
    """The drifting loop's ordering, which both paths share: an exit
    re-plans the rounds the leaver still owed, a parked process fires
    the moment its gate opens, and the clock never runs backwards."""

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
    def test_parked_gate_releases_at_nominal_or_now(self, engine, monkeypatch):
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
        releases, popped = _log_releases(monkeypatch)
        trace = scheduler.run()
        assert releases
        for pid, invocation, time, now in releases:
            nominal = phases[pid] + invocation * periods[pid]
            assert time == max(nominal, now)
            assert trace.compute_times[pid][invocation - 1] == time
        # the clock is monotone, so a process parked at (or after) its
        # nominal time fires at the release instant — often well after
        # that nominal time
        assert popped == sorted(popped)
        assert all(time == now for _, _, time, now in releases)
        assert any(time == now > phases[pid] + invocation * periods[pid]
                   for pid, invocation, time, now in releases)

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_late_fire_never_schedules_into_the_past(self, engine, monkeypatch):
        """A process that fires after a gate release, past its next
        nominal time, schedules that end-of-round at the release
        instant rather than at the nominal time behind it: no pop goes
        backwards, and each process computes its rounds in time
        order."""
        clear_intern_cache()
        scheduler = DriftingScheduler(
            [HeartbeatPseudoLeader(pid) for pid in range(7)],
            MovingSourceEnvironment(
                RandomSource(1), BernoulliLinks(0.4, seed=7), UniformDelay(2, 4, seed=5)
            ),
            periods=[3, 1, 1, 1, 1, 1, 1],
            max_rounds=12,
            trace_mode="aggregate",
            engine=engine,
        )
        _releases, popped = _log_releases(monkeypatch)
        trace = scheduler.run()
        assert popped == sorted(popped)
        for pid in range(7):
            rounds = trace.compute_times[pid]
            times = [rounds[round_no] for round_no in sorted(rounds)]
            assert times == sorted(times), pid

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    def test_pops_in_key_order_fifo_among_equal_times(self, engine, monkeypatch):
        """Integer clocks in phase put many end-of-rounds and late
        batches on one instant.  The loop pops in ``(time, seq)`` order,
        so events at one time come out in ascending seq (FIFO); two
        entries share a key only when a parked gate's ``release`` is
        keyed at the ``cdel`` (or first ``cbat`` receiver) that lands
        the envelope it waits for, and then the release pops after it.
        Only the matrix path queues deliveries, so only it has ties."""
        clear_intern_cache()
        popped = []
        heappop = scheduler_module.heappop

        def pop(heap):
            popped.append(heappop(heap))
            return popped[-1]

        monkeypatch.setattr(scheduler_module, "heappop", pop)
        n = 6
        scheduler = DriftingScheduler(
            [HeartbeatPseudoLeader(pid % 2) for pid in range(n)],
            MovingSourceEnvironment(
                RandomSource(2), BernoulliLinks(0.4, seed=7), UniformDelay(2, 4, seed=5)
            ),
            periods=[2] + [1] * (n - 1),
            phases=[0] * n,
            max_rounds=12,
            trace_mode="aggregate",
            engine=engine,
        )
        scheduler.run()
        keys = [(time, seq) for time, seq, _, _ in popped]
        assert keys == sorted(keys)
        assert max(Counter(time for time, _ in keys).values()) >= n
        ties = {
            (before[2], after[2])
            for before, after in zip(popped, popped[1:])
            if before[:2] == after[:2]
        }
        if scheduler.engine_path == "matrix-drifting":
            assert ties == {("cdel", "release")}
        else:
            assert not ties
            assert {kind for _, _, kind, _ in popped} == {"eor", "release"}

    @pytest.mark.parametrize("engine", ["object", "columnar"])
    @given(config=drifting_configs())
    @settings(max_examples=25)
    def test_generated_runs_pop_in_key_order(self, engine, config):
        """Across generated configurations — crashes on both sides of
        the send, drifted clocks, silent and never-delivered links,
        declined matrix requests — the loop pops its entries in
        ``(time, seq, kind)`` order: nothing is queued behind the event
        being handled, and a release pops after the delivery whose key
        it shares."""
        popped = []
        heappop = scheduler_module.heappop

        def pop(heap):
            popped.append(heappop(heap))
            return popped[-1]

        clear_intern_cache()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scheduler_module, "heappop", pop)
            _generated(config, engine)
        assert popped
        entries = [entry[:3] for entry in popped]
        assert entries == sorted(entries)


def _bare_loop(periods=(2.0,), phases=(0.5,)):
    """A loop over heartbeats on the given clocks, before any run."""
    environment = MovingSourceEnvironment()
    kernel = RuntimeKernel(
        [HeartbeatPseudoLeader(pid) for pid in range(len(periods))], environment
    )
    return DriftingLoop(kernel, environment, periods, phases)


def _drain(loop):
    """Pop the loop's queue empty, in the order its run would."""
    return [heappop(loop._events) for _ in range(len(loop._events))]


class TestLoopQueue:
    """The loop's one ``heapq``: each entry is ``(time, seq, kind,
    data)`` under a ``seq`` from :meth:`DriftingLoop.reserve`, so
    earlier times pop first, equal times pop in ``seq`` order (FIFO),
    and at one key a delivery pops before the ``release`` keyed at it."""

    def test_reserve_hands_out_consecutive_blocks(self):
        loop = _bare_loop()
        assert [loop.reserve(count) for count in (1, 5, 0, 2, 1)] == [0, 1, 6, 6, 8]
        assert loop.reserve(1) == 9
        assert not loop._events

    def test_a_block_pops_between_the_events_around_it(self):
        """A broadcast's arrivals, all at one instant, pop in receiver
        order: after the end-of-round queued before the block, before
        the one queued after it, and after an earlier time queued
        last."""
        loop = _bare_loop()
        loop.push(3.0, loop.reserve(1), "eor", (0, 1))
        base = loop.reserve(4)
        for receiver in (3, 1, 0, 2):
            loop.push(3.0, base + receiver, "cdel", (None, receiver))
        loop.push(3.0, loop.reserve(1), "eor", (0, 2))
        loop.push(1.0, loop.reserve(1), "eor", (0, 3))
        assert [(time, seq, data) for time, seq, _, data in _drain(loop)] == [
            (1.0, 6, (0, 3)),
            (3.0, 0, (0, 1)),
            (3.0, 1, (None, 0)),
            (3.0, 2, (None, 1)),
            (3.0, 3, (None, 2)),
            (3.0, 4, (None, 3)),
            (3.0, 5, (0, 2)),
        ]

    @pytest.mark.parametrize("delivery", ["cdel", "cbat"])
    def test_release_pops_after_the_delivery_sharing_its_key(self, delivery):
        """A parked gate's release is keyed at the arrival that opens
        it, which the matrix path queues as a ``cdel`` (or the ``cbat``
        led by that receiver): pushed first or not, it pops after."""
        loop = _bare_loop()
        base = loop.reserve(3)
        loop.push(4.0, base + 2, "release", (2, 3))
        loop.push(4.0, base + 2, delivery, (None, 2))
        loop.push(4.0, base + 1, delivery, (None, 1))
        assert [(seq, kind) for _, seq, kind, _ in _drain(loop)] == [
            (1, delivery),
            (2, delivery),
            (2, "release"),
        ]

    @pytest.mark.parametrize(
        "now, expected",
        [(4.0, 6.5), (6.5, 6.5), (9.0, 9.0)],
        ids=["before-nominal", "at-nominal", "past-nominal"],
    )
    def test_end_of_round_is_never_queued_behind_now(self, now, expected):
        """pid 0's third end-of-round is due at 0.5 + 3 * 2.0: the loop
        queues it there, or at ``now`` once that has passed, under the
        next unused seq."""
        loop = _bare_loop()
        loop.reserve(2)
        loop._schedule_eor(0, 3, now)
        assert _drain(loop) == [(expected, 2, "eor", (0, 3))]

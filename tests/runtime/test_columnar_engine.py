"""Engine equivalence: ``engine="columnar"`` pinned to the object engine.

The columnar engine is a representation switch, not a semantics
switch: for every configuration the produced
:class:`~repro.giraf.traces.RunTrace` must compare equal as a whole
(dataclass equality covers every counter, record dict, and event
list), and the final algorithm views — histories, counters, leader
flags, process rounds — must match field by field.  These tests sweep
schedulers × environments × link policies × crashes × trace options,
covering both the whole-round matrix path (lock-step aggregate
heartbeat runs) and the object-engine fallback (full traces, drifting
scheduler, injected round hooks, consensus on top).  Beyond the
hand-picked grid, generated lock-step heartbeat configurations pin the
matrix path cold and after an unrelated columnar run has filled the
interned history table, and a late delay under one tick fails closed on
both engines.  Without numpy every columnar request declines with
the numpy reason and the same pins hold against the object engine.
Algorithm 3 on the matrix path has its own pins in
``test_columnar_ess.py``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import numpy_available
from repro.core.ess_consensus import ESSConsensus
from repro.core.history import clear_intern_cache
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.errors import ProtocolMisuse
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    CrashPlan,
    CrashSchedule,
    DelayPolicy,
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
    SilentLinks,
)
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.runtime.columnar_engine import NUMPY_REASON, ColumnarLockStepEngine
from repro.runtime.kernel import RuntimeKernel
from repro.sim.runner import run_ess_consensus

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

#: the path an eligible lock-step run takes (every columnar request
#: declines to the object engine without numpy)
MATRIX_PATH = "matrix-lockstep" if numpy_available() else "object"
MATRIX_DECLINE = None if numpy_available() else NUMPY_REASON

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the matrix engines need numpy"
)


class StretchedDelays:
    """Mixed into an environment, answers its own ``delay_ticks`` (1 to
    4 ticks) and records every link it is asked about: the matrix
    engine's late draw must take the per-row fallback and ask exactly
    the object engine's questions, about the late links only."""

    def delay_ticks(self, round_no: int, sender: int, receiver: int) -> int:
        self.asked.append((round_no, sender, receiver))
        return 1 + (3 * round_no + sender + 2 * receiver) % 4


ENVIRONMENT_CLASSES = {
    "MS": MovingSourceEnvironment,
    "ES": EventualSynchronyEnvironment,
    "ESS": EventuallyStableSourceEnvironment,
}


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
    scheduler="lockstep",
    crashes=None,
    n=7,
    rounds=9,
    record_snapshots=True,
    trace_mode="aggregate",
    payload_stats=True,
    on_round=None,
):
    clear_intern_cache()
    algorithms = [HeartbeatPseudoLeader(pid % 3) for pid in range(n)]
    if scheduler == "lockstep":
        driver = LockStepScheduler(
            algorithms,
            ENVIRONMENTS[env](),
            crash_schedule=crashes,
            max_rounds=rounds,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            payload_stats=payload_stats,
            on_round=on_round,
            engine=engine,
        )
    else:
        driver = DriftingScheduler(
            algorithms,
            ENVIRONMENTS[env](),
            crash_schedule=crashes,
            max_rounds=rounds,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            engine=engine,
        )
    trace = driver.run()
    return trace, _final_views(driver)


def _assert_equivalent(**kwargs):
    reference_trace, reference_views = _run("object", **kwargs)
    columnar_trace, columnar_views = _run("columnar", **kwargs)
    assert columnar_trace == reference_trace
    assert columnar_views == reference_views


@pytest.mark.parametrize("env", sorted(ENVIRONMENTS))
@pytest.mark.parametrize("crashed", [False, True], ids=["nocrash", "crash"])
class TestWholeRoundEnginePins:
    """Lock-step aggregate heartbeat runs take the matrix path."""

    def test_trace_and_views_identical(self, env, crashed):
        _assert_equivalent(env=env, crashes=CRASHES if crashed else None)


class TestWholeRoundEngineOptions:
    def test_without_snapshots_or_payload_stats(self):
        _assert_equivalent(record_snapshots=False, payload_stats=False)

    def test_never_delivered_fast_path(self):
        _assert_equivalent(env="ms-never-delivered", crashes=CRASHES)

    def test_single_process(self):
        _assert_equivalent(n=1, crashes=None)

    def test_monobrand(self):
        clear_intern_cache()
        reference = LockStepScheduler(
            [HeartbeatPseudoLeader("x") for _ in range(6)],
            ENVIRONMENTS["ess-stable"](),
            max_rounds=8,
            trace_mode="aggregate",
            engine="object",
        )
        reference_trace = reference.run()
        clear_intern_cache()
        columnar = LockStepScheduler(
            [HeartbeatPseudoLeader("x") for _ in range(6)],
            ENVIRONMENTS["ess-stable"](),
            max_rounds=8,
            trace_mode="aggregate",
            engine="columnar",
        )
        assert columnar.run() == reference_trace
        assert _final_views(columnar) == _final_views(reference)


@st.composite
def heartbeat_configs(draw, sizes=tuple(range(1, 20)) + (64, 200)):
    """A generated lock-step heartbeat configuration, as a plain tuple
    so object and columnar runs each build fresh, identical inputs."""
    n = draw(st.sampled_from(sizes))
    brands = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 10_000))
    env = draw(st.sampled_from(["MS", "ES", "ESS"]))
    link = draw(st.sampled_from(["silent", "alltimely", "bernoulli"]))
    p = draw(st.floats(0.0, 1.0))
    delay = draw(st.sampled_from(["uniform", "constant", "never", "stretched"]))
    stable = draw(st.integers(1, 6))
    fraction = draw(st.sampled_from([0.0, 0.1, 0.3, 0.6]))
    # most counter columns die within ~10 rounds, so horizons lean
    # long; the object engine's cost grows with n, so large n stay short
    longest = {64: 24, 200: 8}.get(n, 60)
    horizon = draw(st.integers(1, longest) | st.integers(min(12, longest), longest))
    snapshots = draw(st.booleans())
    payload = draw(st.booleans())
    return (
        n, brands, seed, env, link, p, delay, stable, fraction, horizon,
        snapshots, payload,
    )


def _generated(config, engine):
    (n, brands, seed, env, link, p, delay, stable, fraction, horizon,
     snapshots, payload) = config
    links = {
        "silent": SilentLinks,
        "alltimely": AllTimelyLinks,
        "bernoulli": lambda: BernoulliLinks(p, seed=seed),
    }[link]()
    delays = {
        "uniform": lambda: UniformDelay(2, 5, seed=seed),
        "constant": lambda: ConstantDelay(2 + seed % 3),
        "never": lambda: ConstantDelay(NEVER_DELIVERED),
        "stretched": lambda: None,  # the environment answers itself
    }[delay]()
    source = RandomSource(seed)
    cls = ENVIRONMENT_CLASSES[env]
    if delay == "stretched":
        cls = type(f"Stretched{cls.__name__}", (StretchedDelays, cls), {})
    if env == "MS":
        environment = cls(source, links, delays)
    elif env == "ES":
        environment = cls(stable, source, links, delays)
    else:
        environment = cls(stable, 0, source, links, delays)
    environment.asked = []
    crashes = None
    if fraction and n > 1:
        crashes = CrashSchedule.fraction(
            n, fraction, seed=seed, earliest_round=1, latest_round=20, protect={0}
        )
    driver = LockStepScheduler(
        [HeartbeatPseudoLeader(pid % brands) for pid in range(n)],
        environment,
        crash_schedule=crashes,
        max_rounds=horizon,
        record_snapshots=snapshots,
        payload_stats=payload,
        trace_mode="aggregate",
        engine=engine,
    )
    return driver, driver.run()


def _assert_ascending_columns(driver):
    """Counter views list their histories in ascending column order of
    the run's history index."""
    for proc in driver.processes:
        index = proc.algorithm.elector._index
        cols = [index.intern(history) for history in proc.algorithm.elector.counters]
        assert cols == sorted(cols)


class TestGeneratedConfigurations:
    """Generated lock-step heartbeat runs take the matrix path and match
    the object engine, from a cold intern table and from one an
    unrelated columnar run has filled (no cache clear in between)."""

    @given(config=heartbeat_configs(), warmup=heartbeat_configs(sizes=range(1, 20)))
    @settings(max_examples=60)
    def test_trace_and_views_match_object_engine(self, config, warmup):
        clear_intern_cache()
        reference, reference_trace = _generated(config, "object")
        reference_views = _final_views(reference)
        for leg in ("cold", "warm"):
            clear_intern_cache()
            if leg == "warm":
                _generated(warmup, "columnar")
            columnar, columnar_trace = _generated(config, "columnar")
            assert columnar.engine_path == MATRIX_PATH
            assert columnar.engine_decline == MATRIX_DECLINE
            assert columnar_trace == reference_trace
            assert _final_views(columnar) == reference_views
            assert columnar._environment.asked == reference._environment.asked
            if numpy_available():
                _assert_ascending_columns(columnar)


class FixedDelay(DelayPolicy):
    """A custom policy answering ``ticks`` on every late link, its bounds
    declared (the engine's constant-delay shortcut) or not (drawn)."""

    def __init__(self, ticks: int, declared: bool):
        self._ticks = ticks
        self._declared = declared

    def delay(self, round_no: int, sender: int, receiver: int) -> int:
        return self._ticks

    def delay_bounds(self):
        return (self._ticks, self._ticks) if self._declared else None


def _fixed_delay_run(engine, algorithm, ticks, declared):
    clear_intern_cache()
    build = HeartbeatPseudoLeader if algorithm == "heartbeat" else ESSConsensus
    return LockStepScheduler(
        [build(pid % 3) for pid in range(5)],
        MovingSourceEnvironment(
            RoundRobinSource(), SilentLinks(), FixedDelay(ticks, declared)
        ),
        max_rounds=8,
        trace_mode="aggregate",
        engine=engine,
    )


@pytest.mark.parametrize("declared", [False, True], ids=["drawn", "constant"])
@pytest.mark.parametrize("algorithm", ["heartbeat", "ess"])
class TestSubTickDelaysFailClosed:
    """A late delay under one tick would be due in a tick already
    flushed: both lock-step engines refuse it with one clean error
    naming the link, where they used to drop the delivery silently."""

    @pytest.mark.parametrize("ticks", [0, -1])
    def test_both_engines_raise_naming_the_link(self, algorithm, declared, ticks):
        messages = []
        for engine in ("object", "columnar"):
            scheduler = _fixed_delay_run(engine, algorithm, ticks, declared)
            with pytest.raises(ProtocolMisuse) as raised:
                scheduler.run()
            messages.append(str(raised.value))
        # round 1's source is pid 1, so sender 0's first late link is to 1
        assert messages[0].startswith(
            f"round 1: late delay {ticks} from sender 0 to receiver 1 "
        )
        assert messages[1] == messages[0]

    def test_one_tick_is_legal(self, algorithm, declared):
        reference = _fixed_delay_run("object", algorithm, 1, declared).run()
        columnar = _fixed_delay_run("columnar", algorithm, 1, declared)
        assert columnar.run() == reference
        assert columnar.engine_path == MATRIX_PATH
        # more than the source's own timely links got through
        assert reference.agg_deliveries > 8 * 4


class TestFallbackPins:
    """Configurations the matrix engine declines run the object engine
    (dict electors), so ``engine="columnar"`` changes nothing there."""

    @pytest.mark.parametrize("scheduler", ["lockstep", "drifting"])
    def test_declines_without_numpy(self, scheduler, monkeypatch):
        import repro.core.columnar as columnar_module

        monkeypatch.setattr(columnar_module, "_np", None)
        _assert_equivalent(scheduler=scheduler, crashes=CRASHES, payload_stats=False)
        cls = LockStepScheduler if scheduler == "lockstep" else DriftingScheduler
        driver = cls(
            [HeartbeatPseudoLeader(pid % 3) for pid in range(4)],
            ENVIRONMENTS["ess-stable"](),
            trace_mode="aggregate",
            engine="columnar",
        )
        assert driver.engine_path == "object"
        assert driver.engine_decline == NUMPY_REASON

    def test_full_trace_mode_events_identical(self):
        _assert_equivalent(trace_mode="full", payload_stats=False)

    def test_on_round_hook(self):
        ticks = []
        _assert_equivalent(on_round=ticks.append)
        assert ticks  # both runs drove the hook

    def test_drifting_scheduler_aggregate(self):
        _assert_equivalent(scheduler="drifting", payload_stats=False)

    def test_drifting_scheduler_full(self):
        _assert_equivalent(
            scheduler="drifting", trace_mode="full", payload_stats=False
        )

    def test_ess_consensus_checker_verdicts(self):
        clear_intern_cache()
        reference = run_ess_consensus(
            [3, 1, 2, 0], stabilization_round=4, max_rounds=80, engine="object"
        )
        clear_intern_cache()
        columnar = run_ess_consensus(
            [3, 1, 2, 0], stabilization_round=4, max_rounds=80, engine="columnar"
        )
        assert columnar.trace == reference.trace
        assert columnar.report == reference.report
        assert columnar.metrics == reference.metrics


class TestTryBuildEligibility:
    def _kernel(self, **kwargs):
        return RuntimeKernel(
            [HeartbeatPseudoLeader(pid % 2) for pid in range(4)],
            MovingSourceEnvironment(),
            engine="columnar",
            **kwargs,
        )

    def _build(self, kernel, on_round=None):
        engine, _reason = ColumnarLockStepEngine.try_build(
            kernel, kernel.environment, record_snapshots=False, on_round=on_round
        )
        return engine

    @needs_numpy
    def test_builds_for_aggregate_heartbeat(self):
        kernel = self._kernel(trace_mode="aggregate")
        assert self._build(kernel) is not None

    def test_refuses_full_traces(self):
        kernel = self._kernel(trace_mode="full")
        assert self._build(kernel) is None

    def test_refuses_on_round_hook(self):
        kernel = self._kernel(trace_mode="aggregate")
        assert self._build(kernel, on_round=lambda tick: None) is None

    def test_refuses_foreign_algorithms(self):
        from repro.core.es_consensus import ESConsensus

        kernel = RuntimeKernel(
            [ESConsensus(pid) for pid in range(3)],
            MovingSourceEnvironment(),
            trace_mode="aggregate",
            engine="columnar",
        )
        assert self._build(kernel) is None

    def test_refuses_ess_ablation_knob(self):
        from repro.core.ess_consensus import ESSConsensus

        kernel = RuntimeKernel(
            [ESSConsensus(pid, silent_non_leaders=True) for pid in range(3)],
            MovingSourceEnvironment(),
            trace_mode="aggregate",
            engine="columnar",
        )
        assert self._build(kernel) is None

    def test_unknown_engine_rejected(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            RuntimeKernel(
                [HeartbeatPseudoLeader(0)],
                MovingSourceEnvironment(),
                engine="vectorized",
            )

"""Drifting-engine equivalence: matrix event loop pinned to the object loop.

The :class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine`
replaces the drifting scheduler's per-envelope event machinery with
delivery-tick columns drained as masked matrix passes.  Like the
lock-step engine it is a representation switch, not a semantics
switch: every configuration must produce a
:class:`~repro.giraf.traces.RunTrace` that compares equal as a whole
dataclass, and final algorithm views that match field by field —
across environments × link/delay policies × crash schedules × GST
values × both event queues × both array backends.

The second half covers the amortization layer shared with the
lock-step engine: the warm :class:`HistoryIndex` reused between runs
inside one intern-cache window, and the lazy finalize views that keep
teardown O(n) instead of O(n × width).
"""

import time

import pytest

from repro.core.columnar import CounterRowView, numpy_available
from repro.core.history import clear_intern_cache
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
    SilentLinks,
)
from repro.giraf.scheduler import DriftingScheduler
from repro.runtime.columnar_engine import (
    ColumnarDriftingEngine,
    warm_history_index,
)
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

BACKENDS = ["numpy", "python"] if numpy_available() else ["python"]


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
    assert took_engine == expect_engine
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        _assert_equivalent(env="ess-stable", crashes=CRASHES)

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
        assert columnar._columnar_engine is not None
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
        n = len(kernel.processes)
        engine, _reason = ColumnarDriftingEngine.try_build(
            kernel,
            kernel.environment,
            periods=[1.0 + 0.13 * pid for pid in range(n)],
            phases=[0.01 * pid for pid in range(n)],
            record_snapshots=True,
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


class TestAmortization:
    """Satellite: warm index reuse + lazy finalize views."""

    def test_warm_index_shared_within_window(self):
        clear_intern_cache()
        first = warm_history_index()
        assert warm_history_index() is first
        clear_intern_cache()
        assert warm_history_index() is not first

    def test_second_identical_run_interns_nothing(self):
        _, trace = _run("columnar", rounds=6)
        width_after_first = warm_history_index().width
        driver, again = _run("columnar", rounds=6, clear=False)
        assert driver._columnar_engine is not None
        assert again == trace
        assert warm_history_index().width == width_after_first

    def test_width_cap_forces_rebuild(self, monkeypatch):
        import repro.runtime.columnar_engine as module

        clear_intern_cache()
        first = warm_history_index()
        _run("columnar", rounds=6, clear=False)
        assert first.width > 2
        monkeypatch.setattr(module, "_WARM_WIDTH_CAP", 2)
        assert warm_history_index() is not first

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
        # 2-round run.  With the warm index and lazy views a short
        # columnar run must beat the object loop outright at a size
        # where per-round work is already matrix-bound.
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

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
scheduler, injected round hooks, consensus on top).  Algorithm 3 on
the matrix path has its own pins in ``test_columnar_ess.py``.
"""

import pytest

from repro.core.columnar import numpy_available
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
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.runtime.columnar_engine import ColumnarLockStepEngine
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

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backends_agree(self, backend, monkeypatch):
        monkeypatch.setenv("REPRO_COLUMNAR_BACKEND", backend)
        _assert_equivalent(env="ess-stable", crashes=CRASHES)


class TestFallbackPins:
    """Configurations the matrix engine declines run the object engine
    (dict electors), so ``engine="columnar"`` changes nothing there."""

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

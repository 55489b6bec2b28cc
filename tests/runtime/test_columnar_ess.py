"""Algorithm 3 on the lock-step matrix engine, pinned to the object engine.

``engine="columnar"`` runs stock :class:`~repro.core.ess_consensus.ESSConsensus`
as matrix passes (``PROPOSED``/``WRITTEN``/``WRITTENOLD`` as boolean
matrices over the run's proposals plus ``⊥``, ``VAL`` as an index
column).  That is a representation switch, not a semantics switch: on
generated configurations — MS/ES/ESS environments × the three pure
link policies × uniform, constant, never-delivered and 1-tick delays or
an environment answering its own delays × crash fractions × stop
predicate × horizons — the whole
:class:`~repro.giraf.traces.RunTrace` and every final algorithm view
must equal the object engine's, from a cold intern table and from one
an unrelated columnar run has filled.  Configurations outside the
regime run the object engine and say why (``engine_decline``).

Without numpy every draw declines with the numpy reason and still
matches the object engine.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive_anonymous import (
    DivergencePollutionLinks,
    NaiveAnonymousConsensus,
)
from repro.core.columnar import numpy_available
from repro.core.ess_consensus import ESSConsensus
from repro.core.history import clear_intern_cache
from repro.giraf.adversary import (
    NEVER_DELIVERED,
    ConstantDelay,
    CrashPlan,
    CrashSchedule,
    DelayPolicy,
    RandomSource,
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
from repro.giraf.scheduler import LockStepScheduler
from repro.runtime import columnar_engine
from repro.runtime.columnar_engine import NUMPY_REASON
from repro.sim.runner import stop_when_all_correct_decided


class OneTickDelay(DelayPolicy):
    """A custom policy whose late links are mostly 1 tick late: those
    land before the receiver computes the round, so they still count."""

    def __init__(self, seed: int):
        self._seed = seed

    def delay(self, round_no: int, sender: int, receiver: int) -> int:
        return 1 if (7 * round_no + 3 * sender + receiver + self._seed) % 3 else 4


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


def _proposals(kind: str, n: int, seed: int):
    if kind == "distinct":
        return [(seed * 7919 + 104729 * pid) % 1_000_003 for pid in range(n)]
    if kind == "repeated":
        return [(seed + pid * pid) % 3 for pid in range(n)]
    if kind == "single":
        return [seed] * n
    return [f"v{(seed + pid) % 4}" for pid in range(n)]


@st.composite
def ess_configs(draw):
    """A generated lock-step Algorithm 3 configuration, as a plain tuple
    so object and columnar runs each build fresh, identical inputs."""
    n = draw(st.sampled_from(list(range(1, 14)) + [64]))
    seed = draw(st.integers(0, 10_000))
    kind = draw(st.sampled_from(["distinct", "repeated", "single", "str"]))
    env = draw(st.sampled_from(["MS", "ES", "ESS"]))
    link = draw(st.sampled_from(["silent", "alltimely", "bernoulli"]))
    p = draw(st.floats(0.0, 1.0))
    delay = draw(
        st.sampled_from(["uniform", "constant", "never", "one-tick", "stretched"])
    )
    stable = draw(st.integers(1, 6))
    fraction = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    stop = draw(st.booleans())
    # n = 64 keeps to short horizons so the suite stays fast
    horizons = [1, 2, 3, 5, 8, 13] + ([] if n > 13 else [40])
    horizon = draw(st.sampled_from(horizons))
    return (n, seed, kind, env, link, p, delay, stable, fraction, stop, horizon)


def _build(config, engine, **overrides):
    (n, seed, kind, env, link, p, delay, stable, fraction, stop, horizon) = config
    links = {
        "silent": SilentLinks,
        "alltimely": AllTimelyLinks,
        "bernoulli": lambda: BernoulliLinks(p, seed=seed),
    }[link]()
    delays = {
        "uniform": lambda: UniformDelay(2, 5, seed=seed),
        "constant": lambda: ConstantDelay(2 + seed % 3),
        "never": lambda: ConstantDelay(NEVER_DELIVERED),
        "one-tick": lambda: OneTickDelay(seed),
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
            n, fraction, seed=seed, earliest_round=1, latest_round=8, protect={0}
        )
    kwargs = dict(
        crash_schedule=crashes,
        max_rounds=horizon,
        stop_when=stop_when_all_correct_decided if stop else None,
        trace_mode="aggregate",
        engine=engine,
    )
    kwargs.update(overrides)
    return LockStepScheduler(
        [ESSConsensus(value) for value in _proposals(kind, n, seed)],
        environment,
        **kwargs,
    )


def _final_views(scheduler):
    return [
        {
            "val": proc.algorithm.val,
            "proposed": proc.algorithm.proposed,
            "written": proc.algorithm.written,
            "written_old": proc.algorithm.written_old,
            "leader": proc.algorithm._last_was_leader,
            "decision": proc.algorithm.decision,
            "decision_round": proc.algorithm.decision_round,
            "history": tuple(proc.algorithm.elector.history),
            "counters": {
                tuple(history): count
                for history, count in proc.algorithm.elector.counters.items()
            },
            "round": proc.round,
            "crashed": proc.crashed,
            "halted": proc.halted,
        }
        for proc in scheduler.processes
    ]


def _run(config, engine, *, after=None, **overrides):
    """One run from a cleared intern table — or, with ``after``, right
    after a columnar run of that configuration, whose histories stay in
    the engines' shared index."""
    clear_intern_cache()
    if after is not None:
        _build(after, "columnar").run()
    scheduler = _build(config, engine, **overrides)
    trace = scheduler.run()
    return scheduler, trace


def _assert_pinned(config, *, after=None, **overrides):
    reference, reference_trace = _run(config, "object", **overrides)
    columnar, columnar_trace = _run(config, "columnar", after=after, **overrides)
    assert columnar_trace == reference_trace
    assert _final_views(columnar) == _final_views(reference)
    return columnar, columnar_trace


def _stored_columns(scheduler) -> int:
    """Counter columns the run's lock-step matrix buffers hold room for."""
    return scheduler._columnar_engine._C.shape[0]


#: the benchmark's headline shape: ESS from round 3, uniform delays,
#: a quarter of the processes crashing, run until decided
HEADLINE = (64, 5, "distinct", "ESS", "silent", 0.0, "uniform", 3, 0.25, True, 200)


class TestGeneratedConfigurations:
    @given(config=ess_configs(), warmup=ess_configs())
    @settings(
        max_examples=120,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_trace_and_views_match_object_engine(self, config, warmup):
        reference, reference_trace = _run(config, "object")
        for after in (None, warmup):
            columnar, columnar_trace = _run(config, "columnar", after=after)
            assert columnar_trace == reference_trace
            assert _final_views(columnar) == _final_views(reference)
            assert columnar._environment.asked == reference._environment.asked
            if numpy_available():
                assert columnar.engine_path == "matrix-lockstep"
                assert columnar.engine_decline is None
            else:
                assert columnar.engine_path == "object"
                assert columnar.engine_decline == NUMPY_REASON

    def test_headline_configuration(self):
        columnar, trace = _assert_pinned(HEADLINE)
        assert len(trace.decisions) == len(trace.correct)
        expected = "matrix-lockstep" if numpy_available() else "object"
        assert columnar.engine_path == expected


needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the Algorithm 3 matrix path needs numpy"
)


@needs_numpy
class TestLateMatrixChunks:
    """A round's late delays are drawn in chunks of senders; chunks of
    one or a few senders must count, and feed delay-1 lates, exactly as
    one whole-round matrix does (the object engine is the reference)."""

    @pytest.mark.parametrize(
        "config",
        [
            HEADLINE,
            (13, 7, "repeated", "MS", "bernoulli", 0.3, "one-tick", 1, 0.25, True, 40),
            (13, 8, "str", "ES", "silent", 0.0, "stretched", 4, 0.1, False, 13),
        ],
        ids=["headline", "one-tick", "stretched"],
    )
    def test_small_chunks_match_object_engine(self, config, monkeypatch):
        monkeypatch.setattr(columnar_engine, "_LATE_CHUNK_CELLS", 30)
        columnar, _ = _assert_pinned(config)
        assert columnar.engine_path == "matrix-lockstep"


@needs_numpy
class TestDeciderSemantics:
    def test_decider_halts_before_same_and_later_tick_crashes(self):
        """A crash scheduled for a decider's deciding tick (after send)
        or any later tick is skipped: the process has already halted.
        (The source is pid 0 from round 1 on, so plans for other pids
        cannot move it and the deciders decide where they did
        crash-free.)"""
        config = HEADLINE[:7] + (1, 0.0, False, 200)
        _, trace = _run(config, "object")
        others = [event for event in trace.decisions if event.pid != 0]
        first = min(others, key=lambda event: (event.round_no, event.pid))
        last = max(others, key=lambda event: (event.round_no, event.pid))
        schedule = CrashSchedule(
            {
                first.pid: CrashPlan(first.round_no + 1, False),
                last.pid: CrashPlan(last.round_no + 3, True),
            }
        )
        columnar, columnar_trace = _assert_pinned(config, crash_schedule=schedule)
        assert columnar.engine_path == "matrix-lockstep"
        assert columnar_trace.crashed_pids() == frozenset()
        assert {first.pid, last.pid} <= columnar_trace.decided_pids()

    def test_decisions_and_halts_in_pid_order(self):
        columnar, trace = _assert_pinned(HEADLINE)
        assert columnar.engine_path == "matrix-lockstep"
        by_round = {}
        for decision in trace.decisions:
            by_round.setdefault(decision.round_no, []).append(decision.pid)
        assert all(pids == sorted(pids) for pids in by_round.values())
        assert [halt.pid for halt in trace.halts] == [
            decision.pid for decision in trace.decisions
        ]

    def test_decider_final_view(self):
        columnar, trace = _assert_pinned(HEADLINE)
        for decision in trace.decisions:
            proc = columnar.processes[decision.pid]
            algorithm = proc.algorithm
            # the decide branch returns before line 21 and before the
            # automaton advances its round
            assert proc.round == decision.round_no
            assert len(algorithm.elector.history) == decision.round_no
            assert algorithm.written_old == frozenset({decision.value})
            assert proc.halted

    def test_warm_index_does_not_widen_the_matrices(self):
        """Runs inside one intern-cache window share the interned
        history table, so a run after an unrelated one meets every
        earlier history there; it must still store only its own live
        columns, and still match the object engine."""
        unrelated = (40, 9, "distinct", "MS", "bernoulli", 0.3, "uniform", 1, 0.1, True, 30)
        cold, _ = _assert_pinned(HEADLINE)
        warm, _ = _assert_pinned(HEADLINE, after=unrelated)
        assert warm.engine_path == "matrix-lockstep"
        assert _stored_columns(warm) <= _stored_columns(cold)

    def test_one_tick_lates_feed_the_next_compute(self):
        """With most late links 1 tick late, those messages still reach
        their round's compute: the run matches the object engine, and
        its decisions differ from a 2-tick twin's (whose lates all
        miss the compute)."""
        config = (9, 3, "distinct", "MS", "silent", 0.0, "one-tick", 1, 0.0, True, 40)
        columnar, trace = _assert_pinned(config)
        assert columnar.engine_path == "matrix-lockstep"
        slower = (9, 3, "distinct", "MS", "silent", 0.0, "constant", 1, 0.0, True, 40)
        _, slower_trace = _run(slower, "columnar")
        assert trace.decisions != slower_trace.decisions


def _ablation(value):
    return ESSConsensus(value, ignore_empty_in_intersection=True)


#: one ineligible configuration per decline reason: what differs from a
#: stock run, and the text its reason must contain
DECLINES = {
    "full-trace": dict(overrides={"trace_mode": "full"}, expected="trace_mode='full'"),
    "hook": dict(overrides={"on_round": lambda tick: None}, expected="on_round hook"),
    "snapshots": dict(
        overrides={"record_snapshots": True}, expected="record_snapshots=True"
    ),
    "payload-stats": dict(
        overrides={"payload_stats": True}, expected="payload_stats=True"
    ),
    "ablation-knob": dict(algorithm=_ablation, expected="ablation knob"),
    "naive-anonymous": dict(
        algorithm=NaiveAnonymousConsensus, expected="NaiveAnonymousConsensus"
    ),
    "mixed-values": dict(proposals=[1, "b", 2], expected="not all int or all str"),
    "divergence-pollution": dict(
        links=DivergencePollutionLinks, expected="DivergencePollutionLinks"
    ),
}


class TestDeclineReasons:
    """Every ineligible run takes the object engine and says why."""

    @pytest.mark.parametrize("case", sorted(DECLINES))
    def test_declines_with_reason(self, case):
        spec = DECLINES[case]
        algorithm = spec.get("algorithm", ESSConsensus)
        proposals = spec.get("proposals")
        links = spec.get("links")

        def build(engine):
            clear_intern_cache()
            values = proposals if proposals is not None else [3, 1, 2, 0, 1]
            environment = EventuallyStableSourceEnvironment(
                2,
                0,
                RandomSource(4),
                links() if links is not None else BernoulliLinks(0.3, seed=1),
                UniformDelay(2, 4, seed=2),
            )
            scheduler = LockStepScheduler(
                [algorithm(value) for value in values],
                environment,
                max_rounds=30,
                stop_when=stop_when_all_correct_decided,
                **{"trace_mode": "aggregate", **spec.get("overrides", {})},
                engine=engine,
            )
            if links is not None:
                # bound after construction, as the experiment harness does
                environment.link_policy.bind(scheduler.processes)
            return scheduler

        reference = build("object")
        columnar = build("columnar")
        assert columnar.engine_path == "object"
        # without numpy, the numpy reason comes first for every request
        expected = spec["expected"] if numpy_available() else NUMPY_REASON
        assert expected in columnar.engine_decline
        if proposals is None:  # mixed proposals cannot run at all
            assert columnar.run() == reference.run()

    def test_declines_without_numpy(self, monkeypatch):
        import repro.core.columnar as columnar_module

        monkeypatch.setattr(columnar_module, "_np", None)
        columnar, _ = _assert_pinned(HEADLINE[:10] + (20,))
        assert columnar.engine_path == "object"
        assert columnar.engine_decline == NUMPY_REASON

    def test_object_engine_reports_no_decline(self):
        scheduler = _build(HEADLINE, "object")
        assert scheduler.engine_path == "object"
        assert scheduler.engine_decline is None

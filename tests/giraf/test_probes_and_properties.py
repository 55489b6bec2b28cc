"""Probe algorithms + scheduler-level property tests.

The property tests here close the loop between the two: *whatever*
seeded adversary the constructive environments produce, the resulting
trace must pass the corresponding ground-truth checker — validating
schedulers and environments against each other.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.giraf.adversary import (
    CrashSchedule,
    FlappingSource,
    RandomSource,
    RoundRobinSource,
    UniformDelay,
)
from repro.giraf.checkers import check_es, check_ess, check_ms
from repro.giraf.environments import (
    BernoulliLinks,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
)
from repro.giraf.probes import CountingProbe, EchoProbe
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler


class TestProbes:
    def test_echo_probe_tags_messages(self):
        probe = EchoProbe("tag")
        assert probe.initialize() == ("tag", 1)

    def test_counting_probe_is_anonymous_clone(self):
        a, b = CountingProbe(), CountingProbe()
        assert a.initialize() == b.initialize()

    def test_counting_probes_merge_when_in_identical_state(self):
        env = EventualSynchronyEnvironment(gst=1)
        scheduler = LockStepScheduler(
            [CountingProbe() for _ in range(4)], env, max_rounds=5
        )
        trace = scheduler.run()
        # all four processes broadcast identical messages every round,
        # so every inbox slot holds exactly ONE element
        for proc in scheduler.processes:
            for k in range(1, 5):
                assert len(proc.inbox_view().received(k)) == 1


class TestEnvironmentSchedulerContracts:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(2, 7),
        crash_fraction=st.sampled_from([0.0, 0.3, 0.6]),
    )
    def test_ms_always_holds(self, seed, n, crash_fraction):
        env = MovingSourceEnvironment(
            source_schedule=RandomSource(seed),
            link_policy=BernoulliLinks(0.3, seed=seed),
            delay_policy=UniformDelay(2, 5, seed=seed),
        )
        crashes = CrashSchedule.fraction(n, crash_fraction, seed=seed, latest_round=8)
        scheduler = LockStepScheduler(
            [EchoProbe(pid) for pid in range(n)], env, crashes, max_rounds=15
        )
        assert check_ms(scheduler.run()).ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), gst=st.integers(1, 10))
    def test_es_always_holds(self, seed, gst):
        env = EventualSynchronyEnvironment(
            gst=gst,
            source_schedule=RandomSource(seed),
            link_policy=BernoulliLinks(0.5, seed=seed),
        )
        crashes = CrashSchedule.fraction(5, 0.4, seed=seed, latest_round=gst + 3)
        scheduler = LockStepScheduler(
            [EchoProbe(pid) for pid in range(5)], env, crashes, max_rounds=gst + 12
        )
        trace = scheduler.run()
        assert check_ms(trace).ok
        assert check_es(trace, gst).ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), stab=st.integers(1, 10))
    def test_ess_always_holds(self, seed, stab):
        env = EventuallyStableSourceEnvironment(
            stabilization_round=stab,
            preferred_source=0,
            source_schedule=RandomSource(seed),
            link_policy=BernoulliLinks(0.5, seed=seed),
        )
        crashes = CrashSchedule.fraction(
            5, 0.4, seed=seed, latest_round=stab + 3, protect={0}
        )
        scheduler = LockStepScheduler(
            [EchoProbe(pid) for pid in range(5)], env, crashes, max_rounds=stab + 12
        )
        trace = scheduler.run()
        assert check_ess(trace, stab).ok

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 500),
        periods=st.lists(
            st.floats(0.5, 3.0, allow_nan=False), min_size=3, max_size=5
        ),
    )
    def test_drifting_scheduler_honours_ms_for_any_speeds(self, seed, periods):
        n = len(periods)
        env = MovingSourceEnvironment(source_schedule=RandomSource(seed))
        scheduler = DriftingScheduler(
            [EchoProbe(pid) for pid in range(n)],
            env,
            periods=periods,
            phases=[0.01 * pid for pid in range(n)],
            max_rounds=10,
        )
        assert check_ms(scheduler.run()).ok

    def test_flapping_vs_round_robin_same_contract(self):
        for schedule in (FlappingSource(1), RoundRobinSource()):
            env = MovingSourceEnvironment(source_schedule=schedule)
            scheduler = LockStepScheduler(
                [EchoProbe(pid) for pid in range(4)], env, max_rounds=12
            )
            assert check_ms(scheduler.run()).ok

"""Tests for the drifting scheduler: gating, drift, crash/halt handling."""

import pytest

from repro.errors import SimulationError
from repro.giraf.adversary import CrashPlan, CrashSchedule, RoundRobinSource
from repro.giraf.checkers import check_es, check_ms
from repro.giraf.environments import (
    EventualSynchronyEnvironment,
    MovingSourceEnvironment,
)
from repro.giraf.probes import EchoProbe
from repro.giraf.scheduler import DriftingScheduler


class _RecordingMovingSource(MovingSourceEnvironment):
    """An MS environment logging every ``plan_round`` call as
    (round, candidates)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def plan_round(self, round_no, candidates):
        self.calls.append((round_no, tuple(candidates)))
        return super().plan_round(round_no, candidates)


def run_drifting(n=3, env=None, crashes=None, max_rounds=12, **kwargs):
    env = env or MovingSourceEnvironment(source_schedule=RoundRobinSource())
    scheduler = DriftingScheduler(
        [EchoProbe(pid) for pid in range(n)], env, crashes,
        max_rounds=max_rounds, **kwargs
    )
    return scheduler, scheduler.run()


class TestDriftingBasics:
    def test_processes_reach_max_rounds(self):
        _, trace = run_drifting(max_rounds=8)
        for pid in range(3):
            assert trace.max_round_of(pid) == 8

    def test_rounds_genuinely_drift(self):
        # heterogeneous periods: entry times for the same round differ
        _, trace = run_drifting(
            n=3, periods=[1.0, 1.5, 2.5], phases=[0.0, 0.0, 0.0], max_rounds=8
        )
        entry_times = [trace.round_entries[pid][5] for pid in range(3)]
        assert len(set(entry_times)) == 3

    def test_ms_holds_under_gating(self):
        _, trace = run_drifting(n=4, max_rounds=15)
        assert check_ms(trace).ok

    def test_es_holds_after_gst(self):
        env = EventualSynchronyEnvironment(
            gst=4, source_schedule=RoundRobinSource()
        )
        _, trace = run_drifting(n=4, env=env, max_rounds=15)
        assert check_es(trace, 4).ok

    def test_periods_validated(self):
        with pytest.raises(SimulationError):
            DriftingScheduler(
                [EchoProbe(0)], MovingSourceEnvironment(), periods=[0.0]
            )

    def test_period_count_validated(self):
        with pytest.raises(SimulationError):
            DriftingScheduler(
                [EchoProbe(0), EchoProbe(1)],
                MovingSourceEnvironment(),
                periods=[1.0],
            )


class TestDriftingCrashes:
    def test_before_send_crash(self):
        crashes = CrashSchedule({1: CrashPlan(4, before_send=True)})
        _, trace = run_drifting(crashes=crashes, max_rounds=10)
        assert 1 not in trace.senders_of_round(4)
        assert trace.crashed_pids() == frozenset({1})

    def test_after_send_crash(self):
        crashes = CrashSchedule({1: CrashPlan(4, before_send=False)})
        _, trace = run_drifting(crashes=crashes, max_rounds=10)
        assert 1 in trace.senders_of_round(4)
        assert 1 not in trace.senders_of_round(5)

    def test_ms_still_holds_with_crashes(self):
        crashes = CrashSchedule({0: CrashPlan(3), 2: CrashPlan(6, before_send=False)})
        _, trace = run_drifting(n=4, crashes=crashes, max_rounds=15)
        assert check_ms(trace).ok

    def test_crash_scheduled_pids_are_never_candidates(self):
        """Pids 0 and 1 would be the round-robin's first sources, but
        they are scheduled to crash, so no plan ever names them: they
        are never candidates, never obligatory, and their crashes
        leave nothing to re-plan (``TestLoopContract`` in
        ``tests/runtime/test_columnar_drifting_engine.py`` pins the
        re-plans)."""
        crashes = CrashSchedule(
            {0: CrashPlan(2, before_send=True), 1: CrashPlan(3, before_send=True)}
        )
        env = _RecordingMovingSource(source_schedule=RoundRobinSource())
        _, trace = run_drifting(n=4, env=env, crashes=crashes, max_rounds=12)
        assert env.calls
        assert all(
            not {0, 1} & set(candidates) for _round_no, candidates in env.calls
        )
        planned = [round_no for round_no, _candidates in env.calls]
        assert len(planned) == len(set(planned))  # no round planned twice
        assert trace.max_round_of(2) == 12
        assert trace.max_round_of(3) == 12
        assert check_ms(trace).ok


class TestDriftingAggregate:
    def test_aggregate_counts_match_full_events(self):
        _, full = run_drifting(n=4, max_rounds=10)
        _, aggregate = run_drifting(n=4, max_rounds=10, trace_mode="aggregate")
        assert aggregate.aggregate
        assert not aggregate.sends and not aggregate.deliveries
        assert aggregate.send_count() == len(full.sends) > 0
        assert aggregate.message_count() == len(full.deliveries) > 0
        assert aggregate.rounds_executed == full.rounds_executed

    def test_gating_still_enforced_in_aggregate_mode(self):
        # MS can't be checked without events, but progress under gating
        # (every process reaching the horizon) exercises the same paths
        _, trace = run_drifting(n=4, max_rounds=12, trace_mode="aggregate")
        for pid in range(4):
            assert trace.max_round_of(pid) == 12


class TestDriftingConsensus:
    def test_es_consensus_under_drift(self):
        from repro.core import ESConsensus
        from repro.core.checkers import check_consensus

        env = EventualSynchronyEnvironment(gst=5, source_schedule=RoundRobinSource())
        scheduler = DriftingScheduler(
            [ESConsensus(v) for v in [4, 9, 2, 7]],
            env,
            max_rounds=60,
            periods=[1.0, 1.3, 1.9, 0.7],
        )
        report = check_consensus(scheduler.run())
        assert report.ok

    def test_ess_consensus_under_drift(self):
        from repro.core import ESSConsensus
        from repro.core.checkers import check_consensus
        from repro.giraf.environments import EventuallyStableSourceEnvironment

        env = EventuallyStableSourceEnvironment(
            stabilization_round=5, preferred_source=1
        )
        scheduler = DriftingScheduler(
            [ESSConsensus(v) for v in [4, 9, 2, 7]],
            env,
            max_rounds=120,
            periods=[1.0, 1.3, 1.9, 0.7],
        )
        report = check_consensus(scheduler.run())
        assert report.ok

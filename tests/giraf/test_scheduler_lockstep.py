"""Tests for the lock-step scheduler: delivery, crashes, halting, traces."""

import pytest

from repro.errors import SimulationError
from repro.giraf.adversary import ConstantDelay, CrashPlan, CrashSchedule, RoundRobinSource
from repro.giraf.automaton import GirafAlgorithm
from repro.giraf.environments import (
    AllTimelyLinks,
    EventualSynchronyEnvironment,
    MovingSourceEnvironment,
)
from repro.giraf.probes import EchoProbe
from repro.giraf.scheduler import LockStepScheduler


def run_probes(n=3, env=None, crashes=None, max_rounds=10, **kwargs):
    env = env or EventualSynchronyEnvironment(gst=1)
    scheduler = LockStepScheduler(
        [EchoProbe(pid) for pid in range(n)], env, crashes,
        max_rounds=max_rounds, **kwargs
    )
    return scheduler, scheduler.run()


class TestBasicRun:
    def test_rounds_executed(self):
        _, trace = run_probes(max_rounds=7)
        assert trace.rounds_executed == 7

    def test_everyone_enters_every_round(self):
        _, trace = run_probes(n=4, max_rounds=5)
        for k in range(1, 6):
            assert trace.entered(k) == frozenset(range(4))

    def test_compute_lags_entry_by_one_tick(self):
        _, trace = run_probes(max_rounds=5)
        # round 4 computed at tick 5; round 5 never computed (run ends)
        assert trace.computed(4) == frozenset(range(3))
        assert trace.computed(5) == frozenset()

    def test_all_timely_delivers_everything_in_round(self):
        _, trace = run_probes(n=3, max_rounds=4)
        # n*(n-1) deliveries per round, all timely
        per_round = [d for d in trace.deliveries if d.round_no == 2]
        assert len(per_round) == 6
        assert all(d.timely for d in per_round)

    def test_probes_see_all_messages_under_full_synchrony(self):
        scheduler, _ = run_probes(n=3, max_rounds=4)
        for proc in scheduler.processes:
            for seen in proc.algorithm.seen:
                assert len(seen) == 3  # one distinct message per tag

    def test_needs_at_least_one_process(self):
        with pytest.raises(SimulationError):
            LockStepScheduler([], EventualSynchronyEnvironment(gst=1))

    def test_max_rounds_validated(self):
        bad = [0, float("nan"), float("inf"), float("-inf"), 2.5, True, "5", None]
        for max_rounds in bad:
            for engine in ("object", "columnar"):
                with pytest.raises(SimulationError, match="max_rounds"):
                    LockStepScheduler(
                        [EchoProbe(0)],
                        EventualSynchronyEnvironment(gst=1),
                        max_rounds=max_rounds,
                        trace_mode="aggregate",
                        engine=engine,
                    )


class TestLateDelivery:
    def test_non_source_messages_arrive_late(self):
        env = MovingSourceEnvironment(
            source_schedule=RoundRobinSource(),
            delay_policy=ConstantDelay(3),
        )
        _, trace = run_probes(n=3, env=env, max_rounds=10)
        late = [d for d in trace.deliveries if not d.timely]
        assert late, "expected some late deliveries"
        for delivery in late:
            assert delivery.delivered_time - delivery.sent_time == 3

    def test_late_messages_do_not_count_as_timely(self):
        env = MovingSourceEnvironment(
            source_schedule=RoundRobinSource(), delay_policy=ConstantDelay(3)
        )
        _, trace = run_probes(n=3, env=env, max_rounds=10)
        for k in range(2, 8):
            # exactly the source (plus itself) is timely each round
            senders_timely_to_all = [
                s
                for s in trace.senders_of_round(k)
                if trace.computed(k) <= trace.timely_receivers(s, k)
            ]
            assert len(senders_timely_to_all) == 1


class TestCrashes:
    def test_before_send_crash_sends_nothing_that_round(self):
        crashes = CrashSchedule({1: CrashPlan(3, before_send=True)})
        _, trace = run_probes(n=3, crashes=crashes, max_rounds=6)
        assert 1 not in trace.senders_of_round(3)
        assert 1 in trace.senders_of_round(2)

    def test_after_send_crash_still_broadcasts(self):
        crashes = CrashSchedule({1: CrashPlan(3, before_send=False)})
        _, trace = run_probes(n=3, crashes=crashes, max_rounds=6)
        assert 1 in trace.senders_of_round(3)
        assert 1 not in trace.senders_of_round(4)

    def test_crashed_process_receives_nothing(self):
        crashes = CrashSchedule({1: CrashPlan(2, before_send=True)})
        scheduler, trace = run_probes(n=3, crashes=crashes, max_rounds=6)
        proc = scheduler.processes[1]
        assert proc.inbox_view().received(5) == frozenset()

    def test_correct_set_in_trace(self):
        crashes = CrashSchedule({0: CrashPlan(1)})
        _, trace = run_probes(n=3, crashes=crashes, max_rounds=4)
        assert trace.correct == frozenset({1, 2})
        assert trace.crashed_pids() == frozenset({0})


class TestHalting:
    class HaltsAt(GirafAlgorithm):
        def __init__(self, at):
            super().__init__()
            self.at = at

        def initialize(self):
            return ("h", 0)

        def compute(self, k, inbox):
            if k >= self.at:
                self.halt()
            return ("h", k)

    def test_halt_recorded_and_run_stops(self):
        scheduler = LockStepScheduler(
            [self.HaltsAt(2), self.HaltsAt(2)],
            EventualSynchronyEnvironment(gst=1),
            max_rounds=50,
        )
        trace = scheduler.run()
        assert len(trace.halts) == 2
        assert trace.rounds_executed <= 3

    def test_halted_process_stops_sending(self):
        scheduler = LockStepScheduler(
            [self.HaltsAt(2), self.HaltsAt(9)],
            EventualSynchronyEnvironment(gst=1),
            max_rounds=20,
        )
        trace = scheduler.run()
        assert 0 not in trace.senders_of_round(4)
        assert 1 in trace.senders_of_round(4)


class TestStopPredicate:
    def test_stop_when(self):
        stopped_at = []

        def stop(trace):
            stopped_at.append(trace.rounds_executed)
            return trace.rounds_executed >= 4

        _, trace = run_probes(max_rounds=50, stop_when=stop)
        assert trace.rounds_executed == 4


class TestStepAPI:
    def test_step_is_equivalent_to_run(self):
        env = EventualSynchronyEnvironment(gst=1)
        a = LockStepScheduler([EchoProbe(i) for i in range(3)], env, max_rounds=6)
        b = LockStepScheduler([EchoProbe(i) for i in range(3)], env, max_rounds=6)
        trace_a = a.run()
        while b.step():
            pass
        trace_b = b.trace
        assert trace_a.rounds_executed == trace_b.rounds_executed
        assert len(trace_a.deliveries) == len(trace_b.deliveries)

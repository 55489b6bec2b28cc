"""The runtime kernel must not move a single number.

Pins for this PR's unification:

* **drifting aggregate mode** — ``DriftingScheduler`` with
  ``trace_mode="aggregate"`` answers ``consensus_metrics`` and
  ``payload_growth`` identically to its full-event twin, and the
  aggregate trace round-trips through JSON;
* **vectorized link planning** — ``plan_round_links`` produces
  byte-identical ``RunTrace``s to per-link ``extra_timely`` calls
  across the MS/ES/ESS × link-policy grid, under both schedulers;
* **kernel lifecycle** — validation and sink selection behave like the
  pre-kernel schedulers did.
"""

import pytest

from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.core.pseudo_leader import HeartbeatPseudoLeader
from repro.errors import SimulationError
from repro.giraf.adversary import CrashPlan, CrashSchedule, RandomSource
from repro.giraf.environments import (
    AllTimelyLinks,
    BernoulliLinks,
    Environment,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    SilentLinks,
)
from repro.giraf.probes import EchoProbe
from repro.giraf.scheduler import DriftingScheduler, LockStepScheduler
from repro.runtime import AggregateTraceSink, FullTraceSink, RuntimeKernel
from repro.serialization import trace_to_dict, trace_from_json, trace_to_json
from repro.sim.metrics import consensus_metrics, payload_growth
from repro.sim.runner import stop_when_all_correct_decided


def _environments(seed, link_policy_factory):
    return [
        MovingSourceEnvironment(
            source_schedule=RandomSource(seed), link_policy=link_policy_factory()
        ),
        EventualSynchronyEnvironment(
            gst=5, source_schedule=RandomSource(seed), link_policy=link_policy_factory()
        ),
        EventuallyStableSourceEnvironment(
            stabilization_round=5,
            preferred_source=0,
            source_schedule=RandomSource(seed),
            link_policy=link_policy_factory(),
        ),
    ]


LINK_POLICIES = [
    ("silent", SilentLinks),
    ("all-timely", AllTimelyLinks),
    ("bernoulli", lambda: BernoulliLinks(0.4, seed=11)),
]


def _scalar_links(environment):
    """Force the per-link fallback of ``plan_round_links``.

    Overriding ``extra_timely`` (even with a pure delegation) routes
    the environment through the scalar path, which is exactly the
    pre-vectorization behavior.
    """

    class ScalarLinkEnvironment(type(environment)):
        def extra_timely(self, round_no, sender, receiver):
            return Environment.extra_timely(self, round_no, sender, receiver)

    clone = object.__new__(ScalarLinkEnvironment)
    clone.__dict__.update(environment.__dict__)
    return clone


class TestVectorizedLinkPlanning:
    @pytest.mark.parametrize("policy_name,policy_factory", LINK_POLICIES)
    def test_lockstep_traces_identical(self, policy_name, policy_factory):
        crashes = CrashSchedule({1: CrashPlan(3, before_send=False)})
        for environment in _environments(3, policy_factory):
            vectorized = LockStepScheduler(
                [ESSConsensus(v) for v in [3, 1, 4, 1, 5]],
                environment,
                crashes,
                max_rounds=40,
            ).run()
            scalar = LockStepScheduler(
                [ESSConsensus(v) for v in [3, 1, 4, 1, 5]],
                _scalar_links(environment),
                crashes,
                max_rounds=40,
            ).run()
            assert trace_to_dict(vectorized) == trace_to_dict(scalar), (
                type(environment).__name__,
                policy_name,
            )

    @pytest.mark.parametrize("policy_name,policy_factory", LINK_POLICIES)
    def test_drifting_traces_identical(self, policy_name, policy_factory):
        for environment in _environments(7, policy_factory):
            vectorized = DriftingScheduler(
                [EchoProbe(pid) for pid in range(4)],
                environment,
                max_rounds=10,
                periods=[1.0, 1.3, 1.9, 0.7],
            ).run()
            scalar = DriftingScheduler(
                [EchoProbe(pid) for pid in range(4)],
                _scalar_links(environment),
                max_rounds=10,
                periods=[1.0, 1.3, 1.9, 0.7],
            ).run()
            assert trace_to_dict(vectorized) == trace_to_dict(scalar), (
                type(environment).__name__,
                policy_name,
            )

    def test_plan_round_links_matches_extra_timely(self):
        environment = MovingSourceEnvironment(link_policy=BernoulliLinks(0.5, seed=3))
        senders, receivers = [0, 2, 3], [0, 1, 2, 3, 4]
        rows = environment.plan_round_links(4, senders, receivers)
        assert set(rows) == set(senders)
        for sender in senders:
            for index, receiver in enumerate(receivers):
                expected = receiver != sender and environment.extra_timely(
                    4, sender, receiver
                )
                assert rows[sender][index] == expected


def _drifting(trace_mode, *, payload_stats=False, crashes=None):
    scheduler = DriftingScheduler(
        [ESSConsensus(v) for v in [7, 7, 2, 9]],
        EventuallyStableSourceEnvironment(
            stabilization_round=6,
            preferred_source=0,
            source_schedule=RandomSource(5),
            link_policy=BernoulliLinks(0.4, seed=12),
        ),
        crashes,
        max_rounds=80,
        periods=[1.0, 1.3, 1.9, 0.7],
        stop_when=stop_when_all_correct_decided,
        trace_mode=trace_mode,
        payload_stats=payload_stats,
    )
    return scheduler.run()


class TestEventQueueKeyword:
    """``DriftingScheduler``'s ``event_queue`` keyword selects nothing.

    Both accepted values, ``"calendar"`` and ``"heap"``, run the loop's
    one heap and give byte-identical traces across the MS/ES/ESS ×
    link-policy grid, with and without crashes; any other value is
    refused.
    """

    @pytest.mark.parametrize("policy_name,policy_factory", LINK_POLICIES)
    def test_drifting_traces_byte_identical(self, policy_name, policy_factory):
        for environment_index in range(3):
            for crashes in (None, CrashSchedule({2: CrashPlan(3, before_send=True)})):
                traces = [
                    DriftingScheduler(
                        [ESConsensus(v) for v in [3, 1, 4, 1, 5]],
                        _environments(13, policy_factory)[environment_index],
                        crashes,
                        max_rounds=40,
                        stop_when=stop_when_all_correct_decided,
                        event_queue=event_queue,
                    ).run()
                    for event_queue in ("calendar", "heap")
                ]
                assert trace_to_json(traces[0]) == trace_to_json(traces[1]), (
                    environment_index,
                    policy_name,
                    crashes is not None,
                )

    def test_unknown_value_rejected(self):
        with pytest.raises(SimulationError, match="event_queue"):
            DriftingScheduler(
                [EchoProbe(0)], MovingSourceEnvironment(), event_queue="wheelie"
            )


class TestDriftingAggregateMode:
    def test_metrics_identical(self):
        crashes = CrashSchedule({2: CrashPlan(3, before_send=True)})
        full = _drifting("full", crashes=crashes)
        aggregate = _drifting("aggregate", crashes=crashes)
        assert aggregate.aggregate and not full.aggregate
        assert not aggregate.sends and not aggregate.deliveries
        assert consensus_metrics(aggregate, stabilization_round=6) == (
            consensus_metrics(full, stabilization_round=6)
        )

    def test_payload_growth_identical(self):
        full = _drifting("full")
        aggregate = _drifting("aggregate", payload_stats=True)
        assert payload_growth(aggregate) == payload_growth(full)

    def test_aggregate_trace_round_trips_through_json(self):
        trace = _drifting("aggregate", payload_stats=True)
        clone = trace_from_json(trace_to_json(trace))
        assert clone.aggregate and clone.payload_stats
        assert clone.send_count() == trace.send_count() > 0
        assert clone.message_count() == trace.message_count() > 0
        assert payload_growth(clone) == payload_growth(trace)
        assert clone.decided_pids() == trace.decided_pids()

    def test_unknown_trace_mode_rejected(self):
        with pytest.raises(SimulationError):
            DriftingScheduler(
                [EchoProbe(0)], MovingSourceEnvironment(), trace_mode="svelte"
            )


#: horizons that are not an int >= 1: NaN and inf never ended a
#: heartbeat run, 2.5 and True ran a few rounds, "5" and None raised a
#: raw TypeError
BAD_MAX_ROUNDS = [0, float("nan"), float("inf"), float("-inf"), 2.5, True, "5", None]


class TestKernelLifecycle:
    def test_validations_match_the_old_schedulers(self):
        environment = MovingSourceEnvironment()
        with pytest.raises(SimulationError):
            RuntimeKernel([], environment)
        for max_rounds in BAD_MAX_ROUNDS:
            with pytest.raises(SimulationError, match="max_rounds"):
                RuntimeKernel([EchoProbe(0)], environment, max_rounds=max_rounds)
            for scheduler in (LockStepScheduler, DriftingScheduler):
                for engine in ("object", "columnar"):
                    with pytest.raises(SimulationError, match="max_rounds"):
                        scheduler(
                            [HeartbeatPseudoLeader(0)],
                            environment,
                            max_rounds=max_rounds,
                            trace_mode="aggregate",
                            engine=engine,
                        )
        with pytest.raises(SimulationError):
            RuntimeKernel([EchoProbe(0)], environment, trace_mode="bogus")

    def test_numpy_integer_horizon_is_stored_as_int(self):
        np = pytest.importorskip("numpy")
        kernel = RuntimeKernel(
            [EchoProbe(0)], MovingSourceEnvironment(), max_rounds=np.int16(7)
        )
        assert kernel.max_rounds == 7 and type(kernel.max_rounds) is int

    def test_sink_selection_follows_trace_mode(self):
        environment = MovingSourceEnvironment()
        full = RuntimeKernel([EchoProbe(0)], environment)
        aggregate = RuntimeKernel([EchoProbe(0)], environment, trace_mode="aggregate")
        assert isinstance(full.sink, FullTraceSink) and full.sink.wants_events
        assert isinstance(aggregate.sink, AggregateTraceSink)
        assert not aggregate.sink.wants_events
        assert aggregate.trace.aggregate and not full.trace.aggregate

    def test_es_consensus_runs_under_drifting_aggregate(self):
        scheduler = DriftingScheduler(
            [ESConsensus(v) for v in [4, 9, 2, 7]],
            EventualSynchronyEnvironment(gst=5),
            max_rounds=60,
            periods=[1.0, 1.3, 1.9, 0.7],
            stop_when=stop_when_all_correct_decided,
            trace_mode="aggregate",
        )
        trace = scheduler.run()
        assert trace.decided_pids() == frozenset({0, 1, 2, 3})
        assert len(trace.decided_values()) == 1

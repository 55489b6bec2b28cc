"""Unit tests for the MS / ES / ESS constructive environments."""

import pytest

from repro.giraf.adversary import FixedSource, RoundRobinSource
from repro.giraf.environments import (
    AllTimelyLinks,
    BernoulliLinks,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
    MovingSourceEnvironment,
    SilentLinks,
)

CANDIDATES = [0, 1, 2, 3]


class TestMovingSource:
    def test_one_obligatory_sender_per_round(self):
        env = MovingSourceEnvironment(source_schedule=RoundRobinSource())
        for k in range(1, 10):
            plan = env.plan_round(k, CANDIDATES)
            assert len(plan.obligatory) == 1
            assert plan.source in CANDIDATES
            assert plan.obligatory == frozenset({plan.source})

    def test_source_moves_with_round_robin(self):
        env = MovingSourceEnvironment(source_schedule=RoundRobinSource())
        sources = {env.plan_round(k, CANDIDATES).source for k in range(1, 5)}
        assert sources == set(CANDIDATES)

    def test_empty_candidates(self):
        env = MovingSourceEnvironment()
        plan = env.plan_round(1, [])
        assert plan.source is None
        assert plan.obligatory == frozenset()


class TestEventualSynchrony:
    def test_pre_gst_single_source(self):
        env = EventualSynchronyEnvironment(gst=5, source_schedule=FixedSource(2))
        assert env.plan_round(4, CANDIDATES).obligatory == frozenset({2})

    def test_post_gst_everyone_obligatory(self):
        env = EventualSynchronyEnvironment(gst=5)
        assert env.plan_round(5, CANDIDATES).obligatory == frozenset(CANDIDATES)
        assert env.plan_round(50, CANDIDATES).obligatory == frozenset(CANDIDATES)

    def test_gst_must_be_positive(self):
        with pytest.raises(ValueError):
            EventualSynchronyEnvironment(gst=0)


class TestEventuallyStableSource:
    def test_stable_phase_uses_preferred(self):
        env = EventuallyStableSourceEnvironment(
            stabilization_round=3, preferred_source=2
        )
        for k in range(3, 8):
            assert env.plan_round(k, CANDIDATES).source == 2

    def test_fallback_when_preferred_gone(self):
        env = EventuallyStableSourceEnvironment(
            stabilization_round=1, preferred_source=9
        )
        assert env.plan_round(4, CANDIDATES).source == CANDIDATES[0]

    def test_moving_phase_moves(self):
        env = EventuallyStableSourceEnvironment(
            stabilization_round=100,
            preferred_source=0,
            source_schedule=RoundRobinSource(),
        )
        sources = {env.plan_round(k, CANDIDATES).source for k in range(1, 5)}
        assert len(sources) > 1


class TestLinkPolicies:
    def test_silent_never(self):
        assert not SilentLinks().timely(1, 0, 1)

    def test_all_timely_always(self):
        assert AllTimelyLinks().timely(1, 0, 1)

    def test_bernoulli_rate_and_determinism(self):
        policy = BernoulliLinks(0.5, seed=3)
        draws = [policy.timely(k, 0, 1) for k in range(400)]
        assert draws == [BernoulliLinks(0.5, seed=3).timely(k, 0, 1) for k in range(400)]
        rate = sum(draws) / len(draws)
        assert 0.35 < rate < 0.65

    def test_bernoulli_extremes(self):
        assert not BernoulliLinks(0.0).timely(1, 0, 1)
        assert BernoulliLinks(1.0).timely(1, 0, 1)

    def test_bernoulli_validates_p(self):
        with pytest.raises(ValueError):
            BernoulliLinks(1.5)

    def test_environment_delay_ticks_at_least_two(self):
        env = MovingSourceEnvironment()
        assert all(
            env.delay_ticks(k, 0, 1) >= 2 for k in range(1, 30)
        )


def assert_sparse_plan(plan, timely, senders, receivers):
    """The link-plan contract: ``plan`` answers only senders, each
    answered row is exactly the per-link answers ``timely(sender,
    receiver)`` (self-links ``False``), and each sender left out has no
    timely link at all."""
    assert set(plan) <= set(senders)
    for sender in senders:
        expected = [
            receiver != sender and timely(sender, receiver) for receiver in receivers
        ]
        if sender in plan:
            assert plan[sender] == expected, sender
        else:
            assert not any(expected), sender


class TestVectorizedLinkPolicies:
    """``timely_block`` answers what per-link calls would, sparsely."""

    SENDERS = [0, 2]
    RECEIVERS = [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "policy",
        [SilentLinks(), AllTimelyLinks(), BernoulliLinks(0.4, seed=9)],
        ids=["silent", "all-timely", "bernoulli"],
    )
    def test_block_matches_scalar(self, policy):
        for round_no in range(1, 12):
            plan = policy.timely_block(round_no, self.SENDERS, self.RECEIVERS)
            assert_sparse_plan(
                plan,
                lambda sender, receiver: policy.timely(round_no, sender, receiver),
                self.SENDERS,
                self.RECEIVERS,
            )
            if isinstance(policy, SilentLinks):
                assert plan == {}

    def test_default_block_falls_back_to_scalar(self):
        from repro.giraf.environments import LinkPolicy

        class EveryThirdRound(LinkPolicy):
            def timely(self, round_no, sender, receiver):
                return round_no % 3 == 0

        policy = EveryThirdRound()
        assert policy.timely_block(3, [0], [0, 1, 2]) == {0: [False, True, True]}
        assert policy.timely_block(2, [0], [1]) == {0: [False]}

    def test_environment_plan_round_links_diagonal_is_false(self):
        env = MovingSourceEnvironment(link_policy=AllTimelyLinks())
        rows = env.plan_round_links(1, [0, 1], [0, 1, 2])
        assert rows[0] == [False, True, True]
        assert rows[1] == [True, False, True]


class RareLinks(MovingSourceEnvironment):
    """Answers its own ``extra_timely``: a link is timely when the
    round, sender and receiver sum to a multiple of 5, so most senders
    of a round have none."""

    def extra_timely(self, round_no, sender, receiver):
        return (round_no + sender + receiver) % 5 == 0


class TestSparseLinkPlans:
    """``plan_round_links`` keeps the link-plan contract for every stock
    policy and for an environment answering links itself, over rounds,
    sender sets and receiver orders."""

    SHAPES = [
        ([0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5]),
        ([1, 4], [0, 2, 3, 4, 5]),
        ([3], [3]),
        ([0, 2, 5], []),
    ]

    @pytest.mark.parametrize(
        "environment",
        [
            MovingSourceEnvironment(link_policy=SilentLinks()),
            MovingSourceEnvironment(link_policy=AllTimelyLinks()),
            MovingSourceEnvironment(link_policy=BernoulliLinks(0.3, seed=4)),
            MovingSourceEnvironment(link_policy=BernoulliLinks(0.0, seed=4)),
            RareLinks(),
        ],
        ids=["silent", "all-timely", "bernoulli", "bernoulli-never", "extra-timely"],
    )
    def test_rows_match_extra_timely(self, environment):
        for round_no in range(1, 9):
            for senders, receivers in self.SHAPES:
                assert_sparse_plan(
                    environment.plan_round_links(round_no, senders, receivers),
                    lambda sender, receiver: environment.extra_timely(
                        round_no, sender, receiver
                    ),
                    senders,
                    receivers,
                )

    def test_silent_plan_is_empty(self):
        environment = MovingSourceEnvironment(link_policy=SilentLinks())
        assert environment.plan_round_links(3, [0, 1, 2], [0, 1, 2]) == {}

    def test_extra_timely_override_is_honoured(self):
        """An environment answering its own links is planned link by
        link, whatever its link policy says."""
        environment = RareLinks(link_policy=SilentLinks())
        plan = environment.plan_round_links(1, [0, 1, 2], [0, 1, 2, 3, 4])
        assert plan[0] == [False, False, False, False, True]
        assert plan[1] == [False, False, False, True, False]


class TestVectorizedDelayRows:
    """Environment.delay_ticks_row == per-link delay_ticks, always."""

    def test_row_matches_scalar_for_stock_environments(self):
        from repro.giraf.adversary import UniformDelay

        env = MovingSourceEnvironment(delay_policy=UniformDelay(2, 9, seed=5))
        for round_no in range(1, 10):
            row = env.delay_ticks_row(round_no, 1, [0, 2, 3])
            assert row == [env.delay_ticks(round_no, 1, r) for r in (0, 2, 3)]

    def test_overriding_delay_ticks_routes_through_fallback(self):
        class StretchedDelays(MovingSourceEnvironment):
            def delay_ticks(self, round_no, sender, receiver):
                return 2 + (round_no + sender + receiver) % 4

        env = StretchedDelays()
        row = env.delay_ticks_row(3, 1, [0, 2, 4])
        assert row == [env.delay_ticks(3, 1, r) for r in (0, 2, 4)]

    def test_late_latencies_match_scalar_paths(self):
        env = MovingSourceEnvironment()
        row = env.late_latencies(2, 0, [1, 2, 3])
        assert row == [env.late_latency(2, 0, r) for r in (1, 2, 3)]

        class SlowEnv(MovingSourceEnvironment):
            def late_latency(self, round_no, sender, receiver):
                return 100.0 + receiver

        slow = SlowEnv()
        assert slow.late_latencies(2, 0, [1, 2]) == [101.0, 102.0]


class TestRowPathEndToEnd:
    """A custom scalar-only delay policy (fallback path) must produce
    byte-identical lock-step traces to the stock vectorized policy it
    mimics — proving the scheduler's row-wise late path equals the
    historical per-link path."""

    def test_fallback_and_vectorized_policies_trace_identically(self):
        from repro.core.es_consensus import ESConsensus
        from repro.giraf.adversary import DelayPolicy, UniformDelay
        from repro.giraf.scheduler import LockStepScheduler
        from repro.serialization import trace_to_json

        class ScalarOnlyUniform(DelayPolicy):
            """Same draws as UniformDelay, but no delay_row override —
            forces the scheduler through DelayPolicy's scalar fallback."""

            def __init__(self):
                self._inner = UniformDelay(2, 6, seed=11)

            def delay(self, round_no, sender, receiver):
                return self._inner.delay(round_no, sender, receiver)

        def run(policy):
            scheduler = LockStepScheduler(
                [ESConsensus(v) for v in range(6)],
                EventualSynchronyEnvironment(gst=4, delay_policy=policy),
                max_rounds=30,
            )
            return trace_to_json(scheduler.run())

        assert run(UniformDelay(2, 6, seed=11)) == run(ScalarOnlyUniform())

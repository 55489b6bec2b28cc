"""Tests for Algorithm 3 (ESS consensus) and its ablation variants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkers import check_consensus
from repro.core.ess_consensus import ESSConsensus, EssMessage
from repro.core.counters import FrozenCounters
from repro.giraf.adversary import CrashSchedule, RandomSource
from repro.giraf.blockade import BlockadeEnvironment
from repro.giraf.environments import (
    BernoulliLinks,
    EventuallyStableSourceEnvironment,
)
from repro.giraf.scheduler import LockStepScheduler
from repro.sim.runner import run_ess_consensus, stop_when_all_correct_decided
from repro.values import BOTTOM


class TestMessage:
    def test_frozen_and_mergeable(self):
        a = EssMessage(frozenset({1}), (1,), FrozenCounters.EMPTY)
        b = EssMessage(frozenset({1}), (1,), FrozenCounters.EMPTY)
        assert a == b
        assert len({a, b}) == 1  # anonymity: identical messages merge

    def test_atoms_counts_structure(self):
        message = EssMessage(
            frozenset({1, 2}), (1, 2, 3), FrozenCounters({(1,): 4})
        )
        assert message.atoms() == 2 + 3 + 2


class TestRuns:
    def test_decides_under_immediate_stability(self):
        result = run_ess_consensus([3, 1, 4], stabilization_round=1, seed=0)
        assert result.report.ok

    def test_single_process(self):
        result = run_ess_consensus([42], stabilization_round=1)
        assert result.report.ok
        assert result.trace.decided_values() == frozenset({42})

    def test_identical_proposals_decide(self):
        # all processes indistinguishable forever — the anonymity limit case
        result = run_ess_consensus([7] * 6, stabilization_round=3, seed=4)
        assert result.report.ok
        assert result.trace.decided_values() == frozenset({7})

    def test_bottom_never_decided(self):
        for seed in range(5):
            result = run_ess_consensus(
                [1, 2, 3, 4], stabilization_round=6, seed=seed, max_rounds=200
            )
            assert result.report.ok
            assert BOTTOM not in result.trace.decided_values()

    def test_tolerates_crashes_with_protected_source(self):
        crashes = CrashSchedule.fraction(6, 0.5, seed=2, protect={1}, latest_round=8)
        result = run_ess_consensus(
            [4, 9, 2, 7, 5, 1],
            stabilization_round=8,
            preferred_source=1,
            seed=2,
            crash_schedule=crashes,
            max_rounds=250,
        )
        assert result.report.ok

    def test_latency_tracks_stabilization_under_blockade(self):
        previous = 0
        for stab in (2, 8, 16):
            env = BlockadeEnvironment(stab, mode="ess", preferred_source=0)
            env.bind_universe(6)
            scheduler = LockStepScheduler(
                [ESSConsensus(v) for v in [6, 1, 2, 3, 4, 5]],
                env,
                max_rounds=stab + 120,
                stop_when=stop_when_all_correct_decided,
            )
            trace = scheduler.run()
            report = check_consensus(trace)
            assert report.ok
            assert trace.last_decision_round() >= previous
            previous = trace.last_decision_round()

    @settings(max_examples=20, deadline=None)
    @given(
        proposals=st.lists(st.integers(0, 9), min_size=2, max_size=6),
        seed=st.integers(0, 10_000),
        stab=st.integers(1, 16),
    )
    def test_safety_and_termination_random_adversaries(self, proposals, seed, stab):
        """Theorem 2 as a property: any seeded ESS adversary is survived."""
        env = EventuallyStableSourceEnvironment(
            stabilization_round=stab,
            preferred_source=0,
            source_schedule=RandomSource(seed),
            link_policy=BernoulliLinks(0.4, seed=seed + 1),
        )
        crashes = CrashSchedule.fraction(
            len(proposals), 0.4, seed=seed, latest_round=stab + 2, protect={0}
        )
        scheduler = LockStepScheduler(
            [ESSConsensus(v) for v in proposals],
            env,
            crashes,
            max_rounds=stab + 150,
            stop_when=stop_when_all_correct_decided,
        )
        report = check_consensus(scheduler.run())
        assert report.ok

    def test_drifting_scheduler_agrees(self):
        result = run_ess_consensus(
            [5, 2, 8, 1], stabilization_round=5, seed=3,
            scheduler="drifting", max_rounds=150,
        )
        assert result.report.ok


class TestAblationVariants:
    def test_silent_non_leaders_alone_stays_safe(self):
        # proposing ∅ instead of ⊥ without the intersection 'optimization'
        # is behaviourally safe (the intersection annihilates as before)
        for seed in range(4):
            result = run_ess_consensus(
                [1, 2, 3, 4, 5],
                stabilization_round=10,
                seed=seed,
                silent_non_leaders=True,
                max_rounds=250,
            )
            assert result.report.safe

    def test_pinned_a3_agreement_violation(self):
        """Regression: the seed the A3 search found keeps violating."""
        seed = 70
        env = EventuallyStableSourceEnvironment(
            stabilization_round=30,
            preferred_source=0,
            source_schedule=RandomSource(seed),
            link_policy=BernoulliLinks(0.5, seed=seed + 2000),
        )
        crashes = CrashSchedule.fraction(6, 0.3, seed=seed, latest_round=25)
        scheduler = LockStepScheduler(
            [
                ESSConsensus(
                    v, silent_non_leaders=True, ignore_empty_in_intersection=True
                )
                for v in [1, 2, 3, 4, 5, 6]
            ],
            env,
            crashes,
            max_rounds=120,
            stop_when=stop_when_all_correct_decided,
        )
        report = check_consensus(scheduler.run())
        assert not report.agreement

    def test_faithful_survives_the_same_schedule(self):
        seed = 70
        env = EventuallyStableSourceEnvironment(
            stabilization_round=30,
            preferred_source=0,
            source_schedule=RandomSource(seed),
            link_policy=BernoulliLinks(0.5, seed=seed + 2000),
        )
        crashes = CrashSchedule.fraction(6, 0.3, seed=seed, latest_round=25)
        scheduler = LockStepScheduler(
            [ESSConsensus(v) for v in [1, 2, 3, 4, 5, 6]],
            env,
            crashes,
            max_rounds=120,
            stop_when=stop_when_all_correct_decided,
        )
        report = check_consensus(scheduler.run())
        assert report.safe

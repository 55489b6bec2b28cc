"""Pinned adversarial schedules from the ablation searches (A2/A3).

Each seed below was found by the seeded searches in
``repro.experiments.ablations``; these tests freeze them as
regressions: the broken variants must keep violating agreement on
these schedules, and the faithful algorithms must keep surviving them.
"""

import pytest

from repro.core.checkers import check_consensus
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.giraf.adversary import CrashSchedule, RandomSource
from repro.giraf.environments import (
    BernoulliLinks,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
)
from repro.giraf.scheduler import LockStepScheduler
from repro.sim.runner import stop_when_all_correct_decided

A2_VIOLATING_SEEDS = [1, 17, 24]
A3_VIOLATING_SEEDS = [70, 129, 293]


def run_es_variant(seed, **kwargs):
    env = EventualSynchronyEnvironment(
        gst=25,
        source_schedule=RandomSource(seed),
        link_policy=BernoulliLinks(0.5, seed=seed + 1000),
    )
    crashes = CrashSchedule.fraction(5, 0.4, seed=seed, latest_round=20)
    scheduler = LockStepScheduler(
        [ESConsensus(v, **kwargs) for v in [1, 2, 3, 4, 5]],
        env,
        crashes,
        max_rounds=80,
        stop_when=stop_when_all_correct_decided,
    )
    return check_consensus(scheduler.run())


def run_ess_variant(seed, **kwargs):
    env = EventuallyStableSourceEnvironment(
        stabilization_round=30,
        preferred_source=0,
        source_schedule=RandomSource(seed),
        link_policy=BernoulliLinks(0.5, seed=seed + 2000),
    )
    crashes = CrashSchedule.fraction(6, 0.3, seed=seed, latest_round=25)
    scheduler = LockStepScheduler(
        [ESSConsensus(v, **kwargs) for v in [1, 2, 3, 4, 5, 6]],
        env,
        crashes,
        max_rounds=120,
        stop_when=stop_when_all_correct_decided,
    )
    return check_consensus(scheduler.run())


class TestA2EvenOddPhasing:
    @pytest.mark.parametrize("seed", A2_VIOLATING_SEEDS)
    def test_no_parity_variant_violates_agreement(self, seed):
        report = run_es_variant(seed, decide_every_round=True)
        assert not report.agreement

    @pytest.mark.parametrize("seed", A2_VIOLATING_SEEDS)
    def test_faithful_algorithm_survives_the_same_schedule(self, seed):
        report = run_es_variant(seed)
        assert report.safe


class TestA3BottomProposals:
    @pytest.mark.parametrize("seed", A3_VIOLATING_SEEDS)
    def test_silent_plus_ignore_empty_violates_agreement(self, seed):
        report = run_ess_variant(
            seed, silent_non_leaders=True, ignore_empty_in_intersection=True
        )
        assert not report.agreement

    @pytest.mark.parametrize("seed", A3_VIOLATING_SEEDS)
    def test_faithful_algorithm_survives_the_same_schedule(self, seed):
        report = run_ess_variant(seed)
        assert report.safe

"""Ablation experiments A1–A3: which design choices are load-bearing.

* **A1** — prefix inheritance (Algorithm 3 line 9).  Without it every
  counter freezes at 1 and everyone stays a self-considered leader;
  the ⊥-quenching never engages.  Measured: leadership convergence
  (never happens), termination rate and latency under hostile link
  policies.
* **A2** — the even/odd phasing of Algorithm 2.  A variant that runs
  the decide check every round loses agreement on concrete schedules —
  the search over seeded adversaries exhibits the violations (pinned
  seeds from the search are also regression tests).
* **A3** — ⊥ proposals (Algorithm 3 lines 17–18).  Silent non-leaders
  plus the intersection "optimization" silence invites break the
  written-value certification; the search exhibits agreement
  violations.
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.stats import mean_or_none
from repro.analysis.tables import Table
from repro.baselines.naive_anonymous import (
    DivergencePollutionLinks,
    NaiveAnonymousConsensus,
)
from repro.core.es_consensus import ESConsensus
from repro.core.ess_consensus import ESSConsensus
from repro.experiments.common import sample_consensus
from repro.giraf.adversary import CrashSchedule, RandomSource
from repro.giraf.environments import (
    BernoulliLinks,
    EventualSynchronyEnvironment,
    EventuallyStableSourceEnvironment,
)
from repro.sim.workloads import distinct_proposals

__all__ = ["run_a1", "run_a2", "run_a3"]


def run_a1(quick: bool = True, seed: int = 0) -> Table:
    """A1: Algorithm 3 vs the no-prefix-inheritance variant."""
    n = 5 if quick else 8
    stab = 8
    seeds = range(seed, seed + (6 if quick else 30))

    table = Table(
        experiment_id="A1",
        title="Ablation A1: prefix inheritance in the history counters",
        headers=[
            "variant", "links", "term-rate", "rounds", "leaders-at-end",
        ],
        notes=[
            "'leaders-at-end' counts processes that still consider "
            "themselves leaders in their last recorded round — the naive "
            "variant never de-elects anyone (counters freeze at 1)",
        ],
    )

    def leaders_at_end(trace) -> Optional[float]:
        series = trace.snapshot_series("leader")
        if not series:
            return None
        total = 0
        for points in series.values():
            if points and points[-1][1]:
                total += 1
        return float(total)

    for variant_label, factory in [
        ("Algorithm 3", lambda v: ESSConsensus(v)),
        ("naive (no inheritance)", lambda v: NaiveAnonymousConsensus(v)),
    ]:
        for links_label, make_links in [
            ("bernoulli(0.5)", lambda s: BernoulliLinks(0.5, seed=s)),
            ("pollution", lambda s: DivergencePollutionLinks()),
        ]:
            terminated: List[bool] = []
            rounds: List[Optional[int]] = []
            leaders: List[Optional[float]] = []
            for run_seed in seeds:
                env = EventuallyStableSourceEnvironment(
                    stabilization_round=stab,
                    preferred_source=0,
                    source_schedule=RandomSource(run_seed),
                    link_policy=make_links(run_seed),
                )
                sample = sample_consensus(
                    factory,
                    distinct_proposals(n),
                    env,
                    crash_schedule=CrashSchedule.none(),
                    max_rounds=stab + 120,
                    record_snapshots=True,
                    bind_link_policy=True,
                )
                terminated.append(sample.terminated)
                rounds.append(sample.last_decision_round if sample.terminated else None)
                leaders.append(leaders_at_end(sample.trace))
            table.add_row(
                variant_label,
                links_label,
                sum(terminated) / len(terminated),
                mean_or_none(rounds),
                mean_or_none(leaders),
            )
    return table


def run_a2(quick: bool = True, seed: int = 0) -> Table:
    """A2: Algorithm 2's even/odd phasing under adversarial schedules."""
    n = 5
    tries = 60 if quick else 300

    table = Table(
        experiment_id="A2",
        title="Ablation A2: Algorithm 2 decide-phasing, agreement search",
        headers=["variant", "seeds-tried", "agreement-violations", "first-seed"],
        notes=[
            "the faithful algorithm survives every adversarial schedule; "
            "checking decide in every round (no parity) loses agreement",
            "pinned violating seeds double as regression tests",
        ],
    )
    for label, kwargs in [
        ("faithful", {}),
        ("decide-every-round", {"decide_every_round": True}),
        ("no-WRITTENOLD lookback", {"require_written_old": False}),
    ]:
        violations = 0
        first: Optional[int] = None
        for run_seed in range(seed, seed + tries):
            env = EventualSynchronyEnvironment(
                gst=25,
                source_schedule=RandomSource(run_seed),
                link_policy=BernoulliLinks(0.5, seed=run_seed + 1000),
            )
            crashes = CrashSchedule.fraction(n, 0.4, seed=run_seed, latest_round=20)
            sample = sample_consensus(
                lambda value: ESConsensus(value, **kwargs),
                distinct_proposals(n, base=1),
                env,
                crash_schedule=crashes,
                max_rounds=80,
            )
            if not sample.safe:
                violations += 1
                if first is None:
                    first = run_seed
        table.add_row(label, tries, violations, first)
    return table


def run_a3(quick: bool = True, seed: int = 0) -> Table:
    """A3: ⊥ proposals vs silence + the intersection 'optimization'."""
    n = 6
    tries = 120 if quick else 400

    table = Table(
        experiment_id="A3",
        title="Ablation A3: ⊥ proposals by non-leaders, agreement search",
        headers=["variant", "seeds-tried", "agreement-violations", "first-seed"],
        notes=[
            "silent non-leaders + ignoring empty proposals in the "
            "intersection break the written-value certification "
            "(Section 4.1's warning); the faithful algorithm survives",
        ],
    )
    for label, kwargs in [
        ("faithful (⊥)", {}),
        (
            "silent + ignore-empty",
            {"silent_non_leaders": True, "ignore_empty_in_intersection": True},
        ),
    ]:
        violations = 0
        first: Optional[int] = None
        for run_seed in range(seed, seed + tries):
            env = EventuallyStableSourceEnvironment(
                stabilization_round=30,
                preferred_source=0,
                source_schedule=RandomSource(run_seed),
                link_policy=BernoulliLinks(0.5, seed=run_seed + 2000),
            )
            crashes = CrashSchedule.fraction(n, 0.3, seed=run_seed, latest_round=25)
            sample = sample_consensus(
                lambda value: ESSConsensus(value, **kwargs),
                distinct_proposals(n, base=1),
                env,
                crash_schedule=crashes,
                max_rounds=120,
            )
            if not sample.safe:
                violations += 1
                if first is None:
                    first = run_seed
        table.add_row(label, tries, violations, first)
    return table

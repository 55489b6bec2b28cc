"""Workload generation: proposal distributions, crash and churn patterns.

The paper's motivating setting is a wireless sensor network of
anonymous nodes trying to agree on a value (a reading, a configuration
epoch, …).  The generators here produce the proposal vectors the
experiment suite sweeps over; crash patterns live in
:class:`~repro.giraf.adversary.CrashSchedule` and are composed by the
runner.

:class:`ChurnEnvironments` is the churn/throughput workload's
environment factory: one seeded MS environment per weak-set shard,
with the per-round *source movement* pattern — how violently the
source churns between processes — selected by name.  It is a plain
picklable callable so the multiprocess shard backend can rebuild the
same environments inside worker processes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Hashable, List, Sequence

from repro._rng import derive_randint
from repro.giraf.adversary import (
    FixedSource,
    FlappingSource,
    RandomSource,
    RoundRobinSource,
    SourceSchedule,
    UniformDelay,
)
from repro.giraf.environments import Environment, MovingSourceEnvironment

__all__ = [
    "distinct_proposals",
    "binary_proposals",
    "identical_proposals",
    "clustered_proposals",
    "sensor_readings",
    "ChurnEnvironments",
    "CHURN_PATTERNS",
    "recovery_fault_plan",
]


def distinct_proposals(n: int, *, base: int = 0) -> List[int]:
    """Every process proposes a different value — the hardest case for
    agreement (maximal initial disagreement)."""
    return [base + pid for pid in range(n)]


def binary_proposals(n: int, *, ones: int, seed: int = 0) -> List[int]:
    """``ones`` processes propose 1, the rest 0, shuffled by ``seed``."""
    if not 0 <= ones <= n:
        raise ValueError("ones must be in [0, n]")
    values = [1] * ones + [0] * (n - ones)
    random.Random(seed).shuffle(values)
    return values


def identical_proposals(n: int, value: Hashable = 7) -> List[Hashable]:
    """Everyone proposes the same value.

    The anonymity stress case: all processes are indistinguishable
    forever, every message merges, and the algorithms must still decide
    (they do — identical behaviour is exactly what the pseudo leader
    election tolerates).
    """
    return [value] * n


def clustered_proposals(n: int, clusters: int, *, seed: int = 0) -> List[int]:
    """Proposals drawn from ``clusters`` distinct values."""
    if clusters < 1:
        raise ValueError("clusters must be >= 1")
    rng = random.Random(seed)
    return [rng.randrange(clusters) for _ in range(n)]


def sensor_readings(n: int, *, lo: int = 180, hi: int = 240, seed: int = 0) -> List[int]:
    """Integer 'temperature' readings — the sensor-fusion example."""
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for _ in range(n)]


def spread(values: Sequence[Hashable]) -> int:
    """Number of distinct proposals (a difficulty proxy for tables)."""
    return len(set(values))


# ----------------------------------------------------------------------
# churn: source-movement patterns for the sharded weak-set workload
# ----------------------------------------------------------------------
def _random_source(seed: int) -> SourceSchedule:
    return RandomSource(seed)


def _round_robin_source(seed: int) -> SourceSchedule:
    return RoundRobinSource()


def _flapping_source(seed: int) -> SourceSchedule:
    return FlappingSource(1)


def _fixed_source(seed: int) -> SourceSchedule:
    return FixedSource(0)


#: churn pattern name -> seeded source-schedule factory.  ``"random"``
#: is uniform per-round churn, ``"round-robin"`` cycles deterministically,
#: ``"flapping"`` oscillates between the extreme candidates every round
#: (the worst-case movement separating MS from ESS), ``"fixed"`` pins
#: the source (no churn — the throughput best case).
CHURN_PATTERNS = {
    "random": _random_source,
    "round-robin": _round_robin_source,
    "flapping": _flapping_source,
    "fixed": _fixed_source,
}


@dataclass(frozen=True)
class ChurnEnvironments:
    """Per-shard MS environment factory for the churn workload.

    Calling the instance with a shard index returns that shard's
    environment: a :class:`~repro.giraf.environments.MovingSourceEnvironment`
    whose source schedule follows ``pattern`` and whose delay policy is
    seeded per shard — every stream derives from ``(seed, shard_index)``
    through the keyed stream, so the same factory builds bit-identical
    environments in any process (what the multiprocess shard backend
    relies on).

    Args:
        pattern: one of :data:`CHURN_PATTERNS`
            (``random``/``round-robin``/``flapping``/``fixed``).
        seed: base seed; shards derive their own streams from it.

    Example:
        >>> factory = ChurnEnvironments(pattern="round-robin", seed=3)
        >>> factory(0).name
        'MS'
        >>> factory(1).source_schedule.pick(5, [0, 1, 2])
        2
    """

    pattern: str = "random"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in CHURN_PATTERNS:
            known = ", ".join(sorted(CHURN_PATTERNS))
            raise ValueError(f"unknown churn pattern {self.pattern!r}; known: {known}")

    def __call__(self, shard_index: int) -> Environment:
        shard_seed = derive_randint(
            0, 2**31 - 1, "churn-env", self.seed, shard_index
        )
        return MovingSourceEnvironment(
            source_schedule=CHURN_PATTERNS[self.pattern](shard_seed),
            delay_policy=UniformDelay(2, 5, seed=shard_seed + 1),
        )


def recovery_fault_plan(
    shards: int,
    crash_fraction: float,
    *,
    seed: int = 0,
    window: "tuple[int, int]" = (2, 12),
):
    """The C4 experiment's chaos schedule: seeded worker kills.

    A thin workload-side name for
    :meth:`repro.weakset.faults.FaultPlan.kill_fraction` — a seeded
    ``crash_fraction`` of the shard *workers* (the infrastructure, not
    the simulated processes) is killed at exchanges drawn from
    ``window``.  The ``(shards, crash_fraction, seed)`` triple fully
    determines the plan, so the grid cell names one reproducible chaos
    run.
    """
    from repro.weakset.faults import FaultPlan

    return FaultPlan.kill_fraction(
        shards, crash_fraction, seed=seed, window=window
    )

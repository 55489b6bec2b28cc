"""Adversarial control: crash schedules and source-movement strategies.

The paper's environments constrain *which* links must be timely; within
those constraints an adversary is free to crash any number of processes
and to move the source arbitrarily.  This module provides:

* :class:`CrashSchedule` — when each faulty process crashes, and
  whether it crashes before or after its round's broadcast (reliable
  broadcast is all-or-nothing, so "during" is not a case);
* :class:`SourceSchedule` strategies — how the per-round source moves
  in the MS phase (round-robin, seeded-random, flapping, fixed);
* :class:`DelayPolicy` strategies — how late non-timely messages are.

Everything is deterministic given its seed, which is what makes
hypothesis-driven exploration and the benchmark harness reproducible.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Sequence

from repro._rng import (
    derive_randint,
    derive_randint_matrix,
    derive_randint_row,
    derive_randrange,
)
from repro.errors import ProtocolMisuse

__all__ = [
    "CrashPlan",
    "CrashSchedule",
    "SourceSchedule",
    "RoundRobinSource",
    "RandomSource",
    "FlappingSource",
    "FixedSource",
    "DelayPolicy",
    "UniformDelay",
    "ConstantDelay",
    "NEVER_DELIVERED",
]

#: Sentinel delay meaning "not delivered within any finite horizon we
#: simulate".  Reliability only requires *eventual* delivery, which a
#: finite run prefix can never refute; algorithms that genuinely need a
#: late message (Algorithm 4) should be run with finite delays.
NEVER_DELIVERED = 10**9


@dataclass(frozen=True)
class CrashPlan:
    """Crash of one process: at its ``round``-th end-of-round.

    ``before_send=True`` means the process never fires that
    end-of-round (nothing broadcast); ``False`` means it broadcasts for
    that round and crashes immediately after (the broadcast is still
    reliably delivered).
    """

    round_no: int
    before_send: bool = True

    def __post_init__(self) -> None:
        if self.round_no < 1:
            raise ValueError("crash round must be >= 1")


class CrashSchedule:
    """Immutable map from pid to :class:`CrashPlan`.

    Processes without an entry are *correct* (they never crash).  Any
    number of processes may crash — the paper's algorithms tolerate
    ``n - 1`` failures — but at least one process must remain correct
    for the environments to be satisfiable.
    """

    def __init__(self, plans: Optional[Mapping[int, CrashPlan]] = None):
        self._plans: Dict[int, CrashPlan] = dict(plans or {})

    @staticmethod
    def none() -> "CrashSchedule":
        """The failure-free schedule."""
        return CrashSchedule({})

    @staticmethod
    def fraction(
        n: int,
        fraction: float,
        *,
        seed: int = 0,
        earliest_round: int = 1,
        latest_round: int = 10,
        protect: Iterable[int] = (),
    ) -> "CrashSchedule":
        """Crash ``floor(fraction * n)`` random processes.

        Crash rounds are drawn uniformly from
        ``[earliest_round, latest_round]``; ``protect`` lists pids that
        must stay correct (e.g. a designated eventual source).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        rng = random.Random(seed)
        protected = set(protect)
        candidates = [pid for pid in range(n) if pid not in protected]
        count = min(int(fraction * n), len(candidates))
        if count >= n:
            count = n - 1  # keep at least one correct process
        victims = rng.sample(candidates, count) if count else []
        plans = {
            pid: CrashPlan(rng.randint(earliest_round, latest_round), rng.random() < 0.5)
            for pid in victims
        }
        return CrashSchedule(plans)

    @staticmethod
    def all_but_one(
        n: int,
        survivor: int = 0,
        *,
        earliest_round: int = 1,
        latest_round: int = 10,
        seed: int = 0,
    ) -> "CrashSchedule":
        """The harshest schedule: everyone but ``survivor`` crashes."""
        rng = random.Random(seed)
        plans = {
            pid: CrashPlan(rng.randint(earliest_round, latest_round), rng.random() < 0.5)
            for pid in range(n)
            if pid != survivor
        }
        return CrashSchedule(plans)

    def plan_for(self, pid: int) -> Optional[CrashPlan]:
        return self._plans.get(pid)

    def plans(self) -> Mapping[int, CrashPlan]:
        """All crash plans, keyed by pid (read-only view).

        Lets the runtime kernel precompute which (round, phase) pairs
        carry crashes at all, so crash-free rounds skip the per-process
        scan entirely.
        """
        from types import MappingProxyType

        return MappingProxyType(self._plans)

    def correct_set(self, n: int) -> FrozenSet[int]:
        return frozenset(pid for pid in range(n) if pid not in self._plans)

    def faulty_set(self, n: int) -> FrozenSet[int]:
        return frozenset(pid for pid in self._plans if pid < n)

    def validate(self, n: int) -> None:
        """Reject schedules that crash everyone or name unknown pids."""
        for pid in self._plans:
            if not 0 <= pid < n:
                raise ProtocolMisuse(f"crash schedule names unknown pid {pid}")
        if len(self._plans) >= n:
            raise ProtocolMisuse("crash schedule leaves no correct process")

    def __len__(self) -> int:
        return len(self._plans)

    def __repr__(self) -> str:
        items = ", ".join(
            f"{pid}@r{plan.round_no}{'–' if plan.before_send else '+'}"
            for pid, plan in sorted(self._plans.items())
        )
        return f"CrashSchedule({items})"


# ----------------------------------------------------------------------
# source movement
# ----------------------------------------------------------------------
class SourceSchedule(ABC):
    """Strategy choosing the round-``k`` source among eligible senders."""

    @abstractmethod
    def pick(self, round_no: int, candidates: Sequence[int]) -> int:
        """Choose the source for ``round_no`` from non-empty ``candidates``.

        ``candidates`` is sorted and non-empty; implementations must be
        deterministic functions of ``(round_no, candidates)`` and their
        own construction-time seed.
        """


class RoundRobinSource(SourceSchedule):
    """The source rotates through the candidate list each round."""

    def pick(self, round_no: int, candidates: Sequence[int]) -> int:
        return candidates[round_no % len(candidates)]


class RandomSource(SourceSchedule):
    """A fresh uniformly random source every round (seeded)."""

    def __init__(self, seed: int = 0):
        self._seed = seed

    def pick(self, round_no: int, candidates: Sequence[int]) -> int:
        index = derive_randrange(len(candidates), "source", self._seed, round_no)
        return candidates[index]


class FlappingSource(SourceSchedule):
    """Alternates between the two extreme candidates every ``period`` rounds.

    A worst-case-flavoured movement pattern: the source oscillates, so
    no process is the source for more than ``period`` consecutive
    rounds — the pattern that separates MS from ESS.
    """

    def __init__(self, period: int = 1):
        if period < 1:
            raise ValueError("period must be >= 1")
        self._period = period

    def pick(self, round_no: int, candidates: Sequence[int]) -> int:
        phase = (round_no // self._period) % 2
        return candidates[0] if phase == 0 else candidates[-1]


class FixedSource(SourceSchedule):
    """Always the same process (falling back when it is ineligible)."""

    def __init__(self, preferred: int):
        self._preferred = preferred

    def pick(self, round_no: int, candidates: Sequence[int]) -> int:
        if self._preferred in candidates:
            return self._preferred
        return candidates[0]


# ----------------------------------------------------------------------
# delays for non-timely deliveries
# ----------------------------------------------------------------------
class DelayPolicy(ABC):
    """How many ticks late a non-timely delivery arrives.

    In the lock-step scheduler a delay of 1 tick still lands in time to
    be read (deliveries flush before computes), so *real* lateness
    requires a delay of at least 2; the shipped policies enforce that
    minimum.  A custom policy may answer 1, but never less: a delivery
    due in a tick already flushed would be lost, so both lock-step
    engines raise :class:`~repro.errors.ProtocolMisuse` instead.
    """

    @abstractmethod
    def delay(self, round_no: int, sender: int, receiver: int) -> int:
        """Extra ticks before the delivery (``>= 2``)."""

    def delay_row(
        self, round_no: int, sender: int, receivers: Sequence[int]
    ) -> list:
        """Vectorized form: one broadcast's late delays in one call.

        Must answer exactly what per-link :meth:`delay` calls would —
        the draws stay *keyed* per link (that is what keeps either path
        byte-identical, equivalence-tested in ``tests/giraf``).  A row
        collapses the per-link environment→policy call chain into one
        call and lets the RNG batch too: :class:`UniformDelay` keys its
        draws by ``(round, sender)`` with the receiver as the stream
        counter, so :func:`~repro._rng.derive_randint_row` squeezes one
        SHAKE-128 block per 64 receivers.  The default falls back to
        the scalar method so custom policies stay correct with no extra
        work.

        Args:
            round_no: the round of the broadcast.
            sender: the broadcasting pid.
            receivers: the late targets, in row order.

        Returns:
            One delay (ticks, ``>= 2``) per receiver.
        """
        return [self.delay(round_no, sender, receiver) for receiver in receivers]

    def delay_matrix(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int], late
    ):
        """Matrix form: a whole round's late delays in one call.

        The lock-step matrix engine's late path.  ``late`` is a numpy
        boolean array of shape ``(len(senders), len(receivers))``
        marking the late links; the answer is an ``int64`` array of the
        same shape holding, on every late link, exactly what
        :meth:`delay` would for ``(round_no, senders[i], receivers[j])``,
        and 0 everywhere else.  The default asks :meth:`delay_row` for
        each sender's late receivers only, so a custom policy sees the
        same questions the object engine asks; :class:`UniformDelay`
        answers with one :func:`~repro._rng.derive_randint_matrix`
        draw.

        Args:
            round_no: the round of the broadcasts.
            senders: the broadcasting pids, in row order.
            receivers: the receiving pids, in column order.
            late: which links are late.

        Returns:
            The delays (ticks), 0 off the late links.
        """
        return _matrix_from_rows(self.delay_row, round_no, senders, receivers, late)

    def delay_bounds(self) -> Optional[tuple]:
        """The ``(lo, hi)`` tick range this policy draws from, if known.

        Consumed by the runtime kernel's calendar event queue to pick
        its bucket width (a wide late window widens the buckets).
        Policies with no meaningful bound return ``None`` — the kernel
        then uses the 1-tick default.
        """
        return None


class UniformDelay(DelayPolicy):
    """Uniform delay in ``[lo, hi]`` ticks, seeded and per-link."""

    def __init__(self, lo: int = 2, hi: int = 6, seed: int = 0):
        if lo < 2:
            raise ValueError("lo must be >= 2 (1-tick delays are still timely)")
        if hi < lo:
            raise ValueError("hi must be >= lo")
        self._lo = lo
        self._hi = hi
        self._seed = seed

    def delay(self, round_no: int, sender: int, receiver: int) -> int:
        return derive_randint(
            self._lo, self._hi, "delay", self._seed, round_no, sender, receiver
        )

    def delay_row(
        self, round_no: int, sender: int, receivers: Sequence[int]
    ) -> list:
        return derive_randint_row(
            self._lo, self._hi, ("delay", self._seed, round_no, sender), receivers
        )

    def delay_matrix(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int], late
    ):
        prefixes = [("delay", self._seed, round_no, sender) for sender in senders]
        delays = derive_randint_matrix(self._lo, self._hi, prefixes, receivers)
        delays[~late] = 0
        return delays

    def delay_bounds(self) -> tuple:
        return (self._lo, self._hi)


class ConstantDelay(DelayPolicy):
    """Every late message is exactly ``ticks`` late.

    ``ConstantDelay(NEVER_DELIVERED)`` models messages that do not
    arrive within the simulated horizon.
    """

    def __init__(self, ticks: int):
        if ticks < 2:
            raise ValueError("ticks must be >= 2")
        self._ticks = ticks

    def delay(self, round_no: int, sender: int, receiver: int) -> int:
        return self._ticks

    def delay_row(
        self, round_no: int, sender: int, receivers: Sequence[int]
    ) -> list:
        return [self._ticks] * len(receivers)

    def delay_bounds(self) -> tuple:
        return (self._ticks, self._ticks)


def _matrix_from_rows(
    row, round_no: int, senders: Sequence[int], receivers: Sequence[int], late
):
    """A delay matrix assembled from ``row(round_no, sender, late
    receivers)`` calls, one per sender with a late link: the per-row
    fallback behind :meth:`DelayPolicy.delay_matrix` and
    :meth:`~repro.giraf.environments.Environment.delay_ticks_matrix`."""
    import numpy as np

    delays = np.zeros(late.shape, dtype=np.int64)
    for i, sender in enumerate(senders):
        columns = np.flatnonzero(late[i])
        if columns.size:
            delays[i, columns] = row(
                round_no, sender, [receivers[j] for j in columns.tolist()]
            )
    return delays

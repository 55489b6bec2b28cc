"""The three environments of the paper: MS, ES, and ESS.

Section 2.3 specifies environments as round-based timeliness
properties:

* **MS (moving source):** every round ``k`` has a *source* — a process
  whose round-``k`` message is received by every correct process in
  round ``k``.  The source may change every round.
* **ES (eventual synchrony):** MS, plus a round ``GST`` after which
  *every* correct process has a timely link every round.
* **ESS (eventually stable source):** MS, plus a round after which the
  source is always the *same* process.

These classes are the **constructive** side: given a round and the set
of eligible senders they decide which links must be timely, which extra
links happen to be timely (a seeded link policy — partial synchrony is
allowed to be generous), and how late the remaining deliveries are.
The **checking** side lives in :mod:`repro.giraf.checkers`, which
recomputes everything from delivered-message ground truth and never
trusts these declarations.

A note on halting: the paper's environments are properties of infinite
runs over processes that never stop.  Once a process decides and halts
it stops receiving, so we treat halted processes as outside the
quantification (their rounds are never entered, making the property
vacuous for them), and an ESS environment whose designated stable
source halts re-designates a new stable source among the remaining
active correct processes.  Re-designation happens at most ``n`` times,
so "eventually always the same source" still holds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from repro._rng import derive_uniform, derive_uniform_row
from repro.giraf.adversary import (
    DelayPolicy,
    RandomSource,
    SourceSchedule,
    UniformDelay,
    _matrix_from_rows,
)

__all__ = [
    "Environment",
    "LinkPolicy",
    "SilentLinks",
    "AllTimelyLinks",
    "BernoulliLinks",
    "MovingSourceEnvironment",
    "EventualSynchronyEnvironment",
    "EventuallyStableSourceEnvironment",
    "RoundPlan",
]


# ----------------------------------------------------------------------
# link policies: timeliness of links the environment is not obliged on
# ----------------------------------------------------------------------
class LinkPolicy(ABC):
    """Whether a non-obligatory link happens to be timely in a round."""

    @abstractmethod
    def timely(self, round_no: int, sender: int, receiver: int) -> bool:
        """Deterministic in ``(round_no, sender, receiver)`` and the seed."""

    def timely_block(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> Dict[int, List[bool]]:
        """Vectorized form: one boolean row per sender over ``receivers``.

        Must answer exactly what per-link :meth:`timely` calls would
        (self-links are reported ``False``; schedulers never deliver
        them), except that a sender with no timely link may be left
        out: a plan is sparse, and a missing sender's row reads
        all-false.  The default falls back to the scalar method so
        custom policies stay correct with no extra work; the shipped
        policies override it to answer a whole round without per-link
        dispatch (:class:`SilentLinks` answers ``{}``).

        Args:
            round_no: the round being planned.
            senders: pids broadcasting this round.
            receivers: pids eligible to receive (row order).

        Returns:
            ``{sender: row}`` for some of ``senders``, every sender with
            a timely link among them, with ``row[i]`` the timeliness of
            the link to ``receivers[i]``.

        Example:
            >>> silent = SilentLinks()
            >>> silent.timely_block(3, [0, 1], [0, 1, 2])
            {}
            >>> any(silent.timely(3, s, r) for s in (0, 1) for r in (0, 1, 2))
            False
            >>> AllTimelyLinks().timely_block(3, [0], [0, 1, 2])
            {0: [False, True, True]}
        """
        return {
            sender: [
                receiver != sender and self.timely(round_no, sender, receiver)
                for receiver in receivers
            ]
            for sender in senders
        }


class SilentLinks(LinkPolicy):
    """Nothing beyond the environment's obligations is timely.

    The *stingiest* adversary permitted by the environment — the right
    default for stress-testing liveness.
    """

    def timely(self, round_no: int, sender: int, receiver: int) -> bool:
        return False

    def timely_block(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> Dict[int, List[bool]]:
        return {}


class AllTimelyLinks(LinkPolicy):
    """Every link is timely (a fully synchronous run prefix)."""

    def timely(self, round_no: int, sender: int, receiver: int) -> bool:
        return True

    def timely_block(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> Dict[int, List[bool]]:
        return {
            sender: [receiver != sender for receiver in receivers]
            for sender in senders
        }


class BernoulliLinks(LinkPolicy):
    """Each link is independently timely with probability ``p``."""

    def __init__(self, p: float, seed: int = 0):
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        self._p = p
        self._seed = seed

    def timely(self, round_no: int, sender: int, receiver: int) -> bool:
        return derive_uniform("link", self._seed, round_no, sender, receiver) < self._p

    def timely_block(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> Dict[int, List[bool]]:
        p, seed = self._p, self._seed
        return {
            sender: [
                receiver != sender and draw < p
                for receiver, draw in zip(
                    receivers,
                    derive_uniform_row(("link", seed, round_no, sender), receivers),
                )
            ]
            for sender in senders
        }


@dataclass(frozen=True)
class RoundPlan:
    """The environment's decisions for one round.

    Attributes:
        source: the declared source (for trace debugging; may be
            ``None`` when no sender exists this round).
        obligatory: senders whose round-``k`` message must reach every
            active process timely (the source in MS/ESS; everyone after
            GST in ES).
    """

    source: Optional[int]
    obligatory: FrozenSet[int]


class Environment(ABC):
    """Common machinery for the three environments."""

    #: short name used in tables and traces
    name: str = "abstract"

    def __init__(
        self,
        link_policy: Optional[LinkPolicy] = None,
        delay_policy: Optional[DelayPolicy] = None,
    ):
        self.link_policy = link_policy if link_policy is not None else SilentLinks()
        self.delay_policy = (
            delay_policy if delay_policy is not None else UniformDelay(2, 6)
        )

    # -- obligations ---------------------------------------------------
    @abstractmethod
    def plan_round(
        self, round_no: int, candidates: Sequence[int]
    ) -> RoundPlan:
        """Choose the obligatory timely senders for ``round_no``.

        ``candidates`` is the sorted, non-empty list of processes the
        scheduler deems eligible to be relied upon this round
        (correct, active senders when possible).
        """

    # -- non-obligatory links -------------------------------------------
    def extra_timely(self, round_no: int, sender: int, receiver: int) -> bool:
        """Whether a non-obligatory link happens to be timely."""
        return self.link_policy.timely(round_no, sender, receiver)

    def plan_round_links(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int]
    ) -> Dict[int, List[bool]]:
        """Vectorized timeliness plan: one call per round, not per link.

        Environments that override :meth:`extra_timely` (e.g. the
        blockade adversary) are routed through the per-link fallback
        automatically; stock environments delegate to the link policy's
        :meth:`LinkPolicy.timely_block`, which the shipped policies
        answer without per-link Python dispatch.

        Args:
            round_no: the round being planned.
            senders: pids broadcasting this round.
            receivers: pids eligible to receive (row order).

        Returns:
            ``{sender: row}`` where ``row[i]`` says whether the link to
            ``receivers[i]`` happens to be timely (self-links are
            ``False``).  The plan is sparse: a sender with no timely
            link may be left out, and its row reads all-false.
            Answers are exactly what per-link :meth:`extra_timely`
            calls would produce — equivalence-tested — so schedulers
            may use either path interchangeably.

        Example (the default link policy is the stingy
        :class:`SilentLinks`, so nothing extra is timely and no sender
        is answered):

            >>> env = MovingSourceEnvironment()
            >>> env.plan_round_links(2, [0, 1], [0, 1, 2])
            {}
            >>> any(env.extra_timely(2, s, r) for s in (0, 1) for r in (0, 1, 2))
            False
            >>> env = MovingSourceEnvironment(link_policy=AllTimelyLinks())
            >>> env.plan_round_links(2, [0, 1], [0, 1, 2])
            {0: [False, True, True], 1: [True, False, True]}
        """
        if type(self).extra_timely is not Environment.extra_timely:
            return {
                sender: [
                    receiver != sender
                    and self.extra_timely(round_no, sender, receiver)
                    for receiver in receivers
                ]
                for sender in senders
            }
        return self.link_policy.timely_block(round_no, senders, receivers)

    def delay_ticks(self, round_no: int, sender: int, receiver: int) -> int:
        """Lateness (in ticks) for a delivery that is not timely."""
        return self.delay_policy.delay(round_no, sender, receiver)

    def delay_ticks_row(
        self, round_no: int, sender: int, receivers: Sequence[int]
    ) -> List[int]:
        """Vectorized :meth:`delay_ticks`: one call per late broadcast.

        Environments that override :meth:`delay_ticks` itself are
        routed through the per-link fallback automatically; stock
        environments delegate to the delay policy's
        :meth:`~repro.giraf.adversary.DelayPolicy.delay_row`, so a
        broadcast's late links cost one call through the
        environment/policy layers instead of one per link.  The draws
        stay keyed per link, so the values are exactly what per-link
        :meth:`delay_ticks` calls would produce (equivalence-tested) —
        the lock-step scheduler's late path may use either form, and
        the lock-step matrix engine reads the same values a round at a
        time through :meth:`delay_ticks_matrix`.

        Args:
            round_no: the round of the broadcast.
            sender: the broadcasting pid.
            receivers: the late targets, in row order.

        Returns:
            One delay (ticks) per receiver.

        Example:
            >>> env = MovingSourceEnvironment()
            >>> row = env.delay_ticks_row(3, 0, [1, 2])
            >>> row == [env.delay_ticks(3, 0, r) for r in (1, 2)]
            True
        """
        if type(self).delay_ticks is not Environment.delay_ticks:
            return [
                self.delay_ticks(round_no, sender, receiver)
                for receiver in receivers
            ]
        return self.delay_policy.delay_row(round_no, sender, receivers)

    def delay_ticks_matrix(
        self, round_no: int, senders: Sequence[int], receivers: Sequence[int], late
    ):
        """Matrix :meth:`delay_ticks`: a whole round's late links in one call.

        ``late`` is a numpy boolean array of shape ``(len(senders),
        len(receivers))`` marking the late links; the answer is an
        ``int64`` array of that shape with :meth:`delay_ticks`'s value
        on every late link and 0 elsewhere.  Routed like
        :meth:`delay_ticks_row`: stock environments delegate to the
        delay policy's
        :meth:`~repro.giraf.adversary.DelayPolicy.delay_matrix` (one
        keyed matrix draw for :class:`~repro.giraf.adversary.UniformDelay`),
        while environments that override :meth:`delay_ticks` or
        :meth:`delay_ticks_row` get one :meth:`delay_ticks_row` call per
        sender over its late receivers only — the same questions the
        object engine asks.  numpy is needed only here.

        Example:
            >>> import numpy as np
            >>> env = MovingSourceEnvironment()
            >>> late = np.array([[False, True, True], [True, False, False]])
            >>> matrix = env.delay_ticks_matrix(3, [0, 1], [0, 1, 2], late)
            >>> matrix[0, 1:].tolist() == env.delay_ticks_row(3, 0, [1, 2])
            True
            >>> int(matrix[1, 0]) == env.delay_ticks(3, 1, 0), int(matrix[1, 1])
            (True, 0)
        """
        env_type = type(self)
        if (
            env_type.delay_ticks is Environment.delay_ticks
            and env_type.delay_ticks_row is Environment.delay_ticks_row
        ):
            return self.delay_policy.delay_matrix(round_no, senders, receivers, late)
        return _matrix_from_rows(
            self.delay_ticks_row, round_no, senders, receivers, late
        )

    # -- drifting-scheduler latencies ------------------------------------
    def timely_latency(self, round_no: int, sender: int, receiver: int) -> float:
        """Continuous-time latency for an obligatory (timely) delivery.

        The drifting scheduler additionally gates receivers so these
        always arrive in time; the value only shapes the interleaving.
        """
        return 0.05 + 0.4 * derive_uniform("lat-t", round_no, sender, receiver)

    def late_latency(self, round_no: int, sender: int, receiver: int) -> float:
        """Continuous-time latency for a non-timely delivery."""
        return float(self.delay_ticks(round_no, sender, receiver))

    def timely_latencies(
        self, round_no: int, sender: int, receivers: Sequence[int]
    ) -> List[float]:
        """Vectorized :meth:`timely_latency`: one call per broadcast.

        The default reproduces the scalar draws exactly (latencies are
        keyed per link, not per call), so overriding either form keeps
        the other consistent as long as the override stays per-link
        deterministic.

        Args:
            round_no: the round of the broadcast.
            sender: the broadcasting pid.
            receivers: target pids, in row order.

        Returns:
            One latency per receiver, identical to per-link
            :meth:`timely_latency` calls.

        Example:
            >>> env = MovingSourceEnvironment()
            >>> row = env.timely_latencies(1, 0, [1, 2])
            >>> row == [env.timely_latency(1, 0, r) for r in (1, 2)]
            True
        """
        if type(self).timely_latency is Environment.timely_latency:
            # The stock draw as one keyed row (receivers are the stream
            # counters).  Environments overriding the scalar fall
            # through to it below.
            return [
                0.05 + 0.4 * draw
                for draw in derive_uniform_row(("lat-t", round_no, sender), receivers)
            ]
        return [
            self.timely_latency(round_no, sender, receiver) for receiver in receivers
        ]

    def late_latencies(
        self, round_no: int, sender: int, receivers: Sequence[int]
    ) -> List[float]:
        """Vectorized :meth:`late_latency`: one call per broadcast.

        Args/returns mirror :meth:`timely_latencies`, drawing from the
        delay policy instead of the timely-latency stream.  When
        neither :meth:`late_latency` nor :meth:`delay_ticks` is
        overridden, the whole row comes straight from the delay
        policy's :meth:`~repro.giraf.adversary.DelayPolicy.delay_row`
        (identical values, no per-link dispatch); overriding either
        scalar routes through the per-link fallback automatically.
        """
        if (
            type(self).late_latency is Environment.late_latency
            and type(self).delay_ticks is Environment.delay_ticks
        ):
            return [
                float(delay)
                for delay in self.delay_policy.delay_row(round_no, sender, receivers)
            ]
        return [
            self.late_latency(round_no, sender, receiver) for receiver in receivers
        ]


class MovingSourceEnvironment(Environment):
    """MS: some (possibly different) source every round."""

    name = "MS"

    def __init__(
        self,
        source_schedule: Optional[SourceSchedule] = None,
        link_policy: Optional[LinkPolicy] = None,
        delay_policy: Optional[DelayPolicy] = None,
    ):
        super().__init__(link_policy, delay_policy)
        self.source_schedule = (
            source_schedule if source_schedule is not None else RandomSource()
        )

    def plan_round(self, round_no: int, candidates: Sequence[int]) -> RoundPlan:
        if not candidates:
            return RoundPlan(source=None, obligatory=frozenset())
        source = self.source_schedule.pick(round_no, candidates)
        return RoundPlan(source=source, obligatory=frozenset({source}))


class EventualSynchronyEnvironment(Environment):
    """ES: MS before ``gst``, every link timely from round ``gst`` on."""

    name = "ES"

    def __init__(
        self,
        gst: int = 1,
        source_schedule: Optional[SourceSchedule] = None,
        link_policy: Optional[LinkPolicy] = None,
        delay_policy: Optional[DelayPolicy] = None,
    ):
        if gst < 1:
            raise ValueError("gst must be >= 1")
        super().__init__(link_policy, delay_policy)
        self.gst = gst
        self.source_schedule = (
            source_schedule if source_schedule is not None else RandomSource()
        )

    def plan_round(self, round_no: int, candidates: Sequence[int]) -> RoundPlan:
        if not candidates:
            return RoundPlan(source=None, obligatory=frozenset())
        if round_no >= self.gst:
            return RoundPlan(source=candidates[0], obligatory=frozenset(candidates))
        source = self.source_schedule.pick(round_no, candidates)
        return RoundPlan(source=source, obligatory=frozenset({source}))


class EventuallyStableSourceEnvironment(Environment):
    """ESS: MS before ``stabilization_round``, one fixed source after.

    ``preferred_source`` names the eventual source; the adversary's
    crash schedule must keep it correct (``CrashSchedule.fraction``'s
    ``protect`` argument exists for this).  When the preferred source
    is ineligible in a stable round (it halted after deciding), the
    smallest eligible candidate takes over — see the module docstring
    for why this preserves ESS.
    """

    name = "ESS"

    def __init__(
        self,
        stabilization_round: int = 1,
        preferred_source: int = 0,
        source_schedule: Optional[SourceSchedule] = None,
        link_policy: Optional[LinkPolicy] = None,
        delay_policy: Optional[DelayPolicy] = None,
    ):
        if stabilization_round < 1:
            raise ValueError("stabilization_round must be >= 1")
        super().__init__(link_policy, delay_policy)
        self.stabilization_round = stabilization_round
        self.preferred_source = preferred_source
        self.source_schedule = (
            source_schedule if source_schedule is not None else RandomSource()
        )

    def plan_round(self, round_no: int, candidates: Sequence[int]) -> RoundPlan:
        if not candidates:
            return RoundPlan(source=None, obligatory=frozenset())
        if round_no >= self.stabilization_round:
            if self.preferred_source in candidates:
                source = self.preferred_source
            else:
                source = candidates[0]
            return RoundPlan(source=source, obligatory=frozenset({source}))
        source = self.source_schedule.pick(round_no, candidates)
        return RoundPlan(source=source, obligatory=frozenset({source}))

"""Pseudo leader election — the paper's novel primitive (Section 4).

A true leader election is impossible in an anonymous network: two
processes in identical states are indistinguishable forever.  The
paper's insight is that consensus does not need a *unique* leader, only
that **all processes who consider themselves leaders behave the same
way**.  Processes are identified by the history of their proposal
values; per-history counters with prefix inheritance (see
:mod:`repro.core.counters`) grow by one per round exactly for the
histories of ``⋄-proposers`` (Lemma 4), so eventually the maximal
counter singles out one infinite history — and every process carrying
it proposes identically.

:class:`PseudoLeaderElector` packages the bookkeeping (Algorithm 3
lines 2, 8, 9, 21 and the ``leader(k)`` predicate of Definition 1) as a
standalone, reusable primitive.  :class:`HeartbeatPseudoLeader` wraps
it in a minimal GIRAF algorithm so the convergence lemmas can be
observed in isolation (experiment F3) without the consensus machinery
on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Hashable, Iterable, Mapping, Optional, Tuple

from repro.core.counters import FrozenCounters, apply_round_update
from repro.core.history import History, extend, initial_history
from repro.giraf.automaton import GirafAlgorithm, InboxView

__all__ = ["PseudoLeaderElector", "HeartbeatMessage", "HeartbeatPseudoLeader"]


class PseudoLeaderElector:
    """History + counter bookkeeping for one anonymous process.

    Usage per round, mirroring Algorithm 3:

    1. :meth:`merge_round` with the round's received ``(history,
       counters)`` pairs — lines 8 and 9;
    2. :meth:`is_leader` — the predicate ``∀H, C[HISTORY] ≥ C[H]``
       (Definition 1's ``leader(k)``);
    3. :meth:`append` with the value broadcast this round — line 21.
    """

    def __init__(self, initial_value: Hashable, *, inherit_prefixes: bool = True):
        self.history: History = initial_history(initial_value)
        self._counters: Dict[History, int] = {}
        self._inherit_prefixes = inherit_prefixes

    @property
    def counters(self) -> Mapping[History, int]:
        """The current counter map ``C`` (read-only view).

        Read-only because the same dict backs the frozen counters
        already broadcast in messages (:meth:`frozen_counters` adopts
        it without a copy); mutating it from outside would silently
        change payloads in flight.
        """
        return MappingProxyType(self._counters)

    def merge_round(
        self,
        counter_maps: Iterable[Mapping[History, int]],
        received_histories: Iterable[History],
    ) -> None:
        """Lines 8–9: pointwise minimum then prefix-inheritance bumps."""
        self._counters = apply_round_update(
            list(counter_maps),
            received_histories,
            inherit_prefixes=self._inherit_prefixes,
        )

    def is_leader(self) -> bool:
        """Definition 1: own history's counter is maximal."""
        mine = self._counters.get(self.history, 0)
        return all(mine >= count for count in self._counters.values())

    def my_counter(self) -> int:
        return self._counters.get(self.history, 0)

    def max_counter(self) -> int:
        return max(self._counters.values(), default=0)

    def append(self, value: Hashable) -> None:
        """Line 21: ``append VAL to HISTORY``."""
        self.history = extend(self.history, value)

    def frozen_counters(self) -> FrozenCounters:
        """The immutable form carried in outgoing messages."""
        # The round update's output is zero-free and positive by
        # construction, merge_round replaces (never mutates) the dict,
        # and the public ``counters`` view is read-only — safe to adopt
        # without a defensive copy.
        return FrozenCounters._adopt(self._counters)

    def state_size(self) -> int:
        """Structural size of the elector's state (experiment T3)."""
        return len(self.history) + sum(
            len(history) + 1 for history in self._counters
        )


@dataclass(frozen=True)
class HeartbeatMessage:
    """Message of the stripped-down leader-observation algorithm."""

    history: History
    counters: FrozenCounters

    @property
    def __payload_fields__(self) -> Tuple[str, ...]:
        return ("history", "counters")


class HeartbeatPseudoLeader(GirafAlgorithm):
    """Pseudo leader election alone, without consensus on top.

    Every process appends a constant *brand* value each round (its
    proposal stream), so histories are ``(brand, brand, …)`` — distinct
    brands model processes that would propose differently, identical
    brands model indistinguishable processes.  Under an ESS environment
    the self-considered-leader set must converge onto the processes
    whose history tracks the eventual source (Lemmas 4–6); experiment
    F3 plots exactly that.
    """

    def __init__(self, brand: Hashable):
        super().__init__()
        self.brand = brand
        self.elector = PseudoLeaderElector(brand)
        self.currently_leader: bool = True
        self.leader_since: Optional[int] = None

    def initialize(self) -> HeartbeatMessage:
        return HeartbeatMessage(self.elector.history, FrozenCounters.EMPTY)

    def compute(self, k: int, inbox: InboxView) -> HeartbeatMessage:
        messages = inbox.received(k)
        self.elector.merge_round(
            [message.counters for message in messages],
            [message.history for message in messages],
        )
        was_leader = self.currently_leader
        self.currently_leader = self.elector.is_leader()
        if self.currently_leader and not was_leader:
            self.leader_since = k
        elif not self.currently_leader:
            self.leader_since = None
        # capture before the append invalidates the history key
        self._my_counter = self.elector.my_counter()
        self._max_counter = self.elector.max_counter()
        self.elector.append(self.brand)
        return HeartbeatMessage(self.elector.history, self.elector.frozen_counters())

    def snapshot(self) -> Mapping[str, object]:
        return {
            "leader": self.currently_leader,
            "my_counter": getattr(self, "_my_counter", 0),
            "max_counter": getattr(self, "_max_counter", 0),
            "history_len": len(self.elector.history),
            "counter_entries": len(self.elector.counters),
        }

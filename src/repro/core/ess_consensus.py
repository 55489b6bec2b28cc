"""Algorithm 3: consensus in the ESS environment via pseudo leaders.

Safety is inherited from Algorithm 2's written-value mechanism;
liveness replaces "eventually everyone hears everyone" with
"eventually one process is always the source", and uses the pseudo
leader election of :mod:`repro.core.pseudo_leader` to make all
self-considered leaders eventually propose identically (Lemmas 3–7).
Two things are crucial and non-obvious:

* non-leaders must keep proposing **something** (the special value
  ``⊥``) so that the ``WRITTEN = ∩ m.PROPOSED`` intersection is taken
  over everybody's messages — silent non-leaders would let stale values
  survive the intersection (ablation A3 demonstrates the failure);
* the decide guard tolerates ``⊥`` (``PROPOSED ⊆ {VAL, ⊥}``) because
  ``⊥`` is never adopted as ``VAL`` (line 14 strips it).

Pseudocode correspondence (line numbers from the paper's listing)::

    on initialization:                                      initialize()
      VAL := initial value; ∀H, C[H] := 0                     line 2
      HISTORY := VAL                                          line 2
      WRITTEN := WRITTENOLD := PROPOSED := ∅                   line 3
      return ⟨PROPOSED, HISTORY, C⟩                            line 4

    on compute(k, M):                                       compute()
      WRITTEN := ∩_{m ∈ M[k]} m.PROPOSED                       line 6
      PROPOSED := (∪_{m ∈ M[k]} m.PROPOSED) ∪ PROPOSED         line 7
      ∀H, C[H] := min_{m ∈ M[k]} m.C[H]                        line 8
      ∀m ∈ M[k], C[m.HISTORY] := 1 + max{C[H] : H pfx}         line 9
      if k mod 2 = 0:                                          line 10
        if WRITTENOLD = {VAL} ∧ PROPOSED ⊆ {VAL, ⊥}:           line 11
          decide VAL; halt                                     line 12
        else if WRITTEN \\ {⊥} ≠ ∅:                             line 13
          VAL := max(WRITTEN \\ {⊥})                            line 14
        if (∀H, C[HISTORY] ≥ C[H]) ∨ PROPOSED ⊆ {VAL, ⊥}:      line 15
          PROPOSED := {VAL}                                    line 16
        else:
          PROPOSED := {⊥}                                      line 18
      WRITTENOLD := WRITTEN                                    line 19 (every round)
      WRITTEN := PROPOSED                                      line 20 (every round)
      append VAL to HISTORY                                    line 21
      return ⟨PROPOSED, HISTORY, C⟩                            line 22

Listing-indentation note: lines 19–20 must execute every round — the
agreement proof reuses Lemma 2, whose argument needs ``WRITTENOLD`` in
an even round ``k`` to equal ``WRITTEN`` of the odd round ``k-1``.
Line 20 is kept verbatim even though it is dead (line 6 overwrites
``WRITTEN`` before any read).

Ablation knobs (experiment A3), modelling the design the paper warns
against ("it is crucial to ensure that all processes propose in every
round at least something to make sure that the value of the current
source is received by everybody"):

* ``silent_non_leaders=True`` — non-leaders propose the empty set
  instead of ``{⊥}`` (they effectively say nothing);
* ``ignore_empty_in_intersection=True`` — the tempting "optimization"
  silence invites: drop empty proposals from the line-6 intersection
  so they stop annihilating ``WRITTEN``.  Together these break the
  certification at the heart of the safety argument — a value can
  enter ``WRITTEN`` without having passed through the round's source,
  so it is *not* guaranteed to be in everybody's ``PROPOSED`` — and
  the A3 bench searches schedules for the resulting agreement
  violations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Hashable, Mapping, Tuple

from repro.core.counters import FrozenCounters
from repro.core.history import History
from repro.core.interfaces import ConsensusAlgorithm
from repro.core.pseudo_leader import PseudoLeaderElector
from repro.giraf.automaton import InboxView
from repro.values import BOTTOM, strip_bottom

__all__ = ["EssMessage", "ESSConsensus"]


@dataclass(frozen=True)
class EssMessage:
    """Algorithm 3's message ``⟨PROPOSED, HISTORY, C⟩``."""

    proposed: FrozenSet[Hashable]
    history: History
    counters: FrozenCounters

    @property
    def __payload_fields__(self) -> Tuple[str, ...]:
        return ("proposed", "history", "counters")

    def atoms(self) -> int:
        """Structural size of this message (experiment T3)."""
        return len(self.proposed) + len(self.history) + self.counters.payload_atoms()


def _intersect_proposed(
    messages: FrozenSet[EssMessage], *, ignore_empty: bool = False
) -> FrozenSet[Hashable]:
    result: FrozenSet[Hashable] | None = None
    for message in messages:
        if ignore_empty and not message.proposed:
            continue
        result = message.proposed if result is None else result & message.proposed
    return frozenset() if result is None else frozenset(result)


def _union_proposed(messages: FrozenSet[EssMessage]) -> FrozenSet[Hashable]:
    merged: set[Hashable] = set()
    for message in messages:
        merged |= message.proposed
    return frozenset(merged)


class ESSConsensus(ConsensusAlgorithm):
    """Consensus in ESS (Algorithm 3, Theorem 2)."""

    def __init__(
        self,
        initial_value: Hashable,
        *,
        silent_non_leaders: bool = False,
        ignore_empty_in_intersection: bool = False,
        prefix_inheritance: bool = True,
    ):
        super().__init__(initial_value)
        self.val: Hashable = initial_value                             # line 2
        self.elector = PseudoLeaderElector(
            initial_value, inherit_prefixes=prefix_inheritance
        )
        self.written: FrozenSet[Hashable] = frozenset()                # line 3
        self.written_old: FrozenSet[Hashable] = frozenset()
        self.proposed: FrozenSet[Hashable] = frozenset()
        self._silent_non_leaders = silent_non_leaders
        self._ignore_empty = ignore_empty_in_intersection
        self._last_was_leader = True

    # ------------------------------------------------------------------
    def initialize(self) -> EssMessage:
        return EssMessage(self.proposed, self.elector.history, FrozenCounters.EMPTY)

    def compute(self, k: int, inbox: InboxView) -> EssMessage:
        messages = inbox.received(k)
        self.written = _intersect_proposed(                             # line 6
            messages, ignore_empty=self._ignore_empty
        )
        self.proposed = _union_proposed(messages) | self.proposed      # line 7
        self.elector.merge_round(                                      # lines 8–9
            [message.counters for message in messages],
            [message.history for message in messages],
        )

        if k % 2 == 0:                                                 # line 10
            val_or_bottom = frozenset({self.val, BOTTOM})
            if (
                self.written_old == frozenset({self.val})              # line 11
                and self.proposed <= val_or_bottom
            ):
                self._decide(self.val, k)                              # line 12
                return EssMessage(
                    self.proposed, self.elector.history, FrozenCounters.EMPTY
                )  # unreachable by callers: halted
            elif frozenset(strip_bottom(self.written)):                # line 13
                self.val = max(strip_bottom(self.written))             # line 14

            self._last_was_leader = self.elector.is_leader()
            if (
                self._last_was_leader                                  # line 15
                or self.proposed <= frozenset({self.val, BOTTOM})
            ):
                self.proposed = frozenset({self.val})                  # line 16
            elif self._silent_non_leaders:
                self.proposed = frozenset()                            # ablation A3
            else:
                self.proposed = frozenset({BOTTOM})                    # line 18

        self.written_old = self.written                                # line 19
        self.written = self.proposed                                   # line 20 (dead)
        self.elector.append(self.val)                                  # line 21
        return EssMessage(                                             # line 22
            self.proposed, self.elector.history, self.elector.frozen_counters()
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> Mapping[str, object]:
        return {
            "val": self.val,
            "leader": self._last_was_leader,
            "proposed_size": len(self.proposed),
            "history_len": len(self.elector.history),
            "counter_entries": len(self.elector.counters),
            "state_atoms": self.elector.state_size(),
        }

"""An idealized (atomic) weak-set with adversarially timed completion.

Algorithm 5 emulates the MS environment *given* a weak-set; for unit
and integration tests of the emulation we need a weak-set whose
behaviour we control precisely.  :class:`IdealWeakSet` is linearizable
(stronger than the weak-set spec, which is allowed): a value becomes
visible at the ``add``'s invocation, but the *completion* (the ack the
caller waits on) is delayed by an adversary-chosen number of steps —
that delay is what shuffles which process completes first each round
and therefore who the emulated source is (Theorem 4's argument).

The class is passive: the emulation scheduler owns time and calls
:meth:`invoke_add` / :meth:`snapshot` at the appropriate steps.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, Set

from repro._rng import derive_randint
from repro.weakset.spec import AddRecord, GetRecord, OpLog

__all__ = ["IdealWeakSet", "uniform_completion_delay"]


def uniform_completion_delay(lo: int = 1, hi: int = 5, seed: int = 0) -> Callable[[int, int], int]:
    """Completion-delay sampler keyed by ``(pid, op_index)`` (>= 1 steps)."""
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")

    def sample(pid: int, op_index: int) -> int:
        return derive_randint(lo, hi, "ws-delay", seed, pid, op_index)

    return sample


class IdealWeakSet:
    """Atomic shared set with delayed add acknowledgements.

    Operations:

    * :meth:`invoke_add` — value visible immediately (the linearization
      point); returns the op record whose completion the caller owns;
    * :meth:`complete_add` — mark the ack delivered (records ``end``);
    * :meth:`snapshot` — an instantaneous ``get`` (records the op).

    All operations are logged to an :class:`~repro.weakset.spec.OpLog`
    so runs can be validated against the weak-set spec checker.
    """

    def __init__(self) -> None:
        self._values: Set[Hashable] = set()
        self.log = OpLog()

    def invoke_add(self, pid: int, value: Hashable, now: float) -> AddRecord:
        self._values.add(value)
        record = AddRecord(pid=pid, value=value, start=now)
        self.log.adds.append(record)
        return record

    def complete_add(self, record: AddRecord, now: float) -> None:
        record.end = now

    def snapshot(self, pid: int, now: float) -> FrozenSet[Hashable]:
        result = frozenset(self._values)
        self.log.gets.append(GetRecord(pid=pid, start=now, end=now, result=result))
        return result

    def peek(self) -> FrozenSet[Hashable]:
        """Current contents without logging (diagnostics only)."""
        return frozenset(self._values)

"""Shared-memory objects: atomic and regular registers.

The weak-set constructions of Propositions 2–3 assume *atomic*
registers (single-writer or multi-writer); Proposition 1 produces a
*regular* one.  Both flavours live here:

* :class:`AtomicRegister` — reads/writes take effect instantaneously
  at their simulation step (the linearization point), optionally
  enforcing a single writer;
* :class:`RegularRegister` — writes span two steps (invoke/commit);
  a read overlapping in-flight writes may return the committed value
  or any in-flight value, chosen adversarially (seeded) — the exact
  freedom regular registers allow and atomic ones forbid.

Objects are passive; the :mod:`repro.sharedmem.simulator` drives them
through :class:`Invoke` primitives yielded by process generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro._rng import derive_randrange
from repro.errors import ProtocolMisuse

__all__ = ["AtomicRegister", "RegularRegister", "Invoke"]


@dataclass(frozen=True)
class Invoke:
    """One primitive step: call ``method`` on ``target`` with ``args``.

    Process generators yield these; the simulator executes one per
    scheduling step and sends the result back into the generator.
    """

    target: object
    method: str
    args: Tuple = ()


class AtomicRegister:
    """A linearizable register (one simulation step per operation).

    Args:
        initial: initial value.
        owner: pid allowed to write, or ``None`` for multi-writer.
        name: diagnostic label.
    """

    def __init__(self, initial: Hashable = None, *, owner: Optional[int] = None, name: str = ""):
        self._value = initial
        self.owner = owner
        self.name = name

    def read(self, *, pid: int, step: int) -> Hashable:
        return self._value

    def write(self, value: Hashable, *, pid: int, step: int) -> None:
        if self.owner is not None and pid != self.owner:
            raise ProtocolMisuse(
                f"pid {pid} wrote SWMR register {self.name!r} owned by {self.owner}"
            )
        self._value = value

    def __repr__(self) -> str:
        kind = "SWMR" if self.owner is not None else "MWMR"
        return f"AtomicRegister({self.name!r}, {kind}, value={self._value!r})"


class RegularRegister:
    """A regular register with adversarial overlap resolution.

    A write is two primitives: ``write_begin`` (value becomes
    in-flight) then ``write_end`` (value commits).  A ``read`` sees the
    committed value or — when writes are in flight — any in-flight
    value, chosen by a seeded adversary.  New/old inversion across two
    sequential reads overlapping one write is therefore possible,
    which is exactly what distinguishes regular from atomic.
    """

    def __init__(self, initial: Hashable = None, *, seed: int = 0, name: str = ""):
        self._committed = initial
        self._in_flight: Dict[int, Hashable] = {}
        self._next_token = 0
        self._seed = seed
        self.name = name

    def write_begin(self, value: Hashable, *, pid: int, step: int) -> int:
        token = self._next_token
        self._next_token += 1
        self._in_flight[token] = value
        return token

    def write_end(self, token: int, *, pid: int, step: int) -> None:
        if token not in self._in_flight:
            raise ProtocolMisuse(f"write_end with unknown token {token}")
        self._committed = self._in_flight.pop(token)

    def read(self, *, pid: int, step: int) -> Hashable:
        choices: List[Hashable] = [self._committed]
        choices.extend(self._in_flight[t] for t in sorted(self._in_flight))
        index = derive_randrange(
            len(choices), "regular-read", self._seed, self.name, step, pid
        )
        return choices[index]

    def __repr__(self) -> str:
        return (
            f"RegularRegister({self.name!r}, committed={self._committed!r}, "
            f"in_flight={len(self._in_flight)})"
        )

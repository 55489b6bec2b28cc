"""Fault injection: replayable chaos for the shard transport stack.

Proving the supervisor (:mod:`repro.weakset.supervisor`) recovers from
worker death requires *causing* worker death — on demand, at a chosen
round, identically on every run.  This module is that harness:

* :class:`Fault` — one scheduled fault: *what* (kill / reset / drop /
  duplicate / delay / truncate), *where* (shard index), *when* (the
  1-based driver exchange at which it fires).
* :class:`FaultPlan` — an immutable set of faults, buildable directly,
  from a CLI spec string (:func:`parse_fault_plan`), or from a seeded
  crash-fraction draw (:meth:`FaultPlan.kill_fraction`) for the C4
  experiment grid.  Plans are plain data: the same plan replays the
  same chaos, byte for byte.
* :class:`FaultyTransport` — wraps any
  :class:`~repro.weakset.transport.Transport` and fires the plan's
  faults for its shard as driver exchanges pass.  The wrapper persists
  across worker respawn (the backend swaps only the *inner* channel),
  so a plan with two kills for one shard fires both even though the
  first kill replaced the transport underneath.

Fault semantics (all fire exactly once, at their scheduled exchange):

=============  ========================================================
``kill``       close the channel *before* forwarding the request — the
               worker sees EOF and exits; the driver's send fails.
               The canonical crash.
``reset``      forward the request, then close the channel before the
               reply is read — the crash lands mid-harvest (the socket
               "connection reset" shape).
``drop``       swallow the request silently.  Nothing fails until the
               reply deadline expires — this is the fault that proves
               the timeout path works.
``duplicate``  deliver the reply twice; the stale copy surfaces at the
               next exchange, where the driver's token/clock guards
               must reject it cleanly.
``delay``      stall the reply by ``delay`` seconds (visible to
               ``poll``, so deadline accounting is honest).
``truncate``   ship only the first ``cut`` bytes of the encoded
               request, then close — the worker dies parsing a
               mid-header frame.
=============  ========================================================

Faults count only **driver** exchanges: while a respawned world is
replayed the wrapper is :meth:`~FaultyTransport.suspended`, so
scheduled faults keep their meaning ("the 7th round the *experiment*
drives") no matter how much recovery traffic interleaves.

Faults also carry a **phase**: ``"live"`` faults (the default) fire at
driver exchanges as above, while ``"rebalance"`` faults fire at
*rebuild frames* — the one
:class:`~repro.weakset.protocol.ReplayRequest` a membership change
(:meth:`~repro.weakset.sharding.ShardedWeakSetCluster.join_shard` /
``leave_shard``) sends each world it rebuilds, inside
:meth:`FaultyTransport.rebalancing`.  The two counters are
independent: live traffic never trips a rebalance fault and a
rebalance never consumes a live fault's exchange budget, so a plan
like ``kill:2:1:rebalance`` deterministically kills shard 2's worker
on the first rebuild frame it is sent, without disturbing the run
around it; ``kill:2:3:rebalance`` waits for its third, which only a
third membership change that rebuilds it sends.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro._rng import derive_randrange, derive_uniform_row
from repro.errors import SimulationError
from repro.weakset.protocol import decode_message, encode_message
from repro.weakset.transport import Transport, TransportError

__all__ = [
    "FAULT_KINDS",
    "FAULT_PHASES",
    "Fault",
    "FaultPlan",
    "FaultyTransport",
    "parse_fault_plan",
]

#: recognised fault kinds, in spec-string order of documentation.
FAULT_KINDS = ("kill", "reset", "drop", "duplicate", "delay", "truncate")

#: recognised fault phases: live driver exchanges vs membership
#: rebalance (rebuild frame) exchanges.
FAULT_PHASES = ("live", "rebalance")


@dataclass(frozen=True)
class Fault:
    """One scheduled transport fault.

    Attributes:
        kind: one of :data:`FAULT_KINDS`.
        shard: member id whose channel misbehaves (equal to the shard
            index until runtime membership changes the mapping).
        at: 1-based driver exchange at which the fault fires (exchange
            1 is the first request the backend sends after start-up).
            For ``phase="rebalance"`` faults, the 1-based rebuild frame
            sent to this member instead (one per membership change that
            rebuilds its world).
        delay: stall length in seconds (``delay`` faults only).
        cut: bytes of the encoded frame actually shipped (``truncate``
            faults only; must land inside the frame).
        phase: ``"live"`` (default) or ``"rebalance"`` — which
            exchange counter the fault fires against.
    """

    kind: str
    shard: int
    at: int
    delay: float = 0.0
    cut: int = 3
    phase: str = "live"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise SimulationError(
                f"unknown fault kind {self.kind!r} (expected one of "
                f"{', '.join(FAULT_KINDS)})"
            )
        if self.phase not in FAULT_PHASES:
            raise SimulationError(
                f"unknown fault phase {self.phase!r} (expected one of "
                f"{', '.join(FAULT_PHASES)})"
            )
        if self.shard < 0:
            raise SimulationError("fault shard index must be >= 0")
        if self.at < 1:
            raise SimulationError("fault exchange index is 1-based (at >= 1)")
        if self.kind == "delay" and self.delay <= 0:
            raise SimulationError("delay faults need delay > 0 seconds")
        if self.kind == "truncate" and self.cut < 1:
            raise SimulationError("truncate faults need cut >= 1 bytes")


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, replayable chaos schedule.

    A plan is just a tuple of :class:`Fault` — no hidden state, no
    clock, no randomness at fire time.  Seeded construction helpers
    draw their randomness through the repo's keyed derivations, so a
    ``(shards, fraction, seed)`` triple always names the same plan.
    """

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def __bool__(self) -> bool:
        return bool(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def for_shard(self, shard: int) -> Tuple[Fault, ...]:
        """The shard's faults, in firing order."""
        return tuple(
            sorted(
                (fault for fault in self.faults if fault.shard == shard),
                key=lambda fault: fault.at,
            )
        )

    @property
    def kills(self) -> int:
        """How many worker-killing faults the plan schedules."""
        return sum(
            1 for fault in self.faults if fault.kind in ("kill", "reset", "truncate")
        )

    @classmethod
    def kill_fraction(
        cls,
        shards: int,
        fraction: float,
        *,
        seed: int = 0,
        window: Tuple[int, int] = (2, 12),
    ) -> "FaultPlan":
        """Kill a seeded ``fraction`` of ``shards`` at seeded rounds.

        The C4 experiment's plan factory: choose
        ``round(shards * fraction)`` distinct victims and give each one
        ``kill`` fault at an exchange drawn uniformly from ``window``
        (inclusive) — all draws through keyed derivation, so the grid
        cell ``(shards, fraction, seed)`` is one fixed chaos schedule.
        """
        if not 0.0 <= fraction <= 1.0:
            raise SimulationError("crash fraction must be in [0, 1]")
        low, high = window
        if low < 1 or high < low:
            raise SimulationError("kill window must satisfy 1 <= low <= high")
        victims = round(shards * fraction)
        # the victims are the shards with the smallest keyed draws
        draws = derive_uniform_row(
            ("fault-plan-victims", shards, fraction, seed), range(shards)
        )
        chosen = sorted(sorted(range(shards), key=draws.__getitem__)[:victims])
        faults = tuple(
            Fault(
                "kill",
                shard,
                low
                + derive_randrange(
                    high - low + 1, "fault-plan-round", shards, fraction, seed, shard
                ),
            )
            for shard in chosen
        )
        return cls(faults)


def parse_fault_plan(text: str) -> FaultPlan:
    """Parse the CLI's ``--fault-plan`` spec into a :class:`FaultPlan`.

    The spec is comma-separated ``kind:shard:at[:param][:rebalance]``
    entries; the optional parameter field is the delay in seconds for
    ``delay`` faults and the byte cut for ``truncate`` faults (other
    kinds take none).  A trailing ``rebalance`` field schedules the
    fault against the member's rebuild frames (one per membership
    change that rebuilds its world) instead of live driver exchanges.

        >>> plan = parse_fault_plan("kill:0:5, delay:1:3:0.5")
        >>> [(f.kind, f.shard, f.at, f.delay) for f in plan.faults]
        [('kill', 0, 5, 0.0), ('delay', 1, 3, 0.5)]
        >>> parse_fault_plan("kill:2:3:rebalance").faults[0].phase
        'rebalance'
    """
    faults: List[Fault] = []
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        phase = "live"
        if len(parts) > 3 and parts[-1].strip().lower() == "rebalance":
            phase = "rebalance"
            parts = parts[:-1]
        if len(parts) not in (3, 4):
            raise SimulationError(
                f"bad fault spec {entry!r} (expected "
                "kind:shard:at[:param][:rebalance])"
            )
        kind = parts[0].strip().lower()
        try:
            shard = int(parts[1])
            at = int(parts[2])
        except ValueError:
            raise SimulationError(
                f"bad fault spec {entry!r}: shard and at must be integers"
            ) from None
        extra: Dict[str, object] = {}
        if len(parts) == 4:
            if kind == "delay":
                try:
                    extra["delay"] = float(parts[3])
                except ValueError:
                    raise SimulationError(
                        f"bad fault spec {entry!r}: delay must be a number"
                    ) from None
            elif kind == "truncate":
                try:
                    extra["cut"] = int(parts[3])
                except ValueError:
                    raise SimulationError(
                        f"bad fault spec {entry!r}: cut must be an integer"
                    ) from None
            else:
                raise SimulationError(
                    f"bad fault spec {entry!r}: {kind!r} faults take no parameter"
                )
        faults.append(Fault(kind, shard, at, phase=phase, **extra))
    if not faults:
        raise SimulationError("empty fault plan spec")
    return FaultPlan(tuple(faults))


class FaultyTransport(Transport):
    """A :class:`Transport` that misbehaves on schedule.

    Wraps ``inner`` and forwards everything — until the wrapper's
    driver-exchange counter reaches a scheduled fault for its shard,
    at which point the fault fires once and the schedule advances.
    Wrapping is transparent to the exchange loop and to the backend's
    rebuild routine, which swaps the inner channel on respawn via
    :meth:`replace_inner` and routes its frames through
    :meth:`suspended` (crash replay) or :meth:`rebalancing`
    (membership changes).
    """

    def __init__(self, inner: Transport, shard: int, plan: FaultPlan):
        self._inner = inner
        self._shard = shard
        scheduled = plan.for_shard(shard)
        self._schedule: List[Fault] = [
            fault for fault in scheduled if fault.phase == "live"
        ]
        #: rebalance-phase faults fire against their own exchange
        #: counter, bumped only inside :meth:`rebalancing` blocks.
        self._rebalance_schedule: List[Fault] = [
            fault for fault in scheduled if fault.phase == "rebalance"
        ]
        self._exchanges = 0
        self._rebalance_exchanges = 0
        self._rebalancing = 0
        self._suspended = 0
        # one entry per reply the channel still owes, in request order:
        # ``[fault-or-None, remaining delay]``, so each armed fault
        # stays aligned with *its* reply.
        self._reply_faults: List[List[object]] = []
        self._dup_frames: List[bytes] = []
        self._dead = False

    # -- delegation ------------------------------------------------------
    def close(self) -> None:
        self._inner.close()

    # -- rebuild hooks ---------------------------------------------------
    def replace_inner(self, inner: Transport) -> None:
        """Swap the channel after a respawn; the schedule survives.

        Any reply-side faults armed for the dead channel are cleared —
        their frames died with the worker — but *unfired* faults remain
        scheduled against future driver exchanges.
        """
        self._inner = inner
        self._reply_faults.clear()
        self._dup_frames.clear()
        self._dead = False

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Disable fault firing *and* exchange counting inside the block.

        Crash-recovery replay / re-issue traffic and the stop
        handshake flow through here, so the schedule stays aligned with
        driver exchanges.
        """
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    @contextlib.contextmanager
    def rebalancing(self) -> Iterator[None]:
        """Route traffic in the block through the *rebalance* schedule.

        A membership change's rebuild frame — one
        :class:`~repro.weakset.protocol.ReplayRequest` per rebuilt
        world, resetting it and replaying its history — flows through
        here: it bumps the rebalance counter and can fire only
        ``phase="rebalance"`` faults, so live fault schedules keep
        their driver-exchange meaning across a rebalance, and chaos
        tests can kill a worker precisely mid-migration (at ``at=1``,
        the one frame of the first change that rebuilds it).
        Reentrant, like :meth:`suspended`.
        """
        self._rebalancing += 1
        try:
            yield
        finally:
            self._rebalancing -= 1

    # -- fault machinery -------------------------------------------------
    def _due(self) -> Optional[Fault]:
        if self._rebalancing:
            schedule = self._rebalance_schedule
            count = self._rebalance_exchanges
        else:
            schedule = self._schedule
            count = self._exchanges
        if schedule and schedule[0].at <= count:
            return schedule.pop(0)
        return None

    def _kill_channel(self) -> None:
        """Sever the channel so the worker sees EOF and the driver
        sees a dead peer."""
        self._inner.close()
        self._dead = True

    # -- the faulty channel ----------------------------------------------
    def send(self, message: object) -> None:
        if self._suspended:
            self._inner.send(message)
            return
        if self._dead:
            raise TransportError("peer is gone (injected fault)")
        if self._rebalancing:
            self._rebalance_exchanges += 1
        else:
            self._exchanges += 1
        fault = self._due()
        if fault is None:
            self._inner.send(message)
            self._reply_faults.append([None, 0.0])
            return
        if fault.kind == "kill":
            self._kill_channel()
            raise TransportError(
                f"peer is gone (injected kill at exchange {fault.at})"
            )
        if fault.kind == "drop":
            return  # swallowed: no reply owed, nothing queued
        if fault.kind == "truncate":
            frame = encode_message(message)
            cut = min(fault.cut, max(len(frame) - 1, 1))
            try:
                self._inner.send_raw(frame[:cut])
            finally:
                self._kill_channel()
            return
        # reply-side faults: the request goes through intact; the fault
        # queues behind any earlier in-flight replies.
        self._inner.send(message)
        self._reply_faults.append(
            [fault, fault.delay if fault.kind == "delay" else 0.0]
        )

    def recv(self) -> object:
        if self._suspended:
            return self._inner.recv()
        if self._dead:
            raise TransportError("peer is gone (injected fault)")
        if self._dup_frames:
            return decode_message(self._dup_frames.pop(0))
        entry = self._reply_faults.pop(0) if self._reply_faults else None
        fault = entry[0] if entry is not None else None
        if fault is None:
            return self._inner.recv()
        if fault.kind == "reset":
            self._kill_channel()
            raise TransportError(
                f"connection reset (injected at exchange {fault.at})"
            )
        if fault.kind == "delay":
            if entry[1] > 0:
                time.sleep(entry[1])
                entry[1] = 0.0
            return self._inner.recv()
        if fault.kind == "duplicate":
            reply = self._inner.recv()
            self._dup_frames.append(encode_message(reply))
            return reply
        raise SimulationError(  # pragma: no cover - schedule guarantees
            f"unexpected reply-side fault {fault.kind!r}"
        )

    def poll(self, timeout: float = 0.0) -> bool:
        if self._suspended:
            return self._inner.poll(timeout)
        if self._dead:
            return False
        if self._dup_frames:
            return True
        entry = self._reply_faults[0] if self._reply_faults else None
        fault = entry[0] if entry is not None else None
        if fault is not None and fault.kind == "delay" and entry[1] > 0:
            # honest deadline accounting: the stall consumes poll time.
            if timeout < entry[1]:
                if timeout > 0:
                    time.sleep(timeout)
                entry[1] -= max(timeout, 0.0)
                return False
            stall = entry[1]
            time.sleep(stall)
            entry[1] = 0.0
            # the stall spent part of the budget; only the remainder is
            # left to wait on the wire (a stall equal to the deadline
            # still succeeds when the reply is already buffered).
            return self._inner.poll(max(timeout - stall, 0.0))
        return self._inner.poll(timeout)

"""Worker supervision: retry policies, recovery stats, seed replay.

The transport backends' historical failure model is **fail-closed**: a
vanished worker poisons the backend and the run is lost — even though
the simulated worlds it hosted would have tolerated the crash (the
whole point of the source paper).  This module is the opt-in
**fail-recover** layer:

* :class:`RetryPolicy` — the shared deterministic backoff/deadline
  policy.  Every sleep the shard stack takes (worker connect loops,
  respawn backoff) and every reply deadline it enforces comes from one
  policy object: exponential backoff with *seeded* jitter (drawn from
  the keyed stream like every other random decision in the repo, so
  two runs of the same chaos plan sleep the same schedule), bounded
  attempts, and a per-request reply deadline so a wedged worker
  surfaces as a timeout error naming the shard instead of a hang.
* :class:`ShardRecoveryStats` — what recovery cost: detections,
  respawns, replayed rounds, wall-clock.
* :class:`ShardSupervisor` — the recovery driver a
  :class:`~repro.weakset.sharding.TransportBackend` constructed with
  ``recover=True`` routes its exchanges through.  It detects worker
  death (send failure, EOF/reset mid-harvest, reply deadline), asks
  the backend to **respawn** the dead worker, **replays** the new
  world deterministically to the current round, re-issues the
  interrupted request, and hands back a reply set indistinguishable
  from an uninterrupted run.

Why replay works: a shard world derives every decision from keyed
seed streams — never from process state — so a respawned worker fed
the exact request sequence the dead one consumed (the supervisor keeps
that log) rebuilds the *identical* world, tick for tick.  Recovered
traces are therefore byte-identical to an uninterrupted run (pinned in
``tests/weakset/test_supervisor.py``).

What recovery deliberately does **not** attempt: a worker-side
:class:`~repro.weakset.protocol.ErrorReply` (the world itself raised)
stays fail-closed — replaying a deterministic world replays its
exception — and a divergence between shard clocks still poisons the
backend.  Supervision heals *infrastructure* faults, not simulation
bugs.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro._rng import derive_uniform
from repro.errors import SimulationError
from repro.weakset.protocol import (
    ErrorReply,
    PeekRequest,
    ProtocolError,
    RoundRequest,
    StepBatchRequest,
)
from repro.weakset.transport import Transport, TransportError

__all__ = [
    "RetryPolicy",
    "ShardRecoveryStats",
    "ShardSupervisor",
]

#: reply deadline the supervisor enforces when the policy does not set
#: one: recovery must never hang on a silent worker (a dropped frame
#: would otherwise block the harvest forever).
DEFAULT_REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic backoff, bounded attempts, per-request deadlines.

    The one policy object the shard stack sleeps and times out by:
    :func:`~repro.weakset.sharding.serve_shard_over_socket` walks
    :meth:`backoff` while waiting for a parent,
    :class:`~repro.weakset.sharding.TransportBackend` enforces
    :attr:`request_timeout` on every reply harvest, and
    :class:`ShardSupervisor` walks :meth:`backoff` between respawn
    attempts.

    Delays are **deterministic**: attempt ``k`` sleeps
    ``min(base_delay * multiplier**k, max_delay)`` plus a jitter
    fraction drawn from the repo's keyed stream at ``(seed, *key, k)``,
    with the attempt as the stream counter — the same policy and key
    always produce the same schedule, in every process, so chaos runs
    replay exactly.

    Attributes:
        attempts: how many tries the backoff schedule allows.
        base_delay: first sleep, seconds.
        multiplier: exponential growth factor (1.0 = fixed delay).
        max_delay: per-sleep cap, seconds.
        jitter: extra sleep as a fraction of the delay, drawn
            deterministically in ``[0, jitter * delay)``.
        seed: jitter stream seed.
        request_timeout: reply deadline per exchange, seconds (``None``
            = block; the supervisor substitutes
            :data:`DEFAULT_REQUEST_TIMEOUT` so recovery never hangs).

    Example:
        >>> policy = RetryPolicy(attempts=3, base_delay=0.1, jitter=0.0)
        >>> list(policy.backoff("connect"))
        [0.1, 0.2, 0.4]
        >>> policy.backoff("connect").__next__() == 0.1  # replayable
        True
    """

    attempts: int = 5
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 1.0
    jitter: float = 0.0
    seed: int = 0
    request_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise SimulationError("RetryPolicy needs attempts >= 1")
        if self.base_delay < 0 or self.max_delay < 0 or self.jitter < 0:
            raise SimulationError("RetryPolicy delays must be >= 0")
        if self.multiplier < 1.0:
            raise SimulationError("RetryPolicy multiplier must be >= 1.0")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise SimulationError("RetryPolicy request_timeout must be > 0")

    def backoff(self, *key: object) -> Iterator[float]:
        """Yield the attempt delays (seconds) for one retried operation.

        ``key`` names the operation (e.g. ``("respawn", shard_index)``)
        so distinct operations draw distinct — but each individually
        reproducible — jitter streams.
        """
        delay = float(self.base_delay)
        for attempt in range(self.attempts):
            capped = min(delay, self.max_delay)
            if self.jitter:
                capped += (
                    derive_uniform("retry-policy", self.seed, *key, attempt)
                    * self.jitter
                    * capped
                )
            yield min(capped, self.max_delay * (1.0 + self.jitter))
            delay *= self.multiplier


@dataclass
class ShardRecoveryStats:
    """What self-healing cost over one backend's lifetime.

    Attributes:
        detections: worker failures noticed (send failure, channel EOF
            or reset, reply deadline expired).
        respawns: fresh workers actually started (a single detection
            may take several respawn attempts under the backoff).
        replayed_rounds: simulation ticks re-executed by respawned
            workers to rebuild their worlds.
        wall_clock: seconds spent inside recovery (respawn + replay +
            re-issue), summed over all detections.
    """

    detections: int = 0
    respawns: int = 0
    replayed_rounds: int = 0
    wall_clock: float = 0.0
    #: shard indices recovered, in detection order (repeats allowed).
    recovered_shards: List[int] = field(default_factory=list)


class ShardSupervisor:
    """Detect, respawn, replay: the fail-recover exchange driver.

    Owned by a :class:`~repro.weakset.sharding.TransportBackend`
    constructed with ``recover=True``; the backend routes every
    :meth:`~repro.weakset.sharding.TransportBackend._exchange` through
    :meth:`exchange` instead of the bare
    :func:`~repro.weakset.transport.exchange_all` harvest.

    The supervised exchange sends each shard's request independently,
    harvests replies in canonical shard order under the policy's reply
    deadline, and — for any shard whose channel failed — runs the
    recovery sequence:

    1. close the dead channel and ask the backend to **respawn** the
       worker (:meth:`~repro.weakset.sharding.TransportBackend._respawn`),
       retrying under the policy's deterministic backoff;
    2. **replay** the supervisor's request log for that shard (every
       round / batch / peek frame the dead worker consumed — queued
       adds ride inside them, so the rebuilt world sees the identical
       operation sequence), discarding the replies;
    3. **re-issue** the interrupted request and hand its reply back to
       the normal fold-in path.

    Fault-injection wrappers
    (:class:`~repro.weakset.faults.FaultyTransport`) are suspended
    while recovery traffic flows, so scheduled faults keep firing at
    their planned *driver* exchanges whatever recovery interleaves.
    """

    def __init__(self, backend, *, policy: Optional[RetryPolicy] = None):
        self.backend = backend
        self.policy = policy or RetryPolicy()
        self.stats = ShardRecoveryStats()
        self._logs: List[List[object]] = [[] for _ in range(backend.num_shards)]
        # -- pipelined-window state (see send_window/harvest_window) --
        #: in-flight request sets, oldest first; a set moves from here
        #: into ``_logs`` only once its replies are fully harvested —
        #: the *acknowledged* point replay rebuilds to.
        self._window: deque = deque()
        #: per-shard replies already collected by a mid-window recovery
        #: (the re-issued suffix answers ahead of the harvest cursor).
        self._replies_ahead: List[deque] = [
            deque() for _ in range(backend.num_shards)
        ]
        #: shards whose channel failed at *send* time, with the cause;
        #: recovery happens lazily at their next harvest.
        self._broken: Dict[int, str] = {}

    # -- plumbing --------------------------------------------------------
    @property
    def _timeout(self) -> float:
        return self.policy.request_timeout or DEFAULT_REQUEST_TIMEOUT

    def _recv(self, transport: Transport, index: int) -> object:
        """One reply under the deadline; TransportError names the wait."""
        timeout = self._timeout
        if not transport.poll(timeout):
            raise TransportError(f"no reply within {timeout:g}s")
        return transport.recv()

    @staticmethod
    def _suspended(transport: Transport):
        """The transport's fault-suspension context, if it has one."""
        suspend = getattr(transport, "suspended", None)
        if suspend is not None:
            return suspend()
        import contextlib

        return contextlib.nullcontext()

    @staticmethod
    def _ticks_of(request: object, reply: object) -> int:
        if isinstance(request, RoundRequest):
            return 1
        if isinstance(request, StepBatchRequest):
            return getattr(reply, "executed", request.rounds)
        return 0

    # -- the supervised exchange -----------------------------------------
    def exchange(self, requests: List[object]) -> List[object]:
        """One round trip with every shard, recovering dead workers.

        Returns index-aligned replies exactly like
        :func:`~repro.weakset.transport.exchange_all`; raises
        :class:`~repro.errors.SimulationError` only when recovery
        itself is impossible (respawn attempts exhausted, or the
        respawned world failed too).
        """
        transports = self.backend._transports
        failed: dict = {}
        replies: List[object] = [None] * len(transports)
        for index, (transport, request) in enumerate(zip(transports, requests)):
            try:
                transport.send(request)
            except TransportError as error:
                failed[index] = f"send failed: {error}"
        for index, transport in enumerate(transports):
            if index in failed:
                continue
            try:
                replies[index] = self._recv(transport, index)
            except (TransportError, ProtocolError) as error:
                failed[index] = str(error)
        for index in sorted(failed):
            replies[index] = self._recover(index, requests[index], failed[index])
        self._log(requests)
        return replies

    def _log(self, requests: List[object]) -> None:
        for index, request in enumerate(requests):
            if isinstance(request, (RoundRequest, StepBatchRequest, PeekRequest)):
                self._logs[index].append(request)

    def reset_membership(self, new_logs: List[List[object]]) -> None:
        """Adopt a membership change's per-slot request logs.

        Called by the backend after a rebalance rewrote some worlds'
        histories: ``new_logs`` is the new slot-ordered log list —
        carried over verbatim for untouched members, rewritten (the
        member's owned slice of the global history) for rebuilt ones —
        so a *later* crash recovery replays the post-rebalance world
        exactly.  Membership changes happen only between advances, so
        an in-flight window or an unrecovered broken channel here is a
        driver bug.
        """
        if self._window or self._broken:
            raise SimulationError(
                "cannot change membership with exchanges in flight"
            )
        self._logs = [list(log) for log in new_logs]
        self._replies_ahead = [deque() for _ in new_logs]

    # -- the supervised pipelined window ---------------------------------
    def send_window(self, requests: List[object]) -> None:
        """Issue one request set without harvesting: it joins the window.

        The supervised half of the pipelined driver
        (:meth:`~repro.weakset.sharding.TransportBackend.advance` with
        ``window > 1``): requests are sent immediately but only
        *logged* once :meth:`harvest_window` acknowledges their
        replies — so replay after a death rebuilds exactly the
        acknowledged prefix and the whole unacknowledged in-flight
        suffix is re-issued.  A send failure is recorded, not raised:
        the shard recovers lazily when its reply is first needed.
        """
        for index, (transport, request) in enumerate(
            zip(self.backend._transports, requests)
        ):
            if index in self._broken:
                continue  # channel already dead; recovery re-sends it
            try:
                transport.send(request)
            except TransportError as error:
                self._broken[index] = f"send failed: {error}"
        self._window.append(list(requests))

    def harvest_window(self) -> List[object]:
        """Harvest (and acknowledge) the oldest in-flight request set.

        Replies come back index-aligned like :meth:`exchange`.  A shard
        whose channel died — at send time or mid-harvest — runs the
        windowed recovery: respawn, replay the acknowledged log, then
        re-issue the **whole** in-flight suffix and buffer its replies
        parent-side (:attr:`_replies_ahead`), so later harvests of the
        same window read the buffer instead of the wire and the
        channel owes nothing once recovery returns (which keeps any
        fault wrapper's reply schedule aligned with driver exchanges).
        """
        if not self._window:
            raise SimulationError(
                "harvest_window called with no request set in flight"
            )
        replies: List[object] = [None] * self.backend.num_shards
        for index, transport in enumerate(self.backend._transports):
            ahead = self._replies_ahead[index]
            if ahead:
                replies[index] = ahead.popleft()
                continue
            cause = self._broken.pop(index, None)
            if cause is None:
                try:
                    replies[index] = self._recv(transport, index)
                    continue
                except (TransportError, ProtocolError) as error:
                    cause = str(error)
            replies[index] = self._recover_windowed(index, cause)
        self._log(self._window.popleft())
        return replies

    # -- recovery --------------------------------------------------------
    def _recover(self, index: int, request: object, cause: str) -> object:
        """Respawn shard ``index``'s worker, replay, re-issue ``request``."""
        backend = self.backend
        started = time.perf_counter()
        self.stats.detections += 1
        resume_round = int(backend._now)
        try:
            backend._transports[index].close()
        except TransportError:  # pragma: no cover - defensive
            pass
        last_error: object = cause
        reply = None
        delays = self.policy.backoff("respawn", index)
        for attempt in range(self.policy.attempts):
            if attempt:
                time.sleep(next(delays))
            try:
                raw = backend._respawn(index, resume_round=resume_round)
            except SimulationError as error:
                last_error = error
                continue
            backend._install_transport(index, raw)
            self.stats.respawns += 1
            transport = backend._transports[index]
            try:
                with self._suspended(transport):
                    self._replay(index, transport)
                    transport.send(request)
                    reply = self._recv(transport, index)
                break
            except (TransportError, ProtocolError) as error:
                # the respawned worker died too: close and go around
                last_error = error
                try:
                    transport.close()
                except TransportError:  # pragma: no cover - defensive
                    pass
        if reply is None:
            raise SimulationError(
                f"shard {index} worker died (at round clock {backend._now:g}: "
                f"{cause}) and could not be recovered after "
                f"{self.policy.attempts} respawn attempt(s): {last_error}"
            )
        if isinstance(reply, ErrorReply):
            raise SimulationError(
                f"shard {index} worker failed after recovery:\n{reply.message}"
            )
        self.stats.recovered_shards.append(index)
        self.stats.wall_clock += time.perf_counter() - started
        return reply

    def _recover_windowed(self, index: int, cause: str) -> object:
        """Respawn shard ``index`` mid-window; return the oldest reply.

        Like :meth:`_recover`, but what gets re-issued after replay is
        the whole in-flight suffix (every request set in
        :attr:`_window`, oldest first) rather than a single
        interrupted request.  All suffix replies are drained under
        fault suspension; the first answers the harvest in progress,
        the rest wait in :attr:`_replies_ahead`.
        """
        backend = self.backend
        started = time.perf_counter()
        self.stats.detections += 1
        resume_round = int(backend._now)
        try:
            backend._transports[index].close()
        except TransportError:  # pragma: no cover - defensive
            pass
        last_error: object = cause
        collected: Optional[List[object]] = None
        delays = self.policy.backoff("respawn", index)
        for attempt in range(self.policy.attempts):
            if attempt:
                time.sleep(next(delays))
            try:
                raw = backend._respawn(index, resume_round=resume_round)
            except SimulationError as error:
                last_error = error
                continue
            backend._install_transport(index, raw)
            self.stats.respawns += 1
            transport = backend._transports[index]
            try:
                with self._suspended(transport):
                    self._replay(index, transport)
                    collected = []
                    for requests in self._window:
                        transport.send(requests[index])
                        collected.append(self._recv(transport, index))
                break
            except (TransportError, ProtocolError) as error:
                # the respawned worker died too: close and go around
                last_error = error
                collected = None
                try:
                    transport.close()
                except TransportError:  # pragma: no cover - defensive
                    pass
        if collected is None:
            raise SimulationError(
                f"shard {index} worker died (at round clock {backend._now:g}: "
                f"{cause}) and could not be recovered after "
                f"{self.policy.attempts} respawn attempt(s): {last_error}"
            )
        for reply in collected:
            if isinstance(reply, ErrorReply):
                raise SimulationError(
                    f"shard {index} worker failed after recovery:\n"
                    f"{reply.message}"
                )
        self._replies_ahead[index].extend(collected[1:])
        self.stats.recovered_shards.append(index)
        self.stats.wall_clock += time.perf_counter() - started
        return collected[0]

    def _replay(self, index: int, transport: Transport) -> None:
        """Re-drive the logged request sequence into a fresh world.

        Replies are consumed and discarded — the parent already folded
        the originals in; the worlds being SHA-512-deterministic is
        what makes the rebuilt state identical.  A worker-side error
        during replay is a simulation bug, not an infrastructure
        fault, and surfaces as :class:`~repro.errors.SimulationError`.
        """
        for logged in self._logs[index]:
            transport.send(logged)
            reply = self._recv(transport, index)
            if isinstance(reply, ErrorReply):
                raise SimulationError(
                    f"shard {index} failed while replaying its world "
                    f"(deterministic worker-side error):\n{reply.message}"
                )
            self.stats.replayed_rounds += self._ticks_of(logged, reply)

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
* :class:`ShardSupervisor` — the recovery window a
  :class:`~repro.weakset.sharding.TransportBackend` constructed with
  ``recover=True`` routes its exchanges through.  It detects worker
  death (send failure, EOF/reset mid-harvest, reply deadline), keeps
  each shard's log of acknowledged requests, and hands the dead shard
  to the backend's one rebuild routine
  (:meth:`~repro.weakset.sharding.TransportBackend._rebuild`): respawn
  the worker, replay the log deterministically, re-issue the requests
  still in flight.  The harvest then gets a reply set
  indistinguishable from an uninterrupted run.  Membership changes
  rebuild worlds through the same routine.

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

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro._rng import derive_uniform
from repro.errors import SimulationError
from repro.weakset.protocol import PeekRequest, ProtocolError, StepBatchRequest
from repro.weakset.transport import TransportError

__all__ = [
    "RetryPolicy",
    "ShardRecoveryStats",
    "ShardSupervisor",
]

#: reply deadline a supervised or fault-injected backend enforces when
#: the policy does not set one: recovery must never hang on a silent
#: worker (a dropped frame would otherwise block the harvest forever).
DEFAULT_REQUEST_TIMEOUT = 30.0


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic backoff, bounded attempts, per-request deadlines.

    The one policy object the shard stack sleeps and times out by:
    :func:`~repro.weakset.sharding.serve_shard_over_socket` walks
    :meth:`backoff` while waiting for a parent,
    :class:`~repro.weakset.sharding.TransportBackend` enforces
    :attr:`request_timeout` on every reply it waits for, and its
    rebuild routine walks :meth:`backoff` between respawn attempts.

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
            = block; a supervised or fault-injected backend substitutes
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
            or reset, reply deadline expired), mid-run or while a
            membership change rebuilds a world.
        respawns: fresh workers started in place of dead ones (a single
            detection may take several respawn attempts under the
            backoff; a joining member's first worker is not one).
        replayed_rounds: simulation ticks re-executed by respawned
            workers to rebuild their worlds.
        wall_clock: seconds spent inside recovery (respawn + replay +
            re-issue), summed over all detections.
        recovered_shards: the member id of every respawn, in order
            (equal to the shard index until membership changes).
    """

    detections: int = 0
    respawns: int = 0
    replayed_rounds: int = 0
    wall_clock: float = 0.0
    recovered_shards: List[int] = field(default_factory=list)


class ShardSupervisor:
    """The supervised exchange window: detect, then hand over to rebuild.

    Owned by a :class:`~repro.weakset.sharding.TransportBackend`
    constructed with ``recover=True``; the backend sends every exchange
    — step, peek or trace fetch — through :meth:`send_window` and
    harvests it through :meth:`harvest_window` instead of the bare
    :func:`~repro.weakset.transport.send_all` /
    :func:`~repro.weakset.transport.harvest_all` halves.

    A sent request set joins the *window* of sets in flight; a harvest
    collects the oldest set's replies in canonical shard order under
    the backend's reply deadline and only then *acknowledges* it into
    the per-shard request log.  For any shard whose channel failed —
    at send or mid-harvest — the harvest hands the shard to the
    backend's rebuild routine
    (:meth:`~repro.weakset.sharding.TransportBackend._rebuild`) with
    the shard's acknowledged log (every step and peek frame the dead
    worker consumed — queued adds ride inside them, so the rebuilt
    world sees the identical operation sequence) followed by every
    request set still in the window, oldest first.  The routine
    respawns the worker under this supervisor's :attr:`policy`,
    drives both in, and returns the replies: the first re-issued one
    answers the harvest in progress, the rest wait parent-side for the
    harvests that follow.
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

    def _log(self, requests: List[object]) -> None:
        for index, request in enumerate(requests):
            if isinstance(request, (StepBatchRequest, PeekRequest)):
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

    # -- the supervised window -------------------------------------------
    def send_window(self, requests: List[object]) -> None:
        """Issue one request set without harvesting: it joins the window.

        Requests are sent immediately but only *logged* once
        :meth:`harvest_window` acknowledges their replies — so replay
        after a death rebuilds exactly the acknowledged prefix and the
        whole unacknowledged in-flight suffix is re-issued.  A send
        failure is recorded, not raised: the shard recovers lazily
        when its reply is first needed.
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

        Replies come back index-aligned, one per shard, and raise
        :class:`~repro.errors.SimulationError` only when recovery
        itself is impossible (respawn attempts exhausted, or the
        rebuilt world failed too).  A shard whose channel died — at
        send time or mid-harvest — is rebuilt with the whole in-flight
        suffix re-issued; the replies ahead of this harvest are
        buffered parent-side (:attr:`_replies_ahead`), so later
        harvests of the same window read the buffer instead of the wire
        and the channel owes nothing once recovery returns (which keeps
        any fault wrapper's reply schedule aligned with driver
        exchanges).
        """
        if not self._window:
            raise SimulationError(
                "harvest_window called with no request set in flight"
            )
        backend = self.backend
        replies: List[object] = [None] * backend.num_shards
        for index, transport in enumerate(backend._transports):
            ahead = self._replies_ahead[index]
            if ahead:
                replies[index] = ahead.popleft()
                continue
            cause = self._broken.pop(index, None)
            if cause is None:
                try:
                    replies[index] = backend._recv(transport)
                    continue
                except (TransportError, ProtocolError) as error:
                    cause = str(error)
            replies[index] = self._recover(index, cause)
        self._log(self._window.popleft())
        return replies

    def _recover(self, index: int, cause: str) -> object:
        """Rebuild shard ``index``'s dead world; return the reply owed
        to the harvest in progress and buffer the rest of the window's."""
        backend = self.backend
        log = self._logs[index]
        backend._transports[index], replies = backend._rebuild(
            backend.members[index],
            backend._transports[index],
            log,
            [requests[index] for requests in self._window],
            cause=cause,
        )
        self._replies_ahead[index].extend(replies[len(log) + 1 :])
        return replies[len(log)]

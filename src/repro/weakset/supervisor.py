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
* :class:`ShardSupervisor` — the supervised exchange a
  :class:`~repro.weakset.sharding.TransportBackend` constructed with
  ``recover=True`` routes its round trips through.  It detects worker
  death (send failure, EOF/reset mid-harvest, reply deadline) and
  hands the dead shard to the backend
  (:meth:`~repro.weakset.sharding.TransportBackend._recover`), which
  respawns the worker and sends it one frame: the shard's slice of
  the backend's operation history, then the request in flight.  The
  exchange then returns a reply set indistinguishable from an
  uninterrupted run.  Membership changes rebuild worlds through the
  same routine and from the same history.

Why replay works: a shard world derives every decision from keyed
seed streams — never from process state — so a respawned worker fed
the operation sequence the dead one acknowledged (the backend's one
history records it) rebuilds the *identical* world, tick for tick.
Recovered traces are therefore byte-identical to an uninterrupted run
(pinned in ``tests/weakset/test_supervisor.py``).

What recovery deliberately does **not** attempt: a worker-side
:class:`~repro.weakset.protocol.ErrorReply` (the world itself raised)
stays fail-closed — replaying a deterministic world replays its
exception — and a divergence between shard clocks still poisons the
backend.  Supervision heals *infrastructure* faults, not simulation
bugs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro._rng import derive_uniform
from repro.errors import SimulationError
from repro.weakset.protocol import ProtocolError
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
    """The supervised exchange: detect, then hand over to rebuild.

    Owned by a :class:`~repro.weakset.sharding.TransportBackend`
    constructed with ``recover=True``; the backend sends every
    exchange — step, peek or trace fetch — through :meth:`exchange`
    instead of the bare :func:`~repro.weakset.transport.send_all` /
    :func:`~repro.weakset.transport.harvest_all` pair.

    An exchange sends one request set and collects its replies in
    canonical shard order under the backend's reply deadline.  For
    any shard whose channel failed — at send or mid-harvest — it hands
    the shard to the backend
    (:meth:`~repro.weakset.sharding.TransportBackend._recover`), which
    respawns the worker under this supervisor's :attr:`policy` and
    replays the shard's acknowledged history followed by its request
    of the set in flight, in one frame; the last reply answers the
    exchange.  The supervisor keeps no log of its own: the backend
    folds a step into its history only after every reply of the set
    is in, so the history holds exactly the acknowledged prefix.
    """

    def __init__(self, backend, *, policy: Optional[RetryPolicy] = None):
        self.backend = backend
        self.policy = policy or RetryPolicy()
        self.stats = ShardRecoveryStats()

    def exchange(self, requests: List[object]) -> List[object]:
        """Send one request set and harvest its replies.

        Replies come back index-aligned, one per shard, and raise
        :class:`~repro.errors.SimulationError` only when recovery
        itself is impossible (respawn attempts exhausted, or the
        rebuilt world failed too).  A send failure is recorded, not
        raised: every other shard still gets its request before the
        first reply is read, and the failed shard is rebuilt when its
        reply is due — as is a shard whose channel dies mid-harvest.
        """
        backend = self.backend
        broken: Dict[int, str] = {}
        for index, (transport, request) in enumerate(
            zip(backend._transports, requests)
        ):
            try:
                transport.send(request)
            except TransportError as error:
                broken[index] = f"send failed: {error}"
        replies: List[object] = [None] * backend.num_shards
        for index, transport in enumerate(backend._transports):
            cause = broken.get(index)
            if cause is None:
                try:
                    replies[index] = backend._recv(transport)
                    continue
                except (TransportError, ProtocolError) as error:
                    cause = str(error)
            replies[index] = backend._recover(index, requests, cause)
        return replies

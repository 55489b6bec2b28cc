"""Value-partitioned weak-set scale-out: K shard worlds, one API.

A weak-set's operations are embarrassingly partitionable by value:
``add(v)`` only needs to reach the processes holding ``v``'s shard, and
``get`` is the union of the shards' local ``PROPOSED`` sets (set union
is exactly the weak-set's merge, so the union of K weak-sets is a
weak-set).  :class:`ShardedWeakSetCluster` exploits that: it owns ``K``
independent :class:`~repro.weakset.cluster.MSWeakSetCluster` shards —
each a full Algorithm-4 group with its own MS environment — and routes
every value to a deterministic shard.  Per-round broadcast traffic per
shard stays the size of *that shard's* value population instead of the
whole set, which is the multi-machine story: each shard group can live
on its own machine, and clients fan ``get`` out and union.

Execution of the K shard worlds goes through a pluggable
:class:`ShardBackend` seam, built as an explicit three-layer stack:

* the **wire protocol** (:mod:`repro.weakset.protocol`) — the
  round-trip message types (round / batch / peek / trace / stop, plus
  mux and migrate) as frozen dataclasses with one versioned,
  length-prefixed binary codec;
* the **transports** (:mod:`repro.weakset.transport`) — where a shard
  world lives: in this process with no codec
  (:class:`~repro.weakset.transport.DirectTransport`), in this process
  behind the codec (:class:`~repro.weakset.transport.InProcTransport`),
  behind a ``multiprocessing`` pipe, or across a TCP socket — plus the
  ``exchange_all`` round loop that issues every shard's request first
  and harvests replies, as they arrive when the channels are
  selectable (order-canonical, so traces stay byte-identical);
* the **driver** (this module) — one :class:`TransportBackend` that
  every backend is a thin composition of: :class:`SerialBackend`
  (direct transports, the default), :class:`InProcBackend`,
  :class:`MultiprocessBackend` (one worker process per shard over
  pipes) and :class:`SocketBackend` (workers over TCP —
  loopback-spawned for CI, or remote via :func:`run_socket_worker` /
  ``python -m repro.experiments --connect HOST:PORT``).  Every backend
  shares its parent-side mirror, its pipelined window and its
  migrate-and-replay membership path; each world is a
  :class:`ShardServer` wherever it lives.

Because every per-shard decision in the simulator derives from
keyed seed streams — never from process state, object ids, or
Python's salted ``hash`` — a worker replays the exact serial shard
world: for a fixed seed **all backends produce byte-identical shard
traces** (pinned in ``tests/weakset/test_shard_backends.py``).

The facade exposes the same :class:`~repro.weakset.spec.WeakSet` handle
API as a single cluster, and all shards advance in lock-step (one tick
each per :meth:`ShardedWeakSetCluster.advance` step) so their clocks
agree.  With ``shards=1`` the facade is a transparent wrapper: it
drives the single shard through exactly the step sequence a plain
:class:`MSWeakSetCluster` would take, reproducing its trace
byte-for-byte (pinned in ``tests/weakset/test_sharded_cluster.py``).

Routing derives from the value's ``repr`` through the same keyed
derivation every seeded policy uses — never Python's salted ``hash`` —
so it is stable across processes and runs for any value whose ``repr``
is content-based (strings, numbers, tuples, frozensets of these: the
payloads the library trades in, and the same property the repo's
seeded policies already assume).  Values with identity-based reprs
(e.g. a class using the ``object`` default) would route by memory
address; give such types a content ``__repr__`` before sharding them.
The backends behind a codec (every one but serial) additionally
require values the canonical codec can carry (the
:mod:`repro.serialization` universe) — register a codec for custom
payload types before sharding them across processes.
"""

from __future__ import annotations

import contextlib
import itertools
import logging
import multiprocessing
import pickle
import selectors
import socket
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from dataclasses import dataclass

from repro.errors import ProtocolMisuse, SimulationError
from repro.giraf.adversary import CrashSchedule
from repro.giraf.environments import Environment, MovingSourceEnvironment
from repro.giraf.traces import RunTrace
from repro.weakset.cluster import MSWeakSetCluster
from repro.weakset.protocol import (
    ConfigReply,
    ErrorReply,
    HelloRequest,
    MigrateReply,
    MigrateRequest,
    MuxReply,
    MuxRequest,
    PeekReply,
    PeekRequest,
    ProtocolError,
    QueuedAdd,
    RoundReply,
    RoundRequest,
    StepBatchReply,
    StepBatchRequest,
    StopReply,
    StopRequest,
    TraceReply,
    TraceRequest,
    VersionMismatch,
    WorldConfig,
)
from repro.weakset.ring import HashRing, ring_for_shards
from repro.weakset.spec import AddRecord, GetRecord, OpLog, WeakSet
from repro.weakset.faults import FaultPlan, FaultyTransport
from repro.weakset.supervisor import (
    RetryPolicy,
    ShardRecoveryStats,
    ShardSupervisor,
)
from repro.weakset.transport import (
    DirectTransport,
    InProcTransport,
    PipeTransport,
    SocketTransport,
    Transport,
    TransportError,
    exchange_all,
    harvest_all,
    send_all,
    serve_requests,
)

__all__ = [
    "ShardedWeakSetCluster",
    "ShardedWeakSetHandle",
    "ShardBackend",
    "SerialBackend",
    "TransportBackend",
    "InProcBackend",
    "MultiprocessBackend",
    "SocketBackend",
    "ShardServer",
    "RebalanceStats",
    "spawn_socket_workers",
    "run_socket_worker",
    "parse_address",
    "parse_backend_spec",
    "shard_of",
]

_logger = logging.getLogger(__name__)

#: builds the environment for one shard (shard index -> environment)
EnvironmentFactory = Callable[[int], Environment]


def _default_environment(shard_index: int) -> Environment:
    """Default per-shard environment (module-level, hence picklable)."""
    return MovingSourceEnvironment()


def shard_of(value: Hashable, shards: int) -> int:
    """The shard a value lives on.

    Routes through the consistent-hash ring over members
    ``0..shards-1`` (:func:`repro.weakset.ring.ring_for_shards`) — the
    same keyed streams (:mod:`repro._rng`) every seeded policy uses, never the
    salted builtin ``hash`` — so the same value routes identically in
    every process, and a cluster that *grew* to ``shards`` members via
    :meth:`ShardedWeakSetCluster.join_shard` routes exactly like a
    cluster constructed with ``shards`` members.

    Args:
        value: the value being added or looked up.
        shards: the total shard count (``>= 1``).

    Returns:
        The owning shard index in ``range(shards)``.

    Example:
        >>> shard_of("alpha", 1)
        0
        >>> 0 <= shard_of("alpha", 4) < 4
        True
        >>> shard_of("alpha", 4) == shard_of("alpha", 4)
        True
    """
    if shards <= 1:
        return 0
    return ring_for_shards(shards).owner(value)


@dataclass(frozen=True)
class RebalanceStats:
    """What one membership change (:meth:`ShardedWeakSetCluster.join_shard`
    / :meth:`~ShardedWeakSetCluster.leave_shard`) cost.

    Attributes:
        joined: member ids added by this change.
        left: member ids removed by this change.
        moved_values: distinct already-delivered values whose owner
            changed (the consistent-hash minimal set).
        rebuilt_members: member ids whose worlds were reconstructed by
            seed replay (old and new owners of moved values, plus every
            joined member); all other worlds were untouched.
        replayed_ticks: lock-step ticks replayed across the rebuilt
            worlds (``rebuilt worlds × current round``).
        wall_clock: seconds the rebalance took, migration included.
    """

    joined: Tuple[int, ...]
    left: Tuple[int, ...]
    moved_values: int
    rebuilt_members: Tuple[int, ...]
    replayed_ticks: int
    wall_clock: float


def _resolve_members(shards: int, members: Optional[List[int]]) -> List[int]:
    """Validate and normalize a backend's member-id list."""
    if members is None:
        return list(range(shards))
    ordered = list(members)
    if not ordered:
        raise SimulationError("need at least one shard member")
    if ordered != sorted(set(ordered)) or any(
        (not isinstance(m, int)) or isinstance(m, bool) or m < 0 for m in ordered
    ):
        raise SimulationError(
            f"members must be sorted, unique, non-negative ints: {members!r}"
        )
    if len(ordered) != shards:
        raise SimulationError(
            f"members {ordered!r} names {len(ordered)} shard worlds, "
            f"but shards={shards}"
        )
    return ordered


@dataclass
class _RebalancePlan:
    """The classification one membership change computes up front."""

    joined: List[int]
    removed: List[int]
    rebuilt: List[int]  # member ids (all in the new membership) to rebuild
    moved_values: int


def _plan_rebalance(
    old_members: List[int],
    new_members: List[int],
    history: List[tuple],
    route_old: Callable[[Hashable], int],
    route_new: Callable[[Hashable], int],
    pending_tokens: FrozenSet[int],
) -> _RebalancePlan:
    """Classify a membership change against the operation history.

    A world needs rebuilding exactly when its *delivered-add stream*
    changes under the new routing: the old and new owners of every
    moved delivered value, plus every joined member (whose world must
    exist and be caught up to the current round).  Pending (queued,
    undelivered) adds never force a rebuild — they are simply
    re-bucketed to their new owner's queue, exactly where a freshly
    constructed cluster would hold them.

    Raises :class:`~repro.errors.SimulationError` — before anything is
    mutated — when two still-in-flight adds by the same pid would land
    on the same new owner: a cluster constructed with the new
    membership would have rejected the second add outright
    (:class:`~repro.errors.ProtocolMisuse`), so there is no equivalent
    state to rebalance into.
    """
    ordered = list(new_members)
    if not ordered:
        raise SimulationError("membership cannot become empty")
    if ordered != sorted(set(ordered)) or any(
        (not isinstance(m, int)) or isinstance(m, bool) or m < 0 for m in ordered
    ):
        raise SimulationError(
            f"new membership must be sorted, unique, non-negative ints: "
            f"{new_members!r}"
        )
    old_set = frozenset(old_members)
    new_set = frozenset(ordered)
    joined = sorted(new_set - old_set)
    removed = sorted(old_set - new_set)
    in_flight: Dict[Tuple[int, int], Hashable] = {}
    moved: set = set()
    rebuilt: set = set(joined)
    for entry in history:
        if entry[0] != "add":
            continue
        _kind, token, pid, value, record = entry
        owner_new = route_new(value)
        if record.end is None:
            key = (owner_new, pid)
            if key in in_flight:
                raise SimulationError(
                    f"cannot rebalance: process {pid} has in-flight adds "
                    f"{in_flight[key]!r} and {value!r} that would share new "
                    f"owner {owner_new} (a cluster built with the new "
                    "membership would have rejected the second add); "
                    "advance until one completes first"
                )
            in_flight[key] = value
        if token in pending_tokens:
            continue  # undelivered: re-bucketed, never replayed
        owner_old = route_old(value)
        if owner_old != owner_new:
            moved.add(value)
            if owner_old in new_set:
                rebuilt.add(owner_old)
            rebuilt.add(owner_new)
    return _RebalancePlan(joined, removed, sorted(rebuilt), len(moved))


def _member_replay_requests(
    history: List[tuple],
    member: int,
    route_new: Callable[[Hashable], int],
    pending_tokens: FrozenSet[int],
) -> List[object]:
    """The wire request sequence that rebuilds ``member``'s world.

    Walks the global history and keeps only the delivered adds the new
    routing assigns to ``member``, closing each add run with the tick
    span that followed it — the exact operation sequence a cluster
    constructed with the new membership would have driven into this
    world.  Delivered adds issued after the last tick ride a trailing
    peek frame (adds apply before the peek reads; the world's clock
    does not move), mirroring how a live peek delivers queued adds.
    The list doubles as the supervisor's request log for the slot, so
    a *later* crash replays the rebalanced world correctly.
    """
    requests: List[object] = []
    adds: List[QueuedAdd] = []
    for entry in history:
        if entry[0] == "step":
            requests.append(
                StepBatchRequest(rounds=entry[1], adds=tuple(adds))
            )
            adds = []
            continue
        _kind, token, pid, value, _record = entry
        if token in pending_tokens:
            continue  # undelivered: re-bucketed to the live queue
        if route_new(value) != member:
            continue
        adds.append((token, pid, value))
    if adds:
        requests.append(PeekRequest(pid=0, adds=tuple(adds)))
    return requests


# ----------------------------------------------------------------------
# the backend seam
# ----------------------------------------------------------------------
class ShardBackend(ABC):
    """Executes the K shard worlds behind :class:`ShardedWeakSetCluster`.

    The facade owns routing, the operation log, and the blocking-add
    loop; the backend owns *where the shard clusters live and step*.
    Implementations must preserve the plain shard semantics exactly:
    a shard is an :class:`~repro.weakset.cluster.MSWeakSetCluster` that
    receives the same ``begin_add``/``step`` sequence a standalone
    cluster would (equivalence is pinned — and fuzzed against plain
    clusters — in ``tests/weakset/test_shard_backends.py``).

    Attributes:
        num_shards: how many shard worlds the backend drives.
        members: the sorted member ids owning the shard worlds, one per
            slot (``members[slot]`` seeds slot ``slot``'s world:
            environment factory argument, worker handshake index).  A
            freshly constructed backend has ``members == [0..K-1]``;
            runtime membership (:meth:`apply_membership`) may leave
            holes, e.g. ``[0, 2, 3]`` after member 1 left.
        n: process count inside every shard world.
        round_batch: how many lock-step ticks the facade's ``advance``
            coalesces into one :meth:`step_batch` call (transport
            backends turn that into **one frame pair per worker** —
            the high-latency-link lever).  Default 1.
        window: how many round batches a multi-chunk :meth:`advance`
            may keep **in flight** at once (the driver sends batch
            ``k+1`` before batch ``k``'s replies are harvested — the
            round-trip-hiding lever; see
            :meth:`TransportBackend.advance`).  Traces are identical
            for every window.  Default 1: strict send-then-harvest.
    """

    num_shards: int
    members: List[int]
    n: int
    round_batch: int = 1
    window: int = 1

    def apply_membership(
        self,
        new_members: List[int],
        route_old: Callable[[Hashable], int],
        route_new: Callable[[Hashable], int],
    ) -> RebalanceStats:
        """Rebalance to ``new_members`` (member-id routes old/new).

        :class:`TransportBackend` — every built-in backend — supports
        runtime membership while each channel hosts one world; the
        default here rejects it for custom backends.
        """
        raise SimulationError(
            f"{type(self).__name__} does not support runtime membership"
        )

    @property
    @abstractmethod
    def now(self) -> float:
        """The shared lock-step clock (all shards advance together)."""

    @property
    @abstractmethod
    def exhausted(self) -> bool:
        """True once any shard world ran out of rounds."""

    @abstractmethod
    def begin_add(self, shard_index: int, pid: int, value: Hashable) -> AddRecord:
        """Start an add of ``value`` by ``pid`` on shard ``shard_index``.

        Returns an :class:`~repro.weakset.spec.AddRecord` whose ``end``
        the backend stamps once the shard world reports the value
        written.  Raises :class:`~repro.errors.SimulationError` for a
        crashed ``pid`` and :class:`~repro.errors.ProtocolMisuse` while
        a previous add by ``pid`` on the same shard is still blocked —
        the same errors, at the same call, as a plain cluster.
        """

    @abstractmethod
    def step(self) -> bool:
        """Advance every shard one tick; False once any shard is done."""

    def step_batch(self, rounds: int) -> Tuple[int, bool]:
        """Advance every shard up to ``rounds`` ticks in one call.

        Returns ``(executed, alive)``: how many step calls were made
        (stopping after the first that reported a dead world — exactly
        the sequence a loop of :meth:`step` calls would make) and the
        last step's liveness.  The default delegates to :meth:`step`;
        transport backends override it to coalesce the whole batch
        into one frame pair per worker.  Queued adds apply before the
        first tick either way, so traces are identical across batch
        sizes (pinned in ``tests/weakset/test_shard_backends.py``).
        """
        if rounds < 1:
            raise SimulationError("step_batch needs rounds >= 1")
        executed = 0
        alive = True
        for _ in range(rounds):
            alive = self.step()
            executed += 1
            if not alive:
                break
        return executed, alive

    def advance(self, rounds: int) -> int:
        """Run every shard up to ``rounds`` ticks; return how many ran.

        Ticks are issued in chunks of :attr:`round_batch` through
        :meth:`step_batch` and stop early once a shard world dies —
        exactly the loop the facade's :meth:`ShardedWeakSetCluster.advance`
        historically ran inline.  Living on the backend seam lets a
        transport backend override it with the pipelined (windowed)
        driver while every backend keeps the identical tick sequence.
        """
        executed_total = 0
        remaining = rounds
        while remaining > 0:
            executed, alive = self.step_batch(min(self.round_batch, remaining))
            executed_total += executed
            remaining -= executed
            if not alive:
                break
        return executed_total

    @abstractmethod
    def crashed(self, shard_index: int, pid: int) -> bool:
        """Whether ``pid`` has crashed in shard ``shard_index``'s world."""

    @abstractmethod
    def local_views(self, pid: int) -> List[Tuple[bool, FrozenSet[Hashable]]]:
        """Per-shard ``(crashed, local PROPOSED)`` pairs for one ``get``.

        Returned in shard order; the facade raises on the first crashed
        entry and unions the rest, mirroring the serial shard loop.
        """

    @abstractmethod
    def traces(self) -> List[RunTrace]:
        """Per-shard run traces (index = shard).

        The serial backend returns the live trace objects; backends
        behind a codec return point-in-time snapshots fetched from the
        workers.
        """

    @property
    def recovery_stats(self) -> Optional[ShardRecoveryStats]:
        """Recovery counters when supervision is on, else ``None``.

        Only a :class:`TransportBackend` constructed with
        ``recover=True`` has a supervisor to count anything; every
        other backend reports ``None`` so callers can surface the
        stats unconditionally.
        """
        return None

    def close(self) -> None:
        """Release backend resources (worker processes, channels)."""

    def __enter__(self) -> "ShardBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# the worker side: one shard world behind the wire protocol
# ----------------------------------------------------------------------
class ShardServer:
    """One shard's lock-step world, answering protocol requests.

    The worker half of every backend, the serial one included: owns
    the shard's :class:`~repro.weakset.cluster.MSWeakSetCluster` plus
    the token -> :class:`~repro.weakset.spec.AddRecord` map for
    in-flight adds, and maps each request type to cluster calls — the
    same calls wherever the server lives, which is why every backend
    replays the same worlds exactly.

    Example (driving the protocol without any transport):

        >>> from repro.weakset.protocol import RoundRequest, PeekRequest
        >>> config = WorldConfig(3, _default_environment, None, 100, "full")
        >>> server = ShardServer(config, shard_index=0)
        >>> reply = server.handle(RoundRequest(adds=((0, 1, "job-7"),)))
        >>> reply.alive, reply.now
        (True, 1.0)
        >>> "job-7" in server.handle(PeekRequest(pid=1)).proposed
        True
    """

    def __init__(self, config: WorldConfig, shard_index: int, resume_round: int = 0):
        self._config = config
        self.shard_index = shard_index
        self.cluster = MSWeakSetCluster(
            config.n,
            environment=config.environment_factory(shard_index),
            crash_schedule=config.crash_schedule,
            max_total_rounds=config.max_total_rounds,
            trace_mode=config.trace_mode,
        )
        self._records: Dict[int, AddRecord] = {}
        #: the round clock this world is expected to reach before
        #: serving live traffic — 0 for a fresh world; the supervisor's
        #: current round when this server replaces a crashed worker
        #: (the parent replays the dead worker's request log to get
        #: there, so the server itself just records the expectation).
        self.resume_round = resume_round

    def _apply_adds(self, adds: Tuple[QueuedAdd, ...]) -> None:
        for token, pid, value in adds:
            self._records[token] = self.cluster.begin_add(pid, value)

    def _crashed_set(self) -> FrozenSet[int]:
        return frozenset(
            pid
            for pid, proc in enumerate(self.cluster._scheduler.processes)
            if proc.crashed
        )

    def _take_completions(self) -> Tuple[Tuple[int, float], ...]:
        completions = tuple(
            (token, record.end)
            for token, record in self._records.items()
            if record.end is not None
        )
        for token, _end in completions:
            del self._records[token]
        return completions

    def _dead_round_reply(self) -> RoundReply:
        """The no-op reply for a step aimed at an already-dead world.

        A pipelined parent may have several round batches in flight
        when a world dies; the speculative suffix lands here and must
        change nothing — matching the scheduler's own behaviour at the
        horizon, where a further step is a no-op returning False.  The
        driver discards these replies, so all that matters is that the
        world (and its trace) is untouched and the clock unchanged.
        """
        return RoundReply(
            alive=False,
            completions=self._take_completions(),
            crashed=self._crashed_set(),
            now=self.cluster.now,
        )

    def handle(self, request: object) -> object:
        """Answer one request; raises on protocol misuse (the serve
        loop converts that into an :class:`~repro.weakset.protocol.ErrorReply`)."""
        if isinstance(request, RoundRequest):
            self._apply_adds(request.adds)
            if self.cluster.exhausted:
                return self._dead_round_reply()
            alive = self.cluster.step()
            return RoundReply(
                alive=alive,
                completions=self._take_completions(),
                crashed=self._crashed_set(),
                now=self.cluster.now,
            )
        if isinstance(request, StepBatchRequest):
            if request.rounds < 1:
                raise ProtocolMisuse("step batch needs rounds >= 1")
            self._apply_adds(request.adds)
            if self.cluster.exhausted:
                reply = self._dead_round_reply()
                return StepBatchReply(
                    alive=False,
                    executed=1,
                    completions=reply.completions,
                    crashed=reply.crashed,
                    now=reply.now,
                )
            alive = True
            executed = 0
            # the exact step sequence `rounds` single-round requests
            # would drive; completions keep their simulated-time end
            # stamps, so batching coalesces frames, not time
            for _ in range(request.rounds):
                alive = self.cluster.step()
                executed += 1
                if not alive:
                    break
            return StepBatchReply(
                alive=alive,
                executed=executed,
                completions=self._take_completions(),
                crashed=self._crashed_set(),
                now=self.cluster.now,
            )
        if isinstance(request, PeekRequest):
            self._apply_adds(request.adds)
            return PeekReply(
                crashed=self.cluster._scheduler.processes[request.pid].crashed,
                proposed=self.cluster.algorithms[request.pid].get_now(),
            )
        if isinstance(request, TraceRequest):
            return TraceReply(trace=self.cluster.trace)
        if isinstance(request, MigrateRequest):
            # Membership rebalance (protocol v5): reset this worker's
            # world to a fresh seed-built state in place — the parent
            # then replays the member's rewritten history to the
            # current round, exactly like a supervisor respawn but
            # without paying for a new process.
            if request.shard_index != self.shard_index:
                raise ProtocolMisuse(
                    f"migrate aimed at shard {request.shard_index}, this "
                    f"worker hosts shard {self.shard_index}"
                )
            self.cluster = MSWeakSetCluster(
                self._config.n,
                environment=self._config.environment_factory(self.shard_index),
                crash_schedule=self._config.crash_schedule,
                max_total_rounds=self._config.max_total_rounds,
                trace_mode=self._config.trace_mode,
            )
            self._records = {}
            self.resume_round = request.resume_round
            return MigrateReply(
                shard_index=self.shard_index, now=self.cluster.now
            )
        if isinstance(request, StopRequest):
            # serve_requests intercepts stops before they reach a
            # handler; the in-process transports dispatch here
            # directly, so answer the shutdown handshake rather than
            # treating a clean close as protocol misuse.
            return StopReply()
        raise ProtocolMisuse(f"unexpected request {type(request).__name__}")


class _MuxShardServer:
    """Several shard worlds behind one channel (protocol-v4 mux).

    The worker half of ``worlds_per_worker > 1``: the parent speaks one
    :class:`~repro.weakset.protocol.MuxRequest` per exchange, carrying
    one sub-request per hosted world in the order the handshake
    assigned them (``shard_index`` first, then ``extra_shards``); each
    sub-request is handled by that world's :class:`ShardServer` and the
    sub-replies travel back in the same order inside one
    :class:`~repro.weakset.protocol.MuxReply` — one frame pair per
    *worker* per round instead of one per *world*.  Stop frames are
    intercepted by :func:`~repro.weakset.transport.serve_requests`
    before reaching any handler, so a clean shutdown needs no mux
    treatment; any other bare request is protocol misuse.
    """

    def __init__(self, servers: List[ShardServer]):
        self._servers = servers

    def handle(self, request: object) -> object:
        if not isinstance(request, MuxRequest):
            raise ProtocolMisuse(
                f"multiplexed worker hosting {len(self._servers)} worlds "
                f"expected MuxRequest, got {type(request).__name__}"
            )
        if len(request.subs) != len(self._servers):
            raise ProtocolMisuse(
                f"MuxRequest carries {len(request.subs)} sub-requests for "
                f"a worker hosting {len(self._servers)} worlds"
            )
        return MuxReply(
            subs=tuple(
                server.handle(sub)
                for server, sub in zip(self._servers, request.subs)
            )
        )


def _pipe_worker(
    connection,
    shard_index: int,
    config: WorldConfig,
    resume_round: int = 0,
) -> None:
    """Worker process entry point for the pipe (multiprocess) backend."""
    transport = PipeTransport(connection)
    try:
        server = ShardServer(config, shard_index, resume_round)
    except BaseException:
        try:
            transport.send(ErrorReply(traceback.format_exc()))
        except TransportError:
            pass
        transport.close()
        return
    serve_requests(transport, server.handle)
    transport.close()


def serve_shard_over_socket(
    address: Tuple[str, int],
    *,
    connect_retries: int = 50,
    retry_delay: float = 0.1,
    retry_policy: Optional[RetryPolicy] = None,
) -> bool:
    """Connect to a shard parent at ``address`` and serve one world.

    Retries the connection under ``retry_policy`` (the parent may not
    be listening yet) — by default a fixed-delay schedule of
    ``connect_retries`` attempts ``retry_delay`` seconds apart, i.e.
    the historical timing; pass a
    :class:`~repro.weakset.supervisor.RetryPolicy` for exponential
    backoff with seeded jitter instead (what a fleet of workers
    hammering one parent wants).  Then performs the hello/config
    bootstrap and serves protocol requests until the parent sends stop
    or goes away.

    Returns:
        True when a parent was reached (a world was served, or at
        least attempted — a parent that accepted the connection but
        closed without sending a config, e.g. because its shards were
        already staffed, also counts: the worker should go around and
        offer itself again); False when no parent accepted within the
        retry window — the signal for :func:`run_socket_worker` to
        exit its loop.

    Raises:
        SimulationError: the parent speaks a different protocol
            version (named for both sides).  Version skew cannot heal
            by retrying, so it surfaces instead of looping.
    """
    if retry_policy is None:
        # the historical timing: fixed-delay attempts, no jitter.
        retry_policy = RetryPolicy(
            attempts=connect_retries,
            base_delay=retry_delay,
            multiplier=1.0,
            max_delay=retry_delay,
        )
    sock: Optional[socket.socket] = None
    for delay in retry_policy.backoff("connect", address):
        try:
            sock = socket.create_connection(address, timeout=10.0)
            break
        except OSError:
            time.sleep(delay)
    if sock is None:
        return False
    sock.settimeout(None)
    transport = SocketTransport(sock)
    try:
        transport.send(HelloRequest())
        config_reply = transport.recv()
    except VersionMismatch as error:
        # An undecodable first frame used to surface as a generic
        # decode error (and an endless re-offer loop); a version skew
        # is permanent, so name both sides and stop.
        transport.close()
        raise SimulationError(
            f"cannot serve shards for {address[0]}:{address[1]}: the parent "
            f"speaks protocol version {error.peer_version}, this worker "
            f"speaks {error.local_version} — upgrade the older side"
        ) from None
    except (TransportError, ProtocolError):
        transport.close()
        return True
    if not isinstance(config_reply, ConfigReply):
        transport.close()
        return True
    try:
        config = pickle.loads(config_reply.world)
        # ``extra_shards`` (protocol v4) multiplexes several shard
        # worlds behind this one channel; a singleton assignment keeps
        # the historical one-world serve loop.
        indices = (config_reply.shard_index, *config_reply.extra_shards)
        servers = [
            ShardServer(config, index, config_reply.resume_round)
            for index in indices
        ]
    except BaseException:
        try:
            transport.send(ErrorReply(traceback.format_exc()))
        except TransportError:
            pass
        transport.close()
        return True
    if len(servers) == 1:
        handler = servers[0].handle
    else:
        handler = _MuxShardServer(servers).handle
    serve_requests(transport, handler)
    transport.close()
    return True


def run_socket_worker(
    address: Tuple[str, int],
    *,
    connect_retries: int = 50,
    retry_delay: float = 0.1,
    retry_policy: Optional[RetryPolicy] = None,
) -> int:
    """Serve shard worlds for parents at ``address`` until none remain.

    The remote half of ``--backend socket --listen``: run this (or
    ``python -m repro.experiments --connect HOST:PORT``) on each worker
    machine; every time a :class:`SocketBackend` binds the address the
    worker connects, serves one shard world to completion, then loops
    back to wait for the next (an experiment run constructs one
    backend per workload cell).  Exits once no parent accepts a
    connection within the retry window.

    Returns:
        How many parent connections were served (one per shard world,
        plus any handshakes that ended without an assignment).

    ``retry_policy`` shapes the per-iteration reconnect schedule (the
    same deterministic backoff the parent-side supervisor sleeps by);
    left ``None``, each iteration uses the historical fixed
    ``connect_retries`` × ``retry_delay`` schedule.
    """
    served = 0
    while serve_shard_over_socket(
        address,
        connect_retries=connect_retries,
        retry_delay=retry_delay,
        retry_policy=retry_policy,
    ):
        served += 1
    return served


def _socket_worker_main(address: Tuple[str, int]) -> None:
    """Spawned-process entry point: serve exactly one world."""
    serve_shard_over_socket(address)


def _resolve_start_method(start_method: Optional[str]) -> str:
    if start_method is not None:
        return start_method
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def spawn_socket_workers(
    address: Tuple[str, int],
    count: int,
    *,
    start_method: Optional[str] = None,
    worlds_per_worker: int = 1,
) -> List:
    """Spawn local worker processes serving ``count`` shards at ``address``.

    The loopback deployment (what ``backend="socket"`` does by default,
    and what CI exercises): same wire protocol, same TCP transport,
    all on one box.  Each worker connects once, serves the worlds the
    parent's handshake assigns it, and exits.

    ``worlds_per_worker`` is the mux knob: with ``M > 1`` only
    ``ceil(count / M)`` worker processes are spawned — the parent
    assigns each up to ``M`` shard worlds behind one multiplexed
    channel (the realistic fewer-boxes-than-shards deployment), so
    per-round wire traffic drops from one frame pair per *world* to
    one per *worker*.

    All-or-nothing: if worker ``k`` fails to start, the ``k-1``
    already running are terminated and reaped before the error
    propagates — a failed spawn must not leak processes for the caller
    (who never saw the list) to clean up.
    """
    if worlds_per_worker < 1:
        raise SimulationError("worlds_per_worker must be >= 1")
    processes = -(-count // worlds_per_worker)  # ceil division
    context = multiprocessing.get_context(_resolve_start_method(start_method))
    workers = []
    try:
        for _ in range(processes):
            worker = context.Process(
                target=_socket_worker_main, args=(address,), daemon=True
            )
            worker.start()
            workers.append(worker)
    except BaseException:
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join(timeout=2.0)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.kill()
        raise
    return workers


# ----------------------------------------------------------------------
# the parent side: the shared driver
# ----------------------------------------------------------------------
class TransportBackend(ShardBackend):
    """Shard execution composed from protocol + transports + driver.

    This is the shared parent-side driver every backend is a thin
    composition of: it mirrors exactly the shard state the facade
    consults between steps — the shared clock, per-shard crash sets,
    shard exhaustion, and which adds are still in flight — so handle
    operations stay local, and cross-channel traffic is **one
    request/reply pair per shard per round** (a
    :class:`~repro.weakset.protocol.RoundRequest` carries the adds
    queued since the last tick; the reply carries completions, the
    crash set and the clock) plus one pair per shard per ``get``.

    Each exchange issues all shard requests first, then harvests one
    reply per shard (:func:`repro.weakset.transport.exchange_all`).
    When every channel is selectable and neither ``recover`` nor
    ``fault_plan`` is set, the backend keeps one long-lived selector
    and the harvest **overlaps**: replies are collected as they arrive
    rather than in fixed shard order, so a slow worker no longer
    serializes the harvest behind a fast one.  Replies are *processed*
    in canonical shard order regardless of arrival, so traces stay
    byte-identical for a fixed seed.

    With ``window > 1`` a multi-chunk :meth:`advance` goes further and
    **pipelines** the exchanges themselves: up to ``window`` round
    batches are encoded and sent before the oldest batch's replies are
    harvested, so the wire carries requests and replies concurrently
    and a worker can run straight into its next batch without waiting
    out the parent's fold-in.  Replies are still harvested and folded
    oldest-batch-first (each channel is FIFO), so the mirror updates —
    and therefore the traces — are byte-identical to ``window=1``; see
    :meth:`advance` for the death-mid-window story.

    Mux (socket backend only): ``worlds_per_worker > 1`` assigns one
    worker several shard worlds behind protocol-v4
    :class:`~repro.weakset.protocol.MuxRequest` /
    :class:`~repro.weakset.protocol.MuxReply` frames.  The driver keeps
    mirroring per *shard*; requests are wrapped per *worker* just
    before the wire and replies unwrapped right after, so the rest of
    this class never sees the difference.  :attr:`frame_pairs` counts
    wire frames, i.e. one per worker per exchange.

    Subclasses implement :meth:`_start` to create one
    :class:`~repro.weakset.transport.Transport` per worker channel
    (one per shard unless the subclass multiplexes) and any worker
    processes backing them.

    Failure model: by default a vanished worker or a worker-side error
    poisons the backend — the current round is half-applied and
    sibling replies may be unread, so every later call raises
    :class:`~repro.errors.SimulationError` instead of consuming stale
    state; :meth:`close` still reaps every worker.  With
    ``recover=True`` a :class:`~repro.weakset.supervisor.ShardSupervisor`
    turns worker death into respawn + deterministic replay instead
    (worker-side *errors* stay fail-closed — replay would repeat
    them), and :attr:`recovery_stats` reports what that cost.
    ``fault_plan`` wraps every transport in a
    :class:`~repro.weakset.faults.FaultyTransport` firing the plan's
    scheduled faults — the chaos harness the supervisor is tested
    against.  Both knobs drop the selector for the in-order harvest:
    deterministic per-shard detection matters more than harvest
    overlap when channels are expected to die (and a closed fd
    silently drops out of an epoll set).
    """

    def __init__(
        self,
        n: int,
        *,
        shards: int,
        environment_factory: EnvironmentFactory,
        crash_schedule: Optional[CrashSchedule],
        max_total_rounds: int,
        trace_mode: str,
        round_batch: int = 1,
        window: int = 1,
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        members: Optional[List[int]] = None,
    ):
        if round_batch < 1:
            raise SimulationError("round_batch must be >= 1")
        if window < 1:
            raise SimulationError("window must be >= 1")
        self.round_batch = round_batch
        self.window = window
        self.members = _resolve_members(shards, members)
        self.num_shards = len(self.members)
        shards = self.num_shards
        self.n = n
        self._history: List[tuple] = []
        #: structural wire-cost counters: driver exchanges issued, and
        #: request/reply frame pairs they carried (one per worker
        #: channel per exchange, direct channels included — so batching
        #: and mux visibly shrink ``frame_pairs`` per simulated round,
        #: independent of timing noise).  Shutdown, recovery and
        #: migration traffic is not counted.
        self.exchanges = 0
        self.frame_pairs = 0
        self._config = WorldConfig(
            n=n,
            environment_factory=environment_factory,
            crash_schedule=crash_schedule,
            max_total_rounds=max_total_rounds,
            trace_mode=trace_mode,
        )
        self._fault_plan = fault_plan
        self._retry_policy = retry_policy
        # An unsupervised run with faults injected (or an explicit
        # request deadline) must time out instead of hanging — a
        # dropped frame otherwise blocks the harvest forever.
        if retry_policy is not None and retry_policy.request_timeout is not None:
            self._request_timeout: Optional[float] = retry_policy.request_timeout
        elif fault_plan:
            self._request_timeout = 30.0
        else:
            self._request_timeout = None
        self._supervisor: Optional[ShardSupervisor] = None
        self._tokens = itertools.count()
        self._now = 0.0
        self._shard_exhausted = [False] * shards
        self._crashed: List[FrozenSet[int]] = [frozenset()] * shards
        self._pending: List[List[QueuedAdd]] = [[] for _ in range(shards)]
        self._records: Dict[int, AddRecord] = {}
        self._in_flight: Dict[Tuple[int, int], AddRecord] = {}
        self._closed = False
        self._failed = False
        self._transports: List[Transport] = []
        self._workers: List = []
        self._selector: Optional[selectors.BaseSelector] = None
        #: shard indices behind each worker channel (``_groups[c]`` are
        #: the shards channel ``c`` hosts, in sub-request order).  The
        #: identity mapping unless a subclass's ``_start`` multiplexes.
        self._groups: List[List[int]] = [[i] for i in range(shards)]
        self._mux = False
        try:
            self._start()
            if fault_plan:
                # fault schedules address *member ids* (== shard
                # indices until membership changes at runtime)
                self._transports = [
                    FaultyTransport(transport, self.members[index], fault_plan)
                    for index, transport in enumerate(self._transports)
                ]
            if recover:
                self._supervisor = ShardSupervisor(self, policy=retry_policy)
            self._open_selector()
        except BaseException:
            self.close()
            raise

    @abstractmethod
    def _start(self) -> None:
        """Create one transport per shard (and any backing workers)."""

    def _open_selector(self) -> None:
        """Register every channel with one long-lived selector, when
        the harvest may overlap: more than one channel, all selectable,
        and neither supervision nor fault injection on.  The per-round
        harvest is then a single poll instead of a register/unregister
        cycle; otherwise it stays in index order."""
        if (
            self._supervisor is None
            and not self._fault_plan
            and len(self._transports) > 1
            and all(t.fileno() is not None for t in self._transports)
        ):
            self._selector = selectors.DefaultSelector()
            for index, transport in enumerate(self._transports):
                self._selector.register(
                    transport.fileno(), selectors.EVENT_READ, index
                )

    # -- membership history ---------------------------------------------
    # The global operation history: the interleaving of issued adds and
    # lock-step ticks since construction.  A rebalance replays the
    # *owned* slice of this history into each rebuilt world — the same
    # seed-replay idea the supervisor uses for crash recovery, applied
    # to a membership change instead of a worker death.  Entries:
    #   ("add", token, pid, value, record)
    #   ("step", ticks)                      coalesced with the tail
    def _record_steps(self, ticks: int) -> None:
        if ticks < 1:
            return
        history = self._history
        if history and history[-1][0] == "step":
            history[-1] = ("step", history[-1][1] + ticks)
        else:
            history.append(("step", ticks))

    # -- supervision hooks -----------------------------------------------
    @property
    def recovery_stats(self) -> Optional[ShardRecoveryStats]:
        return self._supervisor.stats if self._supervisor is not None else None

    def _respawn(self, shard_index: int, *, resume_round: int = 0) -> Transport:
        """Start a replacement worker for slot ``shard_index``; return
        its raw (unwrapped) transport.

        Called by the supervisor after detecting worker death.  Slots
        are translated to member ids here (identical until runtime
        membership changes them), so subclasses implement only
        :meth:`_spawn_world`.  Raises
        :class:`~repro.errors.SimulationError` on a failed attempt
        (the supervisor retries under its backoff policy).
        """
        return self._spawn_world(
            self.members[shard_index], resume_round=resume_round
        )

    def _spawn_world(self, member: int, *, resume_round: int = 0) -> Transport:
        """Start a worker hosting ``member``'s world; return its raw
        transport.  The base backend has no idea how its subclass makes
        workers, so recovery and membership joins are only available
        where a subclass overrides this."""
        raise SimulationError(
            f"{type(self).__name__} cannot respawn shard workers"
        )

    def _install_transport(self, shard_index: int, raw: Transport) -> None:
        """Adopt a respawned worker's channel at ``shard_index``.

        When the slot holds a fault wrapper the *inner* channel is
        swapped so the shard's remaining scheduled faults survive the
        respawn; otherwise the transport is replaced outright.  (The
        supervised path never uses the shared selector, so there is no
        registration to fix up.)
        """
        current = self._transports[shard_index]
        if isinstance(current, FaultyTransport):
            current.replace_inner(raw)
        else:
            self._transports[shard_index] = raw

    # -- plumbing --------------------------------------------------------
    def _wire_requests(self, requests: List[object]) -> List[object]:
        """Per-shard requests -> per-channel requests (mux wrap)."""
        if not self._mux:
            return requests
        wire: List[object] = []
        for group in self._groups:
            if len(group) == 1:
                wire.append(requests[group[0]])
            else:
                wire.append(
                    MuxRequest(subs=tuple(requests[index] for index in group))
                )
        return wire

    def _unwire_replies(self, wire_replies: List[object]) -> List[object]:
        """Per-channel replies -> per-shard replies (mux unwrap).

        A worker-side :class:`~repro.weakset.protocol.ErrorReply` to a
        multiplexed request fans out to every shard the worker hosts
        (they all share the failed process); anything else that is not
        a matching :class:`~repro.weakset.protocol.MuxReply` poisons
        the backend — a desynchronized mux stream cannot be consumed.
        """
        if not self._mux:
            return wire_replies
        replies: List[object] = [None] * self.num_shards
        for group, wire_reply in zip(self._groups, wire_replies):
            if len(group) == 1:
                replies[group[0]] = wire_reply
            elif isinstance(wire_reply, ErrorReply):
                for index in group:
                    replies[index] = wire_reply
            elif (
                isinstance(wire_reply, MuxReply)
                and len(wire_reply.subs) == len(group)
            ):
                for index, sub in zip(group, wire_reply.subs):
                    replies[index] = sub
            else:
                self._failed = True
                raise SimulationError(
                    f"worker hosting shards {group} answered a multiplexed "
                    f"request with {type(wire_reply).__name__}"
                )
        return replies

    def _exchange(self, requests: List[object]) -> List[object]:
        """One round trip; replies in canonical shard order."""
        self.exchanges += 1
        self.frame_pairs += len(self._transports)
        if self._supervisor is not None:
            try:
                replies = self._supervisor.exchange(requests)
            except SimulationError:
                # recovery itself failed: the mirrors and the worlds
                # can no longer be trusted to agree, so fail closed
                # exactly like the unsupervised path.
                self._failed = True
                raise
        else:
            try:
                replies = self._unwire_replies(
                    exchange_all(
                        self._transports,
                        self._wire_requests(requests),
                        selector=self._selector,
                        timeout=self._request_timeout,
                    )
                )
            except TransportError as error:
                # A worker died mid-round: sibling replies may be
                # unread and the round half-applied; poison the
                # backend so later calls cannot consume stale state.
                self._failed = True
                raise SimulationError(
                    f"shard worker failed mid-round (round clock "
                    f"{self._now:g}): {error}"
                ) from None
        for shard_index, reply in enumerate(replies):
            if isinstance(reply, ErrorReply):
                self._failed = True
                raise SimulationError(
                    f"shard {shard_index} worker failed:\n{reply.message}"
                )
        return replies

    def _ensure_open(self) -> None:
        if self._closed:
            raise SimulationError("backend already closed")
        if self._failed:
            raise SimulationError(
                "backend failed (a shard world or its worker failed "
                "mid-exchange); construct a fresh cluster"
            )

    def _take_pending(self) -> List[Tuple[QueuedAdd, ...]]:
        batches = [tuple(batch) for batch in self._pending]
        self._pending = [[] for _ in range(self.num_shards)]
        return batches

    # -- ShardBackend ----------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    @property
    def exhausted(self) -> bool:
        return any(self._shard_exhausted)

    def begin_add(self, shard_index: int, pid: int, value: Hashable) -> AddRecord:
        self._ensure_open()
        # The shard cluster's checks, mirrored parent-side so a bad add
        # fails fast instead of poisoning a world mid-round (the pid
        # guard doubles the facade's, for direct backend users).
        if not 0 <= pid < self.n:
            raise SimulationError(f"no process {pid}")
        if pid in self._crashed[shard_index]:
            raise SimulationError(f"add on crashed process {pid}")
        in_flight = self._in_flight.get((shard_index, pid))
        if in_flight is not None and in_flight.end is None:
            raise ProtocolMisuse("add while a previous add is still blocked")
        token = next(self._tokens)
        record = AddRecord(pid=pid, value=value, start=self._now)
        self._records[token] = record
        self._in_flight[(shard_index, pid)] = record
        self._pending[shard_index].append((token, pid, value))
        self._history.append(("add", token, pid, value, record))
        return record

    def step(self) -> bool:
        self._ensure_open()
        requests = [RoundRequest(adds=batch) for batch in self._take_pending()]
        return self._apply_step_replies(self._exchange(requests))

    def step_batch(self, rounds: int) -> Tuple[int, bool]:
        """Advance up to ``rounds`` ticks with **one frame pair per worker**.

        The round-batched exchange: queued adds ride with the batch
        (applying before its first tick, exactly where a run of
        single-round frames would apply them), completions come back
        with their simulated-time end stamps, and the workers stop
        early in lock-step when a world dies mid-batch (a divergence
        in executed counts — impossible for the shared horizon and
        crash schedule every shard world applies — poisons the
        backend rather than desynchronizing the clocks).
        """
        if rounds < 1:
            raise SimulationError("step_batch needs rounds >= 1")
        if rounds == 1:
            return 1, self.step()
        self._ensure_open()
        requests = [
            StepBatchRequest(rounds=rounds, adds=batch)
            for batch in self._take_pending()
        ]
        replies = self._exchange(requests)
        executed_counts = {reply.executed for reply in replies}
        if len(executed_counts) != 1:
            self._failed = True
            raise SimulationError(
                "shard worlds diverged mid-batch: executed counts "
                f"{sorted(executed_counts)} (same horizon and crash schedule "
                "should stop every shard at the same tick)"
            )
        return executed_counts.pop(), self._apply_step_replies(replies)

    # -- runtime membership ----------------------------------------------
    def apply_membership(
        self,
        new_members: List[int],
        route_old: Callable[[Hashable], int],
        route_new: Callable[[Hashable], int],
    ) -> RebalanceStats:
        """Rebalance the live worker fleet onto ``new_members``.

        The facade calls this between advances, so the transport window
        is already quiescent (no exchange in flight).  Leaving members'
        workers are stopped; every member whose owned-value set changes
        (plus every joined member) gets its world **reset and replayed**
        from the rewritten global history — the same seed-replay the
        supervisor uses for crash recovery, carried by the protocol-v5
        :class:`~repro.weakset.protocol.MigrateRequest` /
        :class:`~repro.weakset.protocol.MigrateReply` handshake — so
        the rebalanced cluster is byte-identical to one *constructed*
        with the new membership and driven through the same schedule.

        Migration traffic is not a driver exchange: it does not bump
        :attr:`exchanges`/:attr:`frame_pairs`, and scheduled faults fire
        on it only when tagged ``phase="rebalance"``
        (:meth:`~repro.weakset.faults.FaultyTransport.rebalancing`).
        With ``recover=True`` a worker killed mid-migration is respawned
        under the supervisor's backoff policy and its replay re-driven
        from scratch; without supervision a mid-migration death poisons
        the backend exactly like a mid-round death.
        """
        started = time.perf_counter()
        self._ensure_open()
        if self._mux:
            raise SimulationError(
                "runtime membership needs one shard world per worker "
                "channel; worlds_per_worker > 1 multiplexes several"
            )
        if self.exhausted:
            raise SimulationError(
                "cannot change membership once a shard world is exhausted"
            )
        pending_tokens = frozenset(
            token for batch in self._pending for token, _pid, _value in batch
        )
        plan = _plan_rebalance(
            self.members,
            new_members,
            self._history,
            route_old,
            route_new,
            pending_tokens,
        )
        old_members = list(self.members)
        replay_lists = {
            member: _member_replay_requests(
                self._history, member, route_new, pending_tokens
            )
            for member in plan.rebuilt
        }

        # 1. stop the leaving members' workers.  Like close(), the stop
        #    handshake is quiet: unfired scheduled faults must not fire
        #    on (or count) it.
        transports_by_member = dict(zip(old_members, self._transports))
        for member in plan.removed:
            transport = transports_by_member.pop(member)
            with contextlib.ExitStack() as stack:
                suspend = getattr(transport, "suspended", None)
                if suspend is not None:
                    stack.enter_context(suspend())
                try:
                    transport.send(StopRequest())
                    if transport.poll(1.0):
                        transport.recv()
                except (TransportError, ProtocolError):
                    pass
            transport.close()

        # 2. joined members get fresh workers; existing rebuilt members
        #    keep their channel and are reset in place by the migrate
        #    handshake inside the replay drive.
        needs_migrate: Dict[int, bool] = {}
        for member in plan.rebuilt:
            if member in transports_by_member:
                needs_migrate[member] = True
            else:
                raw = self._spawn_world(member)
                if self._fault_plan:
                    raw = FaultyTransport(raw, member, self._fault_plan)
                transports_by_member[member] = raw
                needs_migrate[member] = False

        # 3. replay each rebuilt member's rewritten history.
        completions: Dict[int, float] = {}
        crashed_by_member: Dict[int, FrozenSet[int]] = {}
        replayed_ticks = 0
        for member in plan.rebuilt:
            ticks, crashed_set, final_now, member_completions = (
                self._rebuild_world(
                    member,
                    transports_by_member,
                    replay_lists[member],
                    needs_migrate[member],
                )
            )
            replayed_ticks += ticks
            crashed_by_member[member] = crashed_set
            completions.update(member_completions)
            if final_now != self._now and (ticks or self._now):
                self._failed = True
                raise SimulationError(
                    f"rebuilt world for member {member} replayed to round "
                    f"{final_now:g}; the cluster is at {self._now:g}"
                )

        # 4. settle add records.  A rebuilt world's replay is the
        #    authoritative timeline for every value it now owns: each
        #    such record takes the replayed completion stamp — a no-op
        #    for values that did not move, the new owner's timeline for
        #    moved ones, exactly what a fresh post-change cluster
        #    stamps — and records the replay left open are reset to
        #    ``None`` and re-tracked so their later completion is
        #    recognized rather than rejected as an unknown token.
        rebuilt_set = set(plan.rebuilt)
        for entry in self._history:
            if entry[0] != "add":
                continue
            _kind, token, pid, value, record = entry
            if token in pending_tokens or route_new(value) not in rebuilt_set:
                continue
            record.end = completions.get(token)
            if record.end is None:
                self._records[token] = record
            else:
                self._records.pop(token, None)

        # 5. adopt the new membership across every parent-side mirror.
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        old_crashed = dict(zip(old_members, self._crashed))
        old_logs: Dict[int, List[object]] = (
            dict(zip(old_members, self._supervisor._logs))
            if self._supervisor is not None
            else {}
        )
        self.members = list(new_members)
        self.num_shards = len(self.members)
        slot_of = {member: slot for slot, member in enumerate(self.members)}
        self._transports = [transports_by_member[m] for m in self.members]
        self._groups = [[i] for i in range(self.num_shards)]
        self._shard_exhausted = [False] * self.num_shards
        self._crashed = [
            crashed_by_member.get(m, old_crashed.get(m, frozenset()))
            for m in self.members
        ]
        self._pending = [[] for _ in range(self.num_shards)]
        self._in_flight = {}
        for entry in self._history:
            if entry[0] != "add":
                continue
            _kind, token, pid, value, record = entry
            slot = slot_of[route_new(value)]
            if token in pending_tokens:
                self._pending[slot].append((token, pid, value))
            if record.end is None:
                self._in_flight[(slot, pid)] = record
        self._open_selector()
        if self._supervisor is not None:
            self._supervisor.reset_membership(
                [
                    list(replay_lists[m]) if m in rebuilt_set
                    else old_logs.get(m, [])
                    for m in self.members
                ]
            )
        return RebalanceStats(
            joined=tuple(plan.joined),
            left=tuple(plan.removed),
            moved_values=plan.moved_values,
            rebuilt_members=tuple(plan.rebuilt),
            replayed_ticks=replayed_ticks,
            wall_clock=time.perf_counter() - started,
        )

    def _rebuild_world(
        self,
        member: int,
        transports_by_member: Dict[int, Transport],
        requests: List[object],
        migrate: bool,
    ) -> Tuple[int, FrozenSet[int], float, Dict[int, float]]:
        """Reset ``member``'s world and drive its replay, healing worker
        death under the supervisor's backoff when supervision is on.

        Returns ``(ticks, crashed, final_now, completions)``.  A fresh
        respawn needs no migrate frame (its world starts empty), so the
        retry re-drives the request list directly, discarding any
        partial completions from the failed attempt.
        """
        supervisor = self._supervisor
        attempts = supervisor.policy.attempts if supervisor is not None else 1
        delays = (
            supervisor.policy.backoff("rebalance", member)
            if supervisor is not None
            else iter(())
        )
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(next(delays))
            transport = transports_by_member[member]
            try:
                result = self._drive_rebuild(transport, member, migrate, requests)
            except (TransportError, ProtocolError) as error:
                last_error = error
                if supervisor is None:
                    self._failed = True
                    raise SimulationError(
                        f"shard worker for member {member} died "
                        f"mid-migration: {error}"
                    ) from None
                supervisor.stats.detections += 1
                try:
                    raw = self._spawn_world(member)
                except SimulationError as spawn_error:
                    last_error = spawn_error
                    continue
                if isinstance(transport, FaultyTransport):
                    transport.replace_inner(raw)
                else:
                    transport.close()
                    transports_by_member[member] = raw
                supervisor.stats.respawns += 1
                supervisor.stats.recovered_shards.append(member)
                migrate = False  # the replacement world starts fresh
                continue
            if attempt and supervisor is not None:
                ticks = result[0]
                supervisor.stats.replayed_rounds += ticks
            return result
        self._failed = True
        raise SimulationError(
            f"worker for member {member} died mid-migration and could not "
            f"be recovered after {attempts} attempt(s): {last_error}"
        )

    def _drive_rebuild(
        self,
        transport: Transport,
        member: int,
        migrate: bool,
        requests: List[object],
    ) -> Tuple[int, FrozenSet[int], float, Dict[int, float]]:
        """One attempt at the migrate handshake + history replay."""
        ticks = 0
        crashed: FrozenSet[int] = frozenset()
        final_now = 0.0
        completions: Dict[int, float] = {}
        rebalancing = getattr(transport, "rebalancing", None)
        context = (
            rebalancing() if rebalancing is not None
            else contextlib.nullcontext()
        )
        with context:
            if migrate:
                reply = self._rebuild_exchange(
                    transport,
                    member,
                    MigrateRequest(
                        shard_index=member, resume_round=int(self._now)
                    ),
                )
                if not isinstance(reply, MigrateReply) or reply.now != 0.0:
                    self._failed = True
                    raise SimulationError(
                        f"member {member} answered the migrate request "
                        f"with {type(reply).__name__}"
                    )
            for request in requests:
                reply = self._rebuild_exchange(transport, member, request)
                if isinstance(reply, StepBatchReply):
                    completions.update(dict(reply.completions))
                    crashed = reply.crashed
                    final_now = reply.now
                    ticks += reply.executed
                elif isinstance(reply, PeekReply):
                    pass  # trailing-adds delivery frame; nothing to fold
                else:
                    self._failed = True
                    raise SimulationError(
                        f"member {member} answered a replay request with "
                        f"{type(reply).__name__}"
                    )
        return ticks, crashed, final_now, completions

    def _rebuild_exchange(
        self, transport: Transport, member: int, request: object
    ) -> object:
        transport.send(request)
        timeout = self._request_timeout
        if timeout is None and self._supervisor is not None:
            timeout = 30.0
        if timeout is not None and not transport.poll(timeout):
            raise TransportError(
                f"member {member}: no migration reply within {timeout:g}s"
            )
        reply = transport.recv()
        if isinstance(reply, ErrorReply):
            # deterministic worker-side error: replaying would repeat
            # it, so fail closed rather than let the supervisor retry
            self._failed = True
            raise SimulationError(
                f"member {member} failed while replaying its world:\n"
                f"{reply.message}"
            )
        return reply

    # -- the pipelined (windowed) driver ---------------------------------
    def advance(self, rounds: int) -> int:
        """Run up to ``rounds`` ticks, keeping ``window`` batches in flight.

        With ``window=1`` this is exactly the base chunk loop: send a
        round batch, harvest it, fold it, repeat.  With ``window=W>1``
        the driver sends up to ``W`` batches before harvesting the
        oldest — the wire (and the workers) stay busy while the parent
        folds replies, hiding the per-batch round trip that made
        batching a timing no-op.

        Determinism is preserved by construction:

        * queued adds ride only with the **first** batch (the facade
          cannot queue adds mid-``advance``), so every later batch is
          the empty-adds frame an unpipelined run would send;
        * channels are FIFO and batches are harvested and folded
          oldest-first, so the mirror update sequence — and therefore
          every trace — is byte-identical across window sizes;
        * when a batch reports a dead world, the remaining in-flight
          batches were **speculative**: the workers answered them with
          no-op dead replies (see :meth:`ShardServer._dead_round_reply`)
          that this driver drains off the wire and discards, leaving
          worlds and mirrors exactly where an unpipelined run stops.

        Supervised (``recover=True``) runs route sends and harvests
        through the supervisor's window API instead: a worker death
        mid-window is healed by replaying to the last *acknowledged*
        batch and re-issuing the whole in-flight suffix
        (:meth:`~repro.weakset.supervisor.ShardSupervisor.harvest_window`).
        """
        if self.window == 1:
            return super().advance(rounds)
        self._ensure_open()
        chunks: List[int] = []
        remaining = rounds
        while remaining > 0:
            size = min(self.round_batch, remaining)
            chunks.append(size)
            remaining -= size
        in_flight: deque = deque()
        executed_total = 0
        alive = True
        sent = 0
        while sent < len(chunks) or in_flight:
            while alive and sent < len(chunks) and len(in_flight) < self.window:
                size = chunks[sent]
                in_flight.append((size, self._window_send(size)))
                sent += 1
            if not in_flight:
                break  # world died with unsent chunks: abandon them
            size, deadlines = in_flight.popleft()
            replies = self._window_harvest(deadlines)
            if not alive:
                continue  # speculative batch behind a death: discard
            executed, alive = self._fold_chunk(size, replies)
            executed_total += executed
        return executed_total

    def _window_send(self, size: int) -> Optional[List[float]]:
        """Send one round batch to every shard; per-request deadlines."""
        batches = self._take_pending()
        if size == 1:
            requests: List[object] = [
                RoundRequest(adds=batch) for batch in batches
            ]
        else:
            requests = [
                StepBatchRequest(rounds=size, adds=batch) for batch in batches
            ]
        self.exchanges += 1
        self.frame_pairs += len(self._transports)
        if self._supervisor is not None:
            self._supervisor.send_window(requests)
            return None
        try:
            return send_all(
                self._transports,
                self._wire_requests(requests),
                timeout=self._request_timeout,
            )
        except TransportError as error:
            self._failed = True
            raise SimulationError(
                f"shard worker failed mid-round (round clock "
                f"{self._now:g}): {error}"
            ) from None

    def _window_harvest(self, deadlines: Optional[List[float]]) -> List[object]:
        """Harvest the oldest in-flight batch, one reply per shard."""
        if self._supervisor is not None:
            try:
                replies = self._supervisor.harvest_window()
            except SimulationError:
                self._failed = True
                raise
            return replies
        try:
            wire_replies = harvest_all(
                self._transports,
                selector=self._selector,
                deadlines=deadlines,
                timeout=self._request_timeout,
            )
        except TransportError as error:
            self._failed = True
            raise SimulationError(
                f"shard worker failed mid-round (round clock "
                f"{self._now:g}): {error}"
            ) from None
        return self._unwire_replies(wire_replies)

    def _fold_chunk(self, size: int, replies: List[object]) -> Tuple[int, bool]:
        """Fold one harvested batch into the mirrors (canonical order)."""
        for shard_index, reply in enumerate(replies):
            if isinstance(reply, ErrorReply):
                self._failed = True
                raise SimulationError(
                    f"shard {shard_index} worker failed:\n{reply.message}"
                )
        if size == 1:
            return 1, self._apply_step_replies(replies)
        executed_counts = {reply.executed for reply in replies}
        if len(executed_counts) != 1:
            self._failed = True
            raise SimulationError(
                "shard worlds diverged mid-batch: executed counts "
                f"{sorted(executed_counts)} (same horizon and crash schedule "
                "should stop every shard at the same tick)"
            )
        return executed_counts.pop(), self._apply_step_replies(replies)

    def _apply_step_replies(self, replies: List[object]) -> bool:
        """Fold round/batch replies into the parent-side mirrors.

        Two integrity guards stand between the wire and the mirrors,
        both aimed at a *stale or replayed* reply (e.g. an injected
        duplicate frame surfacing one exchange late): a completion
        token the parent is not waiting for, and shard clocks that
        disagree after a lock-step tick.  Either poisons the backend —
        a desynchronized reply stream cannot be consumed safely.
        """
        alive = True
        clocks = {reply.now for reply in replies}
        if len(clocks) > 1:
            self._failed = True
            raise SimulationError(
                f"shard clocks diverged after a lock-step tick: "
                f"{sorted(clocks)} (a stale or duplicated reply is being "
                "consumed)"
            )
        self._record_steps(getattr(replies[0], "executed", 1))
        for shard_index, reply in enumerate(replies):
            for token, end in reply.completions:
                record = self._records.pop(token, None)
                if record is None:
                    self._failed = True
                    raise SimulationError(
                        f"shard {shard_index} completed unknown add token "
                        f"{token} (round clock {self._now:g}): a stale or "
                        "duplicated reply is being consumed"
                    )
                if record.end is None:
                    # keep the first observed completion stamp: after a
                    # rebalance replay re-tracks an already-completed
                    # moved add, the rebuilt world re-reports it — the
                    # original (already observed) stamp wins
                    record.end = end
            self._crashed[shard_index] = reply.crashed
            if shard_index == 0:
                self._now = reply.now
            if not reply.alive:
                self._shard_exhausted[shard_index] = True
                alive = False
        return alive

    def crashed(self, shard_index: int, pid: int) -> bool:
        return pid in self._crashed[shard_index]

    def local_views(self, pid: int) -> List[Tuple[bool, FrozenSet[Hashable]]]:
        self._ensure_open()
        requests = [
            PeekRequest(pid=pid, adds=batch) for batch in self._take_pending()
        ]
        replies = self._exchange(requests)
        return [(reply.crashed, reply.proposed) for reply in replies]

    def traces(self) -> List[RunTrace]:
        self._ensure_open()
        replies = self._exchange(
            [TraceRequest() for _ in range(self.num_shards)]
        )
        return [reply.trace for reply in replies]

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._selector is not None:
            self._selector.close()
            self._selector = None
        with contextlib.ExitStack() as stack:
            for transport in self._transports:
                # shutdown traffic is not a driver exchange: unfired
                # scheduled faults must not fire on (or count) the
                # stop handshake.
                suspend = getattr(transport, "suspended", None)
                if suspend is not None:
                    stack.enter_context(suspend())
            for transport in self._transports:
                try:
                    transport.send(StopRequest())
                except TransportError:
                    pass
            for transport in self._transports:
                try:
                    # drain the stop ack (or an in-flight error)
                    if transport.poll(1.0):
                        transport.recv()
                except (TransportError, ProtocolError):
                    pass
                transport.close()
        self._reap()

    def _reap(self) -> None:
        """Release anything beyond the transports (workers, listeners).

        Escalates rather than hangs: join politely, terminate
        (SIGTERM) a laggard, and if it *still* holds on — a wedged
        child blocking a whole test run — kill (SIGKILL) it and log,
        because ``close()`` returning trumps a graceful child exit.
        """
        for worker in self._workers:
            worker.join(timeout=2.0)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=2.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=2.0)
                _logger.warning(
                    "shard worker pid=%s ignored terminate; killed it",
                    getattr(worker, "pid", "?"),
                )

    def __del__(self) -> None:  # pragma: no cover - defensive
        try:
            self.close()
        except Exception:
            pass


class SerialBackend(TransportBackend):
    """All shard worlds in this process, with no codec in between.

    The shared driver over one
    :class:`~repro.weakset.transport.DirectTransport` per world: each
    world is a :class:`ShardServer` answering request objects in
    process, stepped in shard order.  A world's exception becomes an
    :class:`~repro.weakset.protocol.ErrorReply`, so this backend fails
    closed exactly like the others.  Supervision and fault injection
    target worker processes and wires, which a serial run does not
    have, so asking for them here is a configuration error.
    """

    def __init__(
        self,
        n: int,
        *,
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        **options,
    ):
        if recover or fault_plan:
            raise SimulationError(
                "the serial backend has no workers to supervise or wires "
                "to fault; use inproc, multiprocess, or socket"
            )
        super().__init__(n, **options)

    def _start(self) -> None:
        self._servers: Dict[int, ShardServer] = {}
        for member in self.members:
            self._transports.append(self._spawn_world(member))

    def _spawn_world(self, member: int, *, resume_round: int = 0) -> Transport:
        server = ShardServer(self._config, member, resume_round)
        self._servers[member] = server
        return DirectTransport(server.handle)

    @property
    def clusters(self) -> List[MSWeakSetCluster]:
        """The live shard clusters, in slot order."""
        return [self._servers[member].cluster for member in self.members]


class InProcBackend(TransportBackend):
    """Every shard world in this process, behind the full wire stack.

    Functionally the serial backend (same worlds, same step sequence,
    byte-identical traces) but every operation round-trips the codec
    through :class:`~repro.weakset.transport.InProcTransport` — the
    cheapest way to exercise the protocol end-to-end, and a drop-in
    check that a workload's values survive the wire before pointing it
    at real processes or machines.
    """

    def _start(self) -> None:
        for member in self.members:
            self._transports.append(self._spawn_world(member))

    def _spawn_world(self, member: int, *, resume_round: int = 0) -> Transport:
        server = ShardServer(self._config, member, resume_round)
        return InProcTransport(server.handle)


class MultiprocessBackend(TransportBackend):
    """One worker process per shard, pipes carrying protocol frames.

    The composition: :func:`_pipe_worker` serves a
    :class:`ShardServer` over a
    :class:`~repro.weakset.transport.PipeTransport`; this class spawns
    the workers and drives them through the shared
    :class:`TransportBackend` loop.

    Determinism: a worker constructs its shard world from the same
    picklable ingredients the serial backend uses (``n``, the
    environment factory applied to the shard index, the crash schedule,
    horizon, trace mode), and every random decision inside derives from
    keyed streams stable across processes — so for a fixed seed the
    shard traces are byte-identical to :class:`SerialBackend`'s.

    Start method: ``fork`` where available (environment factories may
    close over anything), ``spawn`` otherwise — under ``spawn`` the
    factory and crash schedule must be picklable, so prefer
    module-level factory functions or dataclass-style callables such as
    :class:`repro.sim.workloads.ChurnEnvironments`.

    Workers are real OS processes: call :meth:`close` (or use the
    owning cluster as a context manager) when done.
    """

    def __init__(
        self,
        n: int,
        *,
        shards: int,
        environment_factory: EnvironmentFactory,
        crash_schedule: Optional[CrashSchedule],
        max_total_rounds: int,
        trace_mode: str,
        start_method: Optional[str] = None,
        round_batch: int = 1,
        window: int = 1,
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        members: Optional[List[int]] = None,
    ):
        self._context = multiprocessing.get_context(
            _resolve_start_method(start_method)
        )
        super().__init__(
            n,
            shards=shards,
            environment_factory=environment_factory,
            crash_schedule=crash_schedule,
            max_total_rounds=max_total_rounds,
            trace_mode=trace_mode,
            round_batch=round_batch,
            window=window,
            recover=recover,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            members=members,
        )

    def _start(self) -> None:
        self._shard_workers: Dict[int, object] = {}
        for member in self.members:
            self._transports.append(self._spawn_worker(member))

    def _spawn_worker(self, member: int, resume_round: int = 0) -> Transport:
        parent_conn, child_conn = self._context.Pipe()
        worker = self._context.Process(
            target=_pipe_worker,
            args=(child_conn, member, self._config, resume_round),
            daemon=True,
        )
        worker.start()
        child_conn.close()
        self._workers.append(worker)
        self._shard_workers[member] = worker
        return PipeTransport(parent_conn)

    def _spawn_world(self, member: int, *, resume_round: int = 0) -> Transport:
        # The superseded worker stays in ``_workers`` for the final
        # reap, but is terminated NOW if still running: under ``fork``,
        # sibling workers inherit copies of its pipe's parent end, so a
        # channel-severing fault alone never delivers the EOF that
        # would make it exit — without this it lingers until close()'s
        # escalation timeout.
        old = self._shard_workers.get(member)
        if old is not None and old.is_alive():
            old.terminate()
        try:
            return self._spawn_worker(member, resume_round)
        except OSError as error:  # pragma: no cover - resource exhaustion
            raise SimulationError(
                f"could not respawn worker for member {member}: {error}"
            ) from None


class SocketBackend(TransportBackend):
    """Shard workers over TCP: the multi-machine composition.

    By default (``listen=None``) the backend binds an ephemeral
    loopback port and spawns its own local workers
    (:func:`spawn_socket_workers`) — the CI-testable single-box mode,
    wire-identical to a real deployment.  With ``listen=(host, port)``
    it binds there and waits for ``shards`` **external** workers to
    connect (run :func:`run_socket_worker` — or ``python -m
    repro.experiments --connect HOST:PORT`` — on each worker machine);
    shard indices are assigned in accept order, any worker can serve
    any shard.

    Bootstrap: each accepted worker sends a
    :class:`~repro.weakset.protocol.HelloRequest` (the frame header
    version-checks the peer) and receives its shard assignment plus
    the pickled world configuration — see the protocol module's trust
    note — after which the conversation is exactly the four round-trip
    message types every backend speaks.

    Attributes:
        address: the bound ``(host, port)`` once constructed.
    """

    def __init__(
        self,
        n: int,
        *,
        shards: int,
        environment_factory: EnvironmentFactory,
        crash_schedule: Optional[CrashSchedule],
        max_total_rounds: int,
        trace_mode: str,
        listen: Optional[Tuple[str, int]] = None,
        start_method: Optional[str] = None,
        accept_timeout: float = 30.0,
        round_batch: int = 1,
        window: int = 1,
        worlds_per_worker: int = 1,
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        members: Optional[List[int]] = None,
    ):
        if worlds_per_worker < 1:
            raise SimulationError("worlds_per_worker must be >= 1")
        if worlds_per_worker > 1 and (recover or fault_plan):
            # Supervision and fault injection are per-shard-channel
            # features: respawn-and-replay rebuilds ONE world per
            # channel, and fault schedules address one shard's wire.
            # A worker hosting several worlds has neither granularity.
            raise SimulationError(
                "worlds_per_worker > 1 multiplexes several shard worlds "
                "behind one channel, which cannot be supervised or "
                "fault-injected per shard; drop recover/fault_plan or "
                "use worlds_per_worker=1"
            )
        self._worlds_per_worker = worlds_per_worker
        self._listen = listen
        self._start_method = start_method
        self._accept_timeout = accept_timeout
        self._listener: Optional[socket.socket] = None
        self.address: Optional[Tuple[str, int]] = None
        super().__init__(
            n,
            shards=shards,
            environment_factory=environment_factory,
            crash_schedule=crash_schedule,
            max_total_rounds=max_total_rounds,
            trace_mode=trace_mode,
            round_batch=round_batch,
            window=window,
            recover=recover,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            members=members,
        )

    def _start(self) -> None:
        address = self._listen if self._listen is not None else ("127.0.0.1", 0)
        try:
            self._listener = socket.create_server(address)
        except OSError as error:
            raise SimulationError(
                f"cannot listen on {address[0]}:{address[1]}: {error}"
            ) from None
        self.address = self._listener.getsockname()[:2]
        per = self._worlds_per_worker
        self._groups = [
            list(range(start, min(start + per, self.num_shards)))
            for start in range(0, self.num_shards, per)
        ]
        self._mux = any(len(group) > 1 for group in self._groups)
        if self._listen is None:
            self._workers = spawn_socket_workers(
                self.address,
                self.num_shards,
                start_method=self._start_method,
                worlds_per_worker=per,
            )
        self._listener.settimeout(self._accept_timeout)
        self._world_blob = pickle.dumps(self._config)
        for group in self._groups:
            # handshakes carry *member ids* (world identity/seed), not
            # slots — identical until runtime membership changes them
            self._transports.append(
                self._accept_worker(
                    self.members[group[0]],
                    extra_shards=tuple(self.members[s] for s in group[1:]),
                )
            )

    def _accept_worker(
        self,
        shard_index: int,
        resume_round: int = 0,
        extra_shards: Tuple[int, ...] = (),
    ) -> Transport:
        """Accept one worker connection and run the hello/config
        handshake for ``shard_index``; the transport is closed here on
        any handshake failure (the caller never sees it)."""
        try:
            sock, _peer = self._listener.accept()
        except socket.timeout:
            raise SimulationError(
                f"worker for shard {shard_index} did not connect within "
                f"{self._accept_timeout:.0f}s (listening on "
                f"{self.address[0]}:{self.address[1]})"
            ) from None
        sock.settimeout(self._accept_timeout)
        transport = SocketTransport(sock)
        try:
            try:
                hello = transport.recv()
            except (TransportError, ProtocolError) as error:
                raise SimulationError(
                    f"worker for shard {shard_index} failed the handshake: "
                    f"{error}"
                ) from None
            if not isinstance(hello, HelloRequest):
                raise SimulationError(
                    f"worker for shard {shard_index} opened with "
                    f"{type(hello).__name__}, expected HelloRequest"
                )
            try:
                transport.send(
                    ConfigReply(
                        shard_index=shard_index,
                        world=self._world_blob,
                        resume_round=resume_round,
                        extra_shards=extra_shards,
                    )
                )
            except TransportError as error:
                raise SimulationError(
                    f"worker for shard {shard_index} vanished during the "
                    f"handshake: {error}"
                ) from None
        except BaseException:
            transport.close()
            raise
        sock.settimeout(None)
        return transport

    def _spawn_world(self, member: int, *, resume_round: int = 0) -> Transport:
        # Loopback mode spawns the replacement itself; in external mode
        # (``listen=``) :func:`run_socket_worker`'s loop re-offers the
        # surviving worker fleet, so the accept below is served by
        # whichever worker connects next.
        if self._listener is None:  # pragma: no cover - defensive
            raise SimulationError("socket backend already closed")
        if self._listen is None:
            self._workers.extend(
                spawn_socket_workers(
                    self.address, 1, start_method=self._start_method
                )
            )
        return self._accept_worker(member, resume_round)

    def _reap(self) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        super()._reap()


#: backend name -> constructor; the facade resolves ``backend=`` here.
BACKENDS = {
    "serial": SerialBackend,
    "inproc": InProcBackend,
    "multiprocess": MultiprocessBackend,
    "socket": SocketBackend,
}


def parse_address(text: str) -> Tuple[str, int]:
    """Parse ``"HOST:PORT"`` into an address tuple.

    The one address syntax shared by the backend spec, the CLI's
    ``--listen``/``--connect`` flags, and :func:`run_socket_worker`
    callers.

    Example:
        >>> parse_address("0.0.0.0:7000")
        ('0.0.0.0', 7000)
    """
    host, _sep, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise SimulationError(f"bad address {text!r}; expected HOST:PORT")
    return host, int(port)


def parse_backend_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    """Split a backend spec string into ``(name, constructor options)``.

    ``"socket:HOST:PORT"`` selects the socket backend bound to an
    explicit listen address (external workers); every other name takes
    no options.

    Example:
        >>> parse_backend_spec("multiprocess")
        ('multiprocess', {})
        >>> parse_backend_spec("socket:0.0.0.0:7000")
        ('socket', {'listen': ('0.0.0.0', 7000)})
    """
    name, _sep, rest = spec.partition(":")
    if not rest:
        return name, {}
    if name != "socket":
        raise SimulationError(
            f"backend {name!r} takes no options (got {spec!r})"
        )
    try:
        listen = parse_address(rest)
    except SimulationError:
        raise SimulationError(
            f"bad socket backend spec {spec!r}; expected socket:HOST:PORT"
        ) from None
    return name, {"listen": listen}


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
class ShardedWeakSetHandle(WeakSet):
    """One process's view of the sharded weak-set (union of shards)."""

    def __init__(self, cluster: "ShardedWeakSetCluster", pid: int):
        self._cluster = cluster
        self.pid = pid

    def add(self, value: Hashable) -> None:
        """Blocking add: returns once the owning shard wrote the value."""
        self._cluster._blocking_add(self.pid, value)

    def add_async(self, value: Hashable) -> AddRecord:
        """Start an add on the owning shard; completes as rounds advance."""
        return self._cluster.begin_add(self.pid, value)

    def get(self) -> FrozenSet[Hashable]:
        """The union of every shard's local ``PROPOSED``, instantly."""
        return self._cluster._instant_get(self.pid)


class ShardedWeakSetCluster:
    """``K`` independent MS weak-set groups behind one handle API.

    Args:
        n: processes per shard group.
        shards: number of value-partitioned shard groups.
        environment_factory: per-shard environment builder
            (shard index -> :class:`~repro.giraf.environments.Environment`);
            defaults to a fresh MS environment per shard.  Must be
            picklable for the multiprocess and socket backends.
        crash_schedule: shared adversary crash schedule (every shard
            world applies the same one, so crash state agrees across
            shards).
        max_total_rounds: per-shard round horizon.
        trace_mode: ``"full"`` or ``"aggregate"``, forwarded to every
            shard's scheduler.
        backend: ``"serial"`` (in-process, the default), ``"inproc"``
            (in-process behind the full wire protocol),
            ``"multiprocess"`` (one worker process per shard over
            pipes), ``"socket"`` (workers over loopback TCP, spawned
            automatically), or ``"socket:HOST:PORT"`` (bind there and
            wait for external workers — see :func:`run_socket_worker`);
            alternatively a constructed :class:`ShardBackend` instance,
            which must have been built for the same ``n`` and
            ``shards`` (checked) and supplies its own
            environments/crash schedule/horizon/trace mode (the
            facade's remaining arguments are not used then).
        start_method: optional ``multiprocessing`` start method for the
            multiprocess/socket backends (default: ``fork`` when
            available).
        round_batch: how many lock-step ticks :meth:`advance`
            coalesces into one backend exchange (one request/reply
            pair per worker channel).  Single ``step`` calls and
            blocking adds stay per-tick, so traces are identical
            across batch sizes for a fixed seed (pinned in
            ``tests/weakset/test_shard_backends.py``).  Default 1.
        window: how many round batches a multi-chunk :meth:`advance`
            keeps in flight — batch ``k+1`` is sent before batch
            ``k``'s replies are harvested, hiding the per-batch round
            trip on the wire backends (see
            :meth:`TransportBackend.advance`).  Traces are identical
            across window sizes for a fixed seed.  Default 1.
        worlds_per_worker: socket backend only — let one worker
            process host up to this many shard worlds behind one
            multiplexed channel (protocol-v4 ``MuxRequest`` frames),
            collapsing per-round wire traffic from one frame pair per
            *world* to one per *worker*.  Incompatible with
            ``recover``/``fault_plan`` (both are per-shard-channel
            features).  Default: one world per worker.
        recover: opt into worker supervision on the wire backends — a
            dead shard worker is respawned and its world replayed
            deterministically instead of poisoning the run (the final
            traces are byte-identical to an uninterrupted run; see
            :mod:`repro.weakset.supervisor`).  Default False: fail
            closed, exactly the historical behaviour.
        fault_plan: an optional
            :class:`~repro.weakset.faults.FaultPlan` — every shard
            channel is wrapped in a fault-injecting transport firing
            the plan's scheduled faults (chaos testing; wire backends
            only).
        retry_policy: optional
            :class:`~repro.weakset.supervisor.RetryPolicy` shaping
            recovery backoff and per-request reply deadlines.

    Example:
        >>> cluster = ShardedWeakSetCluster(3, shards=2)
        >>> cluster.handle(0).add("job-7")
        >>> sorted(cluster.handle(1).get())
        ['job-7']

        The transport backends are drop-in swaps (close them when done):

        >>> with ShardedWeakSetCluster(3, shards=2, backend="multiprocess") as mp:
        ...     mp.handle(0).add("job-7")
        ...     sorted(mp.handle(1).get())
        ['job-7']
    """

    def __init__(
        self,
        n: int,
        *,
        shards: int = 1,
        environment_factory: Optional[EnvironmentFactory] = None,
        crash_schedule: Optional[CrashSchedule] = None,
        max_total_rounds: int = 10_000,
        trace_mode: str = "full",
        backend: object = "serial",
        start_method: Optional[str] = None,
        round_batch: int = 1,
        window: int = 1,
        worlds_per_worker: Optional[int] = None,
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        members: Optional[List[int]] = None,
    ):
        if members is not None:
            resolved = _resolve_members(len(members), list(members))
            if shards not in (1, len(resolved)):
                raise SimulationError(
                    f"members={resolved} names {len(resolved)} shard worlds "
                    f"but shards={shards} was also given"
                )
            shards = len(resolved)
            members = resolved
        if shards < 1:
            raise SimulationError("need at least one shard")
        make_environment = environment_factory or _default_environment
        if isinstance(backend, ShardBackend):
            # A constructed backend brings its own world configuration;
            # reject silent conflicts with the facade's arguments (the
            # remaining construction knobs live inside the backend and
            # cannot be cross-checked — they are simply not used here).
            if backend.n != n or backend.num_shards != shards:
                raise SimulationError(
                    f"backend was built for n={backend.n}, "
                    f"shards={backend.num_shards}; the facade was asked for "
                    f"n={n}, shards={shards}"
                )
            if recover or fault_plan or retry_policy:
                raise SimulationError(
                    "recover/fault_plan/retry_policy are construction-time "
                    "backend knobs; pass them where the backend is built, "
                    "not alongside a constructed instance"
                )
            if window != 1 or worlds_per_worker is not None:
                raise SimulationError(
                    "window/worlds_per_worker are construction-time backend "
                    "knobs; pass them where the backend is built, not "
                    "alongside a constructed instance"
                )
            if members is not None:
                raise SimulationError(
                    "members is a construction-time backend knob; pass it "
                    "where the backend is built, not alongside a "
                    "constructed instance"
                )
            self._backend = backend
        else:
            kwargs: Dict[str, object] = {}
            name = backend
            if isinstance(backend, str):
                name, kwargs = parse_backend_spec(backend)
            try:
                backend_cls = BACKENDS[name]
            except (KeyError, TypeError):
                known = ", ".join(sorted(BACKENDS))
                raise SimulationError(
                    f"unknown backend {backend!r}; known: {known}"
                ) from None
            if backend_cls in (MultiprocessBackend, SocketBackend):
                kwargs["start_method"] = start_method
            if worlds_per_worker is not None:
                if backend_cls is not SocketBackend:
                    raise SimulationError(
                        "worlds_per_worker only applies to the socket "
                        f"backend (got backend {name!r}); the other "
                        "backends pin one world per channel"
                    )
                kwargs["worlds_per_worker"] = worlds_per_worker
            self._backend = backend_cls(
                n,
                shards=shards,
                environment_factory=make_environment,
                crash_schedule=crash_schedule,
                max_total_rounds=max_total_rounds,
                trace_mode=trace_mode,
                round_batch=round_batch,
                window=window,
                recover=recover,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                members=members,
                **kwargs,
            )
        self._n = self._backend.n
        self.log = OpLog()
        self._last_rebalance: Optional[RebalanceStats] = None
        self._refresh_ring()

    # -- facade plumbing -------------------------------------------------
    def _refresh_ring(self) -> None:
        members = getattr(self._backend, "members", None)
        if members is None:  # a custom backend predating membership
            members = list(range(self._backend.num_shards))
        self._ring = HashRing(members)
        self._slots = {member: slot for slot, member in enumerate(members)}

    @property
    def backend(self) -> ShardBackend:
        """The executing :class:`ShardBackend`."""
        return self._backend

    @property
    def num_shards(self) -> int:
        """How many shard groups partition the value space."""
        return self._backend.num_shards

    @property
    def shards(self) -> List[MSWeakSetCluster]:
        """The in-process shard clusters (serial backend only).

        Transport backends' shard worlds live behind their channels;
        use :meth:`traces` / the handle API instead.
        """
        if isinstance(self._backend, SerialBackend):
            return self._backend.clusters
        raise SimulationError(
            "in-process shard clusters are only available on the serial "
            "backend; use traces() or the handle API"
        )

    @property
    def now(self) -> float:
        """The shared clock (all shards advance in lock-step)."""
        return self._backend.now

    @property
    def exhausted(self) -> bool:
        """True once any shard ran out of rounds."""
        return self._backend.exhausted

    @property
    def recovery_stats(self) -> Optional[ShardRecoveryStats]:
        """Supervision counters (``recover=True`` backends), else None."""
        return self._backend.recovery_stats

    def handle(self, pid: int) -> ShardedWeakSetHandle:
        if not 0 <= pid < self._n:
            raise SimulationError(f"no process {pid}")
        return ShardedWeakSetHandle(self, pid)

    def handles(self) -> List[ShardedWeakSetHandle]:
        return [self.handle(pid) for pid in range(self._n)]

    def shard_index_for(self, value: Hashable) -> int:
        """The shard slot owning ``value`` (any backend).

        Routing goes through the membership :class:`HashRing`; for the
        construction-default membership ``[0..K-1]`` this is exactly
        :func:`shard_of` (the rings are the same object modulo
        memoization), so a cluster that *grew* to ``0..K-1`` routes
        identically to one constructed with ``shards=K``.
        """
        if self.num_shards == 1:
            return 0
        return self._slots[self._ring.owner(value)]

    def shard_for(self, value: Hashable) -> MSWeakSetCluster:
        """The in-process shard cluster owning ``value`` (serial only)."""
        return self.shards[self.shard_index_for(value)]

    # -- runtime membership ----------------------------------------------
    @property
    def members(self) -> List[int]:
        """The sorted member ids owning the shard slots."""
        return list(self._backend.members)

    @property
    def last_rebalance(self) -> Optional[RebalanceStats]:
        """What the most recent :meth:`join_shard` / :meth:`leave_shard`
        moved and replayed, or ``None`` before any membership change."""
        return self._last_rebalance

    def join_shard(self, member: Optional[int] = None) -> int:
        """Add a shard world at runtime; returns its member id.

        The new member (default: one past the highest current id) is
        inserted into the consistent-hash ring, the minimal set of
        values whose owner changed is computed, and every affected
        world is rebuilt by deterministic history replay — the
        resulting cluster is byte-identical to one *constructed* with
        the new membership and driven through the same schedule (pinned
        in ``tests/weakset/test_membership.py``).  Call it between
        advances; adds still in flight move with their values.
        """
        current = self.members
        if member is None:
            member = max(current) + 1
        if isinstance(member, bool) or not isinstance(member, int) or member < 0:
            raise SimulationError(
                f"member ids are non-negative ints, got {member!r}"
            )
        if member in current:
            raise SimulationError(f"member {member} is already in the cluster")
        self._rebalance(sorted(current + [member]))
        return member

    def leave_shard(self, member: int) -> None:
        """Remove shard world ``member`` at runtime.

        Only ``member``'s values move (each to the next surviving ring
        member); their new owners are rebuilt by deterministic history
        replay, exactly like :meth:`join_shard`.
        """
        current = self.members
        if member not in current:
            raise SimulationError(f"member {member} is not in the cluster")
        if len(current) == 1:
            raise SimulationError("cannot remove the last shard member")
        self._rebalance([m for m in current if m != member])

    def _rebalance(self, new_members: List[int]) -> None:
        new_ring = HashRing(new_members)
        stats = self._backend.apply_membership(
            new_members, self._ring.owner, new_ring.owner
        )
        self._refresh_ring()
        self._last_rebalance = stats

    def traces(self) -> List[RunTrace]:
        """Per-shard run traces (index = shard)."""
        return self._backend.traces()

    def advance(self, rounds: int = 1) -> int:
        """Run every shard ``rounds`` ticks (clocks stay aligned).

        Ticks are issued to the backend in chunks of the backend's
        ``round_batch`` (one frame pair per worker per chunk on the
        wire backends; up to ``window`` chunks kept in flight on a
        pipelined backend) and the tick sequence is identical for
        every batch and window size.  Returns how many ticks actually
        ran — fewer than ``rounds`` once a shard world goes dead.
        """
        return self._backend.advance(rounds)

    def step(self) -> bool:
        """Advance every shard one tick; False once any shard is done."""
        return self._backend.step()

    def close(self) -> None:
        """Release backend resources (worker processes, channels); any
        later operation raises."""
        self._backend.close()

    def __enter__(self) -> "ShardedWeakSetCluster":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- operations ------------------------------------------------------
    def begin_add(self, pid: int, value: Hashable) -> AddRecord:
        """Start an add on the owning shard; shared-clock record."""
        if not 0 <= pid < self._n:
            raise SimulationError(f"no process {pid}")
        record = self._backend.begin_add(self.shard_index_for(value), pid, value)
        self.log.adds.append(record)
        return record

    def _blocking_add(self, pid: int, value: Hashable) -> None:
        record = self.begin_add(pid, value)
        shard_index = self.shard_index_for(value)
        while record.end is None:
            if self._backend.crashed(shard_index, pid) or self.exhausted:
                return  # the add never completes (record.end stays None)
            self.step()

    def _instant_get(self, pid: int) -> FrozenSet[Hashable]:
        merged: set = set()
        for crashed, proposed in self._backend.local_views(pid):
            if crashed:
                raise SimulationError(f"get on crashed process {pid}")
            merged |= proposed
        result = frozenset(merged)
        self.log.gets.append(
            GetRecord(pid=pid, start=self.now, end=self.now, result=result)
        )
        return result

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

Execution of the K shard worlds is an explicit three-layer stack:

* the **wire protocol** (:mod:`repro.weakset.protocol`) — the
  round-trip message types (step / peek / trace / stop, plus mux and
  replay) as frozen dataclasses with one versioned, length-prefixed
  binary codec;
* the **transports** (:mod:`repro.weakset.transport`) — where a shard
  world lives: in this process with no codec
  (:class:`~repro.weakset.transport.DirectTransport`), in this process
  behind the codec (:class:`~repro.weakset.transport.InProcTransport`),
  behind a ``multiprocessing`` pipe, or across a TCP socket — plus the
  two halves of every exchange: ``send_all`` issues every shard's
  request first and ``harvest_all`` collects the replies in shard
  order;
* the **driver** (this module) — one :class:`TransportBackend` that
  every backend is a thin composition of: :class:`SerialBackend`
  (direct transports, the default), :class:`InProcBackend`,
  :class:`MultiprocessBackend` (one worker process per shard over
  pipes) and :class:`SocketBackend` (workers over TCP —
  loopback-spawned for CI, or remote via :func:`run_socket_worker` /
  ``python -m repro.experiments --connect HOST:PORT``).  Every backend
  shares its parent-side mirror, its one-step-at-a-time exchange loop
  and its one rebuild routine, which crash recovery and membership
  changes both call; each world is a :class:`ShardServer` wherever it
  lives.

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
import socket
import time
import traceback
from abc import ABC, abstractmethod
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
    MuxReply,
    MuxRequest,
    PeekReply,
    PeekRequest,
    ProtocolError,
    QueuedAdd,
    ReplayRequest,
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
    DEFAULT_REQUEST_TIMEOUT,
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
    harvest_all,
    send_all,
    serve_requests,
)

__all__ = [
    "ShardedWeakSetCluster",
    "ShardedWeakSetHandle",
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

#: how a socket worker waits for its parent: 50 tries, 0.1 s apart
#: (the parent may not be listening yet).
CONNECT_POLICY = RetryPolicy(
    attempts=50, base_delay=0.1, multiplier=1.0, max_delay=0.1
)

#: the reply each request type is answered with; also the request
#: types a replay may carry
_REPLY_TYPES = {
    StepBatchRequest: StepBatchReply,
    PeekRequest: PeekReply,
    TraceRequest: TraceReply,
}


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
    route_new: Callable[[Hashable], int],
    pending_tokens: FrozenSet[int],
) -> _RebalancePlan:
    """Classify a membership change against the operation history,
    whose add entries name each value's current owner.

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
        _kind, token, pid, value, record, owner_old = entry
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
        if owner_old != owner_new:
            moved.add(value)
            if owner_old in new_set:
                rebuilt.add(owner_old)
            rebuilt.add(owner_new)
    return _RebalancePlan(joined, removed, sorted(rebuilt), len(moved))


def _member_replay_requests(
    history: List[tuple], member: int, pending_tokens: FrozenSet[int]
) -> List[object]:
    """The request sequence that rebuilds ``member``'s world.

    The one replay source: crash recovery and membership changes both
    rebuild a world from it.  Walks the global history and keeps only
    the adds its entries record ``member`` as owning, closing each add
    run with the tick span that followed it — the exact operation
    sequence the member's world has consumed.  Adds in
    ``pending_tokens`` have not been acknowledged by any world (still
    queued, or riding the request set in flight) and are left out.
    Delivered adds issued after the last tick ride a trailing peek
    (adds apply before the peek reads; the world's clock does not
    move), mirroring how a live peek delivers queued adds.
    """
    requests: List[object] = []
    adds: List[QueuedAdd] = []
    for entry in history:
        if entry[0] == "step":
            requests.append(StepBatchRequest(rounds=entry[1], adds=tuple(adds)))
            adds = []
        elif entry[5] == member and entry[1] not in pending_tokens:
            adds.append(entry[1:4])  # (token, pid, value)
    if adds:
        requests.append(PeekRequest(pid=0, adds=tuple(adds)))
    return requests


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

        >>> from repro.weakset.protocol import PeekRequest, StepBatchRequest
        >>> config = WorldConfig(3, _default_environment, None, 100, "full")
        >>> server = ShardServer(config, shard_index=0)
        >>> reply = server.handle(StepBatchRequest(1, adds=((0, 1, "job-7"),)))
        >>> reply.alive, reply.executed, reply.now
        (True, 1, 1.0)
        >>> "job-7" in server.handle(PeekRequest(pid=1)).proposed
        True
    """

    def __init__(self, config: WorldConfig, shard_index: int):
        self._config = config
        self.shard_index = shard_index
        self._reset()

    def _reset(self) -> None:
        """Build this shard's world fresh from its seeds."""
        config = self._config
        self.cluster = MSWeakSetCluster(
            config.n,
            environment=config.environment_factory(self.shard_index),
            crash_schedule=config.crash_schedule,
            max_total_rounds=config.max_total_rounds,
            trace_mode=config.trace_mode,
        )
        self._records: Dict[int, AddRecord] = {}

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

    def handle(self, request: object) -> object:
        """Answer one request; raises on protocol misuse (the serve
        loop converts that into an :class:`~repro.weakset.protocol.ErrorReply`)."""
        if isinstance(request, StepBatchRequest):
            if request.rounds < 1:
                raise ProtocolMisuse("step batch needs rounds >= 1")
            self._apply_adds(request.adds)
            start = self.cluster.now
            # A step aimed at an already-dead world is a no-op, as the
            # scheduler's own step is at the horizon: an advance issued
            # after the horizon still sends one step, and its reply
            # must report the dead world with the world, its trace and
            # its clock untouched.
            alive = not self.cluster.exhausted
            if alive:
                # the exact step sequence `rounds` one-tick requests
                # would drive; completions keep their simulated-time
                # end stamps, so batching coalesces frames, not time
                for _ in range(request.rounds):
                    alive = self.cluster.step()
                    if not alive:
                        break
            return StepBatchReply(
                alive=alive,
                # ticks run, read off the clock: the step that finds the
                # horizon runs none, and a dead world answers 0
                executed=int(self.cluster.now - start),
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
        if isinstance(request, ReplayRequest):
            # A rebuild (protocol v10): check the whole frame, reset
            # this world to a fresh seed-built state in place, then
            # answer the replayed requests in order.  A request that
            # raises fails the frame; the parent fails closed.
            if request.shard_index != self.shard_index:
                raise ProtocolMisuse(
                    f"replay aimed at shard {request.shard_index}, this "
                    f"worker hosts shard {self.shard_index}"
                )
            for sub in request.subs:
                if type(sub) not in _REPLY_TYPES:
                    raise ProtocolMisuse(
                        f"a replay carries steps, peeks and trace fetches, "
                        f"not {type(sub).__name__}"
                    )
            self._reset()
            return MuxReply(subs=tuple(map(self.handle, request.subs)))
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


def _pipe_worker(connection, shard_index: int, config: WorldConfig) -> None:
    """Worker process entry point for the pipe (multiprocess) backend."""
    transport = PipeTransport(connection)
    try:
        server = ShardServer(config, shard_index)
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
    retry_policy: RetryPolicy = CONNECT_POLICY,
) -> bool:
    """Connect to a shard parent at ``address`` and serve one world.

    Retries the connection under ``retry_policy`` (the parent may not
    be listening yet) — by default :data:`CONNECT_POLICY`, 50 tries
    0.1 s apart; pass a
    :class:`~repro.weakset.supervisor.RetryPolicy` with a multiplier
    and jitter for exponential backoff instead (what a fleet of
    workers hammering one parent wants).  Then performs the
    hello/config bootstrap and serves protocol requests until the
    parent sends stop or goes away.

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
        servers = [ShardServer(config, index) for index in indices]
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
    retry_policy: RetryPolicy = CONNECT_POLICY,
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
    same deterministic backoff the parent's respawns sleep by); the
    default is :data:`CONNECT_POLICY`.
    """
    served = 0
    while serve_shard_over_socket(address, retry_policy=retry_policy):
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
class TransportBackend(ABC):
    """Executes the K shard worlds behind :class:`ShardedWeakSetCluster`.

    The facade owns routing, the operation log and the blocking-add
    loop; the backend owns *where the shard worlds live and step*.
    This is the one parent-side driver every backend is a thin
    composition of: it mirrors exactly the shard state the facade
    consults between steps — the shared clock, per-shard crash sets,
    shard exhaustion, and which adds are still in flight — so handle
    operations stay local.  Each world is a :class:`ShardServer`
    receiving the same ``begin_add``/``step`` sequence a standalone
    :class:`~repro.weakset.cluster.MSWeakSetCluster` would (equivalence
    is pinned — and fuzzed against plain clusters — in
    ``tests/weakset/test_shard_backends.py``).

    Every exchange — a step, a ``get``'s peek, a trace fetch — is one
    send of a request per shard followed by one harvest of a reply per
    shard, in shard order.  A step is a
    :class:`~repro.weakset.protocol.StepBatchRequest` carrying the adds
    queued since the last step (one tick is ``rounds=1``); its reply
    carries the executed count, completions, the crash set and the
    clock.  Every request is sent before the first reply is read, so
    the workers compute concurrently; replies are folded in canonical
    shard order, so traces stay byte-identical for a fixed seed.

    :meth:`advance` sends steps of up to ``round_batch`` ticks, one at
    a time: a step is sent, harvested and folded before the next one
    is sent, so at most one request set is ever in flight.  Within one
    ``advance`` the parent issues nothing between ticks, so the batch
    size is the one lever on how its ticks cross the wire; the mirror
    updates — and therefore the traces — are identical for every
    batch size.

    Mux (socket backend only): ``worlds_per_worker > 1`` assigns one
    worker several shard worlds behind protocol-v4
    :class:`~repro.weakset.protocol.MuxRequest` /
    :class:`~repro.weakset.protocol.MuxReply` frames.  The driver keeps
    mirroring per *shard*; requests are wrapped per *worker* just
    before the wire and replies unwrapped right after, so the rest of
    this class never sees the difference.  :attr:`frame_pairs` counts
    wire frames, i.e. one per worker per exchange.

    Subclasses implement :meth:`_spawn_world`, which starts one
    member's world and returns its
    :class:`~repro.weakset.transport.Transport`; the default
    :meth:`_start` calls it once per member, and a subclass that
    multiplexes several worlds per channel overrides :meth:`_start`.

    One routine, :meth:`_rebuild`, gives a member a fresh world and
    replays the member's slice of the operation history into it in one
    frame: crash recovery (:meth:`_recover`) rebuilds a respawned
    worker through it, and :meth:`apply_membership` rebuilds the
    worlds a membership change touches through it.

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
    against.  Either knob bounds every reply wait by the policy's
    ``request_timeout`` (30 s when it sets none).

    Attributes:
        num_shards: how many shard worlds the backend drives.
        members: the sorted member ids owning the shard worlds, one per
            slot (``members[slot]`` seeds slot ``slot``'s world:
            environment factory argument, worker handshake index).  A
            freshly constructed backend has ``members == [0..K-1]``;
            runtime membership (:meth:`apply_membership`) may leave
            holes, e.g. ``[0, 2, 3]`` after member 1 left.
        n: process count inside every shard world.
        round_batch: how many lock-step ticks one step of
            :meth:`advance` carries (one frame pair per worker).
        exchanges / frame_pairs: driver exchanges issued, and the
            request/reply frame pairs they carried.
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
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        members: Optional[List[int]] = None,
    ):
        if round_batch < 1:
            raise SimulationError("round_batch must be >= 1")
        self.round_batch = round_batch
        self.members = _resolve_members(shards, members)
        self.num_shards = len(self.members)
        shards = self.num_shards
        self.n = n
        self._history: List[tuple] = []
        #: structural wire-cost counters: driver exchanges issued, and
        #: request/reply frame pairs they carried (one per worker
        #: channel per exchange, direct channels included — so batching
        #: and mux visibly shrink ``frame_pairs`` per simulated round,
        #: independent of timing noise).  Shutdown and rebuild traffic
        #: is not counted.
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
        # The one deadline rule for every reply wait — harvests,
        # supervised harvests and rebuilds alike: a supervised run or
        # one with faults injected (or an explicit request deadline)
        # must time out instead of hanging — a dropped frame otherwise
        # blocks the wait forever.
        if retry_policy is not None and retry_policy.request_timeout is not None:
            self._request_timeout: Optional[float] = retry_policy.request_timeout
        elif recover or fault_plan:
            self._request_timeout = DEFAULT_REQUEST_TIMEOUT
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
        except BaseException:
            self.close()
            raise

    def _start(self) -> None:
        """Create one transport per shard (and any backing workers)."""
        for member in self.members:
            self._transports.append(self._spawn_world(member))

    @abstractmethod
    def _spawn_world(self, member: int) -> Transport:
        """Start a world for ``member`` (and any worker backing it);
        return its raw (unwrapped) transport.  Raises
        :class:`~repro.errors.SimulationError` on a failed start, which
        a supervised rebuild retries under its backoff policy."""

    # -- the operation history -------------------------------------------
    # The interleaving of issued adds and acknowledged lock-step ticks
    # since construction: the one replay source.  Every rebuilt world,
    # after a crash or a membership change, replays the slice of it
    # that its member owns (_member_replay_requests).  Steps enter only
    # in _fold_step, once every reply of their set is in, so a replay
    # stops at the acknowledged prefix.  Entries:
    #   ("add", token, pid, value, record, owner)  owner: a member id
    #   ("step", ticks)                            coalesced with the tail
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
        """Recovery counters when supervision is on (``recover=True``),
        else ``None``, so callers can surface them unconditionally."""
        return self._supervisor.stats if self._supervisor is not None else None

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

    def _exchange(self, requests: List[object], expected: type) -> List[object]:
        """One round trip: send one request per shard, then harvest one
        reply per shard in canonical order.

        A supervised backend routes the round trip through its
        supervisor, which heals a dead worker before returning.  A
        worker-side :class:`~repro.weakset.protocol.ErrorReply` fails
        closed, and so does any other reply that is not an
        ``expected`` one: a stale or duplicated frame surfacing an
        exchange late.
        """
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
                deadlines = send_all(
                    self._transports,
                    self._wire_requests(requests),
                    timeout=self._request_timeout,
                )
                replies = self._unwire_replies(
                    harvest_all(
                        self._transports,
                        deadlines=deadlines,
                        timeout=self._request_timeout,
                    )
                )
            except TransportError as error:
                raise self._failed_mid_round(error) from None
        for shard_index, reply in enumerate(replies):
            if type(reply) is not expected:
                self._failed = True
                if isinstance(reply, ErrorReply):
                    raise SimulationError(
                        f"shard {shard_index} worker failed:\n{reply.message}"
                    )
                raise SimulationError(
                    f"shard {shard_index} answered with "
                    f"{type(reply).__name__} where a {expected.__name__} was "
                    f"due (round clock {self._now:g}): a stale or duplicated "
                    "reply is being consumed"
                )
        return replies

    def _failed_mid_round(self, error: TransportError) -> SimulationError:
        """Poison the backend for a channel that failed mid-exchange:
        sibling replies may be unread and the round half-applied, so
        later calls must not consume stale state."""
        self._failed = True
        return SimulationError(
            f"shard worker failed mid-round (round clock {self._now:g}): {error}"
        )

    def _recv(self, transport: Transport) -> object:
        """One reply on one channel under the reply deadline (none set:
        block); :class:`~repro.weakset.transport.TransportError` when it
        passes."""
        timeout = self._request_timeout
        if timeout is not None and not transport.poll(timeout):
            raise TransportError(f"no reply within {timeout:g}s")
        return transport.recv()

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

    def _unsent_tokens(self, in_flight: Sequence[object] = ()) -> FrozenSet[int]:
        """Tokens of the adds no world has acknowledged: still queued,
        or riding ``in_flight`` (any shard's request of the set in
        flight).  A replay leaves them out."""
        batches = [*self._pending, *(getattr(r, "adds", ()) for r in in_flight)]
        return frozenset(token for batch in batches for token, _pid, _value in batch)

    def _slot(self, shard_index: int) -> int:
        """``shard_index`` when it names a slot: a negative index
        would wrap onto another shard's mirror."""
        if not 0 <= shard_index < self.num_shards:
            raise SimulationError(
                f"no shard slot {shard_index}; slots are "
                f"0..{self.num_shards - 1}"
            )
        return shard_index

    # -- the backend API -------------------------------------------------
    @property
    def now(self) -> float:
        """The shared lock-step clock (all shards advance together)."""
        return self._now

    @property
    def exhausted(self) -> bool:
        """True once any shard world ran out of rounds."""
        return any(self._shard_exhausted)

    def begin_add(self, shard_index: int, pid: int, value: Hashable) -> AddRecord:
        """Start an add of ``value`` by ``pid`` on shard ``shard_index``.

        Returns an :class:`~repro.weakset.spec.AddRecord` whose ``end``
        the backend stamps once the shard world reports the value
        written.  Raises :class:`~repro.errors.SimulationError` for a
        ``shard_index`` that names no slot or a crashed ``pid``, and
        :class:`~repro.errors.ProtocolMisuse` while a previous add by
        ``pid`` on the same shard is still blocked — the same errors,
        at the same call, as a plain cluster.  Nothing is queued or
        recorded for a rejected add.
        """
        self._ensure_open()
        # The shard cluster's checks, mirrored parent-side so a bad add
        # fails fast instead of poisoning a world mid-round (the slot
        # and pid guards double the facade's, for direct backend users).
        self._slot(shard_index)
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
        self._history.append(
            ("add", token, pid, value, record, self.members[shard_index])
        )
        return record

    def step(self) -> bool:
        """Advance every shard one tick; False once any shard is done."""
        return self._drive([1])[1]

    # -- runtime membership ----------------------------------------------
    def apply_membership(
        self, new_members: List[int], route_new: Callable[[Hashable], int]
    ) -> RebalanceStats:
        """Rebalance the live worker fleet onto ``new_members``.

        ``route_new`` maps a value to its member id under the new
        membership (each history add entry records its old owner).
        The facade calls this between advances, when no exchange is in
        flight.  :func:`_plan_rebalance` validates the change before
        anything mutates; then every add entry is rewritten to its new
        owner, leaving members' workers are stopped, and every member
        whose owned-value set changes (plus every joined member) gets
        its world **rebuilt** by :meth:`_rebuild` from its slice of
        the rewritten history, in one frame that resets a live world
        in place — so the rebalanced cluster is byte-identical to one
        *constructed* with the new membership and driven through the
        same schedule.

        Rebuild traffic is not a driver exchange: it does not bump
        :attr:`exchanges`/:attr:`frame_pairs`, and scheduled faults
        fire on it only when tagged ``phase="rebalance"``
        (:meth:`~repro.weakset.faults.FaultyTransport.rebalancing`).
        With ``recover=True`` a worker killed mid-rebuild is respawned
        under the supervisor's backoff policy and its frame re-sent;
        without supervision a mid-rebuild death poisons the backend
        exactly like a mid-round death.
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
        pending_tokens = self._unsent_tokens()
        history = self._history
        plan = _plan_rebalance(
            self.members, new_members, history, route_new, pending_tokens
        )
        for index, entry in enumerate(history):
            if entry[0] == "add":
                history[index] = (*entry[:5], route_new(entry[3]))
        old_members = list(self.members)

        # 1. stop the leaving members' workers.
        channels = dict(zip(old_members, self._transports))
        self._stop([channels.pop(member) for member in plan.removed])

        # 2. rebuild each affected member's world from its slice of the
        #    rewritten history, resetting it in place.  A joined
        #    member's worker is started first, by a rebuild with nothing
        #    to replay (no frame), so it boots while the worlds before
        #    it replay.
        for member in plan.joined:
            channels[member], _replies = self._rebuild(member, None, [])
        completions: Dict[int, float] = {}
        crashed_by_member: Dict[int, FrozenSet[int]] = {}
        replayed_ticks = 0
        for member in plan.rebuilt:
            channels[member], replies = self._rebuild(
                member,
                channels[member],
                _member_replay_requests(history, member, pending_tokens),
            )
            steps = [reply for reply in replies if type(reply) is StepBatchReply]
            ticks = sum(reply.executed for reply in steps)
            final_now = steps[-1].now if steps else 0.0
            replayed_ticks += ticks
            crashed_by_member[member] = steps[-1].crashed if steps else frozenset()
            for reply in steps:
                completions.update(reply.completions)
            if final_now != self._now and (ticks or self._now):
                self._failed = True
                raise SimulationError(
                    f"rebuilt world for member {member} replayed to round "
                    f"{final_now:g}; the cluster is at {self._now:g}"
                )

        # 3. settle add records.  A rebuilt world's replay is the
        #    authoritative timeline for every value it now owns: each
        #    such record takes the replayed completion stamp — a no-op
        #    for values that did not move, the new owner's timeline for
        #    moved ones, exactly what a fresh post-change cluster
        #    stamps — and records the replay left open are reset to
        #    ``None`` and re-tracked so their later completion is
        #    recognized rather than rejected as an unknown token.
        rebuilt_set = set(plan.rebuilt)
        for entry in history:
            if entry[0] != "add":
                continue
            _kind, token, _pid, _value, record, owner = entry
            if token in pending_tokens or owner not in rebuilt_set:
                continue
            record.end = completions.get(token)
            if record.end is None:
                self._records[token] = record
            else:
                self._records.pop(token, None)

        # 4. adopt the new membership across every parent-side mirror.
        old_crashed = dict(zip(old_members, self._crashed))
        self.members = list(new_members)
        self.num_shards = len(self.members)
        slot_of = {member: slot for slot, member in enumerate(self.members)}
        self._transports = [channels[m] for m in self.members]
        self._groups = [[i] for i in range(self.num_shards)]
        self._shard_exhausted = [False] * self.num_shards
        self._crashed = [
            crashed_by_member.get(m, old_crashed.get(m, frozenset()))
            for m in self.members
        ]
        self._pending = [[] for _ in range(self.num_shards)]
        self._in_flight = {}
        for entry in history:
            if entry[0] != "add":
                continue
            _kind, token, pid, value, record, owner = entry
            slot = slot_of[owner]
            if token in pending_tokens:
                self._pending[slot].append((token, pid, value))
            if record.end is None:
                self._in_flight[(slot, pid)] = record
        return RebalanceStats(
            joined=tuple(plan.joined),
            left=tuple(plan.removed),
            moved_values=plan.moved_values,
            rebuilt_members=tuple(plan.rebuilt),
            replayed_ticks=replayed_ticks,
            wall_clock=time.perf_counter() - started,
        )

    def _recover(self, slot: int, requests: List[object], cause: str) -> object:
        """Rebuild slot ``slot``'s dead world from the acknowledged
        history and re-issue its request of the set in flight,
        ``requests``; return that request's reply, which answers the
        exchange in progress.  The supervisor calls this for every
        shard whose channel failed."""
        member = self.members[slot]
        self._transports[slot], replies = self._rebuild(
            member,
            self._transports[slot],
            _member_replay_requests(
                self._history, member, self._unsent_tokens(requests)
            ),
            [requests[slot]],
            cause=cause,
        )
        return replies[-1]

    def _rebuild(
        self,
        member: int,
        channel: Optional[Transport],
        history: List[object],
        in_flight: Sequence[object] = (),
        *,
        cause: Optional[str] = None,
    ) -> Tuple[Transport, List[object]]:
        """Give ``member`` a fresh world and replay requests into it.

        The one way a shard world is rebuilt, in one frame: a
        :class:`~repro.weakset.protocol.ReplayRequest` carrying
        ``history`` (from :func:`_member_replay_requests`: what brings a
        fresh world to where the old one was) then ``in_flight`` (the
        request the old world still owed a reply to).  The worker
        resets its world, answers the requests in order and replies
        with one :class:`~repro.weakset.protocol.MuxReply`; returns the
        channel now hosting the world and one sub-reply per request.
        The two callers:

        * crash recovery (:meth:`_recover`) hands over the dead
          ``channel`` with the ``cause`` of death, the member's
          acknowledged history and its request of the exchange in
          flight;
        * a membership change (:meth:`apply_membership`) hands over
          each rebuilt member's live channel with its history under
          the new routing; a joining member first gets its worker from
          a rebuild with no channel and nothing to replay, which sends
          no frame.

        A live channel's world is reset in place by the frame, no
        worker is started; a dead channel, a joining member or a retry
        after a death gets its worker from :meth:`_spawn_world` first.
        The reply is awaited under the backend's one reply deadline.  A
        worker death is retried under the supervisor's
        :class:`~repro.weakset.supervisor.RetryPolicy` when
        ``recover=True`` and poisons the backend otherwise; a
        worker-side :class:`~repro.weakset.protocol.ErrorReply`, or any
        reply but a ``MuxReply`` holding one reply of the matching type
        per request, fails closed either way, because replaying a
        deterministic world would repeat it.

        Crash-recovery frames are not driver exchanges: a fault wrapper
        is :meth:`~repro.weakset.faults.FaultyTransport.suspended` for
        them, and retries back off under ``("respawn", slot)``.  A
        membership change's frame is rebuild traffic
        (:meth:`~repro.weakset.faults.FaultyTransport.rebalancing`),
        backing off under ``("rebalance", member)``.
        """
        supervisor = self._supervisor
        recovering = cause is not None
        # an unsupervised rebuild has no stats to report; count into a
        # throwaway so the accounting below reads the same either way
        stats = supervisor.stats if supervisor is not None else ShardRecoveryStats()
        attempts = 1
        delays: Iterator[float] = iter(())
        if supervisor is not None:
            attempts = supervisor.policy.attempts
            if recovering:
                key = ("respawn", self.members.index(member))  # the slot
            else:
                key = ("rebalance", member)
            delays = supervisor.policy.backoff(*key)
        replay = ReplayRequest(shard_index=member, subs=(*history, *in_flight))
        since = time.perf_counter() if recovering else None
        first_cause = last_error = cause
        spawns = 0
        if recovering:
            stats.detections += 1
            channel.close()
        for attempt in range(attempts):
            if attempt:
                time.sleep(next(delays))
            respawned = cause is not None
            if respawned or channel is None:
                spawns += 1
                try:
                    raw = self._spawn_world(member)
                except SimulationError as error:
                    if supervisor is None:
                        self._failed = True
                        raise
                    last_error = str(error)
                    continue
                if channel is None:  # a joining member's first worker
                    channel = (
                        FaultyTransport(raw, member, self._fault_plan)
                        if self._fault_plan
                        else raw
                    )
                    if not replay.subs:  # a fresh world is already reset
                        return channel, []
                else:  # a respawn; a fault wrapper keeps its schedule
                    if isinstance(channel, FaultyTransport):
                        channel.replace_inner(raw)
                    else:
                        channel = raw
                    stats.respawns += 1
                    stats.recovered_shards.append(member)
            quiet = contextlib.nullcontext()
            if isinstance(channel, FaultyTransport):
                quiet = channel.suspended() if recovering else channel.rebalancing()
            try:
                with quiet:
                    channel.send(replay)
                    reply = self._recv(channel)
            except (TransportError, ProtocolError) as error:
                if supervisor is None:
                    self._failed = True
                    raise SimulationError(
                        f"shard {member} worker died while its world was "
                        f"rebuilt (round clock {self._now:g}): {error}"
                    ) from None
                cause = last_error = str(error)
                first_cause = first_cause or cause
                stats.detections += 1
                channel.close()
                since = since or time.perf_counter()
                continue
            if not (
                type(reply) is MuxReply
                and len(reply.subs) == len(replay.subs)
                and all(
                    type(sub) is _REPLY_TYPES[type(request)]
                    for request, sub in zip(replay.subs, reply.subs)
                )
            ):
                self._failed = True
                if isinstance(reply, ErrorReply):
                    raise SimulationError(
                        f"shard {member} worker failed while rebuilding "
                        f"member {member}'s world:\n{reply.message}"
                    )
                raise SimulationError(
                    f"member {member} answered a replay of "
                    f"{len(replay.subs)} requests with {reply!r:.200}"
                )
            if respawned:
                stats.replayed_rounds += sum(
                    sub.executed
                    for sub in reply.subs[: len(history)]
                    if type(sub) is StepBatchReply
                )
            if since is not None:
                stats.wall_clock += time.perf_counter() - since
            return channel, list(reply.subs)
        self._failed = True
        raise SimulationError(
            f"shard {member} worker died (at round clock {self._now:g}: "
            f"{first_cause or last_error}) and could not be recovered after "
            f"{spawns} respawn attempt(s): {last_error}"
        )

    def _stop(self, transports: List[Transport]) -> List[int]:
        """The stop handshake: send every channel a stop, drain its ack
        (or an in-flight error), close it.  Returns the positions of
        the channels that failed or answered anything but the ack.
        Shutdown traffic is not a driver exchange: unfired scheduled
        faults must not fire on (or count) it."""
        silent: List[int] = []
        with contextlib.ExitStack() as stack:
            for transport in transports:
                if isinstance(transport, FaultyTransport):
                    stack.enter_context(transport.suspended())
            for index, transport in enumerate(transports):
                try:
                    transport.send(StopRequest())
                except TransportError:
                    silent.append(index)
            for index, transport in enumerate(transports):
                if index not in silent:
                    try:
                        acked = transport.poll(1.0) and (
                            type(transport.recv()) is StopReply
                        )
                    except (TransportError, ProtocolError):
                        acked = False
                    if not acked:
                        silent.append(index)
                transport.close()
        return silent

    # -- the driver ------------------------------------------------------
    def advance(self, rounds: int) -> int:
        """Run every shard up to ``rounds`` ticks; return how many ran.

        Ticks go out as steps of up to :attr:`round_batch` ticks, one
        step in flight at a time: each step is sent, harvested and
        folded before the next is sent, so the driver stops at the
        step whose reply reports a dead world and sends nothing after
        it.  Queued adds ride only with the first step (the facade
        cannot queue adds mid-``advance``), so every later step is the
        empty-adds frame a one-tick-at-a-time run would send, and the
        mirror update sequence — and therefore every trace — is
        identical for every batch size.  Supervised (``recover=True``)
        runs exchange through the supervisor, which heals a worker
        death by replaying the shard's acknowledged history and
        re-issuing the step in flight (:meth:`_recover`).
        """
        batch = self.round_batch
        return self._drive(
            [min(batch, rounds - start) for start in range(0, rounds, batch)]
        )[0]

    def _drive(self, chunks: List[int]) -> Tuple[int, bool]:
        """Exchange and fold one step per chunk (its tick count) until
        a world dies; return (ticks executed, alive)."""
        self._ensure_open()
        executed_total = 0
        alive = True
        for rounds in chunks:
            replies = self._exchange(
                [
                    StepBatchRequest(rounds=rounds, adds=batch)
                    for batch in self._take_pending()
                ],
                StepBatchReply,
            )
            executed, alive = self._fold_step(replies)
            executed_total += executed
            if not alive:
                break
        return executed_total, alive

    def _fold_step(self, replies: List[object]) -> Tuple[int, bool]:
        """Fold one step's replies into the parent-side mirrors, in
        canonical shard order; return (ticks executed, alive).

        Integrity guards stand between the wire and the mirrors.  The
        workers stop early in lock-step when a world dies mid-step, so
        their executed counts agree (the shared horizon and crash
        schedule guarantee it).  A *stale or replayed* reply (e.g. an
        injected duplicate frame surfacing one exchange late) shows as
        shard clocks that disagree, or as a completion token the parent
        is not waiting for.  Any of these poisons the backend — a
        desynchronized reply stream cannot be consumed safely.
        """
        executed_counts = {reply.executed for reply in replies}
        if len(executed_counts) != 1:
            self._failed = True
            raise SimulationError(
                "shard worlds diverged mid-batch: executed counts "
                f"{sorted(executed_counts)} (same horizon and crash schedule "
                "should stop every shard at the same tick)"
            )
        clocks = {reply.now for reply in replies}
        if len(clocks) > 1:
            self._failed = True
            raise SimulationError(
                f"shard clocks diverged after a lock-step tick: "
                f"{sorted(clocks)} (a stale or duplicated reply is being "
                "consumed)"
            )
        executed = executed_counts.pop()
        self._record_steps(executed)
        alive = True
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
        return executed, alive

    def crashed(self, shard_index: int, pid: int) -> bool:
        """Whether ``pid`` has crashed in shard ``shard_index``'s world."""
        return pid in self._crashed[self._slot(shard_index)]

    def local_views(self, pid: int) -> List[Tuple[bool, FrozenSet[Hashable]]]:
        """Per-shard ``(crashed, local PROPOSED)`` pairs for one ``get``.

        Returned in shard order; the facade raises on the first crashed
        entry and unions the rest, mirroring the serial shard loop.
        Queued adds ride the peek, so they apply before it reads.
        """
        self._ensure_open()
        requests = [
            PeekRequest(pid=pid, adds=batch) for batch in self._take_pending()
        ]
        replies = self._exchange(requests, PeekReply)
        return [(reply.crashed, reply.proposed) for reply in replies]

    def traces(self) -> List[RunTrace]:
        """Per-shard run traces (index = shard): the live trace objects
        on the serial backend, point-in-time snapshots fetched from the
        workers on the others."""
        self._ensure_open()
        replies = self._exchange(
            [TraceRequest() for _ in range(self.num_shards)], TraceReply
        )
        return [reply.trace for reply in replies]

    def close(self) -> None:
        """Release backend resources (worker processes, channels)."""
        if self._closed:
            return
        self._closed = True
        self._reap(self._stop(self._transports))

    def _reap(self, silent: Sequence[int] = ()) -> None:
        """Release anything beyond the transports (workers, listeners).

        ``silent`` are the positions of the channels that failed or did
        not acknowledge the stop; a subclass that knows which worker
        serves which channel terminates those workers first.

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

    def __enter__(self) -> "TransportBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

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
        self._servers: Dict[int, ShardServer] = {}
        super().__init__(n, **options)

    def _spawn_world(self, member: int) -> Transport:
        server = ShardServer(self._config, member)
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

    def _spawn_world(self, member: int) -> Transport:
        return InProcTransport(ShardServer(self._config, member).handle)


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
        recover: bool = False,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        members: Optional[List[int]] = None,
    ):
        self._context = multiprocessing.get_context(
            _resolve_start_method(start_method)
        )
        self._shard_workers: Dict[int, object] = {}
        super().__init__(
            n,
            shards=shards,
            environment_factory=environment_factory,
            crash_schedule=crash_schedule,
            max_total_rounds=max_total_rounds,
            trace_mode=trace_mode,
            round_batch=round_batch,
            recover=recover,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
            members=members,
        )

    def _spawn_world(self, member: int) -> Transport:
        # A superseded worker stays in ``_workers`` for the final reap,
        # but is terminated NOW if still running: under ``fork``,
        # sibling workers inherit copies of its pipe's parent end, so a
        # channel-severing fault alone never delivers the EOF that
        # would make it exit — without this it lingers until close()'s
        # escalation timeout.
        old = self._shard_workers.get(member)
        if old is not None and old.is_alive():
            old.terminate()
        try:
            parent_conn, child_conn = self._context.Pipe()
            worker = self._context.Process(
                target=_pipe_worker,
                args=(child_conn, member, self._config),
                daemon=True,
            )
            worker.start()
        except OSError as error:  # pragma: no cover - resource exhaustion
            raise SimulationError(
                f"could not start a worker for member {member}: {error}"
            ) from None
        child_conn.close()
        self._workers.append(worker)
        self._shard_workers[member] = worker
        return PipeTransport(parent_conn)

    def _reap(self, silent: Sequence[int] = ()) -> None:
        # The same fork hazard as above: a worker whose channel failed
        # or went unanswered may never see EOF, so terminate it rather
        # than wait out the polite join.  A worker that acknowledged
        # the stop exits on its own.
        for index in silent:
            worker = self._shard_workers.get(self.members[index])
            if worker is not None and worker.is_alive():
                worker.terminate()
        super()._reap()


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
        self, shard_index: int, extra_shards: Tuple[int, ...] = ()
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

    def _spawn_world(self, member: int) -> Transport:
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
        return self._accept_worker(member)

    def _reap(self, silent: Sequence[int] = ()) -> None:
        if self._listener is not None:
            self._listener.close()
            self._listener = None
        super()._reap(silent)


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
    callers.  The port must be a decimal number in 0–65535, the range
    a socket can bind or connect to.

    Example:
        >>> parse_address("0.0.0.0:7000")
        ('0.0.0.0', 7000)
    """
    host, _sep, port = text.rpartition(":")
    if not host or not port.isdecimal() or int(port) > 65535:
        raise SimulationError(
            f"bad address {text!r}; expected HOST:PORT with a port in 0-65535"
        )
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
            alternatively a constructed :class:`TransportBackend`,
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
        if isinstance(backend, TransportBackend):
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
            if worlds_per_worker is not None:
                raise SimulationError(
                    "worlds_per_worker is a construction-time backend "
                    "knob; pass it where the backend is built, not "
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
        members = self._backend.members
        self._ring = HashRing(members)
        self._slots = {member: slot for slot, member in enumerate(members)}

    @property
    def backend(self) -> TransportBackend:
        """The executing :class:`TransportBackend`."""
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
        stats = self._backend.apply_membership(
            new_members, HashRing(new_members).owner
        )
        self._refresh_ring()
        self._last_rebalance = stats

    def traces(self) -> List[RunTrace]:
        """Per-shard run traces (index = shard)."""
        return self._backend.traces()

    def advance(self, rounds: int = 1) -> int:
        """Run every shard ``rounds`` ticks (clocks stay aligned).

        Ticks are issued to the backend in chunks of the backend's
        ``round_batch`` (one frame pair per worker per chunk, one chunk
        in flight at a time) and the tick sequence is identical for
        every batch size.  Returns how many ticks actually ran — fewer
        than ``rounds`` once a shard world goes dead.
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

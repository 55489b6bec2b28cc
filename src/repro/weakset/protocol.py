"""The shard cluster's wire protocol: message types + the frame codec.

The sharded weak-set's parent/worker conversation consists of a small
closed set of **round-trip message types**, one dataclass pair each:

========  ==============================  ==============================
exchange  request                         reply
========  ==============================  ==============================
round     :class:`RoundRequest` — the     :class:`RoundReply` — shard
          adds queued since the last      liveness, completed adds,
          tick ride with the step         the crash set and the clock
batch     :class:`StepBatchRequest` —     :class:`StepBatchReply` — the
          advance up to ``rounds``        same fields plus how many
          lock-step ticks in one frame    ticks actually executed
          (queued adds apply before
          the first tick)
peek      :class:`PeekRequest` — one      :class:`PeekReply` — the
          process's ``get`` (plus any     process's crash flag and its
          queued adds, so ordering is     local ``PROPOSED`` set
          preserved)
trace     :class:`TraceRequest`           :class:`TraceReply` — a
                                          point-in-time run trace
stop      :class:`StopRequest`            :class:`StopReply`
========  ==============================  ==============================

plus :class:`ErrorReply` (a worker-side failure, valid in any reply
position), the multiplexed pair :class:`MuxRequest` /
:class:`MuxReply`, the rebalance pair :class:`MigrateRequest` /
:class:`MigrateReply`, and the one-time bootstrap pair
:class:`HelloRequest` / :class:`ConfigReply` that the socket transport
uses to hand a connecting worker its shard assignment.

Messages travel as **versioned, length-prefixed frames** in one
codec — there is no codec byte and nothing to negotiate::

    frame  := header body
    header := version:uint8  length:uint32 (big-endian)
    body   := tag:uint8 fields…

The body is a struct-packed field layout for the hot round-trip
messages (round / batch / peek / mux), which keeps pure-Python JSON
out of every socket frame::

    adds        := count:u32 [bulk:u8 …]       (absent when count=0)
    bulk=1      := (token:u64 pid:u32)* charlen:u32* bytes:u32 utf8
                   (all-string values, column-packed: one length
                   array, one concatenated blob)
    bulk=0      := (token:u64 pid:u32 value)*
    value       := 'N'|'T'|'F' | 'I' i64 | 'D' f64 | 'S' u32 utf8
                   | 'V' u32 decimal | 'U' u32 value* | 'X' u32 value*
                   | 'W' u32 shape lane                (flattened)
                   | 'J' u32 canonical-JSON   (tagged-codec escape)
    shape       := ('U' u32 | 'X' u32 | 'L')*          (preorder)
    lane        := 's' u32 charlen:u32* bytes:u32 utf8
                   | 'i' u32 i64*

The ``'W'`` layout (protocol version 4) flattens a **nested**
tuple/frozenset whose leaves are all strings (or all i64 ints) into a
shape prefix plus one column-packed leaf lane — a handful of C pack
calls instead of one recursive encode per node.  The recursive walker
stays as the fallback for every other container, so the two layouts
carry the identical value universe.

Message layouts: tag 1 ``RoundRequest`` = adds; tag 2 ``RoundReply`` =
alive:u8 count:u32 (token:u64 end:f64)* count:u32 crashed:u32* now:f64;
tag 3 ``PeekRequest`` = pid:u32 adds; tag 4 ``PeekReply`` = crashed:u8
bulk:u8 count:u32 then (bulk=1) a string-set column layout like the
adds' or (bulk=0) ``count`` values; tag 5 ``StepBatchRequest`` =
rounds:u32 adds; tag 6 ``StepBatchReply`` = alive:u8 executed:u32 then
as tag 2; tags 7/8 ``MuxRequest``/``MuxReply`` = count:u32 then
length-prefixed sub-bodies.  Tag 0 is the JSON escape for the cold
messages (trace, stop, error, hello, config, migrate): canonical JSON
(sorted keys, no whitespace) behind the tag.

The ``'J'`` value escape routes anything outside the native scalar/
tuple/frozenset universe (``⊥``, interned histories, counter maps,
user types registered via :func:`repro.serialization.register_codec`)
through the canonical tagged codec, so every value the canonical codec
carries crosses the wire — round-trip identity is property-tested in
``tests/weakset/test_protocol.py``.  To read a frame, decode it:
:func:`decode_message` returns a frozen dataclass whose ``repr`` is the
readable view.

A *version* mismatch fails fast: the first byte of the first frame
raises :class:`VersionMismatch`, which names both versions — see
:func:`repro.weakset.sharding.serve_shard_over_socket` for how an
externally-launched worker surfaces it.

The one deliberate exception is :class:`ConfigReply.world`: a shard
world's configuration includes an arbitrary environment-factory
callable, so it crosses as pickled bytes — the same trust model as
``multiprocessing`` itself.  Only connect socket workers to parents
you trust (loopback, or a network you control).

Example — a frame is a few dozen bytes and round-trips exactly:

    >>> request = RoundRequest(adds=((0, 2, "alpha"),))
    >>> frame = encode_message(request)
    >>> frame[:1] == bytes([PROTOCOL_VERSION])
    True
    >>> decode_message(frame)
    RoundRequest(adds=((0, 2, 'alpha'),))
"""

from __future__ import annotations

import base64
import json
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Any, Callable, Dict, FrozenSet, Hashable, Optional, Tuple

from repro.errors import ReproError
from repro.giraf.adversary import CrashSchedule
from repro.giraf.traces import RunTrace
from repro.serialization import (
    SerializationError,
    decode_value,
    encode_value,
    trace_from_dict,
    trace_to_dict,
)

__all__ = [
    "PROTOCOL_VERSION",
    "HEADER_SIZE",
    "ProtocolError",
    "VersionMismatch",
    "QueuedAdd",
    "WorldConfig",
    "RoundRequest",
    "RoundReply",
    "StepBatchRequest",
    "StepBatchReply",
    "PeekRequest",
    "PeekReply",
    "TraceRequest",
    "TraceReply",
    "StopRequest",
    "StopReply",
    "ErrorReply",
    "MuxRequest",
    "MuxReply",
    "MigrateRequest",
    "MigrateReply",
    "HelloRequest",
    "ConfigReply",
    "encode_message",
    "decode_message",
    "decode_header",
    "decode_body",
]

#: wire version; bumped on any frame- or message-shape change.  A
#: parent and worker must agree exactly — the header check fails fast
#: instead of mis-decoding.  Version 2 added a codec byte, the
#: binary codec, and the step-batch messages; version 3 added the
#: ``resume_round`` field to :class:`ConfigReply` (crash recovery);
#: version 4 added the multiplexed frames (:class:`MuxRequest` /
#: :class:`MuxReply`), ``ConfigReply.extra_shards`` (one worker
#: hosting several shard worlds) and the flattened ``'W'``
#: nested-container value layout; version 5 added the membership
#: rebalance pair (:class:`MigrateRequest` / :class:`MigrateReply`)
#: that resets one worker's world in place before the parent replays
#: its rewritten history (``join_shard`` / ``leave_shard``); version 6
#: dropped the JSON frame codec: the codec byte left the header and the
#: codec fields left :class:`HelloRequest` / :class:`ConfigReply`.
PROTOCOL_VERSION = 6

_HEADER = struct.Struct(">BI")

#: bytes of frame header: version byte + 4 length bytes, big-endian.
HEADER_SIZE = _HEADER.size

#: sanity bound on one frame's body; a header announcing more than
#: this is treated as corruption, not as a request for 4 GiB of RAM.
_MAX_BODY_BYTES = 1 << 30


class ProtocolError(ReproError):
    """A frame could not be encoded or decoded."""


class VersionMismatch(ProtocolError):
    """The peer speaks a different protocol version.

    Carries both versions so bootstrap code can raise an error naming
    them (instead of a generic decode failure).
    """

    def __init__(self, peer_version: int):
        self.peer_version = peer_version
        self.local_version = PROTOCOL_VERSION
        super().__init__(
            f"protocol version mismatch: peer speaks {peer_version}, "
            f"this side speaks {PROTOCOL_VERSION}"
        )


#: one queued cross-process add: (token, pid, value)
QueuedAdd = Tuple[int, int, Hashable]


@dataclass(frozen=True)
class WorldConfig:
    """Everything needed to build one shard's lock-step world.

    Picklable (under ``spawn`` the environment factory and crash
    schedule must be picklable, exactly as for the pipe backend); the
    socket bootstrap ships it inside :class:`ConfigReply`.
    """

    n: int
    environment_factory: Callable[[int], object]
    crash_schedule: Optional[CrashSchedule]
    max_total_rounds: int
    trace_mode: str


# ----------------------------------------------------------------------
# the round-trip message types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RoundRequest:
    """Advance the shard world one tick; queued adds ride along."""

    adds: Tuple[QueuedAdd, ...] = ()


@dataclass(frozen=True)
class RoundReply:
    """One tick's outcome: liveness, completions, crash set, clock."""

    alive: bool
    completions: Tuple[Tuple[int, float], ...]
    crashed: FrozenSet[int]
    now: float


@dataclass(frozen=True)
class StepBatchRequest:
    """Advance up to ``rounds`` lock-step ticks in one frame.

    The round-batched twin of :class:`RoundRequest`: queued adds apply
    before the **first** tick (exactly where ``rounds`` consecutive
    single-round frames would apply them — the parent drains its queue
    into the first frame of any run of steps), and the worker stops
    early when its world goes dead mid-batch.  One frame pair instead
    of ``rounds`` — the ``round_batch=K`` lever for high-latency links.
    """

    rounds: int
    adds: Tuple[QueuedAdd, ...] = ()


@dataclass(frozen=True)
class StepBatchReply:
    """A batch's outcome: :class:`RoundReply` plus the executed count.

    ``completions`` carry the same simulated-time ``end`` stamps the
    per-round replies would have reported — batching coalesces frames,
    not simulated time — and ``executed`` says how many ticks actually
    ran (fewer than requested only when the world went dead).
    """

    alive: bool
    executed: int
    completions: Tuple[Tuple[int, float], ...]
    crashed: FrozenSet[int]
    now: float


@dataclass(frozen=True)
class PeekRequest:
    """One process's instant ``get`` (queued adds flush first)."""

    pid: int
    adds: Tuple[QueuedAdd, ...] = ()


@dataclass(frozen=True)
class PeekReply:
    """The peeked process's crash flag and local ``PROPOSED`` set."""

    crashed: bool
    proposed: FrozenSet[Hashable]


@dataclass(frozen=True)
class TraceRequest:
    """Fetch a point-in-time snapshot of the shard's run trace."""


@dataclass(frozen=True)
class TraceReply:
    """The shard's run trace, rebuilt parent-side from canonical JSON."""

    trace: RunTrace = field(compare=False)

    def __eq__(self, other: object) -> bool:
        # RunTrace carries mutable event lists and no structural __eq__;
        # two replies are equal when their canonical encodings are.
        if not isinstance(other, TraceReply):
            return NotImplemented
        return trace_to_dict(self.trace) == trace_to_dict(other.trace)


@dataclass(frozen=True)
class StopRequest:
    """Shut the worker down (the reply is its good-bye)."""


@dataclass(frozen=True)
class StopReply:
    """Acknowledges a :class:`StopRequest`; the worker exits after."""


@dataclass(frozen=True)
class ErrorReply:
    """A worker-side failure (traceback text), valid anywhere a reply is."""

    message: str


@dataclass(frozen=True)
class MuxRequest:
    """One frame carrying one sub-request per world a worker hosts.

    Protocol version 4: when one worker owns several shard worlds
    (``worlds_per_worker > 1``), the parent wraps that worker's
    per-shard requests — in the worker's canonical shard order — into
    one multiplexed frame, collapsing the per-round frame-pair count
    from one per *world* to one per *worker*.  ``subs`` are ordinary
    protocol messages; the worker answers with a :class:`MuxReply`
    whose ``subs`` align index-for-index.
    """

    subs: Tuple[object, ...]


@dataclass(frozen=True)
class MuxReply:
    """The per-world replies to a :class:`MuxRequest`, index-aligned."""

    subs: Tuple[object, ...]


@dataclass(frozen=True)
class MigrateRequest:
    """Reset the worker's world for a membership rebalance (v5).

    Sent over an *existing* channel when a ``join_shard`` /
    ``leave_shard`` changed which values the hosted world owns: the
    worker discards its current world and in-flight add records and
    builds a fresh one for ``shard_index`` (its own member id — the
    field double-checks the parent and worker agree which world this
    channel hosts).  The parent then replays the member's rewritten
    request history into the fresh world, exactly like the
    supervisor's crash replay; ``resume_round`` records the round
    clock that replay is expected to reach, mirroring
    :class:`ConfigReply.resume_round`.
    """

    shard_index: int
    resume_round: int = 0


@dataclass(frozen=True)
class MigrateReply:
    """Acknowledges a :class:`MigrateRequest`: the fresh world's clock.

    ``now`` is always 0.0 for a just-built world; carrying it lets the
    parent assert the reset actually happened before replaying.
    """

    shard_index: int
    now: float


# ----------------------------------------------------------------------
# bootstrap (socket transport only)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HelloRequest:
    """A connecting worker announcing itself.

    The frame header carries the protocol version, which is all the
    parent needs to check before assigning a shard.
    """


@dataclass(frozen=True)
class ConfigReply:
    """The parent's answer to a hello: shard assignment + world config.

    ``world`` is a pickled :class:`WorldConfig` (see the module
    docstring for the trust model).  ``resume_round`` (protocol
    version 3) tells a worker replacing a crashed one which round clock
    its rebuilt world must reach: 0 for a fresh start, and the
    supervisor's current round when the parent is about to replay the
    dead worker's request log into it.
    ``extra_shards`` (protocol version 4) lists the *additional* shard
    worlds this worker hosts beyond ``shard_index`` — a multiplexed
    worker serves ``(shard_index, *extra_shards)`` and answers
    :class:`MuxRequest` frames with sub-replies in that order.
    """

    shard_index: int
    world: bytes
    resume_round: int = 0
    extra_shards: Tuple[int, ...] = ()


# ----------------------------------------------------------------------
# the tag-0 JSON escape: cold messages as canonical JSON
# ----------------------------------------------------------------------
_MESSAGE_CODECS: Dict[str, Tuple[type, Callable[[Any], Any], Callable[[Any], Any]]] = {
    "trace_req": (TraceRequest, lambda m: {}, lambda v: TraceRequest()),
    "trace_rep": (
        TraceReply,
        lambda m: {"trace": trace_to_dict(m.trace)},
        lambda v: TraceReply(trace=trace_from_dict(v["trace"])),
    ),
    "stop_req": (StopRequest, lambda m: {}, lambda v: StopRequest()),
    "stop_rep": (StopReply, lambda m: {}, lambda v: StopReply()),
    "error": (
        ErrorReply,
        lambda m: {"message": m.message},
        lambda v: ErrorReply(message=v["message"]),
    ),
    "hello": (HelloRequest, lambda m: {}, lambda v: HelloRequest()),
    "config": (
        ConfigReply,
        lambda m: {
            "shard_index": m.shard_index,
            "world": base64.b64encode(m.world).decode("ascii"),
            "resume_round": m.resume_round,
            "extra_shards": list(m.extra_shards),
        },
        lambda v: ConfigReply(
            shard_index=v["shard_index"],
            world=base64.b64decode(v["world"]),
            resume_round=v.get("resume_round", 0),
            extra_shards=tuple(v.get("extra_shards", ())),
        ),
    ),
    # the migrate pair (protocol v5) is cold-path traffic — one pair
    # per rebuilt world per membership change
    "migrate_req": (
        MigrateRequest,
        lambda m: {"shard_index": m.shard_index, "resume_round": m.resume_round},
        lambda v: MigrateRequest(
            shard_index=v["shard_index"], resume_round=v.get("resume_round", 0)
        ),
    ),
    "migrate_rep": (
        MigrateReply,
        lambda m: {"shard_index": m.shard_index, "now": m.now},
        lambda v: MigrateReply(shard_index=v["shard_index"], now=v["now"]),
    ),
}

_TAG_BY_TYPE = {cls: tag for tag, (cls, _e, _d) in _MESSAGE_CODECS.items()}


def _encode_json_body(message: object) -> bytes:
    """One cold message -> its canonical tagged-JSON body."""
    tag = _TAG_BY_TYPE.get(type(message))
    if tag is None:
        raise ProtocolError(f"not a protocol message: {type(message).__name__}")
    _cls, encode, _decode = _MESSAGE_CODECS[tag]
    try:
        payload = encode(message)
    except SerializationError as error:
        raise ProtocolError(
            f"{tag!r} payload cannot cross the wire: {error} "
            "(register a codec via repro.serialization.register_codec)"
        ) from None
    return json.dumps(
        {"t": tag, "v": payload}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _decode_json_body(body: bytes) -> object:
    """Invert :func:`_encode_json_body`."""
    try:
        blob = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"undecodable frame body: {error}") from None
    if not isinstance(blob, dict) or "t" not in blob or "v" not in blob:
        raise ProtocolError(f"malformed frame body: {blob!r}")
    tag = blob["t"]
    codec = _MESSAGE_CODECS.get(tag)
    if codec is None:
        raise ProtocolError(f"unknown message tag {tag!r}")
    _cls, _encode, decode = codec
    try:
        return decode(blob["v"])
    except (KeyError, TypeError, ValueError, SerializationError) as error:
        raise ProtocolError(f"malformed {tag!r} payload: {error}") from None


# ----------------------------------------------------------------------
# struct-packed layouts for the hot messages
# ----------------------------------------------------------------------
_U32 = struct.Struct(">I")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")
_SIZED = struct.Struct(">cI")          # value kind byte + length/count
_ADD_HEAD = struct.Struct(">QI")       # token, pid


@lru_cache(maxsize=1024)
def _repeat(fmt: str, count: int) -> struct.Struct:
    """A cached ``Struct`` for ``count`` repetitions of ``fmt``.

    Column-oriented packing: a whole completions / crash-set /
    string-length array costs **one** C pack or unpack call instead of
    one per element.
    """
    return struct.Struct(">" + fmt * count)


def _check_items(body: bytes, offset: int, count: int, itemsize: int) -> None:
    """Reject a wire-read item count the remaining body cannot hold.

    Counts come off the wire before the items they describe; a garbage
    or hostile count (say ``0xFFFFFFFF``) would otherwise be handed to
    :func:`_repeat`, which builds the format *string* first — gigabytes
    of work before ``struct.error`` ever gets a chance.  Checking
    ``count * itemsize`` against the bytes actually present turns every
    such frame into an immediate :class:`ProtocolError`.
    """
    if count * itemsize > len(body) - offset:
        raise ProtocolError(
            f"binary body announces {count} items of {itemsize} byte(s) "
            f"but only {len(body) - offset} bytes remain"
        )

#: value kind bytes as ints (decode compares ``body[offset]`` directly)
_K_NONE, _K_TRUE, _K_FALSE = ord("N"), ord("T"), ord("F")
_K_INT, _K_BIG, _K_FLOAT, _K_STR = ord("I"), ord("V"), ord("D"), ord("S")
_K_TUPLE, _K_FSET, _K_JSON = ord("U"), ord("X"), ord("J")
_K_FLAT, _K_LEAF = ord("W"), ord("L")
_LANE_STR, _LANE_I64 = ord("s"), ord("i")


def _flatten_shape(value: Any, shape: bytearray, leaves: list) -> int:
    """Preorder shape walk for the ``'W'`` layout; returns how many
    containers the subtree holds.  Leaves land in ``leaves`` untyped —
    the caller checks lane eligibility afterwards and discards the
    walk when no bulk lane fits."""
    kind = type(value)
    if kind is tuple:
        shape += _SIZED.pack(b"U", len(value))
        containers = 1
        for item in value:
            containers += _flatten_shape(item, shape, leaves)
        return containers
    if kind is frozenset:
        # same canonical (repr-sorted) element order as the walker
        shape += _SIZED.pack(b"X", len(value))
        containers = 1
        for item in sorted(value, key=repr):
            containers += _flatten_shape(item, shape, leaves)
        return containers
    shape.append(_K_LEAF)
    leaves.append(value)
    return 0


def _encode_flattened(value: Any, out: bytearray) -> bool:
    """Try the flattened shape-prefixed ``'W'`` layout for a container.

    Applies to *nested* tuples/frozensets (two or more containers)
    whose leaves all fit one bulk lane — all ``str``, or all i64-range
    ``int``.  The shape crosses as one preorder token string and the
    leaves as one column-packed lane, so decode is a few C unpack
    calls plus a shape rebuild instead of one dispatch per node.
    Returns ``False`` (having written nothing) when the value does not
    qualify; the caller falls back to the recursive walker.
    """
    shape = bytearray()
    leaves: list = []
    containers = _flatten_shape(value, shape, leaves)
    if containers < 2 or not leaves:
        return False
    count = len(leaves)
    if all(type(leaf) is str for leaf in leaves):
        out += _SIZED.pack(b"W", len(shape))
        out += shape
        blob = "".join(leaves).encode("utf-8")
        out.append(_LANE_STR)
        out += _U32.pack(count)
        out += _repeat("I", count).pack(*map(len, leaves))
        out += _U32.pack(len(blob))
        out += blob
        return True
    if all(
        type(leaf) is int and -(1 << 63) <= leaf < (1 << 63) for leaf in leaves
    ):
        out += _SIZED.pack(b"W", len(shape))
        out += shape
        out.append(_LANE_I64)
        out += _U32.pack(count)
        out += _repeat("q", count).pack(*leaves)
        return True
    return False


def _rebuild_shape(
    shape: bytes, offset: int, leaves: list, index: int
) -> Tuple[Any, int, int]:
    """Rebuild one subtree from a ``'W'`` shape prefix and leaf lane;
    returns (value, new shape offset, new leaf index)."""
    token = shape[offset]
    offset += 1
    if token == _K_LEAF:
        return leaves[index], offset, index + 1
    (count,) = _U32.unpack_from(shape, offset)
    offset += 4
    items = []
    for _ in range(count):
        item, offset, index = _rebuild_shape(shape, offset, leaves, index)
        items.append(item)
    if token == _K_TUPLE:
        return tuple(items), offset, index
    if token == _K_FSET:
        return frozenset(items), offset, index
    raise ProtocolError(f"unknown shape token {token!r}")


def _encode_binary_value(value: Any, out: bytearray) -> None:
    """Append one payload value in the binary value layout.

    Scalars, tuples and frozensets are native; anything else — ``⊥``,
    interned histories, counter maps, registered user types — takes
    the ``'J'`` escape through the canonical tagged codec, so the
    frames carry that codec's whole value universe.
    """
    kind = type(value)
    if kind is str:
        data = value.encode("utf-8")
        out += _SIZED.pack(b"S", len(data))
        out += data
    elif kind is int:
        if -(1 << 63) <= value < (1 << 63):
            out += b"I"
            out += _I64.pack(value)
        else:
            digits = str(value).encode("ascii")
            out += _SIZED.pack(b"V", len(digits))
            out += digits
    elif kind is float:
        out += b"D"
        out += _F64.pack(value)
    elif value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif kind is tuple:
        if not _encode_flattened(value, out):
            out += _SIZED.pack(b"U", len(value))
            for item in value:
                _encode_binary_value(item, out)
    elif kind is frozenset:
        # Canonical (repr-sorted) element order, like the canonical
        # codec: equal sets encode byte-identically in every process.
        if not _encode_flattened(value, out):
            out += _SIZED.pack(b"X", len(value))
            for item in sorted(value, key=repr):
                _encode_binary_value(item, out)
    else:
        # bool/int/float/str subclasses land here too (exact types
        # above keep the hot path to one dispatch) — the canonical
        # codec normalizes them.
        try:
            blob = json.dumps(
                encode_value(value), sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        except SerializationError as error:
            raise ProtocolError(
                f"payload cannot cross the wire: {error} "
                "(register a codec via repro.serialization.register_codec)"
            ) from None
        out += _SIZED.pack(b"J", len(blob))
        out += blob


def _decode_binary_value(body: bytes, offset: int) -> Tuple[Any, int]:
    """Invert :func:`_encode_binary_value`; returns (value, new offset)."""
    kind = body[offset]
    offset += 1
    if kind == _K_STR:
        (length,) = _U32.unpack_from(body, offset)
        offset += 4
        return body[offset : offset + length].decode("utf-8"), offset + length
    if kind == _K_INT:
        return _I64.unpack_from(body, offset)[0], offset + 8
    if kind == _K_FLOAT:
        return _F64.unpack_from(body, offset)[0], offset + 8
    if kind == _K_NONE:
        return None, offset
    if kind == _K_TRUE:
        return True, offset
    if kind == _K_FALSE:
        return False, offset
    if kind == _K_BIG:
        (length,) = _U32.unpack_from(body, offset)
        offset += 4
        return int(body[offset : offset + length].decode("ascii")), offset + length
    if kind == _K_TUPLE:
        (count,) = _U32.unpack_from(body, offset)
        offset += 4
        _check_items(body, offset, count, 1)
        items = []
        for _ in range(count):
            item, offset = _decode_binary_value(body, offset)
            items.append(item)
        return tuple(items), offset
    if kind == _K_FSET:
        (count,) = _U32.unpack_from(body, offset)
        offset += 4
        _check_items(body, offset, count, 1)
        items = []
        for _ in range(count):
            item, offset = _decode_binary_value(body, offset)
            items.append(item)
        return frozenset(items), offset
    if kind == _K_FLAT:
        (shape_size,) = _U32.unpack_from(body, offset)
        offset += 4
        if shape_size > len(body) - offset:
            raise ProtocolError(
                f"flattened shape prefix announces {shape_size} bytes, "
                f"only {len(body) - offset} remain"
            )
        shape = body[offset : offset + shape_size]
        offset += shape_size
        lane = body[offset]
        offset += 1
        (count,) = _U32.unpack_from(body, offset)
        offset += 4
        leaves: list = []
        if lane == _LANE_STR:
            _check_items(body, offset, count, 4)
            lengths = _repeat("I", count).unpack_from(body, offset)
            offset += 4 * count
            (blob_size,) = _U32.unpack_from(body, offset)
            offset += 4
            text = body[offset : offset + blob_size].decode("utf-8")
            offset += blob_size
            position = 0
            for length in lengths:
                leaves.append(text[position : position + length])
                position += length
        elif lane == _LANE_I64:
            _check_items(body, offset, count, 8)
            leaves.extend(_repeat("q", count).unpack_from(body, offset))
            offset += 8 * count
        else:
            raise ProtocolError(f"unknown flattened leaf lane {lane!r}")
        value, shape_offset, leaf_index = _rebuild_shape(shape, 0, leaves, 0)
        if shape_offset != len(shape) or leaf_index != count:
            raise ProtocolError("malformed flattened shape prefix")
        return value, offset
    if kind == _K_JSON:
        (length,) = _U32.unpack_from(body, offset)
        offset += 4
        blob = body[offset : offset + length]
        try:
            return decode_value(json.loads(blob.decode("utf-8"))), offset + length
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            SerializationError,
        ) as error:
            raise ProtocolError(f"malformed escaped value: {error}") from None
    raise ProtocolError(f"unknown binary value kind {kind!r}")


def _pack_adds(adds: Tuple[QueuedAdd, ...], out: bytearray) -> None:
    count = len(adds)
    out += _U32.pack(count)
    if not count:
        return
    strings = [value for _t, _p, value in adds if type(value) is str]
    if len(strings) == count:
        # bulk layout for the dominant case (string add values):
        # column-packed (token, pid) heads, one *character*-length
        # array and one concatenated blob — a handful of C calls for
        # the whole batch, and the decoder pays ONE utf-8 decode plus
        # a string slice per value.  Queue order is semantic and
        # preserved (no sorting here).
        out.append(1)
        heads: list = []
        for token, pid, _value in adds:
            heads.append(token)
            heads.append(pid)
        blob = "".join(strings).encode("utf-8")
        out += _repeat("QI", count).pack(*heads)
        out += _repeat("I", count).pack(*map(len, strings))
        out += _U32.pack(len(blob))
        out += blob
    else:
        out.append(0)
        for token, pid, value in adds:
            out += _ADD_HEAD.pack(token, pid)
            _encode_binary_value(value, out)


def _unpack_adds(body: bytes, offset: int) -> Tuple[Tuple[QueuedAdd, ...], int]:
    (count,) = _U32.unpack_from(body, offset)
    offset += 4
    if not count:
        return (), offset
    bulk = body[offset]
    offset += 1
    adds = []
    if bulk:
        _check_items(body, offset, count, 12)
        heads = _repeat("QI", count).unpack_from(body, offset)
        offset += 12 * count
        _check_items(body, offset, count, 4)
        lengths = _repeat("I", count).unpack_from(body, offset)
        offset += 4 * count
        (blob_size,) = _U32.unpack_from(body, offset)
        offset += 4
        text = body[offset : offset + blob_size].decode("utf-8")
        offset += blob_size
        position = 0
        for index, length in enumerate(lengths):
            adds.append(
                (heads[2 * index], heads[2 * index + 1], text[position : position + length])
            )
            position += length
    else:
        head_size = _ADD_HEAD.size
        for _ in range(count):
            token, pid = _ADD_HEAD.unpack_from(body, offset)
            offset += head_size
            value, offset = _decode_binary_value(body, offset)
            adds.append((token, pid, value))
    return tuple(adds), offset


def _pack_round_outcome(
    completions: Tuple[Tuple[int, float], ...],
    crashed: FrozenSet[int],
    now: float,
    out: bytearray,
) -> None:
    count = len(completions)
    out += _U32.pack(count)
    if count:
        out += _repeat("Qd", count).pack(*chain.from_iterable(completions))
    count = len(crashed)
    out += _U32.pack(count)
    if count:
        out += _repeat("I", count).pack(*sorted(crashed))
    out += _F64.pack(now)


def _unpack_round_outcome(body: bytes, offset: int):
    (count,) = _U32.unpack_from(body, offset)
    offset += 4
    if count:
        _check_items(body, offset, count, 16)
        flat = _repeat("Qd", count).unpack_from(body, offset)
        offset += 16 * count
        completions = tuple(zip(flat[0::2], flat[1::2]))
    else:
        completions = ()
    (count,) = _U32.unpack_from(body, offset)
    offset += 4
    _check_items(body, offset, count, 4)
    crashed = frozenset(_repeat("I", count).unpack_from(body, offset))
    offset += 4 * count
    (now,) = _F64.unpack_from(body, offset)
    return completions, crashed, now, offset + 8


#: body tags; 0 is the JSON escape for the cold messages.
_B_JSON, _B_ROUND_REQ, _B_ROUND_REP, _B_PEEK_REQ, _B_PEEK_REP = 0, 1, 2, 3, 4
_B_BATCH_REQ, _B_BATCH_REP = 5, 6
_B_MUX_REQ, _B_MUX_REP = 7, 8


def _encode_binary_body(message: object, out: bytearray) -> None:
    kind = type(message)
    if kind is RoundRequest:
        out.append(_B_ROUND_REQ)
        _pack_adds(message.adds, out)
    elif kind is RoundReply:
        out.append(_B_ROUND_REP)
        out.append(1 if message.alive else 0)
        _pack_round_outcome(message.completions, message.crashed, message.now, out)
    elif kind is PeekRequest:
        out.append(_B_PEEK_REQ)
        out += _U32.pack(message.pid)
        _pack_adds(message.adds, out)
    elif kind is PeekReply:
        out.append(_B_PEEK_REP)
        out.append(1 if message.crashed else 0)
        proposed = message.proposed
        count = len(proposed)
        strings = [item for item in proposed if type(item) is str]
        if count and len(strings) == count:
            # bulk layout for the dominant case (string payload sets):
            # a character-length array + one concatenated blob — a few
            # C calls instead of a per-item encode loop, and the
            # decoder pays one utf-8 decode plus a slice per item.
            # Plain string sort: canonical order only needs to be
            # deterministic, and a set round-trips regardless.
            out.append(1)
            strings.sort()
            blob = "".join(strings).encode("utf-8")
            out += _U32.pack(count)
            out += _repeat("I", count).pack(*map(len, strings))
            out += _U32.pack(len(blob))
            out += blob
        else:
            out.append(0)
            out += _U32.pack(count)
            for item in sorted(proposed, key=repr):
                _encode_binary_value(item, out)
    elif kind is StepBatchRequest:
        out.append(_B_BATCH_REQ)
        out += _U32.pack(message.rounds)
        _pack_adds(message.adds, out)
    elif kind is StepBatchReply:
        out.append(_B_BATCH_REP)
        out.append(1 if message.alive else 0)
        out += _U32.pack(message.executed)
        _pack_round_outcome(message.completions, message.crashed, message.now, out)
    elif kind is MuxRequest or kind is MuxReply:
        # length-prefixed sub-bodies, each a complete tagged binary
        # body — the hot sub-messages keep their struct-packed layouts
        # inside the multiplexed frame
        out.append(_B_MUX_REQ if kind is MuxRequest else _B_MUX_REP)
        out += _U32.pack(len(message.subs))
        for sub in message.subs:
            sub_body = bytearray()
            _encode_binary_body(sub, sub_body)
            out += _U32.pack(len(sub_body))
            out += sub_body
    else:
        # cold messages (trace/stop/error/bootstrap/migrate): canonical
        # JSON behind the escape tag
        out.append(_B_JSON)
        out += _encode_json_body(message)


def _decode_binary_body(body: bytes) -> object:
    if not body:
        raise ProtocolError("empty binary frame body")
    tag = body[0]
    try:
        if tag == _B_JSON:
            return _decode_json_body(body[1:])
        if tag == _B_ROUND_REQ:
            adds, _offset = _unpack_adds(body, 1)
            return RoundRequest(adds=adds)
        if tag == _B_ROUND_REP:
            completions, crashed, now, _offset = _unpack_round_outcome(body, 2)
            return RoundReply(
                alive=bool(body[1]), completions=completions, crashed=crashed, now=now
            )
        if tag == _B_PEEK_REQ:
            (pid,) = _U32.unpack_from(body, 1)
            adds, _offset = _unpack_adds(body, 5)
            return PeekRequest(pid=pid, adds=adds)
        if tag == _B_PEEK_REP:
            (count,) = _U32.unpack_from(body, 3)
            offset = 7
            items = []
            if body[2]:  # bulk all-strings layout
                _check_items(body, offset, count, 4)
                lengths = _repeat("I", count).unpack_from(body, offset)
                offset += 4 * count
                (blob_size,) = _U32.unpack_from(body, offset)
                offset += 4
                text = body[offset : offset + blob_size].decode("utf-8")
                position = 0
                for length in lengths:
                    items.append(text[position : position + length])
                    position += length
            else:
                _check_items(body, offset, count, 1)
                for _ in range(count):
                    item, offset = _decode_binary_value(body, offset)
                    items.append(item)
            return PeekReply(crashed=bool(body[1]), proposed=frozenset(items))
        if tag == _B_BATCH_REQ:
            (rounds,) = _U32.unpack_from(body, 1)
            adds, _offset = _unpack_adds(body, 5)
            return StepBatchRequest(rounds=rounds, adds=adds)
        if tag == _B_BATCH_REP:
            (executed,) = _U32.unpack_from(body, 2)
            completions, crashed, now, _offset = _unpack_round_outcome(body, 6)
            return StepBatchReply(
                alive=bool(body[1]),
                executed=executed,
                completions=completions,
                crashed=crashed,
                now=now,
            )
        if tag in (_B_MUX_REQ, _B_MUX_REP):
            (count,) = _U32.unpack_from(body, 1)
            offset = 5
            _check_items(body, offset, count, 4)
            subs = []
            for _ in range(count):
                (length,) = _U32.unpack_from(body, offset)
                offset += 4
                subs.append(_decode_binary_body(body[offset : offset + length]))
                offset += length
            cls = MuxRequest if tag == _B_MUX_REQ else MuxReply
            return cls(subs=tuple(subs))
    except ProtocolError:
        raise
    except (
        struct.error,       # short buffer under a column unpack
        IndexError,         # direct body[i] read past the end
        UnicodeDecodeError, # bulk string blob is not valid utf-8
        ValueError,         # e.g. a 'V' bignum whose digits aren't ascii digits
        OverflowError,      # a length/count that doesn't fit machine ints
        RecursionError,     # hostile deeply-nested container prefix
    ) as error:
        raise ProtocolError(
            f"truncated or corrupt binary frame body: {error!r}"
        ) from None
    raise ProtocolError(f"unknown binary message tag {tag!r}")


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_message(message: object) -> bytes:
    """One protocol message -> one versioned, length-prefixed frame."""
    # one buffer for header + body: the header is packed in place once
    # the body length is known, avoiding a full-frame concat copy
    frame = bytearray(HEADER_SIZE)
    _encode_binary_body(message, frame)
    length = len(frame) - HEADER_SIZE
    if length > _MAX_BODY_BYTES:  # pragma: no cover - 1 GiB of adds
        raise ProtocolError(f"frame body too large ({length} bytes)")
    _HEADER.pack_into(frame, 0, PROTOCOL_VERSION, length)
    return bytes(frame)


def decode_header(header: bytes) -> int:
    """Validate a frame header; return the body length it announces."""
    if len(header) != HEADER_SIZE:
        raise ProtocolError(f"truncated header ({len(header)} bytes)")
    version, length = _HEADER.unpack(header)
    if version != PROTOCOL_VERSION:
        raise VersionMismatch(version)
    if length > _MAX_BODY_BYTES:
        raise ProtocolError(f"frame announces implausible body ({length} bytes)")
    return length


def decode_body(body: bytes) -> object:
    """Invert a frame body (header already consumed)."""
    return _decode_binary_body(body)


def decode_message(frame: bytes) -> object:
    """Decode one complete frame (header + body) back to its message."""
    length = decode_header(frame[:HEADER_SIZE])
    body = frame[HEADER_SIZE:]
    if len(body) != length:
        raise ProtocolError(
            f"frame length mismatch: header says {length}, got {len(body)}"
        )
    return decode_body(body)

"""The shard cluster's wire protocol: message types + the frame codec.

The sharded weak-set's parent/worker conversation consists of a small
closed set of **round-trip message types**, one dataclass pair each:

========  ==============================  ==============================
exchange  request                         reply
========  ==============================  ==============================
step      :class:`StepBatchRequest` —     :class:`StepBatchReply` — shard
          advance up to ``rounds``        liveness, how many ticks
          lock-step ticks (one tick is    executed, completed adds, the
          ``rounds=1``); the adds         crash set and the clock
          queued since the last step
          apply before the first tick
peek      :class:`PeekRequest` — one      :class:`PeekReply` — the
          process's ``get`` (plus any     process's crash flag and its
          queued adds, so ordering is     local ``PROPOSED`` set
          preserved)
trace     :class:`TraceRequest`           :class:`TraceReply` — a
                                          point-in-time run trace
stop      :class:`StopRequest`            :class:`StopReply`
replay    :class:`ReplayRequest` — reset  one :class:`MuxReply` — the
          the world from its seeds,       sub-replies, index-aligned
          then answer step / peek /
          trace sub-requests in order
========  ==============================  ==============================

plus :class:`ErrorReply` (a worker-side failure, valid in any reply
position), the multiplexed pair :class:`MuxRequest` /
:class:`MuxReply`, and the one-time bootstrap pair
:class:`HelloRequest` / :class:`ConfigReply` that the socket transport
uses to hand a connecting worker its shard assignment.

Messages travel as **versioned, length-prefixed frames** in one
codec — there is no codec byte and nothing to negotiate::

    frame  := header body
    header := version:uint8  length:uint32 (big-endian)
    body   := tag:uint8 fields…

The body is a struct-packed field layout for the hot round-trip
messages (step / peek / mux / replay), which keeps pure-Python JSON
out of every socket frame::

    adds        := count:u32 (token:u64 pid:u32 value)*
    value       := 'N'|'T'|'F' | 'I' i64 | 'D' f64 | 'S' u32 utf8
                   | 'V' u32 decimal | 'U' u32 value* | 'X' u32 value*
                   | 'J' u32 canonical-JSON   (tagged-codec escape)

One recursive walker encodes every add value and every tuple/frozenset
node.  The one column-packed lane is a ``PeekReply``'s all-strings
``PROPOSED`` set, the one shape the program sends in bulk: a
``get`` hauls dozens of strings, while a frame carries a handful of
adds at most (PERFORMANCE.md §25).

Message layouts: tag 3 ``PeekRequest`` = pid:u32 adds; tag 4
``PeekReply`` = crashed:u8 bulk:u8 count:u32 then (bulk=1)
charlen:u32* bytes:u32 utf8 — one character-length array and one
concatenated blob — or (bulk=0) ``count`` values;
tag 5 ``StepBatchRequest`` = rounds:u32 adds; tag 6 ``StepBatchReply``
= alive:u8 executed:u32 count:u32 (token:u64 end:f64)* count:u32
crashed:u32* now:f64; tags 7/8 ``MuxRequest``/``MuxReply`` = count:u32
then length-prefixed sub-bodies; tag 9 ``ReplayRequest`` =
shard_index:u32 count:u32 then length-prefixed sub-bodies.  Tags 1 and
2 (the single-tick pair of versions 2–6) are retired and decode as
unknown tags.  Tag 0 is the JSON escape for the cold messages (trace,
stop, error, hello, config): canonical JSON (sorted keys, no
whitespace) behind the tag.

Decoding fails closed: every count and length is checked against the
bytes that remain, a bignum must be ``str(value)``'s digits, the bulk
lane's character lengths must add up to its blob, a decoded frozenset
(a ``'X'`` value, a ``PeekReply``'s ``PROPOSED`` on either lane, a
``StepBatchReply``'s crashed set) must hold as many distinct elements
as it announces, and a body — a mux sub-body too — must end exactly
where its layout does.  Anything else raises one
:class:`ProtocolError`, so a corrupt body cannot decode into a value
no process added.

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

    >>> request = StepBatchRequest(rounds=1, adds=((0, 2, "alpha"),))
    >>> frame = encode_message(request)
    >>> frame[:1] == bytes([PROTOCOL_VERSION])
    True
    >>> decode_message(frame)
    StepBatchRequest(rounds=1, adds=((0, 2, 'alpha'),))
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
    "ReplayRequest",
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
#: binary codec, and the step-batch messages; version 3 added a
#: resume-round field to :class:`ConfigReply` (crash recovery);
#: version 4 added the multiplexed frames (:class:`MuxRequest` /
#: :class:`MuxReply`), ``ConfigReply.extra_shards`` (one worker
#: hosting several shard worlds) and the flattened ``'W'``
#: nested-container value layout; version 5 added the membership
#: rebalance pair (``MigrateRequest`` / ``MigrateReply``)
#: that resets one worker's world in place before the parent replays
#: its rewritten history (``join_shard`` / ``leave_shard``); version 6
#: dropped the JSON frame codec: the codec byte left the header and the
#: codec fields left :class:`HelloRequest` / :class:`ConfigReply`;
#: version 7 retired the single-tick pair (tags 1/2): every tick
#: crosses as a :class:`StepBatchRequest` (one tick is ``rounds=1``);
#: version 8 dropped the resume-round field from :class:`ConfigReply`
#: and ``MigrateRequest`` again: a worker only stored it, and the
#: parent, which drives the replay, knows the round it replays to;
#: version 9 dropped the ``'W'`` value layout and the adds' bulk byte
#: and lane: the recursive walker carries every add and container;
#: version 10 replaced the migrate pair with :class:`ReplayRequest`:
#: a world is reset and replayed in one frame, answered by one
#: :class:`MuxReply`.
PROTOCOL_VERSION = 10

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
class StepBatchRequest:
    """Advance up to ``rounds`` lock-step ticks in one frame.

    Every tick crosses in one of these (a single tick is
    ``rounds=1``).  Queued adds apply before the **first** tick —
    exactly where ``rounds`` consecutive one-tick frames would apply
    them, since the parent drains its queue into the first frame of
    any run of steps — and the worker stops early when its world goes
    dead mid-batch.  One frame pair instead of ``rounds``: the
    ``round_batch=K`` lever for high-latency links.
    """

    rounds: int
    adds: Tuple[QueuedAdd, ...] = ()


@dataclass(frozen=True)
class StepBatchReply:
    """A step's outcome: liveness, executed ticks, completions, crash
    set, clock.

    ``completions`` carry the simulated-time ``end`` stamps one-tick
    steps would have reported — batching coalesces frames, not
    simulated time — and ``executed`` says how many ticks actually ran
    (fewer than requested only when the world went dead).
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
class ReplayRequest:
    """Rebuild the worker's world in one frame (protocol v10).

    The worker resets its world to a fresh seed-built state for
    ``shard_index`` (its own member id: the field double-checks that
    parent and worker agree which world this channel hosts), then
    answers ``subs`` in order, each a step, peek or trace request, and
    replies with one :class:`MuxReply` whose ``subs`` align
    index-for-index.  Crash recovery and membership changes both send
    it: ``subs`` are the member's slice of the parent's operation
    history, then, after a crash, the request the dead worker still
    owed a reply to.  One round trip per rebuild, however long the
    history.
    """

    shard_index: int
    subs: Tuple[object, ...]


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
    docstring for the trust model).  A worker replacing a crashed
    one gets the same reply as a fresh one: its world starts empty and
    the parent replays the dead worker's request log into it.
    ``extra_shards`` (protocol version 4) lists the *additional* shard
    worlds this worker hosts beyond ``shard_index`` — a multiplexed
    worker serves ``(shard_index, *extra_shards)`` and answers
    :class:`MuxRequest` frames with sub-replies in that order.
    """

    shard_index: int
    world: bytes
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
            "extra_shards": list(m.extra_shards),
        },
        lambda v: ConfigReply(
            shard_index=v["shard_index"],
            world=base64.b64decode(v["world"]),
            extra_shards=tuple(v.get("extra_shards", ())),
        ),
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


_JSON_DECODER = json.JSONDecoder()


def _load_json(data: bytes) -> Any:
    """Parse ``data`` as exactly one JSON document: unlike
    :func:`json.loads`, no whitespace may pad it, so a JSON field is
    consumed exactly like a packed one."""
    text = data.decode("utf-8")
    value, end = _JSON_DECODER.raw_decode(text)
    if end != len(text):
        raise json.JSONDecodeError("Extra data", text, end)
    return value


def _decode_json_body(body: bytes) -> object:
    """Invert :func:`_encode_json_body`."""
    try:
        blob = _load_json(body)
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
_BATCH_REP_HEAD = struct.Struct(">II")  # executed, completion count


@lru_cache(maxsize=1024)
def _repeat(fmt: str, count: int) -> struct.Struct:
    """A cached ``Struct`` for ``count`` repetitions of ``fmt``.

    Column-oriented packing: a whole completions / crash-set /
    string-length array costs **one** C pack or unpack call instead of
    one per element.
    """
    return struct.Struct(">" + fmt * count)


def _check_items(body: bytes, offset: int, count: int, itemsize: int) -> int:
    """Reject a wire-read item count the remaining body cannot hold;
    return the offset just past the ``count`` items.

    Counts come off the wire before the items they describe; a garbage
    or hostile count (say ``0xFFFFFFFF``) would otherwise be handed to
    :func:`_repeat`, which builds the format *string* first — gigabytes
    of work before ``struct.error`` ever gets a chance.  Checking
    ``count * itemsize`` against the bytes actually present turns every
    such frame into an immediate :class:`ProtocolError`.  Every byte
    field (bignum, blob, sub-body; a string inlines the same test) is
    a count of 1-byte items, so no read can slice past the body and
    come back short.
    """
    end = offset + count * itemsize
    if end > len(body):
        raise ProtocolError(
            f"binary body announces {count} items of {itemsize} byte(s) "
            f"but only {len(body) - offset} bytes remain"
        )
    return end


def _distinct(items, count: int, what: str) -> FrozenSet[Any]:
    """The frozenset of the ``count`` decoded ``items``, failing closed
    when two of them are equal: the encoder writes each element of a
    set once, so a body that repeats one announces a size the set it
    decodes to does not have."""
    value = frozenset(items)
    if len(value) != count:
        raise ProtocolError(
            f"{what} announces {count} elements but only "
            f"{len(value)} are distinct"
        )
    return value


#: value kind bytes as ints (decode compares ``body[offset]`` directly)
_K_NONE, _K_TRUE, _K_FALSE = ord("N"), ord("T"), ord("F")
_K_INT, _K_BIG, _K_FLOAT, _K_STR = ord("I"), ord("V"), ord("D"), ord("S")
_K_TUPLE, _K_FSET, _K_JSON = ord("U"), ord("X"), ord("J")


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
        out += _SIZED.pack(b"U", len(value))
        for item in value:
            _encode_binary_value(item, out)
    elif kind is frozenset:
        # Canonical (repr-sorted) element order, like the canonical
        # codec: equal sets encode byte-identically in every process.
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
        end = offset + length
        if end > len(body):  # _check_items inline: the walker's hottest read
            raise ProtocolError(
                f"string announces {length} bytes but only "
                f"{len(body) - offset} remain"
            )
        return body[offset:end].decode("utf-8"), end
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
        end = _check_items(body, offset, length, 1)
        digits = body[offset:end].decode("ascii")
        # int() also takes " 1_0"; the encoder writes str(value) only
        if not digits.lstrip("-").isdecimal():
            raise ProtocolError(f"malformed bignum digits {digits!r}")
        return int(digits), end
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
        return _distinct(items, count, "frozenset"), offset
    if kind == _K_JSON:
        (length,) = _U32.unpack_from(body, offset)
        offset += 4
        end = _check_items(body, offset, length, 1)
        try:
            return decode_value(_load_json(body[offset:end])), end
        except (
            UnicodeDecodeError,
            json.JSONDecodeError,
            SerializationError,
        ) as error:
            raise ProtocolError(f"malformed escaped value: {error}") from None
    raise ProtocolError(f"unknown binary value kind {kind!r}")


def _pack_adds(adds: Tuple[QueuedAdd, ...], out: bytearray) -> None:
    # queue order is semantic and preserved (no sorting here)
    out += _U32.pack(len(adds))
    for token, pid, value in adds:
        out += _ADD_HEAD.pack(token, pid)
        _encode_binary_value(value, out)


def _unpack_adds(body: bytes, offset: int) -> Tuple[Tuple[QueuedAdd, ...], int]:
    (count,) = _U32.unpack_from(body, offset)
    offset += 4
    # an add is its head plus at least one value byte
    _check_items(body, offset, count, _ADD_HEAD.size + 1)
    adds = []
    for _ in range(count):
        token, pid = _ADD_HEAD.unpack_from(body, offset)
        value, offset = _decode_binary_value(body, offset + _ADD_HEAD.size)
        adds.append((token, pid, value))
    return tuple(adds), offset


#: body tags; 0 is the JSON escape for the cold messages.  Tags 1 and
#: 2 (the single-tick pair up to version 6) stay unassigned.
_B_JSON, _B_PEEK_REQ, _B_PEEK_REP = 0, 3, 4
_B_BATCH_REQ, _B_BATCH_REP = 5, 6
_B_MUX_REQ, _B_MUX_REP, _B_REPLAY_REQ = 7, 8, 9


def _encode_binary_body(message: object, out: bytearray) -> None:
    kind = type(message)
    if kind is StepBatchRequest:
        out.append(_B_BATCH_REQ)
        out += _U32.pack(message.rounds)
        _pack_adds(message.adds, out)
    elif kind is StepBatchReply:
        out.append(_B_BATCH_REP)
        out.append(1 if message.alive else 0)
        out += _U32.pack(message.executed)
        completions = message.completions
        count = len(completions)
        out += _U32.pack(count)
        if count:
            out += _repeat("Qd", count).pack(*chain.from_iterable(completions))
        count = len(message.crashed)
        out += _U32.pack(count)
        if count:
            out += _repeat("I", count).pack(*sorted(message.crashed))
        out += _F64.pack(message.now)
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
    elif kind is MuxRequest or kind is MuxReply or kind is ReplayRequest:
        # length-prefixed sub-bodies, each a complete tagged binary
        # body — the hot sub-messages keep their struct-packed layouts
        # inside the multiplexed frame; a replay names its world first
        if kind is ReplayRequest:
            out.append(_B_REPLAY_REQ)
            out += _U32.pack(message.shard_index)
        else:
            out.append(_B_MUX_REQ if kind is MuxRequest else _B_MUX_REP)
        out += _U32.pack(len(message.subs))
        for sub in message.subs:
            sub_body = bytearray()
            _encode_binary_body(sub, sub_body)
            out += _U32.pack(len(sub_body))
            out += sub_body
    else:
        # cold messages (trace/stop/error/bootstrap): canonical
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
        if tag == _B_BATCH_REQ:
            (rounds,) = _U32.unpack_from(body, 1)
            adds, offset = _unpack_adds(body, 5)
            message = StepBatchRequest(rounds=rounds, adds=adds)
        elif tag == _B_BATCH_REP:
            executed, count = _BATCH_REP_HEAD.unpack_from(body, 2)
            offset = 10
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
            crashed = _distinct(
                _repeat("I", count).unpack_from(body, offset), count, "crashed set"
            )
            offset += 4 * count
            (now,) = _F64.unpack_from(body, offset)
            offset += 8
            message = StepBatchReply(
                alive=bool(body[1]),
                executed=executed,
                completions=completions,
                crashed=crashed,
                now=now,
            )
        elif tag == _B_PEEK_REQ:
            (pid,) = _U32.unpack_from(body, 1)
            adds, offset = _unpack_adds(body, 5)
            message = PeekRequest(pid=pid, adds=adds)
        elif tag == _B_PEEK_REP:
            (count,) = _U32.unpack_from(body, 3)
            offset = 7
            items = []
            if body[2]:  # bulk all-strings layout
                _check_items(body, offset, count, 4)
                lengths = _repeat("I", count).unpack_from(body, offset)
                offset += 4 * count
                (blob_size,) = _U32.unpack_from(body, offset)
                offset += 4
                end = _check_items(body, offset, blob_size, 1)
                text = body[offset:end].decode("utf-8")
                offset = end
                if sum(lengths) != len(text):
                    raise ProtocolError(
                        f"bulk string lengths add up to {sum(lengths)} "
                        f"characters but the blob holds {len(text)}"
                    )
                position = 0
                for length in lengths:
                    items.append(text[position : position + length])
                    position += length
            else:
                _check_items(body, offset, count, 1)
                for _ in range(count):
                    item, offset = _decode_binary_value(body, offset)
                    items.append(item)
            message = PeekReply(
                crashed=bool(body[1]),
                proposed=_distinct(items, count, "PROPOSED set"),
            )
        elif tag in (_B_MUX_REQ, _B_MUX_REP, _B_REPLAY_REQ):
            offset = 5 if tag == _B_REPLAY_REQ else 1
            (count,) = _U32.unpack_from(body, offset)
            offset += 4
            _check_items(body, offset, count, 4)
            subs = []
            for _ in range(count):
                (length,) = _U32.unpack_from(body, offset)
                offset += 4
                end = _check_items(body, offset, length, 1)
                subs.append(_decode_binary_body(body[offset:end]))
                offset = end
            if tag == _B_REPLAY_REQ:
                (shard_index,) = _U32.unpack_from(body, 1)
                message = ReplayRequest(shard_index=shard_index, subs=tuple(subs))
            else:
                cls = MuxRequest if tag == _B_MUX_REQ else MuxReply
                message = cls(subs=tuple(subs))
        else:
            raise ProtocolError(f"unknown binary message tag {tag!r}")
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
    if offset != len(body):
        raise ProtocolError(
            f"binary body holds {len(body)} bytes but its "
            f"{type(message).__name__} layout ends at byte {offset}"
        )
    return message


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

"""The shard wire protocol: round-trip identity, framing, versioning.

The acceptance bar for the transport split and the binary fast path:
the frame codec must round-trip every message type exactly
(property-tested over the value universe the weak set trades in —
including unicode strings, nested frozensets, big ints and ``⊥``),
frames must fail loudly — wrong version, truncation, unknown tags —
instead of mis-decoding, and a version mismatch must carry both
versions so bootstrap code can name them.
"""

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    messages,
    nested_i64,
    nested_strings,
    queued_adds,
    scalars,
    values,
)
from repro.core.counters import FrozenCounters
from repro.serialization import trace_to_json
from repro.weakset.protocol import (
    HEADER_SIZE,
    PROTOCOL_VERSION,
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
    RoundReply,
    RoundRequest,
    StepBatchReply,
    StepBatchRequest,
    StopReply,
    StopRequest,
    TraceReply,
    TraceRequest,
    VersionMismatch,
    decode_message,
    encode_message,
)
from repro.weakset.cluster import MSWeakSetCluster


def roundtrip(message):
    return decode_message(encode_message(message))


def header(length, version=PROTOCOL_VERSION):
    """A hand-built frame header: version:u8 length:u32."""
    return bytes([version]) + length.to_bytes(4, "big")


class TestRoundTripIdentity:
    @given(adds=queued_adds)
    @settings(max_examples=60)
    def test_round_request(self, adds):
        message = RoundRequest(adds=adds)
        assert roundtrip(message) == message

    @given(
        alive=st.booleans(),
        completions=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**31),
                st.floats(min_value=0, max_value=1e9, allow_nan=False),
            ),
            max_size=5,
        ).map(tuple),
        crashed=st.frozensets(st.integers(min_value=0, max_value=63), max_size=6),
        now=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=60)
    def test_round_reply(self, alive, completions, crashed, now):
        message = RoundReply(
            alive=alive, completions=completions, crashed=crashed, now=now
        )
        assert roundtrip(message) == message

    @given(
        rounds=st.integers(min_value=1, max_value=1000),
        adds=queued_adds,
        executed=st.integers(min_value=0, max_value=1000),
        alive=st.booleans(),
        now=st.floats(min_value=0, max_value=1e9, allow_nan=False),
    )
    @settings(max_examples=40)
    def test_step_batch_pair(self, rounds, adds, executed, alive, now):
        request = StepBatchRequest(rounds=rounds, adds=adds)
        assert roundtrip(request) == request
        reply = StepBatchReply(
            alive=alive,
            executed=executed,
            completions=((7, now),),
            crashed=frozenset({0}),
            now=now,
        )
        assert roundtrip(reply) == reply

    @given(pid=st.integers(min_value=0, max_value=63), adds=queued_adds)
    @settings(max_examples=60)
    def test_peek_request(self, pid, adds):
        message = PeekRequest(pid=pid, adds=adds)
        assert roundtrip(message) == message

    @given(
        crashed=st.booleans(),
        proposed=st.frozensets(values, max_size=6),
    )
    @settings(max_examples=60)
    def test_peek_reply(self, crashed, proposed):
        message = PeekReply(crashed=crashed, proposed=proposed)
        assert roundtrip(message) == message

    @given(proposed=st.frozensets(st.text(max_size=12), max_size=8))
    @settings(max_examples=60)
    def test_peek_reply_string_sets(self, proposed):
        """The all-strings bulk lane (unicode included) is lossless."""
        message = PeekReply(crashed=False, proposed=proposed)
        assert roundtrip(message) == message

    def test_registered_codec_values_cross_the_wire(self):
        """Payload types outside the native lanes (here a counter map)
        ride the canonical tagged codec inside the frame."""
        counters = FrozenCounters({(0, 1): 2, (0,): 1})
        message = RoundRequest(adds=((4, 1, counters), (5, 2, "plain")))
        assert roundtrip(message) == message

    def test_trace_pair_carries_a_real_run_byte_identically(self):
        cluster = MSWeakSetCluster(3, max_total_rounds=40)
        cluster.handle(0).add("alpha")
        cluster.handle(1).add(("beta", frozenset({1, 2})))
        assert roundtrip(TraceRequest()) == TraceRequest()
        reply = roundtrip(TraceReply(trace=cluster.trace))
        assert trace_to_json(reply.trace) == trace_to_json(cluster.trace)
        # a second hop is a fixed point (what lets traces() snapshots
        # compare byte-identically to live serial traces)
        assert trace_to_json(roundtrip(reply).trace) == trace_to_json(
            cluster.trace
        )

    def test_stop_error_and_bootstrap_messages(self):
        assert roundtrip(StopRequest()) == StopRequest()
        assert roundtrip(StopReply()) == StopReply()
        error = ErrorReply("boom\n  ünïcode trace")
        assert roundtrip(error) == error
        hello = HelloRequest()
        assert roundtrip(hello) == hello
        config = ConfigReply(shard_index=3, world=b"\x00\x01pickle-bytes\xff")
        assert roundtrip(config) == config

    def test_migrate_pair(self):
        """The protocol-v5 rebalance handshake crosses the wire."""
        request = MigrateRequest(shard_index=7, resume_round=42)
        assert roundtrip(request) == request
        assert roundtrip(MigrateRequest(shard_index=0)).resume_round == 0
        reply = MigrateReply(shard_index=7, now=0.0)
        assert roundtrip(reply) == reply


def _body(message):
    return encode_message(message)[HEADER_SIZE:]


class TestFlattenedLayout:
    """The 'W' shape-prefixed layout: nested homogeneous containers
    cross as one shape string plus one column-packed leaf lane; every
    shape that does not qualify falls back to the recursive walker —
    and both paths round-trip identically."""

    @given(value=nested_strings)
    @settings(max_examples=60)
    def test_string_lane_round_trips(self, value):
        message = RoundRequest(adds=((0, 0, value),))
        assert roundtrip(message) == message

    @given(value=nested_i64)
    @settings(max_examples=60)
    def test_i64_lane_round_trips(self, value):
        message = PeekReply(crashed=False, proposed=frozenset({(value, 0)}))
        assert roundtrip(message) == message

    @given(value=st.recursive(
        scalars,
        lambda children: st.one_of(
            st.tuples(children, children),
            st.frozensets(children, max_size=3),
        ),
        max_leaves=10,
    ))
    @settings(max_examples=60)
    def test_walker_fallback_round_trips(self, value):
        """Mixed-lane leaves (strings next to ints, floats, ⊥ …) do
        not qualify for a bulk lane; the walker carries them."""
        message = RoundRequest(adds=((1, 2, (value, "tail")),))
        assert roundtrip(message) == message

    def test_flattened_layout_engages_on_nested_payloads(self):
        nested = (("aa", "bb"), frozenset({"cc"}))
        assert b"W" in _body(RoundRequest(adds=((0, 0, nested),)))
        # a single (unnested) container stays on the walker: the
        # shape prefix would cost more than it saves
        flat = ("aa", "bb", "cc")
        assert b"W" not in _body(RoundRequest(adds=((0, 0, flat),)))
        # mixed leaf types disqualify the bulk lanes
        mixed = (("aa", 1), frozenset({"cc"}))
        assert b"W" not in _body(RoundRequest(adds=((0, 0, mixed),)))
        message = RoundRequest(adds=((0, 0, mixed),))
        assert roundtrip(message) == message

    def test_big_ints_fall_back_to_the_walker(self):
        huge = ((1 << 70, 2), (3, 4))
        body = _body(RoundRequest(adds=((0, 0, huge),)))
        assert b"W" not in body
        message = RoundRequest(adds=((0, 0, huge),))
        assert roundtrip(message) == message

    def test_equal_frozensets_encode_byte_identically(self):
        """The flattened frozenset walk keeps the canonical
        (repr-sorted) element order, so equal sets built in different
        orders produce the same bytes in every process."""
        ab = frozenset({("a", "b"), ("c", "d")})
        ba = frozenset({("c", "d"), ("a", "b")})
        left = encode_message(PeekReply(crashed=False, proposed=ab))
        right = encode_message(PeekReply(crashed=False, proposed=ba))
        assert left == right


class TestMuxFrames:
    """Protocol v4: several shard worlds behind one worker channel."""

    def test_mux_request_and_reply_round_trip(self):
        request = MuxRequest(subs=(
            RoundRequest(adds=((0, 1, "alpha"),)),
            StepBatchRequest(rounds=4, adds=()),
            PeekRequest(pid=2, adds=()),
        ))
        assert roundtrip(request) == request
        reply = MuxReply(subs=(
            RoundReply(
                alive=True, completions=((1, 2.0),),
                crashed=frozenset({0}), now=3.0,
            ),
            StepBatchReply(
                alive=False, executed=2, completions=(),
                crashed=frozenset(), now=5.0,
            ),
            PeekReply(crashed=False, proposed=frozenset({"v"})),
        ))
        assert roundtrip(reply) == reply

    def test_empty_and_nested_payload_subs(self):
        request = MuxRequest(subs=(
            RoundRequest(adds=((0, 0, (("x", "y"), frozenset({"z"}))),)),
        ))
        assert roundtrip(request) == request

    def test_config_reply_carries_extra_shards(self):
        config = ConfigReply(
            shard_index=2, world=b"\x00pickled", extra_shards=(3, 4)
        )
        decoded = roundtrip(config)
        assert decoded == config
        assert decoded.extra_shards == (3, 4)

    def test_config_reply_without_extra_shards_defaults_empty(self):
        """A frame from a pre-v4-shaped body (no extra_shards key)
        decodes with the single-world default."""
        body = _body(ConfigReply(shard_index=1, world=b"w"))
        assert body[0] == 0  # the cold messages' JSON escape tag
        blob = json.loads(body[1:].decode("utf-8"))
        del blob["v"]["extra_shards"]
        body = bytes([0]) + json.dumps(blob).encode("utf-8")
        assert decode_message(header(len(body)) + body).extra_shards == ()


class TestFraming:
    def test_protocol_v6_pins(self):
        """Version 6 dropped the codec byte: the header is
        version:u8 length:u32."""
        assert PROTOCOL_VERSION == 6
        assert HEADER_SIZE == 5

    def test_header_carries_version_and_length(self):
        frame = encode_message(StopRequest())
        assert frame[0] == PROTOCOL_VERSION
        body_length = int.from_bytes(frame[1:HEADER_SIZE], "big")
        assert len(frame) == HEADER_SIZE + body_length

    def test_version_mismatch_rejected_naming_both_versions(self):
        frame = bytearray(encode_message(StopRequest()))
        frame[0] = PROTOCOL_VERSION + 1
        with pytest.raises(VersionMismatch) as excinfo:
            decode_message(bytes(frame))
        assert excinfo.value.peer_version == PROTOCOL_VERSION + 1
        assert excinfo.value.local_version == PROTOCOL_VERSION
        assert str(PROTOCOL_VERSION + 1) in str(excinfo.value)
        assert str(PROTOCOL_VERSION) in str(excinfo.value)

    def test_v5_six_byte_header_raises_version_mismatch(self):
        """A v5 peer's frame (version, codec byte, length) fails on its
        first byte, naming both versions."""
        body = bytes([0]) + b'{"t":"stop_req","v":{}}'
        v5_frame = bytes([5, 1]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(VersionMismatch) as excinfo:
            decode_message(v5_frame)
        assert excinfo.value.peer_version == 5
        assert excinfo.value.local_version == 6
        assert "5" in str(excinfo.value) and "6" in str(excinfo.value)

    def test_truncated_frame_rejected(self):
        frame = encode_message(RoundRequest(adds=((0, 1, "x"),)))
        with pytest.raises(ProtocolError):
            decode_message(frame[:-1])
        with pytest.raises(ProtocolError):
            decode_message(frame[: HEADER_SIZE - 1])

    def test_garbage_body_rejected(self):
        with pytest.raises(ProtocolError):
            decode_message(header(3) + b"\xff\xfe\x00")

    def test_unknown_tag_rejected(self):
        body = bytes([0]) + b'{"t":"warp","v":{}}'  # the JSON escape
        with pytest.raises(ProtocolError, match="unknown message tag"):
            decode_message(header(len(body)) + body)

    def test_hot_messages_have_no_json_escape(self):
        """The round/batch/peek/mux messages cross only in their packed
        layouts; the JSON escape knows the cold messages alone."""
        body = bytes([0]) + b'{"t":"round_req","v":{"adds":[]}}'
        with pytest.raises(ProtocolError, match="unknown message tag"):
            decode_message(header(len(body)) + body)

    def test_unknown_binary_message_tag_rejected(self):
        body = bytes([200])
        with pytest.raises(ProtocolError, match="unknown binary message tag"):
            decode_message(header(len(body)) + body)

    def test_non_message_rejected_at_encode(self):
        with pytest.raises(ProtocolError):
            encode_message({"not": "a message"})

    def test_implausible_length_rejected(self):
        with pytest.raises(ProtocolError, match="implausible"):
            decode_message(header(1 << 31) + b"")


def _small_trace():
    cluster = MSWeakSetCluster(2, max_total_rounds=6)
    cluster.handle(0).add("t")
    return cluster.trace


#: the hot messages and the body tag of each one's packed layout, as
#: the module docstring's layout table documents them
HOT_TAGS = [
    (RoundRequest(adds=((0, 1, "a"),)), 1),
    (
        RoundReply(
            alive=True, completions=((1, 2.0),), crashed=frozenset({0}), now=3.0
        ),
        2,
    ),
    (PeekRequest(pid=2, adds=((3, 2, "p"),)), 3),
    (PeekReply(crashed=False, proposed=frozenset({"v"})), 4),
    (StepBatchRequest(rounds=4, adds=()), 5),
    (
        StepBatchReply(
            alive=False, executed=2, completions=(), crashed=frozenset(), now=5.0
        ),
        6,
    ),
    (MuxRequest(subs=(PeekRequest(pid=0, adds=()),)), 7),
    (MuxReply(subs=(PeekReply(crashed=True, proposed=frozenset()),)), 8),
]

#: builders for every cold message, each crossing behind tag 0
COLD_MESSAGES = [
    TraceRequest,
    lambda: TraceReply(trace=_small_trace()),
    StopRequest,
    StopReply,
    lambda: ErrorReply("boom\n  ünïcode trace"),
    HelloRequest,
    lambda: ConfigReply(shard_index=3, world=b"\x00w\xff", extra_shards=(4,)),
    lambda: MigrateRequest(shard_index=7, resume_round=42),
    lambda: MigrateReply(shard_index=7, now=1.5),
]
COLD_IDS = [
    "trace_req", "trace_rep", "stop_req", "stop_rep", "error",
    "hello", "config", "migrate_req", "migrate_rep",
]


class TestWireTags:
    """The body's first byte names its layout: tags 1–8 for the hot
    messages' packed layouts, tag 0 for the cold messages' canonical
    JSON.  A peer that reads the same version must read the same tags,
    so each one is pinned."""

    @pytest.mark.parametrize(
        "message, tag",
        HOT_TAGS,
        ids=[type(message).__name__ for message, _ in HOT_TAGS],
    )
    def test_hot_message_carries_its_packed_tag(self, message, tag):
        body = _body(message)
        assert body[0] == tag
        assert b'"t":' not in body  # no JSON anywhere in the layout
        assert roundtrip(message) == message

    @pytest.mark.parametrize("build", COLD_MESSAGES, ids=COLD_IDS)
    def test_cold_message_rides_the_canonical_json_escape(self, build):
        message = build()
        body = _body(message)
        assert body[0] == 0
        text = body[1:].decode("ascii")
        # canonical: sorted keys, no whitespace, ASCII escapes
        assert text == json.dumps(
            json.loads(text), sort_keys=True, separators=(",", ":")
        )
        assert roundtrip(message) == message

    def test_hello_negotiates_nothing(self):
        """Version 6 has one codec, so the hello is an empty payload and
        the config names no codec: the header's version byte is the
        whole handshake."""
        assert fields(HelloRequest) == ()
        assert "codec" not in {field.name for field in fields(ConfigReply)}
        assert encode_message(HelloRequest()) == (
            header(21) + b'\x00{"t":"hello","v":{}}'
        )


class TestCodecFuzz:
    """Hostile-input bar for the codec: decode of any truncated or
    corrupted frame must raise a clean :class:`ProtocolError` (or its
    :class:`VersionMismatch` subclass when the mutation hits the
    version byte) — never hang, never assert, never leak a bare
    ``struct.error``/``UnicodeDecodeError``/``RecursionError``.
    """

    @given(message=messages)
    @settings(max_examples=120)
    def test_every_message_round_trips(self, message):
        """The generator module's full message universe is lossless
        (the positive half the fuzz half leans on)."""
        assert roundtrip(message) == message

    @given(
        message=messages,
        data=st.data(),
    )
    @settings(max_examples=150)
    def test_truncated_frames_raise_protocol_error(self, message, data):
        frame = encode_message(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(frame) - 1))
        with pytest.raises(ProtocolError):
            decode_message(frame[:cut])

    @given(
        message=messages,
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_mutated_frames_never_leak_raw_errors(self, message, data):
        frame = bytearray(encode_message(message))
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            position = data.draw(
                st.integers(min_value=0, max_value=len(frame) - 1)
            )
            frame[position] = data.draw(st.integers(min_value=0, max_value=255))
        try:
            decode_message(bytes(frame))
        except ProtocolError:
            pass  # VersionMismatch subclasses ProtocolError

    @given(
        message=messages,
        garbage=st.binary(min_size=1, max_size=16),
    )
    @settings(max_examples=100)
    def test_garbage_prefixed_bodies_raise(self, message, garbage):
        """A frame whose body got displaced by leading garbage (the
        classic desynchronized-stream symptom) fails loudly."""
        frame = encode_message(message)
        body = garbage + frame[HEADER_SIZE:]
        try:
            decode_message(header(len(body)) + body)
        except ProtocolError:
            pass

    @given(value=st.one_of(nested_strings, nested_i64), data=st.data())
    @settings(max_examples=150)
    def test_flattened_layout_survives_corruption(self, value, data):
        """The 'W' shape-prefixed layout under byte corruption: its
        shape prefix, lane byte, counts and blob are all attack
        surface; nothing worse than ProtocolError may escape."""
        frame = bytearray(
            encode_message(RoundRequest(adds=((1, 0, (value, value)),)))
        )
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            position = data.draw(
                st.integers(min_value=HEADER_SIZE, max_value=len(frame) - 1)
            )
            frame[position] = data.draw(st.integers(min_value=0, max_value=255))
        try:
            decode_message(bytes(frame))
        except ProtocolError:
            pass

    def test_giant_count_rejected_before_allocation(self):
        """A hostile item count (0xFFFFFFFF) must be rejected from the
        body length, not handed to the column unpacker to build a
        4-billion-entry format string."""
        import struct
        import time

        # bulk-adds layout announcing 2**32-1 adds with a 5-byte body
        body = struct.pack(">BIB", 1, 0xFFFFFFFF, 1)  # tag=round_req
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match="announce"):
            decode_message(header(len(body)) + body)
        assert time.perf_counter() - started < 1.0

    def test_deep_nesting_rejected_cleanly(self):
        """A hostile deeply-nested tuple prefix (every byte opens a new
        1-element tuple) exhausts recursion inside the decoder and
        surfaces as ProtocolError, not RecursionError."""
        depth = 50_000
        add_head = (0).to_bytes(8, "big") + (0).to_bytes(4, "big")
        value = (b"U" + (1).to_bytes(4, "big")) * depth + b"N"
        body = (
            bytes([1])  # round_req tag
            + (1).to_bytes(4, "big")  # one add
            + bytes([0])  # walker (non-bulk) layout
            + add_head
            + value
        )
        with pytest.raises(ProtocolError):
            decode_message(header(len(body)) + body)

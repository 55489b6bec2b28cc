"""The shard wire protocol: round-trip identity, framing, versioning.

The acceptance bar for the transport split and the binary fast path:
the frame codec must round-trip every message type exactly
(property-tested over the value universe the weak set trades in —
including unicode strings, nested frozensets, big ints and ``⊥``),
frames must fail loudly — wrong version, truncation, unknown tags, a
body that does not hold exactly what it announces — instead of
mis-decoding, and a version mismatch must carry both
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
from repro.values import BOTTOM
from repro.weakset.protocol import (
    HEADER_SIZE,
    PROTOCOL_VERSION,
    ConfigReply,
    ErrorReply,
    HelloRequest,
    MuxReply,
    MuxRequest,
    PeekReply,
    PeekRequest,
    ProtocolError,
    ReplayRequest,
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


def reframe(body):
    """A frame around ``body`` whose header length matches it."""
    return header(len(body)) + bytes(body)


class TestRoundTripIdentity:
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
        message = StepBatchRequest(rounds=1, adds=((4, 1, counters), (5, 2, "plain")))
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

    def test_replay_request(self):
        """The protocol-v10 rebuild frame crosses the wire: a world's
        replayed steps and peeks, a trailing trace fetch, or nothing."""
        request = ReplayRequest(
            shard_index=7,
            subs=(
                StepBatchRequest(rounds=3, adds=((0, 1, "alpha"),)),
                PeekRequest(pid=0, adds=((1, 2, ("b", frozenset({1}))),)),
                TraceRequest(),
            ),
        )
        assert roundtrip(request) == request
        assert roundtrip(ReplayRequest(0, ())) == ReplayRequest(0, ())
        reply = MuxReply(subs=(
            StepBatchReply(
                alive=True, executed=3, completions=((0, 2.0),),
                crashed=frozenset(), now=3.0,
            ),
            PeekReply(crashed=False, proposed=frozenset({"alpha"})),
            TraceReply(trace=MSWeakSetCluster(2, max_total_rounds=4).trace),
        ))
        assert roundtrip(reply) == reply


def _body(message):
    return encode_message(message)[HEADER_SIZE:]


class TestNestedValues:
    """The recursive walker carries every tuple/frozenset value, at any
    depth and over any mix of leaves, and round-trips it exactly."""

    @given(value=nested_strings)
    @settings(max_examples=60)
    def test_nested_strings_round_trip(self, value):
        message = StepBatchRequest(rounds=1, adds=((0, 0, value),))
        assert roundtrip(message) == message

    @given(value=nested_i64)
    @settings(max_examples=60)
    def test_nested_i64_round_trip(self, value):
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
    def test_mixed_leaves_round_trip(self, value):
        """Strings next to ints, floats, ⊥ … in one container."""
        message = StepBatchRequest(rounds=1, adds=((1, 2, (value, "tail")),))
        assert roundtrip(message) == message

    def test_big_ints_round_trip(self):
        """Ints outside i64 cross as decimal digits (``'V'``)."""
        huge = ((1 << 70, 2), (3, 4))
        message = StepBatchRequest(rounds=1, adds=((0, 0, huge),))
        assert b"V" + (22).to_bytes(4, "big") + str(1 << 70).encode() in _body(message)
        assert roundtrip(message) == message

    def test_equal_frozensets_encode_byte_identically(self):
        """The walker visits a frozenset in the canonical (repr-sorted)
        element order, so equal sets built in different orders produce
        the same bytes in every process."""
        ab = frozenset({("a", "b"), ("c", "d")})
        ba = frozenset({("c", "d"), ("a", "b")})
        left = encode_message(PeekReply(crashed=False, proposed=ab))
        right = encode_message(PeekReply(crashed=False, proposed=ba))
        assert left == right


class TestMuxFrames:
    """Protocol v4: several shard worlds behind one worker channel."""

    def test_mux_request_and_reply_round_trip(self):
        request = MuxRequest(subs=(
            StepBatchRequest(rounds=1, adds=((0, 1, "alpha"),)),
            StepBatchRequest(rounds=4, adds=()),
            PeekRequest(pid=2, adds=()),
        ))
        assert roundtrip(request) == request
        reply = MuxReply(subs=(
            StepBatchReply(
                alive=True, executed=1, completions=((1, 2.0),),
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
            StepBatchRequest(
                rounds=1, adds=((0, 0, (("x", "y"), frozenset({"z"}))),)
            ),
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
    def test_protocol_v7_pins(self):
        """Version 7 retired the single-tick pair: the header is still
        version:u8 length:u32, and a tag-1 body (the old one-tick
        request) is an unknown tag."""
        assert HEADER_SIZE == 5
        body = bytes([1]) + (0).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="unknown binary message tag 1"):
            decode_message(header(len(body)) + body)

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
        assert excinfo.value.local_version == 10
        assert "5" in str(excinfo.value) and "10" in str(excinfo.value)

    def test_v6_round_request_raises_version_mismatch(self):
        """A v6 peer's one-tick step (tag 1, no rounds field) fails on
        its first byte, naming both versions."""
        body = bytes([1]) + (0).to_bytes(4, "big")  # RoundRequest(adds=())
        v6_frame = bytes([6]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(VersionMismatch) as excinfo:
            decode_message(v6_frame)
        assert excinfo.value.peer_version == 6
        assert excinfo.value.local_version == 10
        assert "6" in str(excinfo.value) and "10" in str(excinfo.value)

    def test_protocol_v10_pins(self):
        """Version 9 left one layout for adds, ``count:u32`` then
        ``token:u64 pid:u32 value`` per add with no bulk byte, even
        when every value is a string, and the walker carries containers
        node by node; the config body carries exactly the fields
        version 8 left.  Version 10 replaced the migrate pair with the
        replay frame (its layout is pinned in ``TestWireTags``), so the
        JSON escape no longer knows a migrate tag."""
        assert PROTOCOL_VERSION == 10

        def u32(value):
            return value.to_bytes(4, "big")

        def add_head(token, pid):
            return token.to_bytes(8, "big") + u32(pid)

        step = _body(StepBatchRequest(rounds=2, adds=((7, 3, "ab"), (8, 1, "c"))))
        assert step == (
            bytes([5]) + u32(2) + u32(2)
            + add_head(7, 3) + b"S" + u32(2) + b"ab"
            + add_head(8, 1) + b"S" + u32(1) + b"c"
        )
        assert _body(PeekRequest(pid=4, adds=())) == bytes([3]) + u32(4) + u32(0)
        nested = _body(PeekRequest(pid=0, adds=((1, 0, (("a",), frozenset({"b"}))),)))
        assert nested == (
            bytes([3]) + u32(0) + u32(1) + add_head(1, 0)
            + b"U" + u32(2) + b"U" + u32(1) + b"S" + u32(1) + b"a"
            + b"X" + u32(1) + b"S" + u32(1) + b"b"
        )
        assert [f.name for f in fields(ConfigReply)] == [
            "shard_index", "world", "extra_shards",
        ]
        assert [f.name for f in fields(ReplayRequest)] == ["shard_index", "subs"]
        config = _body(ConfigReply(shard_index=1, world=b"w", extra_shards=(2,)))
        assert json.loads(config[1:].decode("utf-8")) == {
            "t": "config",
            "v": {"shard_index": 1, "world": "dw==", "extra_shards": [2]},
        }
        for tag in ("migrate_req", "migrate_rep"):
            body = bytes([0]) + b'{"t":"%s","v":{"shard_index":3}}' % tag.encode()
            with pytest.raises(ProtocolError, match="unknown message tag"):
                decode_message(reframe(body))

    def test_v9_frame_raises_version_mismatch(self):
        """A v9 peer's migrate request fails on its first byte, naming
        both versions."""
        body = bytes([0]) + b'{"t":"migrate_req","v":{"shard_index":1}}'
        v9_frame = bytes([9]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(VersionMismatch) as excinfo:
            decode_message(v9_frame)
        assert excinfo.value.peer_version == 9
        assert excinfo.value.local_version == 10
        assert "9" in str(excinfo.value) and "10" in str(excinfo.value)

    def test_v8_frame_raises_version_mismatch(self):
        """A v8 peer's step carrying its all-strings bulk adds (bulk
        byte 1, column-packed heads, lengths and blob) fails on its
        first byte, naming both versions."""
        body = (
            bytes([5]) + (1).to_bytes(4, "big") + (1).to_bytes(4, "big")
            + bytes([1]) + (0).to_bytes(8, "big") + (2).to_bytes(4, "big")
            + (5).to_bytes(4, "big") + (5).to_bytes(4, "big") + b"alpha"
        )
        v8_frame = bytes([8]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(VersionMismatch) as excinfo:
            decode_message(v8_frame)
        assert excinfo.value.peer_version == 8
        assert excinfo.value.local_version == 10
        assert "8" in str(excinfo.value) and "10" in str(excinfo.value)

    def test_v7_frame_raises_version_mismatch(self):
        """A v7 peer's migrate request (still carrying its resume
        round) fails on its first byte, naming both versions."""
        body = bytes([0]) + (
            b'{"t":"migrate_req","v":{"resume_round":5,"shard_index":1}}'
        )
        v7_frame = bytes([7]) + len(body).to_bytes(4, "big") + body
        with pytest.raises(VersionMismatch) as excinfo:
            decode_message(v7_frame)
        assert excinfo.value.peer_version == 7
        assert excinfo.value.local_version == 10
        assert "7" in str(excinfo.value) and "10" in str(excinfo.value)

    def test_truncated_frame_rejected(self):
        frame = encode_message(StepBatchRequest(rounds=1, adds=((0, 1, "x"),)))
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
        """The step/peek/mux messages cross only in their packed
        layouts; the JSON escape knows the cold messages alone."""
        body = bytes([0]) + b'{"t":"batch_req","v":{"rounds":1,"adds":[]}}'
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
    (
        ReplayRequest(
            shard_index=2,
            subs=(StepBatchRequest(rounds=3, adds=()), PeekRequest(pid=0, adds=())),
        ),
        9,
    ),
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
]
COLD_IDS = [
    "trace_req", "trace_rep", "stop_req", "stop_rep", "error",
    "hello", "config",
]


class TestWireTags:
    """The body's first byte names its layout: tags 3–9 for the hot
    messages' packed layouts, tag 0 for the cold messages' canonical
    JSON.  A peer that reads the same version must read the same tags,
    so each one is pinned."""

    def test_replay_request_layout(self):
        """Tag 9: ``shard_index:u32 · count:u32`` then each sub-request
        as ``length:u32`` and its complete tagged body, like a mux
        frame's; a trace fetch rides its JSON escape body."""

        def u32(value):
            return value.to_bytes(4, "big")

        step = _body(StepBatchRequest(rounds=3, adds=((7, 1, "a"),)))
        trace = _body(TraceRequest())
        body = _body(
            ReplayRequest(
                shard_index=258,
                subs=(StepBatchRequest(rounds=3, adds=((7, 1, "a"),)), TraceRequest()),
            )
        )
        assert body == (
            bytes([9]) + u32(258) + u32(2)
            + u32(len(step)) + step + u32(len(trace)) + trace
        )
        assert _body(ReplayRequest(shard_index=1, subs=())) == (
            bytes([9]) + u32(1) + u32(0)
        )

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
        """Version 6 left one codec, so the hello is an empty payload and
        the config names no codec: the header's version byte is the
        whole handshake."""
        assert fields(HelloRequest) == ()
        assert "codec" not in {field.name for field in fields(ConfigReply)}
        assert encode_message(HelloRequest()) == (
            header(21) + b'\x00{"t":"hello","v":{}}'
        )


#: the bulk PeekReply the corrupt-body cases edit: sorted strings, so
#: its length array reads 5 ("alpha") then 4 ("beta")
ALPHA_BETA = PeekReply(crashed=False, proposed=frozenset({"alpha", "beta"}))


class TestBodiesHoldExactlyWhatTheyAnnounce:
    """A body edited under a header fixed to match the edit fails with
    one ProtocolError; it never decodes into values no process added
    (each case below decoded quietly before the codec checked every
    length and required every body to be consumed exactly)."""

    def test_cut_bulk_blob(self):
        """Cut 3 bytes: the blob announces more bytes than remain."""
        body = _body(ALPHA_BETA)
        with pytest.raises(ProtocolError, match="announces 9 items"):
            decode_message(reframe(body[:-3]))

    def test_bulk_lengths_must_add_up_to_the_blob(self):
        body = bytearray(_body(ALPHA_BETA))
        assert body[7:15] == (5).to_bytes(4, "big") + (4).to_bytes(4, "big")
        body[7:11] = (2).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="add up to 6 characters"):
            decode_message(reframe(body))

    @pytest.mark.parametrize(
        "last", ["beta", 1 << 70, BOTTOM], ids=["string", "bignum", "escape"]
    )
    def test_cut_last_add_value(self, last):
        """The last add's string, bignum digits or ``'J'`` blob cut."""
        request = StepBatchRequest(rounds=1, adds=((0, 1, "alpha"), (1, 2, last)))
        with pytest.raises(ProtocolError):
            decode_message(reframe(_body(request)[:-2]))

    @pytest.mark.parametrize("digits", [b" 1_0", b"+10", b"1e3", b"-"])
    def test_bignum_digits_must_be_canonical(self, digits):
        """A ``'V'`` value holds ``str(value)``; padding, separators or
        a sign ``int()`` would accept are corruption."""
        body = (
            bytes([5]) + (1).to_bytes(4, "big") + (1).to_bytes(4, "big")
            + (0).to_bytes(8, "big") + (0).to_bytes(4, "big")
            + b"V" + len(digits).to_bytes(4, "big") + digits
        )
        with pytest.raises(ProtocolError, match="malformed bignum digits"):
            decode_message(reframe(body))

    @pytest.mark.parametrize(
        "fix_sub_length", [False, True], ids=["sub-length-kept", "sub-length-fixed"]
    )
    def test_cut_mux_sub_body(self, fix_sub_length):
        peek = PeekReply(crashed=False, proposed=frozenset({"alpha"}))
        body = bytearray(_body(MuxReply(subs=(peek,)))[:-2])
        if fix_sub_length:
            # tag:u8 count:u32 then the one sub-body's length:u32
            body[5:9] = (len(body) - 9).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="announces"):
            decode_message(reframe(body))

    @pytest.mark.parametrize(
        "message",
        [message for message, _tag in HOT_TAGS],
        ids=[type(message).__name__ for message, _tag in HOT_TAGS],
    )
    def test_trailing_bytes_rejected(self, message):
        with pytest.raises(ProtocolError, match="layout ends at byte"):
            decode_message(reframe(_body(message) + b"\x00"))

    def test_trailing_bytes_in_a_mux_sub_body_rejected(self):
        sub = _body(PeekRequest(pid=1, adds=())) + b"\x00"
        body = bytes([7]) + (1).to_bytes(4, "big") + len(sub).to_bytes(4, "big") + sub
        with pytest.raises(ProtocolError, match="PeekRequest layout ends"):
            decode_message(reframe(body))

    @pytest.mark.parametrize("padding", [b" ", b"\n", b"x"])
    def test_cold_json_body_must_end_with_its_document(self, padding):
        body = _body(StopRequest()) + padding
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_message(reframe(body))


def _repeat_element(message, keep, drop):
    """``message``'s body with the encoding of element ``drop`` of one
    of its sets overwritten by element ``keep``'s (same width), so the
    set announces two elements and holds one twice."""
    body = _body(message)
    assert body.count(drop) == 1
    return reframe(body.replace(drop, keep))


class TestFrozensetsDecodeToTheirCount:
    """Every lane that decodes a frozenset checks the set it built
    against the count the body announced: a body repeating an element
    raises one ProtocolError instead of decoding to a smaller set (each
    body below decoded quietly before that check)."""

    def test_bulk_peek_lane(self):
        """Lengths ``[2, 2]`` over the blob ``abab``."""
        frame = _repeat_element(
            PeekReply(crashed=False, proposed=frozenset({"ab", "cd"})), b"ab", b"cd"
        )
        with pytest.raises(ProtocolError, match="announces 2 elements but only 1"):
            decode_message(frame)

    def test_walker_peek_lane(self):
        frame = _repeat_element(
            PeekReply(crashed=True, proposed=frozenset({7, 8})),
            b"I" + (7).to_bytes(8, "big"),
            b"I" + (8).to_bytes(8, "big"),
        )
        with pytest.raises(ProtocolError, match="PROPOSED set announces 2"):
            decode_message(frame)

    def test_walker_frozenset_value(self):
        """An ``'X'`` add value carrying ``"ab"`` twice."""
        frame = _repeat_element(
            StepBatchRequest(rounds=1, adds=((0, 1, frozenset({"ab", "cd"})),)),
            b"S" + (2).to_bytes(4, "big") + b"ab",
            b"S" + (2).to_bytes(4, "big") + b"cd",
        )
        with pytest.raises(ProtocolError, match="frozenset announces 2"):
            decode_message(frame)

    def test_step_batch_reply_crashed_set(self):
        reply = StepBatchReply(
            alive=True, executed=1, completions=(), crashed=frozenset({3, 4}), now=1.0
        )
        frame = _repeat_element(
            reply,
            (2).to_bytes(4, "big") + (3).to_bytes(4, "big") * 2,
            (2).to_bytes(4, "big") + (3).to_bytes(4, "big") + (4).to_bytes(4, "big"),
        )
        with pytest.raises(ProtocolError, match="crashed set announces 2"):
            decode_message(frame)

    @given(value=st.frozensets(values, max_size=6))
    @settings(max_examples=120)
    def test_every_encodable_frozenset_round_trips_with_its_size(self, value):
        """On the walker (an add value and a mixed ``PROPOSED``) and, for
        all-strings sets, on the bulk lane."""
        add = roundtrip(StepBatchRequest(rounds=1, adds=((0, 0, value),))).adds[0][2]
        proposed = roundtrip(PeekReply(crashed=False, proposed=value)).proposed
        for decoded in (add, proposed):
            assert decoded == value
            assert len(decoded) == len(value)


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

    @given(value=st.one_of(nested_strings, nested_i64, values), data=st.data())
    @settings(max_examples=150)
    def test_nested_values_survive_corruption(self, value, data):
        """Nested walker values under byte corruption: every kind byte,
        count and length inside them is attack surface; nothing worse
        than ProtocolError may escape."""
        frame = bytearray(
            encode_message(
                StepBatchRequest(rounds=1, adds=((1, 0, (value, value)),))
            )
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

    @given(message=messages, data=st.data())
    @settings(max_examples=150)
    def test_cut_bodies_raise_protocol_error(self, message, data):
        """A body cut short under a header that matches the cut (the
        frame length is right, the body is not) never decodes."""
        body = _body(message)
        missing = data.draw(st.integers(min_value=1, max_value=len(body)))
        with pytest.raises(ProtocolError):
            decode_message(reframe(body[: len(body) - missing]))

    @given(message=messages, garbage=st.binary(min_size=1, max_size=16))
    @settings(max_examples=150)
    def test_trailing_bytes_raise_protocol_error(self, message, garbage):
        """Bytes past the end of a message's layout, under a header
        that counts them, never decode: a body holds exactly one
        message."""
        with pytest.raises(ProtocolError):
            decode_message(reframe(_body(message) + garbage))

    def test_giant_count_rejected_before_allocation(self):
        """A hostile item count (0xFFFFFFFF) must be rejected from the
        body length, not handed to the column unpacker to build a
        4-billion-entry format string."""
        import struct
        import time

        # a step announcing 2**32-1 adds in a 9-byte body
        body = struct.pack(">BII", 5, 1, 0xFFFFFFFF)  # tag=batch_req
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
            bytes([5])  # batch_req tag
            + (1).to_bytes(4, "big")  # rounds
            + (1).to_bytes(4, "big")  # one add
            + add_head
            + value
        )
        with pytest.raises(ProtocolError):
            decode_message(header(len(body)) + body)

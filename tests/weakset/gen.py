"""Reusable hypothesis strategies for the shard wire protocol.

One place for the payload-value universe the weak set trades in and
the message shapes the frame codec carries, so every protocol test
draws from the same distributions instead of maintaining ad-hoc value
lists.  Import from here; do not re-declare strategies per test file.
"""

from hypothesis import strategies as st

from repro.values import BOTTOM
from repro.weakset.protocol import (
    ErrorReply,
    MigrateReply,
    MigrateRequest,
    MuxReply,
    MuxRequest,
    PeekReply,
    PeekRequest,
    RoundReply,
    RoundRequest,
    StepBatchReply,
    StepBatchRequest,
    StopReply,
    StopRequest,
)

# the payload universe the weak set trades in (and the canonical codec
# carries): scalars, ⊥, and nested tuples/frozensets of them
scalars = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.integers(min_value=2**70, max_value=2**80),  # outside the i64 lane
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=20),
    st.booleans(),
    st.none(),
    st.just(BOTTOM),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=4),
    ),
    max_leaves=8,
)

queued_adds = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31),
        st.integers(min_value=0, max_value=63),
        values,
    ),
    max_size=5,
).map(tuple)

# nested payloads whose leaves all fit one bulk lane — the 'W'
# flattened layout's target shapes
nested_strings = st.recursive(
    st.text(max_size=8),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=3),
    ),
    max_leaves=12,
)

nested_i64 = st.recursive(
    st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(children, max_size=3),
    ),
    max_leaves=12,
)

_completions = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**31),
        st.floats(min_value=0, max_value=1e9, allow_nan=False),
    ),
    max_size=5,
).map(tuple)

_crashed = st.frozensets(st.integers(min_value=0, max_value=63), max_size=6)

_clock = st.floats(min_value=0, max_value=1e9, allow_nan=False)

round_requests = st.builds(RoundRequest, adds=queued_adds)

round_replies = st.builds(
    RoundReply,
    alive=st.booleans(),
    completions=_completions,
    crashed=_crashed,
    now=_clock,
)

peek_requests = st.builds(
    PeekRequest, pid=st.integers(min_value=0, max_value=63), adds=queued_adds
)

peek_replies = st.builds(
    PeekReply, crashed=st.booleans(), proposed=st.frozensets(values, max_size=6)
)

step_batch_requests = st.builds(
    StepBatchRequest,
    rounds=st.integers(min_value=1, max_value=1000),
    adds=queued_adds,
)

step_batch_replies = st.builds(
    StepBatchReply,
    alive=st.booleans(),
    executed=st.integers(min_value=0, max_value=1000),
    completions=_completions,
    crashed=_crashed,
    now=_clock,
)

migrate_requests = st.builds(
    MigrateRequest,
    shard_index=st.integers(min_value=0, max_value=255),
    resume_round=st.integers(min_value=0, max_value=10_000),
)

migrate_replies = st.builds(
    MigrateReply,
    shard_index=st.integers(min_value=0, max_value=255),
    now=_clock,
)

_simple_messages = st.one_of(
    round_requests,
    round_replies,
    peek_requests,
    peek_replies,
    step_batch_requests,
    step_batch_replies,
    migrate_requests,
    migrate_replies,
    st.just(StopRequest()),
    st.just(StopReply()),
    st.builds(ErrorReply, message=st.text(max_size=40)),
)

#: every message shape the frame codec carries (mux frames wrap the simple
#: ones, mirroring how the socket backend multiplexes worlds)
messages = st.one_of(
    _simple_messages,
    st.builds(
        MuxRequest,
        subs=st.lists(
            st.one_of(round_requests, peek_requests, step_batch_requests),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
    st.builds(
        MuxReply,
        subs=st.lists(
            st.one_of(round_replies, peek_replies, step_batch_replies),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
)

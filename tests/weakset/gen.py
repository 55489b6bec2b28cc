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
    MuxReply,
    MuxRequest,
    PeekReply,
    PeekRequest,
    ReplayRequest,
    StepBatchReply,
    StepBatchRequest,
    StopReply,
    StopRequest,
    TraceRequest,
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

# nested payloads over one leaf kind (all strings, or all i64 ints):
# deep walker recursion with no escape values in the way
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

_simple_messages = st.one_of(
    peek_requests,
    peek_replies,
    step_batch_requests,
    step_batch_replies,
    st.just(StopRequest()),
    st.just(StopReply()),
    st.builds(ErrorReply, message=st.text(max_size=40)),
)

#: a rebuild frame: a world's replayed steps and peeks, possibly an
#: empty history, and at most one trailing trace fetch (a crash during
#: ``traces()`` re-issues it)
replay_requests = st.builds(
    ReplayRequest,
    shard_index=st.integers(min_value=0, max_value=2**32 - 1),
    subs=st.tuples(
        st.lists(st.one_of(step_batch_requests, peek_requests), max_size=4),
        st.lists(st.just(TraceRequest()), max_size=1),
    ).map(lambda parts: tuple(parts[0] + parts[1])),
)

#: every message shape the frame codec carries (mux frames wrap the simple
#: ones, mirroring how the socket backend multiplexes worlds, and a
#: replay frame carries a rebuilt world's requests)
messages = st.one_of(
    replay_requests,
    _simple_messages,
    st.builds(
        MuxRequest,
        subs=st.lists(
            st.one_of(peek_requests, step_batch_requests),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
    st.builds(
        MuxReply,
        subs=st.lists(
            st.one_of(peek_replies, step_batch_replies),
            min_size=1,
            max_size=3,
        ).map(tuple),
    ),
)

"""Tests for the sparse history counters (Algorithm 3 lines 8–9)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.counters import (
    FrozenCounters,
    _prefix_max_ancestors,
    apply_round_update,
    pointwise_min,
    prefix_max,
)
from repro.core.history import intern_history

history_st = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)
counter_map_st = st.dictionaries(history_st, st.integers(1, 20), max_size=6)


class TestFrozenCounters:
    def test_sparse_reads_default_zero(self):
        counters = FrozenCounters({(1,): 3})
        assert counters[(2,)] == 0
        assert counters[(1,)] == 3

    def test_zero_entries_normalized_away(self):
        a = FrozenCounters({(1,): 3, (2,): 0})
        b = FrozenCounters({(1,): 3})
        assert a == b
        assert hash(a) == hash(b)
        assert len(a) == 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            FrozenCounters({(1,): -1})

    def test_equality_with_plain_mapping(self):
        assert FrozenCounters({(1,): 2}) == {(1,): 2, (3,): 0}

    def test_empty_singleton_usable(self):
        assert len(FrozenCounters.EMPTY) == 0
        assert FrozenCounters.EMPTY[(9,)] == 0

    def test_payload_atoms(self):
        counters = FrozenCounters({(1, 2): 5, (3,): 1})
        assert counters.payload_atoms() == (2 + 1) + (1 + 1)

    def test_hashable_inside_frozen_messages(self):
        payload = frozenset({FrozenCounters({(1,): 2})})
        assert FrozenCounters({(1,): 2}) in payload


class TestPointwiseMin:
    def test_support_is_intersection(self):
        merged = pointwise_min([{(1,): 3, (2,): 5}, {(1,): 4}])
        assert merged == {(1,): 3}

    def test_takes_minimum(self):
        merged = pointwise_min([{(1,): 7}, {(1,): 2}, {(1,): 5}])
        assert merged == {(1,): 2}

    def test_empty_input(self):
        assert pointwise_min([]) == {}

    def test_single_map_identity(self):
        assert pointwise_min([{(1,): 3}]) == {(1,): 3}

    @given(st.lists(counter_map_st, min_size=1, max_size=4))
    def test_min_properties(self, maps):
        merged = pointwise_min(maps)
        for history, count in merged.items():
            assert count == min(m.get(history, 0) for m in maps)
            assert count > 0
        # no history outside every map's support appears
        for history in merged:
            assert all(history in m for m in maps)

    @given(st.lists(counter_map_st, min_size=2, max_size=4))
    def test_min_is_order_insensitive(self, maps):
        assert pointwise_min(maps) == pointwise_min(list(reversed(maps)))


class TestPrefixMax:
    def test_includes_exact_history(self):
        assert prefix_max({(1, 2): 5}, (1, 2)) == 5

    def test_includes_proper_prefixes(self):
        counters = {(1,): 3, (1, 2): 1, (9,): 100}
        assert prefix_max(counters, (1, 2, 3)) == 3

    def test_no_prefix_gives_zero(self):
        assert prefix_max({(2,): 9}, (1,)) == 0

    def test_empty_history_prefixes_everything(self):
        assert prefix_max({(): 4, (2,): 9}, (1, 2)) == 4

    @given(counter_map_st, history_st, st.booleans())
    def test_ancestor_walk_equivalent_to_scan(self, counters, history, node_keys):
        """Interned histories answer the prefix maximum by walking their
        parent chain; it must agree with the scan over node-keyed and
        tuple-keyed maps alike."""
        if node_keys:
            counters = {intern_history(h): c for h, c in counters.items()}
        walked = _prefix_max_ancestors(counters, intern_history(history))
        assert walked == prefix_max(counters, history)


class TestApplyRoundUpdate:
    def test_lemma4_ratchet(self):
        """The counter of a history heard every round grows by 1/round."""
        source_history = (7,)
        counters = {}
        for round_no in range(1, 10):
            counters = apply_round_update(
                [counters, counters], [source_history]
            )
            assert counters[source_history] == round_no
            source_history = source_history + (7,)
            # next round: the grown history inherits via the prefix

    def test_bumps_are_simultaneous(self):
        # two prefix-related histories in one round must both read the
        # *post-minimum* map, not each other's bumps
        counters = {(1,): 4}
        updated = apply_round_update(
            [counters], [(1, 2), (1, 2, 3)]
        )
        assert updated[(1, 2)] == 5
        assert updated[(1, 2, 3)] == 5  # not 6: reads the old map

    def test_no_inheritance_variant_freezes_at_one(self):
        counters = {}
        history = (3,)
        for _ in range(6):
            counters = apply_round_update(
                [counters], [history], inherit_prefixes=False
            )
            assert counters[history] == 1
            history = history + (3,)

    @given(
        st.lists(counter_map_st, min_size=1, max_size=3),
        st.lists(history_st, min_size=1, max_size=4),
    )
    def test_received_histories_always_positive(self, maps, received):
        updated = apply_round_update(maps, received)
        for history in received:
            assert updated[history] >= 1

    @given(
        st.lists(counter_map_st, min_size=1, max_size=3),
        st.lists(history_st, min_size=1, max_size=4),
        st.randoms(use_true_random=False),
    )
    def test_message_order_cannot_matter(self, maps, received, rng):
        """Anonymous messages arrive as a set: shuffling the received
        maps and histories leaves the update unchanged."""
        shuffled_maps, shuffled_received = list(maps), list(received)
        rng.shuffle(shuffled_maps)
        rng.shuffle(shuffled_received)
        assert apply_round_update(shuffled_maps, shuffled_received) == (
            apply_round_update(maps, received)
        )

    @given(
        st.lists(counter_map_st, min_size=1, max_size=3),
        st.lists(history_st, min_size=1, max_size=4),
    )
    def test_duplicate_messages_count_once(self, maps, received):
        """Two identical messages are one message to an anonymous
        receiver: repeating them neither lowers a minimum nor bumps a
        history twice."""
        assert apply_round_update(maps + maps, received + received) == (
            apply_round_update(maps, received)
        )

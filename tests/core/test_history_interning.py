"""Interned histories must be indistinguishable from tuple histories.

The fast-path engine swaps plain tuples for hash-consed
:class:`~repro.core.history.HistoryNode` chains.  Everything
downstream — counter maps, frozen messages, serialized traces — relies
on the two representations agreeing exactly: same protocol answers,
same hashes, same equality, same structural sizes.  These properties
pin that contract.
"""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.core.counters import FrozenCounters, apply_round_update, pointwise_min
from repro.core.history import (
    HistoryNode,
    clear_intern_cache,
    common_prefix_length,
    diverged,
    extend,
    initial_history,
    intern_history,
    interning_disabled,
    interning_enabled,
    is_prefix,
    is_proper_prefix,
    longest,
)
from repro.giraf.messages import payload_size

elements = st.lists(st.integers(0, 5), min_size=1, max_size=10)


class TestInterning:
    def test_initial_history_is_interned_by_default(self):
        assert interning_enabled()
        assert isinstance(initial_history(7), HistoryNode)

    def test_interning_disabled_restores_tuples(self):
        with interning_disabled():
            assert not interning_enabled()
            assert initial_history(7) == (7,)
            assert isinstance(initial_history(7), tuple)
        assert interning_enabled()

    @given(elements)
    def test_same_elements_intern_to_same_object(self, values):
        assert intern_history(values) is intern_history(list(values))

    @given(elements, st.integers(0, 5))
    def test_extend_interns_children(self, values, value):
        node = intern_history(values)
        assert extend(node, value) is extend(node, value)
        assert extend(node, value).parent is node


class TestTupleParity:
    @given(elements)
    def test_equality_and_hash_match_tuples(self, values):
        node = intern_history(values)
        as_tuple = tuple(values)
        assert node == as_tuple
        assert as_tuple == node
        assert hash(node) == hash(as_tuple)
        assert len(node) == len(as_tuple)
        assert list(node) == list(as_tuple)
        assert node[0] == as_tuple[0]
        assert repr(node) == repr(as_tuple)

    @given(elements, elements)
    def test_inequality_matches_tuples(self, a, b):
        node_a, node_b = intern_history(a), intern_history(b)
        assert (node_a == node_b) == (tuple(a) == tuple(b))
        assert (node_a == tuple(b)) == (tuple(a) == tuple(b))
        assert (node_a < node_b) == (tuple(a) < tuple(b))

    @given(elements)
    def test_dict_interop_both_directions(self, values):
        node = intern_history(values)
        as_tuple = tuple(values)
        assert {as_tuple: 1}[node] == 1
        assert {node: 2}[as_tuple] == 2
        assert {node, as_tuple} == {node}

    @given(elements)
    def test_payload_size_matches_tuples(self, values):
        assert payload_size(intern_history(values)) == payload_size(tuple(values))

    def test_payload_size_survives_deep_cold_chains(self):
        # One element per round: real histories outgrow the recursion
        # limit, so the size fill must be iterative.
        deep = intern_history(range(5000))
        assert payload_size(deep) == payload_size(tuple(range(5000))) == 5001

    @given(elements)
    def test_pickle_reinterns(self, values):
        node = intern_history(values)
        clone = pickle.loads(pickle.dumps(node))
        assert clone is node


class TestProtocolParity:
    """Every history-protocol answer agrees across representations."""

    @given(elements, elements)
    def test_is_prefix(self, a, b):
        node_a, node_b = intern_history(a), intern_history(b)
        expected = tuple(b)[: len(a)] == tuple(a)
        assert is_prefix(node_a, node_b) == expected
        assert is_prefix(tuple(a), node_b) == expected
        assert is_prefix(node_a, tuple(b)) == expected

    @given(elements, elements)
    def test_is_proper_prefix(self, a, b):
        expected = is_proper_prefix(tuple(a), tuple(b))
        assert is_proper_prefix(intern_history(a), intern_history(b)) == expected

    @given(elements, elements)
    def test_common_prefix_length_and_divergence(self, a, b):
        expected = common_prefix_length(tuple(a), tuple(b))
        assert common_prefix_length(intern_history(a), intern_history(b)) == expected
        assert common_prefix_length(intern_history(a), tuple(b)) == expected
        assert diverged(intern_history(a), intern_history(b)) == diverged(
            tuple(a), tuple(b)
        )

    @given(st.lists(elements, min_size=1, max_size=6))
    def test_longest(self, histories):
        as_nodes = longest([intern_history(h) for h in histories])
        as_tuples = longest([tuple(h) for h in histories])
        assert as_nodes == as_tuples


class TestClearInternCache:
    """State surviving a cache clear must still merge correctly.

    Pre-clear nodes may have equal-content doppelgängers in the new
    table; the generation bump forces the counter paths back to
    hash-based merging for them.
    """

    def test_pointwise_min_across_a_clear(self):
        old = FrozenCounters({intern_history([1, 2]): 5})
        clear_intern_cache()
        new = FrozenCounters({intern_history([1, 2]): 3})
        assert pointwise_min([old, new]) == {(1, 2): 3}

    def test_round_update_across_a_clear(self):
        old = FrozenCounters({intern_history([1, 2]): 5})
        clear_intern_cache()
        new_history = intern_history([1, 2, 7])
        result = apply_round_update([old], [new_history])
        assert result == {(1, 2): 5, (1, 2, 7): 6}

    def test_prefix_queries_across_a_clear(self):
        a = intern_history([1, 2, 3])
        clear_intern_cache()
        b = intern_history([1, 2, 3, 4])
        assert common_prefix_length(a, b) == 3
        assert is_prefix(a, b)
        assert not diverged(a, b)

    def test_extension_of_a_stale_chain_is_not_canonical(self):
        stale = intern_history([4, 4])
        clear_intern_cache()
        extended = extend(stale, 9)
        fresh = FrozenCounters({intern_history([4, 4]): 2})
        # the stale-chain extension must still inherit from the
        # re-interned equal prefix
        assert apply_round_update([fresh], [extended]) == {
            (4, 4): 2,
            (4, 4, 9): 3,
        }


counter_entries = st.dictionaries(
    st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple),
    st.integers(1, 9),
    max_size=8,
)


class TestRoundUpdateParity:
    """apply_round_update: the interned fast path ≡ the tuple path."""

    @given(st.lists(counter_entries, min_size=1, max_size=4), st.lists(elements, min_size=1, max_size=4))
    def test_fast_path_matches_tuple_path(self, maps, histories):
        tuple_result = apply_round_update(
            [FrozenCounters(m) for m in maps],
            [tuple(h) for h in histories],
        )
        node_result = apply_round_update(
            [
                FrozenCounters({intern_history(h): c for h, c in m.items()})
                for m in maps
            ],
            [intern_history(h) for h in histories],
        )
        assert node_result == tuple_result

    @given(st.lists(counter_entries, min_size=1, max_size=4), st.lists(elements, min_size=1, max_size=4))
    def test_mixed_maps_match_tuple_path(self, maps, histories):
        # Node histories over tuple-keyed maps exercise the ancestor
        # walk against hash-parity dict lookups.
        tuple_result = apply_round_update(
            [FrozenCounters(m) for m in maps],
            [tuple(h) for h in histories],
        )
        mixed_result = apply_round_update(
            [FrozenCounters(m) for m in maps],
            [intern_history(h) for h in histories],
        )
        assert mixed_result == tuple_result

    def test_empty_history_key_inherits_like_tuple_path(self):
        # The empty history is a prefix of everything; hypothesis's
        # min_size=1 histories never generate it, so pin it explicitly.
        tuple_result = apply_round_update([FrozenCounters({(): 5})], [(1,)])
        node_result = apply_round_update(
            [FrozenCounters({intern_history([]): 5})], [intern_history([1])]
        )
        assert tuple_result == node_result == {(): 5, (1,): 6}

    @given(st.lists(counter_entries, min_size=1, max_size=4), st.lists(elements, min_size=1, max_size=4))
    def test_frozen_counters_equal_across_representations(self, maps, histories):
        tuple_result = FrozenCounters(
            apply_round_update(
                [FrozenCounters(m) for m in maps], [tuple(h) for h in histories]
            )
        )
        node_result = FrozenCounters(
            apply_round_update(
                [
                    FrozenCounters({intern_history(h): c for h, c in m.items()})
                    for m in maps
                ],
                [intern_history(h) for h in histories],
            )
        )
        assert node_result == tuple_result
        assert hash(node_result) == hash(tuple_result)
        assert node_result.payload_atoms() == tuple_result.payload_atoms()
        assert payload_size(node_result) == payload_size(tuple_result)

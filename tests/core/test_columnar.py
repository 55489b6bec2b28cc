"""Columnar counter storage pinned against the dict-based reference.

:class:`~repro.core.columnar.HistoryIndex` is the history → column
table the matrix engines index their slot tables through, and
:class:`~repro.core.columnar.CounterRowView` is the elector those
engines leave on every algorithm after a run — one ``(row, cols)``
pair, a counter row plus the index column each of its slots holds;
:func:`~repro.core.columnar.numpy_available` is the one probe deciding
whether those engines run at all.  These tests pin the index and the
view against the dict-based reference
(:mod:`repro.core.counters`,
:class:`~repro.core.pseudo_leader.PseudoLeaderElector`).  Tuple and
interned-node histories hash and compare interchangeably, so the
assertions compare dicts directly across representations.  (The
engines' arithmetic itself is pinned trace for trace in
``tests/runtime``.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import CounterRowView, HistoryIndex, numpy_available
from repro.core.counters import FrozenCounters, prefix_max
from repro.core.history import (
    clear_intern_cache,
    intern_cache_size,
    intern_history,
)
from repro.core.pseudo_leader import PseudoLeaderElector

history_st = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)
counter_map_st = st.dictionaries(history_st, st.integers(1, 20), max_size=6)


class TestNumpyProbe:
    def test_true_when_numpy_imports(self):
        pytest.importorskip("numpy")
        assert numpy_available()

    def test_false_when_the_probe_is_unset(self, monkeypatch):
        """Tests fake a missing numpy by clearing the module probe; the
        engines' decline reads it at run time, so this must stick."""
        import repro.core.columnar as columnar_module

        monkeypatch.setattr(columnar_module, "_np", None)
        assert not numpy_available()


class TestHistoryIndex:
    def test_same_history_same_column(self):
        index = HistoryIndex()
        assert index.intern((1, 2)) == index.intern((1, 2))
        assert index.intern(intern_history((1, 2))) == index.intern((1, 2))

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            HistoryIndex().intern(())

    def test_ancestor_cols_are_nonstrict_prefixes(self):
        index = HistoryIndex()
        col = index.intern((1, 2, 3))
        ancestors = index.ancestor_cols(col)
        # nearest first: the column itself, then each proper prefix
        assert [tuple(index.histories[c]) for c in ancestors] == [
            (1, 2, 3),
            (1, 2),
            (1,),
        ]

    def test_child_col_extends(self):
        index = HistoryIndex()
        parent = index.intern((5,))
        child = index.child_col(parent, 7)
        assert tuple(index.histories[child]) == (5, 7)
        assert index.child_col(-1, 5) == parent

    def test_width_tracks_interned_columns(self):
        index = HistoryIndex()
        assert index.width == 0
        index.intern((1, 2))
        assert index.width == 2

    def test_columns_survive_an_intern_cache_clear(self):
        """Lookup is by content: a node interned before a clear, its
        tuple, and its re-interned doppelganger share one column."""
        index = HistoryIndex()
        stale = intern_history((4, 5))
        col = index.intern(stale)
        clear_intern_cache()
        assert index.intern(intern_history((4, 5))) == col
        assert index.intern((4, 5)) == col
        assert index.child_col(index.intern((4,)), 5) == col
        assert index.width == 2

    @given(counters=counter_map_st, history=history_st)
    def test_ancestor_chain_gives_the_prefix_maximum(self, counters, history):
        """Line 9's prefix maximum over index columns matches the dict
        reference: interning adds a column for every prefix, so the
        ancestor chain enumerates exactly the prefixes the reference
        scans — the walk both matrix engines' prefix chains follow."""
        index = HistoryIndex()
        col = index.intern(history)
        stored = {index.intern(h): count for h, count in counters.items()}
        row = [stored.get(c, 0) for c in range(index.width)]
        best = max(row[c] for c in index.ancestor_cols(col))
        assert best == prefix_max(counters, history)


def _row_view(history, mapping, seed=0):
    """A :class:`CounterRowView` over ``mapping`` laid out the way the
    matrix engines lay rows out: slot 0 a permanent zero, the other
    slots holding the map's columns in shuffled order, plus one stored
    column that counts zero."""
    np = pytest.importorskip("numpy")
    index = HistoryIndex()
    cols = [index.intern(stored) for stored in mapping]
    cols.append(index.intern((9, 9)))
    random.Random(seed).shuffle(cols)
    row = np.zeros(len(cols) + 1, dtype=np.int64)
    for stored, count in mapping.items():
        row[1 + cols.index(index.intern(stored))] = count
    return CounterRowView(history, index, row, np.array([-1] + cols)), index


class TestCounterRowView:
    @given(
        rounds=st.lists(
            st.tuples(
                st.lists(counter_map_st, min_size=1, max_size=3),
                st.lists(history_st, min_size=1, max_size=3),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=5,
        ),
        initial=st.integers(0, 3),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_matches_reference_elector(self, rounds, initial, seed):
        """A view over a row holding the reference's counters answers
        every read exactly as the reference elector does, listing the
        histories in ascending column order whatever the slot order."""
        reference = PseudoLeaderElector(initial)
        for maps, received, appended in rounds:
            reference.merge_round(
                [FrozenCounters(mapping) for mapping in maps], received
            )
            view, index = _row_view(reference.history, reference.counters, seed)
            assert view._map is None  # nothing built until read
            assert dict(view.counters) == dict(reference.counters)
            cols = [index.intern(history) for history in view.counters]
            assert cols == sorted(cols)
            assert view.is_leader() == reference.is_leader()
            assert view.my_counter() == reference.my_counter()
            assert view.max_counter() == reference.max_counter()
            assert view.state_size() == reference.state_size()
            reference.append(appended)

    def test_counters_are_read_only(self):
        view, _ = _row_view(intern_history((1,)), {(1,): 2})
        with pytest.raises(TypeError):
            view.counters[(1,)] = 5  # type: ignore[index]

    def test_zero_slots_dropped(self):
        """Slots a run stored but whose counters read zero are absent
        from the map, as the paper's sparse semantics require."""
        view, _ = _row_view(
            intern_history((1, 2)), {(1,): 3, (2,): 0, (1, 2): 0}, seed=7
        )
        assert dict(view.counters) == {(1,): 3}
        assert view.my_counter() == 0
        assert view.max_counter() == 3
        assert not view.is_leader()
        assert view.state_size() == 2 + 2

    def test_zero_row_reads_like_a_fresh_elector(self):
        reference = PseudoLeaderElector(5)
        view, _ = _row_view(reference.history, {})
        assert dict(view.counters) == dict(reference.counters) == {}
        assert view.my_counter() == reference.my_counter() == 0
        assert view.max_counter() == reference.max_counter() == 0
        assert view.is_leader() and reference.is_leader()
        assert view.state_size() == reference.state_size()

    def test_map_materialized_once(self):
        """The map is built from the row on first read and kept: later
        reads neither rebuild it nor see the row again."""
        view, _ = _row_view(intern_history((1,)), {(1,): 2, (1, 3): 4})
        first = view.counters
        built = view._map
        view._row[:] = 0
        assert view._map is built
        assert dict(view.counters) == dict(first) == {(1,): 2, (1, 3): 4}


class TestInternCacheHygiene:
    def test_intern_cache_size_counts_nodes(self):
        clear_intern_cache()
        base = intern_cache_size()
        intern_history((101, 102, 103))
        assert intern_cache_size() == base + 3
        clear_intern_cache()
        assert intern_cache_size() == 0

    def test_grid_run_keeps_cache_bounded(self):
        """run_cells drops the intern table after every cell, so a
        sweep's cache never accumulates across cells."""
        from repro.experiments.common import run_cells

        clear_intern_cache()
        sizes = run_cells(_intern_cell, [(0, 40), (1, 40), (2, 40)])
        # each cell saw only its own 40-node chain (plus whatever the
        # harness itself interned), never the previous cells' chains
        assert max(sizes) <= 2 * 40
        assert intern_cache_size() == 0


def _intern_cell(cell):
    """Module-level (picklable) cell: intern a chain, report cache size."""
    seed, length = cell
    intern_history(tuple((seed, step) for step in range(length)))
    return intern_cache_size()

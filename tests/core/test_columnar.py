"""Columnar counter storage pinned against the dict-based reference.

:class:`~repro.core.columnar.HistoryIndex` and
:class:`~repro.core.columnar.CounterColumns` are the storage the matrix
engines compute on, the row prefix maximum is line 9's bump on that
storage, and :class:`~repro.core.columnar.CounterRowView` is the
elector those engines leave on every algorithm after a run; these
tests pin each against the dict-based reference
(:mod:`repro.core.counters`,
:class:`~repro.core.pseudo_leader.PseudoLeaderElector`), on both
backends.  Tuple and interned-node histories hash and compare
interchangeably, so the assertions compare dicts directly across
representations.  (The engines' arithmetic itself is pinned trace for
trace in ``tests/runtime``.)
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columnar import (
    BACKENDS,
    CounterColumns,
    CounterRowView,
    HistoryIndex,
    _prefix_best,
    default_backend,
    numpy_available,
)
from repro.core.counters import FrozenCounters, prefix_max
from repro.core.history import (
    clear_intern_cache,
    intern_cache_size,
    intern_history,
)
from repro.core.pseudo_leader import PseudoLeaderElector

history_st = st.lists(st.integers(0, 3), min_size=1, max_size=6).map(tuple)
counter_map_st = st.dictionaries(history_st, st.integers(1, 20), max_size=6)

backends = pytest.mark.parametrize(
    "backend",
    [
        backend
        for backend in BACKENDS
        if backend == "python" or numpy_available()
    ],
)


class TestBackendSelection:
    def test_default_backend_is_known(self):
        assert default_backend() in BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            CounterColumns(1, HistoryIndex(), "fortran")


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


def _row(columns, i, backend):
    return columns.data[i] if backend == "numpy" else columns.rows[i]


@backends
class TestPrefixMaxTwin:
    @given(counters=counter_map_st, history=history_st)
    def test_matches_reference(self, backend, counters, history):
        """The row form of line 9's prefix maximum (the drifting
        engine's bump) matches the dict reference: interning adds a
        column for every prefix, so the ancestor chain enumerates
        exactly the prefixes the reference scans."""
        index = HistoryIndex()
        col = index.intern(history)
        columns = CounterColumns(1, index, backend)
        columns.set_row_map(0, counters)
        row = _row(columns, 0, backend)
        assert _prefix_best(row, col, index.parents) == prefix_max(counters, history)


@backends
class TestCounterColumns:
    def test_row_map_round_trip(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(3, index, backend)
        mapping = {(1,): 4, (1, 2): 1}
        columns.set_row_map(1, mapping)
        assert columns.row_map(1) == mapping
        assert columns.row_map(0) == {}

    def test_zero_entries_dropped(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(1, index, backend)
        columns.set_row_map(0, {(1,): 0, (2,): 3})
        assert columns.row_map(0) == {(2,): 3}

    def test_ensure_width_preserves_values(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(2, index, backend)
        columns.set_row_map(0, {(1,): 2})
        index.intern((9, 9, 9, 9, 9, 9, 9, 9, 9, 9))
        columns.ensure_width(index.width)
        assert columns.row_map(0) == {(1,): 2}


@backends
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
    )
    @settings(max_examples=50)
    def test_matches_reference_elector(self, backend, rounds, initial):
        """A view over a row holding the reference's counters answers
        every read exactly as the reference elector does."""
        reference = PseudoLeaderElector(initial)
        for maps, received, appended in rounds:
            reference.merge_round(
                [FrozenCounters(mapping) for mapping in maps], received
            )
            index = HistoryIndex()
            columns = CounterColumns(1, index, backend)
            columns.set_row_map(0, reference.counters)
            view = CounterRowView(reference.history, index, _row(columns, 0, backend))
            assert view._map is None  # nothing built until read
            assert dict(view.counters) == dict(reference.counters)
            assert view.is_leader() == reference.is_leader()
            assert view.my_counter() == reference.my_counter()
            assert view.max_counter() == reference.max_counter()
            assert view.state_size() == reference.state_size()
            reference.append(appended)

    def test_counters_are_read_only(self, backend):
        index = HistoryIndex()
        columns = CounterColumns(1, index, backend)
        columns.set_row_map(0, {(1,): 2})
        view = CounterRowView(intern_history((1,)), index, _row(columns, 0, backend))
        with pytest.raises(TypeError):
            view.counters[(1,)] = 5  # type: ignore[index]


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

"""Columnar counters: flat integer rows over a shared history index.

The object engine keeps Algorithm 3's per-history counter map ``C`` as
one Python dict per process (:mod:`repro.core.counters`).  That
representation is the measured scale ceiling (PERFORMANCE.md "What is
*not* faster yet"): a round touches one dict and a handful of boxed
ints per process, so n = 10,000 means hundreds of thousands of Python
object operations per round no matter how tuned the loops are.

This module is the array-native representation.  The paper's
anonymity regime is what makes it dense-friendly: histories are brand
streams, so the number of *distinct* histories alive in a run is about
``brands × rounds`` — tiny compared to ``n``.  A shared
:class:`HistoryIndex` assigns each distinct history a column id (built
on the hash-consed :class:`~repro.core.history.HistoryNode` interning,
so assigning a column is one dict probe), and a counter map becomes a
flat integer row with one entry per stored column, ``C[H]`` at the
slot holding ``col(H)``, absent-is-zero exactly like the paper's
sparse semantics.  On rows, Algorithm 3's operations are
whole-array primitives:

* **line 8** (pointwise minimum) — element-wise ``min`` over rows: a
  column survives iff it is positive in every row, which *is* the
  sparse support intersection;
* **line 9** (prefix-inheritance bump) — a maximum over the column's
  ancestor chain (``HistoryIndex.parents`` mirrors the interned tree),
  evaluated for all bumps before any write lands, realizing the
  paper's simultaneous batch assignment.

Rows are numpy arrays.  numpy stays optional: without it
(:func:`numpy_available` is the one probe) the matrix engines decline
every run with one reason and the object engine runs instead.

Layers, bottom up:

* :class:`HistoryIndex` — the history → column table, mirroring the
  interned history tree (``parents``, ``ancestor_cols``, O(1)
  ``child_col`` appends);
* the matrix engines' counter buffers
  (:mod:`repro.runtime.columnar_engine`) — one slot per stored history,
  a run-local slot table naming the index column each slot holds;
* :class:`CounterRowView` — the read-only elector those engines leave
  behind on every algorithm when a run finishes: one counter row plus
  the column each of its slots holds, and the final history, with the
  counter map built on first read.

There is no per-process columnar elector: a run the matrix engines
decline runs the object engine with the dict elector
(:class:`~repro.core.pseudo_leader.PseudoLeaderElector`), which the
matrix engines are pinned against trace for trace.

Scope note: columns exist for *non-empty* histories only (the paper's
histories start at length 1 and only grow; the empty history never
carries a counter in any reachable state).  Interning a length-0
history raises.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping, Optional

from repro.core.history import History, HistoryNode, intern_history

__all__ = [
    "numpy_available",
    "HistoryIndex",
    "CounterRowView",
]

#: numpy module or None, resolved once at import (tests fake a missing
#: numpy by setting this to None).
try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the CI decline leg
    _np = None


def numpy_available() -> bool:
    """True when numpy is importable: the matrix engines need it."""
    return _np is not None


class HistoryIndex:
    """Column ids for every distinct history seen in one run.

    One shared index per run: every row (per-process counters, matrix
    rows of the whole-round engine) is keyed by the same columns, so
    rows combine without any per-history translation.  Interning a
    history also interns every prefix — ``parents[col]`` is therefore
    always a valid column (or ``-1`` for length-1 histories), and a
    prefix-maximum is a walk up ``parents``.

    Lookup is content-based (the table hashes histories, and
    :class:`~repro.core.history.HistoryNode` hashes equal to the tuple
    of its elements), so tuple histories and nodes — including nodes
    that survived :func:`~repro.core.history.clear_intern_cache` — all
    resolve to the same column.  The index grows for its lifetime;
    create one per run (the schedulers do) and let it go.
    """

    __slots__ = ("_cols", "parents", "histories")

    def __init__(self) -> None:
        self._cols: Dict[History, int] = {}
        #: parent column per column (-1 when the parent is the empty history)
        self.parents: List[int] = []
        #: canonical interned node per column
        self.histories: List[HistoryNode] = []

    @property
    def width(self) -> int:
        """Number of columns assigned so far."""
        return len(self.histories)

    def _new_column(self, node: HistoryNode, parent_col: int) -> int:
        col = len(self.histories)
        self._cols[node] = col
        self.histories.append(node)
        self.parents.append(parent_col)
        return col

    def intern(self, history: History) -> int:
        """The column of ``history``, assigning one (plus any missing
        prefix columns) on first sight.  O(unindexed prefix length)."""
        col = self._cols.get(history)
        if col is not None:
            return col
        if isinstance(history, HistoryNode):
            node = history
        else:
            node = intern_history(history)
        if node.length == 0:
            raise ValueError("the empty history has no column")
        # Walk down the un-indexed prefix chain iteratively (histories
        # can be thousands of elements deep — no recursion), then
        # unwind assigning columns parent-first.
        chain: List[HistoryNode] = []
        parent_col = -1
        cursor = node
        while cursor.length > 0:
            existing = self._cols.get(cursor)
            if existing is not None:
                parent_col = existing
                break
            chain.append(cursor)
            cursor = cursor.parent
        for pending in reversed(chain):
            parent_col = self._new_column(pending, parent_col)
        return parent_col

    def child_col(self, parent_col: int, value: Hashable) -> int:
        """Column of ``parent + (value,)`` — the O(1) append step.

        ``parent_col=-1`` means "extend the empty history".
        """
        if parent_col < 0:
            node = intern_history((value,))
        else:
            node = self.histories[parent_col].child(value)
        col = self._cols.get(node)
        if col is None:
            col = self._new_column(node, parent_col)
        return col

    def ancestor_cols(self, col: int) -> List[int]:
        """``col`` and every proper-prefix column, nearest first."""
        chain: List[int] = []
        parents = self.parents
        while col >= 0:
            chain.append(col)
            col = parents[col]
        return chain


def _map_from_row(row, index: HistoryIndex, cols) -> Dict[History, int]:
    """Sparse dict of a row's positive entries (canonical node keys), in
    ascending column order; ``cols`` names the column of each slot."""
    histories = index.histories
    held = _np.flatnonzero(row > 0)
    held = held[cols[held].argsort()]
    return {
        histories[col]: value
        for col, value in zip(cols[held].tolist(), row[held].tolist())
    }


class CounterRowView:
    """Read-only elector over one finished counter row.

    What the matrix engines' ``finalize`` installs as each algorithm's
    ``elector``: the final history plus the process's row, answering
    the read side of
    :class:`~repro.core.pseudo_leader.PseudoLeaderElector`
    (``history``, ``counters``, ``is_leader``, ``my_counter``,
    ``max_counter``, ``state_size``).  The row comes with ``cols``,
    the column each of its slots holds; ``counters`` lists histories in
    ascending column order.  The counter map is built from the row on
    first access, so installing ``n`` views costs O(n), not
    O(n × width).
    """

    __slots__ = ("history", "_index", "_row", "_cols", "_map")

    def __init__(self, history: History, index: HistoryIndex, row, cols) -> None:
        self.history = history
        self._index = index
        self._row = row
        self._cols = cols
        self._map: Optional[Dict[History, int]] = None

    @property
    def counters(self) -> Mapping[History, int]:
        """The final counter map ``C`` (materialized once, read-only)."""
        if self._map is None:
            self._map = _map_from_row(self._row, self._index, self._cols)
        return MappingProxyType(self._map)

    def my_counter(self) -> int:
        return self.counters.get(self.history, 0)

    def max_counter(self) -> int:
        return max(self.counters.values(), default=0)

    def is_leader(self) -> bool:
        """Definition 1: own history's counter is maximal."""
        return self.my_counter() >= self.max_counter()

    def state_size(self) -> int:
        """Structural size of the elector's state (experiment T3)."""
        return len(self.history) + sum(
            len(history) + 1 for history in self.counters
        )

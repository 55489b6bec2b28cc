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
flat integer row: ``row[col(H)] = C[H]``, absent-is-zero exactly like
the paper's sparse semantics.  On rows, Algorithm 3's operations are
whole-array primitives:

* **line 8** (pointwise minimum) — element-wise ``min`` over rows: a
  column survives iff it is positive in every row, which *is* the
  sparse support intersection;
* **line 9** (prefix-inheritance bump) — a maximum over the column's
  ancestor chain (``HistoryIndex.parents`` mirrors the interned tree),
  evaluated for all bumps before any write lands, realizing the
  paper's simultaneous batch assignment.

Two backends exist: a pure-Python implementation on ``array('q')``
rows (always available) and a numpy implementation used automatically
when numpy is importable.  ``REPRO_NO_NUMPY=1`` hides numpy entirely
(the CI fallback leg; read at import time); ``REPRO_COLUMNAR_BACKEND``
forces one backend.

Layers, bottom up:

* :class:`HistoryIndex` — the run's history → column table, mirroring
  the interned history tree (``parents``, ``ancestor_cols``, O(1)
  ``child_col`` appends);
* :class:`CounterColumns` — a dense ``n × width`` counter matrix over
  every index column, the store of the drifting engine and of the
  lock-step engine's stdlib backend (the lock-step numpy path stores
  only the columns that can still count, see
  :mod:`repro.runtime.columnar_engine`);
* :class:`CounterRowView` — the read-only elector those engines leave
  behind on every algorithm when a run finishes: one counter row (plus
  the columns its slots hold, for a live-column row) and the final
  history, with the counter map built on first read.

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

import os
from array import array
from types import MappingProxyType
from typing import Dict, Hashable, List, Mapping, Optional, Sequence

from repro.core.history import History, HistoryNode, intern_history

__all__ = [
    "BACKENDS",
    "numpy_available",
    "default_backend",
    "HistoryIndex",
    "CounterColumns",
    "CounterRowView",
]

#: numpy module or None.  Resolved once at import: backend selection
#: must be stable for a run (rows of both kinds never mix), and the
#: no-numpy CI leg sets REPRO_NO_NUMPY before Python starts.
_np = None
if not os.environ.get("REPRO_NO_NUMPY"):
    try:
        import numpy as _np  # type: ignore[no-redef]
    except ImportError:  # pragma: no cover - exercised by the CI leg
        _np = None

BACKENDS = ("numpy", "python")


def numpy_available() -> bool:
    """True when the numpy backend can be used in this process."""
    return _np is not None


def _resolve_backend(backend):
    """Validate an explicit backend choice (``None`` = default)."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}: expected one of {BACKENDS}"
        )
    if backend == "numpy" and _np is None:
        raise RuntimeError("numpy backend requested but numpy is not importable")
    return backend


def default_backend() -> str:
    """The backend columnar code uses unless told otherwise.

    ``REPRO_COLUMNAR_BACKEND`` forces a choice (raising if it names
    the numpy backend while numpy is unavailable); otherwise numpy
    when importable, the pure-Python ``array`` rows when not.
    """
    forced = os.environ.get("REPRO_COLUMNAR_BACKEND")
    if forced:
        if forced not in BACKENDS:
            raise ValueError(
                f"REPRO_COLUMNAR_BACKEND={forced!r}: expected one of {BACKENDS}"
            )
        if forced == "numpy" and _np is None:
            raise RuntimeError(
                "REPRO_COLUMNAR_BACKEND=numpy but numpy is not importable"
            )
        return forced
    return "numpy" if _np is not None else "python"


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


# ----------------------------------------------------------------------
# row primitives (both backends)
# ----------------------------------------------------------------------

def _prefix_best(row, col: int, parents: Sequence[int]) -> int:
    """Max row value over ``col`` and its ancestor columns (0 default)."""
    best = 0
    size = len(row)
    while col >= 0:
        if col < size:
            value = row[col]
            if value > best:
                best = value
        col = parents[col]
    return int(best)


def _map_from_row(row, index: HistoryIndex, cols=None) -> Dict[History, int]:
    """Sparse dict of a row's positive entries (canonical node keys), in
    ascending column order.  ``cols`` names the column of each slot of
    a live-column (numpy) row; ``None`` means the row is dense."""
    histories = index.histories
    if cols is not None:
        held = _np.flatnonzero(row > 0)
        held = held[cols[held].argsort()]
        return {
            histories[col]: value
            for col, value in zip(cols[held].tolist(), row[held].tolist())
        }
    if _np is not None and isinstance(row, _np.ndarray):
        values = row.tolist()
    else:
        values = row
    return {
        histories[col]: value
        for col, value in enumerate(values)
        if value > 0
    }


# ----------------------------------------------------------------------
# stores
# ----------------------------------------------------------------------

class CounterColumns:
    """Dense ``n × width`` counter matrix over a shared index.

    Row ``i`` is process ``i``'s counter map, columns are
    :class:`HistoryIndex` ids — every column the index holds, whether
    or not any row can still count it.  It is the drifting engine's
    store and the lock-step engine's on the stdlib backend; the
    lock-step numpy path stores only live columns instead.  The numpy
    backend keeps one 2-D int64 array (capacity-doubled as the index
    grows, so per-round widening is amortized O(1) per cell); the
    pure-Python backend keeps one ``array('q')`` per row, padded to
    the current width.

    The engines compute directly on the backing storage (``data`` /
    ``rows``) — this class owns allocation and sparse import/export,
    not the arithmetic.
    """

    __slots__ = ("n", "index", "backend", "_width", "data", "rows")

    def __init__(
        self, n: int, index: HistoryIndex, backend: Optional[str] = None
    ) -> None:
        if n < 1:
            raise ValueError("need at least one row")
        self.n = n
        self.index = index
        self.backend = _resolve_backend(backend)
        self._width = 0
        if self.backend == "numpy":
            self.data = _np.zeros((n, 8), dtype=_np.int64)
            self.rows = None
        else:
            self.data = None
            self.rows = [array("q") for _ in range(n)]

    @property
    def width(self) -> int:
        """Logical width (columns in use; storage may be wider)."""
        return self._width

    def ensure_width(self, width: int) -> None:
        """Grow logical width (new columns read as zero)."""
        if width <= self._width:
            return
        if self.backend == "numpy":
            capacity = self.data.shape[1]
            if width > capacity:
                grown = _np.zeros(
                    (self.n, max(width, 2 * capacity)), dtype=_np.int64
                )
                grown[:, :capacity] = self.data
                self.data = grown
        else:
            for row in self.rows:
                pad = width - len(row)
                if pad:
                    row.extend(array("q", bytes(8 * pad)))
        self._width = width

    def row_map(self, i: int) -> Dict[History, int]:
        """Sparse dict of row ``i`` (positive entries, node keys)."""
        if self.backend == "numpy":
            return _map_from_row(self.data[i, : self._width], self.index)
        return _map_from_row(self.rows[i], self.index)

    def set_row_map(self, i: int, mapping: Mapping[History, int]) -> None:
        """Load row ``i`` from a sparse map (clearing it first)."""
        for history in mapping:
            self.index.intern(history)
        self.ensure_width(self.index.width)
        intern = self.index.intern
        if self.backend == "numpy":
            self.data[i, : self._width] = 0
            row = self.data[i]
        else:
            row = self.rows[i]
            for col in range(len(row)):
                row[col] = 0
        for history, count in mapping.items():
            if count > 0:
                row[intern(history)] = count


class CounterRowView:
    """Read-only elector over one finished counter row.

    What the matrix engines' ``finalize`` installs as each algorithm's
    ``elector``: the final history plus the process's row, answering
    the read side of
    :class:`~repro.core.pseudo_leader.PseudoLeaderElector`
    (``history``, ``counters``, ``is_leader``, ``my_counter``,
    ``max_counter``, ``state_size``).  A dense row is indexed by
    column; a live-column row comes with ``cols``, the column each of
    its slots holds.  Either way ``counters`` lists histories in
    ascending column order.  The counter map is built from the row on
    first access, so installing ``n`` views costs O(n), not
    O(n × width).
    """

    __slots__ = ("history", "_index", "_row", "_cols", "_map")

    def __init__(self, history: History, index: HistoryIndex, row, cols=None) -> None:
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

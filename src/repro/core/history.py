"""Proposal-value histories (Section 4.1 of the paper).

Algorithm 3 identifies anonymous processes by the *history* of the
values they appended round after round ("every process maintains a list
of the values it broadcasts in every round").  Two processes that ever
append different values in the same round have diverged forever —
histories only grow, so equal histories mean behaviourally identical
processes so far.

Two representations coexist behind one API:

* plain tuples — the seed representation: hashable, obvious, and still
  accepted everywhere (tests and user code may keep using them);
* :class:`HistoryNode` — a hash-consed parent-pointer node.  ``extend``
  is O(1) allocation, node-to-node equality is identity (interning
  guarantees one node per distinct history), and prefix queries walk
  parent pointers instead of slicing.  Nodes hash and compare equal to
  the tuple of their elements, so dictionaries, frozensets, and
  serialized traces interoperate freely between the two forms.

:func:`initial_history` returns an interned node by default (the fast
path); :func:`set_interning` / :func:`interning_disabled` restore the
tuple behaviour, which the equivalence tests use to pin the two
representations against each other.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Hashable, Iterable, Iterator, Optional, Tuple, Union

__all__ = [
    "History",
    "HistoryNode",
    "initial_history",
    "extend",
    "intern_history",
    "interning_enabled",
    "set_interning",
    "interning_disabled",
    "clear_intern_cache",
    "intern_cache_size",
    "intern_generation",
    "is_prefix",
    "is_proper_prefix",
    "common_prefix_length",
    "diverged",
    "longest",
]


class HistoryNode:
    """One interned history: a value appended to a parent history.

    Nodes are created exclusively through :meth:`child` (hash-consing:
    asking the same parent for the same value returns the same object),
    so two nodes represent the same history iff they are the same
    object.  Externally a node behaves like the tuple of its elements:
    same ``len``, same iteration order, same ``hash``, equal to the
    tuple — which keeps counter maps, frozen messages, and serialized
    traces oblivious to the representation.
    """

    __slots__ = (
        "value",
        "parent",
        "length",
        "_children",
        "_hash",
        "_psize",
        "_count",
        "_seen",
        "_stamp",
        "_gen",
    )

    def __init__(self, value: Hashable, parent: Optional["HistoryNode"]):
        self.value = value
        self.parent = parent
        self.length = 0 if parent is None else parent.length + 1
        self._children: Optional[dict] = None
        self._hash: Optional[int] = None
        self._psize: Optional[int] = None
        # Version-stamped counter scratchpad: the interned tree doubles
        # as the prefix index for counter maps (see repro.core.counters;
        # a stale stamp reads as "no entry", so no per-round cleanup).
        self._count: int = 0
        self._seen: int = 0
        self._stamp: int = 0
        # Intern generation, inherited along the chain: nodes outliving
        # clear_intern_cache() — and any later extensions of their
        # detached chains — keep hashing/comparing correctly but lose
        # the one-node-per-history identity guarantee, so identity-based
        # fast paths must reject them (see repro.core.counters).
        self._gen: int = _GENERATION if parent is None else parent._gen

    # -- construction ---------------------------------------------------
    def child(self, value: Hashable) -> "HistoryNode":
        """The interned extension of this history by ``value`` (O(1))."""
        children = self._children
        if children is None:
            children = self._children = {}
        node = children.get(value)
        if node is None:
            node = children[value] = HistoryNode(value, self)
        return node

    def ancestor_at(self, length: int) -> "HistoryNode":
        """The unique prefix of this history with the given length."""
        if not 0 <= length <= self.length:
            raise IndexError(f"no ancestor of length {length} in {self!r}")
        node = self
        while node.length > length:
            node = node.parent
        return node

    # -- tuple-compatible protocol --------------------------------------
    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self.as_tuple())

    def __getitem__(self, index):
        return self.as_tuple()[index]

    def as_tuple(self) -> Tuple[Hashable, ...]:
        """The elements of this history as a plain tuple (O(length))."""
        elements = [None] * self.length
        node = self
        for position in range(self.length - 1, -1, -1):
            elements[position] = node.value
            node = node.parent
        return tuple(elements)

    def __hash__(self) -> int:
        # Tuple-hash parity: a node and the tuple of its elements must
        # collide into the same dict bucket (they compare equal).
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(self.as_tuple())
        return cached

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if isinstance(other, HistoryNode):
            if other.length != self.length:
                return False
            a, b = self, other
            while a is not b:  # distinct interned nodes differ somewhere
                if a.value != b.value:
                    return False
                a, b = a.parent, b.parent
            return True
        if isinstance(other, tuple):
            if len(other) != self.length:
                return False
            node = self
            for item in reversed(other):
                if node.value != item:
                    return False
                node = node.parent
            return True
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    # Ordering delegates to tuples so ``longest``-style tie-breaks and
    # sorted() keys behave identically across representations.
    def _as_comparable(self, other):
        if isinstance(other, HistoryNode):
            return self.as_tuple(), other.as_tuple()
        if isinstance(other, tuple):
            return self.as_tuple(), other
        return None

    def __lt__(self, other):
        pair = self._as_comparable(other)
        return NotImplemented if pair is None else pair[0] < pair[1]

    def __le__(self, other):
        pair = self._as_comparable(other)
        return NotImplemented if pair is None else pair[0] <= pair[1]

    def __gt__(self, other):
        pair = self._as_comparable(other)
        return NotImplemented if pair is None else pair[0] > pair[1]

    def __ge__(self, other):
        pair = self._as_comparable(other)
        return NotImplemented if pair is None else pair[0] >= pair[1]

    def __repr__(self) -> str:
        return repr(self.as_tuple())

    def __reduce__(self):
        # Pickling re-interns on the receiving side (parallel workers,
        # archived traces), preserving identity-equality there too.
        return (intern_history, (self.as_tuple(),))

    # -- structural size (see repro.giraf.messages.payload_size) --------
    def __payload_size__(self, recurse) -> int:
        cached = self._psize
        if cached is not None:
            return cached
        # Iterative fill from the nearest cached ancestor: histories
        # grow one element per round, so a cold chain can be thousands
        # of nodes deep — recursing a Python frame per element would
        # hit the recursion limit where a tuple would not.
        chain = []
        node = self
        while node._psize is None:
            if node.parent is None:
                node._psize = 1  # the empty history: one atom
                break
            chain.append(node)
            node = node.parent
        size = node._psize
        for pending in reversed(chain):
            size += recurse(pending.value)
            pending._psize = size
        return size


#: Current intern generation; bumped by :func:`clear_intern_cache` so
#: pre-clear nodes are recognizable (they may have equal-content
#: doppelgängers in the new table, breaking identity equality).
_GENERATION = 1

#: The interned empty history; every node chain hangs off this root.
_ROOT = HistoryNode(None, None)


def intern_generation() -> int:
    """The current generation (nodes carry the one they were made in)."""
    return _GENERATION

History = Union[Tuple[Hashable, ...], HistoryNode]

_INTERNING = True


def interning_enabled() -> bool:
    """Whether new histories are interned nodes (True) or tuples."""
    return _INTERNING


def set_interning(enabled: bool) -> None:
    """Select the representation :func:`initial_history` produces."""
    global _INTERNING
    _INTERNING = bool(enabled)


@contextmanager
def interning_disabled():
    """Context manager: tuple histories inside, previous mode after."""
    previous = _INTERNING
    set_interning(False)
    try:
        yield
    finally:
        set_interning(previous)


def clear_intern_cache() -> None:
    """Drop every interned node (frees memory between big sweeps).

    The table is global and otherwise grows for the process lifetime,
    so long-lived sessions that drive schedulers directly should call
    this between runs (the experiment cell runner does it per cell).
    Nodes created before the clear keep hashing and comparing correctly
    (including against re-interned equals), but they are no longer
    canonical: the generation bump makes the counter fast paths fall
    back to hash-based merging for any state that survives the clear.
    """
    global _GENERATION
    _GENERATION += 1
    _ROOT._children = None
    # Fresh chains hang off the root and inherit its generation; old
    # detached chains keep theirs, marking them non-canonical.
    _ROOT._gen = _GENERATION


def intern_cache_size() -> int:
    """Number of interned nodes currently reachable from the root.

    The size of the global table :func:`clear_intern_cache` would free
    (the empty-history root itself is excluded: it is permanent).  In
    the paper's anonymity regime this is about brands × rounds — the
    quantity the scale experiment watches to prove grid runs stay
    bounded when the cell runner clears between cells.
    """
    count = 0
    stack = [_ROOT]
    while stack:
        children = stack.pop()._children
        if children:
            count += len(children)
            stack.extend(children.values())
    return count


def intern_history(elements: Iterable[Hashable]) -> HistoryNode:
    """The interned node for an element sequence (the pickle path)."""
    node = _ROOT
    for value in elements:
        node = node.child(value)
    return node


def initial_history(value: Hashable) -> History:
    """The paper's initialization ``HISTORY := VAL`` (a length-1 list)."""
    if _INTERNING:
        return _ROOT.child(value)
    return (value,)


def extend(history: History, value: Hashable) -> History:
    """The paper's ``append VAL to HISTORY`` (Algorithm 3 line 21).

    O(1) for interned nodes; a fresh tuple for tuple histories.
    """
    if isinstance(history, HistoryNode):
        return history.child(value)
    return history + (value,)


def is_prefix(candidate: History, history: History) -> bool:
    """True iff ``candidate`` is a (not necessarily proper) prefix."""
    length = len(candidate)
    if length > len(history):
        return False
    if isinstance(history, HistoryNode):
        # O(len(history) - len(candidate)) parent walk + O(1)-ish compare.
        return history.ancestor_at(length) == candidate
    return history[:length] == candidate


def is_proper_prefix(candidate: History, history: History) -> bool:
    """True iff ``candidate`` is a strictly shorter prefix of ``history``."""
    return len(candidate) < len(history) and is_prefix(candidate, history)


def common_prefix_length(a: History, b: History) -> int:
    """Length of the longest common prefix of the two histories."""
    if (
        isinstance(a, HistoryNode)
        and isinstance(b, HistoryNode)
        and a._gen == b._gen
    ):
        # Same intern generation: interned prefixes are shared nodes,
        # so the first identical ancestor *is* the common prefix.
        # (Across generations — one side predating clear_intern_cache()
        # — equal prefixes are distinct objects, so fall through to the
        # element-wise comparison instead.)
        limit = min(a.length, b.length)
        a = a.ancestor_at(limit)
        b = b.ancestor_at(limit)
        while a is not b:
            a, b = a.parent, b.parent
        return a.length
    if isinstance(a, HistoryNode):
        a = a.as_tuple()
    if isinstance(b, HistoryNode):
        b = b.as_tuple()
    limit = min(len(a), len(b))
    for index in range(limit):
        if a[index] != b[index]:
            return index
    return limit


def diverged(a: History, b: History) -> bool:
    """True when neither history can ever become a prefix of the other.

    Once two histories disagree at some position they have diverged
    permanently (histories only grow) — the key observation behind the
    pseudo leader election.
    """
    return common_prefix_length(a, b) < min(len(a), len(b))


def longest(histories: Iterable[History]) -> Optional[History]:
    """The longest history (ties broken by tuple order); None if empty."""
    best: Optional[History] = None
    for history in histories:
        if best is None or (len(history), history) > (len(best), best):
            best = history
    return best

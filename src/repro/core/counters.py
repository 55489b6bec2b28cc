"""Sparse per-history counters (Algorithm 3, lines 2, 8, 9).

The pseudo leader election maintains, at every process, a counter
``C[H]`` for each history ``H`` it has heard of.  The paper is explicit
that the map is *sparse* ("no memory is allocated for histories it has
not yet heard of"): an absent entry reads as 0.  Two operations drive
it each round:

* **line 8** — pointwise minimum over the round's received messages:
  ``∀H, C[H] := min_m m.C[H]``.  With sparse default-0 semantics a
  history missing from *any* received message mins to 0 and stays
  unallocated, so the result's support is the intersection of the
  messages' supports.
* **line 9** — prefix-inheritance bump: for each received message,
  ``C[m.HISTORY] := 1 + max{C[H] : H prefix of m.HISTORY}``.  Bumps are
  evaluated *simultaneously* against the post-minimum map (the paper's
  ``∀m`` batch assignment), so the order of messages in the set — which
  anonymity makes meaningless anyway — cannot matter.

:class:`FrozenCounters` is the immutable, hashable form that rides
inside messages.  Two fast paths keep the round update cheap at scale
(PERFORMANCE.md):

* an empty post-minimum map short-circuits the bump to ``C[H] := 1``;
* interned :class:`~repro.core.history.HistoryNode` histories answer
  prefix maxima by walking parent pointers — no index at all.

Tuple histories take the per-entry scan of :func:`prefix_max`, the
reference the interned path is tested against.

**Concurrency note:** the stamped fast paths annotate shared interned
nodes through a module-global stamp, so concurrent counter merges from
multiple *threads* can clobber each other's in-flight annotations.
The library's parallelism unit is the process (see
:func:`repro.experiments.common.run_cells`), where every worker owns
its interpreter; keep it that way, or confine threads to tuple
histories (the generic paths are pure).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence

from repro.core.history import History, HistoryNode, intern_generation, is_prefix

__all__ = [
    "FrozenCounters",
    "pointwise_min",
    "prefix_max",
    "apply_round_update",
]


class FrozenCounters(Mapping[History, int]):
    """Immutable sparse counter map, safe to embed in frozen messages.

    Zero entries are normalized away so that two maps with the same
    non-zero support compare (and hash) equal — an allocated-at-zero
    entry would otherwise leak scheduling history through message
    equality, breaking anonymity's merge semantics.
    """

    __slots__ = ("_entries", "_hash", "_atoms", "_psize", "_nodes_gen")

    def __init__(self, entries: Optional[Mapping[History, int]] = None):
        cleaned = {
            history: count
            for history, count in (entries or {}).items()
            if count != 0
        }
        for history, count in cleaned.items():
            if count < 0:
                raise ValueError(f"negative counter for {history!r}")
        self._entries: Dict[History, int] = cleaned
        self._hash: Optional[int] = None
        self._atoms: Optional[int] = None
        self._psize: Optional[int] = None
        self._nodes_gen: Optional[int] = None

    EMPTY: "FrozenCounters"

    @classmethod
    def _adopt(cls, entries: Dict[History, int]) -> "FrozenCounters":
        """Wrap an already-clean dict without copying or validating.

        Internal fast path for producers whose output is zero-free and
        positive by construction (the round update: minima drop zeros,
        bumps are ≥ 1) and who relinquish the dict (the elector
        replaces, never mutates, its map).
        """
        frozen = cls.__new__(cls)
        frozen._entries = entries
        frozen._hash = None
        frozen._atoms = None
        frozen._psize = None
        frozen._nodes_gen = None
        return frozen

    def _node_generation(self) -> int:
        """Common intern generation of the keys, or ``-1``.

        ``-1`` means "not eligible for identity-based fast paths": a
        non-node key, or keys from different intern generations (nodes
        that survived :func:`~repro.core.history.clear_intern_cache`
        may have equal-content doppelgängers, so only a single-current-
        generation map may be merged by identity).  Cached — the map is
        immutable.
        """
        if not self._entries:
            # An empty map is trivially mergeable in any generation —
            # never cache, or the shared EMPTY singleton would pin the
            # generation of its first use forever.
            return intern_generation()
        generation = self._nodes_gen
        if generation is None:
            generation = -1
            for history in self._entries:
                if type(history) is not HistoryNode:
                    generation = -1
                    break
                if generation == -1:
                    generation = history._gen
                elif generation != history._gen:
                    generation = -1
                    break
            self._nodes_gen = generation
        return generation

    def __getitem__(self, history: History) -> int:
        # Sparse semantics: absent histories read as 0, per the paper.
        return self._entries.get(history, 0)

    def get(self, history: History, default: int = 0) -> int:  # type: ignore[override]
        return self._entries.get(history, default)

    def __iter__(self) -> Iterator[History]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, history: object) -> bool:
        return history in self._entries

    def items(self):
        return self._entries.items()

    def to_dict(self) -> Dict[History, int]:
        return dict(self._entries)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FrozenCounters):
            return self._entries == other._entries
        if isinstance(other, Mapping):
            return self._entries == {h: c for h, c in other.items() if c != 0}
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._entries.items()))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{history!r}: {count}" for history, count in sorted(
                self._entries.items(), key=lambda item: (len(item[0]), repr(item[0]))
            )
        )
        return f"FrozenCounters({{{inner}}})"

    def payload_atoms(self) -> int:
        """Structural size: one atom per history element plus the count."""
        atoms = self._atoms
        if atoms is None:
            atoms = self._atoms = sum(
                len(history) + 1 for history in self._entries
            )
        return atoms

    def __payload_size__(self, recurse) -> int:
        # Exactly the Mapping recursion of payload_size, cached: counter
        # maps are the dominant share of Algorithm 3's payload and are
        # measured once per broadcast in experiment T3.  The common case
        # (interned history keys, int counts) skips the generic
        # recursion: such a key contributes its cached node size and
        # the count contributes 1 atom, which is what the recursion
        # would conclude.
        size = self._psize
        if size is None:
            size = 1
            for history, count in self._entries.items():
                if type(history) is HistoryNode and type(count) is int:
                    size += history.__payload_size__(recurse) + 1
                else:
                    size += recurse(history) + recurse(count)
            self._psize = size
        return size


FrozenCounters.EMPTY = FrozenCounters()


def pointwise_min(counter_maps: Sequence[Mapping[History, int]]) -> Dict[History, int]:
    """Line 8: ``∀H, C[H] := min_m m.C[H]`` with sparse default-0 reads.

    The support of the result is the intersection of the supports (a
    history missing anywhere mins to 0 and is dropped).  Iteration is
    driven by the smallest support — minima are commutative, so the
    result cannot depend on the choice, and the intersection can never
    be larger than its smallest operand.
    """
    if not counter_maps:
        return {}
    if _identity_mergeable(counter_maps):
        return _stamped_merge(
            [counters._entries for counters in counter_maps]
        )[0]
    # Generic path: tuple histories or plain dicts.
    plain = [
        counters._entries if isinstance(counters, FrozenCounters) else counters
        for counters in counter_maps
    ]
    base = _smallest(plain)
    others = [counters for counters in plain if counters is not base]
    result: Dict[History, int] = {}
    for history, count in base.items():
        minimum = count
        for other in others:
            other_count = other.get(history, 0)
            if other_count < minimum:
                minimum = other_count
                if minimum == 0:
                    break
        if minimum > 0:
            result[history] = minimum
    return result


def _smallest(maps: Sequence) -> Mapping:
    """The map with the smallest support: the merge's iteration base.

    Minima are commutative, so the choice cannot change the result, and
    the support intersection can never be larger than its smallest
    operand.
    """
    base = maps[0]
    for candidate in maps:
        if len(candidate) < len(base):
            base = candidate
    return base


def _identity_mergeable(counter_maps: Sequence[Mapping[History, int]]) -> bool:
    """Whether every map may be merged by node *identity*.

    Requires frozen maps whose keys are all interned nodes of the
    *current* generation — nodes predating a ``clear_intern_cache()``
    may have equal-content doppelgängers in the new table, which
    identity matching would wrongly treat as distinct keys.
    """
    generation = intern_generation()
    return all(
        isinstance(counters, FrozenCounters)
        and counters._node_generation() == generation
        for counters in counter_maps
    )


def _stamped_merge(maps: Sequence[Dict["HistoryNode", int]]):
    """Pointwise minimum over all-interned maps without hashing a key.

    One stamped pass per map accumulates, directly on the nodes, the
    running minimum and the number of maps each key appeared in; keys
    seen in every map (the support intersection) with a positive
    minimum survive.  Duplicate map objects (one process's counters
    relayed through several envelopes) are skipped — ``min(x, x) = x``.

    Returns ``(merged, stamp, needed)`` so callers can keep reading the
    post-minimum annotations: a node was in the intersection iff
    ``node._stamp == stamp and node._seen == needed``, with its minimum
    in ``node._count``.
    """
    unique: list = []
    for entries in maps:
        if not any(entries is seen for seen in unique):
            unique.append(entries)
    base = _smallest(unique)
    others = [entries for entries in unique if entries is not base]
    global _STAMP
    _STAMP += 1
    stamp = _STAMP
    for node, count in base.items():
        node._stamp = stamp
        node._count = count
        node._seen = 1
    for other in others:
        for node, count in other.items():
            if node._stamp == stamp:
                node._seen += 1
                if count < node._count:
                    node._count = count
    needed = len(others) + 1
    merged: Dict[History, int] = {
        node: node._count
        for node in base
        if node._seen == needed and node._count > 0
    }
    return merged, stamp, needed


def _fast_round_update(
    maps: Sequence[Dict["HistoryNode", int]],
    histories: Sequence["HistoryNode"],
) -> Dict[History, int]:
    """Lines 8 + 9 fused for the all-interned case, hashing no key twice.

    The stamped minimum leaves the per-key running minimum and presence
    count on the nodes; the prefix walks read those same stamps, so the
    prefix maxima need neither a scan nor a single dict probe.  Bumps
    are written into the result dict only — node annotations keep their
    post-minimum values — which realizes the paper's simultaneous batch
    assignment for free.
    """
    merged, stamp, needed = _stamped_merge(maps)
    for history in histories:
        best = 0
        node = history
        while node is not None:
            # Includes the length-0 root: an empty-history entry (if a
            # caller ever constructs one) is a prefix of everything.
            if node._stamp == stamp and node._seen == needed:
                count = node._count
                if count > best:
                    best = count
            node = node.parent
        merged[history] = 1 + best
    return merged


def prefix_max(counters: Mapping[History, int], history: History) -> int:
    """``max{C[H] : H prefix of history}`` (0 when no prefix is present)."""
    best = 0
    for candidate, count in counters.items():
        if count > best and is_prefix(candidate, history):
            best = count
    return best


def _prefix_max_ancestors(counters: Mapping[History, int], history: HistoryNode) -> int:
    """Prefix maximum for an interned history: walk its parent chain.

    Every prefix of an interned node is one of its ancestors, and node
    hashes are cached, so each step is one O(1) dict probe — no index
    construction at all.  (Tuple keys in ``counters`` are still found:
    nodes hash and compare equal to their element tuples.)
    """
    best = 0
    node = history
    while node is not None:
        # Includes the length-0 root: the empty history is a prefix of
        # everything, exactly as the scan treats it.
        count = counters.get(node, 0)
        if count > best:
            best = count
        node = node.parent
    return best


#: Monotone stamp distinguishing one round-update's node annotations
#: from every earlier one (see :func:`_pointwise_min_stamped` and
#: :func:`_fast_round_update`).
_STAMP = 0


def apply_round_update(
    counter_maps: Sequence[Mapping[History, int]],
    received_histories: Iterable[History],
    *,
    inherit_prefixes: bool = True,
) -> Dict[History, int]:
    """Lines 8 and 9 in one step.

    Args:
        counter_maps: the ``m.C`` of every message received this round.
        received_histories: the ``m.HISTORY`` of every received message.
        inherit_prefixes: the paper's line 9.  ``False`` is the
            ablation A1 variant: bump only the exact history key, so a
            history that grew since last round restarts from zero —
            every counter stays at 1 and leadership degenerates to
            "everybody, always".

    Interned histories walk their parent chain for the prefix maxima;
    tuple histories scan the post-minimum map (:func:`prefix_max`).

    Returns the process's new counter map.
    """
    histories = list(dict.fromkeys(received_histories))
    generation = intern_generation()
    if (
        inherit_prefixes
        and counter_maps
        and all(
            type(h) is HistoryNode and h._gen == generation for h in histories
        )
        and _identity_mergeable(counter_maps)
    ):
        # All-interned fast path: minimum + prefix maxima + bumps in
        # one stamped pass, no per-key hashing.
        return _fast_round_update(
            [counters._entries for counters in counter_maps], histories
        )
    merged = pointwise_min(counter_maps)
    if not inherit_prefixes:
        for history in histories:
            merged[history] = 1 + merged.get(history, 0)
        return merged
    if not merged:
        # Empty post-minimum support: every prefix maximum is 0.
        for history in histories:
            merged[history] = 1
        return merged
    maxima: Dict[History, int] = {
        history: _prefix_max_ancestors(merged, history)
        if isinstance(history, HistoryNode)
        else prefix_max(merged, history)
        for history in histories
    }
    # Simultaneous batch assignment: all bumps read the post-minimum map.
    for history in histories:
        merged[history] = 1 + maxima[history]
    return merged

"""Consistent-hash ring over the repository's keyed seed streams.

The sharded cluster routes every value to the shard world that owns
it.  Up to PR 7 the owner was ``derive_randrange(shards, ...)`` — a
uniform assignment that is deterministic but *total*: changing the
shard count remaps almost every value.  Runtime membership (PR 8's
``join_shard``/``leave_shard``) needs the opposite property: adding or
removing one member may move only the keys that member gains or loses,
so the rebalance migrates a minimal set and every untouched world's
seed-replayable history is preserved byte-for-byte.

``HashRing`` is the classic consistent-hashing construction, built on
the same ``derive_randrange`` streams as every other source of
randomness in the repository — **not** on Python's salted ``hash`` —
so ring placement is identical across processes, interpreter restarts,
``PYTHONHASHSEED`` values, and fork/spawn start methods:

* each member owns ``replicas`` virtual nodes; vnode ``r`` of member
  ``m`` sits at ``derive_randrange(2**64, "weakset-ring", m, r)``;
* a value hashes to ``derive_randrange(2**64, "weakset-ring-key", v, 0)``
  and is owned by the first vnode at or clockwise after that point.

Adding member ``m`` inserts only ``m``'s vnodes, so the only values
that move are those whose owning arc was cut by a new vnode — they
move *to* ``m`` and nowhere else.  Removing ``m`` deletes only ``m``'s
vnodes, so only ``m``'s values move, each to the next surviving vnode
clockwise.  ``tests/weakset/test_ring.py`` pins both properties, the
balance bound, and cross-process determinism.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, Hashable, Iterable, Sequence, Tuple

from .._rng import derive_randrange

__all__ = ["HashRing", "DEFAULT_REPLICAS", "RING_SPACE"]

#: Size of the hash space the ring lives on.  64 bits keeps vnode
#: collisions out of practical reach while staying a cheap int.
RING_SPACE = 2**64

#: Virtual nodes per member.  Relative load imbalance shrinks like
#: 1/sqrt(replicas); 64 keeps the max/mean spread under ~1.6 on the
#: populations the tests pin while the ring stays tiny (64 ints per
#: member, built once per membership change).
DEFAULT_REPLICAS = 64


def _vnode_point(member: int, replica: int) -> int:
    return derive_randrange(RING_SPACE, "weakset-ring", member, replica)


def _key_point(value: Hashable) -> int:
    return derive_randrange(RING_SPACE, "weakset-ring-key", value, 0)


class HashRing:
    """An immutable consistent-hash ring over integer member ids.

    >>> ring = HashRing([0, 1, 2])
    >>> ring.owner("paper") in (0, 1, 2)
    True
    >>> ring.owner("paper") == HashRing([0, 1, 2]).owner("paper")
    True
    """

    __slots__ = ("members", "replicas", "_points", "_owners")

    def __init__(self, members: Iterable[int], *, replicas: int = DEFAULT_REPLICAS):
        ordered: Tuple[int, ...] = tuple(sorted(members))
        if not ordered:
            raise ValueError("HashRing needs at least one member")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate ring members: {ordered}")
        if any((not isinstance(m, int)) or m < 0 for m in ordered):
            raise ValueError(f"ring members must be non-negative ints: {ordered}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.members = ordered
        self.replicas = replicas
        # Sorted (point, member) pairs.  Ties on `point` (vanishingly
        # rare in a 64-bit space) resolve to the lowest member id via
        # the tuple sort, deterministically.
        pairs = sorted(
            (_vnode_point(member, replica), member)
            for member in ordered
            for replica in range(replicas)
        )
        self._points = [point for point, _ in pairs]
        self._owners = [member for _, member in pairs]

    def owner(self, value: Hashable) -> int:
        """The member owning ``value``: first vnode clockwise of its point."""
        index = bisect_right(self._points, _key_point(value))
        if index == len(self._points):
            index = 0  # wrap past the top of the space
        return self._owners[index]

    def with_member(self, member: int) -> "HashRing":
        """A new ring with ``member`` added."""
        if member in self.members:
            raise ValueError(f"member {member} already on the ring")
        return HashRing(self.members + (member,), replicas=self.replicas)

    def without_member(self, member: int) -> "HashRing":
        """A new ring with ``member`` removed."""
        if member not in self.members:
            raise ValueError(f"member {member} not on the ring")
        return HashRing(
            (m for m in self.members if m != member), replicas=self.replicas
        )

    def load(self, values: Iterable[Hashable]) -> Dict[int, int]:
        """Owned-value counts per member (every member present)."""
        counts = {member: 0 for member in self.members}
        for value in values:
            counts[self.owner(value)] += 1
        return counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HashRing):
            return NotImplemented
        return self.members == other.members and self.replicas == other.replicas

    def __hash__(self) -> int:
        return hash((self.members, self.replicas))

    def __repr__(self) -> str:
        return f"HashRing(members={list(self.members)}, replicas={self.replicas})"


_DEFAULT_RINGS: Dict[int, HashRing] = {}


def ring_for_shards(shards: int) -> HashRing:
    """The memoized ring over members ``0..shards-1``.

    ``shard_of(value, shards)`` routes through this ring, so a cluster
    constructed with ``shards=K`` and a cluster that *grew* to members
    ``0..K-1`` route identically — the property the membership
    equivalence tests pin.
    """
    ring = _DEFAULT_RINGS.get(shards)
    if ring is None:
        ring = _DEFAULT_RINGS[shards] = HashRing(range(shards))
    return ring

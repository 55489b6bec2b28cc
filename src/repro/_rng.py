"""Deterministic randomness derived from structured keys.

Every random decision is a pure function of a key tuple such as
``("delay", seed, round, sender, receiver)``, identical on every
platform and in every process (Python's salted ``hash`` is never used).
:func:`derive_rng` hands out a stateful :class:`random.Random` seeded by
``repr(key)`` (SHA-512 plus a Mersenne-Twister init) for callers that
consume a whole stream.  The single draws and their row forms read
**stream v2** (:data:`STREAM_VERSION`), a counter-based keyed hash:

* a key's last component is a non-negative int *counter*, the rest is
  its *prefix*, whose digest is blake2b-256 of ``repr(prefix)``;
* counter ``c``'s 64-bit word is word ``c & 7`` (little-endian) of the
  blake2b-512 digest keyed by the prefix digest over the 8-byte
  little-endian block number ``c >> 3``;
* randint is ``lo + word % (hi - lo + 1)``, uniform is
  ``(word >> 11) * 2**-53`` and randrange is ``word % n``.

The per-link index (receiver, replica, retry attempt) goes last, so a
broadcast's draws share one prefix: a row form hashes it once plus one
block per eight counters and returns exactly the scalar values.  Nothing
is memoized, because keys do not repeat inside a run.
"""

from __future__ import annotations

import random
import struct
from hashlib import blake2b
from typing import Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "STREAM_VERSION",
    "derive_rng",
    "derive_uniform",
    "derive_randint",
    "derive_randrange",
    "derive_uniform_row",
    "derive_randint_row",
    "clear_rng_cache",
]

#: Version of the single-draw stream; bumped whenever its values change.
STREAM_VERSION = 2

_BLOCK = struct.Struct("<Q")
_WORDS = struct.Struct("<8Q")
_UNIT = 2.0**-53


def derive_rng(*key: object) -> random.Random:
    """A reproducible :class:`random.Random` keyed by ``key``.

    Equal keys (by ``repr``) give identical streams on every platform
    and in every process — the property all seeded adversary policies
    rely on.
    """
    return random.Random(repr(key))


def _blocks(
    prefix: Sequence[object], counters: Iterable[int]
) -> Dict[int, Tuple[int, ...]]:
    """The eight words of every block the counters fall in."""
    digest = blake2b(repr(tuple(prefix)).encode(), digest_size=32).digest()
    blocks = {c >> 3 for c in counters}
    if blocks and min(blocks) < 0:
        raise ValueError("stream counters must be non-negative ints")
    return {
        block: _WORDS.unpack(blake2b(_BLOCK.pack(block), key=digest).digest())
        for block in blocks
    }


def _word(key: Tuple[object, ...]) -> int:
    counter = key[-1] if key else None
    if not isinstance(counter, int) or counter < 0:
        raise ValueError(f"a key must end in a non-negative int counter: {key!r}")
    return _blocks(key[:-1], (counter,))[counter >> 3][counter & 7]


def derive_uniform(*key: object) -> float:
    """One reproducible uniform draw in ``[0, 1)`` keyed by ``key``."""
    return (_word(key) >> 11) * _UNIT


def derive_randint(lo: int, hi: int, *key: object) -> int:
    """One reproducible integer draw in ``[lo, hi]`` keyed by ``key``."""
    return lo + _word(key) % (hi - lo + 1)


def derive_randrange(n: int, *key: object) -> int:
    """One reproducible draw from ``range(n)`` keyed by ``key``."""
    return _word(key) % n


def derive_uniform_row(
    prefix: Sequence[object], counters: Sequence[int]
) -> List[float]:
    """``[derive_uniform(*prefix, c) for c in counters]``, hashing the
    prefix once; counters may come in any order and repeat."""
    blocks = _blocks(prefix, counters)
    return [(blocks[c >> 3][c & 7] >> 11) * _UNIT for c in counters]


def derive_randint_row(
    lo: int, hi: int, prefix: Sequence[object], counters: Sequence[int]
) -> List[int]:
    """``[derive_randint(lo, hi, *prefix, c) for c in counters]``, hashing
    the prefix once; counters may come in any order and repeat."""
    span = hi - lo + 1
    blocks = _blocks(prefix, counters)
    return [lo + blocks[c >> 3][c & 7] % span for c in counters]


def clear_rng_cache() -> None:
    """Nothing to drop: stream v2 keeps no tables.

    Kept for callers that reset process-wide state between runs.
    """

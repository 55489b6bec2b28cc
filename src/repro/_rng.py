"""Deterministic randomness derived from structured keys.

Every random decision is a pure function of a key tuple such as
``("delay", seed, round, sender, receiver)``, identical on every
platform and in every process (Python's salted ``hash`` is never used).
All of them read **stream v3** (:data:`STREAM_VERSION`), a
counter-based stream over one primitive, FIPS 202's SHAKE-128:

* a key's last component is a non-negative int *counter*, the rest is
  its *prefix*;
* counter ``c``'s 64-bit word is the little-endian u64 at word
  ``c % 64`` of ``shake_128(repr(prefix).encode() + u64le(c // 64))``
  squeezed to 512 bytes — 64 words per block is part of the stream's
  definition, not a setting, and the words read little-endian on every
  host;
* randint is ``lo + word % (hi - lo + 1)``, uniform is
  ``(word >> 11) * 2**-53`` and randrange is ``word % n``.

The per-link index (receiver, replica, retry attempt) goes last, so a
broadcast's draws share one prefix: a row form hashes one block per 64
counters and returns exactly the scalar values, and the matrix form
(:func:`derive_randint_matrix`, one row per prefix) gathers a whole
round's rows into one array.  Only the matrix form needs numpy, and it
imports it on first use, so a run that never draws a matrix never loads
it.  SHAKE is an extendable-output function: a shorter squeeze is a
prefix of the longer one, so a draw squeezes only up to the highest
word it reads.  Nothing is memoized, because keys do not repeat inside
a run.
"""

from __future__ import annotations

import struct
import sys
from array import array
from hashlib import shake_128
from typing import List, Sequence, Tuple

__all__ = [
    "STREAM_VERSION",
    "derive_uniform",
    "derive_randint",
    "derive_randrange",
    "derive_uniform_row",
    "derive_randint_row",
    "derive_randint_matrix",
    "clear_rng_cache",
]

#: Version of the keyed stream; bumped whenever its values change.
STREAM_VERSION = 3

_BLOCK = struct.Struct("<Q")
_UNIT = 2.0**-53
#: the stream reads little-endian words; ``array("Q")`` reads native ones
_SWAP = sys.byteorder == "big"
if array("Q").itemsize != 8:  # pragma: no cover - no such CPython build ships
    raise ImportError("stream v3 needs 8-byte array('Q') items")


def _squeeze(head: bytes, block: int, words: int) -> bytes:
    """The first ``words`` words of one block, as raw little-endian bytes."""
    return shake_128(head + _BLOCK.pack(block)).digest(8 * words)


def _unpack(raw: bytes) -> array:
    words = array("Q", raw)
    if _SWAP:  # pragma: no cover - big-endian hosts only
        words.byteswap()
    return words


def _word(key: tuple) -> int:
    counter = key[-1] if key else None
    if not isinstance(counter, int) or counter < 0:
        raise ValueError(f"a key must end in a non-negative int counter: {key!r}")
    raw = _squeeze(repr(key[:-1]).encode(), counter >> 6, (counter & 63) + 1)
    return int.from_bytes(raw[-8:], "little")


def _row_table(
    prefix: Sequence[object], counters: Sequence[int]
) -> Tuple[array, Sequence[int]]:
    """A row's squeezed words and, per counter, its index into them."""
    if not counters:
        return array("Q"), ()
    if min(counters) < 0:
        raise ValueError("stream counters must be non-negative ints")
    head = repr(tuple(prefix)).encode()
    top = max(counters)
    last = top >> 6
    # a dense row (the common case) squeezes every block up to its last
    # one, a sparse row only the blocks it touches: never more blocks
    # than counters either way
    if last < len(counters):
        blocks: Sequence[int] = range(last + 1)
    else:
        blocks = sorted({c >> 6 for c in counters})
    tail = (top & 63) + 1
    words = _unpack(
        b"".join([_squeeze(head, b, 64 if b != last else tail) for b in blocks])
    )
    if len(blocks) == last + 1:
        return words, counters
    offset = {b: 64 * i for i, b in enumerate(blocks)}
    return words, [offset[c >> 6] + (c & 63) for c in counters]


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
    """``[derive_uniform(*prefix, c) for c in counters]``, hashing one
    block per 64 counters; counters may come in any order and repeat."""
    words, at = _row_table(prefix, counters)
    return [(words[i] >> 11) * _UNIT for i in at]


def derive_randint_row(
    lo: int, hi: int, prefix: Sequence[object], counters: Sequence[int]
) -> List[int]:
    """``[derive_randint(lo, hi, *prefix, c) for c in counters]``, hashing
    one block per 64 counters; counters may come in any order and
    repeat."""
    span = hi - lo + 1
    words, at = _row_table(prefix, counters)
    return [lo + words[i] % span for i in at]


def derive_randint_matrix(
    lo: int,
    hi: int,
    prefixes: Sequence[Sequence[object]],
    counters: Sequence[int],
):
    """``derive_randint(lo, hi, *prefixes[i], counters[j])`` at ``[i, j]``.

    One numpy ``int64`` array of shape ``(len(prefixes),
    len(counters))``: every row's blocks are squeezed in one pass and
    gathered with one fancy index, so a round of late delays costs no
    per-draw Python.  ``lo`` and ``hi`` must fit in ``int64``.  numpy
    is imported here, on first use.
    """
    import numpy as np

    if not -(2**63) <= lo <= hi < 2**63:
        raise ValueError("matrix draws need int64 bounds lo <= hi")
    counters = np.asarray(counters, dtype=np.int64).reshape(-1)
    if counters.size and int(counters.min()) < 0:
        raise ValueError("stream counters must be non-negative ints")
    if not counters.size or not len(prefixes):
        return np.zeros((len(prefixes), counters.size), dtype=np.int64)
    block_of = counters >> 6
    blocks = np.unique(block_of).tolist()
    tails = [_BLOCK.pack(block) for block in blocks]
    # every block squeezes to the highest word any counter reads
    width = int((counters & 63).max()) + 1
    size = 8 * width
    raw = b"".join(
        [
            shake_128(head + tail).digest(size)
            for head in [repr(tuple(prefix)).encode() for prefix in prefixes]
            for tail in tails
        ]
    )
    words = np.frombuffer(raw, dtype="<u8").reshape(len(prefixes), -1)
    words = words[:, np.searchsorted(blocks, block_of) * width + (counters & 63)]
    span = hi - lo + 1
    if span < 2**64:
        words = words % np.uint64(span)
    # lo + word in wrapping u64 arithmetic, read back as int64: exact,
    # because the true value lies in [lo, hi]
    return (words + np.uint64(lo % 2**64)).view(np.int64)


def clear_rng_cache() -> None:
    """Nothing to drop: stream v3 keeps no tables.

    Kept for callers that reset process-wide state between runs.
    """

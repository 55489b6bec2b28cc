"""Event queues for the runtime kernel: heapq twin + calendar queue.

The kernel's continuous-time event core was a single global ``heapq``
of ``(time, seq, kind, data)`` entries.  A binary heap pays O(log N)
per *insert*; the calendar queue below removes that factor, which pays
only when inserts into a large pending set dominate.  No run has that
shape: the drifting loop queues end-of-rounds and gate releases, O(n)
per round, and lands arrivals outside the queue (the matrix path adds
one event per timely link and one per batch of late ones).  The two
queues stay a selectable pair, pinned to drain identically.

:class:`CalendarEventQueue` is the bucketed (timing-wheel) structure
that removes the insert log-factor: events land in a bucket keyed by
``floor(time / width)`` with a plain O(1) ``append``; only the bucket
currently being drained is kept heap-ordered (it is heapified once,
when the drain cursor reaches it).  A tiny auxiliary heap over *bucket
indices* — a few dozen live buckets, not thousands of events — finds
the next non-empty bucket, so sparse stretches of simulated time cost
O(log buckets), never a linear scan.

Both queues expose the same ``push`` / ``pop`` / ``__len__`` /
``__bool__`` surface and pop in **exactly** the same total order:
``(time, seq)`` ascending, i.e. FIFO among equal times.  For the
calendar this follows from two facts: every event in bucket ``i`` has
a strictly smaller time than every event in any bucket ``j > i``
(times are half-open ``[i·w, (i+1)·w)`` intervals), and within the
drained bucket the heap orders by ``(time, seq)``.  The equivalence is
property-tested against the heap twin under randomized interleaved
schedules in ``tests/runtime/test_event_queue.py``, which is what lets
:class:`~repro.runtime.kernel.RuntimeKernel` switch the default to the
calendar while keeping drifting-scheduler traces byte-identical.

Example — the two queues drain any schedule identically:

    >>> heap, calendar = HeapEventQueue(), CalendarEventQueue(width=1.0)
    >>> for entry in [(2.5, 0, "eor", ()), (0.3, 1, "eor", ()), (0.3, 2, "d", ())]:
    ...     heap.push(entry); calendar.push(entry)
    >>> [heap.pop() == calendar.pop() for _ in range(3)]
    [True, True, True]
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import List, Optional, Tuple

__all__ = [
    "EventEntry",
    "HeapEventQueue",
    "CalendarEventQueue",
    "calendar_width",
]

#: one queued event: (time, seq, kind, data) — ``seq`` is unique and
#: monotone, so tuple comparison never reaches ``kind``/``data``.
EventEntry = Tuple[float, int, str, tuple]

#: how many live buckets a maximally-spread late window should occupy;
#: the width rule below widens buckets instead of letting a huge delay
#: span inflate the bucket index heap.
_TARGET_LIVE_BUCKETS = 8.0


def calendar_width(environment: object) -> float:
    """Pick a bucket width (simulated ticks) from an environment.

    The natural bucket is **one round tick** — end-of-rounds fire on
    ~1-tick periods and timely latencies are sub-tick, so a 1.0-wide
    bucket holds one round's burst of events.  What can stretch the
    set of *live* buckets is the late-delivery window: a delay policy
    spreading deliveries over ``hi - lo`` ticks keeps that many
    buckets populated, so for very wide delay bounds the width grows
    to cap the live-bucket count (coarser buckets trade a slightly
    larger heapify for a shorter bucket-index heap).

    Environments without delay bounds (custom policies that do not
    implement :meth:`~repro.giraf.adversary.DelayPolicy.delay_bounds`)
    get the 1-tick default.
    """
    policy = getattr(environment, "delay_policy", None)
    bounds = policy.delay_bounds() if policy is not None else None
    if bounds is None:
        return 1.0
    lo, hi = bounds
    return max(1.0, (hi - lo) / _TARGET_LIVE_BUCKETS)


class HeapEventQueue:
    """The historical event core: one global binary heap.

    Kept selectable (``event_queue="heap"``) as the reference
    implementation the calendar queue is equivalence-tested against.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[EventEntry] = []

    def push(self, entry: EventEntry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> EventEntry:
        return heapq.heappop(self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)


class CalendarEventQueue:
    """Bucketed timing wheel with exact ``(time, seq)`` drain order.

    Inserts into buckets ahead of the cursor are plain O(1) list
    appends — that is the structural win over a global heap, whose
    every insert pays O(log N) sift work.  The one bucket the cursor
    is draining is sorted **once** on arrival (C timsort) and consumed
    by advancing a head index, so a pop from the current bucket is an
    index read, not a heap sift; inserts that land in the current
    bucket (common: sub-tick timely latencies) splice into the live
    region via C ``bisect.insort``.  ``_order`` is a lazily-cleaned
    min-heap of bucket *indices* — a few dozen live buckets, so
    finding the next non-empty bucket is cheap even when simulated
    time jumps.

    Out-of-order inserts (an event earlier than the bucket currently
    being drained — e.g. a gated process released past its nominal
    schedule) are legal: the pop path re-checks the index heap, parks
    the partially drained bucket (compacting its consumed prefix) and
    steers the cursor back.  Exactly like the heap twin, an entry
    inserted with a time earlier than an already-popped entry simply
    pops next — a priority queue cannot un-pop.
    """

    __slots__ = ("_width", "_inverse", "_buckets", "_order", "_current", "_head", "_size")

    def __init__(self, width: float = 1.0) -> None:
        if width <= 0:
            raise ValueError("bucket width must be positive")
        self._width = width
        # ``int(time * inverse)`` instead of ``int(time // width)``: a
        # float multiply is much cheaper than float floor-division on
        # the O(1)-insert hot path, and *any* monotone time -> index
        # map preserves the exact drain order (equal times always land
        # in the same bucket; cross-bucket entries differ in time), so
        # boundary rounding drift is harmless.
        self._inverse = 1.0 / width
        self._buckets: dict[int, List[EventEntry]] = {}
        self._order: List[int] = []
        self._current: Optional[int] = None
        self._head = 0
        self._size = 0

    @property
    def width(self) -> float:
        """The bucket width in simulated ticks."""
        return self._width

    def push(self, entry: EventEntry) -> None:
        index = int(entry[0] * self._inverse)
        bucket = self._buckets.get(index)
        if bucket is None:
            self._buckets[index] = [entry]
            heapq.heappush(self._order, index)
        elif index == self._current:
            # splice into the live (sorted) region; entries at or
            # before the head were already popped and stay untouched
            insort(bucket, entry, self._head)
        else:
            bucket.append(entry)
        self._size += 1

    def pop(self) -> EventEntry:
        buckets = self._buckets
        order = self._order
        current = self._current
        if current is not None:
            if order[0] == current:
                bucket = buckets[current]
                head = self._head
                if head < len(bucket):
                    self._head = head + 1
                    self._size -= 1
                    return bucket[head]
                # drained: retire the bucket and fall through
                del buckets[current]
                heapq.heappop(order)
            else:
                # an earlier bucket appeared behind the cursor: drop
                # the consumed prefix and park this bucket (it will be
                # re-sorted if the cursor ever returns to it)
                bucket = buckets[current]
                if self._head:
                    del bucket[: self._head]
                if not bucket:
                    del buckets[current]  # index cleaned up lazily
            self._current = None
        while True:
            index = order[0]  # IndexError on empty, like heappop
            bucket = buckets.get(index)
            if bucket:
                break
            # retired bucket: drop it from both structures
            heapq.heappop(order)
            buckets.pop(index, None)
        bucket.sort()
        self._current = index
        self._head = 1
        self._size -= 1
        return bucket[0]

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

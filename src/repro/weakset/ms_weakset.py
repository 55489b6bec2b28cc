"""Algorithm 4: a weak-set implementation in the MS environment.

Each process broadcasts its entire ``PROPOSED`` set every round.  An
``add(v)`` inserts ``v`` into ``PROPOSED`` and *blocks* until ``v`` is
**written** — contained in every message received in some round, which
(via the round's source) guarantees ``v`` reached everyone's
``PROPOSED`` and will stay there forever (Lemmas 8–9).  A ``get``
returns the local ``PROPOSED`` immediately.

Pseudocode correspondence (paper's listing)::

    on initialization:                              initialize()
      VAL := ⊥; PROPOSED := WRITTEN := ∅              line 2
      BLOCK := false                                  line 3
      return PROPOSED                                 line 4
    on get:   return PROPOSED                         lines 5–6
    on add(v):                                        begin_add()
      PROPOSED := PROPOSED ∪ {v}; VAL := v            lines 8–9
      BLOCK := true; wait until BLOCK = false         lines 10–11
    on compute(k, M):                                 compute()
      WRITTEN := ∩_{m ∈ M[k]} m                       line 14
      PROPOSED := (∪_{m ∈ M[k'], 1≤k'≤k} m) ∪ PROPOSED line 15
      if VAL ∈ WRITTEN: BLOCK := false                line 16
      return PROPOSED                                 line 17

Line 15 unions over **all** round slots ``1 ≤ k' ≤ k``, so late
deliveries matter here — unlike the consensus algorithms, which only
read the current slot.  Rebuilt every round, that union costs
O(k × messages × |PROPOSED|); :meth:`MSWeakSetAlgorithm.compute` folds
only what is new instead.  It remembers the messages it has folded and,
per slot, the size at which it last folded that slot, and at
``compute(k)`` reads only the slots ``r ≤ k`` whose size changed,
folding their unseen messages.  A slot above ``k`` (an early arrival on
the drifting scheduler) waits until it comes into range.  This is
exact because a slot only grows and ``PROPOSED`` only grows (lines 8
and 15), so a message folded once stays contained:
:class:`VerbatimMSWeakSetAlgorithm` computes line 15 as written, and
the tests pin both to the same ``PROPOSED``, ``WRITTEN`` and ``BLOCK``
after every compute.  "The same" is under ``==``: of two distinct
values that are equal (``1``, ``1.0``, ``True``) a set keeps the one
that entered first, and the fold adds new messages to ``PROPOSED``
where the verbatim form adds ``PROPOSED`` to the union of every
message.  A process that added ``True`` and then receives ``{1}``
keeps ``True``, where the verbatim form keeps ``1``, so traces and get
results print byte-identical only when no two distinct equal values
are added (the experiments and benchmarks add strings).

The blocking ``wait`` of line 11 is realized by the
driver (:func:`run_ms_weakset` / the cluster facade in
:mod:`repro.weakset.cluster`): GIRAF hooks must not block, so the
algorithm exposes ``blocked`` state and the driver advances rounds
until it clears.  One add is in flight per process at a time, exactly
as the blocking API implies; callers queue further adds.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Hashable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import ProtocolMisuse
from repro.giraf.adversary import CrashSchedule
from repro.giraf.automaton import GirafAlgorithm, InboxView
from repro.giraf.environments import Environment, MovingSourceEnvironment
from repro.giraf.scheduler import LockStepScheduler
from repro.giraf.traces import RunTrace
from repro.values import BOTTOM
from repro.weakset.spec import AddRecord, GetRecord, OpLog, WeakSetReport, check_weakset

__all__ = [
    "MSWeakSetAlgorithm",
    "OpScript",
    "VerbatimMSWeakSetAlgorithm",
    "WeakSetRunResult",
    "run_ms_weakset",
]


def _intersect_all(messages: FrozenSet[Hashable]) -> FrozenSet[Hashable]:
    result: Optional[FrozenSet[Hashable]] = None
    for message in messages:
        result = message if result is None else result & message
    return frozenset() if result is None else frozenset(result)


class MSWeakSetAlgorithm(GirafAlgorithm):
    """The per-process automaton of Algorithm 4.

    The weak-set operations are exposed as :meth:`begin_add` /
    :meth:`blocked` / :meth:`get_now`; a driver issues them between
    rounds and watches ``blocked`` to detect add completion.
    """

    def __init__(self) -> None:
        super().__init__()
        self.val: Hashable = BOTTOM                       # line 2
        self.proposed: FrozenSet[Hashable] = frozenset()
        self.written: FrozenSet[Hashable] = frozenset()
        self.block: bool = False                          # line 3
        # line 15's local memory: the messages already folded into
        # PROPOSED, and each slot's size when it was last folded
        self._folded: Set[FrozenSet[Hashable]] = set()
        self._folded_sizes: Dict[int, int] = {}

    # -- weak-set operations (driver-facing) ----------------------------
    def get_now(self) -> FrozenSet[Hashable]:
        """``on get`` (lines 5–6): the local ``PROPOSED``, instantly."""
        return self.proposed

    def begin_add(self, value: Hashable) -> None:
        """``on add(v)`` up to the wait (lines 8–10)."""
        if self.block:
            raise ProtocolMisuse("add while a previous add is still blocked")
        self.proposed = self.proposed | {value}           # line 8
        self.val = value                                  # line 9
        self.block = True                                 # line 10

    @property
    def blocked(self) -> bool:
        """The line-11 wait condition (True while incomplete)."""
        return self.block

    # -- GIRAF hooks -----------------------------------------------------
    def initialize(self) -> FrozenSet[Hashable]:
        return self.proposed                              # line 4

    def compute(self, k: int, inbox: InboxView) -> FrozenSet[Hashable]:
        self.written = _intersect_all(inbox.received(k))  # line 14
        self._fold_proposed(k, inbox)                     # line 15
        if self.val in self.written:                      # line 16
            self.block = False
        return self.proposed                              # line 17

    def _fold_proposed(self, k: int, inbox: InboxView) -> None:
        """Line 15, folding only the slots ``1 ≤ r ≤ k`` that grew
        since their last fold, and only their unseen messages."""
        folded, sizes = self._folded, self._folded_sizes
        fresh: set = set()
        for slot_round, messages in inbox.slots().items():
            if 1 <= slot_round <= k and len(messages) != sizes.get(slot_round, 0):
                sizes[slot_round] = len(messages)
                for message in messages:
                    if message not in folded:
                        folded.add(message)
                        fresh |= message
        if not fresh <= self.proposed:
            self.proposed = self.proposed | fresh

    def snapshot(self) -> Mapping[str, object]:
        return {
            "proposed_size": len(self.proposed),
            "blocked": self.block,
        }


class VerbatimMSWeakSetAlgorithm(MSWeakSetAlgorithm):
    """Algorithm 4 with line 15 as written: every compute re-reads every
    slot through :meth:`InboxView.received_up_to` and flattens each
    message again.  The oracle the tests and the speed floor compare
    :class:`MSWeakSetAlgorithm`'s fold against; no run uses it."""

    def _fold_proposed(self, k: int, inbox: InboxView) -> None:
        merged: set = set()
        for message in inbox.received_up_to(k):
            merged |= message
        self.proposed = frozenset(merged) | self.proposed


#: Script format: tick -> list of operations issued at that tick.
#: ("add", pid, value) starts an add; ("get", pid) performs a get.
OpScript = Dict[int, List[Tuple]]


class WeakSetRunResult:
    """Trace + operation log + spec verdict of one Algorithm-4 run."""

    def __init__(self, trace: RunTrace, log: OpLog, report: WeakSetReport):
        self.trace = trace
        self.log = log
        self.report = report


def run_ms_weakset(
    n: int,
    script: OpScript,
    *,
    environment: Optional[Environment] = None,
    crash_schedule: Optional[CrashSchedule] = None,
    max_rounds: int = 200,
) -> WeakSetRunResult:
    """Run Algorithm 4 under MS with a scripted operation workload.

    Operations scheduled at tick ``t`` are issued right before the
    tick's end-of-rounds, so an add started at ``t`` is broadcast in
    the round-``t`` envelopes.  Adds issued while the process still has
    one in flight are queued and started as soon as the previous one
    completes.  Adds on crashed processes are dropped (recorded as
    never-completed).
    """
    algorithms = [MSWeakSetAlgorithm() for _ in range(n)]
    environment = environment or MovingSourceEnvironment()
    log = OpLog()
    # in-flight adds, retired by swap-pop (O(1), order-free — see
    # ``_retire``); ``current`` is the per-pid membership index.
    in_flight: List[AddRecord] = []
    current: Dict[int, AddRecord] = {}
    queues: Dict[int, Deque[Hashable]] = {pid: deque() for pid in range(n)}

    def issue_ops(tick: int) -> None:
        # complete adds whose block cleared at the *previous* compute
        _retire(in_flight, algorithms, processes, float(tick - 1), current=current)
        # issue this tick's scripted ops, then drain queues
        for op in script.get(tick, ()):
            if op[0] == "add":
                _, pid, value = op
                queues[pid].append(value)
            elif op[0] == "get":
                _, pid = op
                if not processes[pid].crashed:
                    log.gets.append(
                        GetRecord(
                            pid=pid,
                            start=float(tick),
                            end=float(tick),
                            result=algorithms[pid].get_now(),
                        )
                    )
            else:
                raise ProtocolMisuse(f"unknown op {op!r}")
        for pid, queue in queues.items():
            if queue and pid not in current and not processes[pid].crashed:
                value = queue.popleft()
                algorithms[pid].begin_add(value)
                record = AddRecord(pid=pid, value=value, start=float(tick))
                in_flight.append(record)
                current[pid] = record
                log.adds.append(record)

    scheduler = LockStepScheduler(
        algorithms,
        environment,
        crash_schedule,
        max_rounds=max_rounds,
        on_round=issue_ops,
    )
    processes = scheduler.processes
    trace = scheduler.run()

    # Adds whose block cleared on the final tick: conservatively record
    # completion at the end of the run (never earlier than the truth, so
    # no spurious visibility obligations).  Adds still blocked stay
    # incomplete (end=None).
    for record in in_flight:
        if not algorithms[record.pid].blocked and not processes[record.pid].crashed:
            record.end = float(trace.rounds_executed)
    report = check_weakset(log)
    return WeakSetRunResult(trace, log, report)


def _retire(
    in_flight: List[AddRecord],
    algorithms: Sequence[MSWeakSetAlgorithm],
    processes: Sequence[object],
    completion_time: float,
    *,
    current: Optional[Dict[int, AddRecord]] = None,
) -> None:
    """Retire finished in-flight adds by swap-pop.

    A completed (unblocked) add gets its end stamped; a crashed
    process's add is dropped with ``end`` left ``None``.  Retirement
    overwrites the finished slot with the list's last element and pops
    — O(1) per retirement instead of rebuilding the list, the same
    pattern :class:`repro.sharedmem.simulator.SharedMemorySimulator`
    uses for its runnable tasks.  ``current``, when given, is the
    per-pid membership index to keep in sync (the scripted driver uses
    it to serialize one add per process); the cluster facade passes
    none.  Shared by :func:`run_ms_weakset` and
    :class:`repro.weakset.cluster.MSWeakSetCluster`.
    """
    index = 0
    while index < len(in_flight):
        record = in_flight[index]
        if processes[record.pid].crashed:
            pass  # drop: the add never completes
        elif not algorithms[record.pid].blocked:
            record.end = completion_time
        else:
            index += 1
            continue
        if current is not None:
            del current[record.pid]
        last = in_flight.pop()
        if last is not record:
            in_flight[index] = last

"""The runtime kernel: one event core shared by every run engine.

Before this module existed the repo materialized runs through three
disjoint engines — ``LockStepScheduler``, ``DriftingScheduler`` and the
weak-set cluster — each re-implementing process construction, crash and
halt bookkeeping, decision polling, delivery queues, and trace
recording.  The kernel extracts that shared machinery once:

* the **process pool** (:class:`~repro.giraf.automaton.GirafProcess`
  shells, correct set, adversary validation);
* the **trace** plus its pluggable :class:`~repro.runtime.sinks.TraceSink`
  (full events or aggregate counters — see :mod:`repro.runtime.sinks`);
* the **crash/halt lifecycle** (scheduled-crash application, once-only
  halt recording, decision polling);
* the **delivery queues**: a tick-indexed late-delivery map for
  lock-step engines and a continuous-time event queue for event-driven
  ones (a bucketed calendar queue by default, the historical ``heapq``
  selectable — see :mod:`repro.runtime.events`).

Schedulers stay in charge of *ordering* — when rounds fire, how
deliveries interleave — and delegate everything else here, so a fast
path added to the kernel (aggregate sinks, batched flushes) reaches
every engine at once.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ProtocolMisuse, SimulationError
from repro.giraf.adversary import NEVER_DELIVERED, CrashSchedule
from repro.giraf.automaton import GirafAlgorithm, GirafProcess
from repro.giraf.environments import Environment
from repro.giraf.messages import Envelope
from repro.giraf.traces import CrashEvent, DecisionEvent, HaltEvent, RunTrace
from repro.runtime.events import CalendarEventQueue, HeapEventQueue, calendar_width
from repro.runtime.sinks import AggregateTraceSink, FullTraceSink, TraceSink

__all__ = ["RuntimeKernel", "StopPredicate"]

StopPredicate = Callable[[RunTrace], bool]

#: queued late delivery: (receiver, envelope, sender, sent_tick)
QueuedDelivery = Tuple[int, Envelope, int, int]


def check_late_row(
    round_no: int, sender: int, receivers: Sequence[int], delays: Sequence[int]
) -> None:
    """Fail closed on a late delay under one tick, naming the first one.

    Such a delivery would be due in a lock-step tick already flushed
    and never arrive; both lock-step engines raise this one
    :class:`~repro.errors.ProtocolMisuse` instead of dropping it.
    """
    if delays and min(delays) < 1:
        at = next(i for i, delay in enumerate(delays) if delay < 1)
        raise ProtocolMisuse(
            f"round {round_no}: late delay {delays[at]} from sender {sender} "
            f"to receiver {receivers[at]} is under one tick (a lock-step "
            "late delivery lands at least one tick later; it would be lost)"
        )


class RuntimeKernel:
    """Shared state and lifecycle of one simulated run.

    One kernel backs one run of one engine.  Construction performs the
    validation every engine previously duplicated (non-empty process
    set, positive horizon, known trace mode, adversary consistency) and
    builds the process shells; the trace and its sink are created
    lazily on first access so engines can expose a ``trace`` property
    with the same semantics the pre-kernel schedulers had.

    Args:
        algorithms: one :class:`~repro.giraf.automaton.GirafAlgorithm`
            per process (pid = index).
        environment: the MS/ES/ESS environment the engine consults.
        crash_schedule: adversary crash plan (default: failure-free).
        max_rounds: round horizon for the run.
        stop_when: optional early-exit predicate over the trace.
        record_snapshots: forward per-round algorithm snapshots into
            the trace.
        trace_mode: ``"full"`` (event objects, checker-grade) or
            ``"aggregate"`` (running counters only).
        payload_stats: collect per-round payload-size statistics
            (aggregate mode only).
        engine: ``"object"`` (per-process Python objects, the default)
            or ``"columnar"`` (whole rounds as matrix passes over flat
            counter rows, :mod:`repro.runtime.columnar_engine`).  The
            kernel only validates and records the choice; schedulers
            act on it — each builds its matrix engine when the run is
            eligible and runs the object engine otherwise, reporting
            the path taken (``engine_path``) and the reason for a
            fallback (``engine_decline``).  Both engines are pinned
            equivalent (``tests/runtime``), so this is purely a
            representation switch.
        event_queue: ``"calendar"`` (bucketed timing wheel, the
            default — O(1) inserts, bucket width derived from the
            environment's delay bounds) or ``"heap"`` (the historical
            global ``heapq``).  Both drain in exactly ``(time, seq)``
            order, so traces are byte-identical either way
            (equivalence-tested in ``tests/runtime``).

    Example — a kernel owns the process pool and the event plumbing;
    schedulers only decide ordering:

        >>> from repro.giraf.environments import MovingSourceEnvironment
        >>> from repro.weakset.ms_weakset import MSWeakSetAlgorithm
        >>> kernel = RuntimeKernel(
        ...     [MSWeakSetAlgorithm() for _ in range(3)],
        ...     MovingSourceEnvironment(),
        ... )
        >>> len(kernel.processes), sorted(kernel.correct)
        (3, [0, 1, 2])
        >>> kernel.schedule(0.5, "eor", (0, 1))
        >>> kernel.next_event()
        (0.5, 'eor', (0, 1))
        >>> kernel.queue_delivery_row(2, None, sender=0, receivers=[1, 2], delays=[2, 3])
        >>> kernel.due_deliveries(4)
        [(1, None, 0, 2)]
    """

    def __init__(
        self,
        algorithms: Sequence[GirafAlgorithm],
        environment: Environment,
        crash_schedule: Optional[CrashSchedule] = None,
        *,
        max_rounds: int = 200,
        stop_when: Optional[StopPredicate] = None,
        record_snapshots: bool = False,
        trace_mode: str = "full",
        payload_stats: bool = False,
        engine: str = "object",
        event_queue: str = "calendar",
    ):
        if not algorithms:
            raise SimulationError("need at least one process")
        if max_rounds < 1:
            raise SimulationError("max_rounds must be >= 1")
        if trace_mode not in ("full", "aggregate"):
            raise SimulationError(f"unknown trace_mode {trace_mode!r}")
        if engine not in ("object", "columnar"):
            raise SimulationError(f"unknown engine {engine!r}")
        if event_queue not in ("calendar", "heap"):
            raise SimulationError(f"unknown event_queue {event_queue!r}")
        self.algorithms = list(algorithms)
        self.environment = environment
        self.crashes = crash_schedule or CrashSchedule.none()
        self.crashes.validate(len(self.algorithms))
        self.max_rounds = max_rounds
        self.stop_when = stop_when
        self.record_snapshots = record_snapshots
        self.aggregate = trace_mode == "aggregate"
        self.payload_stats = payload_stats and self.aggregate
        self.columnar = engine == "columnar"
        self.processes = [
            GirafProcess(pid, algorithm)
            for pid, algorithm in enumerate(self.algorithms)
        ]
        self.correct = self.crashes.correct_set(len(self.algorithms))
        # (round, phase) -> pids crashing there, in pid order: lets
        # apply_scheduled_crashes skip the all-process scan on the
        # overwhelmingly common crash-free rounds.
        self._crash_phases: Dict[Tuple[int, bool], List[int]] = {}
        for pid in sorted(self.crashes.plans()):
            plan = self.crashes.plan_for(pid)
            self._crash_phases.setdefault(
                (plan.round_no, plan.before_send), []
            ).append(pid)

        self._trace: Optional[RunTrace] = None
        self._sink: Optional[TraceSink] = None
        self._decided: Set[int] = set()
        self._halted_recorded: Set[int] = set()
        # due tick -> queued late deliveries (lock-step engines)
        self._pending: Dict[int, List[QueuedDelivery]] = {}
        # continuous-time event queue (event-driven engines)
        self.event_queue = event_queue
        self._events = (
            HeapEventQueue()
            if event_queue == "heap"
            else CalendarEventQueue(calendar_width(environment))
        )
        self._seq = itertools.count()

    # ------------------------------------------------------------------
    # trace + sink
    # ------------------------------------------------------------------
    @property
    def trace(self) -> RunTrace:
        """The trace being built (created lazily on first access)."""
        if self._trace is None:
            self._trace = RunTrace(
                n=len(self.processes),
                correct=self.correct,
                aggregate=self.aggregate,
                payload_stats=self.payload_stats,
            )
            for pid, algorithm in enumerate(self.algorithms):
                value = getattr(algorithm, "initial_value", None)
                if value is not None:
                    self._trace.initial_values[pid] = value
        return self._trace

    @property
    def sink(self) -> TraceSink:
        """The run's trace sink (full or aggregate, per ``trace_mode``)."""
        if self._sink is None:
            trace = self.trace
            self._sink = (
                AggregateTraceSink(trace) if self.aggregate else FullTraceSink(trace)
            )
        return self._sink

    # ------------------------------------------------------------------
    # crash / halt / decision lifecycle
    # ------------------------------------------------------------------
    def poll_decision(self, proc: GirafProcess, time: float) -> None:
        """Record a decision if the algorithm exposes one (duck-typed)."""
        if proc.pid in self._decided:
            return
        decision = getattr(proc.algorithm, "decision", None)
        if decision is None:
            return
        round_no = getattr(proc.algorithm, "decision_round", None)
        self.trace.decisions.append(
            DecisionEvent(
                pid=proc.pid,
                value=decision,
                round_no=round_no if round_no is not None else proc.round,
                time=time,
            )
        )
        self._decided.add(proc.pid)

    def crash(
        self, proc: GirafProcess, round_no: int, time: float, *, before_send: bool
    ) -> None:
        """Crash ``proc`` and record the event."""
        proc.crash()
        self.trace.crashes.append(
            CrashEvent(
                pid=proc.pid, round_no=round_no, time=time, before_send=before_send
            )
        )

    def apply_scheduled_crashes(
        self, round_no: int, time: float, *, before_send: bool
    ) -> None:
        """Apply every crash the adversary scheduled for this phase."""
        pids = self._crash_phases.get((round_no, before_send))
        if not pids:
            return
        for pid in pids:
            proc = self.processes[pid]
            if proc.crashed or proc.halted:
                continue
            self.crash(proc, round_no, time, before_send=before_send)

    def record_halt(self, proc: GirafProcess, round_no: int, time: float) -> None:
        """Record a halt exactly once per process."""
        if proc.pid in self._halted_recorded:
            return
        self.trace.halts.append(HaltEvent(pid=proc.pid, round_no=round_no, time=time))
        self._halted_recorded.add(proc.pid)

    def any_active(self) -> bool:
        """True while at least one process still takes steps."""
        return any(proc.active for proc in self.processes)

    def stop_requested(self) -> bool:
        """True when the engine's early-exit predicate fires."""
        return self.stop_when is not None and self.stop_when(self.trace)

    # ------------------------------------------------------------------
    # delivery queues
    # ------------------------------------------------------------------
    def queue_delivery_row(
        self,
        tick: int,
        envelope: Envelope,
        sender: int,
        receivers: Sequence[int],
        delays: Sequence[int],
    ) -> None:
        """Queue one broadcast's late deliveries from a delay row.

        ``delays[i]`` ticks for ``receivers[i]``: a queued entry is
        ``(receiver, envelope, sender, tick)``, due at ``tick +
        delays[i]``.  Entries due past the horizon or carrying the
        never-delivered sentinel are dropped (reliability only promises
        *eventual* delivery, which a finite run prefix cannot refute).
        Queue order follows row order.  A delay under one tick raises
        (see :func:`check_late_row`).
        """
        check_late_row(tick, sender, receivers, delays)
        pending = self._pending
        max_rounds = self.max_rounds
        for receiver, delay in zip(receivers, delays):
            due = tick + delay
            if due <= max_rounds and delay < NEVER_DELIVERED:
                pending.setdefault(due, []).append(
                    (receiver, envelope, sender, tick)
                )

    def due_deliveries(self, tick: int) -> Sequence[QueuedDelivery]:
        """Pop (and return) the deliveries due at ``tick``."""
        return self._pending.pop(tick, ())

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------
    def schedule(self, time: float, kind: str, data: tuple) -> None:
        """Push a continuous-time event; FIFO among equal times."""
        self._events.push((time, next(self._seq), kind, data))

    def next_event(self) -> Tuple[float, str, tuple]:
        """Pop the earliest event as ``(time, kind, data)``."""
        time, _, kind, data = self._events.pop()
        return time, kind, data

    def has_events(self) -> bool:
        """True while the event queue is non-empty."""
        return bool(self._events)

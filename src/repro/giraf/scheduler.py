"""Schedulers: drive GIRAF automata through an environment.

Two schedulers are provided; both are thin *ordering* layers over the
shared :class:`~repro.runtime.kernel.RuntimeKernel` (process pool,
crash/halt lifecycle, delivery queues, pluggable trace sinks), so every
kernel fast path — aggregate traces, batched late flushes, vectorized
link planning — applies to both.

:class:`LockStepScheduler`
    All processes fire their ``end-of-round`` together at integer
    ticks.  Deliveries either happen within the tick (timely) or are
    queued for a later tick (late).  This is the workhorse for the
    benchmarks: fast, fully deterministic, and sufficient because the
    paper's environment properties are exactly about per-round
    timeliness, not about real time.

:class:`DriftingScheduler`
    An event-driven scheduler in continuous time where processes run at
    different speeds, so local rounds genuinely drift apart and late
    messages land in old round slots while a process is several rounds
    ahead.  The environment's obligations are enforced by *gating*: a
    process may not execute ``compute(k, ·)`` until the obligatory
    round-``k`` envelopes have reached it (in GIRAF terms, the
    environment simply schedules ``end-of-round`` after the relevant
    ``receive`` actions — the environment controls both).

Both produce the same :class:`~repro.giraf.traces.RunTrace` format,
both accept ``trace_mode="aggregate"`` for the counter-only fast path,
and both compute every delivery's *timely* flag from ground truth (did
it land before the receiver's ``compute(k, ·)``?) so the checkers in
:mod:`repro.giraf.checkers` validate the schedulers as much as the
algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import SimulationError
from repro.giraf.adversary import NEVER_DELIVERED, CrashSchedule
from repro.giraf.automaton import GirafAlgorithm, GirafProcess
from repro.giraf.environments import Environment
from repro.giraf.messages import Envelope
from repro.giraf.traces import RunTrace
from repro.runtime.kernel import RuntimeKernel, StopPredicate

__all__ = ["LockStepScheduler", "DriftingScheduler"]

RoundHook = Callable[[int], None]


class LockStepScheduler:
    """Synchronized global rounds with controlled per-message lateness.

    Tick ``t`` (``t = 1, 2, …``):

    1. flush late deliveries due at ``t`` (batched: one merged set
       union per receiver and round slot);
    2. apply before-send crashes scheduled for round ``t``;
    3. every active process fires its ``end-of-round`` (entering round
       ``t`` and executing ``compute(t-1, ·)`` for ``t ≥ 2``);
    4. apply after-send crashes scheduled for round ``t``;
    5. ask the environment for the round plan — one ``plan_round`` call
       plus one vectorized ``plan_round_links`` call — and deliver:
       obligatory (and lucky extra) links within the tick, the rest
       queued with the environment's delay.

    ``max_rounds`` bounds the number of ticks.

    ``trace_mode`` selects the trace's fidelity.  ``"full"`` (default)
    records every send and delivery as an event object — required by
    the ground-truth environment checkers.  ``"aggregate"`` keeps only
    running counters (plus per-round payload statistics when
    ``payload_stats=True``), skipping event construction entirely; the
    metrics an experiment table consumes are identical in both modes
    (equivalence-tested), at a fraction of the allocation cost.

    ``on_round`` is an optional hook called with the tick number right
    before the tick's end-of-rounds fire — the injection point drivers
    (the weak-set facades) use to issue application operations so they
    ride in that round's envelopes.

    ``engine="columnar"`` runs the whole tick as matrix operations
    (:class:`~repro.runtime.columnar_engine.ColumnarLockStepEngine` —
    no per-envelope Python objects at all) when the run allows it:
    aggregate traces, no ``on_round`` hook, and stock heartbeat
    pseudo-leaders or stock Algorithm 3
    (:class:`~repro.core.ess_consensus.ESSConsensus`, which
    additionally needs numpy, no snapshots or payload statistics,
    all-``int`` or all-``str`` proposals and a pure per-link link
    policy).  Any other run takes the object engine.  Either way the
    produced trace and final algorithm views are pinned identical to
    the object engine (``tests/runtime``).  :attr:`engine_path` says
    which path ran (``"matrix-lockstep"`` or ``"object"``) and
    :attr:`engine_decline` why a columnar request did not engage.
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
        on_round: Optional[RoundHook] = None,
    ):
        self._kernel = RuntimeKernel(
            algorithms,
            environment,
            crash_schedule,
            max_rounds=max_rounds,
            stop_when=stop_when,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            payload_stats=payload_stats,
            engine=engine,
        )
        self._environment = environment
        self._record_snapshots = record_snapshots
        self._on_round = on_round
        self.processes = self._kernel.processes
        self._tick = 0
        self._columnar_engine = None
        #: why ``engine="columnar"`` fell back to the object engine
        self.engine_decline: Optional[str] = None
        if self._kernel.columnar:
            from repro.runtime.columnar_engine import ColumnarLockStepEngine

            self._columnar_engine, self.engine_decline = (
                ColumnarLockStepEngine.try_build(
                    self._kernel,
                    environment,
                    record_snapshots=record_snapshots,
                    on_round=on_round,
                )
            )

    @property
    def engine_path(self) -> str:
        """``"matrix-lockstep"`` or ``"object"``: the engine this run takes."""
        return "object" if self._columnar_engine is None else "matrix-lockstep"

    @property
    def trace(self) -> RunTrace:
        """The trace being built (created lazily on first access)."""
        return self._kernel.trace

    @property
    def now(self) -> float:
        """The current tick as simulated time."""
        return float(self._tick)

    def step(self) -> bool:
        """Advance one tick; return False once the run is over.

        Exposed so synchronous facades (e.g. the weak-set cluster) can
        interleave application operations with round advancement.
        """
        kernel = self._kernel
        if self._tick >= kernel.max_rounds:
            return False
        trace = kernel.trace
        self._tick += 1
        tick = self._tick
        if self._columnar_engine is not None:
            return self._columnar_engine.step(tick)
        self._flush_late(trace, tick)
        kernel.apply_scheduled_crashes(tick, float(tick), before_send=True)

        envelopes = self._fire_round(trace, tick)
        kernel.apply_scheduled_crashes(tick, float(tick), before_send=False)
        self._deliver(trace, tick, envelopes)

        if not kernel.any_active():
            return False
        if kernel.stop_requested():
            return False
        return True

    def run(self) -> RunTrace:
        while self.step():
            pass
        if self._columnar_engine is not None:
            # Materialize final algorithm views (history / counters /
            # leader flags / process rounds) out of the matrices, so a
            # finished run is externally indistinguishable from the
            # object engine's.
            self._columnar_engine.finalize()
        return self.trace

    # ------------------------------------------------------------------
    def _flush_late(self, trace: RunTrace, tick: int) -> None:
        kernel = self._kernel
        due = kernel.due_deliveries(tick)
        if not due:
            return
        sink = kernel.sink
        processes = self.processes
        # Batched application: several late envelopes landing in the
        # same (receiver, round) slot this tick merge into one set
        # union.  The per-link events below are unchanged — the timely
        # flag reads ``has_computed``, which no receive can move.
        merged: Dict[tuple, set] = {}
        for receiver, envelope, sender, sent_tick in due:
            proc = processes[receiver]
            timely = not proc.has_computed(envelope.round_no)
            if proc.active:
                slot = merged.get((receiver, envelope.round_no))
                if slot is None:
                    merged[(receiver, envelope.round_no)] = set(envelope.payload)
                else:
                    slot |= envelope.payload
            sink.delivery(
                sender,
                receiver,
                envelope.round_no,
                float(sent_tick),
                float(tick),
                timely and proc.active,
            )
        for (receiver, round_no), values in merged.items():
            processes[receiver].receive_values(round_no, values)

    def _fire_round(self, trace: RunTrace, tick: int) -> Dict[int, Envelope]:
        kernel = self._kernel
        sink = kernel.sink
        if self._on_round is not None:
            self._on_round(tick)
        envelopes: Dict[int, Envelope] = {}
        for proc in self.processes:
            if not proc.active:
                continue
            envelope = proc.end_of_round()
            if tick >= 2:
                trace.record_compute(proc.pid, tick - 1, float(tick))
                if self._record_snapshots:
                    trace.record_snapshot(proc.pid, tick - 1, proc.algorithm.snapshot())
            kernel.poll_decision(proc, float(tick))
            if envelope is None:
                # the algorithm halted during compute (decide; halt)
                kernel.record_halt(proc, proc.round, float(tick))
                continue
            trace.record_round_entry(proc.pid, envelope.round_no, float(tick))
            sink.send(proc.pid, envelope.round_no, float(tick), envelope.payload)
            envelopes[proc.pid] = envelope
        return envelopes

    def _deliver(
        self,
        trace: RunTrace,
        tick: int,
        envelopes: Dict[int, Envelope],
    ) -> None:
        if not envelopes:
            return
        kernel = self._kernel
        sink = kernel.sink
        # Processes fire in pid order, so the envelope dict's keys are
        # already sorted — no per-tick re-sort needed.
        correct_senders = [pid for pid in envelopes if pid in kernel.correct]
        candidates = correct_senders or list(envelopes)
        plan = self._environment.plan_round(tick, candidates)
        if plan.source is not None:
            trace.declared_sources[tick] = plan.source

        wants_events = sink.wants_events
        receivers = [proc for proc in self.processes if proc.active]

        # Batch the round's obligatory broadcasts: payload merging is an
        # idempotent set union (and lock-step envelopes share one round
        # number), so one merged update per receiver replaces one
        # ``receive`` per link.  Event recording below is unchanged.
        obligatory_envelopes = [
            envelopes[sender] for sender in envelopes if sender in plan.obligatory
        ]
        if obligatory_envelopes:
            if len(obligatory_envelopes) == 1:
                merged_values = obligatory_envelopes[0].payload
            else:
                merged_values = frozenset().union(
                    *(envelope.payload for envelope in obligatory_envelopes)
                )
            round_no = obligatory_envelopes[0].round_no
            for proc in receivers:
                # A receiver's own payload may ride in the union; its
                # slot already contains it, so the merge is a no-op there.
                proc.receive_values(round_no, merged_values)

        if not wants_events:
            # Obligatory links: count deliveries arithmetically (the
            # state was applied above; crashed receivers are already
            # filtered, so no event objects exist to construct).
            receiver_ids = {proc.pid for proc in receivers}
            for sender in envelopes:
                if sender in plan.obligatory:
                    sink.bulk_deliveries(
                        len(receivers) - (1 if sender in receiver_ids else 0)
                    )

        # One vectorized environment call covers every non-obligatory
        # link of the round (replacing O(n²) ``extra_timely`` calls).
        extra_senders = [pid for pid in envelopes if pid not in plan.obligatory]
        link_rows: Dict[int, List[bool]] = {}
        if extra_senders and receivers:
            link_rows = self._environment.plan_round_links(
                tick, extra_senders, [proc.pid for proc in receivers]
            )

        for sender, envelope in envelopes.items():
            obligatory = sender in plan.obligatory
            if obligatory and not wants_events:
                continue
            row = None if obligatory else link_rows.get(sender)
            late: List[int] = []
            for index, proc in enumerate(receivers):
                if proc.pid == sender:
                    continue
                if obligatory:
                    sink.delivery(
                        sender,
                        proc.pid,
                        envelope.round_no,
                        float(tick),
                        float(tick),
                        True,
                    )
                elif row is not None and row[index]:
                    proc.receive(envelope)
                    sink.delivery(
                        sender,
                        proc.pid,
                        envelope.round_no,
                        float(tick),
                        float(tick),
                        True,
                    )
                else:
                    late.append(proc.pid)
            if late:
                # One vectorized delay row per broadcast (identical
                # values to per-link draws — the row stays keyed per
                # link), consumed row-wise by the kernel's late queue.
                delays = self._environment.delay_ticks_row(tick, sender, late)
                kernel.queue_delivery_row(tick, envelope, sender, late, delays)


class _Gate:
    """Round-``k`` obligations a process must receive before computing ``k``."""

    __slots__ = ("round_no", "awaiting")

    def __init__(self, round_no: int, awaiting: Set[int]):
        self.round_no = round_no
        self.awaiting = awaiting


class DriftingScheduler:
    """Continuous-time scheduler with per-process speeds and gating.

    Each process ``p`` nominally fires its ``t``-th ``end-of-round`` at
    ``phase[p] + t * period[p]``.  Before executing ``compute(k, ·)``
    (its ``(k+1)``-th end-of-round) it must have received the round-``k``
    envelopes of the environment's obligatory senders for round ``k``;
    if they have not arrived, the end-of-round is postponed until they
    do — GIRAF's environment controls ``end-of-round``, so holding it
    back is exactly how a constructive environment realizes its own
    timeliness promises.

    Obligations are planned lazily per round and re-planned when an
    obligatory sender halts or crashes before sending that round (the
    replacement is an active correct process that has not passed the
    round yet; see DESIGN.md §4 on halting).

    Link timeliness is planned **once per round** through the
    environment's vectorized ``plan_round_links`` (the per-round matrix
    is cached, since link policies are deterministic per link), and the
    per-broadcast latencies come from the vectorized
    ``timely_latencies``/``late_latencies`` — the values are identical
    to per-link calls, without the per-link Python dispatch.

    ``trace_mode="aggregate"`` (with optional ``payload_stats``) runs
    the same counter-only fast path as the lock-step scheduler: no
    ``SendEvent``/``DeliveryEvent`` objects, identical metrics
    (equivalence-tested in ``tests/runtime``).

    ``event_queue`` selects the kernel's continuous-time event core:
    ``"calendar"`` (the default bucketed queue — O(1) delivery
    inserts) or ``"heap"`` (the historical global ``heapq``).  Both
    drain in identical ``(time, seq)`` order, so the produced traces
    are byte-identical (pinned in ``tests/runtime``).

    ``engine="columnar"`` runs the whole event loop as masked matrix
    passes when the regime allows it
    (:class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine` —
    aggregate traces without payload statistics, stock heartbeat
    pseudo-leaders, stock latency draws); anything else runs the
    object loop.  Either way the traces and final views are pinned
    identical to the object engine (``tests/runtime``).
    :attr:`engine_path` says which path ran (``"matrix-drifting"`` or
    ``"object"``) and :attr:`engine_decline` why a columnar request
    did not engage.
    """

    def __init__(
        self,
        algorithms: Sequence[GirafAlgorithm],
        environment: Environment,
        crash_schedule: Optional[CrashSchedule] = None,
        *,
        periods: Optional[Sequence[float]] = None,
        phases: Optional[Sequence[float]] = None,
        max_rounds: int = 200,
        stop_when: Optional[StopPredicate] = None,
        record_snapshots: bool = False,
        trace_mode: str = "full",
        payload_stats: bool = False,
        engine: str = "object",
        event_queue: str = "calendar",
    ):
        self._kernel = RuntimeKernel(
            algorithms,
            environment,
            crash_schedule,
            max_rounds=max_rounds,
            stop_when=stop_when,
            record_snapshots=record_snapshots,
            trace_mode=trace_mode,
            payload_stats=payload_stats,
            engine=engine,
            event_queue=event_queue,
        )
        self._environment = environment
        self._record_snapshots = record_snapshots
        self.processes = self._kernel.processes
        n = len(self.processes)
        if periods is None:
            periods = [1.0 + 0.13 * pid for pid in range(n)]
        if phases is None:
            phases = [0.01 * pid for pid in range(n)]
        if len(periods) != n or len(phases) != n:
            raise SimulationError("periods/phases must match the process count")
        if any(p <= 0 for p in periods):
            raise SimulationError("periods must be positive")
        self._periods = list(periods)
        self._phases = list(phases)
        self._columnar_engine = None
        #: why ``engine="columnar"`` fell back to the object engine
        self.engine_decline: Optional[str] = None
        if self._kernel.columnar:
            from repro.runtime.columnar_engine import ColumnarDriftingEngine

            self._columnar_engine, self.engine_decline = (
                ColumnarDriftingEngine.try_build(
                    self._kernel,
                    environment,
                    periods=self._periods,
                    phases=self._phases,
                    record_snapshots=record_snapshots,
                )
            )

    @property
    def engine_path(self) -> str:
        """``"matrix-drifting"`` or ``"object"``: the engine this run takes."""
        return "object" if self._columnar_engine is None else "matrix-drifting"

    @property
    def trace(self) -> RunTrace:
        """The trace being built (created lazily on first access)."""
        return self._kernel.trace

    # ------------------------------------------------------------------
    def run(self) -> RunTrace:
        if self._columnar_engine is not None:
            trace = self._columnar_engine.run()
            self._columnar_engine.finalize()
            return trace
        kernel = self._kernel
        trace = kernel.trace
        sink = kernel.sink
        n = len(self.processes)
        all_pids = list(range(n))
        # round -> set of obligatory sender pids (mutable, re-plannable)
        obligations: Dict[int, Set[int]] = {}
        declared: Dict[int, int] = {}
        # round -> vectorized link-timeliness matrix (deterministic per
        # link, so planning the whole round once is exact)
        link_matrices: Dict[int, Dict[int, List[bool]]] = {}
        # pid -> _Gate when the process is parked waiting for obligations
        waiting: Dict[int, _Gate] = {}
        # pid -> rounds for which each obligatory envelope has arrived
        received_from_obligatory: Dict[int, Dict[int, Set[int]]] = {
            pid: {} for pid in range(n)
        }
        stopped = False

        def nominal_time(pid: int, invocation: int) -> float:
            return self._phases[pid] + invocation * self._periods[pid]

        def plan_obligations(round_no: int) -> Set[int]:
            """Plan (or fetch) the obligatory senders of ``round_no``."""
            if round_no in obligations:
                return obligations[round_no]
            candidates = sorted(
                proc.pid
                for proc in self.processes
                if proc.active and proc.pid in trace.correct and proc.round <= round_no
            )
            if not candidates:
                candidates = sorted(
                    proc.pid for proc in self.processes if proc.active
                )
            if not candidates:
                obligations[round_no] = set()
                return obligations[round_no]
            plan = self._environment.plan_round(round_no, candidates)
            obligations[round_no] = set(plan.obligatory)
            if plan.source is not None:
                declared[round_no] = plan.source
                trace.declared_sources.setdefault(round_no, plan.source)
            return obligations[round_no]

        def link_row(round_no: int, sender: int) -> List[bool]:
            matrix = link_matrices.get(round_no)
            if matrix is None:
                matrix = self._environment.plan_round_links(
                    round_no, all_pids, all_pids
                )
                link_matrices[round_no] = matrix
                # A round's matrix is dead once every process that can
                # still broadcast has passed it; evict so long-horizon
                # (especially aggregate) runs stay bounded.
                horizon = min(
                    (proc.round for proc in self.processes if proc.active),
                    default=round_no,
                )
                for stale in [k for k in link_matrices if k < horizon]:
                    del link_matrices[stale]
            return matrix[sender]

        def gate_satisfied(pid: int, round_no: int) -> bool:
            if round_no < 1:
                return True
            needed = plan_obligations(round_no)
            got = received_from_obligatory[pid].get(round_no, set())
            return all(s == pid or s in got for s in needed)

        def replan_after_exit(exited: int, now: float) -> None:
            """Drop an exited process from unfulfilled obligations."""
            exited_round = self.processes[exited].round
            for round_no, needed in list(obligations.items()):
                if exited in needed and exited_round < round_no:
                    needed.discard(exited)
                    if not needed:
                        candidates = sorted(
                            proc.pid
                            for proc in self.processes
                            if proc.active
                            and proc.pid in trace.correct
                            and proc.round <= round_no
                        )
                        if candidates:
                            plan = self._environment.plan_round(round_no, candidates)
                            needed.update(plan.obligatory)
                            if plan.source is not None:
                                declared[round_no] = plan.source
            release_waiters(now)

        def release_waiter(pid: int, gate: _Gate, now: float) -> None:
            """Release one parked process if its gate is now satisfied."""
            if gate_satisfied(pid, gate.round_no):
                del waiting[pid]
                invocation = gate.round_no + 1
                when = nominal_time(pid, invocation)
                if when < now:
                    when = now
                kernel.schedule(when, "eor", (pid, invocation))

        def release_waiters(now: float) -> None:
            """Re-check every parked gate (obligations were re-planned)."""
            for pid, gate in list(waiting.items()):
                release_waiter(pid, gate, now)

        def broadcast(proc: GirafProcess, envelope: Envelope, now: float) -> None:
            round_no = envelope.round_no
            needed = plan_obligations(round_no)
            obligatory = proc.pid in needed
            receivers = [
                other.pid for other in self.processes if other.pid != proc.pid
            ]
            if obligatory:
                timely_targets, late_targets = receivers, []
            else:
                row = link_row(round_no, proc.pid)
                timely_targets, late_targets = [], []
                for other_pid in receivers:
                    if row[other_pid]:
                        timely_targets.append(other_pid)
                    else:
                        late_targets.append(other_pid)
            latencies = dict(
                zip(
                    timely_targets,
                    self._environment.timely_latencies(
                        round_no, proc.pid, timely_targets
                    ),
                )
            )
            latencies.update(
                zip(
                    late_targets,
                    self._environment.late_latencies(round_no, proc.pid, late_targets),
                )
            )
            for other_pid in receivers:
                latency = latencies[other_pid]
                if latency >= NEVER_DELIVERED:
                    continue
                kernel.schedule(
                    now + latency,
                    "deliver",
                    (proc.pid, other_pid, envelope, now),
                )

        # seed the first end-of-round of every process
        for pid in range(n):
            kernel.schedule(nominal_time(pid, 1), "eor", (pid, 1))

        while kernel.has_events() and not stopped:
            now, kind, data = kernel.next_event()
            if kind == "deliver":
                sender, receiver, envelope, sent_time = data
                proc = self.processes[receiver]
                timely = proc.active and not proc.has_computed(envelope.round_no)
                if proc.active:
                    proc.receive(envelope)
                    received_from_obligatory[receiver].setdefault(
                        envelope.round_no, set()
                    ).add(sender)
                sink.delivery(
                    sender, receiver, envelope.round_no, sent_time, now, timely
                )
                # Only the receiver's gate — and only for this
                # envelope's round — can have become satisfied by this
                # delivery; every other parked gate is untouched, so
                # the old full scan of ``waiting`` was pure overhead
                # (the dominant cost of large drifting runs).
                gate = waiting.get(receiver)
                if gate is not None and gate.round_no == envelope.round_no:
                    release_waiter(receiver, gate, now)
                continue

            pid, invocation = data
            proc = self.processes[pid]
            if not proc.active or proc.round != invocation - 1:
                continue
            if invocation > kernel.max_rounds:
                continue

            crash_plan = kernel.crashes.plan_for(pid)
            if (
                crash_plan is not None
                and crash_plan.round_no == invocation
                and crash_plan.before_send
            ):
                kernel.crash(proc, invocation, now, before_send=True)
                replan_after_exit(pid, now)
                continue

            computing = invocation - 1
            if computing >= 1 and not gate_satisfied(pid, computing):
                waiting[pid] = _Gate(
                    computing,
                    set(plan_obligations(computing)),
                )
                continue

            envelope = proc.end_of_round()
            if computing >= 1:
                trace.record_compute(pid, computing, now)
                if self._record_snapshots:
                    trace.record_snapshot(pid, computing, proc.algorithm.snapshot())
            kernel.poll_decision(proc, now)
            if envelope is None:
                kernel.record_halt(proc, proc.round, now)
                replan_after_exit(pid, now)
            else:
                trace.record_round_entry(pid, envelope.round_no, now)
                sink.send(pid, envelope.round_no, now, envelope.payload)
                broadcast(proc, envelope, now)
                if (
                    crash_plan is not None
                    and crash_plan.round_no == invocation
                    and not crash_plan.before_send
                ):
                    kernel.crash(proc, invocation, now, before_send=False)
                    replan_after_exit(pid, now)
                else:
                    kernel.schedule(
                        nominal_time(pid, invocation + 1), "eor", (pid, invocation + 1)
                    )

            if kernel.stop_requested():
                stopped = True
            if not kernel.any_active():
                stopped = True
        return trace

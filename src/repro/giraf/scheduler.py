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
    ``receive`` actions — the environment controls both).  One
    :class:`DriftingLoop` holds that ordering — planning, gating,
    re-planning and dispatch — for both engines: the object path and
    the matrix engine plug in how processes fire and how deliveries
    land.

Both produce the same :class:`~repro.giraf.traces.RunTrace` format,
both accept ``trace_mode="aggregate"`` for the counter-only fast path,
and both compute every delivery's *timely* flag from ground truth (did
it land before the receiver's ``compute(k, ·)``?) so the checkers in
:mod:`repro.giraf.checkers` validate the schedulers as much as the
algorithms.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import SimulationError
from repro.giraf.adversary import NEVER_DELIVERED, CrashSchedule
from repro.giraf.automaton import GirafAlgorithm
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


def _bitmask(pids) -> int:
    """One bit per pid."""
    mask = 0
    for pid in pids:
        mask |= 1 << pid
    return mask


class DriftingLoop:
    """The drifting scheduler's event loop: planning, gating and dispatch.

    One loop drives one :class:`DriftingScheduler` run, whichever path
    holds the processes' state.  The loop decides the ordering; a
    *path* computes and delivers:

    * the object path (:class:`_ObjectPath`): each process's
      ``end_of_round`` and one ``deliver`` event per envelope and link;
    * the matrix path
      (:class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine`):
      row computes, one ``cdel`` event per timely link and one ``cbat``
      event per batch of late links sharing a latency.

    A path provides ``fire(pid, invocation, now)`` — the end-of-round,
    its trace records and the broadcast's delivery events, ``False``
    when the process halted instead of sending — plus ``handlers``
    (delivery event kind → ``handler(now, data)``) and
    ``evict(horizon)``, which drops its per-round state below the
    lowest active round.  Its broadcasts ask the loop for the round's
    obligations (:meth:`plan`) and link plan (:meth:`link_row`), and its
    handlers report through :meth:`arrived` the receivers an envelope
    reached before they computed its round.

    The loop keeps, for the run:

    * ``rounds`` and ``active``: per process, the invocations fired so
      far (``proc.round`` on the object path) and whether it still
      takes steps;
    * the obligation memo: round → bitmask of its obligatory senders,
      planned once by ``plan_round`` and never evicted, so a re-plan
      after a crash or halt walks every planned round;
    * per planned round, evicted below the lowest active round: the
      link plan (its ``plan_round_links`` matrix); per sender, the
      bitmask of the receivers its envelope reached in time, so a batch
      of receivers is one mask update; and per receiver, the bitmask
      of the obligatory senders among those, so a gate probe is one
      mask test (a re-plan folds in the new senders' past arrivals);
    * the parked processes: pid → the round whose obligations it waits
      for.  A gate is satisfied when every obligatory sender but the
      process itself has reached it.
    """

    def __init__(
        self,
        kernel: RuntimeKernel,
        environment: Environment,
        periods: Sequence[float],
        phases: Sequence[float],
    ):
        self.kernel = kernel
        self.environment = environment
        self._periods = periods
        self._phases = phases
        n = len(kernel.processes)
        self.pids = list(range(n))
        self.rounds = [0] * n
        self.active = [proc.active for proc in kernel.processes]
        self._active_count = sum(self.active)
        self._correct = kernel.correct
        self._obligations: Dict[int, int] = {}
        self._links: Dict[int, Dict[int, List[bool]]] = {}
        self._reached: Dict[int, List[int]] = {}
        self._held: Dict[int, List[int]] = {}
        self._waiting: Dict[int, int] = {}
        self._path = None

    def _nominal(self, pid: int, invocation: int) -> float:
        return self._phases[pid] + invocation * self._periods[pid]

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------
    def _candidates(self, round_no: int) -> List[int]:
        """Active correct processes not yet past ``round_no``."""
        active, rounds, correct = self.active, self.rounds, self._correct
        return [
            pid
            for pid in self.pids
            if active[pid] and pid in correct and rounds[pid] <= round_no
        ]

    def plan(self, round_no: int) -> int:
        """The obligatory senders of ``round_no``, as a bitmask.

        Planned on first use over the active correct processes not yet
        past the round (every active process when there is none), and
        memoized for the run.  Planning a round opens its gates and
        evicts the rounds every active process has passed.
        """
        needed = self._obligations.get(round_no)
        if needed is None:
            candidates = self._candidates(round_no) or [
                pid for pid in self.pids if self.active[pid]
            ]
            needed = 0
            if candidates:
                plan = self.environment.plan_round(round_no, candidates)
                needed = _bitmask(plan.obligatory)
                if plan.source is not None:
                    self.kernel.trace.declared_sources.setdefault(
                        round_no, plan.source
                    )
            self._obligations[round_no] = needed
            self._reached[round_no] = [0] * len(self.pids)
            self._held[round_no] = [0] * len(self.pids)
            self._evict()
        return needed

    def link_row(self, round_no: int, sender: int) -> List[bool]:
        """Which receivers (by pid) a non-obligatory broadcast from
        ``sender`` reaches in time.  Link policies are deterministic per
        link, so one ``plan_round_links`` call plans the whole round."""
        matrix = self._links.get(round_no)
        if matrix is None:
            matrix = self._links[round_no] = self.environment.plan_round_links(
                round_no, self.pids, self.pids
            )
        return matrix[sender]

    def _evict(self) -> None:
        """Drop the per-round state of rounds every active process has
        passed: no process computes them again."""
        active = self.active
        horizon = min(
            (round_no for pid, round_no in enumerate(self.rounds) if active[pid]),
            default=None,
        )
        if horizon is None:
            return
        for store in (self._links, self._reached, self._held):
            for stale in [round_no for round_no in store if round_no < horizon]:
                del store[stale]
        self._path.evict(horizon)

    # ------------------------------------------------------------------
    # gating
    # ------------------------------------------------------------------
    def satisfied(self, pid: int, round_no: int) -> bool:
        """Have the obligatory round-``round_no`` envelopes reached ``pid``?"""
        needed = self._obligations.get(round_no)
        if needed is None:
            needed = self.plan(round_no)
        return not needed & ~(self._held[round_no][pid] | 1 << pid)

    def arrived(
        self,
        round_no: int,
        sender: int,
        receivers: Sequence[int],
        mask: int,
        now: float,
    ) -> None:
        """``sender``'s round-``round_no`` envelope reached ``receivers``
        (active and not yet past the round, ascending; ``mask`` is their
        bitmask): record it, and release a parked receiver it completes."""
        self._reached[round_no][sender] |= mask
        bit = 1 << sender
        # only an obligatory sender moves a gate
        if self._obligations[round_no] & bit:
            held = self._held[round_no]
            waiting = self._waiting
            for pid in receivers:
                held[pid] |= bit
                if waiting.get(pid) == round_no:
                    self._release(pid, round_no, now)

    def _release(self, pid: int, round_no: int, now: float) -> None:
        """Schedule parked ``pid``'s end-of-round once its gate is
        satisfied: at its nominal time, or now if that has passed."""
        if self.satisfied(pid, round_no):
            del self._waiting[pid]
            when = self._nominal(pid, round_no + 1)
            if when < now:
                when = now
            self.kernel.schedule(when, "eor", (pid, round_no + 1))

    def _exit(self, pid: int, now: float) -> None:
        """``pid`` crashed or halted.  It sends nothing more, so drop it
        from the obligations of every round it has not sent, re-plan any
        round that leaves with none, and re-probe every parked gate."""
        self.active[pid] = False
        self._active_count -= 1
        bit = 1 << pid
        exited_round = self.rounds[pid]
        obligations = self._obligations
        for round_no, needed in list(obligations.items()):
            if needed & bit and exited_round < round_no:
                needed &= ~bit
                if not needed:
                    candidates = self._candidates(round_no)
                    if candidates:
                        needed = _bitmask(
                            self.environment.plan_round(
                                round_no, candidates
                            ).obligatory
                        )
                        self._hold(round_no, needed)
                obligations[round_no] = needed
        for waiter, round_no in list(self._waiting.items()):
            self._release(waiter, round_no, now)

    def _hold(self, round_no: int, senders: int) -> None:
        """Fold the past arrivals of newly obligatory ``senders`` into
        the round's gates (none left to fold once the round is evicted)."""
        held = self._held.get(round_no)
        if held is None:
            return
        reached = self._reached[round_no]
        for sender in self.pids:
            if senders >> sender & 1:
                bit = 1 << sender
                for pid in self.pids:
                    if reached[sender] >> pid & 1:
                        held[pid] |= bit

    def _crash(self, pid: int, invocation: int, now: float, *, before_send: bool):
        kernel = self.kernel
        kernel.crash(kernel.processes[pid], invocation, now, before_send=before_send)
        self._exit(pid, now)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(self, path) -> None:
        """Drain the event queue through ``path`` until it empties, the
        stop predicate fires or no process is active."""
        self._path = path
        fire = path.fire
        handlers = path.handlers
        kernel = self.kernel
        crash_plan_for = kernel.crashes.plan_for
        schedule = kernel.schedule
        next_event = kernel.next_event
        has_events = kernel.has_events
        max_rounds = kernel.max_rounds
        nominal = self._nominal
        active, rounds, waiting = self.active, self.rounds, self._waiting
        for pid in self.pids:
            schedule(nominal(pid, 1), "eor", (pid, 1))
        while has_events():
            now, kind, data = next_event()
            if kind != "eor":
                handlers[kind](now, data)
                continue
            pid, invocation = data
            if (
                not active[pid]
                or rounds[pid] != invocation - 1
                or invocation > max_rounds
            ):
                continue
            crash_plan = crash_plan_for(pid)
            crashing = crash_plan is not None and crash_plan.round_no == invocation
            if crashing and crash_plan.before_send:
                self._crash(pid, invocation, now, before_send=True)
                continue
            computing = invocation - 1
            if computing >= 1 and not self.satisfied(pid, computing):
                waiting[pid] = computing
                continue
            if fire(pid, invocation, now):
                if crashing:
                    self._crash(pid, invocation, now, before_send=False)
                else:
                    schedule(
                        nominal(pid, invocation + 1), "eor", (pid, invocation + 1)
                    )
            else:
                kernel.record_halt(kernel.processes[pid], rounds[pid], now)
                self._exit(pid, now)
            if kernel.stop_requested() or not self._active_count:
                return


class _ObjectPath:
    """The drifting loop's object path: processes fire through
    ``end_of_round``, and every envelope reaches every receiver as its
    own ``deliver`` event, merged by ``receive``."""

    def __init__(self, loop: DriftingLoop, record_snapshots: bool):
        kernel = loop.kernel
        self._loop = loop
        self._kernel = kernel
        self._processes = kernel.processes
        self._trace = kernel.trace
        self._sink = kernel.sink
        self._record_snapshots = record_snapshots
        self.handlers = {"deliver": self.deliver}

    def fire(self, pid: int, invocation: int, now: float) -> bool:
        """``end_of_round`` with its records, then the broadcast;
        ``False`` when the algorithm halted instead."""
        proc = self._processes[pid]
        trace = self._trace
        envelope = proc.end_of_round()
        computing = invocation - 1
        if computing >= 1:
            trace.record_compute(pid, computing, now)
            if self._record_snapshots:
                trace.record_snapshot(pid, computing, proc.algorithm.snapshot())
        self._kernel.poll_decision(proc, now)
        if envelope is None:
            return False
        self._loop.rounds[pid] = envelope.round_no
        trace.record_round_entry(pid, envelope.round_no, now)
        self._sink.send(pid, envelope.round_no, now, envelope.payload)
        self._broadcast(pid, envelope, now)
        return True

    def _broadcast(self, pid: int, envelope: Envelope, now: float) -> None:
        """One ``deliver`` event per receiver: every link of an
        obligatory sender is timely, the others as the link plan says."""
        loop = self._loop
        environment = loop.environment
        round_no = envelope.round_no
        receivers = [other for other in loop.pids if other != pid]
        if loop.plan(round_no) >> pid & 1:
            timely_targets, late_targets = receivers, []
        else:
            row = loop.link_row(round_no, pid)
            timely_targets, late_targets = [], []
            for other in receivers:
                (timely_targets if row[other] else late_targets).append(other)
        latencies = dict(
            zip(
                timely_targets,
                environment.timely_latencies(round_no, pid, timely_targets),
            )
        )
        latencies.update(
            zip(late_targets, environment.late_latencies(round_no, pid, late_targets))
        )
        schedule = self._kernel.schedule
        for other in receivers:
            latency = latencies[other]
            if latency < NEVER_DELIVERED:
                schedule(now + latency, "deliver", (pid, other, envelope, now))

    def deliver(self, now: float, data: tuple) -> None:
        """One envelope reaching one receiver."""
        sender, receiver, envelope, sent_time = data
        loop = self._loop
        round_no = envelope.round_no
        timely = False
        if loop.active[receiver]:
            self._processes[receiver].receive(envelope)
            timely = loop.rounds[receiver] <= round_no
        self._sink.delivery(sender, receiver, round_no, sent_time, now, timely)
        if timely:
            loop.arrived(round_no, sender, (receiver,), 1 << receiver, now)

    def evict(self, horizon: int) -> None:
        """Nothing per round to drop: each process keeps its inbox."""


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

    One :class:`DriftingLoop` does the planning, gating and dispatch
    on either engine.  ``engine="columnar"`` plugs the matrix engine
    into it when the regime allows it
    (:class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine` —
    aggregate traces without payload statistics, stock heartbeat
    pseudo-leaders, stock latency draws): row computes and batched
    delivery folds instead of per-envelope receives.  Anything else
    runs the object path.  Either way the traces and final views are
    pinned identical to the object engine (``tests/runtime``).
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
        """Run the event loop on this run's path and return the trace."""
        loop = DriftingLoop(
            self._kernel, self._environment, self._periods, self._phases
        )
        engine = self._columnar_engine
        if engine is None:
            loop.run(_ObjectPath(loop, self._record_snapshots))
        else:
            engine.bind(loop)
            loop.run(engine)
            # final algorithm views out of the matrices, as on the
            # lock-step engine
            engine.finalize()
        return self.trace

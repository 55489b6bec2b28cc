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

import math
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

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
        # link of the round (replacing O(n²) ``extra_timely`` calls); a
        # sender the sparse plan leaves out has no timely link.
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
      ``end_of_round``; a broadcast leaves one ``(time, seq)``-keyed
      arrival per delivered link in its receiver's pending store, and
      the receiver applies them only when the loop drains it;
    * the matrix path
      (:class:`~repro.runtime.columnar_engine.ColumnarDriftingEngine`):
      row computes, one ``cdel`` event per timely link and one ``cbat``
      event per batch of late links sharing a latency.

    A path provides ``fire(pid, invocation, now)`` — the end-of-round,
    its trace records and the broadcast, ``False`` when the process
    halted instead of sending — plus ``handlers`` (its own event kind →
    ``handler(now, data)``), ``drain(pid, cutoff)``, which applies
    ``pid``'s arrivals keyed before ``cutoff``, ``finish(cutoff)``,
    which drains everyone, and ``evict(horizon)``, which drops its
    per-round state below the lowest active round.  Its broadcasts ask
    the loop for the round's obligations (:meth:`plan`) and link plan
    (:meth:`link_row`), report their arrival record (:meth:`sent`), and
    set the gate bits of the receivers an envelope reached before they
    computed its round (the matrix path through :meth:`arrived`).

    Every event is keyed ``(time, seq)``.  The loop's event queue is one
    ``heapq`` list of ``(time, seq, kind, data)`` entries, and ``seq``
    comes from one counter: an end-of-round draws the next number, and
    a broadcast reserves a block (:meth:`reserve`) and pushes its
    events under it (:meth:`push`).  Equal times pop in ``seq`` order
    (FIFO), and at an equal key a ``release`` pops after the ``cdel``
    or ``cbat`` it shares that key with.  The loop drains a process up
    to the key of the event that looks at it: its own end-of-round
    (before the crash check, the gate check and the fire), an exit that
    re-probes its gate, and the run's end (the stopping end-of-round,
    or everything once the queue empties).

    The loop keeps, for the run:

    * ``rounds`` and ``active``: per process, the invocations fired so
      far (``proc.round`` on the object path) and whether it still
      takes steps;
    * the obligation memo: round → bitmask of its obligatory senders,
      planned once by ``plan_round`` and never evicted, so a re-plan
      after a crash or halt walks every planned round;
    * per planned round, evicted below the lowest active round: the
      link plan (its sparse ``plan_round_links`` matrix); per sender,
      the bitmask of the receivers its envelope reached in time, so a
      batch of receivers is one mask update; per receiver, the bitmask
      of the obligatory senders among those, so a gate probe is one
      mask test (a re-plan folds in the new senders' past arrivals);
      and per sender, its broadcast's arrival record — send time,
      latency row by receiver and the block's first seq, so receiver
      ``r``'s arrival is keyed ``(time + latency[r], base + r)``;
    * the parked processes: pid → the round whose obligations it waits
      for.  A gate is satisfied when every obligatory sender but the
      process itself has reached it.  A parked process gets one
      ``release`` event, keyed at the arrival of the last obligatory
      envelope it misses (:meth:`_arm`) — or, while a missing sender has
      not broadcast, none until it does.  An exit re-probes and re-arms
      only the waiters on rounds whose obligations it changed; a
      release whose key is no longer the armed one is ignored.
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
        self._no_links = [False] * n
        #: the latency row of a broadcast that reaches no one
        self.no_arrivals = [NEVER_DELIVERED] * n
        self._reached: Dict[int, List[int]] = {}
        self._held: Dict[int, List[int]] = {}
        self._sent: Dict[int, Dict[int, tuple]] = {}
        self._sent_bits: Dict[int, int] = {}
        self._waiting: Dict[int, int] = {}
        #: parked pid -> the key its live release event carries
        self._armed: Dict[int, Tuple[float, int]] = {}
        self._path = None
        #: the event queue: a heap of (time, seq, kind, data) entries
        self._events: List[tuple] = []
        #: the next unused sequence number (see :meth:`reserve`)
        self._seq = 0

    def reserve(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; return the
        first.  A broadcast reserves one per process, so the keys of its
        arrivals sort after every event queued before it and before
        every event queued after it."""
        base = self._seq
        self._seq = base + count
        return base

    def push(self, time: float, seq: int, kind: str, data: tuple) -> None:
        """Queue an event under a sequence number from :meth:`reserve`."""
        heappush(self._events, (time, seq, kind, data))

    def _nominal(self, pid: int, invocation: int) -> float:
        return self._phases[pid] + invocation * self._periods[pid]

    def _schedule_eor(self, pid: int, invocation: int, now: float) -> None:
        """Schedule ``pid``'s ``invocation``-th end-of-round at its
        nominal time, or now if that has passed: a process that fired
        late (after a gate release) catches up from the present, so the
        clock never runs backwards."""
        when = self._nominal(pid, invocation)
        seq = self.reserve(1)
        self.push(when if when > now else now, seq, "eor", (pid, invocation))

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
            self._sent[round_no] = {}
            self._sent_bits[round_no] = 0
            self._evict()
        return needed

    def link_row(self, round_no: int, sender: int) -> List[bool]:
        """Which receivers (by pid) a non-obligatory broadcast from
        ``sender`` reaches in time.  Link policies are deterministic per
        link, so one ``plan_round_links`` call plans the whole round; a
        sender the sparse plan leaves out reads the run's one all-false
        row."""
        matrix = self._links.get(round_no)
        if matrix is None:
            matrix = self._links[round_no] = self.environment.plan_round_links(
                round_no, self.pids, self.pids
            )
        return matrix.get(sender, self._no_links)

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
        for store in (
            self._links,
            self._reached,
            self._held,
            self._sent,
            self._sent_bits,
        ):
            for stale in [round_no for round_no in store if round_no < horizon]:
                del store[stale]
        self._path.evict(horizon)

    def sent(
        self, round_no: int, sender: int, now: float, latencies: List[float], base: int
    ) -> None:
        """Record ``sender``'s round-``round_no`` broadcast: receiver
        ``r``'s arrival is keyed ``(now + latencies[r], base + r)``, or
        never comes when ``latencies[r]`` is the never-delivered
        sentinel (a broadcast that reaches no one keeps no record).
        The round's last obligatory broadcast arms the waiters that
        were missing a sender yet to send."""
        if latencies is not self.no_arrivals:
            self._sent[round_no][sender] = (now, latencies, base)
        bits = self._sent_bits[round_no] = self._sent_bits[round_no] | 1 << sender
        needed = self._obligations[round_no]
        if needed >> sender & 1 and not needed & ~bits:
            armed = self._armed
            for pid, waited in self._waiting.items():
                if waited == round_no and pid not in armed:
                    self._arm(pid, round_no)

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
        self, round_no: int, sender: int, receivers: Sequence[int], mask: int
    ) -> None:
        """``sender``'s round-``round_no`` envelope reached ``receivers``
        (active and not yet past the round, ascending; ``mask`` is their
        bitmask): record it in the gate bits."""
        self._reached[round_no][sender] |= mask
        bit = 1 << sender
        # only an obligatory sender moves a gate
        if self._obligations[round_no] & bit:
            held = self._held[round_no]
            for pid in receivers:
                held[pid] |= bit

    def _arm(self, pid: int, round_no: int) -> None:
        """Key parked ``pid``'s release at the arrival of the last
        obligatory round-``round_no`` envelope its gate misses.

        ``pid`` has been drained up to some key, so every missing
        arrival it has not seen is keyed after every arrival it has:
        the latest missing one completes the gate.  While a missing
        sender has not broadcast, :meth:`sent` arms ``pid`` later; an
        arrival that never comes leaves it parked.
        """
        missing = self._obligations[round_no] & ~(
            self._held[round_no][pid] | 1 << pid
        )
        armed = self._armed
        if missing & ~self._sent_bits[round_no]:
            armed.pop(pid, None)
            return
        records = self._sent[round_no]
        key = None
        while missing:
            low = missing & -missing
            missing ^= low
            record = records.get(low.bit_length() - 1)
            if record is None or record[1][pid] >= NEVER_DELIVERED:
                armed.pop(pid, None)
                return
            time, latencies, base = record
            arrival = (time + latencies[pid], base + pid)
            if key is None or arrival > key:
                key = arrival
        if armed.get(pid) != key:
            armed[pid] = key
            self.push(key[0], key[1], "release", (pid, round_no))

    def _wake(self, now: float, seq: int, data: tuple) -> None:
        """A ``release`` event: schedule the parked process's
        end-of-round, at its nominal time or now if that has passed —
        unless the release went stale (the process left the round, or
        a re-plan re-armed it under another key)."""
        pid, round_no = data
        if self._waiting.get(pid) == round_no and self._armed.get(pid) == (now, seq):
            del self._waiting[pid]
            del self._armed[pid]
            self._schedule_eor(pid, round_no + 1, now)

    def _exit(self, pid: int, key: Tuple[float, int]) -> None:
        """``pid`` crashed or halted at the event keyed ``key``.  It
        sends nothing more, so drop it from the obligations of every
        round it has not sent, re-plan any round that leaves with none,
        and re-probe the parked gates of the rounds that changed."""
        self.active[pid] = False
        self._active_count -= 1
        bit = 1 << pid
        exited_round = self.rounds[pid]
        obligations = self._obligations
        changed = set()
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
                changed.add(round_no)
        if not changed:
            return
        now = key[0]
        for waiter, round_no in list(self._waiting.items()):
            if round_no in changed:
                self._path.drain(waiter, key)
                if self.satisfied(waiter, round_no):
                    del self._waiting[waiter]
                    self._armed.pop(waiter, None)
                    self._schedule_eor(waiter, round_no + 1, now)
                else:
                    self._arm(waiter, round_no)

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

    def _crash(
        self, pid: int, invocation: int, key: Tuple[float, int], *, before_send: bool
    ):
        kernel = self.kernel
        kernel.crash(
            kernel.processes[pid], invocation, key[0], before_send=before_send
        )
        self._exit(pid, key)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def run(self, path) -> None:
        """Run the event queue through ``path`` until it empties, the
        stop predicate fires or no process is active, then drain every
        process up to that point."""
        self._path = path
        fire = path.fire
        drain = path.drain
        handlers = path.handlers
        kernel = self.kernel
        crash_plan_for = kernel.crashes.plan_for
        schedule_eor = self._schedule_eor
        events = self._events
        max_rounds = kernel.max_rounds
        active, rounds, waiting = self.active, self.rounds, self._waiting
        for pid in self.pids:
            self.push(self._nominal(pid, 1), self.reserve(1), "eor", (pid, 1))
        stop = _END
        while events:
            now, seq, kind, data = heappop(events)
            if kind != "eor":
                if kind == "release":
                    self._wake(now, seq, data)
                else:
                    handlers[kind](now, data)
                continue
            pid, invocation = data
            if (
                not active[pid]
                or rounds[pid] != invocation - 1
                or invocation > max_rounds
            ):
                continue
            key = (now, seq)
            drain(pid, key)
            crash_plan = crash_plan_for(pid)
            crashing = crash_plan is not None and crash_plan.round_no == invocation
            if crashing and crash_plan.before_send:
                self._crash(pid, invocation, key, before_send=True)
                continue
            computing = invocation - 1
            if computing >= 1 and not self.satisfied(pid, computing):
                waiting[pid] = computing
                self._arm(pid, computing)
                continue
            if fire(pid, invocation, now):
                if crashing:
                    self._crash(pid, invocation, key, before_send=False)
                else:
                    schedule_eor(pid, invocation + 1, now)
            else:
                kernel.record_halt(kernel.processes[pid], rounds[pid], now)
                self._exit(pid, key)
            if kernel.stop_requested() or not self._active_count:
                stop = key
                break
        path.finish(stop)


#: a drain cutoff after every arrival: the queue emptied
_END = (math.inf, 0)


class _ObjectPath:
    """The drifting loop's object path: processes fire through
    ``end_of_round``, and a broadcast leaves one ``(time, seq)``-keyed
    entry per delivered link in its receiver's pending store.  A drain
    applies a receiver's entries in key order — the merge into the
    inbox, the delivery count and the gate bits — exactly as one event
    per envelope would have: GIRAF's ``compute(k, M)`` is the only
    reader of an inbox, the gate is only read when the loop looks at
    the process, and the process's round and liveness, which decide an
    arrival's timeliness, change only at its own end-of-rounds.

    Full traces record each delivery with its key when it is drained
    and emit them in ``(time, seq)`` order when the run ends."""

    def __init__(self, loop: DriftingLoop, record_snapshots: bool):
        kernel = loop.kernel
        self._loop = loop
        self._kernel = kernel
        self._processes = kernel.processes
        self._trace = kernel.trace
        self._sink = kernel.sink
        self._record_snapshots = record_snapshots
        self.handlers: Dict[str, Callable] = {}
        #: per receiver: undrained (time, seq, sender, envelope, sent_time)
        self._pending: List[list] = [[] for _ in loop.pids]
        #: full traces: drained deliveries, keyed, until the run ends
        self._deliveries: Optional[list] = [] if self._sink.wants_events else None

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
        """One pending entry per delivered receiver, under one block of
        seqs: every link of an obligatory sender is timely, the others
        as the link plan says."""
        loop = self._loop
        environment = loop.environment
        round_no = envelope.round_no
        receivers = [other for other in loop.pids if other != pid]
        obligatory = loop.plan(round_no) >> pid & 1
        if obligatory:
            timely_targets, late_targets = receivers, []
        else:
            row = loop.link_row(round_no, pid)
            timely_targets, late_targets = [], []
            for other in receivers:
                (timely_targets if row[other] else late_targets).append(other)
        timely = environment.timely_latencies(round_no, pid, timely_targets)
        late = environment.late_latencies(round_no, pid, late_targets)
        if obligatory:
            latencies = list(timely)
            latencies.insert(pid, NEVER_DELIVERED)
        elif timely_targets or min(late, default=NEVER_DELIVERED) < NEVER_DELIVERED:
            latencies = [NEVER_DELIVERED] * len(loop.pids)
            for other, latency in zip(timely_targets, timely):
                latencies[other] = latency
            for other, latency in zip(late_targets, late):
                latencies[other] = latency
        else:
            latencies = loop.no_arrivals
        base = loop.reserve(len(latencies))
        loop.sent(round_no, pid, now, latencies, base)
        if latencies is loop.no_arrivals:
            return
        pending = self._pending
        for other, latency in enumerate(latencies):
            if latency < NEVER_DELIVERED:
                pending[other].append(
                    (now + latency, base + other, pid, envelope, now)
                )

    def drain(self, pid: int, cutoff: Tuple[float, int]) -> None:
        """Apply ``pid``'s arrivals keyed before ``cutoff``, in key
        order: merge each envelope, count the delivery, and set the gate
        bits of one that reached ``pid`` before it computed the round."""
        pending = self._pending[pid]
        if not pending:
            return
        # one sort per drain: the entries since the last drain arrive in
        # broadcast order, the rest are already sorted
        pending.sort()
        if pending[-1] < cutoff:
            ready = pending
            self._pending[pid] = []
        else:
            split = bisect_left(pending, cutoff)
            if not split:
                return
            ready = pending[:split]
            del pending[:split]
        loop = self._loop
        active = loop.active[pid]
        receive = self._processes[pid].receive
        current = loop.rounds[pid]
        reached, held, obligations = loop._reached, loop._held, loop._obligations
        bit = 1 << pid
        deliveries = self._deliveries
        for time, seq, sender, envelope, sent_time in ready:
            receive(envelope)  # a no-op once pid crashed or halted
            round_no = envelope.round_no
            timely = active and current <= round_no
            if timely:
                reached[round_no][sender] |= bit
                if obligations[round_no] >> sender & 1:
                    held[round_no][pid] |= 1 << sender
            if deliveries is not None:
                deliveries.append(
                    (time, seq, sender, pid, round_no, sent_time, timely)
                )
        if deliveries is None:
            self._sink.bulk_deliveries(len(ready))

    def finish(self, cutoff: Tuple[float, int]) -> None:
        """Drain every receiver up to ``cutoff``; a full trace then
        gets its deliveries in ``(time, seq)`` order."""
        for pid in self._loop.pids:
            self.drain(pid, cutoff)
        deliveries = self._deliveries
        if deliveries:
            deliveries.sort()
            record = self._sink.delivery
            for time, _, sender, receiver, round_no, sent_time, timely in deliveries:
                record(sender, receiver, round_no, sent_time, time, timely)
            deliveries.clear()

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
    timeliness promises.  A postponed process resumes from the
    present: its next end-of-round is due at its nominal time or at
    once if that has passed, so the clock never runs backwards.

    Obligations are planned lazily per round over the active correct
    processes that have not passed the round, and re-planned when an
    obligatory sender halts or crashes before sending that round (the
    replacement is drawn from the same candidates; see ARCHITECTURE.md,
    "The drifting loop").

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

    On the object path a delivery lands when its receiver next
    computes (or an exit re-probes its gate, or the run ends), not at
    its arrival time, so a ``stop_when`` predicate sees the deliveries
    of each receiver up to its last drain only — in full traces and in
    the aggregate count alike.  The finished trace holds every
    delivery up to the stopping end-of-round, in ``(time, seq)``
    order; the shipped predicate reads decisions only.

    ``event_queue`` selects nothing.  The loop always runs one
    ``heapq``, which holds end-of-rounds and gate releases — O(n)
    events per round — plus the matrix path's delivery events.  The
    keyword is kept so that existing callers keep working: it accepts
    ``"calendar"`` or ``"heap"``, which run the same loop, and raises
    :class:`~repro.errors.SimulationError` on any other value.

    ``periods`` must be positive and finite and ``phases`` finite; any
    other value raises :class:`~repro.errors.SimulationError`.

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
        )
        if event_queue not in ("calendar", "heap"):
            raise SimulationError(f"unknown event_queue {event_queue!r}")
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
        for period, phase in zip(periods, phases):
            # ``not period > 0`` also catches NaN, which compares false
            if not period > 0 or not math.isfinite(period):
                raise SimulationError(
                    f"periods must be positive and finite, got {period!r}"
                )
            if not math.isfinite(phase):
                raise SimulationError(f"phases must be finite, got {phase!r}")
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

"""The per-envelope drifting loop, frozen as the tests' oracle.

A verbatim copy of :class:`~repro.giraf.scheduler.DriftingLoop` and the
object path as they stood before arrivals were drained at compute:
every envelope reaches every receiver as its own ``deliver`` event
through the loop's queue, and each arrival re-probes the parked gate
it may complete.  The drained loop must produce the same traces, final
inboxes and decisions (``test_drifting_oracle.py``), and
``benchmarks/bench_micro.py`` times the two against each other.

Only :class:`PerEnvelopeDriftingScheduler` is new: the public
:class:`~repro.giraf.scheduler.DriftingScheduler` (same validation,
same kernel) with its ``run`` swapped for this loop on the object path.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Dict, List, Sequence

from repro.giraf.adversary import NEVER_DELIVERED
from repro.giraf.environments import Environment
from repro.giraf.messages import Envelope
from repro.giraf.scheduler import DriftingScheduler
from repro.giraf.traces import RunTrace
from repro.runtime.kernel import RuntimeKernel

__all__ = ["DriftingLoop", "PerEnvelopeDriftingScheduler"]


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
      link plan (its sparse ``plan_round_links`` matrix); per sender, the
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
        self._no_links = [False] * n
        self._reached: Dict[int, List[int]] = {}
        self._held: Dict[int, List[int]] = {}
        self._waiting: Dict[int, int] = {}
        self._path = None
        self._events: List[tuple] = []
        self._seq = 0

    def schedule(self, time: float, kind: str, data: tuple) -> None:
        """Push an event; FIFO among equal times."""
        heappush(self._events, (time, self._seq, kind, data))
        self._seq += 1

    def _nominal(self, pid: int, invocation: int) -> float:
        return self._phases[pid] + invocation * self._periods[pid]

    def _schedule_eor(self, pid: int, invocation: int, now: float) -> None:
        """Schedule ``pid``'s ``invocation``-th end-of-round at its
        nominal time, or now if that has passed: a process that fired
        late (after a gate release) catches up from the present, so the
        clock never runs backwards."""
        when = self._nominal(pid, invocation)
        self.schedule(when if when > now else now, "eor", (pid, invocation))

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
            self._schedule_eor(pid, round_no + 1, now)

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
        schedule_eor = self._schedule_eor
        events = self._events
        max_rounds = kernel.max_rounds
        active, rounds, waiting = self.active, self.rounds, self._waiting
        for pid in self.pids:
            self.schedule(self._nominal(pid, 1), "eor", (pid, 1))
        while events:
            now, _, kind, data = heappop(events)
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
                    schedule_eor(pid, invocation + 1, now)
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
        schedule = self._loop.schedule
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


class PerEnvelopeDriftingScheduler(DriftingScheduler):
    """:class:`~repro.giraf.scheduler.DriftingScheduler` on the frozen
    per-envelope loop, always on the object path."""

    def run(self) -> RunTrace:
        loop = DriftingLoop(
            self._kernel, self._environment, self._periods, self._phases
        )
        loop.run(_ObjectPath(loop, self._record_snapshots))
        return self.trace

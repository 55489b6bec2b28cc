"""Whole-round matrix engines for aggregate runs.

The object engine's lock-step tick, even in aggregate trace mode,
still touches one Python object per process: an ``end_of_round`` call,
an :class:`~repro.giraf.automaton.InboxView`, a dict-backed counter
merge, an envelope, and a handful of frozensets — per process, per
tick.  That per-process constant is the measured n ceiling.

:class:`ColumnarLockStepEngine` replaces the *entire tick* with matrix
operations over counter matrices for two protocols, both with
``compute(k, M)`` reading only the slot ``M[k]``:

* stock :class:`~repro.core.pseudo_leader.HeartbeatPseudoLeader` — the
  protocol whose round *is* exactly the counter update (Algorithm 3
  lines 8–9 plus the leader predicate), with a constant per-process
  brand appended each round;
* stock :class:`~repro.core.ess_consensus.ESSConsensus` — Algorithm 3
  itself.  ``PROPOSED``, ``WRITTEN`` and ``WRITTENOLD`` become boolean
  matrices over the run's sorted distinct proposals plus a ``⊥``
  column, so lines 6–7 are AND/OR folds over the same receiver masks
  the counter minimum uses; ``VAL`` is an index column and lines 10–18
  are vectorized masks.  Deciders are halted in the tick they decide,
  with their decision and halt recorded in pid order.

Each engine's ``try_build`` says in one line why a run cannot take a
matrix path; the scheduler then runs the object engine with the dict
elector and reports the reason as its ``engine_decline``.  The regime
every matrix run shares: aggregate traces (no per-event objects are
owed to anyone), algorithms in their initial state, and no
``on_round`` injection hook (facades that inject application
operations need real envelopes), and numpy — without it every matrix
request declines with one reason.  Algorithm 3 further needs no
snapshots or payload statistics, all-``int`` or all-``str`` proposals
(so line 14's ``max`` is the highest set column), and a link policy
that is a pure per-link draw
(:class:`~repro.giraf.environments.SilentLinks`,
:class:`~repro.giraf.environments.AllTimelyLinks` or
:class:`~repro.giraf.environments.BernoulliLinks` — a policy that
reads live algorithm state cannot be planned from matrices).

Under those conditions the lock-step semantics collapse into closed
form, and every step below is pinned trace-for-trace to the object
scheduler (``tests/runtime/test_columnar_engine.py`` and
``tests/runtime/test_columnar_ess.py``):

* every active process fires every tick, so round-``t`` state is one
  counter matrix ``C`` (process ``i``'s entries = the counters it sent
  at tick ``t``) plus one history column per process.  ``C`` stores
  only live columns, the histories an active process can still count,
  slot-major with one column per process (``_fold`` drops the rest
  each tick);
* a lock-step envelope carries only its sender's own message (nothing
  of round ``t`` reaches anyone before everyone has fired), so the
  tick-``t+1`` compute of process ``i`` folds exactly its own row, the
  obligatory senders' rows, and the rows of the extras that reached
  it — ``min`` for counters, AND/OR for proposals — followed by one
  prefix-max bump per received history column (active same-brand
  heartbeats share one history column, so their bumps are one per
  column, not per process);
* late deliveries with delay ≥ 2 ticks land in round slots the
  receiver has already computed.  Since ``compute(k)`` reads only
  ``M[k]``, they are state no-ops that only the delivery *counter*
  sees — the engine counts them per due tick at queue time and flushes
  the counts on that tick, never materializing a queue entry.  Delay-1
  lates are flushed by the object loop *before* the next fire, so they
  do reach the slot being computed — the engine feeds those into the
  next tick's folds exactly like timely extras (counted on the due
  tick, state-applied at the next compute).  A delay under one tick
  would be due in a tick already flushed, so it raises
  :class:`~repro.errors.ProtocolMisuse` on both engines instead of
  vanishing;
* broadcast planning consumes the environment's vectorized
  ``plan_round_links`` boolean rows directly.  A round's late delays
  are one senders × receivers ``delay_ticks_matrix`` draw per chunk of
  senders (at most :data:`_LATE_CHUNK_CELLS` cells, so memory stays
  bounded at any ``n``), counted per due tick with one
  ``np.bincount``, and a policy that declares fixed bounds takes a
  constant-delay arithmetic shortcut.  No per-envelope object exists
  anywhere on the path.

Trace bookkeeping (round entries, compute times, decisions, halts,
aggregate counters, and for heartbeats optional snapshots and payload
statistics) is emitted in the object engine's exact order and
arithmetic; ``finalize`` writes the final state back into the
algorithm objects so a finished run is externally indistinguishable.
(Inbox round slots are *not* materialized — in aggregate mode nothing
reads them after the run.)

:class:`ColumnarDriftingEngine` is the drifting scheduler's matrix path
for heartbeat runs: it plugs its row computes and batched delivery
folds into the scheduler's one event loop
(:class:`~repro.giraf.scheduler.DriftingLoop`), which plans, gates and
dispatches for both engines (see its docstring).

Each engine run builds its own :class:`~repro.core.columnar.HistoryIndex`,
so the index and the tables sized by it grow with that run only.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.columnar import CounterRowView, HistoryIndex, numpy_available
from repro.core.ess_consensus import ESSConsensus
from repro.core.pseudo_leader import HeartbeatPseudoLeader, PseudoLeaderElector
from repro.giraf.adversary import NEVER_DELIVERED
from repro.giraf.environments import (
    AllTimelyLinks,
    BernoulliLinks,
    Environment,
    SilentLinks,
)
from repro.giraf.messages import payload_size
from repro.runtime.kernel import check_late_row
from repro.values import BOTTOM

__all__ = [
    "ColumnarDriftingEngine",
    "ColumnarLockStepEngine",
    "NUMPY_REASON",
]

#: why every matrix request declines when numpy is not importable
NUMPY_REASON = "numpy is not installed, and the matrix engines need it"


#: Cells per chunk of a round's late-delay matrix: the draw holds an
#: int64 matrix and its squeezed bytes, ~1 MB per chunk at any ``n``.
_LATE_CHUNK_CELLS = 1 << 16


def _constant_delay(environment) -> Optional[int]:
    """The fixed late delay, when the environment routes delays straight
    to a policy whose bounds coincide (else ``None``)."""
    env_type = type(environment)
    if (
        env_type.delay_ticks is Environment.delay_ticks
        and env_type.delay_ticks_row is Environment.delay_ticks_row
    ):
        bounds = environment.delay_policy.delay_bounds()
        if bounds is not None and bounds[0] == bounds[1]:
            return bounds[0]
    return None


def _install_final_views(kernel, index, rows, hist_col, final_rounds) -> None:
    """Point every algorithm's elector at a lazy view of its final row.

    Shared by both matrix engines' ``finalize``: each elector becomes a
    read-only :class:`~repro.core.columnar.CounterRowView` over the
    process's final counter row — ``rows(pid)`` gives it with the
    columns of its slots — plus its final history (an interned node),
    whose ``counters`` builds its dict on first access — teardown is
    O(n) instead of O(n × width).  A process that never fired keeps its
    initial history.
    """
    histories = index.histories
    for pid, proc in enumerate(kernel.processes):
        algorithm = proc.algorithm
        col = int(hist_col[pid])
        history = histories[col] if col >= 0 else algorithm.elector.history
        row, cols = rows(pid)
        algorithm.elector = CounterRowView(history, index, row, cols)
        proc.round = final_rounds[pid]


def _install_heartbeat_flags(kernel, leader, since, my, mx, computed) -> None:
    """The heartbeat's leadership flags and pre-append my/max captures."""
    for pid, algorithm in enumerate(kernel.algorithms):
        algorithm.currently_leader = bool(leader[pid])
        value = int(since[pid])
        algorithm.leader_since = None if value < 0 else value
        if computed[pid]:
            algorithm._my_counter = int(my[pid])
            algorithm._max_counter = int(mx[pid])


# ----------------------------------------------------------------------
# eligibility
# ----------------------------------------------------------------------

#: link policies whose timeliness is a pure function of the link key
#: (a policy reading live algorithm state cannot be planned from rows)
_PURE_LINK_POLICIES = (SilentLinks, AllTimelyLinks, BernoulliLinks)


def _heartbeat_state_reason(algorithm) -> Optional[str]:
    elector = algorithm.elector
    if type(elector) is not PseudoLeaderElector or not elector._inherit_prefixes:
        return "a heartbeat elector is not the stock prefix-inheriting one"
    if elector._counters or len(elector.history) != 1:
        return "a heartbeat elector is not in its initial state"
    return None


def _ess_state_reason(algorithm) -> Optional[str]:
    elector = algorithm.elector
    if (
        algorithm._silent_non_leaders
        or algorithm._ignore_empty
        or type(elector) is not PseudoLeaderElector
        or not elector._inherit_prefixes
    ):
        return "an ESSConsensus ablation knob is set"
    if (
        algorithm.halted
        or algorithm.decision is not None
        or algorithm.proposed
        or algorithm.written
        or algorithm.written_old
        or not algorithm._last_was_leader
        or algorithm.val != algorithm.initial_value
        or elector._counters
        or len(elector.history) != 1
        or elector.history[0] != algorithm.initial_value
    ):
        return "an ESSConsensus is not in its initial state"
    return None


_STATE_REASONS = {
    HeartbeatPseudoLeader: _heartbeat_state_reason,
    ESSConsensus: _ess_state_reason,
}


def _decline_reason(kernel, *, kinds: Sequence[type]) -> Optional[str]:
    """Why no matrix engine can run this kernel's processes, or ``None``.

    The checks both engines share: numpy, aggregate traces, every
    algorithm of exactly one class in ``kinds`` (no subclasses — their
    overrides would not be honoured), every algorithm and process shell
    in its initial state.  Each engine's ``try_build`` adds its own
    checks.
    """
    if not numpy_available():
        return NUMPY_REASON
    if not kernel.aggregate:
        return "trace_mode='full' needs per-event objects"
    algorithms = kernel.algorithms
    kind = type(algorithms[0])
    foreign = next(
        (a for a in algorithms if type(a) is not kind or kind not in kinds),
        None,
    )
    if foreign is not None:
        names = " or ".join(k.__name__ for k in kinds)
        return f"algorithm {type(foreign).__name__} is not a stock {names}"
    state_reason = _STATE_REASONS[kind]
    for algorithm in algorithms:
        reason = state_reason(algorithm)
        if reason is not None:
            return reason
    for proc in kernel.processes:
        if proc.round != 0 or proc.crashed or proc.halted:
            return f"process {proc.pid} is not in its initial state"
    return None


def _ess_run_reason(kernel, environment, record_snapshots: bool) -> Optional[str]:
    """The Algorithm 3 path's checks on top of :func:`_decline_reason`."""
    if record_snapshots:
        return "record_snapshots=True reads live ESSConsensus objects"
    if kernel.payload_stats:
        return "payload_stats=True sizes real ESSConsensus messages"
    value_types = {type(a.initial_value) for a in kernel.algorithms}
    if value_types != {int} and value_types != {str}:
        return "proposals are not all int or all str"
    policy = type(environment.link_policy)
    if policy not in _PURE_LINK_POLICIES:
        return f"link policy {policy.__name__} is not a pure per-link draw"
    return None


def _row_sets(matrix, values: Sequence) -> List[frozenset]:
    """Per-row frozensets of ``values[col]`` over a boolean matrix's set
    columns (identical rows share one frozenset)."""
    cache: Dict[bytes, frozenset] = {}
    sets = []
    for row in matrix:
        key = row.tobytes()
        found = cache.get(key)
        if found is None:
            found = cache[key] = frozenset(
                values[col] for col in row.nonzero()[0].tolist()
            )
        sets.append(found)
    return sets


class ColumnarLockStepEngine:
    """One lock-step run as matrix operations (see module docstring).

    Built via :meth:`try_build` by the lock-step scheduler when
    ``engine="columnar"``; the scheduler delegates :meth:`step` (after
    its own horizon guard) and calls :meth:`finalize` when the run
    ends.
    """

    def __init__(self, kernel, environment, *, record_snapshots: bool):
        self._kernel = kernel
        self._environment = environment
        self._record_snapshots = record_snapshots
        self._trace = kernel.trace
        self._sink = kernel.sink
        self._payload_stats = kernel.payload_stats
        n = len(kernel.processes)
        self._n = n
        import numpy as np

        self._np = np
        self._index = HistoryIndex()
        # Live-column layout (see _fold): two slot-major buffers, one
        # column per process, one slot per stored history.
        self._C = np.zeros((8, n), dtype=np.int64)
        self._N = np.zeros((8, n), dtype=np.int64)
        #: slot -> history column (slot 0, always zero: -1); every fold
        #: makes a new array, so a kept reference stays valid
        self._cols = np.full(1, -1, dtype=np.int64)
        #: history column -> slot (0: not stored, reads zero); sized to
        #: the index by _fold
        self._slot_of = np.zeros(0, dtype=np.intp)
        #: deactivated pid -> its final (row, cols)
        self._frozen: Dict[int, tuple] = {}

        # --- activity -------------------------------------------------
        self._active: List[bool] = [True] * n
        self._active_count = n
        self._active_sorted: Optional[List[int]] = list(range(n))
        self._active_np = np.ones(n, dtype=bool)
        self._active_idx = np.arange(n)
        # --- histories ------------------------------------------------
        # Per-process current history column (-1 = never fired), an
        # int64 array: compute indexes rows with it.
        self._hist_col = np.full(n, -1, dtype=np.int64)
        self._last_fired = [0] * n

        # --- trace plumbing -------------------------------------------
        self._entries: List[Optional[dict]] = [None] * n
        self._computes: List[Optional[dict]] = [None] * n
        # due tick -> late-delivery count (the whole late queue)
        self._late_counts: Dict[int, int] = {}
        # last tick's delivery plan, consumed by the next compute:
        # (obligatory sender pids, [(extra sender, receiver bool mask)])
        self._pending: Tuple[List[int], list] = ([], [])
        self._finalized = False

        # Constant-delay shortcut: a broadcast's late count is then pure
        # arithmetic — no delay row needs drawing.
        self._const_delay = _constant_delay(environment)

        self._ess = type(kernel.algorithms[0]) is ESSConsensus
        if self._ess:
            self._init_ess(kernel)
        else:
            self._init_heartbeat(kernel)

    def _init_heartbeat(self, kernel) -> None:
        n = self._n
        # Brand groups: active same-brand processes share identical
        # histories (everyone fires every tick), so one column intern
        # per group per tick covers all members.
        group_pids: Dict[object, List[int]] = {}
        order: List[object] = []
        for pid, algorithm in enumerate(kernel.algorithms):
            brand = algorithm.brand
            if brand not in group_pids:
                group_pids[brand] = []
                order.append(brand)
            group_pids[brand].append(pid)
        self._brands = order
        np = self._np
        groups = [group_pids[brand] for brand in order]
        self._group_idx = [np.array(pids, dtype=np.intp) for pids in groups]
        # Length-1 history column per group, from the elector's actual
        # initial history node (so finalize hands back the same
        # interned object the object engine would hold).
        self._initial_col = [
            self._index.intern(kernel.algorithms[pids[0]].elector.history)
            for pids in groups
        ]
        self._group_col = [-1] * len(groups)

        # --- leadership / per-process results -------------------------
        self._leader = np.ones(n, dtype=bool)
        self._since = np.full(n, -1, dtype=np.int64)
        self._my = np.zeros(n, dtype=np.int64)
        self._mx = np.zeros(n, dtype=np.int64)
        self._computed = np.zeros(n, dtype=bool)
        # per-tick scratch for snapshots / payload stats
        self._round_rows = None
        self._round_own = None
        self._round_max = None
        self._round_leader = None
        # payload-size per column, grown with the index
        self._col_atoms: List[int] = []

    def _init_ess(self, kernel) -> None:
        np = self._np
        n = self._n
        algorithms = kernel.algorithms
        proposals = sorted({algorithm.initial_value for algorithm in algorithms})
        # value columns in ascending order, then ⊥: line 14's max over
        # WRITTEN \ {⊥} is the highest set value column
        self._values = proposals + [BOTTOM]
        self._bottom = len(proposals)
        column = {value: col for col, value in enumerate(proposals)}
        self._val = np.array(
            [column[algorithm.initial_value] for algorithm in algorithms],
            dtype=np.intp,
        )
        width = len(self._values)
        # PROPOSED as last sent, WRITTENOLD (WRITTEN itself is only read
        # back at finalize: line 20 makes it PROPOSED, except for a
        # decider, which keeps its line-6 set)
        self._P = np.zeros((n, width), dtype=bool)
        self._WO = np.zeros((n, width), dtype=bool)
        self._decided_written: Dict[int, frozenset] = {}
        self._was_leader = np.ones(n, dtype=bool)
        # ancestor columns by depth: anc[i, d] is the column of process
        # i's history prefix of length d + 1 (the bump's prefix chain)
        self._anc = np.zeros((n, 8), dtype=np.int64)

    # ------------------------------------------------------------------
    @classmethod
    def try_build(
        cls, kernel, environment, *, record_snapshots: bool, on_round
    ) -> Tuple[Optional["ColumnarLockStepEngine"], Optional[str]]:
        """``(engine, None)``, or ``(None, reason)`` when it cannot apply.

        Deliberately conservative: any subclassing, pre-seeded state,
        or event-needing configuration declines with a one-line reason
        (the caller then runs the object engine and reports it).
        """
        reason = _decline_reason(
            kernel, kinds=(HeartbeatPseudoLeader, ESSConsensus)
        )
        if reason is None and on_round is not None:
            reason = "an on_round hook injects operations into real envelopes"
        if reason is None and type(kernel.algorithms[0]) is ESSConsensus:
            reason = _ess_run_reason(kernel, environment, record_snapshots)
        if reason is not None:
            return None, reason
        return cls(kernel, environment, record_snapshots=record_snapshots), None

    # ------------------------------------------------------------------
    # activity bookkeeping
    # ------------------------------------------------------------------
    def _active_pids(self) -> List[int]:
        cached = self._active_sorted
        if cached is None:
            active = self._active
            cached = self._active_sorted = [
                pid for pid in range(self._n) if active[pid]
            ]
            self._active_idx = self._np.flatnonzero(self._active_np)
        return cached

    def _deactivate(self, pid: int) -> None:
        self._active[pid] = False
        self._active_np[pid] = False
        # later folds stop carrying the row: keep it as it ends
        self._frozen[pid] = (self._C[: len(self._cols), pid].copy(), self._cols)
        self._active_count -= 1
        self._active_sorted = None

    def _apply_crashes(self, tick: int, *, before_send: bool) -> None:
        crashes = self._trace.crashes
        before = len(crashes)
        self._kernel.apply_scheduled_crashes(
            tick, float(tick), before_send=before_send
        )
        for event in crashes[before:]:
            self._deactivate(event.pid)

    # ------------------------------------------------------------------
    # the tick
    # ------------------------------------------------------------------
    def step(self, tick: int) -> bool:
        """One lock-step tick (same phase order as the object loop)."""
        kernel = self._kernel
        late = self._late_counts.pop(tick, 0)
        if late:
            self._sink.bulk_deliveries(late)
        self._apply_crashes(tick, before_send=True)
        if self._ess:
            senders = self._fire_ess(tick)
        else:
            senders = self._fire_heartbeat(tick)
        self._apply_crashes(tick, before_send=False)
        self._deliver(tick, senders)
        if self._active_count == 0:
            return False
        if kernel.stop_requested():
            return False
        return True

    # -- fire ----------------------------------------------------------
    def _fire_heartbeat(self, tick: int) -> List[int]:
        fired = self._active_pids()
        if not fired:
            return fired
        if tick >= 2:
            self._compute_heartbeat(tick)
        self._append_heartbeat(tick)
        self._record(tick, fired, fired)
        if self._record_snapshots and tick >= 2:
            self._emit_snapshots(tick, fired)
        if self._payload_stats:
            self._emit_payload_stats(tick, fired)
        return fired

    def _fold(self, bumped):
        """Line 8 into the spare buffer, over the live columns only.

        Counters are stored slot-major — ``C[s, i]`` is process ``i``'s
        counter for history column ``self._cols[s]`` — and only for the
        columns that can still count.  After line 8
        every active process's counters are at most the obligatory
        senders' shared minimum, so a column that minimum lacks is zero
        for every active process, and since histories only grow no
        later bump writes it.  The fold therefore keeps the columns
        positive in that minimum (every stored one when the round has
        no obligatory sender) plus ``bumped``, the columns line 9 bumps
        this tick: histories appended last tick, not stored yet and
        zero before the bump.  Slot 0 is a permanent zero, read by bump
        ancestors that are no longer stored.  Inactive processes are
        folded too but never read again (:meth:`_deactivate` kept their
        rows).  Returns the new buffer and its width in slots.
        """
        np = self._np
        C, N = self._C, self._N
        cols, slot_of = self._cols, self._slot_of
        oblig, extras = self._pending
        if oblig:
            stored = len(cols)
            if len(oblig) == 1:
                shared = C[:stored, oblig[0]]
            else:
                shared = C[:stored, oblig].min(axis=1)
            keep = np.flatnonzero(shared)
        else:
            keep = np.arange(1, len(cols))
        fresh = np.unique(np.asarray(bumped, dtype=np.int64))
        new_cols = np.concatenate(([-1], cols[keep], fresh))
        live, width = 1 + len(keep), len(new_cols)
        if len(slot_of) < self._index.width:
            slot_of = self._slot_of = np.zeros(2 * self._index.width, dtype=np.intp)
        else:
            slot_of[cols[1:]] = 0
        slot_of[new_cols[1:]] = np.arange(1, width)
        if len(N) < width:
            N = self._N = np.zeros((2 * width, self._n), dtype=np.int64)
        if oblig:
            np.minimum(C[keep], shared[keep][:, None], out=N[1:live])
        else:
            N[1:live] = C[1:live]
        N[live:width] = 0
        active_np = self._active_np
        for sender, mask in extras:
            hit = mask & active_np
            if hit.any():
                N[1:live, hit] = np.minimum(N[1:live, hit], C[keep, sender][:, None])
        self._cols = new_cols
        return N, width

    def _compute_heartbeat(self, tick: int) -> None:
        np = self._np
        index = self._index
        act = self._active_idx
        active_np = self._active_np
        hist_col = self._hist_col
        oblig, extras = self._pending

        # Bumps: one prefix-max per distinct received-history column,
        # all maxima read before any write lands (the paper's
        # simultaneous batch assignment — a bump column can be another
        # bump's ancestor).
        masks: Dict[int, object] = {}
        n = self._n

        def mask_for(col: int):
            mask = masks.get(col)
            if mask is None:
                mask = masks[col] = np.zeros(n, dtype=bool)
            return mask

        for g, gidx in enumerate(self._group_idx):
            sel = active_np[gidx]
            if sel.any():
                mask_for(self._group_col[g])[gidx[sel]] = True
        for sender in oblig:
            mask = mask_for(int(hist_col[sender]))
            np.logical_or(mask, active_np, out=mask)
        for sender, emask in extras:
            mask = mask_for(int(hist_col[sender]))
            np.logical_or(mask, emask & active_np, out=mask)

        N, width = self._fold(list(masks))
        slot_of = self._slot_of
        writes = []
        for col, mask in masks.items():
            rows = np.flatnonzero(mask)
            slots = np.unique(slot_of[index.ancestor_cols(col)])
            values = N[slots[:, None], rows].max(axis=0) + 1
            writes.append((slot_of[col], rows, values))
        for slot, rows, values in writes:
            N[slot, rows] = values

        # Leadership + the pre-append my/max capture, vectorized.
        counters = N[:width]
        own = counters[slot_of[hist_col[act]], act]
        row_max = counters.max(axis=0)[act]
        leader_now = own >= row_max
        prev = self._leader[act]
        since = self._since[act]
        since[leader_now & ~prev] = tick - 1
        since[~leader_now] = -1
        self._since[act] = since
        self._leader[act] = leader_now
        self._my[act] = own
        self._mx[act] = row_max
        self._computed[act] = True
        self._round_rows = counters
        self._round_own = own
        self._round_max = row_max
        self._round_leader = leader_now
        self._C, self._N = self._N, self._C

    def _append_heartbeat(self, tick: int) -> None:
        """Per-group history appends: one column per brand group."""
        index = self._index
        hist_col = self._hist_col
        for g, gidx in enumerate(self._group_idx):
            sel = self._active_np[gidx]
            if not sel.any():
                continue
            if tick == 1:
                col = self._initial_col[g]
            else:
                col = index.child_col(self._group_col[g], self._brands[g])
            self._group_col[g] = col
            hist_col[gidx[sel]] = col

    def _record(self, tick: int, computed: List[int], senders: List[int]) -> None:
        """The object loop's bookkeeping: a compute time for every
        process that computed, a round entry for every one that sent."""
        trace = self._trace
        time = float(tick)
        if tick >= 2:
            computes = self._computes
            computing = tick - 1
            for pid in computed:
                per_round = computes[pid]
                if per_round is None:
                    per_round = computes[pid] = trace.compute_times.setdefault(
                        pid, {}
                    )
                per_round[computing] = time
        entries = self._entries
        last_fired = self._last_fired
        for pid in senders:
            per_round = entries[pid]
            if per_round is None:
                per_round = entries[pid] = trace.round_entries.setdefault(pid, {})
            per_round[tick] = time
            last_fired[pid] = tick
        if senders:
            if tick > trace.rounds_executed:
                trace.rounds_executed = tick
            trace.agg_sends += len(senders)

    def _emit_snapshots(self, tick: int, fired: List[int]) -> None:
        trace = self._trace
        computing = tick - 1
        counts = (self._round_rows > 0).sum(axis=0)[self._active_idx]
        own, row_max = self._round_own, self._round_max
        leader = self._round_leader
        for position, pid in enumerate(fired):
            trace.record_snapshot(
                pid,
                computing,
                {
                    "leader": bool(leader[position]),
                    "my_counter": int(own[position]),
                    "max_counter": int(row_max[position]),
                    "history_len": tick,
                    "counter_entries": int(counts[position]),
                },
            )

    def _atoms_upto(self, width: int) -> List[int]:
        atoms = self._col_atoms
        histories = self._index.histories
        parents = self._index.parents
        while len(atoms) < width:
            col = len(atoms)
            parent = parents[col]
            base = atoms[parent] if parent >= 0 else 1
            atoms.append(base + payload_size(histories[col].value))
        return atoms

    def _emit_payload_stats(self, tick: int, fired: List[int]) -> None:
        """The object sink's per-send size stats, in closed form.

        A lock-step heartbeat payload is the frozenset of the sender's
        own message, so its structural size is
        ``2 + atoms(history) + atoms(counters)`` with
        ``atoms(counters) = 1 + Σ_support (atoms(history) + 1)`` —
        exactly what :func:`~repro.giraf.messages.payload_size` walks
        out of the object representation.
        """
        np = self._np
        atoms = np.array(self._atoms_upto(self._index.width), dtype=np.int64)
        act = self._active_idx
        hist_atoms = atoms[self._hist_col[act]]
        if tick >= 2:
            # slot 0 (column -1) holds zero, so it never counts
            slot_atoms = atoms[self._cols] + 1
            counter_atoms = 1 + (slot_atoms @ (self._round_rows > 0))[act]
        else:
            counter_atoms = np.ones(len(fired), dtype=np.int64)
        send_atoms = 2 + hist_atoms + counter_atoms
        self._trace.agg_payload[tick] = [
            len(fired),
            int(send_atoms.sum()),
            int(send_atoms.max()),
        ]

    # -- Algorithm 3 ---------------------------------------------------
    def _fire_ess(self, tick: int) -> List[int]:
        """Every active process's end-of-round; returns the senders
        (a decider halts instead of sending)."""
        fired = self._active_pids()
        if not fired:
            return fired
        if tick == 1:
            # line 2, HISTORY := VAL: one column per distinct proposal,
            # from the elector's actual node (as for heartbeat brands)
            algorithms = self._kernel.algorithms
            index = self._index
            initial: Dict[object, int] = {}
            for pid in fired:
                algorithm = algorithms[pid]
                col = initial.get(algorithm.initial_value)
                if col is None:
                    col = initial[algorithm.initial_value] = index.intern(
                        algorithm.elector.history
                    )
                self._hist_col[pid] = col
            self._anc[:, 0] = self._hist_col
            self._record(tick, fired, fired)
            return fired
        deciders = self._compute_ess(tick)
        senders = fired
        if deciders:
            self._halt_deciders(tick, deciders)
            senders = self._active_pids()
        self._record(tick, fired, senders)
        return senders

    def _compute_ess(self, tick: int) -> List[int]:
        """``compute(tick - 1, M)`` of every active process as matrix
        passes; returns the deciders (ascending pids)."""
        np = self._np
        k = tick - 1
        act = self._active_idx
        active_np = self._active_np
        oblig, extras = self._pending
        P = self._P
        # lines 6–7 over M[k]: the own message, the obligatory senders'
        # (which reach every active process) and the extras that arrived
        written = P[act]
        union = written.copy()
        if oblig:
            sent = P[oblig]
            written &= sent.all(axis=0)
            union |= sent.any(axis=0)
        for sender, mask in extras:
            hit = mask[act]
            if hit.any():
                written[hit] &= P[sender]
                union[hit] |= P[sender]

        # lines 8–9: every received history is bumped to one over its
        # prefix maximum, all maxima read before any write lands
        hist = self._hist_col
        senders = oblig + [sender for sender, _ in extras]
        N, width = self._fold(np.concatenate((hist[act], hist[senders])))
        slot_of = self._slot_of
        anc = self._anc[:, :k]
        own_slots = slot_of[hist[act]]
        writes = [(own_slots, act, N[slot_of[anc[act]], act[:, None]].max(axis=1))]
        for sender in oblig:
            best = N[slot_of[anc[sender]][:, None], act].max(axis=0)
            writes.append((slot_of[hist[sender]], act, best))
        for sender, mask in extras:
            rows = np.flatnonzero(mask & active_np)
            if rows.size:
                best = N[slot_of[anc[sender]][:, None], rows].max(axis=0)
                writes.append((slot_of[hist[sender]], rows, best))
        for slots, rows, best in writes:
            N[slots, rows] = best + 1
        self._C, self._N = self._N, self._C

        decide = None
        if k % 2 == 0:                                          # line 10
            bottom = self._bottom
            positions = np.arange(len(act))
            size = union.sum(axis=1)
            val = self._val[act]
            old = self._WO[act]
            decide = (                                          # line 11
                (old.sum(axis=1) == 1)
                & old[positions, val]
                & (size - union[positions, val] - union[:, bottom] == 0)
            )
            held = written[:, :bottom]                          # line 13
            adopt = held.any(axis=1) & ~decide
            if adopt.any():                                     # line 14
                highest = bottom - 1 - held[:, ::-1].argmax(axis=1)
                val = np.where(adopt, highest, val)
                self._val[act] = val
            own = N[own_slots, act]                             # line 15
            leader = own >= N[:width].max(axis=0)[act]
            settled = size - union[positions, val] - union[:, bottom] == 0
            proposed = np.zeros_like(union)                     # lines 16/18
            proposed[positions, np.where(leader | settled, val, bottom)] = True
            proposed[decide] = union[decide]
            self._was_leader[act[~decide]] = leader[~decide]
        else:
            proposed = union
        self._P[act] = proposed

        # a decider keeps its previous WRITTENOLD, its line-6 WRITTEN
        # and its un-appended history
        going = ~decide if decide is not None else np.ones(len(act), dtype=bool)
        self._WO[act[going]] = written[going]                  # line 19
        self._append_ess(k, act[going])
        deciders = act[~going].tolist()
        values = self._values
        for pid, row in zip(deciders, written[~going]):
            self._decided_written[pid] = frozenset(
                values[col] for col in np.flatnonzero(row).tolist()
            )
        return deciders

    def _append_ess(self, k: int, senders) -> None:
        """Line 21: append VAL, one child column per distinct
        ``(history, VAL)`` pair."""
        if not len(senders):
            return
        np = self._np
        if k >= self._anc.shape[1]:
            grown = np.zeros((self._n, 2 * self._anc.shape[1]), dtype=np.int64)
            grown[:, :k] = self._anc[:, :k]
            self._anc = grown
        hist = self._hist_col
        values = self._values
        stride = len(values)
        keys = hist[senders] * stride + self._val[senders]
        distinct, inverse = np.unique(keys, return_inverse=True)
        child_col = self._index.child_col
        cols = np.array(
            [
                child_col(key // stride, values[key % stride])
                for key in distinct.tolist()
            ],
            dtype=np.int64,
        )[inverse]
        hist[senders] = cols
        self._anc[senders, k] = cols

    def _halt_deciders(self, tick: int, deciders: List[int]) -> None:
        """Line 12 on the algorithm objects: ``decide VAL; halt`` in pid
        order, recorded as the object loop does, before any after-send
        crash or the stop predicate can see the process."""
        kernel = self._kernel
        processes = kernel.processes
        values = self._values
        k = tick - 1
        time = float(tick)
        for pid in deciders:
            proc = processes[pid]
            proc.algorithm._decide(values[self._val[pid]], k)
            kernel.poll_decision(proc, time)
            kernel.record_halt(proc, k, time)
            self._deactivate(pid)

    # -- deliver -------------------------------------------------------
    def _deliver(self, tick: int, fired: List[int]) -> None:
        """Plan and count the round's deliveries from ``fired`` (the
        tick's senders), leaving the next compute's inputs in
        ``_pending``."""
        if not fired:
            return
        np = self._np
        n = self._n
        kernel = self._kernel
        trace = self._trace
        environment = self._environment
        correct = kernel.correct
        correct_senders = [pid for pid in fired if pid in correct]
        candidates = correct_senders or fired
        plan = environment.plan_round(tick, candidates)
        if plan.source is not None:
            trace.declared_sources[tick] = plan.source

        active = self._active
        receivers = self._active_pids()
        receiver_count = len(receivers)
        obligatory = plan.obligatory
        oblig_senders = [pid for pid in fired if pid in obligatory]
        deliveries = 0
        for sender in oblig_senders:
            deliveries += receiver_count - (1 if active[sender] else 0)

        extra_senders = [pid for pid in fired if pid not in obligatory]
        link_rows: Dict[int, List[bool]] = {}
        if extra_senders and receivers:
            link_rows = environment.plan_round_links(tick, extra_senders, receivers)

        extras_store = []
        const_delay = self._const_delay
        late_counts = self._late_counts
        max_rounds = kernel.max_rounds
        # With a constant delay past the horizon (or the never-delivered
        # sentinel) every late is dropped at queue time — senders whose
        # link row is all-false then contribute nothing at all.
        drop_all_late = const_delay is not None and (
            tick + const_delay > max_rounds or const_delay >= NEVER_DELIVERED
        )
        # Link policies may share one row object across senders (the
        # all-false silent row does); cache its true positions once.
        positions_cache: Dict[int, List[int]] = {}
        # (sender, timely receivers) whose lates the matrix draws
        drawn: List[Tuple[int, List[int]]] = []

        def late_receivers(sender: int, timely: List[int]) -> List[int]:
            if timely:
                timely_set = set(timely)
                return [
                    pid
                    for pid in receivers
                    if pid != sender and pid not in timely_set
                ]
            # no timely link: every receiver but the sender (sorted pids)
            at = bisect_left(receivers, sender)
            if at < receiver_count and receivers[at] == sender:
                return receivers[:at] + receivers[at + 1 :]
            return receivers

        for sender in extra_senders:
            row = link_rows.get(sender)
            if row is None:
                if drop_all_late:
                    continue
                timely: List[int] = []
            else:
                key = id(row)
                positions = positions_cache.get(key)
                if positions is None:
                    positions = positions_cache[key] = [
                        position for position, flag in enumerate(row) if flag
                    ]
                if drop_all_late and not positions:
                    continue
                timely = [receivers[position] for position in positions]
                if timely:
                    timely = [pid for pid in timely if pid != sender]
            if timely:
                deliveries += len(timely)
                mask = np.zeros(n, dtype=bool)
                mask[timely] = True
                extras_store.append((sender, mask))
            late_count = (
                receiver_count - (1 if active[sender] else 0) - len(timely)
            )
            if not late_count:
                continue
            if const_delay is None:
                # drawn below, the whole round as one delay matrix
                drawn.append((sender, timely))
                continue
            if const_delay < 1:
                late = late_receivers(sender, timely)
                check_late_row(tick, sender, late, [const_delay] * late_count)
            due = tick + const_delay
            if due <= max_rounds and const_delay < NEVER_DELIVERED:
                late_counts[due] = late_counts.get(due, 0) + late_count
                if const_delay == 1:
                    # Delay-1 lates are flushed before the next fire, so
                    # they reach the slot that fire computes from —
                    # state-effective, fed into the next tick exactly
                    # like timely extras (their delivery count still
                    # lands on the due tick).
                    mask = np.zeros(n, dtype=bool)
                    mask[late_receivers(sender, timely)] = True
                    extras_store.append((sender, mask))
        if drawn:
            self._count_late_matrix(tick, drawn, receivers, extras_store)
        if deliveries:
            self._sink.bulk_deliveries(deliveries)
        self._pending = (oblig_senders, extras_store)

    def _count_late_matrix(
        self, tick: int, drawn: list, receivers: List[int], extras_store: list
    ) -> None:
        """Count the late links of ``drawn`` (``(sender, timely
        receivers)`` pairs, each with a late link) per due tick: one
        ``delay_ticks_matrix`` draw and one ``np.bincount`` per chunk of
        senders (the counts offset by the smallest delay, so they span
        the drawn delays only).  Delay-1 links feed the next compute as
        extras, as on the row path."""
        np = self._np
        n = self._n
        count = len(receivers)
        pids = np.asarray(receivers, dtype=np.intp)
        position = np.full(n, -1, dtype=np.intp)
        position[pids] = np.arange(count)
        horizon = min(self._kernel.max_rounds - tick, NEVER_DELIVERED - 1)
        late_counts = self._late_counts
        environment = self._environment
        rows = max(1, _LATE_CHUNK_CELLS // count)
        for start in range(0, len(drawn), rows):
            chunk = drawn[start : start + rows]
            senders = [sender for sender, _ in chunk]
            late = np.ones((len(chunk), count), dtype=bool)
            for i, (_, timely) in enumerate(chunk):
                if timely:
                    late[i, position[timely]] = False
            own = position[senders]
            sending = np.flatnonzero(own >= 0)
            late[sending, own[sending]] = False
            delays = environment.delay_ticks_matrix(tick, senders, receivers, late)
            drawn_delays = delays[late]
            low = int(drawn_delays.min())
            if low < 1:
                i, j = np.argwhere(late & (delays < 1))[0].tolist()
                check_late_row(tick, senders[i], [receivers[j]], [int(delays[i, j])])
            kept = drawn_delays[drawn_delays <= horizon]
            if kept.size:
                counts = np.bincount(kept - low)
                for offset in np.flatnonzero(counts).tolist():
                    due = tick + low + offset
                    late_counts[due] = late_counts.get(due, 0) + int(counts[offset])
            if low == 1:
                ones = late & (delays == 1)
                for i in np.flatnonzero(ones.any(axis=1)).tolist():
                    mask = np.zeros(n, dtype=bool)
                    mask[pids[ones[i]]] = True
                    extras_store.append((senders[i], mask))

    # ------------------------------------------------------------------
    def _final_row(self, pid: int):
        """A process's final ``(row, cols)``: kept when it stopped, else
        its column of the last computed buffer."""
        return self._frozen.get(pid) or (self._C[: len(self._cols), pid], self._cols)

    def finalize(self) -> None:
        """Write matrix state back into the algorithm objects.

        Idempotent; called by the scheduler's ``run()`` when the run
        ends.  After this, histories (interned nodes), counter views
        and ``proc.round`` read exactly as the object engine would
        leave them — plus the heartbeat's leader flags, ``leader_since``
        and pre-append my/max counter captures, or Algorithm 3's
        ``VAL``, ``PROPOSED``, ``WRITTEN``, ``WRITTENOLD`` and leader
        flag (decisions were written during the run); counter maps
        materialize lazily on first access (see
        :func:`_install_final_views`).
        """
        if self._finalized:
            return
        self._finalized = True
        kernel = self._kernel
        _install_final_views(
            kernel, self._index, self._final_row, self._hist_col, self._last_fired
        )
        if not self._ess:
            _install_heartbeat_flags(
                kernel, self._leader, self._since, self._my, self._mx, self._computed
            )
            return
        values = self._values
        proposed = _row_sets(self._P, values)
        written_old = _row_sets(self._WO, values)
        written = self._decided_written
        for pid, algorithm in enumerate(kernel.algorithms):
            algorithm.val = values[self._val[pid]]
            algorithm.proposed = proposed[pid]
            # line 20 leaves WRITTEN = PROPOSED after every full round
            algorithm.written = written.get(pid, proposed[pid])
            algorithm.written_old = written_old[pid]
            algorithm._last_was_leader = bool(self._was_leader[pid])


class ColumnarDriftingEngine:
    """The drifting scheduler's matrix path: rows instead of envelopes.

    The drifting scheduler has no global tick to vectorize across
    processes — every process fires at its own nominal times and late
    messages land in old round slots.  What it *does* have is fan-out:
    one broadcast reaches up to ``n - 1`` receivers, and the object
    path materializes one envelope-delivery event (plus one receive and
    one inbox mutation) per link.  This engine plugs into the same
    :class:`~repro.giraf.scheduler.DriftingLoop` — which plans the
    rounds, gates, re-plans and dispatches the end-of-rounds for both
    paths — and replaces the per-link payload machinery with
    delivery-tick columns over a run-local slot table (the lock-step
    engine's conventions: ``_cols`` maps slot → history column with
    slot 0 a permanent zero, ``_slot_of`` maps column → slot).  A slot
    is assigned when the run first appends a history and is never
    dropped — processes sit in different rounds, so no round's minimum
    retires a column for all of them — and every prefix of a run's
    history was appended earlier by the same process, so line 9's
    prefix chains stay inside the table:

    * :meth:`fire` computes on rows (:meth:`_compute`), appends the new
      history's slot (:meth:`_slot`) and snapshots the broadcast once
      as ``(combined counter row, distinct history slots)`` — the
      pointwise minimum over every message riding in the envelope (the
      sender's own plus any early-arrived round mates), exactly what a
      receiver's merge would extract from the envelope's message set
      (:meth:`_broadcast`);
    * timely deliveries stay singleton ``cdel`` events (their latencies
      are per-link continuous draws), but a broadcast's late deliveries
      are grouped by distinct delay value into **one ``cbat`` event per
      (tick, round) batch** — drained as one masked pointwise-minimum
      fold into a per-round accumulator matrix plus bitmask updates
      (:meth:`_absorb`), instead of ``n - 1`` envelope drains; both
      report their receivers to the loop's gates;
    * a process's ``compute(k, ·)`` then reads
      ``min(own row, accumulator row)`` and bumps once per distinct
      received-history slot — work scaling with distinct histories,
      not with the number of messages received.

    Event drain order is identical to the object path's: timely
    latencies are fractional (``0.05 + 0.4·U ∈ (0.05, 0.45)``) while
    late latencies are integral tick counts, so a batch never ties a
    singleton; same-latency lates form exactly one batch drained in
    ascending-pid order (the object path's scheduling order); and
    cross-broadcast blocks keep their scheduling order.  Eligibility
    shares :func:`_decline_reason` with the lock-step engine (aggregate
    traces × stock heartbeat pseudo-leaders in initial state) plus two
    drifting-specific refusals — per-send payload statistics
    (compounded envelopes share embedded messages, so structural sizes
    are not recoverable from rows) and overridden latency methods (the
    disjointness argument above needs the stock draws).  Everything
    else runs the object path.  Every step is pinned byte-identical to
    the object path across environments × crashes × GST × periods and
    phases × event queues, on generated configurations cold and after
    an unrelated run, with the same environment calls in the same
    order (``tests/runtime/test_columnar_drifting_engine.py``).
    """

    def __init__(self, kernel, environment, *, record_snapshots):
        self._kernel = kernel
        self._environment = environment
        self._record_snapshots = record_snapshots
        self._trace = kernel.trace
        self._sink = kernel.sink
        n = len(kernel.processes)
        self._n = n
        import numpy as np

        self._np = np
        self._index = HistoryIndex()
        # --- the slot table (see the class docstring) -----------------
        #: slot -> history column (slot 0, always zero: -1)
        self._cols: List[int] = [-1]
        #: history column -> slot, for the columns this run stores
        self._slot_of: Dict[int, int] = {}
        #: slot -> the slots of its history and every proper prefix
        #: (line 9's prefix chain; slot 0's is empty)
        self._chain: list = [np.zeros(0, dtype=np.intp)]
        #: row pid, slot s = the counter pid sent for history
        #: ``_cols[s]`` with its latest round message; every counter
        #: matrix shares this capacity (see _slot)
        self._C = np.zeros((n, 8), dtype=np.int64)

        # --- per-process state ----------------------------------------
        # The loop's ``rounds`` (invocations fired so far) and
        # ``active``, shared once bind() plugs the engine in.
        self._loop = None
        self._rounds: List[int] = [0] * n
        self._active: List[bool] = [True] * n
        #: slot of each process's current history (0: never fired)
        self._hist_slot: List[int] = [0] * n
        self._brand = [algorithm.brand for algorithm in kernel.algorithms]
        # Length-1 column per process from the elector's actual initial
        # node, so finalize hands back the same interned object.
        self._initial_col = [
            self._index.intern(algorithm.elector.history)
            for algorithm in kernel.algorithms
        ]
        self._leader: List[bool] = [True] * n
        self._since: List[int] = [-1] * n
        self._my: List[int] = [0] * n
        self._mx: List[int] = [0] * n
        self._computed: List[bool] = [False] * n

        # --- per-round delivery state (evicted at the loop's horizon) -
        # round -> min-accumulator over delivered broadcast rows (one
        # matrix row per receiver, slots as in _C; ``seeded`` marks rows
        # holding at least one fold).  Round-1 broadcasts carry empty
        # counters and never seed an accumulator.
        self._acc: Dict[int, object] = {}
        self._seeded: Dict[int, List[bool]] = {}
        # round -> history slot -> receiver bitmask: who received a
        # message carrying that history this round (the bump set).
        self._colmask: Dict[int, Dict[int, int]] = {}
        # round -> id(row) -> (timely positions, late positions): link
        # policies may share one row object across senders (the
        # all-false silent row does), so the split is computed once per
        # distinct row, not once per broadcast.  The loop's link plan
        # keeps the round's rows alive (id stability) until both are
        # evicted at the same horizon.
        self._link_positions: Dict[int, Dict[int, tuple]] = {}
        #: the loop's delivery event kinds, drained by this engine
        self.handlers = {"cdel": self._cdel, "cbat": self._cbat}
        self._finalized = False

        # Constant-delay shortcut (the lock-step engine's test): every
        # late latency is then ``float(delay)`` — one batch event per
        # broadcast with no delay row drawn, or nothing at all when the
        # constant is the never-delivered sentinel.  Values are what
        # the stock ``late_latencies`` would return (it reads the same
        # policy), so skipping the call cannot move a draw: the stock
        # latency methods are pure functions of each link's key.
        self._const_delay = _constant_delay(environment)

    # ------------------------------------------------------------------
    @classmethod
    def try_build(
        cls, kernel, environment, *, record_snapshots
    ) -> Tuple[Optional["ColumnarDriftingEngine"], Optional[str]]:
        """``(engine, None)``, or ``(None, reason)`` when it cannot apply.

        Same conservatism as the lock-step engine, for heartbeat runs
        only, plus two drifting-specific refusals: payload statistics
        and non-stock latency draws (the caller then runs the object
        path and reports the reason).
        """
        reason = _decline_reason(kernel, kinds=(HeartbeatPseudoLeader,))
        if reason is None and kernel.payload_stats:
            reason = "payload_stats=True: compounded envelopes share messages"
        env_type = type(environment)
        if reason is None and (
            env_type.timely_latency is not Environment.timely_latency
            or env_type.late_latency is not Environment.late_latency
            or env_type.timely_latencies is not Environment.timely_latencies
            or env_type.late_latencies is not Environment.late_latencies
        ):
            reason = f"{env_type.__name__} overrides the stock latency draws"
        if reason is not None:
            return None, reason
        return cls(kernel, environment, record_snapshots=record_snapshots), None

    # ------------------------------------------------------------------
    # the loop's plug-in surface
    # ------------------------------------------------------------------
    def bind(self, loop) -> None:
        """Plug into the :class:`~repro.giraf.scheduler.DriftingLoop`
        about to drive this run, sharing its ``rounds`` and ``active``."""
        self._loop = loop
        self._rounds = loop.rounds
        self._active = loop.active

    def evict(self, horizon: int) -> None:
        """Drop the per-round delivery state below ``horizon``.

        A round every active process has passed can never be computed
        again (deliveries for it still *count* on drain, but their
        state is provably dead — the delivery handlers skip receivers
        that are already beyond the round).
        """
        for store in (self._acc, self._seeded, self._colmask, self._link_positions):
            for stale in [round_no for round_no in store if round_no < horizon]:
                del store[stale]

    def _cdel(self, now: float, data: tuple) -> None:
        """One timely link: fold it if its receiver still needs it."""
        env, receiver = data
        self._sink.bulk_deliveries(1)
        round_no = env[1]
        if self._active[receiver] and self._rounds[receiver] <= round_no:
            hit, mask = (receiver,), 1 << receiver
            self._absorb(env, hit, mask)
            self._loop.arrived(round_no, env[0], hit, mask, now)

    def _cbat(self, now: float, data: tuple) -> None:
        """One batch of late links sharing a latency, as one fold."""
        env, targets = data
        self._sink.bulk_deliveries(len(targets))
        round_no = env[1]
        active = self._active
        rounds = self._rounds
        hits = [
            receiver
            for receiver in targets
            if active[receiver] and rounds[receiver] <= round_no
        ]
        if hits:
            mask = 0
            for receiver in hits:
                mask |= 1 << receiver
            self._absorb(env, hits, mask)
            self._loop.arrived(round_no, env[0], hits, mask, now)

    # ------------------------------------------------------------------
    # slots and delivery state
    # ------------------------------------------------------------------
    def _slot(self, col: int, parent_slot: int) -> int:
        """The slot of history column ``col`` — appended by a process
        whose previous history sits in ``parent_slot`` (0: none) —
        assigning one on first sight.  Outgrowing the shared capacity
        doubles ``_C`` and every live accumulator."""
        slot = self._slot_of.get(col)
        if slot is not None:
            return slot
        np = self._np
        slot = self._slot_of[col] = len(self._cols)
        self._cols.append(col)
        self._chain.append(np.concatenate(([slot], self._chain[parent_slot])))
        capacity = self._C.shape[1]
        if slot >= capacity:
            def grown(matrix):
                wider = np.zeros((self._n, 2 * capacity), dtype=np.int64)
                wider[:, :capacity] = matrix
                return wider

            self._C = grown(self._C)
            for round_no, acc in self._acc.items():
                self._acc[round_no] = grown(acc)
        return slot

    def _absorb(self, env: tuple, receivers, mask: int) -> None:
        """Fold one broadcast into the per-round delivery state.

        ``receivers`` are the state-effective targets (active, not yet
        past the round), ascending; ``mask`` is their bitmask.  One
        masked matrix min per call — the batch twin of ``n`` envelope
        receives.
        """
        _sender, round_no, row, slots = env
        colmask = self._colmask.get(round_no)
        if colmask is None:
            colmask = self._colmask[round_no] = {}
        for slot in slots:
            colmask[slot] = colmask.get(slot, 0) | mask
        if row is None:
            # round-1 broadcasts carry empty counter maps: merging with
            # them yields the all-zero row the compute already starts
            # from, so there is nothing to accumulate
            return
        acc = self._acc.get(round_no)
        if acc is None:
            acc = self._acc[round_no] = self._np.zeros_like(self._C)
            self._seeded[round_no] = [False] * self._n
        seeded = self._seeded[round_no]
        width = len(row)
        fresh = [pid for pid in receivers if not seeded[pid]]
        olds = [pid for pid in receivers if seeded[pid]]
        if fresh:
            acc[fresh, :width] = row
        if olds:
            acc[olds, :width] = self._np.minimum(acc[olds, :width], row)
            # the broadcast's map is zero in the slots assigned after
            # its snapshot, so the minimum zeroes them
            acc[olds, width:] = 0
        for pid in receivers:
            seeded[pid] = True

    # ------------------------------------------------------------------
    # the fire: compute + records + broadcast
    # ------------------------------------------------------------------
    def _compute(self, pid: int, k: int):
        """``compute(k, ·)`` on rows; returns the new counter row."""
        width = len(self._cols)
        row = self._C[pid, :width]
        acc = self._acc.get(k)
        if acc is not None and self._seeded[k][pid]:
            merged = self._np.minimum(row, acc[pid, :width])
        else:
            merged = row.copy()
        # bumps: own round-k history plus every history that reached
        # this process in a round-k envelope — one prefix-max per
        # distinct slot, all maxima read before any write lands
        own = self._hist_slot[pid]
        chain = self._chain
        bumps = [(own, 1 + int(merged[chain[own]].max()))]
        colmask = self._colmask.get(k)
        if colmask:
            bit = 1 << pid
            for slot, mask in colmask.items():
                if mask & bit and slot != own:
                    bumps.append((slot, 1 + int(merged[chain[slot]].max())))
        for slot, value in bumps:
            merged[slot] = value
        own_value = int(merged[own])
        row_max = int(merged.max())
        leader_now = own_value >= row_max
        if leader_now:
            if not self._leader[pid]:
                self._since[pid] = k
        else:
            self._since[pid] = -1
        self._leader[pid] = leader_now
        self._my[pid] = own_value
        self._mx[pid] = row_max
        self._computed[pid] = True
        row[:] = merged
        return merged

    def fire(self, pid: int, invocation: int, now: float) -> bool:
        """The object path's ``end_of_round`` + records + broadcast, on
        rows (heartbeats never halt, so always ``True``)."""
        trace = self._trace
        computing = invocation - 1
        merged = self._compute(pid, computing) if computing >= 1 else None
        slot = self._hist_slot[pid]
        if invocation == 1:
            new_col = self._initial_col[pid]
        else:
            new_col = self._index.child_col(self._cols[slot], self._brand[pid])
        new_slot = self._hist_slot[pid] = self._slot(new_col, slot)
        self._rounds[pid] = invocation
        if computing >= 1:
            trace.record_compute(pid, computing, now)
            if self._record_snapshots:
                trace.record_snapshot(
                    pid,
                    computing,
                    {
                        "leader": self._leader[pid],
                        "my_counter": self._my[pid],
                        "max_counter": self._mx[pid],
                        "history_len": invocation,
                        "counter_entries": int((merged > 0).sum()),
                    },
                )
        trace.record_round_entry(pid, invocation, now)
        self._sink.send(pid, invocation, now, None)
        self._broadcast(pid, invocation, merged, new_slot, now)
        return True

    def _broadcast(self, pid, round_no, merged, new_slot, now: float) -> None:
        # Envelope snapshot: the combined counter row (pointwise min
        # over every message riding in the envelope — the sender's own
        # new message plus early-arrived round mates already folded
        # into this round's accumulator) and the distinct history
        # slots those messages carry.  Materialized once per
        # broadcast; receivers only ever fold it.
        acc = self._acc.get(round_no)
        if merged is not None and acc is not None and self._seeded[round_no][pid]:
            row = self._np.minimum(merged, acc[pid, : len(merged)])
        else:
            row = merged
        slots = [new_slot]
        colmask = self._colmask.get(round_no)
        if colmask:
            bit = 1 << pid
            for slot, mask in colmask.items():
                if mask & bit and slot != new_slot:
                    slots.append(slot)
        env = (pid, round_no, row, tuple(slots))

        # Delivery planning.  The latency values are exactly what the
        # object path draws — try_build pinned the stock (pure,
        # per-link-keyed) latency methods, so batching or skipping
        # calls cannot move a value.
        loop = self._loop
        environment = self._environment
        schedule = self._kernel.schedule
        const_delay = self._const_delay
        drop_late = const_delay is not None and const_delay >= NEVER_DELIVERED
        if loop.plan(round_no) >> pid & 1:
            timely = [other for other in range(self._n) if other != pid]
            late: List[int] = []
        else:
            link = loop.link_row(round_no, pid)
            cache = self._link_positions.setdefault(round_no, {})
            split = cache.get(id(link))
            if split is None:
                timely_pos: List[int] = []
                late_pos: List[int] = []
                for other, flag in enumerate(link):
                    (timely_pos if flag else late_pos).append(other)
                split = cache[id(link)] = (timely_pos, late_pos)
            timely_pos, late_pos = split
            timely = [other for other in timely_pos if other != pid]
            late = (
                [] if drop_late else [other for other in late_pos if other != pid]
            )
        if timely:
            timely_lat = environment.timely_latencies(round_no, pid, timely)
            for receiver, latency in zip(timely, timely_lat):
                if latency < NEVER_DELIVERED:
                    schedule(now + latency, "cdel", (env, receiver))
        if late:
            if const_delay is not None:
                schedule(now + float(const_delay), "cbat", (env, tuple(late)))
            else:
                late_lat = environment.late_latencies(round_no, pid, late)
                groups: Dict[float, List[int]] = {}
                for receiver, latency in zip(late, late_lat):
                    if latency < NEVER_DELIVERED:
                        groups.setdefault(latency, []).append(receiver)
                for latency in sorted(groups):
                    schedule(
                        now + latency, "cbat", (env, tuple(groups[latency]))
                    )

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Write matrix state back into the algorithm objects.

        Idempotent; same surface as the lock-step engine's finalize —
        lazy counter views over the final matrix rows
        (:func:`_install_final_views`).
        """
        if self._finalized:
            return
        self._finalized = True
        kernel = self._kernel
        width = len(self._cols)
        cols = self._np.array(self._cols, dtype=self._np.int64)
        _install_final_views(
            kernel,
            self._index,
            lambda pid: (self._C[pid, :width], cols),
            cols[self._hist_slot],
            self._rounds,
        )
        _install_heartbeat_flags(
            kernel, self._leader, self._since, self._my, self._mx, self._computed
        )

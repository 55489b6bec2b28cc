"""Runtime membership: join/leave equivalence, pinned byte-identical.

The tentpole acceptance matrix for elastic sharding.  The contract
under test: a cluster that calls :meth:`join_shard` (or
:meth:`leave_shard`) at round R is **byte-identical** — trace JSON,
views, add records — to a cluster *constructed* with the post-change
membership and driven through the same operation schedule.  Pinned
across all four backends × fork/spawn × round_batch {1,4} × window
{1,4}, plus the chaos case: a worker killed *mid-migration* under
``recover=True`` still converges byte-identically.

Adds in the shared workload are asynchronous (``begin_add``): a
rebalance rewrites every moved add's completion stamp to the replayed
(new-owner) timeline, but a *blocking* add's step loop has already
returned on the old owner's stamp — that control flow can't be
unobserved, so blocking adds could legally diverge in step counts.
Async adds pin the stronger, unconditional property.
"""

import pytest

from repro.errors import SimulationError
from repro.serialization import trace_to_json
from repro.sim.workloads import ChurnEnvironments
from repro.weakset.faults import parse_fault_plan
from repro.weakset.ring import HashRing, ring_for_shards
from repro.weakset.sharding import SerialBackend, ShardedWeakSetCluster

pytestmark = pytest.mark.membership

N = 3
TOTAL_ROUNDS = 12
EVENT_AT = 5
VALUES = [f"member-val-{i}" for i in range(8)]
ADDS = [
    (0, 0, VALUES[0]),
    (0, 1, VALUES[1]),
    (2, 2, VALUES[2]),
    (3, 0, VALUES[3]),  # typically still in flight at EVENT_AT
    (6, 1, VALUES[4]),
    (8, 2, VALUES[5]),
]


def _build(backend, *, shards=2, members=None, start_method=None, **kwargs):
    extra = {}
    if backend in ("multiprocess", "socket") and start_method is not None:
        extra["start_method"] = start_method
    if members is not None:
        extra["members"] = members
    return ShardedWeakSetCluster(
        N,
        shards=shards,
        environment_factory=ChurnEnvironments(pattern="random", seed=11),
        backend=backend,
        **extra,
        **kwargs,
    )


def _run(cluster, event=None, adds=ADDS):
    """Drive the fixed async workload; fire ``event`` at EVENT_AT."""
    round_now = 0
    fired = event is None
    records = []
    for at, pid, value in adds:
        if not fired and at >= EVENT_AT:
            cluster.advance(EVENT_AT - round_now)
            round_now = EVENT_AT
            event(cluster)
            fired = True
        if at > round_now:
            cluster.advance(at - round_now)
            round_now = at
        records.append(cluster.begin_add(pid, value))
    if not fired:
        cluster.advance(EVENT_AT - round_now)
        round_now = EVENT_AT
        event(cluster)
    cluster.advance(TOTAL_ROUNDS - round_now)
    views = [frozenset(cluster.handle(pid).get()) for pid in range(N)]
    adds = [(r.pid, r.value, r.start, r.end) for r in records]
    return views, adds


def _snapshot(cluster):
    return [trace_to_json(trace) for trace in cluster.traces()]


GRID = [(1, 1), (4, 1), (1, 4), (4, 4)]


class TestJoinEquivalence:
    @pytest.mark.parametrize("round_batch,window", GRID)
    @pytest.mark.parametrize("backend", ["serial", "inproc"])
    def test_join_matches_fresh_construction(self, backend, round_batch, window):
        grown = _build(backend, round_batch=round_batch, window=window)
        fresh = _build(backend, shards=3, round_batch=round_batch, window=window)
        with grown, fresh:
            grown_result = _run(grown, event=lambda c: c.join_shard())
            assert grown.members == [0, 1, 2]
            stats = grown.last_rebalance
            assert stats.joined == (2,) and stats.left == ()
            assert grown_result == _run(fresh)
            assert _snapshot(grown) == _snapshot(fresh)

    @pytest.mark.parametrize("round_batch,window", GRID)
    @pytest.mark.parametrize("backend", ["multiprocess", "socket"])
    def test_join_matches_fresh_construction_process_backends(
        self, backend, round_batch, window, start_method
    ):
        grown = _build(
            backend,
            round_batch=round_batch,
            window=window,
            start_method=start_method,
        )
        fresh = _build(
            backend,
            shards=3,
            round_batch=round_batch,
            window=window,
            start_method=start_method,
        )
        with grown, fresh:
            grown_result = _run(grown, event=lambda c: c.join_shard())
            assert grown.members == [0, 1, 2]
            assert grown_result == _run(fresh)
            assert _snapshot(grown) == _snapshot(fresh)


class TestLeaveEquivalence:
    @pytest.mark.parametrize("backend", ["serial", "inproc"])
    @pytest.mark.parametrize("round_batch,window", GRID)
    def test_leave_matches_fresh_construction(self, backend, round_batch, window):
        shrunk = _build(
            backend, shards=3, round_batch=round_batch, window=window
        )
        fresh = _build(
            backend, members=[0, 2], round_batch=round_batch, window=window
        )
        with shrunk, fresh:
            shrunk_result = _run(shrunk, event=lambda c: c.leave_shard(1))
            assert shrunk.members == [0, 2]
            stats = shrunk.last_rebalance
            assert stats.left == (1,) and stats.joined == ()
            assert shrunk_result == _run(fresh)
            assert _snapshot(shrunk) == _snapshot(fresh)

    @pytest.mark.parametrize("backend", ["multiprocess", "socket"])
    def test_leave_matches_fresh_construction_process_backends(
        self, backend, start_method
    ):
        shrunk = _build(backend, shards=3, start_method=start_method)
        fresh = _build(backend, members=[0, 2], start_method=start_method)
        with shrunk, fresh:
            shrunk_result = _run(shrunk, event=lambda c: c.leave_shard(1))
            assert shrunk.members == [0, 2]
            assert shrunk_result == _run(fresh)
            assert _snapshot(shrunk) == _snapshot(fresh)


def _adds_migrating_on_join():
    """ADDS with the add in flight at EVENT_AT (round 3) carrying a value
    the 2 -> 3 join moves, found on the rings themselves as
    :func:`_values_colliding_on_join` does — so the join must migrate
    and replay it whatever the ring places where — plus the shard the
    join rebuilds: that value's old owner."""
    before, after = ring_for_shards(2), ring_for_shards(3)
    moved = next(
        (
            f"migrating-{i}"
            for i in range(10_000)
            if before.owner(f"migrating-{i}") != after.owner(f"migrating-{i}")
        ),
        None,
    )
    adds = [
        (at, pid, moved if value == VALUES[3] else value) for at, pid, value in ADDS
    ]
    return adds, None if moved is None else before.owner(moved)


@pytest.mark.chaos
class TestChaosDuringMigration:
    @pytest.mark.parametrize("backend", ["multiprocess", "socket"])
    def test_kill_mid_migration_heals_byte_identically(
        self, backend, start_method
    ):
        """A worker killed on its 2nd migration exchange is respawned
        under the supervisor and the rebalanced run still converges
        byte-identical to a fresh unsupervised post-join cluster."""
        adds, victim = _adds_migrating_on_join()
        assert victim is not None, (
            "ring_for_shards(3) moves none of 10,000 candidate values off "
            "ring_for_shards(2), so the join would migrate nothing and the "
            "rebalance-phase kill could never fire"
        )
        plan = parse_fault_plan(f"kill:{victim}:2:rebalance")
        grown = _build(
            backend, recover=True, fault_plan=plan, start_method=start_method
        )
        fresh = _build(backend, shards=3, start_method=start_method)
        with grown, fresh:
            grown_result = _run(grown, event=lambda c: c.join_shard(), adds=adds)
            stats = grown.recovery_stats
            assert stats.detections >= 1
            assert stats.respawns >= 1
            assert victim in stats.recovered_shards
            assert grown_result == _run(fresh, adds=adds)
            assert _snapshot(grown) == _snapshot(fresh)

    def test_rebalance_phase_faults_stay_quiet_in_live_traffic(self):
        """A ``rebalance``-phase fault never fires on ordinary round
        exchanges — the run below never rebalances, so the scheduled
        kill must never trigger."""
        plan = parse_fault_plan("kill:0:1:rebalance")
        with _build("inproc", fault_plan=plan) as cluster:
            cluster.handle(0).add_async("quiet")
            assert cluster.advance(8) == 8  # would die here if it fired


def _values_colliding_on_join():
    """Two values the 2 -> 3 join moves to member 2 from *different*
    old owners — legal as concurrent adds by one pid before the join,
    impossible after it."""
    old_ring = ring_for_shards(2)
    new_ring = HashRing([0, 1, 2])
    first = second = None
    for i in range(10_000):
        value = f"collide-{i}"
        if new_ring.owner(value) != 2:
            continue
        if old_ring.owner(value) == 0:
            first = first or value
        else:
            second = second or value
        if first is not None and second is not None:
            return first, second
    raise AssertionError("no colliding pair found")


class TestInFlightAdds:
    @pytest.mark.parametrize("window", [1, 4])
    @pytest.mark.parametrize("backend", ["serial", "inproc"])
    def test_pending_and_in_flight_adds_move_with_their_values(
        self, backend, window
    ):
        """An add still open at the join — delivered-but-uncompleted at
        window=1, queued-and-undelivered at window=4 — lands exactly
        where a fresh post-join cluster would put it, with the
        identical completion stamp."""
        def drive(cluster, event=None):
            records = [cluster.begin_add(0, VALUES[0])]
            cluster.advance(EVENT_AT)
            records.append(cluster.begin_add(2, VALUES[6]))
            if event is not None:
                event(cluster)
            cluster.advance(TOTAL_ROUNDS - EVENT_AT)
            views = [frozenset(cluster.handle(pid).get()) for pid in range(N)]
            return views, [(r.pid, r.value, r.start, r.end) for r in records]

        grown = _build(backend, window=window)
        fresh = _build(backend, shards=3, window=window)
        with grown, fresh:
            assert drive(grown, event=lambda c: c.join_shard()) == drive(fresh)
            assert _snapshot(grown) == _snapshot(fresh)

    def test_colliding_in_flight_adds_reject_the_rebalance(self):
        """Two in-flight adds by one pid whose values would share a new
        owner have no equivalent state under the new membership (a
        fresh cluster would have rejected the second add): the
        rebalance fails closed before mutating anything."""
        first, second = _values_colliding_on_join()
        with _build("serial") as cluster:
            cluster.begin_add(0, first)
            cluster.begin_add(0, second)  # legal: different old shards
            with pytest.raises(SimulationError, match="in-flight"):
                cluster.join_shard()
            # nothing was mutated: the run continues on old membership
            assert cluster.members == [0, 1]
            cluster.advance(6)

    @pytest.mark.parametrize(
        "backend", ["serial", "inproc", "multiprocess", "socket"]
    )
    def test_inadmissible_replay_fails_closed(self, backend):
        """The same two adds, both *completed* before the join: the plan
        admits them, but replaying member 2's history issues both in
        one tick, which its world rejects.  Worlds already rebuilt
        under the new routing cannot be trusted to match the parent's
        old membership, so the backend fails closed — serial exactly
        like the backends behind a wire, in process or across one."""
        first, second = _values_colliding_on_join()
        with _build(backend) as cluster:
            records = [cluster.begin_add(0, first), cluster.begin_add(0, second)]
            cluster.advance(TOTAL_ROUNDS)
            assert all(record.end is not None for record in records)
            with pytest.raises(SimulationError, match="member 2"):
                cluster.join_shard()
            with pytest.raises(SimulationError, match="backend failed"):
                cluster.advance(1)


class TestMembershipSurface:
    def test_explicit_member_ids_and_construction_kwarg(self):
        with _build("serial") as cluster:
            assert cluster.join_shard(7) == 7
            assert cluster.members == [0, 1, 7]
            cluster.leave_shard(0)
            assert cluster.members == [1, 7]
        with _build("serial", shards=1, members=[1, 7]) as direct:
            assert direct.members == [1, 7]
            assert direct.num_shards == 2

    def test_join_and_leave_validate(self):
        with _build("serial") as cluster:
            with pytest.raises(SimulationError, match="already"):
                cluster.join_shard(1)
            with pytest.raises(SimulationError, match="non-negative"):
                cluster.join_shard(-3)
            with pytest.raises(SimulationError, match="not in the cluster"):
                cluster.leave_shard(9)
        with _build("serial", shards=1) as single:
            with pytest.raises(SimulationError, match="last shard member"):
                single.leave_shard(0)

    def test_members_kwarg_conflicts_are_rejected(self):
        with pytest.raises(SimulationError, match="shards=3"):
            ShardedWeakSetCluster(N, shards=3, members=[0, 1])
        backend = SerialBackend(
            N,
            shards=2,
            environment_factory=ChurnEnvironments(pattern="random", seed=11),
            crash_schedule=None,
            max_total_rounds=10_000,
            trace_mode="full",
        )
        with pytest.raises(SimulationError, match="construction-time"):
            ShardedWeakSetCluster(N, shards=2, backend=backend, members=[0, 1])

    def test_mux_backend_rejects_membership(self):
        with _build("socket", shards=4, worlds_per_worker=2) as cluster:
            with pytest.raises(SimulationError, match="worlds_per_worker"):
                cluster.join_shard()

    def test_rebalance_stats_account_for_the_replay(self):
        with _build("inproc") as cluster:
            for pid, value in ((0, VALUES[0]), (1, VALUES[1]), (2, VALUES[2])):
                cluster.begin_add(pid, value)
            cluster.advance(EVENT_AT)
            cluster.join_shard()
            stats = cluster.last_rebalance
            assert stats.joined == (2,)
            assert 2 in stats.rebuilt_members
            # every rebuilt world replayed to the current round
            assert stats.replayed_ticks == EVENT_AT * len(stats.rebuilt_members)
            assert stats.wall_clock >= 0.0
            assert stats.moved_values >= 0

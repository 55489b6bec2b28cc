"""Worker supervision: recovered runs == uninterrupted runs, pinned.

The acceptance bar for the self-healing layer: a cluster whose shard
workers are killed at arbitrary exchanges — pipe and socket backends,
``round_batch`` 1 and 4, both multiprocessing start methods — must,
under ``recover=True``, produce **byte-identical** final traces to an
uninterrupted serial run, with :class:`ShardRecoveryStats` reporting
exactly what the healing cost.  Also here: the deterministic
:class:`RetryPolicy` schedule, the knobs' rejection paths, and the
clean error when recovery itself is impossible.

Process-backed tests take the ``start_method`` fixture (see
``conftest.py``) so the module runs under both ``fork`` and ``spawn``.
"""

import multiprocessing
import threading

import pytest

from repro.errors import ProtocolMisuse, SimulationError
from repro.serialization import trace_to_json
from repro.sim.runner import run_churn_workload
from repro.sim.workloads import ChurnEnvironments
from repro.weakset.faults import Fault, FaultPlan, parse_fault_plan
from repro.weakset.protocol import (
    ErrorReply,
    MuxReply,
    MuxRequest,
    PeekReply,
    PeekRequest,
    ReplayRequest,
    StepBatchRequest,
    StopRequest,
    WorldConfig,
)
from repro.weakset.sharding import (
    SerialBackend,
    ShardServer,
    ShardedWeakSetCluster,
    shard_of,
)
from repro.weakset.supervisor import RetryPolicy, ShardSupervisor
from repro.weakset.transport import PipeTransport, serve_requests

#: fast healing for tests: tight backoff, short reply deadline.
_POLICY = RetryPolicy(attempts=3, base_delay=0.01, request_timeout=30.0)


class TestRetryPolicy:
    def test_backoff_is_exponential_and_capped(self):
        policy = RetryPolicy(
            attempts=4, base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0
        )
        assert list(policy.backoff("connect")) == pytest.approx(
            [0.1, 0.2, 0.4, 0.5]
        )

    def test_jittered_schedule_is_deterministic(self):
        policy = RetryPolicy(attempts=5, base_delay=0.1, jitter=0.5, seed=9)
        first = list(policy.backoff("respawn", 2))
        assert first == list(policy.backoff("respawn", 2))
        assert first != list(policy.backoff("respawn", 3))
        for base, jittered in zip(
            RetryPolicy(attempts=5, base_delay=0.1).backoff("x"), first
        ):
            assert base <= jittered <= base * 1.5 + 1e-12

    def test_multiplier_one_is_a_fixed_delay(self):
        policy = RetryPolicy(attempts=3, base_delay=0.2, multiplier=1.0)
        assert list(policy.backoff("x")) == pytest.approx([0.2, 0.2, 0.2])

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"attempts": 0},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"jitter": -1.0},
            {"request_timeout": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(SimulationError):
            RetryPolicy(**kwargs)


def _drive(cluster):
    """A fixed mixed workload: blocking and async adds, gets."""
    handles = cluster.handles()
    handles[0].add("alpha")
    records = [handles[pid].add_async(f"bg-{pid}") for pid in (1, 2)]
    cluster.advance(6)
    handles[1].add("beta")
    views = [frozenset(handle.get()) for handle in handles]
    return views, [r.end for r in records]


def _snapshot(cluster):
    return [trace_to_json(trace) for trace in cluster.traces()]


def _serial_reference():
    cluster = ShardedWeakSetCluster(
        3, shards=2, environment_factory=ChurnEnvironments(seed=11), backend="serial"
    )
    return _drive(cluster), _snapshot(cluster)


def _read_marks(round_batch):
    """The 1-based driver exchanges of ``_drive`` that carry the first
    ``get``'s peeks and the ``traces()`` fetch, read off
    ``backend.exchanges`` on an unfaulted run."""
    cluster = ShardedWeakSetCluster(
        3,
        shards=2,
        environment_factory=ChurnEnvironments(seed=11),
        backend="inproc",
        round_batch=round_batch,
    )
    backend = cluster.backend
    peeks = []
    local_views = backend.local_views

    def recording(pid):
        peeks.append(backend.exchanges + 1)
        return local_views(pid)

    backend.local_views = recording
    with cluster:
        _drive(cluster)
        return peeks[0], backend.exchanges + 1


def _advance_mark():
    """The 1-based driver exchange carrying the first step of
    ``_drive``'s ``advance(6)``, read off ``backend.exchanges`` on an
    unfaulted run (the blocking add before it steps one tick at a
    time, so the mark is the same at every batch size).  With
    ``round_batch=4`` that step carries 4 ticks and the advance's
    second step, 2 more, is still to be sent."""
    cluster = ShardedWeakSetCluster(
        3,
        shards=2,
        environment_factory=ChurnEnvironments(seed=11),
        backend="inproc",
    )
    backend = cluster.backend
    marks = []
    advance = backend.advance

    def recording(rounds):
        marks.append(backend.exchanges + 1)
        return advance(rounds)

    backend.advance = recording
    with cluster:
        _drive(cluster)
        return marks[0]


@pytest.mark.chaos
class TestRecoveredRunsAreByteIdentical:
    """The tentpole acceptance: kill workers mid-run, recover, compare
    the final traces byte-for-byte against an uninterrupted run."""

    def _build(self, backend, *, plan, start_method="fork", round_batch=1):
        return ShardedWeakSetCluster(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=11),
            backend=backend,
            start_method=start_method,
            round_batch=round_batch,
            recover=True,
            fault_plan=plan,
            retry_policy=_POLICY,
        )

    @pytest.mark.parametrize("backend", ["multiprocess", "socket"])
    @pytest.mark.parametrize("round_batch", [1, 4])
    def test_injected_kill_recovers(self, start_method, backend, round_batch):
        reference, traces = _serial_reference()
        plan = FaultPlan((Fault("kill", 0, 2),))
        with self._build(
            backend, plan=plan, start_method=start_method, round_batch=round_batch
        ) as cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            stats = cluster.recovery_stats
            assert stats.detections == 1 and stats.respawns == 1
            assert stats.recovered_shards == [0]
            assert stats.replayed_rounds >= 1
            assert stats.wall_clock > 0.0

    @pytest.mark.parametrize("round_batch", [1, 4])
    @pytest.mark.parametrize("target", ["peek", "trace"])
    def test_kill_at_a_peek_or_trace_fetch_recovers(
        self, start_method, target, round_batch
    ):
        """Peeks and trace fetches heal like steps: a kill at the
        exchange carrying the first ``get``'s peeks, or at the
        ``traces()`` fetch, respawns the worker, replays its
        acknowledged log and re-issues the interrupted request."""
        reference, traces = _serial_reference()
        peek_at, trace_at = _read_marks(round_batch)
        at = peek_at if target == "peek" else trace_at
        plan = FaultPlan((Fault("kill", 0, at),))
        with self._build(
            "multiprocess", plan=plan, start_method=start_method,
            round_batch=round_batch,
        ) as cluster:
            assert _drive(cluster) == reference
            assert cluster.backend.exchanges == trace_at - 1
            assert _snapshot(cluster) == traces
            stats = cluster.recovery_stats
            assert stats.detections == 1 and stats.respawns == 1
            assert stats.recovered_shards == [0]

    def test_inproc_kill_recovers(self):
        reference, traces = _serial_reference()
        plan = FaultPlan((Fault("kill", 1, 3),))
        with self._build("inproc", plan=plan) as cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            assert cluster.recovery_stats.recovered_shards == [1]

    @pytest.mark.parametrize("kind", ["kill", "reset"])
    def test_inproc_death_mid_batch_recovers(self, kind):
        """The in-process transport heals a death while a 4-tick step
        is in flight the same way the process backends do."""
        reference, traces = _serial_reference()
        plan = FaultPlan((Fault(kind, 1, _advance_mark()),))
        with self._build("inproc", plan=plan, round_batch=4) as cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            stats = cluster.recovery_stats
            assert stats.detections == 1 and stats.respawns == 1
            assert stats.recovered_shards == [1]

    @pytest.mark.parametrize("backend", ["multiprocess", "socket"])
    @pytest.mark.parametrize("kind", ["kill", "reset"])
    def test_death_mid_batch_recovers(self, start_method, backend, kind):
        """A worker dies while a 4-tick step is in flight — before the
        request reaches it (kill) or after it ran the ticks, with the
        reply lost (reset) — and the advance still owes a second step.
        The rebuild replays the acknowledged log and re-issues the
        4-tick step; the driver then sends the next one."""
        reference, traces = _serial_reference()
        plan = FaultPlan((Fault(kind, 0, _advance_mark()),))
        with self._build(
            backend, plan=plan, start_method=start_method, round_batch=4
        ) as cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            stats = cluster.recovery_stats
            assert stats.detections == 1 and stats.respawns == 1
            assert stats.recovered_shards == [0]

    @pytest.mark.parametrize("round_batch", [1, 4])
    def test_both_shards_killed_recover(self, start_method, round_batch):
        reference, traces = _serial_reference()
        plan = FaultPlan.kill_fraction(2, 1.0, seed=0, window=(2, 4))
        with self._build(
            "multiprocess", plan=plan, start_method=start_method,
            round_batch=round_batch,
        ) as cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            assert cluster.recovery_stats.respawns == 2

    def test_socket_reset_mid_harvest_recovers(self, start_method):
        reference, traces = _serial_reference()
        plan = parse_fault_plan("reset:1:3")
        with self._build(
            "socket", plan=plan, start_method=start_method
        ) as cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            assert cluster.recovery_stats.recovered_shards == [1]

    def test_delayed_reply_past_its_deadline_heals(self):
        """A delay fault holding a batched step's reply past the
        per-request deadline is detected as a timeout and healed."""
        reference, traces = _serial_reference()
        plan = FaultPlan((Fault("delay", 0, _advance_mark(), delay=2.0),))
        policy = RetryPolicy(attempts=3, base_delay=0.01, request_timeout=0.3)
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=11),
            backend="multiprocess",
            round_batch=4,
            recover=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        with cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            assert cluster.recovery_stats.detections == 1

    def test_dropped_frame_recovers_via_reply_timeout(self):
        reference, traces = _serial_reference()
        plan = parse_fault_plan("drop:0:2")
        policy = RetryPolicy(attempts=3, base_delay=0.01, request_timeout=0.5)
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=11),
            backend="multiprocess",
            recover=True,
            fault_plan=plan,
            retry_policy=policy,
        )
        with cluster:
            assert _drive(cluster) == reference
            assert _snapshot(cluster) == traces
            assert cluster.recovery_stats.detections == 1

    def test_real_sigkill_recovers(self, start_method):
        """Not an injected fault: SIGKILL the worker process itself;
        the supervisor must detect the dead pipe and heal."""
        reference, traces = _serial_reference()
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=11),
            backend="multiprocess",
            start_method=start_method,
            recover=True,
            retry_policy=_POLICY,
        )
        with cluster:
            handles = cluster.handles()
            handles[0].add("alpha")
            records = [handles[pid].add_async(f"bg-{pid}") for pid in (1, 2)]
            cluster.advance(2)
            victim = cluster.backend._workers[0]
            victim.kill()
            victim.join(timeout=5.0)
            cluster.advance(4)
            handles[1].add("beta")
            views = [frozenset(handle.get()) for handle in handles]
            assert (views, [r.end for r in records]) == reference
            assert _snapshot(cluster) == traces
            assert cluster.recovery_stats.respawns >= 1


@pytest.mark.chaos
class TestRecoveryLimits:
    def test_serial_backend_has_nothing_to_supervise(self):
        with pytest.raises(SimulationError, match="serial backend has no workers"):
            ShardedWeakSetCluster(3, shards=2, backend="serial", recover=True)
        with pytest.raises(SimulationError, match="serial backend"):
            ShardedWeakSetCluster(
                3, shards=2, backend="serial", fault_plan=parse_fault_plan("kill:0:1")
            )

    def test_constructed_instances_reject_the_knobs(self):
        backend = SerialBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=1),
            crash_schedule=None,
            max_total_rounds=100,
            trace_mode="full",
        )
        with pytest.raises(SimulationError, match="construction-time"):
            ShardedWeakSetCluster(3, shards=2, backend=backend, recover=True)

    def test_exhausted_respawns_fail_cleanly(self):
        policy = RetryPolicy(attempts=2, base_delay=0.0, request_timeout=1.0)
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            backend="inproc",
            recover=True,
            fault_plan=FaultPlan((Fault("kill", 0, 2),)),
            retry_policy=policy,
        )

        def refuse(member):
            raise SimulationError("the nursery is closed")

        cluster.backend._spawn_world = refuse
        with pytest.raises(
            SimulationError,
            match=r"shard 0 worker died .* could not be recovered after "
            r"2 respawn attempt\(s\): the nursery is closed",
        ):
            cluster.advance(6)
        with pytest.raises(SimulationError):  # poisoned, like any failure
            cluster.step()
        cluster.close()

    def test_unsupervised_backends_report_no_stats(self):
        with ShardedWeakSetCluster(3, shards=2, backend="inproc") as cluster:
            assert cluster.recovery_stats is None
        serial = ShardedWeakSetCluster(3, shards=2, backend="serial")
        assert serial.recovery_stats is None

    def test_supervisor_requires_no_policy(self):
        cluster = ShardedWeakSetCluster(3, shards=2, backend="inproc", recover=True)
        try:
            assert isinstance(cluster.backend._supervisor, ShardSupervisor)
            assert cluster.recovery_stats.detections == 0
            cluster.advance(2)  # healthy supervised exchanges work too
        finally:
            cluster.close()


class TestSupervisedExchange:
    """One request set in flight: a rebuilt world replays only the
    steps folded into the backend's history, then the set's request is
    re-issued to it."""

    def _build(self, plan=None):
        return ShardedWeakSetCluster(
            3,
            shards=2,
            backend="inproc",
            round_batch=4,
            recover=True,
            fault_plan=plan,
            retry_policy=_POLICY,
        )

    @pytest.mark.parametrize("killed", [0, 1])
    def test_rebuild_reissues_the_set_in_flight(self, killed):
        """A kill at the second 4-tick step: the rebuild replays the
        acknowledged first step, then re-issues the lost one, whose
        reply answers the exchange.  Killing shard 1 means shard 0's
        reply of the set was already read: its step is still not
        folded, so it is not replayed."""
        cluster = self._build(FaultPlan((Fault("kill", killed, 2),)))
        backend = cluster.backend
        rebuilds = []
        rebuild = backend._rebuild

        def recording(member, channel, history, in_flight=(), **kwargs):
            rebuilds.append((member, list(history), list(in_flight)))
            return rebuild(member, channel, history, in_flight, **kwargs)

        backend._rebuild = recording
        with cluster:
            assert cluster.advance(8) == 8
            step = StepBatchRequest(rounds=4)
            assert rebuilds == [(killed, [step], [step])]
            assert cluster.recovery_stats.recovered_shards == [killed]
            assert cluster.now == 8.0


@pytest.mark.chaos
class TestRebuildTraffic:
    """A rebuilt world is replayed from the backend's one history in
    one frame, whatever that history holds."""

    @pytest.mark.parametrize("at, replayed", [(3, 2), (40, 39)])
    def test_a_recovered_world_gets_one_frame(self, count_frames, at, replayed):
        """C5's full stream (n=8, 2 shards, 48 spaced adds) with shard
        0's worker killed at exchange ``at``: one ``ReplayRequest``
        carries the ``at - 1`` acknowledged ticks and the step in
        flight."""
        frames = count_frames("_recover")
        run = run_churn_workload(
            n=8, shards=2, total_adds=48, adds_per_round=1,
            pattern="random", backend="inproc", seed=0,
            recover=True, fault_plan=FaultPlan((Fault("kill", 0, at),)),
            retry_policy=_POLICY,
        )
        clean = run_churn_workload(
            n=8, shards=2, total_adds=48, adds_per_round=1,
            pattern="random", backend="serial", seed=0,
        )
        assert frames == ["ReplayRequest"]
        assert (run.recovery.respawns, run.recovery.replayed_rounds) == (1, replayed)
        assert (run.completed, run.latencies) == (clean.completed, clean.latencies)

    @pytest.mark.parametrize("owner", [0, 1])
    def test_a_queued_add_survives_a_kill_at_a_trace_fetch(self, owner):
        """An add queued but not yet sent when its owner dies at a
        ``traces()`` fetch is no part of the replay (the fetch does not
        carry queued adds): it reaches the rebuilt world with the next
        step, exactly when it reaches a clean run's world."""
        value = next(
            f"queued-{i}" for i in range(100) if shard_of(f"queued-{i}", 2) == owner
        )

        def drive(cluster):
            cluster.handle(0).add("first")
            cluster.advance(2)
            record = cluster.begin_add(1, value)
            fetch_at = cluster.backend.exchanges + 1
            fetched = _snapshot(cluster)  # the add is still queued here
            cluster.advance(6)
            return fetch_at, fetched, _snapshot(cluster), record.end

        def build(**kwargs):
            return ShardedWeakSetCluster(
                3,
                shards=2,
                environment_factory=ChurnEnvironments(seed=11),
                backend="inproc",
                **kwargs,
            )

        clean = build()
        with clean:
            expected = drive(clean)
        healed = build(
            recover=True,
            fault_plan=FaultPlan((Fault("kill", owner, expected[0]),)),
            retry_policy=_POLICY,
        )
        with healed:
            assert drive(healed) == expected
            assert expected[-1] is not None
            assert healed.recovery_stats.respawns == 1


def _world():
    """A shard-0 world three ticks in."""
    config = WorldConfig(3, ChurnEnvironments(seed=11), None, 100, "full")
    server = ShardServer(config, shard_index=0)
    server.handle(StepBatchRequest(rounds=3))
    return server


class TestReplayFailsClosed:
    """The worker checks a replay frame whole before it resets; a
    request that raises mid-replay ends the frame with one error; the
    parent takes nothing but one matching reply per request."""

    def test_worker_refuses_a_replay_for_another_shard(self):
        server = _world()
        with pytest.raises(ProtocolMisuse, match="replay aimed at shard 1"):
            server.handle(ReplayRequest(shard_index=1, subs=()))
        assert server.cluster.now == 3.0  # refused before the reset

    @pytest.mark.parametrize(
        "sub",
        [
            StopRequest(),
            MuxRequest(subs=(PeekRequest(pid=0),)),
            ReplayRequest(shard_index=0, subs=()),
        ],
        ids=["stop", "mux", "replay"],
    )
    def test_worker_refuses_a_request_it_cannot_replay(self, sub):
        server = _world()
        replay = ReplayRequest(shard_index=0, subs=(StepBatchRequest(rounds=1), sub))
        with pytest.raises(ProtocolMisuse, match=f"not {type(sub).__name__}"):
            server.handle(replay)
        assert server.cluster.now == 3.0

    def test_a_raising_request_ends_the_frame_with_one_error(self):
        """Two adds by one process in one tick: the world raises on the
        second sub-request, the serve loop sends one ``ErrorReply`` for
        the whole frame and ends."""
        parent, child = multiprocessing.Pipe()
        worker = threading.Thread(
            target=serve_requests, args=(PipeTransport(child), _world().handle)
        )
        worker.start()
        channel = PipeTransport(parent)
        try:
            twice = StepBatchRequest(rounds=1, adds=((0, 1, "a"), (1, 1, "b")))
            channel.send(
                ReplayRequest(
                    shard_index=0,
                    subs=(StepBatchRequest(rounds=2), twice, PeekRequest(pid=0)),
                )
            )
            assert channel.poll(5.0)
            reply = channel.recv()
            assert type(reply) is ErrorReply and "ProtocolMisuse" in reply.message
            worker.join(timeout=5.0)
            assert not worker.is_alive()
            assert not channel.poll(0.1)
        finally:
            channel.close()
            PipeTransport(child).close()

    @pytest.mark.parametrize(
        "lie",
        [
            lambda reply: MuxReply(subs=reply.subs[:-1]),
            lambda reply: MuxReply(
                subs=(*reply.subs[:-1], PeekReply(crashed=False, proposed=frozenset()))
            ),
            lambda reply: reply.subs[-1],
        ],
        ids=["sub-count", "sub-type", "bare-reply"],
    )
    @pytest.mark.parametrize("recover", [False, True], ids=["fail-closed", "recover"])
    def test_parent_poisons_the_backend_on_a_mismatched_reply(
        self, monkeypatch, lie, recover
    ):
        handle = ShardServer.handle

        def lying(self, request):
            reply = handle(self, request)
            return lie(reply) if type(request) is ReplayRequest else reply

        monkeypatch.setattr(ShardServer, "handle", lying)
        cluster = ShardedWeakSetCluster(
            3, shards=2, backend="inproc", recover=recover, retry_policy=_POLICY
        )
        with cluster:
            cluster.handle(0).add("before")
            with pytest.raises(SimulationError, match="answered a replay"):
                cluster.join_shard()
            with pytest.raises(SimulationError, match="backend failed"):
                cluster.advance(1)
            if recover:
                assert cluster.recovery_stats.detections == 0


@pytest.mark.chaos
class TestSupervisedChurn:
    def test_batched_churn_run_matches_clean_run(self):
        plan = FaultPlan((Fault("kill", 0, 3),))
        healed = run_churn_workload(
            n=3, shards=2, total_adds=8, adds_per_round=2,
            pattern="random", backend="multiprocess", seed=0,
            round_batch=4,
            recover=True, fault_plan=plan, retry_policy=_POLICY,
        )
        clean = run_churn_workload(
            n=3, shards=2, total_adds=8, adds_per_round=2,
            pattern="random", backend="multiprocess", seed=0,
        )
        assert healed.recovery is not None and healed.recovery.respawns == 1
        assert (healed.completed, healed.latencies) == (
            clean.completed, clean.latencies,
        )

    def test_recovery_stats_ride_the_churn_run(self):
        plan = FaultPlan((Fault("kill", 0, 3),))
        healed = run_churn_workload(
            n=3,
            shards=2,
            total_adds=8,
            adds_per_round=2,
            pattern="random",
            backend="multiprocess",
            seed=0,
            recover=True,
            fault_plan=plan,
            retry_policy=_POLICY,
        )
        clean = run_churn_workload(
            n=3,
            shards=2,
            total_adds=8,
            adds_per_round=2,
            pattern="random",
            backend="multiprocess",
            seed=0,
        )
        assert healed.recovery is not None and healed.recovery.respawns == 1
        assert clean.recovery is None
        assert (healed.completed, healed.latencies) == (
            clean.completed,
            clean.latencies,
        )

"""The shard-execution backends: every backend == serial, pinned.

The acceptance bar for the transport split: for a fixed seed, every
backend — in-process behind the codec, one worker process per shard
over pipes, workers over loopback TCP — must produce a byte-identical
final weak-set trace to the serial backend: same shard worlds, same
step sequence, same keyed-stream decisions, regardless of the
overlapped harvest's arrival order.  Since every backend runs one
shared driver, a differential fuzz at the end checks the serial and
in-process backends against K plain :class:`MSWeakSetCluster` worlds
driven without any of the driver's code.

Process-backed tests take the ``start_method`` fixture (see
``conftest.py``) so the module runs under both ``fork`` and ``spawn``.
"""

import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import values
from repro.errors import ProtocolMisuse, SimulationError
from repro.giraf.adversary import CrashPlan, CrashSchedule
from repro.serialization import trace_to_json
from repro.sim.runner import run_churn_workload
from repro.sim.workloads import CHURN_PATTERNS, ChurnEnvironments
from repro.weakset.cluster import MSWeakSetCluster
from repro.weakset.faults import parse_fault_plan
from repro.weakset.protocol import PROTOCOL_VERSION
from repro.weakset.sharding import (
    MultiprocessBackend,
    SerialBackend,
    ShardedWeakSetCluster,
    SocketBackend,
    parse_backend_spec,
    serve_shard_over_socket,
    shard_of,
)
from repro.weakset.spec import check_weakset


def _drive(cluster):
    """A fixed mixed workload: blocking and async adds, gets, crashes."""
    handles = cluster.handles()
    handles[0].add("alpha")
    handles[2].get()
    records = [handles[pid].add_async(f"bg-{pid}") for pid in (1, 3)]
    cluster.advance(5)
    handles[1].add("beta")
    views = [frozenset(handle.get()) for handle in handles]
    adds = [(r.pid, r.value, r.start, r.end) for r in cluster.log.adds]
    return views, adds, [r.end for r in records]


def _snapshot(cluster):
    return [trace_to_json(trace) for trace in cluster.traces()]


class TestBackendEquivalence:
    def test_traces_byte_identical_for_fixed_seed(self, start_method):
        """The pinned acceptance test: every backend == serial, byte
        for byte — including the socket backend over loopback TCP."""
        def build(backend):
            return ShardedWeakSetCluster(
                4,
                shards=3,
                environment_factory=ChurnEnvironments(pattern="random", seed=7),
                backend=backend,
                start_method=start_method,
            )

        serial = build("serial")
        serial_result = _drive(serial)
        serial_traces = _snapshot(serial)
        for backend in ("inproc", "multiprocess", "socket"):
            with build(backend) as cluster:
                assert _drive(cluster) == serial_result, backend
                assert _snapshot(cluster) == serial_traces, backend

    def test_equivalence_under_crashes(self, start_method):
        crashes = CrashSchedule({2: CrashPlan(3, before_send=True)})

        def build(backend):
            return ShardedWeakSetCluster(
                4, shards=2, crash_schedule=crashes, backend=backend,
                start_method=start_method,
            )

        serial = build("serial")
        doomed_serial = serial.handle(2).add_async("doomed")
        serial.handle(0).add("ok")
        serial.advance(4)
        with build("multiprocess") as multiproc:
            doomed_multiproc = multiproc.handle(2).add_async("doomed")
            multiproc.handle(0).add("ok")
            multiproc.advance(4)
            assert _snapshot(multiproc) == _snapshot(serial)
            assert doomed_multiproc.end is None and doomed_serial.end is None
            with pytest.raises(SimulationError):
                multiproc.handle(2).get()
            with pytest.raises(SimulationError):
                multiproc.handle(2).add("x")

    def test_batch_grid_byte_identical(self):
        """The batching acceptance grid: every backend at round_batch=4 —
        all byte-identical to the plain serial run (batching changes
        frames, never the worlds; round_batch=1 is the default the
        main equivalence test above already pins for every backend)."""
        def build(backend, round_batch=1):
            return ShardedWeakSetCluster(
                4,
                shards=3,
                environment_factory=ChurnEnvironments(pattern="random", seed=7),
                backend=backend,
                round_batch=round_batch,
            )

        serial = build("serial")
        serial_result = _drive(serial)
        serial_traces = _snapshot(serial)
        for backend in ("serial", "inproc", "multiprocess", "socket"):
            with build(backend, round_batch=4) as cluster:
                assert _drive(cluster) == serial_result, backend
                assert _snapshot(cluster) == serial_traces, backend

    def test_churn_workload_backend_invariant(self):
        runs = [
            run_churn_workload(
                n=3, shards=2, total_adds=10, adds_per_round=2,
                pattern="round-robin", backend=backend, seed=5,
            )
            for backend in ("serial", "inproc", "multiprocess", "socket")
        ]
        for run in runs[1:]:
            assert run.latencies == runs[0].latencies
            assert run.rounds == runs[0].rounds
        assert all(run.completed == 10 for run in runs)

    def test_churn_workload_batch_invariant(self):
        """--round-batch changes frames, not results: the completed-add
        latencies are identical for every combination."""
        reference = run_churn_workload(
            n=3, shards=2, total_adds=10, adds_per_round=2,
            pattern="round-robin", backend="serial", seed=5,
        )
        for backend in ("serial", "inproc", "socket"):
            for round_batch in (1, 4):
                run = run_churn_workload(
                    n=3, shards=2, total_adds=10, adds_per_round=2,
                    pattern="round-robin", backend=backend, seed=5,
                    round_batch=round_batch,
                )
                label = (backend, round_batch)
                assert run.latencies == reference.latencies, label
                assert run.completed == reference.completed, label


class TestNegotiationAndVersioning:
    """The bootstrap fails clean: both versions are named."""

    def test_worker_names_both_versions_on_mismatch(self):
        """An externally-launched worker hitting a parent with a
        different protocol version raises a SimulationError naming
        both versions (not a generic decode error, not a retry loop)."""
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]
        alien_version = PROTOCOL_VERSION + 7

        def alien_parent():
            conn, _peer = listener.accept()
            with conn:
                conn.recv(4096)  # the worker's hello, ignored
                body = b'{"t":"stop_req","v":{}}'
                conn.sendall(
                    bytes([alien_version, 0]) + len(body).to_bytes(4, "big") + body
                )
                time.sleep(0.2)

        thread = threading.Thread(target=alien_parent, daemon=True)
        thread.start()
        try:
            with pytest.raises(SimulationError) as excinfo:
                serve_shard_over_socket(address, connect_retries=50)
            message = str(excinfo.value)
            assert str(alien_version) in message
            assert str(PROTOCOL_VERSION) in message
            assert "version" in message
        finally:
            thread.join(timeout=5.0)
            listener.close()

    def test_parent_names_both_versions_on_mismatch(self):
        """A v5 worker (six-byte header: version, codec byte, length)
        connecting to a v6 parent fails the handshake with an error
        naming both versions."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        address = probe.getsockname()[:2]
        probe.close()

        def v5_worker():
            sock = None
            for _ in range(100):
                try:
                    sock = socket.create_connection(address, timeout=5.0)
                    break
                except OSError:
                    time.sleep(0.05)
            if sock is None:
                return
            with sock:
                body = bytes([0]) + b'{"t":"hello","v":{"codecs":["binary"]}}'
                sock.sendall(bytes([5, 1]) + len(body).to_bytes(4, "big") + body)
                time.sleep(0.5)

        thread = threading.Thread(target=v5_worker, daemon=True)
        thread.start()
        try:
            with pytest.raises(SimulationError, match="handshake") as excinfo:
                SocketBackend(
                    2,
                    shards=1,
                    environment_factory=ChurnEnvironments(seed=0),
                    crash_schedule=None,
                    max_total_rounds=50,
                    trace_mode="aggregate",
                    listen=address,
                    accept_timeout=10.0,
                )
            message = str(excinfo.value)
            assert "peer speaks 5" in message
            assert f"this side speaks {PROTOCOL_VERSION}" in message
        finally:
            thread.join(timeout=5.0)

    def test_bad_round_batch_rejected(self):
        for backend in ("serial", "inproc"):
            with pytest.raises(SimulationError, match="round_batch"):
                ShardedWeakSetCluster(2, shards=1, backend=backend, round_batch=0)


class TestRoundBatching:
    """advance() coalesces ticks without changing what happens."""

    def test_advance_reports_executed_ticks(self):
        with ShardedWeakSetCluster(
            2, shards=2, max_total_rounds=10, backend="inproc", round_batch=4
        ) as cluster:
            assert cluster.advance(6) == 6
            assert cluster.now == 6.0
            # the horizon stops the batch mid-flight: the dead step
            # call is counted, exactly as a loop of step() would
            executed = cluster.advance(10)
            assert cluster.exhausted
            assert cluster.now == 10.0
            assert executed == 5
            assert cluster.advance(3) == 1  # dead world: one probe call

    def test_serial_and_inproc_agree_on_batch_accounting(self):
        serial = ShardedWeakSetCluster(
            2, shards=2, max_total_rounds=10, round_batch=4
        )
        with ShardedWeakSetCluster(
            2, shards=2, max_total_rounds=10, backend="inproc", round_batch=4
        ) as inproc:
            for rounds in (6, 10, 3):
                assert serial.advance(rounds) == inproc.advance(rounds)
                assert serial.now == inproc.now

    def test_blocking_add_stays_per_tick_under_batching(self):
        """A blocking add must return at its exact completion round;
        batching applies to advance(), never to the blocking loop."""
        plain = ShardedWeakSetCluster(3, shards=2)
        plain.handle(0).add("v")
        with ShardedWeakSetCluster(
            3, shards=2, backend="inproc", round_batch=8
        ) as batched:
            batched.handle(0).add("v")
            assert batched.now == plain.now
            assert [r.end for r in batched.log.adds] == [
                r.end for r in plain.log.adds
            ]


class TestTransportBackendSemantics:
    def test_spec_holds_and_log_matches(self):
        with ShardedWeakSetCluster(3, shards=2, backend="multiprocess") as cluster:
            handles = cluster.handles()
            handles[0].add("a")
            handles[2].get()
            handles[1].add("b")
            cluster.advance(4)
            for handle in handles:
                handle.get()
            assert check_weakset(cluster.log).ok

    def test_add_visible_in_own_get_before_any_step(self):
        """begin_add's immediate PROPOSED insert survives the batching."""
        with ShardedWeakSetCluster(3, shards=2, backend="multiprocess") as cluster:
            record = cluster.handle(1).add_async("instant")
            assert record.end is None
            assert "instant" in cluster.handle(1).get()

    def test_double_add_same_pid_rejected_like_serial(self):
        serial = ShardedWeakSetCluster(3, shards=1)
        serial.handle(0).add_async("v1")
        with pytest.raises(ProtocolMisuse):
            serial.handle(0).add_async("v2")
        with ShardedWeakSetCluster(3, shards=1, backend="multiprocess") as cluster:
            cluster.handle(0).add_async("v1")
            with pytest.raises(ProtocolMisuse):
                cluster.handle(0).add_async("v2")

    def test_exhaustion_mirrors(self):
        with ShardedWeakSetCluster(
            2, shards=2, max_total_rounds=3, backend="multiprocess"
        ) as cluster:
            assert not cluster.exhausted
            cluster.advance(10)
            assert cluster.exhausted
            assert cluster.now == 3.0

    def test_shards_property_serial_only(self):
        assert len(ShardedWeakSetCluster(2, shards=2).shards) == 2
        with ShardedWeakSetCluster(2, shards=2, backend="inproc") as cluster:
            with pytest.raises(SimulationError):
                cluster.shards

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError):
            ShardedWeakSetCluster(2, backend="gpu")

    def test_backend_spec_parsing(self):
        assert parse_backend_spec("serial") == ("serial", {})
        assert parse_backend_spec("socket") == ("socket", {})
        assert parse_backend_spec("socket:10.0.0.5:7000") == (
            "socket", {"listen": ("10.0.0.5", 7000)},
        )
        with pytest.raises(SimulationError):
            parse_backend_spec("socket:7000")
        with pytest.raises(SimulationError):
            parse_backend_spec("multiprocess:opts")

    def test_out_of_range_pid_rejected_before_reaching_workers(self):
        with ShardedWeakSetCluster(3, shards=2, backend="multiprocess") as cluster:
            with pytest.raises(SimulationError):
                cluster.begin_add(7, "v")
            # the workers were never poisoned: the cluster still runs
            cluster.handle(0).add("fine")
            assert "fine" in cluster.handle(1).get()

    def test_mismatched_backend_instance_rejected(self):
        backend = SerialBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=1),
            crash_schedule=None,
            max_total_rounds=100,
            trace_mode="full",
        )
        with pytest.raises(SimulationError):
            ShardedWeakSetCluster(5, shards=2, backend=backend)
        with pytest.raises(SimulationError):
            ShardedWeakSetCluster(3, shards=3, backend=backend)

    def test_close_is_idempotent_and_blocks_further_use(self):
        cluster = ShardedWeakSetCluster(2, shards=2, backend="multiprocess")
        cluster.handle(0).add("x")
        cluster.close()
        cluster.close()
        with pytest.raises(SimulationError):
            cluster.step()

    def test_constructed_backend_instance_accepted(self):
        backend = SerialBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=1),
            crash_schedule=None,
            max_total_rounds=100,
            trace_mode="full",
        )
        cluster = ShardedWeakSetCluster(3, shards=2, backend=backend)
        assert cluster.backend is backend
        cluster.handle(0).add("v")
        assert "v" in cluster.handle(1).get()


class TestWorkerDeathFailsClosed:
    """Kill a worker mid-run: clean errors, everything reaped."""

    def _assert_fails_closed_and_reaps(self, cluster):
        with pytest.raises(SimulationError):
            cluster.advance(1)
        # every later call fails the same way — no raw pipe/socket
        # errors, no stale replies consumed
        with pytest.raises(SimulationError):
            cluster.step()
        with pytest.raises(SimulationError):
            cluster.handle(0).get()
        with pytest.raises(SimulationError):
            cluster.traces()
        cluster.close()
        # close() reaped the surviving workers too: none left running
        assert all(not worker.is_alive() for worker in cluster.backend._workers)
        assert all(
            worker.exitcode is not None for worker in cluster.backend._workers
        )

    def test_dead_pipe_worker(self, start_method):
        cluster = ShardedWeakSetCluster(
            3, shards=2, backend="multiprocess", start_method=start_method
        )
        try:
            cluster.advance(1)
            worker = cluster.backend._workers[0]
            worker.terminate()
            worker.join(timeout=5.0)
            self._assert_fails_closed_and_reaps(cluster)
        finally:
            cluster.close()

    def test_dead_socket_worker(self, start_method):
        cluster = ShardedWeakSetCluster(
            3, shards=2, backend="socket", start_method=start_method
        )
        try:
            cluster.advance(1)
            worker = cluster.backend._workers[1]
            worker.terminate()
            worker.join(timeout=5.0)
            self._assert_fails_closed_and_reaps(cluster)
        finally:
            cluster.close()

    def test_dead_worker_mid_add_stream(self):
        """Death between exchanges (not just between advances) is also
        clean: the queued adds never poison a surviving worker."""
        cluster = ShardedWeakSetCluster(3, shards=2, backend="multiprocess")
        try:
            cluster.handle(0).add("before")
            for worker in cluster.backend._workers:
                worker.terminate()
                worker.join(timeout=5.0)
            cluster.handle(1).add_async("after")  # parent-side queue only
            with pytest.raises(SimulationError):
                cluster.advance(1)
        finally:
            cluster.close()
        assert all(not worker.is_alive() for worker in cluster.backend._workers)


class TestBackendClasses:
    def test_multiprocess_backend_direct(self):
        backend = MultiprocessBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=2),
            crash_schedule=None,
            max_total_rounds=50,
            trace_mode="full",
        )
        try:
            record = backend.begin_add(0, 1, "direct")
            assert record.start == 0.0
            while record.end is None and backend.step():
                pass
            assert record.end is not None
            views = backend.local_views(0)
            assert len(views) == 2
            assert any("direct" in proposed for _, proposed in views)
        finally:
            backend.close()

    def test_socket_backend_reports_bound_address(self):
        backend = SocketBackend(
            2,
            shards=2,
            environment_factory=ChurnEnvironments(seed=3),
            crash_schedule=None,
            max_total_rounds=50,
            trace_mode="aggregate",
        )
        try:
            host, port = backend.address
            assert host == "127.0.0.1" and port > 0
            assert backend.step()
        finally:
            backend.close()

    def test_inproc_stop_handshake_is_clean(self):
        """InProcTransport dispatches straight to ShardServer.handle
        (no serve_requests loop to intercept stops), so the server
        must answer the shutdown handshake itself — a clean close
        drains StopReply, not an ErrorReply traceback."""
        from repro.weakset.protocol import StopReply, StopRequest
        from repro.weakset.sharding import InProcBackend

        backend = InProcBackend(
            2,
            shards=2,
            environment_factory=ChurnEnvironments(seed=4),
            crash_schedule=None,
            max_total_rounds=50,
            trace_mode="aggregate",
        )
        backend.step()
        transport = backend._transports[0]
        transport.send(StopRequest())
        assert transport.recv() == StopReply()
        backend.close()

    def test_serial_backend_traces_are_live(self):
        backend = SerialBackend(
            2,
            shards=2,
            environment_factory=ChurnEnvironments(seed=0),
            crash_schedule=None,
            max_total_rounds=50,
            trace_mode="full",
        )
        assert backend.traces()[0] is backend.clusters[0].trace

    def test_serial_lifecycle(self):
        """The serial backend runs the shared driver: its direct
        exchanges are counted like wire ones, and close() ends it."""
        cluster = ShardedWeakSetCluster(3, shards=2)
        cluster.handle(0).add("v")
        backend = cluster.backend
        assert backend.exchanges > 0
        assert backend.frame_pairs == 2 * backend.exchanges
        cluster.close()
        cluster.close()  # idempotent
        for call in (
            lambda: cluster.advance(1),
            cluster.step,
            cluster.traces,
            lambda: cluster.begin_add(1, "w"),
            lambda: cluster.handle(0).get(),
        ):
            with pytest.raises(SimulationError, match="backend already closed"):
                call()

    @pytest.mark.parametrize("option", ["recover", "fault_plan"])
    def test_serial_rejects_supervision_and_faults(self, option):
        """No workers to respawn and no wires to fault: asking the
        serial backend for either is a configuration error, not a
        silently ignored knob."""
        value = {"recover": True, "fault_plan": parse_fault_plan("kill:0:5")}
        with pytest.raises(SimulationError, match="no workers to supervise"):
            ShardedWeakSetCluster(3, shards=2, **{option: value[option]})


def _registered(backend):
    """The channel descriptors the backend's selector watches."""
    return {key.fd for key in backend._selector.get_map().values()}


class TestOverlapRule:
    """The harvest overlaps exactly when the backend holds a selector,
    and it holds one only when there is more than one channel, every
    channel is selectable, and neither supervision nor fault injection
    is on — arrival order must never reach those two layers."""

    @pytest.mark.parametrize("backend", ["serial", "inproc"])
    def test_in_process_channels_never_overlap(self, backend):
        with ShardedWeakSetCluster(3, shards=3, backend=backend) as cluster:
            assert all(t.fileno() is None for t in cluster.backend._transports)
            assert cluster.backend._selector is None
            assert cluster.advance(2) == 2

    def test_process_channels_overlap(self, start_method):
        cluster = ShardedWeakSetCluster(
            3, shards=3, backend="multiprocess", start_method=start_method
        )
        with cluster:
            backend = cluster.backend
            assert _registered(backend) == {
                t.fileno() for t in backend._transports
            }
            assert cluster.advance(2) == 2
        assert backend._selector is None  # closed with the backend

    @pytest.mark.parametrize("option", ["recover", "fault_plan"])
    def test_supervision_and_faults_harvest_in_index_order(self, option):
        # a fault far past the run: the plan is on, nothing fires
        value = {"recover": True, "fault_plan": parse_fault_plan("kill:0:500")}
        with ShardedWeakSetCluster(
            3, shards=3, backend="multiprocess", **{option: value[option]}
        ) as cluster:
            assert cluster.backend._selector is None
            assert cluster.advance(2) == 2

    def test_one_channel_never_overlaps(self):
        """Two worlds multiplexed behind one socket worker leave one
        channel: nothing to overlap."""
        with ShardedWeakSetCluster(
            3, shards=2, backend="socket", worlds_per_worker=2
        ) as cluster:
            assert len(cluster.backend._transports) == 1
            assert cluster.backend._selector is None

    def test_membership_change_reregisters_the_channels(self):
        with ShardedWeakSetCluster(
            3, shards=2, backend="multiprocess"
        ) as cluster:
            backend = cluster.backend
            cluster.advance(1)
            cluster.join_shard()
            assert len(backend._transports) == 3
            assert _registered(backend) == {
                t.fileno() for t in backend._transports
            }
            cluster.leave_shard(0)
            assert len(backend._transports) == 2
            assert _registered(backend) == {
                t.fileno() for t in backend._transports
            }
            assert cluster.advance(2) == 2


class TestPipelinedWindow:
    """The pipelined driver: windows change timing, never bytes.

    ``window=W`` keeps up to W round batches in flight before the
    oldest is harvested; ``worlds_per_worker=M`` multiplexes M shard
    worlds behind one socket worker.  Both are pure transport-shape
    levers — every cell of the grid must replay the serial worlds byte
    for byte, and the frame-pair counters must show the wire cost
    moving the way the levers promise."""

    def _build(self, backend, **kwargs):
        return ShardedWeakSetCluster(
            4,
            shards=3,
            environment_factory=ChurnEnvironments(pattern="random", seed=7),
            backend=backend,
            **kwargs,
        )

    def _serial_reference(self):
        serial = self._build("serial")
        return _drive(serial), _snapshot(serial)

    def test_window_grid_byte_identical(self):
        """window × round_batch on the in-process transport: every
        combination equals the plain serial run."""
        serial_result, serial_traces = self._serial_reference()
        for window in (2, 4):
            for round_batch in (1, 4):
                label = (window, round_batch)
                with self._build(
                    "inproc", window=window, round_batch=round_batch
                ) as cluster:
                    assert _drive(cluster) == serial_result, label
                    assert _snapshot(cluster) == serial_traces, label

    def test_window_grid_process_backends(self, start_method):
        serial_result, serial_traces = self._serial_reference()
        for backend in ("multiprocess", "socket"):
            with self._build(
                backend, window=4, round_batch=4, start_method=start_method
            ) as cluster:
                assert _drive(cluster) == serial_result, backend
                assert _snapshot(cluster) == serial_traces, backend

    def test_worlds_per_worker_byte_identical(self, start_method):
        """Mux grouping (3 shards: an uneven [0,1]+[2] split and a
        single [0,1,2] worker) never leaks into the worlds."""
        serial_result, serial_traces = self._serial_reference()
        for worlds_per_worker in (2, 3):
            with self._build(
                "socket",
                worlds_per_worker=worlds_per_worker,
                start_method=start_method,
            ) as cluster:
                assert _drive(cluster) == serial_result, worlds_per_worker
                assert _snapshot(cluster) == serial_traces, worlds_per_worker

    def test_ragged_mux_split_byte_identical(self, start_method):
        """``num_shards % worlds_per_worker != 0``: 5 shards at M=2
        give workers [0,1]+[2,3]+[4] — the single-world tail speaks
        plain (unwrapped) frames inside an otherwise-mux run — and
        M=7 > shards collapses to one worker hosting everything."""
        def build(backend, **kwargs):
            return ShardedWeakSetCluster(
                4,
                shards=5,
                environment_factory=ChurnEnvironments(pattern="random", seed=9),
                backend=backend,
                **kwargs,
            )

        with build("serial") as serial:
            serial_result = _drive(serial)
            serial_traces = _snapshot(serial)
        for worlds_per_worker, shape in ((2, [2, 2, 1]), (7, [5])):
            with build(
                "socket",
                worlds_per_worker=worlds_per_worker,
                start_method=start_method,
            ) as cluster:
                backend = cluster.backend
                assert [len(group) for group in backend._groups] == shape
                # one worker process per group, not per shard
                assert len(backend._workers) == len(shape)
                assert _drive(cluster) == serial_result, worlds_per_worker
                assert _snapshot(cluster) == serial_traces, worlds_per_worker

    def test_mux_composes_with_batching_and_window(self):
        serial_result, serial_traces = self._serial_reference()
        with self._build(
            "socket", worlds_per_worker=2, round_batch=4, window=2
        ) as cluster:
            assert _drive(cluster) == serial_result
            assert _snapshot(cluster) == serial_traces

    def test_frame_pair_counters(self):
        """Batching must actually shrink the frame-pair count (the
        0.99-speedup fix is structural, not a timing claim); a deeper
        window may add a few speculative batches but no more."""
        def pairs(**kwargs):
            with self._build("inproc", **kwargs) as cluster:
                _drive(cluster)
                backend = cluster.backend
                # one frame pair per shard channel per exchange
                assert backend.frame_pairs == backend.exchanges * 3
                return backend.frame_pairs

        unbatched = pairs()
        batched = pairs(round_batch=4)
        windowed = pairs(round_batch=4, window=4)
        assert batched < unbatched
        assert batched <= windowed < unbatched

    def test_mux_frame_pairs_collapse(self):
        """worlds_per_worker=3 puts all 3 shard worlds behind one
        channel: same exchanges, a third of the frame pairs."""
        def measure(worlds_per_worker):
            with self._build(
                "socket", worlds_per_worker=worlds_per_worker
            ) as cluster:
                _drive(cluster)
                return cluster.backend.exchanges, cluster.backend.frame_pairs

        solo_exchanges, solo_pairs = measure(1)
        mux_exchanges, mux_pairs = measure(3)
        assert solo_exchanges == mux_exchanges
        assert solo_pairs == 3 * mux_pairs

    def test_churn_workload_window_invariant(self):
        reference = run_churn_workload(
            n=3, shards=2, total_adds=10, adds_per_round=2,
            pattern="round-robin", backend="serial", seed=5,
        )
        for backend, window, worlds_per_worker in (
            ("inproc", 2, None),
            ("inproc", 4, None),
            ("socket", 4, None),
            ("socket", 2, 2),
        ):
            run = run_churn_workload(
                n=3, shards=2, total_adds=10, adds_per_round=2,
                pattern="round-robin", backend=backend, seed=5,
                round_batch=4, window=window,
                worlds_per_worker=worlds_per_worker,
            )
            label = (backend, window, worlds_per_worker)
            assert run.latencies == reference.latencies, label
            assert run.completed == reference.completed, label

    def test_window_and_mux_validation(self):
        with pytest.raises(SimulationError, match="window"):
            ShardedWeakSetCluster(2, shards=1, backend="inproc", window=0)
        with pytest.raises(SimulationError, match="worlds_per_worker"):
            ShardedWeakSetCluster(
                2, shards=1, backend="socket", worlds_per_worker=0
            )
        with pytest.raises(SimulationError, match="socket"):
            ShardedWeakSetCluster(
                2, shards=1, backend="inproc", worlds_per_worker=2
            )
        # serial runs the same windowed driver: the CLI can pass
        # window uniformly without special-casing the default backend
        cluster = ShardedWeakSetCluster(2, shards=1, window=4)
        cluster.handle(0).add("v")

    def test_mux_rejects_per_shard_channel_features(self):
        """Supervision and fault plans address individual shard
        channels; a multiplexed worker has no such channel."""
        from repro.weakset.faults import parse_fault_plan

        with pytest.raises(SimulationError, match="worlds_per_worker"):
            ShardedWeakSetCluster(
                2, shards=2, backend="socket", worlds_per_worker=2,
                recover=True,
            )
        with pytest.raises(SimulationError, match="worlds_per_worker"):
            ShardedWeakSetCluster(
                2, shards=2, backend="socket", worlds_per_worker=2,
                fault_plan=parse_fault_plan("kill:0:2"),
            )

    def test_constructed_backend_rejects_window_knobs(self):
        backend = SerialBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=1),
            crash_schedule=None,
            max_total_rounds=100,
            trace_mode="full",
        )
        with pytest.raises(SimulationError, match="construction-time"):
            ShardedWeakSetCluster(3, shards=2, backend=backend, window=2)
        with pytest.raises(SimulationError, match="construction-time"):
            ShardedWeakSetCluster(
                3, shards=2, backend=backend, worlds_per_worker=2
            )


# ----------------------------------------------------------------------
# differential fuzz: the one driver against plain clusters
# ----------------------------------------------------------------------
@st.composite
def shard_runs(draw):
    """A whole run: world shape, churn environment, an optional crash
    schedule shared by every shard, round horizon, driver shape, and a
    schedule of steps — each issues up to ``n`` adds, then advances or
    gets.  Horizons mostly below the schedule's 30-tick maximum let
    worlds go dead mid-batch and mid-window."""
    n = draw(st.integers(min_value=1, max_value=6))
    pids = st.integers(min_value=0, max_value=n - 1)
    then = st.one_of(
        st.tuples(st.just("advance"), st.integers(min_value=1, max_value=5)),
        st.tuples(st.just("get"), pids),
    )
    return {
        "n": n,
        "shards": draw(st.integers(min_value=1, max_value=4)),
        "pattern": draw(st.sampled_from(sorted(CHURN_PATTERNS))),
        "seed": draw(st.integers(min_value=0, max_value=2**16)),
        "crash_fraction": draw(
            st.none() | st.floats(min_value=0.25, max_value=1.0)
        ),
        "horizon": draw(st.integers(min_value=2, max_value=24)),
        "round_batch": draw(st.integers(min_value=1, max_value=4)),
        "window": draw(st.integers(min_value=1, max_value=3)),
        "steps": draw(
            st.lists(
                st.tuples(st.lists(st.tuples(pids, values), max_size=n), then),
                min_size=1,
                max_size=6,
            )
        ),
    }


def _world_options(run):
    fraction = run["crash_fraction"]
    return {
        "crash_schedule": None if fraction is None else CrashSchedule.fraction(
            run["n"], fraction, seed=run["seed"]
        ),
        "max_total_rounds": run["horizon"],
        "trace_mode": "full",
    }


def _outcome(call):
    """A call's result, or the error it raised, as comparable data."""
    try:
        return ("ok", call())
    except (ProtocolMisuse, SimulationError) as error:
        return ("error", type(error).__name__, str(error))


def _drive_facade(run, backend):
    with ShardedWeakSetCluster(
        run["n"],
        shards=run["shards"],
        environment_factory=ChurnEnvironments(
            pattern=run["pattern"], seed=run["seed"]
        ),
        backend=backend,
        round_batch=run["round_batch"],
        window=run["window"],
        **_world_options(run),
    ) as cluster:
        events = []

        def add(pid, value):
            cluster.begin_add(pid, value)

        for adds, (kind, arg) in run["steps"]:
            for pid, value in adds:
                events.append(_outcome(lambda: add(pid, value)))
            if kind == "advance":
                events.append(("advanced", cluster.advance(arg)))
            else:
                events.append(_outcome(cluster.handle(arg).get))
        log = [(r.pid, r.value, r.start, r.end) for r in cluster.log.adds]
        traces = [trace_to_json(trace) for trace in cluster.traces()]
    return events, log, traces


def _drive_plain_clusters(run):
    """The oracle: K plain clusters, each built from the environment
    factory for its member, fed the adds ``shard_of`` routes to it and
    stepped once per tick — none of the shard driver's code."""
    factory = ChurnEnvironments(pattern=run["pattern"], seed=run["seed"])
    options = _world_options(run)
    worlds = [
        MSWeakSetCluster(run["n"], environment=factory(member), **options)
        for member in range(run["shards"])
    ]
    events, records = [], []

    def add(pid, value):
        records.append(worlds[shard_of(value, run["shards"])].begin_add(pid, value))

    def get(pid):
        merged = set()
        for world in worlds:
            merged |= world.handle(pid).get()
        return frozenset(merged)

    for adds, (kind, arg) in run["steps"]:
        for pid, value in adds:
            events.append(_outcome(lambda: add(pid, value)))
        if kind == "advance":
            ticks = 0
            for _ in range(arg):
                ticks += 1
                if not all([world.step() for world in worlds]):
                    break
            events.append(("advanced", ticks))
        else:
            events.append(_outcome(lambda: get(arg)))
    log = [(r.pid, r.value, r.start, r.end) for r in records]
    return events, log, [trace_to_json(world.trace) for world in worlds]


class TestDifferentialFuzz:
    """Every backend runs one driver, so nothing but an independent
    oracle can check it for K > 1: the serial backend (no codec) and
    the in-process backend (the codec leg) must both reproduce K plain
    clusters — traces, op logs, get results and errors alike."""

    @given(run=shard_runs())
    @settings(max_examples=100)
    def test_serial_and_inproc_match_plain_clusters(self, run):
        expected = _drive_plain_clusters(run)
        assert _drive_facade(run, "serial") == expected
        assert _drive_facade(run, "inproc") == expected

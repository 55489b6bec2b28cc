"""The shard-execution backends: every backend == serial, pinned.

The acceptance bar for the transport split: for a fixed seed, every
backend — in-process behind the codec, one worker process per shard
over pipes, workers over loopback TCP — must produce a byte-identical
final weak-set trace to the serial backend: same shard worlds, same
step sequence, same keyed-stream decisions, whatever order the
workers' replies arrive in.  Since every backend runs one shared
driver, a differential fuzz at the end checks the serial and
in-process backends against K plain :class:`MSWeakSetCluster` worlds
driven without any of the driver's code, and a recovery fuzz checks
supervised runs hit by drawn worker kills and resets — some of them
during a drawn membership change — against the unfaulted serial run.

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
from repro.weakset.faults import Fault, FaultPlan, parse_fault_plan
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
from repro.weakset.supervisor import RetryPolicy


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
                serve_shard_over_socket(address)
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
            # the horizon stops the batch mid-flight: the step that
            # finds it runs no tick, so only the ticks run are counted
            executed = cluster.advance(10)
            assert cluster.exhausted
            assert cluster.now == 10.0
            assert executed == 4
            assert cluster.advance(3) == 0  # dead world: nothing runs

    @pytest.mark.parametrize("round_batch", [1, 4])
    @pytest.mark.parametrize("backend", ["serial", "inproc"])
    def test_advance_past_the_horizon_counts_ticks_run(self, backend, round_batch):
        """The clock is the count: running into the horizon reports the
        ticks that ran, a dead world reports 0, and the replay history
        logs only ticks that ran."""
        with ShardedWeakSetCluster(
            3,
            shards=2,
            max_total_rounds=4,
            backend=backend,
            round_batch=round_batch,
        ) as cluster:
            assert cluster.advance(10) == 4
            assert cluster.now == 4.0
            assert cluster.advance(10) == 0
            assert cluster.now == 4.0
            assert cluster._backend._history == [("step", 4)]

    def test_advance_at_round_batch_k_is_one_exchange(self, start_method):
        """advance(k) at round_batch=k is one step: one exchange, and
        one frame pair per worker channel — three direct channels, or
        two socket workers hosting the three worlds ([0, 1] + [2])."""
        for backend, extra, channels in (
            ("inproc", {}, 3),
            ("socket", {"worlds_per_worker": 2, "start_method": start_method}, 2),
        ):
            with ShardedWeakSetCluster(
                2, shards=3, backend=backend, round_batch=8, **extra
            ) as cluster:
                assert cluster.advance(8) == 8
                assert cluster.backend.exchanges == 1
                assert cluster.backend.frame_pairs == channels

    @pytest.mark.parametrize(
        "round_batch, horizon, first, second",
        [
            # 4 one-tick steps run, the 5th finds the horizon
            (1, 4, (10, 4, 5), (10, 0, 6)),
            # advance(6) is [4, 2]; advance(10) is [4, 4, 2]: the first
            # step runs ticks 7-10, the second finds the horizon, and
            # the third is never sent
            (4, 10, (6, 6, 2), (10, 4, 4)),
        ],
    )
    @pytest.mark.parametrize("backend", ["inproc", "multiprocess", "socket"])
    def test_no_step_is_sent_after_a_dead_reply(
        self, backend, round_batch, horizon, first, second
    ):
        """An advance that reaches the horizon mid-call stops at the
        step whose reply reports the dead world: exact exchange and
        frame-pair counts show that no step follows it, and an
        advance after the horizon sends exactly one — on every
        transport, whose workers answer a dead world's step with a
        no-op reply."""
        with ShardedWeakSetCluster(
            2,
            shards=2,
            max_total_rounds=horizon,
            backend=backend,
            round_batch=round_batch,
        ) as cluster:
            driver = cluster.backend
            for rounds, executed, exchanges in (first, second):
                assert cluster.advance(rounds) == executed
                assert driver.exchanges == exchanges
                assert driver.frame_pairs == 2 * exchanges
            assert cluster.exhausted
            assert cluster.advance(3) == 0
            assert driver.frame_pairs == 2 * (second[2] + 1)

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
        assert parse_backend_spec("socket:10.0.0.5:65535") == (
            "socket", {"listen": ("10.0.0.5", 65535)},
        )
        for spec in ("socket:7000", "socket:10.0.0.5:65536", "socket:h:²"):
            with pytest.raises(SimulationError, match="socket:HOST:PORT"):
                parse_backend_spec(spec)
        with pytest.raises(SimulationError):
            parse_backend_spec("multiprocess:opts")

    def test_out_of_range_pid_rejected_before_reaching_workers(self):
        with ShardedWeakSetCluster(3, shards=2, backend="multiprocess") as cluster:
            with pytest.raises(SimulationError):
                cluster.begin_add(7, "v")
            # the workers were never poisoned: the cluster still runs
            cluster.handle(0).add("fine")
            assert "fine" in cluster.handle(1).get()

    @pytest.mark.parametrize("slot", [-1, 2, 5])
    def test_out_of_range_slot_rejected_before_anything_is_queued(self, slot):
        """A slot outside ``0..K-1`` names no shard.  Python indexing
        would wrap a negative one onto the last shard (recording that
        shard's member as the add's owner) and answer a large one with
        a bare IndexError."""
        backend = SerialBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=1),
            crash_schedule=None,
            max_total_rounds=100,
            trace_mode="full",
        )
        with pytest.raises(SimulationError, match=r"slots are 0\.\.1"):
            backend.begin_add(slot, 0, "x")
        assert backend._pending == [[], []] and backend._history == []
        with pytest.raises(SimulationError, match=r"slots are 0\.\.1"):
            backend.crashed(slot, 0)
        backend.begin_add(1, 0, "x")  # nothing was poisoned
        assert backend.advance(2) == 2 and not backend.crashed(1, 0)

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


class TestTransportShape:
    """Transport-shape levers change frames, never bytes.

    ``round_batch=B`` carries B ticks per step, one step in flight at a
    time; ``worlds_per_worker=M`` multiplexes M shard worlds behind one
    socket worker.  Every cell of the grid must replay the serial
    worlds byte for byte, and the frame-pair counters must show the
    wire cost moving the way the levers promise."""

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

    def test_deep_batch_grid_byte_identical(self):
        """round_batch up to past the workload's longest advance on the
        in-process transport: every batch equals the plain serial run."""
        serial_result, serial_traces = self._serial_reference()
        for round_batch in (2, 4, 8, 16):
            with self._build("inproc", round_batch=round_batch) as cluster:
                assert _drive(cluster) == serial_result, round_batch
                assert _snapshot(cluster) == serial_traces, round_batch

    def test_deep_batch_process_backends(self, start_method):
        serial_result, serial_traces = self._serial_reference()
        for backend in ("multiprocess", "socket"):
            with self._build(
                backend, round_batch=16, start_method=start_method
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

    def test_mux_composes_with_batching(self):
        serial_result, serial_traces = self._serial_reference()
        with self._build(
            "socket", worlds_per_worker=2, round_batch=8
        ) as cluster:
            assert _drive(cluster) == serial_result
            assert _snapshot(cluster) == serial_traces

    def test_frame_pair_counters(self):
        """Batching must actually shrink the frame-pair count (the
        0.99-speedup fix is structural, not a timing claim), and a
        batch that carries the workload's whole advance shrinks it
        further."""
        def pairs(**kwargs):
            with self._build("inproc", **kwargs) as cluster:
                _drive(cluster)
                backend = cluster.backend
                # one frame pair per shard channel per exchange
                assert backend.frame_pairs == backend.exchanges * 3
                return backend.frame_pairs

        unbatched = pairs()
        batched = pairs(round_batch=4)
        whole = pairs(round_batch=16)
        assert whole < batched < unbatched

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

    def test_churn_workload_deep_batch_invariant(self):
        reference = run_churn_workload(
            n=3, shards=2, total_adds=10, adds_per_round=2,
            pattern="round-robin", backend="serial", seed=5,
        )
        for backend, round_batch, worlds_per_worker in (
            ("inproc", 8, None),
            ("inproc", 16, None),
            ("socket", 16, None),
            ("socket", 8, 2),
        ):
            run = run_churn_workload(
                n=3, shards=2, total_adds=10, adds_per_round=2,
                pattern="round-robin", backend=backend, seed=5,
                round_batch=round_batch,
                worlds_per_worker=worlds_per_worker,
            )
            label = (backend, round_batch, worlds_per_worker)
            assert run.latencies == reference.latencies, label
            assert run.completed == reference.completed, label

    def test_mux_validation(self):
        with pytest.raises(SimulationError, match="worlds_per_worker"):
            ShardedWeakSetCluster(
                2, shards=1, backend="socket", worlds_per_worker=0
            )
        with pytest.raises(SimulationError, match="socket"):
            ShardedWeakSetCluster(
                2, shards=1, backend="inproc", worlds_per_worker=2
            )

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

    def test_constructed_backend_rejects_the_mux_knob(self):
        backend = SerialBackend(
            3,
            shards=2,
            environment_factory=ChurnEnvironments(seed=1),
            crash_schedule=None,
            max_total_rounds=100,
            trace_mode="full",
        )
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
    worlds go dead mid-batch, and batches up to 8 ticks let one step
    carry a whole advance."""
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
        "round_batch": draw(st.integers(min_value=1, max_value=8)),
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


def _drive_facade(run, backend, **options):
    with ShardedWeakSetCluster(
        run["n"],
        shards=run["shards"],
        environment_factory=ChurnEnvironments(
            pattern=run["pattern"], seed=run["seed"]
        ),
        backend=backend,
        round_batch=run["round_batch"],
        **_world_options(run),
        **options,
    ) as cluster:
        events = []

        def add(pid, value):
            cluster.begin_add(pid, value)

        for adds, (kind, arg) in run["steps"]:
            for pid, value in adds:
                events.append(_outcome(lambda: add(pid, value)))
            if kind == "advance":
                events.append(_outcome(lambda: cluster.advance(arg)))
            elif kind == "get":
                events.append(_outcome(cluster.handle(arg).get))
            elif kind == "join":
                events.append(_outcome(cluster.join_shard))
            else:
                events.append(_outcome(lambda: cluster.leave_shard(arg)))
        log = [(r.pid, r.value, r.start, r.end) for r in cluster.log.adds]
        traces = _outcome(
            lambda: [trace_to_json(trace) for trace in cluster.traces()]
        )
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
            start = worlds[0].now
            for _ in range(arg):
                if not all([world.step() for world in worlds]):
                    break
            # the ticks that ran: a step into the horizon runs none
            events.append(("ok", int(worlds[0].now - start)))
        else:
            events.append(_outcome(lambda: get(arg)))
    log = [(r.pid, r.value, r.start, r.end) for r in records]
    return events, log, ("ok", [trace_to_json(world.trace) for world in worlds])


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


@st.composite
def faulted_runs(draw):
    """A :func:`shard_runs` run plus a plan of one or two worker kills
    or resets, each at a drawn driver exchange of a drawn shard.  About
    half the runs also join a member or retire one at a drawn step,
    with a kill or reset scheduled at rebuild frame 1 of a drawn member
    (``phase="rebalance"``): a rebuilt world gets exactly one frame, so
    the fault fires whenever the change rebuilds that member's world."""
    run = draw(shard_runs())
    shards = run["shards"]
    kinds = st.sampled_from(["kill", "reset"])
    faults = draw(
        st.lists(
            st.builds(
                Fault,
                kinds,
                st.integers(min_value=0, max_value=shards - 1),
                st.integers(min_value=1, max_value=8),
            ),
            min_size=1,
            max_size=2,
        )
    )
    change = draw(st.sampled_from(["join", "leave", None, None]))
    if change is not None:
        member = draw(st.integers(min_value=0, max_value=shards - 1))
        at = draw(st.integers(min_value=1, max_value=len(run["steps"])))
        run["steps"].insert(at, ((), (change, member)))
        # member ``shards`` is the joiner, whose world a join rebuilds
        faults.append(
            Fault(
                draw(kinds),
                draw(st.integers(min_value=0, max_value=shards)),
                1,
                phase="rebalance",
            )
        )
    return run, FaultPlan(tuple(faults))


@pytest.mark.chaos
class TestRecoveryFuzz:
    """Supervised recovery and membership changes rebuild worlds
    through one routine that replays each world from the driver's one
    history, rebuilding every algorithm's state (line 15's fold memory
    included): a recovered run must equal the unfaulted serial run of
    the same script — traces, op logs, get results, membership changes
    and errors alike (an inadmissible membership replay fails closed
    at the same call on both)."""

    @given(case=faulted_runs())
    @settings(max_examples=60)
    def test_recovered_inproc_matches_clean_serial(self, case):
        run, plan = case
        assert _drive_facade(
            run,
            "inproc",
            recover=True,
            fault_plan=plan,
            retry_policy=RetryPolicy(attempts=3, base_delay=0.0),
        ) == _drive_facade(run, "serial")

    @given(case=faulted_runs())
    @settings(max_examples=10)
    def test_recovered_multiprocess_matches_clean_serial(self, case):
        """The same property over forked worker processes, where a
        kill severs a real pipe and recovery starts a real process."""
        run, plan = case
        assert _drive_facade(
            run,
            "multiprocess",
            start_method="fork",
            recover=True,
            fault_plan=plan,
            retry_policy=RetryPolicy(attempts=3, base_delay=0.0),
        ) == _drive_facade(run, "serial")

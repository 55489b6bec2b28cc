"""Fault injection: the chaos harness, then every fail-closed path.

Two layers.  The unit layer pins the harness itself — spec parsing,
seeded plan construction, and :class:`FaultyTransport`'s per-kind
semantics over an in-process channel.  The integration layer (the
``chaos`` marker) injects each fault kind into real clusters with
``recover=False`` and demands the historical contract: one clean
:class:`~repro.errors.SimulationError` naming the shard and round, a
poisoned backend afterwards, and every worker reaped — no hangs, no
raw pipe/socket errors, no stale replies silently consumed.

Process-backed tests take the ``start_method`` fixture (see
``conftest.py``) so the module runs under both ``fork`` and ``spawn``.
"""

import multiprocessing

import pytest

from repro.errors import SimulationError
from repro.weakset.faults import (
    FAULT_KINDS,
    Fault,
    FaultPlan,
    FaultyTransport,
    parse_fault_plan,
)
from repro.weakset.protocol import PeekReply, encode_message
from repro.weakset.sharding import ShardedWeakSetCluster
from repro.weakset.supervisor import RetryPolicy
from repro.weakset.transport import (
    InProcTransport,
    PipeTransport,
    TransportError,
    exchange_all,
)


class TestFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="unknown fault kind"):
            Fault("explode", 0, 1)

    def test_exchange_index_is_one_based(self):
        with pytest.raises(SimulationError, match="1-based"):
            Fault("kill", 0, 0)

    def test_negative_shard_rejected(self):
        with pytest.raises(SimulationError, match="shard index"):
            Fault("kill", -1, 1)

    def test_delay_needs_positive_delay(self):
        with pytest.raises(SimulationError, match="delay > 0"):
            Fault("delay", 0, 1)

    def test_truncate_needs_positive_cut(self):
        with pytest.raises(SimulationError, match="cut >= 1"):
            Fault("truncate", 0, 1, cut=0)


class TestParseFaultPlan:
    def test_round_trips_every_kind(self):
        plan = parse_fault_plan(
            "kill:0:5, reset:1:2, drop:0:3, duplicate:1:4, "
            "delay:0:6:0.25, truncate:1:7:4"
        )
        assert len(plan) == 6
        assert {fault.kind for fault in plan.faults} == set(FAULT_KINDS)
        assert plan.faults[4].delay == 0.25
        assert plan.faults[5].cut == 4

    @pytest.mark.parametrize(
        "spec",
        [
            "kill:0",  # wrong arity
            "kill:zero:1",  # non-integer shard
            "kill:0:1:9",  # kill takes no parameter
            "delay:0:1:soon",  # delay must be a number
            "",  # empty plan
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(SimulationError):
            parse_fault_plan(spec)


class TestFaultPlan:
    def test_for_shard_filters_and_orders(self):
        plan = FaultPlan(
            (Fault("kill", 1, 9), Fault("drop", 0, 2), Fault("reset", 1, 3))
        )
        assert [f.at for f in plan.for_shard(1)] == [3, 9]
        assert plan.for_shard(2) == ()

    def test_kills_counts_worker_killing_kinds(self):
        plan = parse_fault_plan("kill:0:1,reset:1:2,truncate:2:3:4,drop:3:4")
        assert plan.kills == 3

    def test_kill_fraction_is_deterministic(self):
        first = FaultPlan.kill_fraction(8, 0.5, seed=3)
        again = FaultPlan.kill_fraction(8, 0.5, seed=3)
        assert first == again
        assert len(first) == 4
        assert all(f.kind == "kill" for f in first.faults)
        assert all(2 <= f.at <= 12 for f in first.faults)
        assert FaultPlan.kill_fraction(8, 0.5, seed=4) != first

    def test_kill_fraction_full_coverage_and_bounds(self):
        everyone = FaultPlan.kill_fraction(4, 1.0, seed=0, window=(3, 3))
        assert sorted(f.shard for f in everyone.faults) == [0, 1, 2, 3]
        assert all(f.at == 3 for f in everyone.faults)
        with pytest.raises(SimulationError, match="crash fraction"):
            FaultPlan.kill_fraction(4, 1.5)
        with pytest.raises(SimulationError, match="kill window"):
            FaultPlan.kill_fraction(4, 0.5, window=(5, 2))


def _wrapped(plan):
    """A FaultyTransport over an in-process echo worker."""
    inner = InProcTransport(
        lambda request: PeekReply(crashed=False, proposed=frozenset({"v"}))
    )
    return FaultyTransport(inner, 0, plan)


_PING = PeekReply(crashed=False, proposed=frozenset({"ping"}))


class TestFaultyTransportUnit:
    def test_kill_fires_at_scheduled_exchange_then_stays_dead(self):
        transport = _wrapped(FaultPlan((Fault("kill", 0, 2),)))
        transport.send(_PING)
        assert transport.recv().proposed == frozenset({"v"})
        with pytest.raises(TransportError, match="injected kill at exchange 2"):
            transport.send(_PING)
        with pytest.raises(TransportError, match="peer is gone"):
            transport.send(_PING)
        assert transport.poll(0.0) is False

    def test_drop_swallows_the_request(self):
        transport = _wrapped(FaultPlan((Fault("drop", 0, 1),)))
        transport.send(_PING)  # swallowed: nothing to harvest
        assert transport.poll(0.0) is False
        transport.send(_PING)  # the next exchange is healthy again
        assert transport.recv().proposed == frozenset({"v"})

    def test_reset_raises_on_the_reply_read(self):
        transport = _wrapped(FaultPlan((Fault("reset", 0, 1),)))
        transport.send(_PING)
        with pytest.raises(TransportError, match="connection reset"):
            transport.recv()

    def test_duplicate_buffers_a_stale_copy(self):
        transport = _wrapped(FaultPlan((Fault("duplicate", 0, 1),)))
        transport.send(_PING)
        reply = transport.recv()
        assert transport.poll(0.0) is True  # the stale copy is pending
        assert transport.recv() == reply

    def test_delay_consumes_poll_budget(self):
        transport = _wrapped(FaultPlan((Fault("delay", 0, 1, delay=0.08),)))
        transport.send(_PING)
        assert transport.poll(0.03) is False  # stall not yet over
        assert transport.poll(0.2) is True  # remaining stall consumed
        assert transport.recv().proposed == frozenset({"v"})

    def test_suspended_exchanges_do_not_count(self):
        transport = _wrapped(FaultPlan((Fault("kill", 0, 1),)))
        with transport.suspended():
            for _ in range(3):
                transport.send(_PING)
                transport.recv()
        with pytest.raises(TransportError, match="injected kill at exchange 1"):
            transport.send(_PING)

    def test_replace_inner_keeps_the_unfired_schedule(self):
        transport = _wrapped(FaultPlan((Fault("kill", 0, 1), Fault("kill", 0, 2))))
        with pytest.raises(TransportError):
            transport.send(_PING)
        transport.replace_inner(
            InProcTransport(lambda request: PeekReply(True, frozenset()))
        )
        with pytest.raises(TransportError, match="exchange 2"):
            transport.send(_PING)
        transport.replace_inner(
            InProcTransport(lambda request: PeekReply(True, frozenset()))
        )
        transport.send(_PING)  # schedule exhausted: healthy channel
        assert transport.recv().crashed is True

    def test_truncate_ships_a_cut_frame_then_kills(self):
        parent_end, worker_end = multiprocessing.Pipe()
        transport = FaultyTransport(
            PipeTransport(parent_end), 0, FaultPlan((Fault("truncate", 0, 1, cut=3),))
        )
        try:
            transport.send(_PING)
            shipped = worker_end.recv_bytes()
            assert shipped == encode_message(_PING)[:3]
            with pytest.raises(TransportError, match="peer is gone"):
                transport.send(_PING)
        finally:
            transport.close()
            worker_end.close()


class TestDelayDeadlineBoundary:
    """Delay faults against ``exchange_all(timeout=)`` at the boundary.

    The poll-budget arithmetic (``poll(max(timeout - stall, 0.0))``)
    makes the two edge outcomes deterministic: a stall that exactly
    equals a *direct* poll budget still harvests the buffered reply
    (zero remainder, not a negative timeout), while ``exchange_all``
    stamps its deadline at send time — so a stall equal to the exchange
    timeout always lands on a strictly smaller remaining budget and
    fails closed with the ordinary reply-timeout error.
    """

    def test_direct_poll_stall_equal_to_budget_finds_buffered_reply(self):
        transport = _wrapped(FaultPlan((Fault("delay", 0, 1, delay=0.05),)))
        transport.send(_PING)
        # budget == stall: the remainder is exactly 0.0, and poll(0.0)
        # must still see the reply the echo worker already buffered
        assert transport.poll(0.05) is True
        assert transport.recv().proposed == frozenset({"v"})

    def test_exchange_all_delay_just_under_timeout_succeeds(self):
        transport = _wrapped(FaultPlan((Fault("delay", 0, 1, delay=0.05),)))
        replies = exchange_all([transport], [_PING], timeout=0.5)
        assert replies[0].proposed == frozenset({"v"})

    def test_exchange_all_delay_at_timeout_fails_closed(self):
        # the deadline is stamped at send, so by harvest time the
        # remaining budget is strictly below the stall — deterministic
        # timeout, surfaced as the ordinary reply-timeout TransportError
        transport = _wrapped(FaultPlan((Fault("delay", 0, 1, delay=0.2),)))
        with pytest.raises(TransportError, match=r"no reply within 0\.2s"):
            exchange_all([transport], [_PING], timeout=0.2)

    def test_exchange_all_delay_over_timeout_fails_closed(self):
        transport = _wrapped(FaultPlan((Fault("delay", 0, 1, delay=0.4),)))
        with pytest.raises(TransportError, match=r"no reply within 0\.1s"):
            exchange_all([transport], [_PING], timeout=0.1)

    def test_stall_spends_the_whole_budget_before_failing(self):
        # the failed exchange must have consumed real wall-clock time
        # (the stall is served, not skipped) but no more than ~timeout
        import time

        transport = _wrapped(FaultPlan((Fault("delay", 0, 1, delay=0.3),)))
        before = time.monotonic()
        with pytest.raises(TransportError):
            exchange_all([transport], [_PING], timeout=0.15)
        elapsed = time.monotonic() - before
        assert 0.1 <= elapsed < 0.3


@pytest.mark.chaos
class TestFaultsFailClosed:
    """Every injected fault, recover=False: one clean SimulationError
    naming the shard and round, then a poisoned backend, all workers
    reaped."""

    def _assert_fails_closed(self, cluster, match):
        with pytest.raises(SimulationError, match=match):
            cluster.advance(8)
        with pytest.raises(SimulationError):
            cluster.step()
        with pytest.raises(SimulationError):
            cluster.handle(0).get()
        cluster.close()
        assert all(not worker.is_alive() for worker in cluster.backend._workers)

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("kill:0:3", r"mid-round \(round clock 2\).*shard 0.*injected kill"),
            ("reset:1:3", r"mid-round \(round clock 2\).*shard 1.*connection reset"),
            ("truncate:0:3:4", r"mid-round \(round clock \d+\).*shard 0"),
        ],
    )
    def test_worker_killing_faults(self, start_method, spec, match):
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            backend="multiprocess",
            start_method=start_method,
            fault_plan=parse_fault_plan(spec),
        )
        self._assert_fails_closed(cluster, match)

    def test_socket_reset_during_harvest(self, start_method):
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            backend="socket",
            start_method=start_method,
            fault_plan=parse_fault_plan("reset:0:3"),
        )
        self._assert_fails_closed(
            cluster, r"mid-round \(round clock 2\).*shard 0.*connection reset"
        )

    def test_dropped_frame_surfaces_as_reply_timeout(self):
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            backend="multiprocess",
            fault_plan=parse_fault_plan("drop:0:2"),
            retry_policy=RetryPolicy(attempts=1, request_timeout=0.5),
        )
        self._assert_fails_closed(cluster, r"shard 0: no reply within 0\.5s")

    def test_duplicated_reply_is_detected_not_consumed(self):
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            backend="multiprocess",
            fault_plan=parse_fault_plan("duplicate:0:2"),
        )
        self._assert_fails_closed(cluster, "stale or duplicated")

    def test_real_worker_kill_mid_step_batch(self, start_method):
        """Not an injected fault: SIGKILL the worker process itself
        between batched exchanges — same clean fail-closed shape."""
        cluster = ShardedWeakSetCluster(
            3,
            shards=2,
            backend="multiprocess",
            start_method=start_method,
            round_batch=4,
        )
        cluster.advance(4)
        worker = cluster.backend._workers[0]
        worker.kill()
        worker.join(timeout=5.0)
        self._assert_fails_closed(cluster, "mid-round")

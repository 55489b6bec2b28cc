"""Transports and the exchange driver.

Covers the channels in isolation (the direct in-process hand-over,
framing over real byte streams, partial reads, peer-death semantics)
and ``exchange_all``'s contract: handed a selector, replies are
harvested as they arrive but returned in canonical input order.
"""

import selectors
import socket
import threading
import time

import pytest

from repro.weakset.protocol import (
    ErrorReply,
    PeekRequest,
    RoundRequest,
    StopReply,
    StopRequest,
    encode_message,
)
from repro.weakset.transport import (
    DirectTransport,
    InProcTransport,
    SocketTransport,
    TransportError,
    exchange_all,
    harvest_all,
    send_all,
    serve_requests,
)


def socket_pair():
    left, right = socket.socketpair()
    return SocketTransport(left), SocketTransport(right)


def selector_for(transports):
    """A selector with every transport registered (data = its index)."""
    selector = selectors.DefaultSelector()
    for index, transport in enumerate(transports):
        selector.register(transport.fileno(), selectors.EVENT_READ, index)
    return selector


class TestDirectTransport:
    def test_handler_receives_the_callers_object(self):
        request = RoundRequest(adds=((0, 1, object()),))  # uncodable
        seen = []

        def handler(message):
            seen.append(message)
            return StopReply()

        transport = DirectTransport(handler)
        transport.send(request)
        assert transport.poll()
        assert transport.recv() == StopReply()
        # no codec in between: the very same object, which need not
        # be encodable
        assert seen[0] is request
        assert transport.fileno() is None

    def test_handler_failure_becomes_error_reply(self):
        def handler(request):
            raise RuntimeError("shard world exploded")

        transport = DirectTransport(handler)
        transport.send(StopRequest())
        reply = transport.recv()
        assert isinstance(reply, ErrorReply)
        assert "shard world exploded" in reply.message

    def test_recv_without_send_and_close(self):
        transport = DirectTransport(lambda request: StopReply())
        assert not transport.poll()
        with pytest.raises(TransportError):
            transport.recv()
        transport.close()
        with pytest.raises(TransportError):
            transport.send(StopRequest())


class TestInProcTransport:
    def test_messages_round_trip_the_codec(self):
        seen = []

        def handler(request):
            seen.append(request)
            return StopReply()

        transport = InProcTransport(handler)
        transport.send(RoundRequest(adds=((0, 1, "alpha"),)))
        assert transport.recv() == StopReply()
        # the handler received a decoded copy, not the caller's object
        assert seen == [RoundRequest(adds=((0, 1, "alpha"),))]

    def test_handler_failure_becomes_error_reply(self):
        def handler(request):
            raise RuntimeError("shard world exploded")

        transport = InProcTransport(handler)
        transport.send(StopRequest())
        reply = transport.recv()
        assert isinstance(reply, ErrorReply)
        assert "shard world exploded" in reply.message

    def test_recv_without_send_and_close(self):
        transport = InProcTransport(lambda request: StopReply())
        with pytest.raises(TransportError):
            transport.recv()
        transport.close()
        with pytest.raises(TransportError):
            transport.send(StopRequest())

    def test_uncodable_value_fails_at_send(self):
        from repro.weakset.protocol import ProtocolError

        transport = InProcTransport(lambda request: StopReply())
        with pytest.raises(ProtocolError):
            transport.send(RoundRequest(adds=((0, 1, object()),)))


class TestSocketTransport:
    def test_round_trip_over_a_real_stream(self):
        left, right = socket_pair()
        try:
            left.send(PeekRequest(pid=2, adds=((5, 0, ("x", 1)),)))
            assert right.recv() == PeekRequest(pid=2, adds=((5, 0, ("x", 1)),))
            right.send(StopReply())
            assert left.recv() == StopReply()
        finally:
            left.close()
            right.close()

    def test_fragmented_frames_reassemble(self):
        """A TCP stream may deliver a frame a byte at a time."""
        raw_left, raw_right = socket.socketpair()
        transport = SocketTransport(raw_right)
        frame = encode_message(RoundRequest(adds=((1, 0, "frag"),)))
        received = []
        reader = threading.Thread(target=lambda: received.append(transport.recv()))
        reader.start()
        for offset in range(len(frame)):
            raw_left.sendall(frame[offset : offset + 1])
            time.sleep(0.001)
        reader.join(timeout=10)
        assert received == [RoundRequest(adds=((1, 0, "frag"),))]
        raw_left.close()
        transport.close()

    def test_two_frames_back_to_back_stay_separate(self):
        left, right = socket_pair()
        try:
            left.send(RoundRequest(adds=((0, 0, "a"),)))
            left.send(RoundRequest(adds=((1, 1, "b"),)))
            assert right.recv() == RoundRequest(adds=((0, 0, "a"),))
            assert right.recv() == RoundRequest(adds=((1, 1, "b"),))
        finally:
            left.close()
            right.close()

    def test_peer_close_raises_transport_error(self):
        left, right = socket_pair()
        left.close()
        with pytest.raises(TransportError):
            right.recv()
        right.close()

    def test_poll_sees_pending_frames(self):
        left, right = socket_pair()
        try:
            assert not right.poll(0.0)
            left.send(StopRequest())
            assert right.poll(1.0)
        finally:
            left.close()
            right.close()


class TestExchangeAll:
    def test_replies_are_order_canonical_despite_arrival_order(self):
        """Worker 0 replies *slowest*; the overlapped harvest must
        still hand back replies[0] = worker 0's answer."""
        parents, servers = zip(*(socket_pair() for _ in range(3)))

        def serve(index, transport):
            request = transport.recv()
            time.sleep(0.15 if index == 0 else 0.0)
            transport.send(ErrorReply(f"worker-{index}:{request.pid}"))

        threads = [
            threading.Thread(target=serve, args=(index, transport))
            for index, transport in enumerate(servers)
        ]
        for thread in threads:
            thread.start()
        with selector_for(parents) as selector:
            replies = exchange_all(
                list(parents),
                [PeekRequest(pid=index) for index in range(3)],
                selector=selector,
            )
        for thread in threads:
            thread.join(timeout=10)
        assert [reply.message for reply in replies] == [
            "worker-0:0", "worker-1:1", "worker-2:2",
        ]
        for transport in (*parents, *servers):
            transport.close()

    def test_lockstep_harvest_gives_the_same_answers(self):
        handler = lambda request: ErrorReply(f"pid={request.pid}")
        transports = [InProcTransport(handler) for _ in range(3)]
        replies = exchange_all(
            transports, [PeekRequest(pid=index) for index in range(3)]
        )
        assert [reply.message for reply in replies] == [
            "pid=0", "pid=1", "pid=2",
        ]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            exchange_all([InProcTransport(lambda r: StopReply())], [])

    def test_dead_peer_is_reported_with_its_shard_index(self):
        left0, right0 = socket_pair()
        left1, right1 = socket_pair()
        right1.close()  # shard 1's worker is gone

        def serve0():
            right0.recv()
            right0.send(StopReply())

        thread = threading.Thread(target=serve0)
        thread.start()
        with pytest.raises(TransportError, match="shard 1"):
            exchange_all([left0, left1], [StopRequest(), StopRequest()])
        thread.join(timeout=10)
        for transport in (left0, right0, left1):
            transport.close()


class TestDeadlineBookkeeping:
    """Reply deadlines belong to *requests*, not to driver calls.

    ``send_all(timeout=)`` stamps each request's deadline at its own
    send; ``harvest_all`` then bounds each reply by its own stamp —
    the contract a pipelined driver relies on so a wave sent later
    never inherits an earlier wave's staler budget."""

    def test_send_all_stamps_each_deadline_at_its_own_send(self):
        class SlowSend(InProcTransport):
            def send(self, message):
                time.sleep(0.05)
                super().send(message)

        transports = [SlowSend(lambda request: StopReply()) for _ in range(3)]
        before = time.monotonic()
        deadlines = send_all(transports, [StopRequest()] * 3, timeout=1.0)
        after = time.monotonic()
        assert len(deadlines) == 3
        assert deadlines == sorted(deadlines)
        # each stamp is send-time + timeout, so the third (sent two
        # slow sends later) is measurably later than the first
        assert deadlines[2] - deadlines[0] >= 0.08
        for deadline in deadlines:
            assert before + 1.0 <= deadline <= after + 1.0

    def test_send_all_without_timeout_returns_no_deadlines(self):
        transports = [InProcTransport(lambda request: StopReply())]
        assert send_all(transports, [StopRequest()]) is None

    def test_harvest_raises_for_the_shard_past_its_own_deadline(self):
        quick = InProcTransport(lambda request: StopReply())
        quick.send(StopRequest())  # its reply is already buffered
        silent = InProcTransport(lambda request: StopReply())
        now = time.monotonic()
        with pytest.raises(TransportError, match="shard 1"):
            harvest_all(
                [quick, silent],
                deadlines=[now + 5.0, now + 0.05],
                timeout=0.05,
            )

    def test_overlapped_harvest_times_out_only_the_late_shard(self):
        left0, right0 = socket_pair()
        left1, right1 = socket_pair()
        right0.send(StopReply())  # shard 0's reply is already in flight
        now = time.monotonic()
        try:
            with selector_for([left0, left1]) as selector:
                with pytest.raises(TransportError, match=r"shard\(s\) \[1\]"):
                    harvest_all(
                        [left0, left1],
                        selector=selector,
                        deadlines=[now + 5.0, now + 0.1],
                        timeout=0.1,
                    )
        finally:
            for transport in (left0, right0, left1, right1):
                transport.close()

    def test_later_wave_gets_a_fresh_budget(self):
        """Two pipelined waves on one channel: the second wave's
        deadline starts at *its* send, and the harvests drain the
        channel's replies oldest-wave-first."""
        transports = [InProcTransport(lambda request: StopReply())]
        first = send_all(transports, [StopRequest()], timeout=1.0)
        time.sleep(0.05)
        second = send_all(transports, [StopRequest()], timeout=1.0)
        assert second[0] - first[0] >= 0.04
        assert harvest_all(transports, deadlines=first, timeout=1.0) == [
            StopReply()
        ]
        assert harvest_all(transports, deadlines=second, timeout=1.0) == [
            StopReply()
        ]


class TestServeRequests:
    def test_serves_until_stop_and_acknowledges(self):
        replies = []

        class Script:
            def __init__(self, requests):
                self.requests = list(requests)

            def recv(self):
                if not self.requests:
                    raise TransportError("done")
                return self.requests.pop(0)

            def send(self, message):
                replies.append(message)

        script = Script([PeekRequest(pid=1), StopRequest(), PeekRequest(pid=9)])
        serve_requests(script, lambda request: ErrorReply(f"pid={request.pid}"))
        # the stop was acknowledged and nothing after it was served
        assert replies == [ErrorReply("pid=1"), StopReply()]

    def test_handler_failure_reported_and_loop_ends(self):
        sent = []

        class OneShot:
            def __init__(self):
                self.requests = [PeekRequest(pid=0), PeekRequest(pid=1)]

            def recv(self):
                return self.requests.pop(0)

            def send(self, message):
                sent.append(message)

        def handler(request):
            raise ValueError("world poisoned")

        serve_requests(OneShot(), handler)
        assert len(sent) == 1
        assert isinstance(sent[0], ErrorReply)
        assert "world poisoned" in sent[0].message

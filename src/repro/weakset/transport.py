"""Transports: move protocol messages between driver and shard workers.

:mod:`repro.weakset.protocol` defines *what* crosses the wire; this
module is *how*.  A :class:`Transport` is one bidirectional message
channel to one shard worker, and four implementations cover the places
a shard world can live:

* :class:`DirectTransport` — the worker is an object in this process
  and messages are handed over as objects, with no codec at all.  The
  ``backend="serial"`` execution mode.
* :class:`InProcTransport` — a :class:`DirectTransport` whose requests
  and replies round-trip through the frame codec, so the protocol is
  exercised end-to-end without an OS channel.  The cheapest way to
  test the stack, and the ``backend="inproc"`` execution mode.
* :class:`PipeTransport` — a ``multiprocessing`` pipe to a forked or
  spawned worker process on this machine.
* :class:`SocketTransport` — a TCP stream, so the worker can live on
  another machine entirely.  Frames are already length-prefixed, so
  the stream needs no extra delimiting.

:func:`send_all` and :func:`harvest_all` are the two halves of every
exchange: the first issues every shard's request, the second harvests
one reply per shard in shard order.  Every request is sent before the
first reply is read, so the workers compute concurrently whatever
order the harvest reads in; reply ``i`` is transport ``i``'s, which is
why backend traces stay byte-identical for a fixed seed.  The driver
harvests each exchange before it sends the next, so at most one
request set is in flight.

Rebuild traffic rides the same channels: a membership change runs
between exchanges, when the wire is empty, and a crash recovery in
place of the dead worker's reply; the driver's one rebuild routine
sends each rebuilt world one ``ReplayRequest`` frame over these
transports like any other request — no side channel, and the frame
ordering a worker observes stays deterministic.

Example — the protocol stack over an in-process echo worker:

    >>> from repro.weakset.protocol import StopRequest, StopReply
    >>> transport = InProcTransport(lambda request: StopReply())
    >>> transport.send(StopRequest())
    >>> transport.recv()
    StopReply()
"""

from __future__ import annotations

import selectors
import socket
import time
import traceback
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Deque, List, Optional, Sequence

from repro.errors import ReproError
from repro.weakset.protocol import (
    HEADER_SIZE,
    ErrorReply,
    ProtocolError,
    StopReply,
    StopRequest,
    decode_body,
    decode_header,
    decode_message,
    encode_message,
)

__all__ = [
    "Transport",
    "TransportError",
    "DirectTransport",
    "InProcTransport",
    "PipeTransport",
    "SocketTransport",
    "send_all",
    "harvest_all",
    "serve_requests",
]


class TransportError(ReproError):
    """The peer is gone or the channel failed mid-frame."""


class Transport(ABC):
    """One bidirectional message channel to one shard worker."""

    @abstractmethod
    def send(self, message: object) -> None:
        """Encode and ship one message; :class:`TransportError` if the
        peer is gone."""

    @abstractmethod
    def recv(self) -> object:
        """Block for the next message; :class:`TransportError` on EOF."""

    @abstractmethod
    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a message is (or becomes, within ``timeout``) ready."""

    def send_raw(self, frame: bytes) -> None:
        """Ship pre-encoded (possibly malformed) frame bytes verbatim.

        The fault-injection hook: lets a wrapper put a truncated or
        corrupted frame on the wire, which ``send``'s encode step never
        would.  Channels without a byte-level wire (the in-process
        transports) cannot carry one and refuse.
        """
        raise TransportError("transport cannot ship raw frames")

    def close(self) -> None:
        """Release the channel (idempotent)."""


class DirectTransport(Transport):
    """A worker living in this process, with no codec in between.

    ``send`` hands the request object to ``handler`` and buffers the
    reply object for ``recv``.  A handler exception becomes an
    :class:`~repro.weakset.protocol.ErrorReply` carrying its traceback,
    exactly what a worker process would send, so the driver fails
    closed the same way on every transport.
    """

    def __init__(self, handler: Callable[[object], object]):
        self._handler = handler
        self._inbox: Deque[object] = deque()
        self._closed = False

    def _answer(self, request: object) -> object:
        try:
            return self._handler(request)
        except BaseException as error:
            return _error_reply(error)

    def send(self, message: object) -> None:
        if self._closed:
            raise TransportError("transport closed")
        self._inbox.append(self._answer(message))

    def recv(self) -> object:
        if not self._inbox:
            raise TransportError("no reply pending (send first)")
        return self._inbox.popleft()

    def poll(self, timeout: float = 0.0) -> bool:
        return bool(self._inbox)

    def close(self) -> None:
        self._closed = True
        self._inbox.clear()


class InProcTransport(DirectTransport):
    """A :class:`DirectTransport` behind the full codec.

    ``send`` encodes the request to frame bytes, decodes them on "the
    other side", hands the message to ``handler`` and buffers the
    encoded reply for ``recv`` — so every message still round-trips
    the codec exactly as it would over a pipe or socket, and a value
    the codec cannot carry fails here too (instead of only failing
    once a real network is involved).
    """

    def send(self, message: object) -> None:
        if self._closed:
            raise TransportError("transport closed")
        request = decode_message(encode_message(message))
        self._inbox.append(encode_message(self._answer(request)))

    def recv(self) -> object:
        return decode_message(super().recv())


class PipeTransport(Transport):
    """Frames over a ``multiprocessing`` pipe connection."""

    def __init__(self, connection):
        self._conn = connection

    def send(self, message: object) -> None:
        try:
            self._conn.send_bytes(encode_message(message))
        except (OSError, ValueError):
            raise TransportError("pipe peer is gone") from None

    def send_raw(self, frame: bytes) -> None:
        try:
            self._conn.send_bytes(frame)
        except (OSError, ValueError):
            raise TransportError("pipe peer is gone") from None

    def recv(self) -> object:
        try:
            frame = self._conn.recv_bytes()
        except (EOFError, OSError):
            raise TransportError("pipe peer exited") from None
        return decode_message(frame)

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            return self._conn.poll(timeout)
        except (OSError, ValueError):  # pragma: no cover - defensive
            return False

    def close(self) -> None:
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


class SocketTransport(Transport):
    """Frames over a connected TCP (or Unix) stream socket.

    The protocol's length-prefixed framing is exactly what a byte
    stream needs: read the fixed header, then read exactly the body it
    announces.  ``TCP_NODELAY`` is set where applicable — every frame
    is a complete request or reply awaited by the peer, so Nagle
    buffering only adds latency.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._closed = False
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass  # not a TCP socket (socketpair, Unix domain)

    def _read_exactly(self, count: int) -> bytes:
        chunks = []
        remaining = count
        while remaining:
            try:
                chunk = self._sock.recv(remaining)
            except OSError:
                raise TransportError("socket peer is gone") from None
            if not chunk:
                raise TransportError("socket closed by peer")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def send(self, message: object) -> None:
        try:
            self._sock.sendall(encode_message(message))
        except OSError:
            raise TransportError("socket peer is gone") from None

    def send_raw(self, frame: bytes) -> None:
        try:
            self._sock.sendall(frame)
        except OSError:
            raise TransportError("socket peer is gone") from None

    def recv(self) -> object:
        length = decode_header(self._read_exactly(HEADER_SIZE))
        return decode_body(self._read_exactly(length))

    def poll(self, timeout: float = 0.0) -> bool:
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self._sock, selectors.EVENT_READ)
                return bool(selector.select(timeout))
        except (OSError, ValueError):  # pragma: no cover - defensive
            return False

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # peer already gone
        self._sock.close()


# ----------------------------------------------------------------------
# the exchange
# ----------------------------------------------------------------------
def send_all(
    transports: Sequence[Transport],
    requests: Sequence[object],
    *,
    timeout: Optional[float] = None,
) -> Optional[List[float]]:
    """Send ``requests[i]`` on ``transports[i]`` for all ``i``.

    The issue half of an exchange (every worker then computes
    concurrently).  With ``timeout`` set, returns the per-request reply
    deadlines — each stamped ``time.monotonic() + timeout`` *at its
    own send* — for :func:`harvest_all`; the deadline belongs to the
    request, so a request sent after a slow send does not inherit an
    earlier request's (staler) deadline, and a wedged or silent worker
    becomes a diagnosable :class:`TransportError` instead of a hang.
    Returns ``None`` when ``timeout`` is ``None``.

    Raises :class:`TransportError` annotated with the failing index.
    """
    if len(transports) != len(requests):
        raise ValueError("one request per transport required")
    deadlines: Optional[List[float]] = None if timeout is None else []
    for index, (transport, request) in enumerate(zip(transports, requests)):
        try:
            transport.send(request)
        except TransportError as error:
            raise TransportError(f"shard {index}: {error}") from None
        if deadlines is not None:
            deadlines.append(time.monotonic() + timeout)
    return deadlines


def harvest_all(
    transports: Sequence[Transport],
    *,
    deadlines: Optional[Sequence[float]] = None,
    timeout: Optional[float] = None,
) -> List[object]:
    """Receive exactly one reply per transport, in index order.

    The harvest half of an exchange; the returned list is index-aligned
    with ``transports``, and reply ``i`` is transport ``i``'s answer to
    its request.  Each call consumes exactly one reply per channel,
    and channels deliver replies in request order.

    ``deadlines`` optionally bounds each reply individually (monotonic
    timestamps, index-aligned — normally :func:`send_all`'s return
    value); a transport whose own deadline passes without a reply
    raises :class:`TransportError` naming it.  ``timeout`` only labels
    that error with the originally requested budget.

    Raises :class:`TransportError` (annotated with the shard index) as
    soon as any channel fails; remaining replies are left unread — the
    round is poisoned either way, and the owning backend fails closed.
    """
    replies: List[object] = [None] * len(transports)
    limit = "its deadline" if timeout is None else f"{timeout:g}s"
    for index, transport in enumerate(transports):
        if deadlines is not None:
            remaining = deadlines[index] - time.monotonic()
            if remaining <= 0 or not transport.poll(remaining):
                raise TransportError(f"shard {index}: no reply within {limit}")
        try:
            replies[index] = transport.recv()
        except TransportError as error:
            raise TransportError(f"shard {index}: {error}") from None
    return replies


# ----------------------------------------------------------------------
# the worker-side serve loop
# ----------------------------------------------------------------------
def _error_reply(error: BaseException) -> ErrorReply:
    """A handler's exception as an
    :class:`~repro.weakset.protocol.ErrorReply`: its traceback from the
    handler down, leaving out the frame that caught it, so the text is
    the same whichever transport ran the handler."""
    return ErrorReply(
        "".join(
            traceback.format_exception(
                type(error), error, error.__traceback__.tb_next
            )
        )
    )


def serve_requests(transport: Transport, handler: Callable[[object], object]) -> None:
    """Serve protocol requests until stop, peer exit, or failure.

    The worker half of every backend: receive a request, hand it to
    ``handler``, send the reply.  A :class:`~repro.weakset.protocol.StopRequest`
    is acknowledged and ends the loop; a handler exception is reported
    as an :class:`~repro.weakset.protocol.ErrorReply` and ends the loop
    (the world is mid-round and cannot be trusted — the parent fails
    closed on its side); a vanished peer just ends the loop.
    """
    while True:
        try:
            request = transport.recv()
        except (TransportError, ProtocolError):
            break
        if isinstance(request, StopRequest):
            try:
                transport.send(StopReply())
            except TransportError:
                pass
            break
        try:
            reply = handler(request)
        except BaseException as error:
            try:
                transport.send(_error_reply(error))
            except TransportError:
                pass
            break
        try:
            transport.send(reply)
        except TransportError:
            break

"""Weak-set test fixtures: the multiprocessing start-method matrix,
and a frame counter for the shard driver's rebuild traffic.

The shard backends promise identical behaviour under ``fork`` and
``spawn`` (under ``spawn`` the world config must pickle, which is easy
to break silently on a fork-only dev box).  Process-backed tests take
the ``start_method`` fixture so the whole module runs once per
available method — a parametrized fixture inside the normal tier-1
run, not a separate CI job.
"""

import multiprocessing

import pytest

from repro.weakset.sharding import TransportBackend
from repro.weakset.transport import InProcTransport

_AVAILABLE = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


@pytest.fixture(params=_AVAILABLE)
def start_method(request):
    """Every available multiprocessing start method, one run each."""
    return request.param


@pytest.fixture
def count_frames(monkeypatch):
    """``count_frames(window)`` returns a list that fills, in send
    order, with the type names of the frames the in-process transports
    send while the ``TransportBackend`` method ``window`` runs."""

    def start(window):
        frames = []
        inside = []
        send = InProcTransport.send
        method = getattr(TransportBackend, window)

        def counting(self, message):
            if inside:
                frames.append(type(message).__name__)
            return send(self, message)

        def watched(self, *args, **kwargs):
            inside.append(window)
            try:
                return method(self, *args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(InProcTransport, "send", counting)
        monkeypatch.setattr(TransportBackend, window, watched)
        return frames

    return start

"""Outside-in layer tracer for the end-to-end benchmark.

The traced run wraps the program's public callables at each layer
boundary from here, without editing the program's source:

* a method is wrapped on the class that defines it (``Class.__dict__``),
  so identity checks such as ``type(env).delay_ticks is
  Environment.delay_ticks`` in ``runtime/columnar_engine.py`` and
  ``giraf/environments.py`` keep holding — both sides resolve to the
  same wrapper.  No subclass or proxy is ever substituted, so
  ``type(x) is HeartbeatPseudoLeader`` eligibility checks hold too;
* a module function is replaced in every ``repro.*`` namespace that
  references it (``from repro._rng import derive_randint`` copies the
  reference into the importing module).

Each wrapper charges its call to one :class:`Stat`: inclusive time minus
the time its traced children took is the boundary's *self* time, so the
self times of all layers plus the benchmark's own remainder (``bench``)
add up to the traced wall time.  Layer time is reported as a *share* of
that wall time.  A boundary that no longer exists (a class or function
deleted by a later change) is reported as absent instead of failing
the run.

Layers are named after their modules (``rng`` is ``repro._rng``).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "Tracer"]

#: what a boundary adds to an extra metric of its layer: one per call,
#: or its self / inclusive time as a share of the traced wall time
ONE = "calls"
SELF = "self_s"
INCLUSIVE = "inclusive_s"


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _row_links(args, kwargs, result) -> int:
    return sum(len(row) for row in result.values())


def _late_receivers(args, kwargs, result) -> int:
    return len(args[4] if len(args) > 4 else kwargs["receivers"])


def _body_bytes(args, kwargs, result) -> int:
    from repro.weakset.protocol import HEADER_SIZE

    # the header was read before the body reached the decoder
    return len(args[0] if args else kwargs["body"]) + HEADER_SIZE


def _b(target: str, **extras) -> Tuple[str, Dict[str, object]]:
    """A boundary: ``"function"`` or ``"Class.method"`` plus what it adds
    to its layer's extra metrics — :data:`ONE`, :data:`SELF`,
    :data:`INCLUSIVE`, or a function ``(args, kwargs, result) -> number``
    (at most one such function per boundary)."""
    return target, extras


#: (layer, module, boundaries).  Which end-to-end metric each layer
#: should move, and on which workload, is written down in README.md.
LAYERS = (
    ("rng", "repro._rng", (
        _b("derive_rng", draws=ONE),
        _b("derive_uniform", draws=ONE),
        _b("derive_randint", draws=ONE),
        _b("derive_randrange", draws=ONE),
    )),
    ("giraf.adversary", "repro.giraf.adversary", (
        _b("CrashSchedule.fraction"),
        _b("CrashSchedule.plan_for"),
        _b("RandomSource.pick"),
        _b("RoundRobinSource.pick"),
        _b("FlappingSource.pick"),
        _b("FixedSource.pick"),
        _b("DelayPolicy.delay_row"),
        _b("UniformDelay.delay"),
        _b("UniformDelay.delay_row"),
        _b("ConstantDelay.delay"),
        _b("ConstantDelay.delay_row"),
    )),
    ("giraf.environments", "repro.giraf.environments", (
        _b("Environment.plan_round_links", links=_row_links),
        _b("Environment.extra_timely"),
        _b("Environment.delay_ticks"),
        _b("Environment.delay_ticks_row", links=_len_result),
        _b("Environment.timely_latency"),
        _b("Environment.late_latency"),
        _b("Environment.timely_latencies", links=_len_result),
        _b("Environment.late_latencies", links=_len_result),
        _b("MovingSourceEnvironment.plan_round"),
        _b("EventualSynchronyEnvironment.plan_round"),
        _b("EventuallyStableSourceEnvironment.plan_round"),
        _b("LinkPolicy.timely_block"),
        _b("SilentLinks.timely_block"),
        _b("AllTimelyLinks.timely_block"),
        _b("BernoulliLinks.timely_block"),
    )),
    ("giraf.scheduler", "repro.giraf.scheduler", (
        _b("LockStepScheduler.__init__"),
        _b("LockStepScheduler.step"),
        _b("LockStepScheduler.run"),
        _b("DriftingScheduler.__init__"),
        _b("DriftingScheduler.run"),
    )),
    ("giraf.automaton", "repro.giraf.automaton", (
        _b("GirafProcess.end_of_round"),
        _b("GirafProcess.receive", receives=ONE),
        _b("GirafProcess.receive_values", receives=ONE),
        _b("GirafProcess.crash"),
    )),
    ("runtime.kernel", "repro.runtime.kernel", (
        _b("RuntimeKernel.__init__"),
        _b("RuntimeKernel.poll_decision"),
        _b("RuntimeKernel.crash"),
        _b("RuntimeKernel.apply_scheduled_crashes"),
        _b("RuntimeKernel.record_halt"),
        _b("RuntimeKernel.any_active"),
        _b("RuntimeKernel.stop_requested"),
        _b("RuntimeKernel.queue_delivery", late_links=ONE),
        _b("RuntimeKernel.queue_delivery_row", late_links=_late_receivers),
        _b("RuntimeKernel.due_deliveries"),
    )),
    ("runtime.events", "repro.runtime.events", (
        _b("CalendarEventQueue.push", events=ONE),
        _b("CalendarEventQueue.pop"),
        _b("HeapEventQueue.push", events=ONE),
        _b("HeapEventQueue.pop"),
    )),
    ("runtime.sinks", "repro.runtime.sinks", (
        _b("TraceSink.bulk_deliveries"),
        _b("FullTraceSink.send"),
        _b("FullTraceSink.delivery"),
        _b("AggregateTraceSink.send"),
        _b("AggregateTraceSink.delivery"),
        _b("AggregateTraceSink.bulk_deliveries"),
    )),
    ("runtime.columnar_engine", "repro.runtime.columnar_engine", (
        _b("warm_history_index"),
        _b("ColumnarLockStepEngine.try_build"),
        _b("ColumnarLockStepEngine.step", steps=ONE),
        _b("ColumnarLockStepEngine.finalize"),
        _b("ColumnarDriftingEngine.try_build"),
        _b("ColumnarDriftingEngine.run"),
        _b("ColumnarDriftingEngine.finalize"),
    )),
    ("core.pseudo_leader", "repro.core.pseudo_leader", (
        _b("PseudoLeaderElector.merge_round"),
        _b("PseudoLeaderElector.is_leader"),
        _b("PseudoLeaderElector.my_counter"),
        _b("PseudoLeaderElector.max_counter"),
        _b("PseudoLeaderElector.append"),
        _b("PseudoLeaderElector.frozen_counters"),
        _b("HeartbeatPseudoLeader.initialize"),
        _b("HeartbeatPseudoLeader.compute"),
        _b("HeartbeatPseudoLeader.use_columnar"),
    )),
    ("core.columnar", "repro.core.columnar", (
        _b("ColumnarElector.adopt"),
        _b("ColumnarElector.merge_round"),
        _b("ColumnarElector.is_leader"),
        _b("ColumnarElector.my_counter"),
        _b("ColumnarElector.max_counter"),
        _b("ColumnarElector.append"),
        _b("ColumnarElector.frozen_counters"),
        _b("HistoryIndex.intern"),
        _b("HistoryIndex.child_col"),
    )),
    ("core.ess_consensus", "repro.core.ess_consensus", (
        _b("ESSConsensus.initialize"),
        _b("ESSConsensus.compute"),
        _b("ESSConsensus.use_columnar"),
    )),
    ("core.es_consensus", "repro.core.es_consensus", (
        _b("ESConsensus.initialize"),
        _b("ESConsensus.compute"),
    )),
    ("core.checkers", "repro.core.checkers", (
        _b("check_consensus"),
    )),
    ("weakset.sharding", "repro.weakset.sharding", (
        _b("ShardedWeakSetCluster.__init__"),
        _b("ShardedWeakSetCluster.begin_add"),
        _b("ShardedWeakSetCluster.advance"),
        _b("ShardedWeakSetCluster.step"),
        _b("ShardedWeakSetCluster.traces"),
        _b("ShardedWeakSetCluster.close"),
        _b("ShardedWeakSetHandle.add"),
        _b("ShardedWeakSetHandle.add_async"),
        _b("ShardedWeakSetHandle.get", gets=ONE, get_share=INCLUSIVE),
        _b("ShardBackend.advance"),
        _b("TransportBackend.begin_add"),
        _b("TransportBackend.step"),
        _b("TransportBackend.step_batch"),
        _b("TransportBackend.advance"),
        _b("TransportBackend.local_views"),
        _b("TransportBackend.traces"),
        _b("TransportBackend.close"),
    )),
    ("weakset.transport", "repro.weakset.transport", (
        _b("send_all"),
        _b("harvest_all", wait_share=SELF),
        _b("exchange_all"),
        _b("InProcTransport.send"),
        _b("InProcTransport.recv"),
        _b("PipeTransport.send"),
        _b("PipeTransport.recv", wait_share=SELF),
        _b("PipeTransport.poll", wait_share=SELF),
        _b("SocketTransport.send"),
        _b("SocketTransport.recv", wait_share=SELF),
        _b("SocketTransport.poll", wait_share=SELF),
    )),
    ("weakset.protocol", "repro.weakset.protocol", (
        _b("encode_message", bytes=_len_result, frames=ONE),
        _b("decode_message"),
        _b("decode_body", bytes=_body_bytes, frames=ONE),
    )),
    ("weakset.spec", "repro.weakset.spec", (
        _b("check_weakset"),
    )),
)


def _layer_extras(boundaries) -> List[str]:
    """A layer's extra metric names, in declaration order."""
    names: List[str] = []
    for _target, extras in boundaries:
        names += [extra for extra in extras if extra not in names]
    return names


class Stat:
    """Aggregates of one boundary: self and inclusive time, calls, and
    the value of its counting function."""

    __slots__ = ("layer", "target", "extras", "self_s", "inclusive_s", "calls", "counted")

    def __init__(self, layer: str, target: str, extras: Dict[str, object]):
        self.layer = layer
        self.target = target
        self.extras = extras
        self.self_s = 0.0
        self.inclusive_s = 0.0
        self.calls = 0
        self.counted = 0

    def contribution(self, extra: str, wall_s: float) -> float:
        """What this boundary adds to its layer's ``extra`` metric."""
        kind = self.extras.get(extra)
        if kind is None:
            return 0
        if kind == ONE:
            return self.calls
        if kind == SELF:
            return self.self_s / wall_s
        if kind == INCLUSIVE:
            return self.inclusive_s / wall_s
        return self.counted


class Tracer:
    """Installs the boundary wrappers and keeps per-layer aggregates.

    Use :meth:`install` / :meth:`uninstall` around each traced instance
    and :meth:`instance` inside them.  With ``record_spans`` the
    first instance's full spans ``(name, start, end, parent, instance)``
    are held in memory until :meth:`write_spans`.
    """

    def __init__(self, *, record_spans: bool = False):
        self.stats: List[Stat] = []
        self.absent: List[str] = []
        #: traced wall time and the part no boundary claimed
        self.wall_s = 0.0
        self.bench_self_s = 0.0
        #: time the traced children of the current frame took
        self.child = 0.0
        #: span list while the first instance records, else None
        self.spans: Optional[list] = None
        self.first_spans: list = []
        self._record_spans = record_spans
        self._parent = -1
        self._instance = -1
        #: (owner, attribute, original, wrapper), built by the first install
        self._patches: Optional[List[Tuple[object, str, object, object]]] = None

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary that exists; record the rest as absent.

        The wrappers are built once; later calls put them back, so one
        tracer can be switched on and off around single instances.
        """
        if self._patches is None:
            self._patches = []
            for layer, module_name, boundaries in LAYERS:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent += [f"{module_name}:{target}" for target, _ in boundaries]
                    continue
                for target, extras in boundaries:
                    if not self._build(layer, module, target, extras):
                        self.absent.append(f"{module_name}:{target}")
            # Forked shard workers run the program untraced: their time
            # is reported as worker CPU, not as parent-side layers.
            os.register_at_fork(after_in_child=self.uninstall)
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def _build(self, layer, module, target, extras) -> bool:
        owner_name, _, attr = target.rpartition(".")
        counters = [kind for kind in extras.values() if callable(kind)]
        stat = Stat(layer, target, extras)
        count = counters[0] if counters else None
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or attr not in owner.__dict__:
                return False
            raw = owner.__dict__[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapper = type(raw)(self._wrap(raw.__func__, stat, count))
            elif callable(raw):
                wrapper = self._wrap(raw, stat, count)
            else:
                return False
            self._patches.append((owner, attr, raw, wrapper))
        else:
            original = getattr(module, attr, None)
            if not callable(original):
                return False
            wrapper = self._wrap(original, stat, count)
            for name, namespace in list(sys.modules.items()):
                if namespace is None or not (name == "repro" or name.startswith("repro.")):
                    continue
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patches.append((namespace, key, original, wrapper))
        self.stats.append(stat)
        return True

    def uninstall(self) -> None:
        """Restore every original callable (idempotent)."""
        for owner, attr, original, _wrapper in reversed(self._patches or ()):
            setattr(owner, attr, original)

    # -- the wrapper -----------------------------------------------------
    def _wrap(self, fn: Callable, stat: Stat, count: Optional[Callable]):
        clock = time.perf_counter
        tracer = self
        name = f"{stat.layer}:{stat.target}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer = tracer.child
            tracer.child = 0.0
            spans = tracer.spans
            if spans is not None:
                index = len(spans)
                spans.append(None)
                parent = tracer._parent
                tracer._parent = index
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat.self_s += elapsed - tracer.child
                stat.inclusive_s += elapsed
                stat.calls += 1
                tracer.child = outer + elapsed
                if spans is not None:
                    spans[index] = (name, start, end, parent, tracer._instance)
                    tracer._parent = parent
            if count is not None:
                stat.counted += count(args, kwargs, result)
            return result

        return traced

    # -- instances -------------------------------------------------------
    @contextmanager
    def instance(self, instance_id: int):
        """The root span of one benchmark instance."""
        spans = None
        if self._record_spans and not self.first_spans:
            spans = self.spans = [None]
            self._parent = 0
        self._instance = instance_id
        self.child = 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.wall_s += end - start
            self.bench_self_s += end - start - self.child
            self.child = 0.0
            if spans is not None:
                spans[0] = ("bench:instance", start, end, -1, instance_id)
                self.first_spans = spans
                self.spans = None
                self._parent = -1

    # -- reporting -------------------------------------------------------
    def metrics(self) -> Dict[str, float]:
        """Per-layer aggregates over every traced instance."""
        wall_s = self.wall_s or 1.0
        out: Dict[str, float] = {}
        for layer, _module, boundaries in LAYERS:
            stats = [stat for stat in self.stats if stat.layer == layer]
            out[f"{layer}.share"] = sum(stat.self_s for stat in stats) / wall_s
            out[f"{layer}.calls"] = sum(stat.calls for stat in stats)
            for extra in _layer_extras(boundaries):
                out[f"{layer}.{extra}"] = sum(
                    stat.contribution(extra, wall_s) for stat in stats
                )
        draws = out["rng.draws"]
        rng_s = sum(stat.self_s for stat in self.stats if stat.layer == "rng")
        out["rng.us_per_draw"] = 1e6 * rng_s / draws if draws else 0.0
        out["bench.share"] = self.bench_self_s / wall_s
        out["bench.wall_s"] = self.wall_s
        return out

    def write_spans(self, path: str) -> int:
        """Write the first instance's spans as JSON lines; return the count."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, instance in self.first_spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "instance": instance,
                }
                handle.write(json.dumps(record) + "\n")
        return len(self.first_spans)

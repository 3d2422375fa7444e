"""Per-layer self time and exact counts, measured from outside ``repro``.

The tracer patches the public entry points of each layer (and installs
a :class:`repro.obs.profiler.Profiler` subclass as the engine's event
dispatcher) inside one workload process. Nothing under ``src/`` changes.

Every timed entry point opens a *span* charged to a *bucket* (``sim``,
``phys.cpu``, ``click.IPClassifier``, ``net.trie.lookup``, ...). A
bucket's self time is the span's duration minus the part covered by
spans opened inside it, so the self times of all buckets add up to the
time spent inside the outermost spans, ``Simulator.run``.

Tracer cost: each span costs its parent some host time outside the
span's own clock reads (the patched wrapper, the engine's dispatch hook,
the span bookkeeping). :meth:`Tracer.install` measures that cost per
kind of entry point on no-op calls. Every closed span moves its cost
from its parent to the ``trace`` bucket, and every counting wrapper
moves its own from the span it runs in, so ``sim`` and ``phys.cpu`` are
not inflated by the number of events and work items they run.

Owner attribution: an engine event is charged to the bucket of the
object that owns its callback, and a CPU work item queued with
``Process.exec_after`` is charged to the bucket of the ``fn`` it runs
on completion (the Click element, routing daemon or tool), never to
``phys.cpu``. ``phys.cpu`` keeps only the scheduler's own work.
"""

from __future__ import annotations

import functools
import statistics
from time import perf_counter
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.click.element import Element
from repro.net.addr import IPv4Address
from repro.net.packet import Packet
from repro.net.tcp import TCPConnection, TCPStack
from repro.net.trie import RadixTrie
from repro.obs.profiler import Profiler
from repro.phys.cpu import CPUScheduler
from repro.phys.link import Link
from repro.phys.node import PhysicalNode
from repro.phys.process import Process
from repro.phys.sockets import RawIntercept, UDPSocket
from repro.routing.bgp import BGPSession
from repro.routing.ospf import OSPFDaemon
from repro.routing.rib import RIB
from repro.sim.engine import Event, Simulator
from repro.sim.timer import PeriodicTimer, Timeout

_PHYS = {
    "repro.phys.cpu": "phys.cpu",
    "repro.phys.process": "phys.cpu",
    "repro.phys.link": "phys.link",
    "repro.phys.node": "phys.node",
    "repro.phys.sockets": "phys.sockets",
    "repro.phys.load": "phys.load",
}
_ROUTING = {"ospf", "bgp", "rib"}

# Counts the tracer takes by calling through a patched entry point.
CALL_COUNTS = (
    "sim.cancelled",
    "phys.cpu.items",
    "phys.cpu.wakes",
    "click.pushes",
    "net.packet.finds",
    "net.addr.objects",
    "net.trie.lookups",
    "net.trie.inserts",
    "net.tcp.segments",
    "phys.link.transmits",
    "phys.node.ip_inputs",
    "phys.sockets.sends",
    "routing.rib.updates",
)


def bucket_of(module: str, cls_name: str = "") -> str:
    """The bucket that owns code defined in ``module`` (on class ``cls_name``)."""
    if module.startswith("repro.click"):
        return f"click.{cls_name}" if cls_name else "click"
    if module.startswith("repro.routing."):
        leaf = module.rsplit(".", 1)[1]
        return f"routing.{leaf if leaf in _ROUTING else 'other'}"
    if module in _PHYS:
        return _PHYS[module]
    if module == "repro.net.tcp":
        return "net.tcp"
    if module.startswith("repro.sim"):
        return "sim"
    if module.startswith("repro."):
        return module.split(".")[1]
    return "other"


def owner_bucket(fn: Callable) -> str:
    """Bucket of the code a callback runs, seen through the engine's
    timer helpers and ``functools.partial``."""
    for _ in range(4):
        if isinstance(fn, functools.partial):
            fn = fn.func
            continue
        owner = getattr(fn, "__self__", None)
        if isinstance(owner, (PeriodicTimer, Timeout)):
            fn = owner.fn
            continue
        break
    owner = getattr(fn, "__self__", None)
    if owner is not None and not isinstance(owner, type):
        cls = type(owner)
        return bucket_of(cls.__module__ or "", cls.__name__)
    return bucket_of(getattr(fn, "__module__", "") or "")


def metric_of(bucket: str) -> str:
    """Metric name of a bucket's self time."""
    if bucket.startswith("net.trie."):
        return f"{bucket}_s"
    return f"{bucket}.self_s"


class _Dispatcher(Profiler):
    """Engine event hook: counts events and charges each to its owner."""

    def __init__(self, tracer: "Tracer"):
        super().__init__()
        self.tracer = tracer

    def dispatch(self, event) -> None:
        tracer = self.tracer
        fn = event.fn
        tracer.events += 1
        tracer.span(tracer.bucket(fn), tracer.event_cost, fn, *event.args)


class Tracer:
    """Spans and counts for one workload process.

    :meth:`install` patches the layers; :meth:`begin` zeroes everything
    at the start of the measured phase; :meth:`snapshot` reads it out.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = dict.fromkeys(CALL_COUNTS, 0)
        self.events = 0
        # Host seconds each span costs its parent, by kind of entry
        # point: a patched method, an engine event, a CPU work item;
        # and what a counting wrapper costs the span it runs in.
        self.call_cost = self.event_cost = self.item_cost = self.count_cost = 0.0
        # Child time accumulated by the open spans, innermost last.
        self._children: List[float] = [0.0]
        self._dispatcher = _Dispatcher(self)
        # (owner type, function) -> bucket, as the Profiler caches it.
        self._owners: Dict[Any, str] = {}
        self._patched: List[tuple] = []
        # Instances whose own counters are read at begin/snapshot.
        self.instances: Dict[type, list] = defaultdict(list)
        self._base: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, bucket: str, cost: float, fn: Callable,
             *args: Any, **kwargs: Any) -> Any:
        """Call ``fn`` in a span of ``bucket``; ``cost`` is what the
        span costs its parent, which is billed to ``trace`` instead."""
        children = self._children
        children.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self_s = self.self_s
            self_s[bucket] += elapsed - children.pop()
            self_s["trace"] += cost
            children[-1] += elapsed + cost

    def bucket(self, fn: Callable) -> str:
        """Cached :func:`owner_bucket`."""
        owner = getattr(fn, "__self__", None)
        key = (type(owner), getattr(fn, "__func__", fn))
        bucket = self._owners.get(key)
        if bucket is None:
            bucket = self._owners[key] = owner_bucket(fn)
        return bucket

    def charged(self, fn: Callable) -> Callable:
        """``fn`` wrapped so each call is charged to its owner's bucket."""
        bucket = self.bucket(fn)
        cost = self.item_cost
        span = self.span

        def run(*args: Any) -> Any:
            return span(bucket, cost, fn, *args)

        return run

    def _per_call(self, fn: Callable, args: tuple) -> float:
        """Self time, per call, of a span that calls ``fn(*args)`` over
        and over."""

        def loop() -> None:
            for _ in range(_CALIBRATION_CALLS):
                fn(*args)

        self.span("trace.calibrate", 0.0, loop)
        return self.self_s.pop("trace.calibrate") / _CALIBRATION_CALLS

    def _cost(self, traced: Callable, plain: Callable, args: tuple) -> float:
        """What ``traced(*args)`` costs the span around it beyond the
        untraced ``plain(None, None)``: the median over rounds that
        alternate the two, so a drift in host speed cancels out."""
        diffs = [
            self._per_call(traced, args) - self._per_call(plain, (None, None))
            for _ in range(_CALIBRATION_ROUNDS)
        ]
        return max(0.0, statistics.median(diffs))

    def calibrate(self) -> None:
        """Measure the ``*_cost`` attributes on no-op calls with two
        arguments through each kind of entry point."""
        noop = _Noop().run
        args = (None, None)
        self.counts["trace.calibrate"] = 0
        self.call_cost = self._cost(self._timed_wrapper(
            noop, "trace.calibrate.child", "trace.calibrate"), noop, args)
        self.event_cost = self._cost(
            self._dispatcher.dispatch, noop, (Event(0.0, 0, noop, args),))
        self.item_cost = self._cost(self.charged(noop), noop, args)
        self.count_cost = self._cost(
            self._counted_wrapper(noop, "trace.calibrate"), noop, args)
        del self.counts["trace.calibrate"]
        self.self_s.clear()
        self.events = 0

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, cls: type, name: str, wrapper: Callable) -> None:
        original = cls.__dict__[name]
        self._patched.append((cls, name, original))
        setattr(cls, name, wrapper)

    def _timed_wrapper(self, original: Callable, bucket: str, count: str = "") -> Callable:
        span = self.span
        cost = self.call_cost
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if count:
                counts[count] += 1
            return span(bucket, cost, original, *args, **kwargs)

        return functools.wraps(original)(wrapper)

    def _timed(self, cls: type, name: str, bucket: str, count: str = "") -> None:
        self._patch(cls, name,
                    self._timed_wrapper(cls.__dict__[name], bucket, count))

    def _counted_wrapper(self, original: Callable, count: str,
                         when: Optional[Callable[..., bool]] = None) -> Callable:
        """``original`` counting its calls (those ``when`` accepts); the
        wrapper's own cost is moved from the open span to ``trace``."""
        counts = self.counts
        children = self._children
        self_s = self.self_s
        cost = self.count_cost

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if when is None or when(*args):
                counts[count] += 1
            children[-1] += cost
            self_s["trace"] += cost
            return original(*args, **kwargs)

        return functools.wraps(original)(wrapper)

    def _counted(self, cls: type, name: str, count: str,
                 when: Optional[Callable[..., bool]] = None) -> None:
        self._patch(cls, name,
                    self._counted_wrapper(cls.__dict__[name], count, when))

    def _element_push(self, cls: type) -> None:
        # Charged to the runtime class, which may inherit ``push``.
        original = cls.__dict__["push"]
        span = self.span
        cost = self.call_cost
        counts = self.counts
        buckets: Dict[type, str] = {}

        def push(element, port, packet) -> None:
            counts["click.pushes"] += 1
            kind = type(element)
            bucket = buckets.get(kind)
            if bucket is None:
                bucket = buckets[kind] = f"click.{kind.__name__}"
            span(bucket, cost, original, element, port, packet)

        self._patch(cls, "push", functools.wraps(original)(push))

    def _registered(self, cls: type) -> None:
        original = cls.__init__
        seen = self.instances[cls]

        def wrapper(obj, *args: Any, **kwargs: Any) -> None:
            original(obj, *args, **kwargs)
            seen.append(obj)

        self._patch(cls, "__init__", functools.wraps(original)(wrapper))

    def install(self) -> "Tracer":
        """Patch every layer's entry points; idempotent per tracer."""
        if self._patched:
            return self
        self.calibrate()
        dispatcher = self._dispatcher
        span = self.span
        call_cost = self.call_cost
        run = Simulator.__dict__["run"]

        def sim_run(sim, *args: Any, **kwargs: Any) -> float:
            dispatcher.install(sim)
            return span("sim", call_cost, run, sim, *args, **kwargs)

        self._patch(Simulator, "run", functools.wraps(run)(sim_run))

        self._counted(Event, "cancel", "sim.cancelled",
                      lambda event: not event.cancelled)

        exec_after = Process.__dict__["exec_after"]
        counts = self.counts
        charged = self.charged

        def process_exec_after(process, work, fn, *args: Any, **kwargs: Any):
            counts["phys.cpu.items"] += 1
            return span("phys.cpu", call_cost, exec_after, process, work,
                        charged(fn), *args, **kwargs)

        self._patch(Process, "exec_after",
                    functools.wraps(exec_after)(process_exec_after))

        # ``exec_after`` queues before waking, so one queued item means
        # the run queue was empty: the scheduler's idle -> runnable case.
        self._counted(CPUScheduler, "wake", "phys.cpu.wakes",
                      lambda scheduler, process: len(process.queue) == 1)

        for cls in _element_classes():
            if "push" in cls.__dict__:
                self._element_push(cls)

        self._counted(Packet, "find", "net.packet.finds")
        new = IPv4Address.__dict__["__new__"].__func__
        self._patch(IPv4Address, "__new__",
                    staticmethod(self._counted_wrapper(new, "net.addr.objects")))
        self._timed(RadixTrie, "lookup_entry", "net.trie.lookup", "net.trie.lookups")
        self._timed(RadixTrie, "insert", "net.trie.insert", "net.trie.inserts")
        self._timed(TCPStack, "input", "net.tcp", "net.tcp.segments")
        self._timed(TCPConnection, "send", "net.tcp")
        self._timed(Link, "transmit", "phys.link", "phys.link.transmits")
        self._timed(PhysicalNode, "ip_input", "phys.node", "phys.node.ip_inputs")
        self._timed(PhysicalNode, "ip_output", "phys.node")
        self._timed(PhysicalNode, "tap_input", "phys.node")
        self._timed(UDPSocket, "sendto", "phys.sockets", "phys.sockets.sends")
        self._timed(UDPSocket, "enqueue", "phys.sockets")
        self._timed(RawIntercept, "enqueue", "phys.sockets")
        self._timed(RIB, "update", "routing.rib", "routing.rib.updates")
        self._timed(RIB, "withdraw", "routing.rib", "routing.rib.updates")
        for cls in (Simulator, OSPFDaemon, BGPSession, TCPStack, Link):
            self._registered(cls)
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._patched:
            cls, name, original = self._patched.pop()
            setattr(cls, name, original)

    # ------------------------------------------------------------------
    # Readout
    # ------------------------------------------------------------------
    def _object_counts(self) -> Dict[str, int]:
        ospf = self.instances[OSPFDaemon]
        return {
            # The engine's scheduled-event counter (see scenarios._engine).
            "sim.scheduled": sum(sim._seq for sim in self.instances[Simulator]),
            "routing.ospf.spf_runs": sum(d.spf_runs for d in ospf),
            "routing.ospf.spf_full_runs": sum(d.spf_full_runs for d in ospf),
            "routing.bgp.updates": sum(
                s.updates_received for s in self.instances[BGPSession]),
            "net.tcp.retransmits": sum(
                s.total_retransmits for s in self.instances[TCPStack]),
            "phys.link.drops": sum(
                link.stats()["drops"] for link in self.instances[Link]),
        }

    def begin(self) -> None:
        """Start of the measured phase: zero spans and counts."""
        self.self_s.clear()
        for name in self.counts:
            self.counts[name] = 0
        self.events = 0
        self._base = self._object_counts()

    def snapshot(self) -> Dict[str, Any]:
        """Counts (exact) and self times by metric name since :meth:`begin`."""
        counts = dict(self.counts)
        counts["sim.events"] = self.events
        for name, value in self._object_counts().items():
            counts[name] = value - self._base.get(name, 0)
        self_s = {metric_of(bucket): t for bucket, t in self.self_s.items()}
        return {"counts": counts, "self_s": self_s}


_CALIBRATION_CALLS = 4000
_CALIBRATION_ROUNDS = 25


class _Noop:
    """Callback owner for calibration: a bound method that does nothing."""

    def run(self, *args: Any) -> None:
        pass


def _element_classes() -> List[type]:
    import repro.click  # noqa: F401 - registers every element class

    found, stack = [], [Element]
    while stack:
        cls = stack.pop()
        for sub in cls.__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found

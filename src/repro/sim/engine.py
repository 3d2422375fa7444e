"""The discrete-event engine.

A :class:`Simulator` owns the pending-event set. Each event is a plain
callback; there are no threads and no real time. Code that needs
randomness draws it from named, seeded streams
(:class:`repro.sim.rand.RandomStreams`) so that two runs with the same
seed produce byte-identical traces.

One queue backs the engine: a binary heap of ``(time, seq, event)``
entries. ``seq`` is a global scheduling counter, so events fire in a
strict ``(time, seq)`` total order — same-time events run in the order
they were scheduled, and ``call_soon`` is simply a schedule at the
current time. Three details keep the heap cheap on real scenarios:

* **lazy cancellation** — :meth:`Event.cancel` only marks the event
  dead; the run loop discards corpses when they reach the head. When
  corpses exceed a quarter of the heap it is compacted in one pass, so
  cancellation churn (restartable dead timers, TCP RTO) cannot bloat
  it.
* **in-place periodic re-arm** — a periodic event gets a fresh sequence
  number and is pushed back before its callback runs, with no new
  :class:`Event` allocated per tick.
* **pull-only introspection** — ``sim.pending``, ``sim.now`` and
  ``sim.events_scheduled`` are read from plain counters at collection
  time, so the run loop pays nothing for them.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_RECORDER
from repro.sim.rand import RandomStreams
from repro.sim.trace import TraceCollector

# Compact the heap once cancelled entries exceed this fraction of it
# (and number more than _COMPACT_MIN, so small heaps never bother).
_COMPACT_THRESHOLD = 0.25
_COMPACT_MIN = 64


class Event:
    """A handle to a scheduled callback.

    Cancellation is O(1): the event is marked dead, the live-event
    counter drops immediately, and the heap entry is discarded lazily
    when it reaches the head, with bulk compaction if corpses pile up.

    ``interval`` > 0 makes the event periodic: the engine re-arms it in
    place after each firing, with a fresh sequence number, so periodic
    timers allocate nothing per tick.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "interval", "sim", "queued")

    def __init__(self, time: float, seq: int, fn: Callable, args: tuple,
                 sim: Optional["Simulator"] = None, interval: float = 0.0):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.interval = interval
        self.sim = sim
        self.queued = False

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call twice."""
        if self.cancelled:
            return
        self.cancelled = True
        self.interval = 0.0
        # Drop references so cancelled events pinned in the heap do not
        # keep packets / closures alive.
        self.fn = _noop
        self.args = ()
        if self.queued:
            self.queued = False
            sim = self.sim
            sim._live -= 1
            sim._heap_cancelled = dead = sim._heap_cancelled + 1
            if dead > _COMPACT_MIN and dead > _COMPACT_THRESHOLD * len(sim._heap):
                sim._compact_heap()

    @property
    def active(self) -> bool:
        return not self.cancelled

    def __lt__(self, other: "Event") -> bool:
        if self.time != other.time:
            return self.time < other.time
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "active"
        return f"<Event t={self.time:.6f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """Single-threaded deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all named random streams.

    Attributes
    ----------
    now:
        Current simulated time in seconds.
    trace:
        A :class:`TraceCollector` that experiment code and tools use to
        record measurements.
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry` that components
        publish counters/gauges/histograms into. The engine's own
        series are pull-based (read at collection time), so the hot
        loop pays nothing for them.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.seed = seed
        self.random = RandomStreams(seed)
        self.trace = TraceCollector(self)
        self.metrics = MetricsRegistry(self)
        # Causal flight recorder (repro.obs.spans). Defaults to the
        # shared null object; FlightRecorder(sim).install() swaps in a
        # live one. Instrumented sites guard on ``sim.flight.enabled``.
        self.flight = NULL_RECORDER
        # Installed Profiler, or None. The run loop hoists this into a
        # local, so (un)installing takes effect at the next run()/step().
        self._profiler = None
        # Wall-clock hook for repro.obs.live: polled between events;
        # returns how many events to skip before the next poll.
        # Uninstalled cost is one attribute load + None test per event.
        self._live_hook = None
        self._heap: List[tuple] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self._live = 0
        self._heap_cancelled = 0
        # call_unique coalescing: callable -> its one pending event.
        self._unique: Dict[Callable, Event] = {}
        self.metrics.gauge("sim.pending", fn=lambda: self._live)
        self.metrics.gauge("sim.now", fn=lambda: self.now)
        self.metrics.counter("sim.events_scheduled", fn=lambda: self._seq)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, time: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated ``time``.

        Scheduling in the past raises ``ValueError`` — a past event would
        silently reorder history and mask bugs.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        event.queued = True
        self._live += 1
        # schedule() and at() push inline rather than through a shared
        # helper, sparing a call frame per event on the hottest path.
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def at(self, delay: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        time = self.now + delay
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self)
        event.queued = True
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def call_soon(self, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` at the current time, after every event
        already scheduled for it."""
        return self.schedule(self.now, fn, *args)

    def call_unique(self, fn: Callable) -> Event:
        """Run ``fn()`` at the current time, coalescing duplicates.

        While a prior ``call_unique(fn)`` for the *same* callable is
        still pending, further calls return that pending event instead
        of scheduling another — the deferred-work idiom for components
        that get dirtied many times per timestep (the fluid traffic
        plane's rate re-solve) but must act once. The registration
        clears when the event fires, so ``fn`` can re-arm itself; a
        cancelled registration counts as absent, so the next call
        schedules afresh.
        """
        pending = self._unique.get(fn)
        if pending is not None and not pending.cancelled:
            return pending
        event = self.call_soon(self._fire_unique, fn)
        self._unique[fn] = event
        return event

    def _fire_unique(self, fn: Callable) -> None:
        self._unique.pop(fn, None)
        fn()

    def schedule_periodic(self, interval: float, fn: Callable, *args: Any) -> Event:
        """Run ``fn(*args)`` every ``interval`` seconds, starting one
        interval from now.

        The engine re-arms the returned event in place after each
        firing (fresh sequence number, no allocation). Cancel it to
        stop the series.
        """
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        time = self.now + interval
        self._seq = seq = self._seq + 1
        event = Event(time, seq, fn, args, self, interval)
        event.queued = True
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def reschedule(self, event: Event, time: float) -> Event:
        """Re-arm a fired event at ``time`` without allocating a new one.

        Only valid for an event that is not queued (i.e. it has fired)
        and was not cancelled; :class:`repro.sim.timer.PeriodicTimer`
        uses this to avoid a per-tick Event allocation.
        """
        if event.queued:
            raise RuntimeError("cannot reschedule an event that is still queued")
        if event.cancelled:
            raise RuntimeError("cannot reschedule a cancelled event")
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time:.9f}, now is t={self.now:.9f}"
            )
        self._seq = seq = self._seq + 1
        event.time = time
        event.seq = seq
        event.queued = True
        self._live += 1
        heapq.heappush(self._heap, (time, seq, event))
        return event

    def _compact_heap(self) -> None:
        # In place: the run loop holds a local alias to the heap list.
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._heap_cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Drain the event queue.

        Runs until the queue is empty, :meth:`stop` is called, or the
        next event is later than ``until`` (in which case the clock is
        advanced exactly to ``until``). Returns the final clock value.
        """
        if self._running:
            raise RuntimeError("simulator is re-entrant: run() called from event")
        self._running = True
        self._stopped = False
        prof = self._profiler
        if prof is not None:
            loop_start = prof._clock()
        try:
            self._drain(until)
        finally:
            self._running = False
            if prof is not None:
                prof.loop_seconds += prof._clock() - loop_start
        # Only fast-forward when the queue genuinely drained up to
        # ``until``: after stop() events may remain before ``until``,
        # and the clock must never pass a pending event.
        if until is not None and not self._stopped and self.now < until:
            self.now = until
        return self.now

    def _drain(self, until: Optional[float]) -> None:
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        prof = self._profiler
        hook_wait = 0
        while heap and not self._stopped:
            hook = self._live_hook
            if hook is not None:
                hook_wait -= 1
                if hook_wait <= 0:
                    hook_wait = hook()
                    if self._stopped:
                        return
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                pop(heap)
                self._heap_cancelled -= 1
                continue
            time = entry[0]
            if until is not None and time > until:
                break
            pop(heap)
            self.now = time
            interval = event.interval
            if interval:
                # Re-arm in place before the callback runs, so a
                # same-time event the callback schedules sorts after
                # the next tick.
                self._seq = seq = self._seq + 1
                event.seq = seq
                event.time = next_time = time + interval
                push(heap, (next_time, seq, event))
            else:
                event.queued = False
                self._live -= 1
            if prof is None:
                event.fn(*event.args)
            else:
                prof.dispatch(event)

    def _head(self) -> Optional[tuple]:
        """The heap's first live entry, left in place, or None."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._heap_cancelled -= 1
        return heap[0] if heap else None

    def step(self) -> bool:
        """Execute the single next event. Returns False if queue empty."""
        entry = self._head()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        event = entry[2]
        time = entry[0]
        self.now = time
        interval = event.interval
        if interval:
            self._seq = seq = self._seq + 1
            event.seq = seq
            event.time = time + interval
            heapq.heappush(self._heap, (event.time, seq, event))
        else:
            event.queued = False
            self._live -= 1
        prof = self._profiler
        if prof is None:
            event.fn(*event.args)
        else:
            prof.dispatch(event)
        return True

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None."""
        entry = self._head()
        return None if entry is None else entry[0]

    @property
    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events. O(1): a live
        counter maintained by schedule/cancel/execution."""
        return self._live

    def rng(self, stream: str):
        """Named deterministic random stream (see RandomStreams)."""
        return self.random.stream(stream)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Simulator t={self.now:.6f} pending={self._live}>"

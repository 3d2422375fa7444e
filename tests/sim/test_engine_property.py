"""Property test: the engine against a reference scheduler.

The engine promises a strict ``(time, seq)`` total order: events fire
by time, and same-time events in the order they were scheduled. The
reference below keeps that promise in the most obvious way — a list
kept sorted by ``(time, seq)`` — and implements the same scheduling
surface (``at``, ``call_soon``, ``schedule_periodic``, ``reschedule``,
``cancel``, ``run(until)``, ``step``, ``stop``). Random workloads
(mixed near/far deadlines, same-time ties, chained scheduling,
``call_soon`` follow-ups, cancels, reschedules, periodics, chunked
runs, stops and single steps) must produce *exactly* the same fire log
— same tags, same float times — on both.
"""

import bisect

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator


class _RefEvent:
    def __init__(self, sim, time, seq, fn, interval=0.0):
        self.sim = sim
        self.time = time
        self.seq = seq
        self.fn = fn
        self.interval = interval
        self.queued = True
        self.cancelled = False

    def cancel(self):
        if self.cancelled:
            return
        self.cancelled = True
        if self.queued:
            self.queued = False
            self.sim.queue.remove(self)


class _RefScheduler:
    """The oracle: a list of events sorted by ``(time, seq)``."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.queue = []
        self.stopped = False

    def _push(self, event):
        self.seq += 1
        event.seq = self.seq
        event.queued = True
        keys = [(e.time, e.seq) for e in self.queue]
        self.queue.insert(bisect.bisect(keys, (event.time, event.seq)), event)
        return event

    def at(self, delay, fn):
        return self._push(_RefEvent(self, self.now + delay, 0, fn))

    def call_soon(self, fn):
        return self.at(0.0, fn)

    def schedule_periodic(self, interval, fn):
        return self._push(_RefEvent(self, self.now + interval, 0, fn, interval))

    def reschedule(self, event, time):
        assert not event.queued and not event.cancelled
        event.time = time
        return self._push(event)

    def stop(self):
        self.stopped = True

    def step(self):
        if not self.queue:
            return False
        event = self.queue.pop(0)
        self.now = event.time
        event.queued = False
        if event.interval:
            event.time += event.interval
            self._push(event)
        event.fn()
        return True

    def run(self, until=None):
        self.stopped = False
        while self.queue and not self.stopped:
            if until is not None and self.queue[0].time > until:
                break
            self.step()
        if until is not None and not self.stopped and self.now < until:
            self.now = until
        return self.now


# (delay, action, aux, period) per timer:
#   action 0: plain one-shot
#   action 1: one-shot that schedules a follow-up +aux from its fire
#   action 2: one-shot cancelled at absolute time aux (maybe too late)
#   action 3: periodic(period), cancelled at absolute time aux
#   action 4: one-shot that reschedules itself once to now+aux
#   action 5: one-shot that queues a call_soon follow-up from its fire
# Whole-second values make same-time ties common, so the seq tie-break
# is exercised as hard as the time order.
def _times(max_value, min_value=0.0):
    return st.one_of(
        st.floats(min_value=min_value, max_value=max_value,
                  allow_nan=False, allow_infinity=False),
        st.integers(min_value=int(min_value), max_value=8).map(float),
    )


_delays = _times(50_000.0)
_aux = _times(600.0)
_periods = _times(300.0, min_value=1.0)
_timer = st.tuples(_delays, st.integers(min_value=0, max_value=5),
                   _aux, _periods)
_workload = st.lists(_timer, min_size=1, max_size=25)
_chunks = st.lists(st.floats(min_value=0.0, max_value=60_000.0,
                             allow_nan=False, allow_infinity=False),
                   max_size=3).map(sorted)
_stops = st.lists(st.floats(min_value=0.0, max_value=60_000.0,
                            allow_nan=False, allow_infinity=False),
                  max_size=3)


def _schedule_workload(sim, spec, log):
    events = {}
    for i, (delay, action, aux, period) in enumerate(spec):
        if action == 0:
            events[i] = sim.at(delay, lambda i=i: log.append((i, sim.now)))
        elif action == 1:
            def chained(i=i, aux=aux):
                log.append((i, sim.now))
                sim.at(aux, lambda i=i: log.append((i, sim.now, "follow")))
            events[i] = sim.at(delay, chained)
        elif action == 2:
            event = sim.at(delay, lambda i=i: log.append((i, sim.now)))
            events[i] = event
            sim.at(aux, event.cancel)
        elif action == 3:
            event = sim.schedule_periodic(
                period, lambda i=i: log.append((i, sim.now))
            )
            sim.at(aux, event.cancel)
        elif action == 4:
            once = []
            def rearming(i=i, aux=aux, once=once):
                log.append((i, sim.now))
                if not once:
                    once.append(1)
                    sim.reschedule(events[i], sim.now + aux)
            events[i] = sim.at(delay, rearming)
        elif action == 5:
            def soon(i=i):
                log.append((i, sim.now))
                sim.call_soon(lambda i=i: log.append((i, sim.now, "soon")))
            events[i] = sim.at(delay, soon)


def _run_workload(sim, spec, chunks):
    log = []
    _schedule_workload(sim, spec, log)
    for until in chunks:
        sim.run(until=until)
        log.append(("clock", sim.now))
    sim.run()
    log.append(("clock", sim.now))
    return log


def _run_workload_stop_step(sim, spec, chunks, stops, steps):
    """Drain the workload while interleaving stop(), run(until), step().

    Each stop() may end a run(until) chunk early; the final drain loops
    run() once per possible stop so the queue always empties.
    """
    log = []
    _schedule_workload(sim, spec, log)
    for t in stops:
        sim.at(t, sim.stop)
    for until in chunks:
        sim.run(until=until)
        for _ in range(steps):
            if not sim.step():
                break
        log.append(("clock", sim.now))
    for _ in range(len(stops) + 1):
        sim.run()
        log.append(("clock", sim.now))
    return log


@settings(max_examples=50, deadline=None)
@given(spec=_workload, chunks=_chunks)
def test_fire_order_identical_across_timer_structures(spec, chunks):
    """The engine's heap and the reference's sorted list agree."""
    sim = Simulator(seed=7)
    assert _run_workload(sim, spec, chunks) == \
        _run_workload(_RefScheduler(), spec, chunks)
    assert sim.pending == 0


@settings(max_examples=50, deadline=None)
@given(spec=_workload, chunks=_chunks, stops=_stops,
       steps=st.integers(min_value=0, max_value=4))
def test_stop_step_interleaving_identical_across_structures(spec, chunks,
                                                            stops, steps):
    # Regression guard: run(until) ended by stop() must not advance the
    # clock past still-pending events.
    log = _run_workload_stop_step(Simulator(seed=7), spec, chunks, stops,
                                  steps)
    times = [entry[1] for entry in log]
    assert times == sorted(times)  # clock never goes backwards
    assert log == _run_workload_stop_step(_RefScheduler(), spec, chunks,
                                          stops, steps)

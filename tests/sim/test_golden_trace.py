"""Golden-trace determinism: same seed, same schedule calls, same
firing order, same timestamps.

These tests drive the engine through a workload that exercises every
nasty path — same-time ties, call_soon chains from inside callbacks,
cancellation churn (enough to trigger heap compaction), far-future
events, in-place periodic re-arms, run(until=...) resumption — and diff
the serialized traces of runs that must agree: one run against the
same run cut into chunks, and a run against its same-seed repeat.
"""

import pytest

from repro.sim import PeriodicTimer, Simulator, Timeout


def _serialize(sim: Simulator) -> str:
    return "\n".join(
        f"{r.time:.9f} {r.kind} {sorted(r.fields.items())!r}" for r in sim.trace.records
    )


def _torture_workload(sim: Simulator) -> None:
    """A mixed workload touching every scheduling path."""
    log = sim.trace.log

    # Periodic timers: fixed (native periodic events) and jittered
    # (timer rescheduled in place, drawing from the rng stream).
    for i, interval in enumerate((0.003, 0.01, 0.0501, 0.24, 1.0)):
        PeriodicTimer(sim, interval, lambda i=i: log("tick", timer=i))
    for i, interval in enumerate((0.02, 0.77)):
        PeriodicTimer(sim, interval, lambda i=i: log("jtick", timer=i), jitter=0.3)

    # A hello/dead pair: the timeout is restarted on every hello,
    # littering the queues with cancelled events.
    dead = Timeout(sim, 1.3, lambda: log("dead"))
    dead.start()

    def hello():
        log("hello")
        dead.restart()

    PeriodicTimer(sim, 0.4, hello)

    # Same-time ties and call_soon chains from inside a callback.
    def burst(depth: int):
        log("burst", depth=depth)
        if depth:
            sim.call_soon(burst, depth - 1)
            sim.at(0.0005, burst, 0)

    for t in (0.1, 0.1, 2.5):
        sim.schedule(t, burst, 2)

    # Far-future events, one of which schedules near-term work when it
    # fires.
    def far():
        log("far")
        sim.at(0.002, lambda: log("far_child"))

    sim.at(60.0, far)
    sim.at(90.0, lambda: log("far2"))

    # Cancellations, including cancel-from-the-same-timestamp.
    doomed = [sim.at(5.0 + 0.001 * i, lambda i=i: log("doomed", i=i)) for i in range(200)]

    def reap():
        log("reap")
        for event in doomed:
            event.cancel()

    sim.at(4.9, reap)
    same_t = sim.at(7.0, lambda: log("never"))
    sim.schedule(7.0, same_t.cancel)  # earlier seq at the same time wins

    # Random-stream consumers interleaved with the timers.
    def draw():
        log("draw", value=round(sim.rng("load").random(), 12))

    PeriodicTimer(sim, 0.33, draw)


def test_chunked_run_matches_single_run():
    """run(until=...) resumption at odd, sub-millisecond cut points
    changes nothing."""
    whole = Simulator(seed=3)
    _torture_workload(whole)
    whole.run(until=100.0)

    chunked = Simulator(seed=3)
    _torture_workload(chunked)
    t = 0.0
    for step in (0.0001, 0.05, 0.1003, 1.0, 2.31, 10.0, 40.0, 46.5396):
        t += step
        chunked.run(until=t)
    assert t == pytest.approx(100.0)
    assert _serialize(whole) == _serialize(chunked)
    assert whole.pending == chunked.pending


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_run_is_reproducible(seed):
    runs = []
    for _ in range(2):
        sim = Simulator(seed=seed)
        _torture_workload(sim)
        sim.run(until=120.0)
        runs.append(_serialize(sim))
    assert runs[0] == runs[1]
    assert runs[0]  # non-trivial workload actually ran


def test_scenario_trace_is_reproducible():
    """A real multi-node scenario (OSPF + traffic) repeats byte for
    byte under the same seed, whole or cut into chunks."""
    from repro.core import VINI
    from repro.tools.ping import Ping

    def build_and_run(chunks) -> str:
        vini = VINI(seed=5)
        for name in ("a", "b", "c"):
            vini.add_node(name)
        vini.connect("a", "b", bandwidth=10e6, delay=0.01)
        vini.connect("b", "c", bandwidth=10e6, delay=0.02)
        vini.install_underlay_routes()
        ping = Ping(vini.nodes["a"], vini.nodes["c"].address,
                    count=20, interval=0.5)
        ping.start()
        for until in chunks:
            vini.run(until=until)
        return _serialize(vini.sim)

    first = build_and_run((30.0,))
    assert first
    assert build_and_run((30.0,)) == first
    assert build_and_run((0.75, 4.0, 12.5, 30.0)) == first

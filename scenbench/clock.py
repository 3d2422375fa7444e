"""Phase marks on the CPU clock, each followed by a pace probe.

The clock is the main thread's CPU time (user + system),
``time.thread_time()``; the workload runs on that thread alone. The
process CPU clock would do as well, but while the slicing timer runs,
Linux can read it at tick resolution (4 ms on the reference host).

The reference host's vCPUs change speed every few seconds, by up to
about 2 times, as if a host neighbour shared the physical core; CPU
time slows with them, because the core is slower, not taken away. So
at every mark the workload process also times a fixed miniature event
loop, the *pace probe*, and ``run.py`` scales the CPU time of each
segment between two marks by ``PACE_REF_S`` over the mean of the two
probes around it. A segment's scaled time is the CPU time it would
take at the pace where the probe takes ``PACE_REF_S``, which is about
the host's fast state. The probe itself is left out of every segment.

Between phase marks, :func:`start_slicing` marks a slice every
``SLICE_S`` CPU seconds from a ``SIGPROF`` handler, so that no segment
is long enough for the pace to change much inside it. The handler runs
between bytecodes and touches nothing of the program's, so the
simulation is unchanged, as the fingerprint checks prove on every run.

Standard library only, so that the workload process can mark its own
start before it imports ``repro``.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, Dict

SLICE = "slice"  # a slice boundary inside a phase
SLICE_S = 0.1  # CPU seconds between slice marks
PACE_EVENTS = 800
# The probe's CPU time on the reference host (2-vCPU VM, Python 3.11)
# in its fast state (1.0 to 1.1 ms; up to 3 ms in the slow one).
PACE_REF_S = 0.001

_busy = False  # a mark is being taken


class _Event:
    __slots__ = ("time", "fn", "args", "cancelled")

    def __init__(self, time: float, fn: Any, args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False


class _Node:
    def __init__(self) -> None:
        self.received = 0
        self.table: Dict[str, int] = {}

    def receive(self, key: str, size: int) -> None:
        self.received += size
        self.table[key] = self.table.get(key, 0) + size


def pace_probe() -> float:
    """CPU seconds of a fixed miniature event loop: a heap of events
    whose callbacks update small objects, the kind of work the
    simulator does most."""
    start = time.thread_time()
    nodes = [_Node() for _ in range(32)]
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    now = 0.0
    for seq in range(PACE_EVENTS + 64):
        if seq >= 64:
            now, _, event = pop(heap)
            if not event.cancelled:
                event.fn(*event.args)
        node = nodes[seq & 31]
        event = _Event(now, node.receive, (f"k{seq & 15}", seq))
        push(heap, (now + (seq * 7919 % 13) * 0.001, seq, event))
    return time.thread_time() - start


def stamp(stamps: Dict[str, Any], phase: str) -> None:
    """Mark ``phase``, then probe the pace.

    Appends ``[phase, cpu, probe_s, cpu_after]`` to ``stamps["marks"]``:
    the main thread's CPU seconds (user + system since the process
    started) at the mark, the probe's CPU seconds, and the CPU clock
    after the probe, where the next segment starts. A named phase (not ``SLICE``) is also
    stamped as ``stamps[phase]`` on the monotonic wall clock and as
    ``stamps[f"{phase}_cpu"]``."""
    global _busy
    _busy = True  # before the clock read, so no slice lands inside
    try:
        cpu = time.thread_time()
        if phase != SLICE:
            stamps[phase] = time.monotonic()
            stamps[f"{phase}_cpu"] = cpu
        probe_s = pace_probe()
        stamps.setdefault("marks", []).append(
            [phase, cpu, probe_s, time.thread_time()])
    finally:
        _busy = False


def start_slicing(stamps: Dict[str, Any]) -> None:
    """Mark a slice in ``stamps`` every ``SLICE_S`` CPU seconds of this
    process (``ITIMER_PROF``), skipping one that falls inside another
    mark."""

    def on_tick(signum: int, frame: Any) -> None:
        if not _busy:
            stamp(stamps, SLICE)

    signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, SLICE_S, SLICE_S)


def stop_slicing() -> None:
    signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
    signal.signal(signal.SIGPROF, signal.SIG_DFL)


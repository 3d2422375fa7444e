"""The three paper workloads, split into set-up and measured phases.

Each workload is a fixed, seeded batch run. ``mark(name)`` is called at
phase boundaries (``built``, ``measure``, ``end``); set-up is
everything before ``measure``. Each boundary is stamped on the wall
clock and on the CPU clock, and the host's pace is probed after it
(see ``clock.py``). Each returns the run's *fingerprint*: sim
end time, the engine's event count and the headline numbers, as plain
JSON values compared byte for byte between runs.

``scale`` shrinks the measured input for the benchmark's own tests;
the benchmark itself always runs at ``scale=1``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from benchmarks.bench_table2_deter_throughput import DURATION, STREAMS, WINDOW
from benchmarks.bench_table5_planetlab_ping import COUNT, INTERVAL
from benchmarks.common import (
    build_planetlab_world,
    overlay_endpoints,
    ping_stats_from_metrics,
)
from repro.obs import MetricsRegistry
from repro.sim.rand import RandomStreams
from repro.tools import IperfTCPClient, IperfTCPServer, Ping
from repro.topologies import build_deter_iias
from repro.topologies.internet import build_internet, generate_internet_spec
from scenbench import clock

WARMUP = 30.0  # OSPF convergence before the measured phase (both benches)
ZOO_AS = 50
ZOO_TOPOLOGY_SEED = 1  # the 243-router internet; --seed drives the simulator
ZOO_CONVERGE_AT = 120.0

Mark = Callable[[str], None]


def _engine(sim) -> Dict[str, object]:
    # ``_seq`` is the engine's scheduled-event counter, the value its
    # ``sim.events_scheduled`` metric publishes; read directly because
    # zoo_converge runs with the registry off.
    return {"now": sim.now, "scheduled": sim._seq, "pending": sim.pending}


def iias_tcp(seed: int, mark: Mark, scale: float = 1.0) -> dict:
    """Table 2 IIAS row: 20 iperf streams through Click in an IIAS slice."""
    duration = DURATION * scale
    vini, exp = build_deter_iias(seed=seed)
    mark("built")
    exp.run(until=WARMUP)
    mark("measure")
    src = exp.network.nodes["src"]
    fwdr = exp.network.nodes["fwdr"]
    sink = exp.network.nodes["sink"]
    click_proc = fwdr.click_process
    cpu_before = click_proc.cpu_used
    server = IperfTCPServer(sink.phys_node, sliver=sink.sliver, window=WINDOW)
    client = IperfTCPClient(
        src.phys_node,
        sink.tap_addr,
        sliver=src.sliver,
        streams=STREAMS,
        duration=duration,
        window=WINDOW,
        server=server,
    ).start()
    vini.run(until=WARMUP + duration + 1.0)
    result = client.result()
    mark("end")
    return {
        "sim": _engine(vini.sim),
        "mbps": result.throughput_mbps,
        "cpu_pct": 100.0 * (click_proc.cpu_used - cpu_before) / duration,
    }


def loaded_ping(seed: int, mark: Mark, scale: float = 1.0) -> dict:
    """Table 5 ``planetlab`` and ``plvini`` rows: 400 pings at 10 Hz over
    IIAS with seven CPU hogs per node."""
    count = max(1, round(COUNT * scale))
    worlds = {
        config: build_planetlab_world(config, seed=seed, warmup=0.0)
        for config in ("planetlab", "plvini")
    }
    mark("built")
    for world in worlds.values():
        world.vini.run(until=WARMUP)
    mark("measure")
    fingerprint = {}
    for config, world in worlds.items():
        (src_sliver, _), (_sink_sliver, sink_addr) = overlay_endpoints(world)
        ping = Ping(
            world.src, sink_addr, sliver=src_sliver,
            interval=INTERVAL, count=count,
        ).start()
        start = world.vini.sim.now
        world.vini.run(until=start + count * INTERVAL + 5.0)
        stats = ping_stats_from_metrics(ping)
        fingerprint[config] = {
            "sim": _engine(world.vini.sim),
            "transmitted": stats.transmitted,
            "received": stats.received,
            "min_rtt": stats.min_rtt,
            "avg_rtt": stats.avg_rtt,
            "max_rtt": stats.max_rtt,
            "mdev": stats.mdev,
        }
    mark("end")
    return fingerprint


def zoo_converge(seed: int, mark: Mark, scale: float = 1.0) -> dict:
    """A 50-AS tiered internet run to BGP/OSPF convergence at t=120 s.

    The topology is always the one ``build_internet(n_as=50, seed=1)``
    generates, so every seed has the same input size; ``seed`` drives
    the simulator's own streams (timer phases)."""
    n_as = max(4, round(ZOO_AS * scale))
    old = MetricsRegistry.default_enabled
    MetricsRegistry.default_enabled = False
    try:
        spec = generate_internet_spec(
            n_as, RandomStreams(ZOO_TOPOLOGY_SEED).stream)
        world = build_internet(n_as=n_as, seed=seed, spec=spec)
        mark("built")
        mark("measure")
        world.run(until=ZOO_CONVERGE_AT)
    finally:
        MetricsRegistry.default_enabled = old
    mark("end")
    daemons = [
        world.node(router).xorp.ospf
        for a in world.spec.ases
        for router in a.routers
    ]
    return {
        "sim": _engine(world.sim),
        "routers": world.spec.n_routers,
        "converged": world.converged_routers(),
        "fib_checksum": world.fib_checksum(),
        "spf_runs": sum(d.spf_runs for d in daemons),
        "spf_full_runs": sum(d.spf_full_runs for d in daemons),
        "spf_incremental_runs": sum(d.spf_incremental_runs for d in daemons),
    }


WORKLOADS = {
    "iias_tcp": iias_tcp,
    "loaded_ping": loaded_ping,
    "zoo_converge": zoo_converge,
}


def run(name: str, seed: int, scale: float = 1.0,
        tracer: Optional[object] = None,
        stamps: Optional[Dict[str, Any]] = None) -> Tuple[dict, Dict[str, Any]]:
    """Run workload ``name``; returns its fingerprint and the phase
    stamps (see :func:`clock.stamp`), added to ``stamps`` if given. A
    given ``tracer`` is zeroed when the measured phase starts."""
    stamps = {} if stamps is None else stamps

    def mark(phase: str) -> None:
        clock.stamp(stamps, phase)
        if phase == "measure" and tracer is not None:
            tracer.begin()

    fingerprint = WORKLOADS[name](seed, mark, scale=scale)
    return fingerprint, stamps

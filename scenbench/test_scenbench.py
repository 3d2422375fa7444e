"""The benchmark's own tests, at a reduced scale of each workload.

    PYTHONPATH=src python -m pytest scenbench

They check that tracing does not perturb the simulation, that every
per-layer count repeats exactly, that the layer self times cover the
measured phase, that CPU work items are charged to their owner rather
than to the scheduler, that the tracer's own cost is billed to
``trace`` rather than to the span it runs in, that pace scaling takes
a host slowdown out of a segment's CPU time, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for _path in (ROOT, os.path.join(ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from scenbench import run as bench  # noqa: E402
from scenbench import scenarios  # noqa: E402
from scenbench.tracer import Tracer  # noqa: E402

SCALE = 0.1


def _bound(name: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == name)


def _traced(workload: str, seed: int):
    tracer = Tracer().install()
    try:
        fingerprint, stamps = scenarios.run(workload, seed, SCALE, tracer)
    finally:
        tracer.uninstall()
    return fingerprint, stamps, tracer.snapshot()


@pytest.fixture(scope="module", params=sorted(scenarios.WORKLOADS))
def runs(request):
    workload = request.param
    plain, _ = scenarios.run(workload, 3, SCALE)
    traced = [_traced(workload, 3) for _ in range(2)]
    return workload, plain, traced


def test_tracing_does_not_perturb_the_simulation(runs):
    _, plain, traced = runs
    for fingerprint, _, _ in traced:
        assert json.dumps(fingerprint, sort_keys=True) == json.dumps(
            plain, sort_keys=True)


def test_counts_repeat_exactly(runs):
    _, _, ((_, _, first), (_, _, second)) = runs
    assert first["counts"]["sim.events"] > 0
    assert first["counts"] == second["counts"]


def test_self_times_cover_the_measured_phase(runs):
    _, _, traced = runs
    for _, stamps, snapshot in traced:
        run_s = stamps["end"] - stamps["measure"]
        coverage = sum(snapshot["self_s"].values()) / run_s
        assert abs(coverage - 1.0) <= _bound("run_s"), coverage


def test_patches_are_removed():
    tracer = Tracer().install()
    tracer.uninstall()
    from repro.phys.process import Process
    from repro.sim.engine import Simulator

    assert Process.exec_after.__module__ == "repro.phys.process"
    assert Simulator.run.__module__ == "repro.sim.engine"


class Burner:
    """Stands in for a Click element: its work item burns host time."""

    __module__ = "repro.click.elements.burner"

    def __init__(self):
        self.ran = 0

    def work(self) -> None:
        deadline = time.perf_counter() + 0.02
        while time.perf_counter() < deadline:
            pass
        self.ran += 1


def test_cpu_work_items_are_charged_to_their_owner():
    from repro.core import VINI
    from repro.phys.process import Process

    tracer = Tracer().install()
    try:
        vini = VINI(seed=0)
        node = vini.add_node("a")
        process = Process(node, "click")
        burner = Burner()
        tracer.begin()
        for _ in range(5):
            process.exec_after(0.001, burner.work)
        vini.sim.run()
    finally:
        tracer.uninstall()
    snapshot = tracer.snapshot()
    assert burner.ran == 5
    assert snapshot["counts"]["phys.cpu.items"] == 5
    # The first item starts at once and leaves the run queue, the
    # second finds the queue empty, the other three queue behind it.
    assert snapshot["counts"]["phys.cpu.wakes"] == 2
    assert snapshot["self_s"]["click.Burner.self_s"] >= 5 * 0.02
    # The scheduler's own share excludes the 100 ms its items burned.
    assert snapshot["self_s"]["phys.cpu.self_s"] < 0.02


def test_tracer_cost_is_billed_to_trace_not_to_the_parent():
    tracer = Tracer()
    tracer.calibrate()
    assert 0.0 < tracer.call_cost < 1e-4
    wrapped = tracer._timed_wrapper(lambda: None, "child")

    def parent() -> None:
        for _ in range(20000):
            wrapped()

    tracer.span("parent", 0.0, parent)
    self_s = tracer.self_s
    # Uncorrected, the parent would hold the wrapper cost of every call.
    assert self_s["parent"] < self_s["trace"] / 2, dict(self_s)


def test_checks_count_every_comparison():
    checks = bench.Checks()
    checks.same("fp", {"a": 1, "b": 0.5}, {"a": 1, "b": 0.25})
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.fail_ratio == 0.5


def test_pace_scaling_removes_a_host_slowdown():
    from scenbench.clock import PACE_REF_S

    def marks(slowdown: float) -> list:
        # Two 1-s segments of work, the second run at ``slowdown`` times
        # the probe's reference pace; each probe bracketing it sees that.
        probe = PACE_REF_S * slowdown
        return [["start", 0.0, PACE_REF_S, PACE_REF_S],
                ["measure", PACE_REF_S + 1.0, probe, PACE_REF_S + 1.0 + probe],
                ["end", PACE_REF_S + 1.0 + probe + slowdown, probe, 0.0]]

    fast, slow = bench.paced(marks(1.0)), bench.paced(marks(1.6))
    assert fast == pytest.approx([0.0, 1.0, 1.0])
    # The set-up segment is bracketed by one probe of each pace.
    assert slow[1] == pytest.approx(1.0 / 1.3)
    assert slow[2] == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "scenbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "scenbench/run.py", "--workload", "iias_tcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

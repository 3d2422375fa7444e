"""Scenario benchmark: three paper workloads, one process per repetition.

    python3 scenbench/run.py --workload iias_tcp --seed 1 --seconds 42 --trace 0

``--trace 0`` repeats the untraced workload process until ``--seconds``
would be exceeded (at least once) and reports the end-to-end metrics as
medians over the repetitions: set-up and run CPU seconds at the
reference pace (see ``clock.py``) and peak RSS. ``--trace 1`` runs one
untraced and two traced repetitions and reports the per-layer metrics.
Both print every metric by name with its unit, then the fidelity-check
verdict, then one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.

Every comparison in a fidelity check is one operation; ``failed``
counts the mismatches. See ``scenbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
from scenbench.clock import PACE_REF_S  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
FINGERPRINTS = os.path.join(HERE, "fingerprints.json")
DEADLINE_S = 170.0  # a run must end within 180 s
TRACED_REPS = 2  # two same-seed traced runs expose count non-determinism


class RunFailed(Exception):
    """A workload process failed; no result may be printed."""


# ----------------------------------------------------------------------
# Workload processes
# ----------------------------------------------------------------------
def repetition(workload: str, seed: int, trace: bool,
               deadline: float) -> Dict[str, Any]:
    """Run one workload process and time its phases from outside."""
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    spawned = time.monotonic()
    timeout = max(1.0, deadline - spawned)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{workload} seed {seed}: no result in {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{workload} seed {seed} exited {proc.returncode}:\n"
                        f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    stamps = out["stamps"]
    # End-to-end times are paced CPU seconds, which neither the other
    # vCPU's load, this parent process, nor the host core's changes of
    # speed inflate; the wall clock is kept for the deadline
    # and for comparing with the tracer's spans.
    out["wall_s"] = time.monotonic() - spawned
    names = [mark[0] for mark in stamps["marks"]]
    segments = paced(stamps["marks"])

    def upto(phase: str) -> float:
        return sum(segments[:names.index(phase) + 1])

    out["setup_s"] = upto("measure")
    out["run_s"] = upto("end") - upto("measure")
    out["cpu_run_s"] = stamps["end_cpu"] - stamps["measure_cpu"]
    out["wall_run_s"] = stamps["end"] - stamps["measure"]
    out["phases"] = {
        "core.import_s": upto("imported") - upto("start"),
        "topologies.build_s": upto("built") - upto("imported"),
        "core.warmup_s": upto("measure") - upto("built"),
    }
    return out


def paced(marks: List[list]) -> List[float]:
    """CPU seconds of each segment up to each mark, at the reference pace.

    A segment runs from the CPU clock after one mark's pace probe (the
    first from the process start) to the next mark; its CPU time is
    scaled by ``PACE_REF_S`` over the mean of the probes that bracket
    it (see ``clock.py``)."""
    segments: List[float] = []
    after, probe = 0.0, None
    for _, cpu, probe_s, cpu_after in marks:
        pace = probe_s if probe is None else (probe + probe_s) / 2
        segments.append((cpu - after) * PACE_REF_S / pace)
        after, probe = cpu_after, probe_s
    return segments


# ----------------------------------------------------------------------
# Fidelity checks
# ----------------------------------------------------------------------
class Checks:
    """Each comparison is one operation; mismatches are failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def same(self, name: str, got: Dict[str, Any], want: Dict[str, Any]) -> None:
        """Field-by-field byte comparison of two flat JSON dicts."""
        for key in sorted(set(got) | set(want)):
            a, b = json.dumps(got.get(key)), json.dumps(want.get(key))
            self.check(f"{name} {key}", a == b, f"got {a}, want {b}")

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def flatten(tree: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    flat: Dict[str, Any] = {}
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, name + "."))
        else:
            flat[name] = value
    return flat


def _iias_bands(fp: Dict[str, Any]) -> List[tuple]:
    # Table 2's shape asserts (bench_table2_deter_throughput).
    return [
        ("100 < IIAS Mb/s < 350", 100 < fp["mbps"] < 350),
        ("IIAS Click CPU > 75%", fp["cpu_pct"] > 75),
    ]


def _ping_bands(fp: Dict[str, Any]) -> List[tuple]:
    # Table 5's shape asserts (bench_table5_planetlab_ping), with the
    # clean PL-VINI row standing in for the Network row it is within
    # 2 ms of.
    pl, vini = fp["planetlab"], fp["plvini"]
    return [
        ("PL-VINI avg RTT in (20, 30) ms", 0.020 < vini["avg_rtt"] < 0.030),
        ("PlanetLab avg RTT inflated by > 1 ms",
         pl["avg_rtt"] > vini["avg_rtt"] + 0.001),
        ("PlanetLab max RTT > 40 ms", pl["max_rtt"] > 0.040),
        ("PL-VINI mdev < PlanetLab mdev / 4", vini["mdev"] < pl["mdev"] / 4),
        ("PL-VINI max < PlanetLab max / 1.5",
         vini["max_rtt"] < pl["max_rtt"] / 1.5),
    ]


# The zoo topology is fixed (scenarios.ZOO_TOPOLOGY_SEED), so every seed
# must reach the same converged FIB.
ZOO_ROUTERS = 243
ZOO_FIB_CHECKSUM = 1176056576


def _zoo_bands(fp: Dict[str, Any]) -> List[tuple]:
    return [
        (f"{ZOO_ROUTERS} routers", fp["routers"] == ZOO_ROUTERS),
        ("every router converged", fp["converged"] == fp["routers"]),
        (f"FIB checksum {ZOO_FIB_CHECKSUM}", fp["fib_checksum"] == ZOO_FIB_CHECKSUM),
    ]


BANDS: Dict[str, Callable[[Dict[str, Any]], List[tuple]]] = {
    "iias_tcp": _iias_bands,
    "loaded_ping": _ping_bands,
    "zoo_converge": _zoo_bands,
}


def check_untraced(checks: Checks, workload: str, reps: List[dict],
                   recorded: Optional[dict]) -> None:
    """Bands on every repetition; the fingerprint against the recorded
    one for this seed, or (unrecorded seed) against the first repetition."""
    first = flatten(reps[0]["fingerprint"])
    for index, rep in enumerate(reps):
        for name, ok in BANDS[workload](rep["fingerprint"]):
            checks.check(f"rep {index} band {name}", ok)
        fp = flatten(rep["fingerprint"])
        if recorded is not None:
            checks.same(f"rep {index} fingerprint", fp, recorded["fingerprint"])
        elif index:
            checks.same(f"rep {index} same-seed fingerprint", fp, first)


def check_traced(checks: Checks, untraced: dict, traced: List[dict],
                 recorded: Optional[dict], coverage_bound: float) -> None:
    """The traced runs must not perturb the simulation, must repeat
    every count exactly, and must cover the measured phase."""
    plain = flatten(untraced["fingerprint"])
    for index, rep in enumerate(traced):
        checks.same(f"traced {index} fingerprint", flatten(rep["fingerprint"]), plain)
        coverage = sum(rep["trace"]["self_s"].values()) / rep["wall_run_s"]
        checks.check(f"traced {index} coverage within {coverage_bound}",
                     abs(coverage - 1.0) <= coverage_bound, f"{coverage:.4f}")
    first = traced[0]["trace"]["counts"]
    for index, rep in enumerate(traced[1:], 1):
        checks.same(f"determinism leak: traced {index} count",
                    rep["trace"]["counts"], first)
    if recorded is not None:
        checks.same("recorded count", first, recorded["counts"])


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def end_to_end(reps: List[dict]) -> Dict[str, List[float]]:
    return {
        "setup_s": [rep["setup_s"] for rep in reps],
        "run_s": [rep["run_s"] for rep in reps],
        "peak_rss_mb": [rep["rss_mb"] for rep in reps],
    }


def per_layer(untraced: dict, traced: List[dict], checks: Checks) -> Dict[str, float]:
    """Counts from the first traced run (the checks prove the rest
    equal); self times averaged over the traced runs."""
    counts = traced[0]["trace"]["counts"]
    values: Dict[str, float] = {name: float(n) for name, n in counts.items()}
    self_s: Dict[str, float] = {}
    for rep in traced:
        for name, seconds in rep["trace"]["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + seconds / len(traced)
    values.update(self_s)
    values["click.self_s"] = sum(
        seconds for name, seconds in self_s.items() if name.startswith("click."))
    traced_run_s = statistics.fmean(rep["run_s"] for rep in traced)
    traced_wall_s = statistics.fmean(rep["wall_run_s"] for rep in traced)
    scheduled = counts["sim.scheduled"]
    spf_runs = counts["routing.ospf.spf_runs"]
    values.update({
        "sim.cancel_ratio": counts["sim.cancelled"] / scheduled if scheduled else 0.0,
        "sim.events_per_s": counts["sim.events"] / untraced["run_s"],
        "routing.ospf.spf_full_ratio": (
            counts["routing.ospf.spf_full_runs"] / spf_runs if spf_runs else 0.0),
        "trace.overhead": traced_run_s / untraced["run_s"],
        "trace.coverage": sum(self_s.values()) / traced_wall_s,
        "check_fail_ratio": checks.fail_ratio,
    })
    values.update(untraced["phases"])
    return values


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def environment() -> Dict[str, Any]:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(ref_path):
                with open(ref_path) as handle:
                    commit = handle.read().strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_1m": os.getloadavg()[0],
    }


def load_json(path: str) -> Any:
    with open(path) as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="with --trace 1: store this seed's fingerprint "
                             "and counts in fingerprints.json")
    args = parser.parse_args(argv)
    if args.record and args.trace != 1:
        parser.error("--record needs --trace 1")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or not os.path.isfile(spec_path):
        print("scenbench: run from a checkout holding src/repro and BENCHMARK.json",
              file=sys.stderr)
        return 2
    spec = load_json(spec_path)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"scenbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    recorded = load_json(FINGERPRINTS).get(args.workload, {}).get(str(args.seed))
    if args.record:
        recorded = None
    started = time.monotonic()
    deadline = started + DEADLINE_S
    print("env " + json.dumps(environment(), sort_keys=True))
    checks = Checks()

    try:
        if args.trace == 0:
            reps = [repetition(args.workload, args.seed, False, deadline)]
            longest = reps[0]["wall_s"]
            while time.monotonic() - started + longest <= args.seconds:
                reps.append(repetition(args.workload, args.seed, False, deadline))
                longest = max(longest, reps[-1]["wall_s"])
            check_untraced(checks, args.workload, reps, recorded)
            samples = end_to_end(reps)
            for name in ("setup_s", "run_s", "cpu_run_s"):
                print(f"{name} per repetition: "
                      + " ".join(f"{rep[name]:.4f}" for rep in reps))
            wanted = spec["end_to_end"]
        else:
            untraced = repetition(args.workload, args.seed, False, deadline)
            traced = [repetition(args.workload, args.seed, True, deadline)
                      for _ in range(TRACED_REPS)]
            check_untraced(checks, args.workload, [untraced], recorded)
            run_bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "run_s")
            check_traced(checks, untraced, traced, recorded, run_bound)
            values = per_layer(untraced, traced, checks)
            samples = {name: [value] for name, value in values.items()}
            samples.update(end_to_end([untraced]))
            wanted = spec["per_layer"]
    except RunFailed as exc:
        print(f"scenbench: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(samples):
        q1, median, q3 = quartiles(samples[name])
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"{name:<30} {median:>14.6g} {unit:<6} "
              f"q1 {q1:.6g} q3 {q3:.6g} n {len(samples[name])}")
    verdict = "ok" if not checks.failures else "FAILED"
    print(f"checks {verdict}: {checks.failed} of {checks.attempted} failed"
          f" (check_fail_ratio {checks.fail_ratio:.6f})")
    for failure in checks.failures:
        print(f"  mismatch {failure}")

    if args.record and not checks.failures:
        table = load_json(FINGERPRINTS)
        table.setdefault(args.workload, {})[str(args.seed)] = {
            "fingerprint": flatten(untraced["fingerprint"]),
            "counts": traced[0]["trace"]["counts"],
        }
        with open(FINGERPRINTS, "w") as handle:
            json.dump(table, handle, indent=1, sort_keys=True)
            handle.write("\n")

    metrics = {
        m["name"]: {"value": quartiles(samples.get(m["name"], [0.0]))[1],
                    "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload process: ``python3 scenbench/child.py --workload W --seed N``.

Prints one JSON object: phase stamps on the monotonic clock (comparable
with the parent's clock on Linux) and on the CPU clock, every mark
and slice with its pace probe in order (``clock.py``), the
fingerprint, peak RSS and, with ``--trace``, the tracer's counts and
bucket self times for the measured phase. ``run.py`` starts one of these per repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for path in (root, os.path.join(root, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from scenbench import clock

    stamps = {}
    clock.stamp(stamps, "start")
    if not args.trace:  # a probe inside a span would bill its layer
        clock.start_slicing(stamps)
    from scenbench import scenarios

    tracer = None
    if args.trace:
        from scenbench.tracer import Tracer

        tracer = Tracer().install()
    clock.stamp(stamps, "imported")
    fingerprint, _ = scenarios.run(args.workload, args.seed, tracer=tracer,
                                   stamps=stamps)
    clock.stop_slicing()
    result = {
        "stamps": stamps,
        "fingerprint": fingerprint,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

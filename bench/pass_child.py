"""One ring_scan pass in a fresh interpreter, so ring construction is cold.

Prints one JSON line: the per-job results and, with ``--trace-out``, the
aggregated per-layer figures (the spans go to that file).
"""

import argparse
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from workloads import load_expected, ring_scan_jobs, run_jobs  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    jobs = ring_scan_jobs(args.seed, args.smoke)
    tracer = None
    if args.trace_out:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    results = run_jobs(jobs, load_expected(), tracer)
    layers = None
    if tracer:
        tracer.uninstall()
        tracer.write(args.trace_out)
        layers = tracer.aggregate()
    print(json.dumps({"jobs": results, "layers": layers}))


if __name__ == "__main__":
    main()

"""Time to verdict on the matsemi workloads: ring_scan, search and sweep.

    python3 bench/run.py --workload search --seed 1 --seconds 30 --trace 0

One client issues jobs one at a time (a closed loop) and checks every
verdict.  A run sets up several times (the median is ``setup_s``), then
repeats the workload's job list, one pass after another, while the next
pass is expected to end within ``--seconds``; at least one pass runs.
Timings are medians over passes of CPU time, rescaled to a reference
host speed sampled while the jobs run (see ``refclock``).  The last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  The traced run measures the untraced passes
first, then one pass with every public function of the package wrapped in
a span; spans are written to ``.bench_out/trace-<workload>.json``.

``--smoke`` swaps the rings larger than L2 for small ones (for the
benchmark's own tests).  ``--record`` runs one pass and stores the
outcomes of the seed-independent jobs in ``expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import refclock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS = 3
# Passes run first and checked, but not timed: sweep's first pass fills the
# package's module-level ring caches and reads 10-15% slower than the rest.
WARMUP_PASSES = {"ring_scan": 0, "search": 0, "sweep": 1}
CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(argv: list[str]) -> str:
    r = subprocess.run([sys.executable, *argv], env=child_env(), capture_output=True,
                       text=True, timeout=CHILD_TIMEOUT_S)
    if r.returncode != 0:
        raise SystemExit(f"error: child {argv[:2]} exited {r.returncode}:\n{r.stderr}")
    return r.stdout


def import_seconds() -> float:
    """Import of the package in a fresh interpreter, as a CLI user pays it:
    scaled CPU time (see ``refclock``), sampled in that interpreter, which
    may run on the other vCPU."""
    code = ("import importlib, refclock; print(refclock.measure("
            "lambda: importlib.import_module('matsemi.cli'))[1])")
    return float(run_child(["-c", code]))


def peak_rss_mb() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


# ---------------------------------------------------------------------------
# Workloads: set-up, then a pass function returning (results, layers)


def setup_workload(name: str, seed: int, smoke: bool):
    """Return ``(build_seconds, run_pass)``; ``run_pass(trace)`` runs one pass."""
    import workloads as wl

    if name == "ring_scan":
        def run_pass(trace: bool):
            argv = [str(BENCH / "pass_child.py"), "--seed", str(seed)]
            argv += ["--smoke"] if smoke else []
            argv += ["--trace-out", str(OUT / f"trace-{name}.json")] if trace else []
            doc = json.loads(run_child(argv).splitlines()[-1])
            return doc["jobs"], doc["layers"]
        return [0.0], run_pass

    from matsemi import rings

    builds, held = [], {}
    if name == "search":
        specs = list(dict.fromkeys(wl.search_specs(smoke)))
        for _ in range(SETUP_ROUNDS):
            held.clear()
            builds.append(refclock.measure(
                lambda: held.update((s, rings.parse_ring_spec(s)) for s in specs))[1])
        jobs = wl.search_jobs(held, smoke)
    else:
        builds.append(0.0)
        jobs = wl.sweep_jobs(wl.write_sweep_inputs(OUT / "inputs", seed, smoke))
    expected = wl.load_expected()

    def run_pass(trace: bool):
        tracer = None
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        try:
            results = wl.run_jobs(jobs, expected, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        layers = None
        if tracer:
            tracer.write(OUT / f"trace-{name}.json")
            layers = tracer.aggregate()
        return results, layers
    return builds, run_pass


def measure(run_pass, seconds: float, warmup: int):
    """Run ``warmup`` passes, then timed passes while the next is expected to
    end within ``seconds`` of the start; at least one timed pass runs.

    Returns the warm-up passes, the timed passes and the peak RSS through
    the first pass.  Later passes raise the peak only through heap
    fragmentation (about 20 MB per sweep pass), which would tie the figure
    to how many passes fit.
    """
    t0 = time.perf_counter()
    warm = [run_pass(False) for _ in range(warmup)]
    peak = peak_rss_mb() if warm else None
    passes, durations = [], []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(False))
        durations.append(time.perf_counter() - t)
        if peak is None:
            peak = peak_rss_mb()
        if time.perf_counter() - t0 + statistics.median(durations) > seconds:
            return warm, passes, peak


def class_seconds(passes, select, key="seconds") -> float:
    """Median over passes of the summed time of the selected jobs."""
    return statistics.median(
        sum(j[key] for j in results if select(j)) for results, _ in passes)


def every_job(job) -> bool:
    return True


def layer_metrics(names, passes, traced) -> dict:
    results, layers = traced
    out = {}
    for name in names:
        if name.startswith("jobs."):
            cls = name[len("jobs."):-len("_s")]
            out[name] = class_seconds(passes, lambda j: j["cls"] == cls)
        elif name == "trace_overhead_s":
            out[name] = (sum(j["seconds"] for j in results)
                         - class_seconds(passes, every_job))
        elif name in ("raw.pass_wall_s", "raw.pass_cpu_s"):
            out[name] = class_seconds(passes, every_job, key=name[len("raw.pass_"):])
        elif name == "host.ref_s":
            out[name] = statistics.median(j["ref_s"] for res, _ in passes for j in res)
        elif name == "search.nodes_per_s":
            busy = layers.get("search.enumerate_multiplicative_maps.self_s", 0.0)
            out[name] = layers.get("search.nodes", 0) / busy if busy else 0.0
        else:
            out[name] = layers.get(name, 0)
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("ring_scan", "search", "sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "matsemi" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import matsemi
    if Path(matsemi.__file__).resolve().parent != SRC / "matsemi":
        print(f"error: imported matsemi from {matsemi.__file__}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    imports = [import_seconds() for _ in range(SETUP_ROUNDS)]
    builds, run_pass = setup_workload(args.workload, args.seed, args.smoke)
    setup_s = statistics.median(imports) + statistics.median(builds)

    if args.record:
        import workloads as wl
        expected = wl.load_expected()
        results, _ = run_pass(False)
        expected.update((j["key"], j["observed"]) for j in results
                        if j["observed"] is not None)
        wl.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"recorded {sum(j['observed'] is not None for j in results)} outcomes")
        return 0

    warm, passes, peak = measure(run_pass, args.seconds, WARMUP_PASSES[args.workload])
    runs = warm + passes
    if args.trace:
        traced = run_pass(True)
        runs.append(traced)
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = layer_metrics(names, passes, traced)
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "setup_s": setup_s,
            "pass_cpu_s": class_seconds(passes, every_job),
            "peak_rss_mb": peak,
            "small_ring_cpu_s": class_seconds(passes, lambda j: not j["large"]),
            "large_ring_cpu_s": class_seconds(passes, lambda j: j["large"]),
        }

    jobs = [j for results, _ in runs for j in results]
    failed = [j for j in jobs if j["error"] is not None]
    for j in failed[:10]:
        print(f"FAILED {j['key']}: {j['error']}", file=sys.stderr)
    print(f"{args.workload}: {len(passes)} passes, seed {args.seed}")
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}")
    print(f"ops={len(jobs)} ops_failed={len(failed)}")
    print(json.dumps({
        "correct": not failed, "attempted": len(jobs), "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself, on the small smoke configuration.

    python3 -m pytest -q bench

They check that every metric of BENCHMARK.json is printed with its unit,
that the exact per-layer counters repeat across runs and seeds, that the
seeded inputs' arithmetic matches the package's tables, that a job's CPU
time is rescaled by the reference samples taken while it ran, and that
the benchmark fails without printing a result when the package is missing.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from inputs import Arith, map_mix  # noqa: E402
from workloads import CORPUS  # noqa: E402


def _exact(name: str) -> bool:
    return (name.endswith((".calls", ".pairs", ".checked"))
            or name in ("search.nodes", "search.maps_emitted", "search.functions_scanned"))


def run(workload, trace, seed, cwd=ROOT, bench=BENCH):
    r = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return r


def result(r):
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout.splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1, r.stderr
    assert "ops_failed=0" in r.stdout
    return doc


def check_names(r, doc, metrics):
    want = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == want
    for name, unit in want.items():
        assert isinstance(doc["metrics"][name]["value"], (int, float))
        assert any(line.split() == [name, "=", line.split()[2], unit]
                   for line in r.stdout.splitlines() if line.strip().startswith(name + " ="))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    r = run(workload, 0, 1)
    check_names(r, result(r), SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counters_repeat(workload):
    runs = [run(workload, 1, seed) for seed in (1, 2)]
    docs = [result(r) for r in runs]
    for r, doc in zip(runs, docs):
        check_names(r, doc, SPEC["per_layer"])
    exact = [m["name"] for m in SPEC["per_layer"] if _exact(m["name"])]
    assert exact
    first, second = ({n: d["metrics"][n]["value"] for n in exact} for d in docs)
    assert first == second


def test_rescaling_uses_the_samples_during_a_job():
    import refclock

    clock = refclock.Sampler()
    clock.times = [float(t) for t in range(10)]
    clock.values = [float(v) for v in range(1, 11)]
    # Samples at times 2..7 fall inside the job.
    assert clock.around(1.5, 7.5) == sum(range(3, 9)) / 6
    # Fewer than NEAREST inside: the four nearest its midpoint, at 3..6.
    assert clock.around(4.2, 4.4) == sum(range(4, 8)) / 4
    assert clock.around(-1.0, -0.5) == sum(range(1, 5)) / 4
    assert clock.around(20.0, 21.0) == sum(range(7, 11)) / 4
    assert refclock.scale(2.0, 2 * refclock.REF_S) == pytest.approx(1.0)


def test_sampler_takes_samples_and_leaves_no_timer():
    import signal

    import refclock

    with refclock.Sampler() as clock:
        c0 = time.thread_time()
        while time.thread_time() - c0 < 0.3:
            pass
    assert len(clock.values) >= 2 * refclock.NEAREST + 3
    assert clock.spent > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


@pytest.mark.parametrize("spec", CORPUS[:-1] + ["mat:2:zmod:5"])
def test_input_arithmetic_matches_package(spec):
    from matsemi.maps import MapTable, is_multiplicative
    from matsemi.rings import parse_ring_spec

    ring, arith = parse_ring_spec(spec), Arith(spec)
    x = arith.elements
    assert (ring.size, ring.zero, ring.one) == (arith.size, arith.zero, arith.one)
    assert np.array_equal(ring.add, arith.add(x[:, None], x[None, :]))
    assert np.array_equal(ring.mul, arith.mul(x[:, None], x[None, :]))
    assert np.array_equal(ring.star, arith.star(x))
    for img, expected in map_mix(arith, 7, 2, 2):
        assert is_multiplicative(MapTable(ring, ring, img)).passed == expected["multiplicative"]


def test_fails_without_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    r = run(WORKLOADS[0], 0, 1, cwd=tmp_path, bench=tmp_path / "bench")
    assert r.returncode != 0
    assert '"correct"' not in r.stdout

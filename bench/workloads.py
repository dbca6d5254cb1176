"""The benchmark's job lists and the check behind every verdict.

A job is one operation a user waits on: its ``run`` is timed, and its
outcome is then checked either against the verdict its seeded input has by
construction or against the value recorded in ``expected.json``.  Node
counts are not checked; they are per-layer counters.

Jobs are tagged with a class (the per-layer ``jobs.*`` timings) and with
whether they touch a ring whose Cayley table is larger than the 4 MiB L2
cache (the ``large_ring_cpu_s`` / ``small_ring_cpu_s`` split).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refclock
from inputs import Arith, conjugation_map, map_mix, witness_violates

CORPUS = (["zmod:%d" % n for n in range(1, 9)]
          + ["gauss:2", "gauss:3", "mat:2:zmod:2", "mat:2:zmod:3", "mat:2:zmod:4",
             "mat:2:gauss:2", "mat:2:gauss:3"])

# Rings larger than L2 and their stand-ins in the smoke configuration.
SMOKE_SPEC = {"mat:2:gauss:3": "mat:2:gauss:2", "mat:2:zmod:7": "mat:2:zmod:3"}

# validate_ring on mat:2:gauss:3 alone takes about 27 s, more than one run
# may spend; the ring is still built, viewed, counted and map-checked.
NO_VALIDATE = ("mat:2:gauss:3",)

# The i-relation endomorphism search on mat:2:gauss:3 stops at this many
# nodes per top-level branch (acceptance 7 uses 1500, about 24 s).
IREL_ENDO_BUDGET = 60
ENUM_M4_BUDGET = 1000

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected() -> dict:
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text())


def sha256(obj) -> str:
    data = obj if isinstance(obj, bytes) else json.dumps(
        obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(data).hexdigest()


@dataclass
class Job:
    key: str
    cls: str
    large: bool
    run: Callable[[], object]
    observe: Callable[[object], dict]
    # By-construction check returning an error string, or None to compare
    # the observation with the value recorded for ``key``.
    check: Callable[[dict], str | None] | None = None


def interleave(jobs: list[Job]) -> list[Job]:
    """Spread the small-ring jobs evenly between the large-ring ones.

    On the 2-core Xeon the baseline was measured on, CPU speed swings by a
    quarter or more over 5-15 s, so a total taken from one contiguous block
    of work inherits the swing of a single moment; spread out, it averages
    over the whole pass.  Each group keeps
    its own order, so a ring is built before its maps are checked.
    """
    small = [j for j in jobs if not j.large]
    large = [j for j in jobs if j.large]
    per = -(-len(small) // (len(large) + 1))
    out = []
    for i in range(len(large) + 1):
        out += small[i * per:(i + 1) * per]
        out += large[i:i + 1]
    return out


def run_jobs(jobs, expected: dict, tracer=None) -> list[dict]:
    """Run jobs one at a time; return one result per job.

    ``seconds`` is the job's CPU time rescaled to the reference speed
    (see ``refclock``); ``wall_s`` and ``cpu_s`` are its wall and CPU time
    as measured, and ``ref_s`` the mean reference sample it was scaled by.
    """
    results, spans = [], []
    with refclock.Sampler() as clock:
        for job in jobs:
            span = tracer.begin(f"job.{job.cls}") if tracer else None
            t0, c0, s0 = time.perf_counter(), refclock.cpu_seconds(), clock.spent
            try:
                out, error = job.run(), None
            except Exception as exc:  # a crash is a missing verdict
                out, error = None, f"raised {exc!r}"
            cpu = refclock.cpu_seconds() - c0 - (clock.spent - s0)
            spans.append((t0, time.perf_counter()))
            if tracer:
                tracer.end(span)
            obs = None
            if error is None:
                try:
                    obs = job.observe(out)
                    if job.check is not None:
                        error = job.check(obs)
                    elif job.key not in expected:
                        error = "no recorded expectation"
                    elif obs != expected[job.key]:
                        error = f"observed {obs} != recorded {expected[job.key]}"
                except (ValueError, KeyError, TypeError, AttributeError) as exc:
                    error = f"malformed outcome: {exc!r}"
            results.append({"key": job.key, "cls": job.cls, "large": job.large,
                            "wall_s": spans[-1][1] - t0, "cpu_s": cpu, "error": error,
                            "observed": None if job.check else obs})
    for r, (t0, t1) in zip(results, spans):
        r["ref_s"] = clock.around(t0, t1)
        r["seconds"] = refclock.scale(r["cpu_s"], r["ref_s"])
    return results


# ---------------------------------------------------------------------------
# ring_scan: cold construction, axiom scans, units and the predicate battery


def _check_battery(ring: Arith, img, expected: dict):
    n = ring.size
    sizes = {"multiplicative": n * n, "additive": n * n, "star": n, "corner_relation": 1}

    def check(obs: dict) -> str | None:
        if set(obs) != set(expected):
            return f"predicates {sorted(obs)} != {sorted(expected)}"
        for pred, rep in obs.items():
            c = rep["counts"]
            ws = [tuple(w) for w in rep["witnesses"]]
            if rep["pass"] != expected[pred]:
                return f"{pred}: verdict {rep['pass']}, expected {expected[pred]}"
            if c["checked"] != sizes[pred] or (c["violations"] == 0) != rep["pass"]:
                return f"{pred}: counts {c}"
            if len(ws) != min(16, c["violations"]) or ws != sorted(set(ws)):
                return f"{pred}: witnesses not the first violations in order"
            bad = [w for w in ws if not witness_violates(ring, img, pred, w)]
            if bad:
                return f"{pred}: reported witnesses {bad} are not violations"
        return None
    return check


def ring_scan_jobs(seed: int, smoke: bool) -> list[Job]:
    # Calls go through the module attributes so a tracer installed later
    # sees them.
    from matsemi import maps, rings

    specs = list(dict.fromkeys(
        SMOKE_SPEC.get(s, s) if smoke else s for s in CORPUS + ["mat:2:zmod:7"]))
    held = {}  # built rings; at most one larger than L2 at a time

    def ring_info(spec):
        for k in [k for k, r in held.items() if r.size > 256]:
            del held[k]
        ring = held[spec] = rings.parse_ring_spec(spec)
        val = None if spec in NO_VALIDATE else rings.validate_ring(ring)
        view = (rings.validate_matrix_view(ring.matrix_view)
                if ring.matrix_view is not None else None)
        return {"size": ring.size, "units": int(rings.units(ring).size),
                "unitaries": int(rings.unitaries(ring).size) if ring.has_star else None,
                "valid": None if val is None else val.ok,
                "validation_sha256": None if val is None else sha256(val.to_json()),
                "view_ok": None if view is None else view.ok}

    def battery(spec, img):
        ring = held[spec]
        phi = maps.MapTable(ring, ring, img)
        reps = [maps.is_multiplicative(phi), maps.is_additive(phi), maps.respects_star(phi)]
        if ring.matrix_view is not None:
            reps.append(maps.corner_relation_holds(phi))
        return {r.predicate: r.to_json() for r in reps}

    groups = []
    for spec in specs:
        arith = Arith(spec)
        large = arith.size > 256
        group = [Job(f"ring_info:{spec}", "ring_info", large,
                     lambda spec=spec: ring_info(spec), lambda o: o)]
        # Enough small-ring maps that their share is not just start-up cost.
        per_kind = 1 if arith.size > 2401 else 2 if large else 40
        for i, (img, exp) in enumerate(map_mix(arith, seed, per_kind, per_kind)):
            group.append(Job(f"map_check:{spec}:{i}", "map_check", large,
                             lambda spec=spec, img=img: battery(spec, img),
                             lambda o: o, _check_battery(arith, img, exp)))
        groups.append(group)
    # Large rings one after another (one held at a time); small rings
    # round-robin, so every stretch of small jobs mixes all sizes.
    jobs = [j for g in groups if g[0].large for j in g]
    small = [g for g in groups if not g[0].large]
    jobs += [g[i] for i in range(max(map(len, small))) for g in small if i < len(g)]
    return interleave(jobs)


# ---------------------------------------------------------------------------
# search: long-lived process, rings built once in set-up


def search_specs(smoke: bool) -> list[str]:
    """The rings set-up builds: the i-relation domain and its base first."""
    big = SMOKE_SPEC["mat:2:gauss:3"] if smoke else "mat:2:gauss:3"
    return [big, big[len("mat:2:"):], "mat:2:zmod:2", "mat:2:zmod:3", "mat:2:zmod:4",
            "zmod:2", "zmod:8", "gauss:3"]


def search_jobs(rings: dict, smoke: bool) -> list[Job]:
    from matsemi import search, verify

    big, base = search_specs(smoke)[:2]

    def irel(dom, cod, limit, budget):
        rep = verify.verify_fourth_power_search(rings[dom], rings[cod], limit=limit,
                                                node_budget=budget)
        doc = rep.to_json()
        doc.pop("nodes")
        return {"enumerated": rep.enumerated, "exhaustive": rep.exhaustive,
                "pass": rep.passed, "flagged": len(rep.flagged_findings),
                "sha256": sha256(doc)}

    def enum(dom, cod, filters=(), budget=None):
        res = search.enumerate_multiplicative_maps(rings[dom], rings[cod],
                                                   filters=filters, node_budget=budget)
        imgs = b"".join(np.asarray(m.img, dtype=np.int64).tobytes() for m in res.maps)
        return {"count": len(res.maps), "exhaustive": res.exhaustive,
                "sha256": sha256(imgs)}

    def probe(spec):
        rep = search.unique_addition_probe(rings[spec], rings[spec])
        return {"isomorphisms": len(rep.isomorphisms), "additive": rep.additive_flags,
                "exhaustive": rep.exhaustive, "sha256": sha256(rep.to_json())}

    def job(key, cls, large, fn):
        return Job(f"search:{key}", cls, large, fn, lambda o: o)

    irel_base = job(f"irel:{big}->{base}", "irel_base", not smoke,
                    lambda: irel(big, base, None, None))
    irel_endo = job(f"irel:{big}->{big}:limit=4:budget={IREL_ENDO_BUDGET}", "irel_endo",
                    not smoke, lambda: irel(big, big, 4, IREL_ENDO_BUDGET))
    light = [
        job("enum:mat:2:zmod:3->mat:2:zmod:3", "enum", False,
            lambda: enum("mat:2:zmod:3", "mat:2:zmod:3")),
        job(f"enum:mat:2:zmod:4->mat:2:zmod:4:budget={ENUM_M4_BUDGET}", "enum", False,
            lambda: enum("mat:2:zmod:4", "mat:2:zmod:4", budget=ENUM_M4_BUDGET)),
        job("enum:mat:2:zmod:2->zmod:2", "enum", False,
            lambda: enum("mat:2:zmod:2", "zmod:2")),
        job("enum:mat:2:zmod:2->zmod:2:corner", "enum", False,
            lambda: enum("mat:2:zmod:2", "zmod:2", filters=("corner",))),
    ] + [job(f"unique_addition:{s}", "enum", False, lambda s=s: probe(s))
         for s in ("mat:2:zmod:2", "zmod:8", "gauss:3")]
    # The light jobs run before, between and after the two long searches,
    # so their total samples three moments of the pass.
    return light + [irel_base] + light + [irel_endo] + light


# ---------------------------------------------------------------------------
# sweep: CLI suites through matsemi.cli.main, stdout captured

WORKER_COMMANDS = [
    "verify prop1 --dom mat:2:zmod:2 --cod zmod:2",
    "verify tensor --dom zmod:4",
    "verify tensor --dom gauss:2",
    "enumerate --dom mat:2:zmod:2 --cod zmod:2 --filter corner",
    "enumerate --dom mat:2:zmod:3 --cod mat:2:zmod:3 --filter star",
]
SINGLE_COMMANDS = [
    "verify witnesses --ring gauss:3",
    "ring info mat:2:zmod:4",
    "ring info mat:2:gauss:2",
]
MAP_FLAGS = ["--mult", "--add", "--star", "--corner"]


def write_sweep_inputs(outdir: Path, seed: int, smoke: bool) -> list[tuple]:
    """Write the seeded map files; return ``(key, argv, large, check)`` per
    command."""
    outdir.mkdir(parents=True, exist_ok=True)
    cmds = []

    def write(name, spec, img):
        path = outdir / name
        path.write_text(json.dumps({"dom": spec, "cod": spec,
                                    "img": [int(v) for v in img]}))
        return path

    for spec, kind in (("mat:2:gauss:2", "pass"), ("mat:2:zmod:4", "fail")):
        ring = Arith(spec)
        img, exp = map_mix(ring, seed, 1 if kind == "pass" else 0,
                           1 if kind == "fail" else 0)[0]
        path = write(f"map_{kind}.json", spec, img)

        def check(obs, exp=exp):
            doc = json.loads(obs["stdout"])
            got = {c["predicate"]: c["pass"] for c in doc["checks"]}
            want_rc = 0 if all(exp.values()) else 1
            if obs["rc"] != want_rc or got != exp:
                return f"rc {obs['rc']} verdicts {got}, expected {want_rc} {exp}"
            return None
        cmds.append((f"cli:map check:{spec}:{kind}",
                     ["map", "check", str(path), *MAP_FLAGS], False, check))

    spec = "mat:2:zmod:3" if smoke else "mat:2:zmod:7"
    img = conjugation_map(Arith(spec), seed)
    path = write("doubling.json", spec, img)

    def check_doubling(obs, img=img):
        doc = json.loads(obs["stdout"])
        trace = doc.get("trace") or {}
        if (obs["rc"] != 0 or doc.get("pass") is not True
                or trace.get("conflicts_total") != 0
                or trace.get("map", {}).get("img") != [int(v) for v in img]):
            return f"doubling closure of an automorphism: rc {obs['rc']} pass {doc.get('pass')}"
        return None
    cmds.append((f"cli:verify doubling-gl:{spec}", ["verify", "doubling-gl", "--map", str(path)],
                 not smoke, check_doubling))
    return cmds


def sweep_jobs(seeded: list[tuple]) -> list[Job]:
    from matsemi import cli

    first_stdout = {}  # command -> stdout of its first run in this process

    def run_cli(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        return {"rc": rc, "stdout": out.getvalue()}

    def digest(cmd):
        # Every later run, at either worker count, must repeat the first
        # run's stdout byte for byte.
        def observe(o):
            obs = {"rc": o["rc"], "stdout_sha256": sha256(o["stdout"].encode())}
            if first_stdout.setdefault(cmd, o["stdout"]) != o["stdout"]:
                obs["stdout_differs_from_first_run"] = True
            return obs
        return observe

    jobs = []
    for cmd in WORKER_COMMANDS:
        for w in (1, 2):
            jobs.append(Job(f"cli:{cmd}", f"suite_w{w}", False,
                            lambda cmd=cmd, w=w: run_cli([*cmd.split(), "--workers", str(w)]),
                            digest(cmd)))
    for cmd in SINGLE_COMMANDS:
        jobs.append(Job(f"cli:{cmd}", "suite_single", False,
                        lambda cmd=cmd: run_cli(cmd.split()), digest(cmd)))
    for key, argv, large, check in seeded:
        jobs.append(Job(key, "suite_single", large, lambda argv=argv: run_cli(argv),
                        lambda o: o, check))
    return interleave(jobs)

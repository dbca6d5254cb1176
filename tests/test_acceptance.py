"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every assertion here is exact (set equality, zero tolerance); the only
numeric bounds are the stated wall-clock budgets.  Cross-checks against
the independent plain-python oracle live inline so a regression in the
vectorized paths cannot silently pass.
"""

import hashlib
import json
import os
import subprocess
import sys
import time

import oracles
from matsemi.maps import (
    MapTable,
    corner_relation_holds,
    determinant_map,
    identity_map,
    is_additive,
    is_multiplicative,
    power_map,
    tensor_id,
)
from matsemi.rings import (
    sum_of_units_decompose,
    unitaries,
    units,
    validate_matrix_view,
    validate_ring,
)
from matsemi.search import enumerate_multiplicative_maps
from matsemi.verify import (
    verify_corner_equivalence,
    verify_fourth_power_search,
    verify_tensor_equivalence,
    verify_witness_suite,
)
from matsemi.witness import (
    corner_product_identity_check,
    doubling_additivity_closure,
    uv_product_identity_check,
)


def _report(num, name, ok, elapsed, budget, detail=""):
    mark = "PASS" if ok else "FAIL"
    extra = f" {detail}" if detail else ""
    bound = f" < {budget}s" if budget else ""
    print(f"ACCEPTANCE {num} {name}: {mark} ({elapsed:.1f}s{bound}){extra}")


# ---------------------------------------------------------------------------
# 1. Ring corpus validity


# sha256 of validate_ring(M_2(Z_3[i])).to_json() as sorted compact JSON:
# the checks, counts, witnesses, notes and generators, pinned byte for byte.
M2_GAUSS3_VALIDATION_SHA256 = (
    "03c9df5b91de0894b8d0d2d3a1f4e0112bc96075a55d58cfee1d3184471c6b34")


def test_acceptance_1_ring_corpus_validity(corpus):
    t0 = time.monotonic()
    rings = corpus["rings"]
    all_ok = True
    for spec, ring in rings.items():
        val = validate_ring(ring)
        ok = val.ok
        if spec == "mat:2:gauss:3":
            digest = hashlib.sha256(json.dumps(
                val.to_json(), sort_keys=True, separators=(",", ":")).encode()).hexdigest()
            if digest != M2_GAUSS3_VALIDATION_SHA256:
                ok = False
                print(f"  corpus ring {spec} report digest {digest} changed")
        if ring.matrix_view is not None:
            ok = ok and validate_matrix_view(ring.matrix_view).ok
        if not ok:
            all_ok = False
            print(f"  corpus ring {spec} FAILED: "
                  f"{[c.name for c in val.failed()]}")
    elapsed = corpus["build_seconds"] + (time.monotonic() - t0)
    _report(1, "ring corpus validity", all_ok and elapsed < 60, elapsed, 60,
            f"[{len(rings)} rings]")
    assert all_ok
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 2. Corner-relation equivalence, exhaustive over 2^16 functions


def test_acceptance_2_corner_equivalence_exhaustive(corpus):
    t0 = time.monotonic()
    dom = corpus["rings"]["mat:2:zmod:2"]
    cod = corpus["rings"]["zmod:2"]

    # Independent oracle: plain-python scan of all 2^16 functions.
    o_dom = oracles.oracle_mat2(oracles.oracle_zmod(2))
    o_cod = oracles.oracle_zmod(2)
    o_mult = oracles.multiplicative_functions(o_dom, o_cod)
    o_corner = [f for f in o_mult if oracles.corner_holds(o_dom, o_cod, f)]
    o_addit = [f for f in o_mult if oracles.is_additive(o_dom, o_cod, f)]
    sets_equal = o_corner == o_addit

    # Generator-based enumeration must reproduce the oracle sets.
    res = enumerate_multiplicative_maps(dom, cod)
    enum_mult = [tuple(int(v) for v in m.img) for m in res.maps]
    res_c = enumerate_multiplicative_maps(dom, cod, filters=("corner",))
    enum_corner = [tuple(int(v) for v in m.img) for m in res_c.maps]
    enum_ok = (res.exhaustive and res_c.exhaustive
               and enum_mult == o_mult and enum_corner == o_corner)

    # Production suite must agree with the oracle's counts.
    rep = verify_corner_equivalence(dom, cod)
    suite_ok = (rep.passed and rep.multiplicative == len(o_mult)
                and rep.with_corner == len(o_corner)
                and rep.additive == len(o_addit))

    elapsed = time.monotonic() - t0
    ok = sets_equal and enum_ok and suite_ok and elapsed < 120
    _report(2, "corner equivalence over 2^16 functions", ok, elapsed, 120,
            f"[mult={len(o_mult)} corner={len(o_corner)} additive={len(o_addit)}]")
    assert sets_equal and enum_ok and suite_ok
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 3. Counterexample necessity: the determinant map


def test_acceptance_3_determinant_counterexample(corpus):
    t0 = time.monotonic()
    view = corpus["rings"]["mat:2:zmod:2"].matrix_view
    det = determinant_map(view)

    o = oracles.oracle_mat2(oracles.oracle_zmod(2))
    assert list(det.img) == oracles.det_image(o)  # image array cross-check

    mult = is_multiplicative(det)
    corner = corner_relation_holds(det)
    addit = is_additive(det)
    ok = (mult.passed and mult.counts["checked"] == 256
          and not corner.passed and not addit.passed)
    # the corner failure is exactly 0 + 0 != 1
    e11 = view.matrix_unit(0, 0)
    e22 = view.matrix_unit(1, 1)
    ok = ok and int(det.img[e11]) == 0 and int(det.img[e22]) == 0 \
        and int(det.img[view.ring.one]) == 1
    elapsed = time.monotonic() - t0
    _report(3, "determinant counterexample", ok and elapsed < 1, elapsed, 1)
    assert ok
    assert elapsed < 1


# ---------------------------------------------------------------------------
# 4. Matrix-lift equivalence over all 256 self-maps of Z4


def test_acceptance_4_matrix_lift_equivalence(corpus):
    t0 = time.monotonic()
    z4 = corpus["rings"]["zmod:4"]
    rep = verify_tensor_equivalence(z4)
    suite_ok = rep.passed and rep.total_functions == 256

    # Independent recount: the oracle decides ring-hom membership, the
    # library decides lift multiplicativity, and the two sets must match.
    o = oracles.oracle_zmod(4)
    hom, lifted = [], []
    for img in oracles.all_functions(4, 4):
        if oracles.is_multiplicative(o, o, img) and oracles.is_additive(o, o, img):
            hom.append(img)
        phi = MapTable(z4, z4, img)
        if is_multiplicative(tensor_id(phi, 2)).passed:
            lifted.append(img)
    cross_ok = hom == lifted and len(hom) == rep.ring_homs

    # Spot-verify the lifted set membership with the oracle on the full
    # 2x2 pair space (both members, plus a known excluded map).
    o2 = oracles.oracle_mat2(o)
    for img in lifted:
        lift = tensor_id(MapTable(z4, z4, img), 2)
        assert oracles.is_multiplicative(o2, o2, tuple(int(v) for v in lift.img))
    cube_lift = tensor_id(power_map(z4, 3), 2)
    assert not oracles.is_multiplicative(o2, o2,
                                         tuple(int(v) for v in cube_lift.img))

    elapsed = time.monotonic() - t0
    ok = suite_ok and cross_ok and elapsed < 60
    _report(4, "matrix-lift equivalence over 256 self-maps", ok, elapsed, 60,
            f"[ring homs={rep.ring_homs}]")
    assert suite_ok and cross_ok
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 5. Proof-identity suite over every corpus ring


def test_acceptance_5_proof_identities(corpus):
    t0 = time.monotonic()
    ok = True
    for spec, ring in corpus["rings"].items():
        rep = corner_product_identity_check(ring)
        if not rep.passed:
            ok = False
            print(f"  corner product identity FAILED on {spec}")
        rep = uv_product_identity_check(ring)
        if not rep.passed:
            ok = False
            print(f"  uv product identity FAILED on {spec}")
    for spec in ("zmod:2", "zmod:3", "zmod:4"):
        suite = verify_witness_suite(corpus["rings"][spec])
        if not suite.all_invertible:
            ok = False
            print(f"  witness matrices FAILED on {spec}: {suite.failures}")
    elapsed = time.monotonic() - t0
    _report(5, "proof identities + witness invertibility", ok and elapsed < 120,
            elapsed, 120)
    assert ok
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 6. Doubling extraction


def _ring_homs(ring):
    res = enumerate_multiplicative_maps(ring, ring)
    assert res.exhaustive
    return [m for m in res.maps if is_additive(m).passed]


def test_acceptance_6_doubling_extraction(corpus):
    t0 = time.monotonic()
    ok = True
    for spec in ("zmod:4", "gauss:3"):
        ring = corpus["rings"][spec]
        pools = ["units", "unitaries"] if ring.has_star else ["units"]
        for phi in _ring_homs(ring):
            for mode in pools:
                pool = units(ring) if mode == "units" else unitaries(ring)
                if pool.size == 0:
                    continue
                tr = doubling_additivity_closure(phi, mode, depth=4)
                if not tr.ok:
                    ok = False
                    print(f"  unexpected conflict: {spec} {mode} "
                          f"{phi.img.tolist()}")
                ext = tr.extension()
                for x in range(ring.size):
                    dec = sum_of_units_decompose(ring, x, 16, mode=mode)
                    if dec is None:
                        continue
                    if x not in ext or ext[x] != int(phi.img[x]):
                        ok = False
                        print(f"  extension misses {x} on {spec} {mode}")
    cube = power_map(corpus["rings"]["zmod:4"], 3)
    tr = doubling_additivity_closure(cube, "units", depth=1)
    first = tr.conflicts[0]
    cube_ok = (not tr.ok and first.level == 1
               and (first.a, first.b) == (1, 1))
    if not cube_ok:
        ok = False
        print("  cube map did not produce the expected depth-1 conflict")
    elapsed = time.monotonic() - t0
    _report(6, "doubling extraction", ok and elapsed < 60, elapsed, 60)
    assert ok
    assert elapsed < 60


# ---------------------------------------------------------------------------
# 7. Fourth-power reduction search


def test_acceptance_7_fourth_power_search(corpus):
    t0 = time.monotonic()
    dom = corpus["rings"]["mat:2:gauss:3"]
    base_cod = corpus["rings"]["gauss:3"]

    rep_small = verify_fourth_power_search(dom, base_cod, limit=None,
                                           node_budget=500_000)
    rep_endo = verify_fourth_power_search(dom, dom, limit=4,
                                          node_budget=1500)

    ok = rep_small.passed and rep_endo.passed
    # the reports must state exhaustiveness explicitly
    for rep in (rep_small, rep_endo):
        assert isinstance(rep.exhaustive, bool)
        assert "exhaustive" in rep.to_json()
    detail = (f"[into base: {rep_small.enumerated} maps exhaustive="
              f"{rep_small.exhaustive}; endo: {rep_endo.enumerated} maps "
              f"exhaustive={rep_endo.exhaustive}; flagged="
              f"{len(rep_small.flagged_findings) + len(rep_endo.flagged_findings)}]")
    elapsed = time.monotonic() - t0
    _report(7, "fourth-power reduction search", ok, elapsed, 0, detail)
    assert rep_small.exhaustive  # the base-codomain search runs to completion
    assert ok


# ---------------------------------------------------------------------------
# 8. Determinism across worker counts


def _run(args, workers):
    """Run one CLI command, passing ``--workers`` only to the suites that
    read it (the doubling suites run in one process and refuse it)."""
    if args[:2] not in (["verify", "doubling-gl"], ["verify", "doubling-unitary"]):
        args = [*args, "--workers", str(workers)]
    env = dict(os.environ)
    r = subprocess.run([sys.executable, "-m", "matsemi", *args],
                       capture_output=True, env=env, timeout=600)
    return r.stdout


def test_acceptance_8_worker_determinism(tmp_path, corpus):
    t0 = time.monotonic()
    cube = power_map(corpus["rings"]["zmod:4"], 3)
    ident = identity_map(corpus["rings"]["zmod:4"])
    cube_file = tmp_path / "cube.json"
    cube_file.write_text(json.dumps(cube.to_json()))
    id_file = tmp_path / "id.json"
    id_file.write_text(json.dumps(ident.to_json()))

    commands = [
        ["verify", "prop1", "--dom", "mat:2:zmod:2", "--cod", "zmod:2"],
        ["verify", "tensor", "--dom", "zmod:4"],
        ["verify", "doubling-gl", "--map", str(cube_file)],
        ["verify", "doubling-gl", "--map", str(id_file)],
    ]
    ok = True
    for cmd in commands:
        outs = {w: [_run(cmd, w) for _ in range(2)] for w in (1, 8)}
        variants = {outs[1][0], outs[1][1], outs[8][0], outs[8][1]}
        if len(variants) != 1 or not outs[1][0]:
            ok = False
            print(f"  nondeterministic output for {' '.join(cmd)}")
    elapsed = time.monotonic() - t0
    _report(8, "byte-identical reports across workers", ok, elapsed, 0)
    assert ok

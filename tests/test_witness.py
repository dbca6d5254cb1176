"""Block-matrix witnesses, additivity certificates, and the doubling closure."""

import functools
import tracemalloc

import numpy as np
import pytest

import oracles
from matsemi.errors import NotAUnit, PreconditionFailed
from matsemi import rings
from matsemi.maps import (
    MapTable,
    constant_map,
    determinant_map,
    from_callable,
    identity_map,
    is_additive,
    power_map,
    zero_map,
)
from matsemi.rings import (
    RingTable,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    parse_ring_spec,
    sum_of_units_decompose,
    units,
)
from matsemi.witness import (
    build_uv_pair,
    corner_product_identity_check,
    doubling_additivity_closure,
    extract_additivity,
    fourth_power_reduction,
    group_hom_restriction_check,
    invertible_witness_matrices,
    uv_product_identity_check,
)

Z2 = make_zmod(2)
Z3 = make_zmod(3)
Z4 = make_zmod(4)
G3 = make_gaussian(3)
M2Z2 = make_matrix_ring(Z2, 2)
M2G3 = make_matrix_ring(G3, 2)


# ---------------------------------------------------------------------------
# Ring identities


@pytest.mark.parametrize("ring", [Z2, Z3, Z4, G3, M2Z2.ring])
def test_corner_product_identity_everywhere(ring):
    rep = corner_product_identity_check(ring)
    assert rep.passed
    assert rep.counts["checked"] == ring.size**2


def test_corner_product_z2_single_case():
    # a = b = 1 in characteristic 2: the product lands on the zero matrix
    rep = corner_product_identity_check(Z2)
    assert rep.passed and int(Z2.add[1, 1]) == 0


@pytest.mark.parametrize("ring", [Z2, Z3, Z4, G3, M2Z2.ring])
def test_uv_product_identity_everywhere(ring):
    assert uv_product_identity_check(ring).passed


IDENTITY_MUTANT_RINGS = [make_zmod(3), Z4, make_gaussian(2), G3]


def _identity_mutants(ring, star_swaps):
    """Single-entry add and mul mutants (each entry to the next value),
    then, with ``star_swaps``, every swap of two entries of ``star``."""
    n = ring.size
    for which in ("add", "mul"):
        for x in range(n):
            for y in range(n):
                tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
                tables[which][x, y] = (int(tables[which][x, y]) + 1) % n
                yield RingTable(tables["add"], tables["mul"], ring.zero, ring.one,
                                star=ring.star)
    if star_swaps:
        for x in range(n):
            for y in range(x + 1, n):
                star = ring.star.copy()
                star[[x, y]] = star[[y, x]]
                yield RingTable(ring.add, ring.mul, ring.zero, ring.one, star=star)


def _oracle_ring(ring):
    add, mul, star = ring.add.tolist(), ring.mul.tolist(), ring.star.tolist()
    return oracles.OracleRing(ring.size, lambda a, b: add[a][b],
                              lambda a, b: mul[a][b], ring.zero, ring.one,
                              star=lambda a: star[a])


@pytest.mark.parametrize("ring,block_rows", [
    *(pytest.param(r, None, id=r.label) for r in IDENTITY_MUTANT_RINGS),
    *(pytest.param(r, 3, id=f"{r.label}-3-row-block") for r in IDENTITY_MUTANT_RINGS),
])
@pytest.mark.parametrize("check,oracle,star_swaps", [
    (corner_product_identity_check, oracles.corner_identity_violations, False),
    (uv_product_identity_check, oracles.uv_identity_violations, True),
], ids=["corner", "uv"])
def test_identity_checks_on_corrupted_tables(ring, check, oracle, star_swaps,
                                             block_rows, monkeypatch):
    """On corrupted tables, the verdict, the violation count and the first
    16 witnesses equal a plain-Python evaluation of each block product,
    also when the scan runs in blocks of 3 rows of a."""
    if block_rows is not None:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block_rows * ring.size)
    failing = 0
    for mutant in _identity_mutants(ring, star_swaps):
        rep = check(mutant)
        bad = oracle(_oracle_ring(mutant))
        assert (rep.passed, rep.counts["violations"], rep.witnesses) == (
            not bad, len(bad), bad[:16])
        failing += not rep.passed
    assert failing


@pytest.mark.parametrize("check", [corner_product_identity_check,
                                   uv_product_identity_check],
                         ids=["corner", "uv"])
def test_identity_checks_scan_in_bounded_memory(check):
    """Each identity check on M2(Z7) (2401 elements) peaks at no more than
    3 bytes per (a, b) pair: it scans row blocks of a, never an n x n grid."""
    ring = parse_ring_spec("mat:2:zmod:7")
    tracemalloc.start()
    try:
        assert check(ring).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * ring.size**2


def test_uv_pair_z3_scaled_identity():
    p = build_uv_pair(Z3, 1, 1)
    assert p.uv.tolist() == [[2, 0], [0, 2]]
    assert p.identity_holds
    assert p.u_invertible


def test_uv_pair_z2_singular_u_still_satisfies_identity():
    p = build_uv_pair(Z2, 1, 0)
    assert p.u.tolist() == [[1, 1], [1, 1]]
    assert p.u_invertible is False
    assert p.identity_holds


def test_uv_pair_gauss_upper_left_is_sum():
    i = G3.i_elem
    p = build_uv_pair(G3, i, i)
    assert int(p.uv[0, 0]) == int(G3.add[i, i])


def test_uv_pair_needs_involution():
    from matsemi.errors import MissingInvolution
    from matsemi.rings import RingTable

    bare = RingTable(Z4.add, Z4.mul, 0, 1, label="bare")
    with pytest.raises(MissingInvolution):
        build_uv_pair(bare, 1, 1)


def test_group_restriction_lift_respects_size_cap():
    from matsemi.errors import SizeCapExceeded

    # lifting a 16-element matrix ring would need 65536^2 dense tables
    with pytest.raises(SizeCapExceeded):
        group_hom_restriction_check(identity_map(M2Z2.ring), 2)


def test_uv_pair_agrees_with_oracle_product():
    o = oracles.oracle_gauss(3)
    for a in range(9):
        for b in range(9):
            p = build_uv_pair(G3, a, b)
            # recompute u*v upper-left by the definition: 1*b + a*1
            want = o.add(o.mul(o.one, b), o.mul(a, o.one))
            assert int(p.uv[0, 0]) == want


# ---------------------------------------------------------------------------
# Witness matrices


def test_witness_matrices_z3_trivial_params():
    gam, alp, bet = invertible_witness_matrices(Z3, 1, 0, 0, 0)
    assert gam.invertible and alp.invertible and bet.invertible


def test_witness_matrices_z4():
    gam, alp, bet = invertible_witness_matrices(Z4, 3, 2, 2, 2)
    assert alp.invertible
    assert gam.invertible and bet.invertible


def test_witness_matrix_gamma_z2():
    gam, _, _ = invertible_witness_matrices(Z2, 1, 0, 0, 1)
    assert gam.matrix.tolist() == [[1, 1], [1, 0]]
    assert gam.invertible


def test_witness_matrices_reject_non_unit():
    with pytest.raises(NotAUnit):
        invertible_witness_matrices(Z4, 2, 0, 0, 0)


def test_witness_matrices_exhaustive_over_small_rings():
    for ring in (Z2, Z3, Z4):
        for lam in units(ring):
            for p in range(ring.size):
                for w in invertible_witness_matrices(ring, int(lam), p, p, p):
                    assert w.invertible, (ring.label, int(lam), p, w.name)


# ---------------------------------------------------------------------------
# Additivity extraction


def test_extract_additivity_identity():
    cert = extract_additivity(identity_map(M2Z2.ring))
    assert cert.passed
    assert cert.additive_confirmed
    assert all(c.passed for c in cert.corners)


def test_extract_additivity_zero_map():
    cert = extract_additivity(zero_map(M2Z2.ring, Z2))
    assert cert.passed and cert.additive_confirmed


def test_extract_additivity_gates_on_corner():
    with pytest.raises(PreconditionFailed):
        extract_additivity(determinant_map(M2Z2))


def test_extract_additivity_gates_on_multiplicativity():
    shift = from_callable(M2Z2.ring, M2Z2.ring,
                          lambda x: (x + 1) % M2Z2.ring.size)
    with pytest.raises(PreconditionFailed):
        extract_additivity(shift)


# ---------------------------------------------------------------------------
# Fourth-power reduction


def test_fourth_power_identity_map():
    rep = fourth_power_reduction(identity_map(M2G3.ring))
    assert rep.passed
    assert rep.counts["phi_zero_is_zero"] == 1
    assert rep.counts["fourth_power_identity"] == 1
    assert rep.counts["sum_fourth_equals_sum"] == 1


def test_fourth_power_zero_map():
    rep = fourth_power_reduction(zero_map(M2G3.ring, M2G3.ring))
    assert rep.passed
    assert rep.counts["phi_zero_is_zero"] == 1


def test_fourth_power_gates_on_i_relation():
    with pytest.raises(PreconditionFailed):
        fourth_power_reduction(determinant_map(M2G3))


def test_fourth_power_reduction_with_nonzero_phi_zero():
    """The constant map onto c = 3+i in Z5[i], an idempotent with c = 2ic,
    is multiplicative and meets the i-relation but not the corner
    relation: (iP + iQ)^4 = c = phi(1), while (P + Q)^4 = c != 2c."""
    g5 = make_gaussian(5)
    c = 8
    assert g5.render(c) == "3+i"
    rep = fourth_power_reduction(constant_map(make_matrix_ring(make_gaussian(2), 2).ring,
                                              g5, c))
    assert rep.to_json() == {
        "predicate": "fourth_power_reduction", "pass": False,
        "witnesses": [[65, 64, 1]],
        "counts": {"checked": 3, "violations": 1, "phi_zero": 8,
                   "phi_zero_is_zero": 0, "fourth_power_identity": 1,
                   "sum_fourth_equals_sum": 0}}


# ---------------------------------------------------------------------------
# Doubling closure


def test_doubling_identity_z4_covers_everything():
    tr = doubling_additivity_closure(identity_map(Z4), "units", depth=4)
    assert tr.ok
    assert list(tr.covered()) == [0, 1, 2, 3]
    assert tr.extension() == {0: 0, 1: 1, 2: 2, 3: 3}


def test_doubling_cube_conflict_at_unit_pair():
    tr = doubling_additivity_closure(power_map(Z4, 3), "units", depth=1)
    assert not tr.ok
    first = tr.conflicts[0]
    assert (first.level, first.a, first.b) == (1, 1, 1)
    assert (first.elem, first.expected, first.actual) == (2, 2, 0)


def test_doubling_gauss_unitaries_depth2_reaches_all():
    tr = doubling_additivity_closure(identity_map(G3), "unitaries", depth=2)
    assert tr.ok
    covered = set(int(e) for e in tr.covered())
    # cross-check coverage with the independent shortest-sum oracle
    o = oracles.oracle_gauss(3)
    pool = [u for u in range(9)
            if o.mul(u, o.star(u)) == o.one and o.mul(o.star(u), u) == o.one]
    for x in range(9):
        reachable = oracles.shortest_unit_sum(o, pool, x, 4) is not None
        assert (x in covered) == reachable


def test_doubling_ring_homs_never_conflict():
    for phi in (identity_map(Z4), zero_map(Z4, Z4)):
        for mode in ("units",):
            tr = doubling_additivity_closure(phi, mode, depth=4)
            assert tr.ok
            for e, val in tr.extension().items():
                assert val == int(phi.img[e])


def test_doubling_gates_on_pool_multiplicativity():
    shift = from_callable(Z4, Z4, lambda x: (x + 1) % 4)
    with pytest.raises(PreconditionFailed):
        doubling_additivity_closure(shift, "units", depth=1)


def test_doubling_gate_reports_first_pool_violations_in_order():
    """The pool gate's report lists the first 16 violating pool pairs in
    lexicographic order, with the total count."""
    ring = make_matrix_ring(Z3, 2).ring
    phi = power_map(ring, 2)
    with pytest.raises(PreconditionFailed) as exc:
        doubling_additivity_closure(phi, "units", depth=1)
    rep = exc.value.report
    pool = sorted(int(u) for u in units(ring))
    bad = [(x, y) for x in pool for y in pool
           if phi(int(ring.mul[x, y])) != int(ring.mul[phi(x), phi(y)])]
    assert rep.predicate == "pool_multiplicative" and not rep.passed
    assert rep.counts == {"checked": len(pool) ** 2, "violations": len(bad)}
    assert len(bad) == 1920
    assert rep.witnesses == bad[:16]


DOUBLING_SPECS = (["zmod:%d" % n for n in range(2, 9)]
                  + ["gauss:2", "gauss:3", "mat:2:zmod:2", "mat:2:gauss:2"])


def _oracle_of(spec):
    if spec.startswith("mat:2:"):
        return oracles.oracle_mat2(_oracle_of(spec[len("mat:2:"):]))
    kind, n = spec.split(":")
    return {"zmod": oracles.oracle_zmod, "gauss": oracles.oracle_gauss}[kind](int(n))


@functools.cache
def _doubling_cases(spec):
    """``(phi, mode, depth, zero_padding, oracle trace or None)`` for the
    identity, the cube and a map that is the identity on the units and
    random elsewhere, over both pools, depths 1-4, with and without
    padding."""
    ring = parse_ring_spec(spec)
    o = oracles.tabulated(_oracle_of(spec))
    pools = {mode: oracles.pool(o, mode) for mode in ("units", "unitaries")}
    img = np.random.default_rng(ring.size).integers(0, ring.size, ring.size)
    img[pools["units"]] = pools["units"]
    maps = [identity_map(ring), power_map(ring, 3), MapTable(ring, ring, img)]
    return [(phi, mode, depth, pad,
             oracles.doubling_closure(o, o, phi.img.tolist(), pool, depth, pad))
            for phi in maps for mode, pool in pools.items()
            for depth in (1, 2, 3, 4) for pad in (True, False)]


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-block", "3-row-block"])
@pytest.mark.parametrize("spec", DOUBLING_SPECS)
def test_doubling_closure_matches_oracle(spec, block_rows, monkeypatch):
    """The trace JSON, coverage and extension equal the plain-Python
    closure, also when each level scans blocks of at least 3 rows; a map
    the oracle finds not multiplicative on the pool is refused."""
    cases = _doubling_cases(spec)
    if block_rows is not None:
        monkeypatch.setattr(rings, "_BLOCK_ENTRIES", block_rows * cases[0][0].dom.size)
    for phi, mode, depth, pad, want in cases:
        if want is None:
            with pytest.raises(PreconditionFailed):
                doubling_additivity_closure(phi, mode, depth, pad)
            continue
        tr = doubling_additivity_closure(phi, mode, depth, pad)
        assert tr.to_json() == {"map": phi.to_json(), "mode": mode, "depth": depth,
                                "zero_padding": pad, **want}
        assert tr.covered().tolist() == [e for e, _ in want["extension"]]
        assert tr.extension() == dict(want["extension"])


def test_doubling_oracle_cases_reach_conflicts_and_the_cap():
    """The oracle cases include clean traces, conflicts, traces past the
    64-conflict cap and maps the pool gate refuses."""
    totals = [want["conflicts_total"] for spec in DOUBLING_SPECS
              for *_, want in _doubling_cases(spec) if want is not None]
    assert 0 in totals
    assert any(0 < t <= 64 for t in totals)
    assert any(t > 64 for t in totals)
    assert len(totals) < sum(len(_doubling_cases(s)) for s in DOUBLING_SPECS)


def test_doubling_without_padding_only_even_lengths():
    tr = doubling_additivity_closure(identity_map(Z3), "units", depth=1,
                                     include_zero_padding=False)
    assert tr.ok
    # depth 1 without padding: pool plus pairwise sums only
    pool = set(int(u) for u in units(Z3))
    sums = {int(Z3.add[a, b]) for a in pool for b in pool}
    assert set(int(e) for e in tr.covered()) == pool | sums


def test_doubling_trace_json_shape():
    tr = doubling_additivity_closure(identity_map(Z4), "units", depth=2)
    doc = tr.to_json()
    assert doc["mode"] == "units" and doc["depth"] == 2
    assert doc["conflicts_total"] == 0
    assert doc["levels"][0]["pairs_checked"] == len(doc["pool"]) ** 2


def test_unknown_pool_mode_rejected_before_work():
    no_star = RingTable(Z4.add, Z4.mul, Z4.zero, Z4.one, label="ring")
    with pytest.raises(ValueError, match="unknown mode"):
        doubling_additivity_closure(identity_map(no_star), "bogus")
    with pytest.raises(ValueError, match="unknown mode"):
        group_hom_restriction_check(identity_map(Z4), 1, mode="bogus")
    with pytest.raises(ValueError, match="unknown mode"):
        sum_of_units_decompose(Z4, 1, 2, mode="bogus")


# ---------------------------------------------------------------------------
# Group restriction


def test_group_restriction_identity_z2():
    rep = group_hom_restriction_check(identity_map(Z2), 2)
    assert rep.passed
    assert rep.counts["pool_size"] == 6
    assert rep.counts["checked"] == 6 + 36


def test_group_restriction_cube_k1_passes():
    rep = group_hom_restriction_check(power_map(Z4, 3), 1)
    assert rep.passed


def test_group_restriction_cube_k2_fails():
    rep = group_hom_restriction_check(power_map(Z4, 3), 2)
    assert not rep.passed
    assert rep.counts["violations"] > 0


def test_group_restriction_reports_pinned():
    """Counts and witnesses, in order: pool elements mapped outside the
    codomain pool first, then violating pairs; the cap covers both."""
    rep = group_hom_restriction_check(power_map(Z4, 3), 2)
    assert rep.witnesses == [
        (21, 21), (21, 22), (21, 29), (21, 30), (21, 54), (21, 55), (21, 62),
        (21, 63), (21, 69), (21, 71), (21, 73), (21, 75), (21, 81), (21, 84),
        (21, 86), (21, 89)]
    assert rep.counts == {"checked": 9312, "violations": 6656, "pool_size": 96,
                          "cod_pool_size": 96, "k": 2}
    rep = group_hom_restriction_check(constant_map(Z4, Z4, 2), 1)
    assert rep.witnesses == [(1,), (3,), (1, 1), (1, 3), (3, 1), (3, 3)]
    assert rep.counts["violations"] == rep.counts["checked"] == 6
    rep = group_hom_restriction_check(constant_map(Z4, Z4, 2), 2, witness_cap=5)
    assert rep.witnesses == [(20,), (21,), (22,), (23,), (28,)]
    assert rep.counts["violations"] == rep.counts["checked"] == 9312


def test_group_restriction_unitaries_mode():
    rep = group_hom_restriction_check(identity_map(G3), 2, mode="unitaries")
    assert rep.passed


def test_group_restriction_failure_implies_not_unital_ring_hom():
    """Contrapositive over all 256 self-maps of Z4.

    The equivalence concerns unital ring homomorphisms: the zero map is a
    ring homomorphism whose lift sends every unit to the zero matrix, so
    unitality is part of the claim being refuted.
    """
    from matsemi.maps import MapTable, is_ring_hom, is_unital

    for t in range(256):
        img = [(t >> (2 * k)) & 3 for k in range(4)]
        phi = MapTable(Z4, Z4, img)
        rep = group_hom_restriction_check(phi, 2)
        if not rep.passed:
            assert not (is_ring_hom(phi).passed and is_unital(phi))


def test_group_restriction_passes_for_unital_ring_homs():
    assert group_hom_restriction_check(identity_map(Z4), 2).passed
    assert group_hom_restriction_check(identity_map(G3), 2).passed


# ---------------------------------------------------------------------------
# Invariants over the enumerated corpus


def test_additive_implies_corner_over_enumerated_maps():
    """Additivity applied to 1 = e11 + e22 forces the corner relation, so
    over every enumerated multiplicative map the implication is exact."""
    from matsemi.maps import corner_relation_holds
    from matsemi.search import enumerate_multiplicative_maps

    for cod in (Z2, Z4):
        res = enumerate_multiplicative_maps(M2Z2.ring, cod)
        assert res.exhaustive
        for phi in res.maps:
            if is_additive(phi).passed:
                assert corner_relation_holds(phi).passed


def test_extract_additivity_over_corner_filtered_enumeration():
    """Every enumerated multiplicative map satisfying the corner relation
    certifies, and the certificate implies plain additivity."""
    from matsemi.search import enumerate_multiplicative_maps

    for cod in (Z2, Z4):
        res = enumerate_multiplicative_maps(M2Z2.ring, cod, filters=("corner",))
        assert res.exhaustive
        for phi in res.maps:
            cert = extract_additivity(phi)
            assert cert.passed
            assert cert.additive_confirmed
            assert is_additive(phi).passed

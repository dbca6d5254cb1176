"""Block-matrix witnesses, additivity certificates, and the doubling closure."""

import functools
import tracemalloc

import numpy as np
import pytest

import oracles
from matsemi import _closure, witness
from matsemi.errors import NotAUnit, PreconditionFailed
from matsemi.maps import (
    MapTable,
    _pair_law,
    constant_map,
    corner_relation_holds,
    determinant_map,
    from_callable,
    i_relation_holds,
    identity_map,
    is_additive,
    is_multiplicative,
    power_map,
    zero_map,
)
from matsemi.rings import (
    RingTable,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    op_closure,
    parse_ring_spec,
    sum_of_units_decompose,
    unitaries,
    units,
)
from matsemi.witness import (
    build_uv_pair,
    corner_product_identity_check,
    doubling_additivity_closure,
    extract_additivity,
    fourth_power_reduction,
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
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * ring.size)
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


def test_doubling_pool_gate_scans_in_bounded_memory(corpus):
    """The doubling pool gate's pool-pair scan on M2(Z3[i]),
    multiplicativity over its 5760 units, peaks under 32 MB: it gathers
    one row block of units at a time, where a whole pool x pool grid took
    about 158 MB."""
    ring = corpus["rings"]["mat:2:gauss:3"]
    pool = units(ring)
    tracemalloc.start()
    try:
        rep = _pair_law("pool_multiplicative", identity_map(ring), "mul", 16, pool)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.counts["checked"] == 5760**2
    assert peak < 32 * 2**20


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


@pytest.mark.parametrize("params", [(1, -1, -1, -1), (1, 0, 0, 3), (1, 0, 1.0, 0),
                                    (1.5, 0, 0, 0)],
                         ids=["negative", "too-large", "float", "float-unit"])
def test_witness_matrices_reject_non_index_parameters(params):
    """lam, a, b and c must be element indices: -1 no longer wraps around to
    the last element, 3 no longer ends in an IndexError, and lam = 1.5 is
    no longer read as the unit 1."""
    with pytest.raises(ValueError, match="^lam, a, b and c "):
        invertible_witness_matrices(Z3, *params)


@pytest.mark.parametrize("ab", [(-1, 0), (0, 4), (2.0, 0)],
                         ids=["negative", "too-large", "float"])
def test_uv_pair_rejects_non_index_parameters(ab):
    """a and b must be element indices of the ring: ``build_uv_pair(gauss:2,
    -1, 0)`` no longer builds u from the wrapped-around last element."""
    with pytest.raises(ValueError, match="^a and b "):
        build_uv_pair(make_gaussian(2), *ab)


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


@pytest.mark.parametrize("phi", [identity_map(M2Z2.ring), zero_map(M2Z2.ring, Z2)],
                         ids=["identity", "zero"])
def test_certificate_reports(phi):
    """The decomposition report checks every element of M2(Z2); the k^2
    corner reports, in row-major order of the corners, each check every
    pair of base values."""
    cert = extract_additivity(phi)
    assert cert.decomposition.to_json() == {
        "predicate": "decomposition", "pass": True, "witnesses": [],
        "counts": {"checked": M2Z2.ring.size, "violations": 0}}
    assert [c.predicate for c in cert.corners] == [
        "corner_00", "corner_01", "corner_10", "corner_11"]
    assert all(c.passed and c.counts == {"checked": Z2.size**2, "violations": 0}
               for c in cert.corners)


@pytest.mark.parametrize("gated,phi,message,check", [
    (extract_additivity, from_callable(M2Z2.ring, M2Z2.ring,
                                       lambda x: (x + 1) % M2Z2.ring.size),
     "map is not multiplicative", is_multiplicative),
    (extract_additivity, determinant_map(M2Z2), "map fails the corner relation",
     corner_relation_holds),
    (fourth_power_reduction, determinant_map(M2G3),
     "map fails the imaginary-unit relation", i_relation_holds),
], ids=["multiplicative", "corner", "i-relation"])
def test_gates_raise_with_the_failing_report(gated, phi, message, check):
    """Each gate names the law that failed and carries its report."""
    with pytest.raises(PreconditionFailed) as exc:
        gated(phi)
    assert str(exc.value) == message
    assert exc.value.report == check(phi) and not exc.value.report.passed


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


M2Z7 = parse_ring_spec("mat:2:zmod:7")
M2Z7_TRANSPOSE = [((i // 343 * 7 + i // 7 % 7) * 7 + i // 49 % 7) * 7 + i % 7
                  for i in range(7**4)]


def _unmarked(ring):
    """A copy of ``ring``'s tables as a plain :class:`RingTable`, which is
    never marked associative."""
    return RingTable(ring.add, ring.mul, ring.zero, ring.one, star=ring.star,
                     i_elem=ring.i_elem, label=ring.label)


def _counting_pair_law(monkeypatch):
    """Wrap ``witness._pair_law``; returns the list of predicates it ran."""
    calls = []
    real = witness._pair_law
    monkeypatch.setattr(witness, "_pair_law",
                        lambda name, *args: calls.append(name) or real(name, *args))
    return calls


def _identity_on_units(ring):
    """The identity on the units and random elsewhere, seeded by the
    ring's size."""
    img = np.random.default_rng(ring.size).integers(0, ring.size, ring.size)
    img[units(ring)] = units(ring)
    return MapTable(ring, ring, img)


@pytest.mark.parametrize("mode", ["units", "unitaries"])
def test_doubling_pool_gate_reads_the_generator_law(mode, monkeypatch):
    """On spec-built rings, marked associative, a map passing the law on x
    times the multiplicative generators is multiplicative everywhere, so
    the pool-pair scan does not run: the identity and a unit conjugation
    of M2(Z7).  It runs on an unmarked copy of the same tables, and for a
    map multiplicative on the pool but failing the generator law; every
    trace is the one the scan admits."""
    u = int(units(M2Z7)[100])
    inv = int(np.argmax(M2Z7.mul[u] == M2Z7.one))
    conj = MapTable(M2Z7, M2Z7, M2Z7.mul[M2Z7.mul[u], inv])
    assert not np.array_equal(conj.img, np.arange(M2Z7.size))
    calls = _counting_pair_law(monkeypatch)
    traces = [doubling_additivity_closure(phi, mode, 2)
              for phi in (identity_map(M2Z7), conj)]
    assert calls == [] and all(tr.ok for tr in traces)

    copy = _unmarked(M2Z7)
    tr = doubling_additivity_closure(identity_map(copy), mode, 2)
    assert calls == ["pool_multiplicative"]
    assert tr.to_json() == traces[0].to_json()

    calls.clear()
    phi = _identity_on_units(M2Z7)
    assert not is_multiplicative(phi).passed
    doubling_additivity_closure(phi, mode, 1)
    assert calls == ["pool_multiplicative"]


@pytest.mark.parametrize("marked", [True, False], ids=["marked", "unmarked"])
@pytest.mark.parametrize("mode, counts, witnesses", [
    ("units", {"checked": 2016**2, "violations": 3967488},
     [(56, y) for y in range(57, 73)]),
    ("unitaries", {"checked": 256, "violations": 144},
     [(56, 91), (56, 301), (56, 349), (56, 803), (56, 821), (56, 947),
      (56, 971), (56, 1829), (56, 1853), (56, 1979), (56, 1997), (56, 2059),
      (91, 56), (91, 336), (91, 349), (91, 803)]),
])
def test_doubling_pool_gate_refusal_is_the_pool_scan(marked, mode, counts, witnesses):
    """The transpose of M2(Z7), which reverses products, fails the
    generator law and is refused with the pool-pair scan's report: its
    violation count over the whole pool grid and its first 16 witnesses,
    on the spec-built ring and on an unmarked copy alike."""
    ring = M2Z7 if marked else _unmarked(M2Z7)
    with pytest.raises(PreconditionFailed, match="not multiplicative on the pool") as exc:
        doubling_additivity_closure(MapTable(ring, ring, M2Z7_TRANSPOSE), mode)
    rep = exc.value.report
    assert rep.predicate == "pool_multiplicative" and not rep.passed
    assert rep.counts == counts
    assert rep.witnesses == witnesses


@pytest.mark.parametrize("mode", ["units", "unitaries"])
def test_doubling_stops_first_hits_once_every_element_is_seen(mode, monkeypatch):
    """No row block looks for first hits once every element is certified
    or already reached in its scan."""
    calls = []
    real = witness._first_unseen

    def first_unseen(flat, seen):
        assert not seen.all()
        calls.append(flat.size)
        return real(flat, seen)

    monkeypatch.setattr(witness, "_first_unseen", first_unseen)
    tr = doubling_additivity_closure(identity_map(M2Z7), mode)
    assert calls and tr.ok and tr.covered().size == M2Z7.size


DOUBLING_SPECS = (["zmod:%d" % n for n in range(2, 9)]
                  + ["gauss:2", "gauss:3", "mat:2:zmod:2", "mat:2:gauss:2"])
# Hand-assembled copies of two of them, never marked associative, on which
# the pool gate always runs the pool-pair scan.
UNMARKED = "unmarked:"
UNMARKED_SPECS = [UNMARKED + spec for spec in ("mat:2:zmod:2", "mat:2:gauss:2")]


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
    padding.  An ``unmarked:`` spec has the cases of its spec, over an
    unmarked copy of the ring."""
    if spec.startswith(UNMARKED):
        cases = _doubling_cases(spec[len(UNMARKED):])
        ring = _unmarked(cases[0][0].dom)
        return [(MapTable(ring, ring, phi.img), *rest) for phi, *rest in cases]
    ring = parse_ring_spec(spec)
    o = oracles.tabulated(_oracle_of(spec))
    pools = {mode: oracles.pool(o, mode) for mode in ("units", "unitaries")}
    maps = [identity_map(ring), power_map(ring, 3), _identity_on_units(ring)]
    return [(phi, mode, depth, pad,
             oracles.doubling_closure(o, o, phi.img.tolist(), pool, depth, pad))
            for phi in maps for mode, pool in pools.items()
            for depth in (1, 2, 3, 4) for pad in (True, False)]


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-block", "3-row-block"])
@pytest.mark.parametrize("spec", DOUBLING_SPECS + UNMARKED_SPECS)
def test_doubling_closure_matches_oracle(spec, block_rows, monkeypatch):
    """The trace JSON, coverage and extension equal the plain-Python
    closure, also when each level scans blocks of at least 3 rows; a map
    the oracle finds not multiplicative on the pool is refused.  On the
    unmarked copies the pool gate always runs the pool-pair scan."""
    cases = _doubling_cases(spec)
    if block_rows is not None:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * cases[0][0].dom.size)
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


def test_doubling_levels_assert_each_pair_once(monkeypatch):
    """The conflict scan runs on an unmarked copy of M2(Z7), where
    additivity is not decided on the generators.  With zero padding, the
    identity map over the 2016 units asserts at level 2 only the pairs
    with a summand new at level 1 (fresh x base, then old x fresh), and at
    levels 3 and 4, which have no new summand, nothing: 2401**2 pairs in
    all instead of 21,358,659.  Each level still reports on its whole
    grid."""
    shapes = []
    real = witness._row_scan
    monkeypatch.setattr(witness, "_row_scan",
                        lambda shape, *args: shapes.append(shape) or real(shape, *args))
    tr = doubling_additivity_closure(identity_map(_unmarked(M2Z7)), "units")
    assert tr.ok
    # Per level, fresh x base then old x fresh: at level 1 the pool and no
    # old elements, at levels 3 and 4 no fresh ones.
    assert shapes == [(2016, 2016), (0, 2016), (385, 2401), (2016, 385),
                      (0, 2401), (2401, 0), (0, 2401), (2401, 0)]
    assert sum(r * c for r, c in shapes) == 4064256 + 924385 + 776160 == 2401**2
    assert [lv.pairs_checked for lv in tr.levels] == [4064256] + [2401**2] * 3


def _counting_gathers(monkeypatch):
    """Count the doubling scan's gathers: ``{"take2": n, "first_unseen": n,
    "row_scan": [shape, ...]}``, by wrapping the three helpers in
    ``witness``."""
    seen = {"take2": 0, "first_unseen": 0, "row_scan": []}
    take2, first_unseen, row_scan = witness._take2, witness._first_unseen, witness._row_scan

    def counted_take2(*args):
        seen["take2"] += 1
        return take2(*args)

    def counted_first_unseen(*args):
        seen["first_unseen"] += 1
        return first_unseen(*args)

    monkeypatch.setattr(witness, "_take2", counted_take2)
    monkeypatch.setattr(witness, "_first_unseen", counted_first_unseen)
    monkeypatch.setattr(witness, "_row_scan",
                        lambda shape, *args: seen["row_scan"].append(shape)
                        or row_scan(shape, *args))
    return seen


M2Z7_DET = [((i // 343) * (i % 7) - (i // 49 % 7) * (i // 7 % 7)) % 7 * 344
            for i in range(7**4)]  # det(X) I: 344 is the identity matrix


@pytest.mark.parametrize("mode", ["units", "unitaries"])
def test_doubling_additive_maps_gather_no_conflicts(mode, monkeypatch):
    """The identity and a unit conjugation of M2(Z7) are additive on x
    times the additive generators, so on every pair: the levels run no
    conflict scan, and each gather of sums looks for first hits.  The
    traces equal those of an unmarked copy, which runs the conflict scan."""
    u = int(units(M2Z7)[100])
    inv = int(np.argmax(M2Z7.mul[u] == M2Z7.one))
    copy = _unmarked(M2Z7)
    for img in (np.arange(M2Z7.size), M2Z7.mul[M2Z7.mul[u], inv]):
        seen = _counting_gathers(monkeypatch)
        tr = doubling_additivity_closure(MapTable(M2Z7, M2Z7, img), mode)
        assert seen["row_scan"] == [] and 0 < seen["take2"] == seen["first_unseen"]
        assert tr.ok and tr.covered().size == M2Z7.size
        fallback = doubling_additivity_closure(MapTable(copy, copy, img), mode)
        assert seen["row_scan"] and seen["take2"] > seen["first_unseen"]
        assert tr.to_json() == fallback.to_json()


@pytest.mark.parametrize("name, mode, levels", [
    ("identity-on-units", "units", [663264, 924385, 924385, 924385]),
    ("identity-on-units", "unitaries", [144, 3537, 532193, 924385]),
    ("det", "units", [3471552, 4931066, 4931066, 4931066]),
    ("det", "unitaries", [96, 16657, 2823325, 4897275]),
])
def test_doubling_non_additive_maps_run_the_conflict_scan(name, mode, levels,
                                                          monkeypatch):
    """Two maps of M2(Z7) that pass the pool gate but are not additive,
    the identity on the units (random elsewhere) and det(X) I, run every
    level's conflict scan and keep their conflict counts per level; the
    traces equal those of an unmarked copy."""
    img = _identity_on_units(M2Z7).img if name == "identity-on-units" else M2Z7_DET
    phi = MapTable(M2Z7, M2Z7, img)
    assert not is_additive(phi).passed
    seen = _counting_gathers(monkeypatch)
    tr = doubling_additivity_closure(phi, mode)
    assert len(seen["row_scan"]) == 8
    assert [lv.conflicts for lv in tr.levels] == levels
    assert tr.conflicts_total == sum(levels) and len(tr.conflicts) == 64
    copy = _unmarked(M2Z7)
    assert tr.to_json() == doubling_additivity_closure(
        MapTable(copy, copy, img), mode).to_json()


def _add_swapped(ring, x, y1, y2):
    """An unmarked copy of ``ring`` with the sums x + y1 and x + y2 swapped."""
    add = ring.add.copy()
    add[x, [y1, y2]] = add[x, [y2, y1]]
    return RingTable(add, ring.mul, ring.zero, ring.one, star=ring.star,
                     i_elem=ring.i_elem, label=ring.label)


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-block", "3-row-block"])
@pytest.mark.parametrize("side", ["dom", "cod"])
def test_doubling_additive_shortcut_skips_corrupted_add_tables(side, block_rows,
                                                               monkeypatch):
    """M2(Z2) with the sums 5 + 6 and 5 + 9 swapped, on either side of the
    identity map: the map passes the add law on x times the additive
    generators but is not additive, since the corrupted copy is not
    associative.  The copy is unmarked, so the levels run the conflict
    scan, and every trace equals the plain-Python closure."""
    ring = parse_ring_spec("mat:2:zmod:2")
    bad = _add_swapped(ring, 5, 6, 9)
    dom, cod = (bad, ring) if side == "dom" else (ring, bad)
    phi = MapTable(dom, cod, np.arange(ring.size))
    assert _closure._generator_law(dom.add, cod.add, phi.img,
                                   op_closure(dom, "add").gens)
    assert not is_additive(phi).passed
    if block_rows is not None:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * ring.size)
    o_dom, o_cod = _oracle_ring(dom), _oracle_ring(cod)
    totals = []
    for mode in ("units", "unitaries"):
        pool = oracles.pool(o_dom, mode)
        for depth in (1, 2, 3, 4):
            for pad in (True, False):
                want = oracles.doubling_closure(o_dom, o_cod, phi.img.tolist(),
                                                pool, depth, pad)
                tr = doubling_additivity_closure(phi, mode, depth, pad)
                assert tr.to_json() == {"map": phi.to_json(), "mode": mode,
                                        "depth": depth, "zero_padding": pad, **want}
                totals.append(tr.conflicts_total)
    assert any(totals)


@pytest.mark.parametrize("mode,block_rows", [
    *(pytest.param(m, None, id=m) for m in ("units", "unitaries")),
    *(pytest.param(m, 3, id=f"{m}-3-row-block") for m in ("units", "unitaries")),
])
def test_doubling_closure_runs_in_bounded_memory(mode, block_rows, monkeypatch):
    """The whole closure of the M2(Z7) identity map peaks under 4 MB:
    every region is gathered one row block at a time, the shorter index
    first.  On the spec-built ring the levels gather only sums, and on an
    unmarked copy both sides of every asserted pair (measured under
    tracemalloc at the default block: 0.5 MB over the units and 0.7 MB
    over the unitaries on the spec-built ring, 1.3 and 1.1 MB on the copy;
    under 0.4 MB at 3-row blocks)."""
    if block_rows is not None:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * M2Z7.size)
    for ring in (M2Z7, _unmarked(M2Z7)):
        units(ring), unitaries(ring)  # cached pools, outside the measurement
        tracemalloc.start()
        try:
            tr = doubling_additivity_closure(identity_map(ring), mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tr.ok and tr.covered().size == 2401
        assert peak < 4 * 2**20


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
        sum_of_units_decompose(Z4, 1, 2, mode="bogus")


# ---------------------------------------------------------------------------
# Invariants over the enumerated corpus


def test_additive_implies_corner_over_enumerated_maps():
    """Additivity applied to 1 = e11 + e22 forces the corner relation, so
    over every enumerated multiplicative map the implication is exact."""
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

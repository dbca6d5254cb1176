"""Predicate scans, the matrix lift, and map serialization."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import CORPUS_SPECS, whole_grid_law
from matsemi import _closure, maps
from matsemi.errors import (
    MapFormatError,
    MissingImaginaryUnit,
    NotAMatrixRing,
)
from matsemi.maps import (
    MapTable,
    _law_kernel,
    _pair_law,
    _stacked_law,
    constant_map,
    corner_relation_holds,
    determinant_map,
    from_callable,
    i_relation_holds,
    identity_map,
    is_additive,
    is_multiplicative,
    is_ring_hom,
    is_unital,
    power_map,
    respects_star,
    tensor_id,
    zero_map,
)
from matsemi.rings import (
    MatrixRingView,
    RingTable,
    _digits,
    _pool,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    op_closure,
    parse_ring_spec,
)
from matsemi.search import enumerate_multiplicative_maps


@pytest.fixture(scope="module")
def m2z2():
    return make_matrix_ring(make_zmod(2), 2)


@pytest.fixture(scope="module")
def m2g3():
    return make_matrix_ring(make_gaussian(3), 2)


def test_identity_is_ring_hom(m2z2):
    rep = is_ring_hom(identity_map(m2z2.ring))
    assert rep.passed
    assert rep.counts["violations"] == 0


def test_det_multiplicative_all_pairs(m2z2):
    det = determinant_map(m2z2)
    rep = is_multiplicative(det)
    assert rep.passed
    assert rep.counts["checked"] == 256


def test_det_image_matches_oracle(m2z2):
    det = determinant_map(m2z2)
    o = oracles.oracle_mat2(oracles.oracle_zmod(2))
    assert list(det.img) == oracles.det_image(o)


def test_det_not_additive_with_identity_witness(m2z2):
    det = determinant_map(m2z2)
    rep = is_additive(det)
    assert not rep.passed
    e11 = m2z2.matrix_unit(0, 0)
    e22 = m2z2.matrix_unit(1, 1)
    assert (e11, e22) in set(rep.witnesses) or rep.counts["violations"] > 0
    # the defining failure: det(e11 + e22) = 1 but det(e11) + det(e22) = 0
    assert int(det.img[m2z2.ring.add[e11, e22]]) == 1
    assert int(det.img[e11]) == 0 and int(det.img[e22]) == 0


def test_det_fails_corner(m2z2):
    assert not corner_relation_holds(determinant_map(m2z2)).passed


def test_zero_map_corner_and_hom(m2z2):
    z = zero_map(m2z2.ring, make_zmod(2))
    assert corner_relation_holds(z).passed
    assert is_ring_hom(z).passed
    assert not is_unital(z)


def test_shift_map_not_multiplicative():
    z2 = make_zmod(2)
    shift = from_callable(z2, z2, lambda x: (x + 1) % 2)
    rep = is_multiplicative(shift)
    assert not rep.passed
    # phi(0*0) = phi(0)^2 happens to hold; the scan first trips on (0, 1)
    assert rep.witnesses[0] == (0, 1)


def test_cube_on_z4():
    z4 = make_zmod(4)
    cube = power_map(z4, 3)
    assert is_multiplicative(cube).passed
    rep = is_additive(cube)
    assert not rep.passed
    assert rep.witnesses[0] == (1, 1)


def test_witness_order_and_cap():
    z4 = make_zmod(4)
    bad = constant_map(z4, z4, 2)  # wildly non-multiplicative
    rep = _pair_law("multiplicative", bad, "mul", 5)
    assert len(rep.witnesses) == 5
    assert rep.witnesses == sorted(rep.witnesses)
    assert rep.counts["violations"] > 5


@pytest.mark.parametrize("scan,op", [(is_multiplicative, "mul"),
                                     (is_additive, "add")], ids=["mul", "add"])
@pytest.mark.parametrize("kind", ["identity", "random"])
def test_pair_scan_peak_memory(scan, op, kind):
    """A pair scan of M_2(Z_7) peaks at 3 bytes per pair or less: it runs
    in row blocks, images gathered in the table dtype, with no int64
    gather and no index array over every violation.  Counts and witnesses
    equal a plain int64 scan's."""
    ring = make_matrix_ring(make_zmod(7), 2).ring
    n = ring.size
    img = (np.arange(n) if kind == "identity"
           else np.random.default_rng(7).integers(0, n, n))
    phi = MapTable(ring, ring, img)
    tracemalloc.start()
    try:
        rep = scan(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * n * n
    table = getattr(ring, op)
    bad = np.argwhere(img[table] != table[img[:, None], img[None, :]])
    assert rep.passed == (kind == "identity")
    assert rep.counts["violations"] == len(bad)
    assert rep.witnesses == [tuple(int(v) for v in w) for w in bad[:16]]


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-block", "3-row-block"])
@pytest.mark.parametrize("op", ["mul", "add"])
def test_full_pair_scan_peak_per_block_entry(op, block_rows, monkeypatch):
    """The full scan of a random failing map of M_2(Z_7) peaks at 16 bytes
    per block entry or less, plus the image arrays: the codomain-dtype
    copy and NumPy's intp copy of it as ``np.take`` indices, 10 bytes per
    element.  The ring is marked as not associative, so ``_pair_law``
    runs the full scan alone, with no generator law before it."""
    ring = make_matrix_ring(make_zmod(7), 2).ring
    n = ring.size
    if block_rows:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * n)
    monkeypatch.setattr(ring, "_associative", False)
    phi = MapTable(ring, ring, np.random.default_rng(7).integers(0, n, n))
    tracemalloc.start()
    try:
        rep = _pair_law("law", phi, op, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.passed and len(rep.witnesses) == 16
    assert n * n > _closure._BLOCK_ENTRIES  # several blocks
    assert peak <= 16 * _closure._BLOCK_ENTRIES + 10 * n


@pytest.mark.parametrize("op", ["mul", "add"])
def test_pair_scan_across_block_boundary(op):
    """Full pair scans of M_2(Z_7), whose rows span several blocks, on maps
    changed at the last row of the first block and the first row of the
    next: counts and witnesses equal a plain int64 scan's at caps 0, 1 and
    16, and, for the changed identity map, at a cap taking every witness."""
    ring = make_matrix_ring(make_zmod(7), 2).ring
    n = ring.size
    rows = _closure._BLOCK_ENTRIES // n
    assert 1 < rows < n - 1
    table = getattr(ring, op)
    rng = np.random.default_rng(rows)
    for base in (np.arange(n), rng.integers(0, n, n)):
        img = base.copy()
        img[rows - 1] = (img[rows - 1] + 1) % n
        img[rows] = (img[rows] + 2) % n
        bad = np.argwhere(img[table] != table[img[:, None], img[None, :]])
        for cap in (0, 1, 16) + ((len(bad),) if len(bad) < 10**5 else ()):
            rep = _pair_law("law", MapTable(ring, ring, img), op, cap)
            assert rep.counts["violations"] == len(bad)
            assert rep.witnesses == [tuple(int(v) for v in w) for w in bad[:cap]]


def _subset_maps(ring):
    """The identity, the identity changed at three elements, and a random
    map of ``ring``."""
    rng = np.random.default_rng(ring.size)
    moved = np.arange(ring.size)
    moved[rng.choice(ring.size, 3)] = rng.integers(0, ring.size, 3)
    return [identity_map(ring), MapTable(ring, ring, moved),
            MapTable(ring, ring, rng.integers(0, ring.size, ring.size))]


def _pair_law_subsets():
    """``(phi, op, pool)`` as the doubling pool gate passes them to
    ``_pair_law``, on rings and on lifted (k = 2) maps."""
    for ring in (make_gaussian(3), make_matrix_ring(make_zmod(3), 2).ring,
                 make_matrix_ring(make_gaussian(2), 2).ring):
        for phi in _subset_maps(ring):
            for mode in ("units", "unitaries"):
                yield phi, "mul", _pool(ring, mode)
    for base in (make_zmod(3), make_gaussian(2)):
        for phi in _subset_maps(base):
            lifted = tensor_id(phi, 2)
            for mode in ("units", "unitaries"):
                yield lifted, "mul", _pool(lifted.dom, mode)


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-block", "3-row-block"])
def test_pair_law_subsets_match_int64_grid(block_rows, monkeypatch):
    """The pair law over the pools the doubling gate scans: counts and
    witnesses equal a plain int64 grid's at caps 0, 1 and 16, also in
    blocks of three rows of the pool."""
    failing = 0
    for phi, op, pool in _pair_law_subsets():
        if block_rows is not None:
            monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * pool.size)
        dom_t = getattr(phi.dom, op).astype(np.int64)
        cod_t = getattr(phi.cod, op).astype(np.int64)
        img = phi.img
        bad = np.argwhere(img[dom_t[np.ix_(pool, pool)]] != cod_t[np.ix_(img[pool], img[pool])])
        for cap in (0, 1, 16):
            rep = _pair_law("law", phi, op, cap, pool)
            assert rep.counts == {"checked": pool.size ** 2, "violations": len(bad)}
            assert rep.witnesses == [(int(pool[i]), int(pool[j])) for i, j in bad[:cap]]
        failing += len(bad) > 16
    assert failing


def test_respects_star_conjugation():
    g3 = make_gaussian(3)
    conj = from_callable(g3, g3, lambda x: int(g3.star[x]))
    assert respects_star(conj).passed
    assert respects_star(identity_map(g3)).passed


def test_respects_star_fails_on_collapse():
    g3 = make_gaussian(3)
    # a+bi -> a+b collapses i to 1; phi(i*) = -1 but phi(i)* = 1
    collapse = from_callable(g3, g3, lambda x: (x % 3 + x // 3) % 3)
    rep = respects_star(collapse)
    assert not rep.passed
    assert (g3.i_elem,) in set(rep.witnesses)


def test_corner_requires_matrix_ring():
    z4 = make_zmod(4)
    with pytest.raises(NotAMatrixRing):
        corner_relation_holds(identity_map(z4))


def test_i_relation_examples(m2g3):
    assert i_relation_holds(identity_map(m2g3.ring)).passed
    assert i_relation_holds(zero_map(m2g3.ring, m2g3.ring)).passed
    det = determinant_map(m2g3)
    assert not i_relation_holds(det).passed


def test_i_relation_needs_imaginary_unit():
    m = make_matrix_ring(make_zmod(3), 2)
    with pytest.raises(MissingImaginaryUnit):
        i_relation_holds(identity_map(m.ring))


def test_tensor_of_identity_is_identity():
    z2 = make_zmod(2)
    lifted = tensor_id(identity_map(z2), 2)
    assert np.array_equal(lifted.img, np.arange(16))


def test_tensor_of_zero_is_zero():
    z4 = make_zmod(4)
    lifted = tensor_id(zero_map(z4, z4), 2)
    assert np.array_equal(lifted.img, np.zeros(256, dtype=np.int64))


def test_tensor_cube_on_e11():
    z4 = make_zmod(4)
    lifted = tensor_id(power_map(z4, 3), 2)
    v = make_matrix_ring(z4, 2)
    e11 = v.matrix_unit(0, 0)
    assert int(lifted.img[e11]) == e11


def test_tensor_respects_size_cap(m2z2):
    from matsemi.errors import SizeCapExceeded

    with pytest.raises(SizeCapExceeded):
        tensor_id(identity_map(m2z2.ring), 2)


def test_tensor_preserves_star_exactly_when_base_does():
    g3 = make_gaussian(3)
    conj = from_callable(g3, g3, lambda x: int(g3.star[x]))
    collapse = from_callable(g3, g3, lambda x: (x % 3 + x // 3) % 3)
    assert respects_star(tensor_id(conj, 2)).passed
    assert not respects_star(tensor_id(collapse, 2)).passed


# ---------------------------------------------------------------------------
# Serialization


def test_map_json_roundtrip(m2z2):
    det = determinant_map(m2z2)
    doc = json.loads(json.dumps(det.to_json()))
    assert set(doc) == {"dom", "cod", "img"}
    phi = MapTable.from_json(doc)
    assert np.array_equal(phi.img, det.img)
    assert phi.dom.label == "mat:2:zmod:2"


def test_check_report_wire_format(m2z2):
    rep = is_multiplicative(determinant_map(m2z2)).to_json()
    assert set(rep) >= {"predicate", "pass", "witnesses", "counts"}
    assert set(rep["counts"]) >= {"checked", "violations"}
    assert isinstance(rep["witnesses"], list)


@pytest.mark.parametrize("doc", [
    {"dom": "zmod:2", "cod": "zmod:2"},
    {"dom": "zmod:2", "cod": "zmod:2", "img": [0]},
    {"dom": "zmod:2", "cod": "zmod:2", "img": [0, 5]},
    {"dom": "zmod:2", "cod": "zmod:2", "img": "xx"},
    [],
    {"dom": "zmod:2", "cod": "zmod:2", "img": [0, 1.7]},
    {"dom": "zmod:2", "cod": "zmod:2", "img": [False, True]},
    {"dom": "zmod:2", "cod": "zmod:2", "img": [0, "1"]},
    {"dom": 2, "cod": "zmod:2", "img": [0, 1]},
    {"dom": "zmod:2", "cod": "zmod:2", "img": [0, 10**30]},
])
def test_map_json_rejects_malformed(doc):
    with pytest.raises(MapFormatError):
        MapTable.from_json(doc)


@pytest.mark.parametrize("img", [[0.9, 1.7, 2.2], np.array([0.0, 1.0, 2.0]),
                                 [False, True, True], ["0", "1", "2"],
                                 [0, 1, 2**64]],
                         ids=["float", "integral-float", "bool", "str", "huge"])
def test_map_table_refuses_non_integer_images(img):
    """Images are never truncated or coerced: an image array whose dtype is
    not an integer dtype is refused, and so is one past the codomain."""
    z3 = make_zmod(3)
    with pytest.raises(MapFormatError, match="^image array "):
        MapTable(z3, z3, img)
    phi = MapTable(z3, z3, np.array([0, 1, 2], dtype=np.uint8))
    assert phi.img.dtype == np.int64 and phi.img.tolist() == [0, 1, 2]


def test_map_table_leaves_the_callers_array_writable():
    """The map keeps a frozen copy of an int64 image array: the caller's
    array stays writable, and writing to it leaves the map unchanged."""
    z3 = make_zmod(3)
    img = np.arange(3, dtype=np.int64)
    phi = MapTable(z3, z3, img)
    img[0] = 1
    assert phi.img.tolist() == [0, 1, 2] and not phi.img.flags.writeable


# ---------------------------------------------------------------------------
# Properties over random maps (rings built once; hypothesis re-runs the body)

_Z4 = make_zmod(4)
_G3 = make_gaussian(3)
_M2Z2 = make_matrix_ring(make_zmod(2), 2)
_O_M2Z2 = oracles.oracle_mat2(oracles.oracle_zmod(2))


@given(st.lists(st.integers(min_value=0, max_value=3), min_size=4, max_size=4))
def test_ring_hom_is_conjunction(img):
    phi = MapTable(_Z4, _Z4, img)
    assert is_ring_hom(phi).passed == (
        is_multiplicative(phi).passed and is_additive(phi).passed)


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=9, max_size=9))
def test_star_of_tensor_matches_base(img):
    phi = MapTable(_G3, _G3, img)
    assert respects_star(tensor_id(phi, 2)).passed == respects_star(phi).passed


@given(st.lists(st.integers(min_value=0, max_value=15), min_size=16, max_size=16))
def test_predicates_match_oracle_on_random_maps(img):
    z2 = _M2Z2.base
    phi = MapTable(_M2Z2.ring, z2, [v % 2 for v in img])
    o_cod = oracles.oracle_zmod(2)
    t = tuple(int(v) for v in phi.img)
    assert is_multiplicative(phi).passed == oracles.is_multiplicative(_O_M2Z2, o_cod, t)
    assert is_additive(phi).passed == oracles.is_additive(_O_M2Z2, o_cod, t)
    assert corner_relation_holds(phi).passed == oracles.corner_holds(_O_M2Z2, o_cod, t)


def test_stacked_law_matches_oracle_on_every_function_m2z2_to_z2():
    """Mask for mask over all 2**16 functions M2(Z2) -> Z2, the ready-pair
    verdicts equal the oracle's full double loops.  The oracle ring's
    operations are tabulated into plain lists first, which keeps the scan
    to about a second."""
    o_cod = oracles.oracle_zmod(2)
    tab = [[[op(x, y) for y in range(16)] for x in range(16)]
           for op in (_O_M2Z2.add, _O_M2Z2.mul)]
    o_dom = oracles.OracleRing(16, lambda x, y: tab[0][x][y],
                               lambda x, y: tab[1][x][y], _O_M2Z2.zero, _O_M2Z2.one)
    funcs = list(oracles.all_functions(16, 2))
    imgs = _digits(np.arange(2**16), 16, 2, np.int64)
    assert imgs.tolist() == [list(f) for f in funcs]
    for op, oracle in (("mul", oracles.is_multiplicative), ("add", oracles.is_additive)):
        got = _stacked_law(op, _M2Z2.ring, _M2Z2.base, imgs)
        assert got.tolist() == [oracle(o_dom, o_cod, f) for f in funcs]


# (dom, cod) pairs whose multiplicative maps enumerate in well under a second.
_STACK_PAIRS = [*((f"zmod:{n}", f"zmod:{n}") for n in range(1, 9)),
                ("gauss:2", "gauss:2"), ("gauss:3", "gauss:3"),
                ("mat:2:zmod:2", "zmod:2"), ("mat:2:zmod:2", "mat:2:zmod:2"),
                ("mat:2:zmod:3", "mat:2:zmod:3"), ("mat:2:gauss:2", "gauss:2")]


@pytest.mark.parametrize("dom_spec,cod_spec", _STACK_PAIRS,
                         ids=[f"{d}->{c}" for d, c in _STACK_PAIRS])
def test_stacked_law_matches_full_scans_on_corpus_stacks(dom_spec, cod_spec):
    """On a stack of every multiplicative map dom -> cod, followed by each
    map with one entry changed, the ready-pair verdicts equal the full
    row-blocked scans of is_multiplicative and is_additive, map for map,
    and both verdicts occur."""
    dom, cod = parse_ring_spec(dom_spec), parse_ring_spec(cod_spec)
    mult = np.stack([m.img for m in enumerate_multiplicative_maps(dom, cod).maps])
    bent = mult.copy()
    rows = np.arange(len(bent))
    at = rows % dom.size  # map r changes its image of element r mod |dom|
    bent[rows, at] = (bent[rows, at] + 1) % cod.size
    stack = np.concatenate([mult, bent])
    for op, scan in (("mul", is_multiplicative), ("add", is_additive)):
        got = _stacked_law(op, dom, cod, stack)
        assert got.tolist() == [scan(MapTable(dom, cod, img)).passed for img in stack]
        if op == "mul":
            assert got[:len(mult)].all() and (cod.size == 1 or not got.all())


def _scan_verdicts(op, dom, cod, stack):
    return whole_grid_law(op, dom, cod, stack).tolist()


def _recorded_kernel(op, dom, cod, stack, monkeypatch):
    """``_law_kernel`` on ``stack`` with its column fetches and block widths
    logged, in order, as ``("column", elements, live maps)`` and
    ``("block", live maps)``."""
    log = []
    block_rows = maps._block_rows

    def logged_block_rows(width):
        log.append(("block", width))
        return block_rows(width)

    def column(elems, live):
        log.append(("column", elems.size, live.size))
        return stack[np.ix_(live, elems)]

    monkeypatch.setattr(maps, "_block_rows", logged_block_rows)
    return _law_kernel(op, dom, cod, len(stack), column), log


_KERNEL_PAIRS = [("zmod:6", "zmod:5"), ("mat:2:zmod:2", "zmod:2"),
                 ("gauss:3", "gauss:3"), ("mat:2:zmod:2", "mat:2:zmod:2")]


@pytest.mark.parametrize("op", ["mul", "add"])
@pytest.mark.parametrize("dom_spec,cod_spec", _KERNEL_PAIRS,
                         ids=[f"{d}->{c}" for d, c in _KERNEL_PAIRS])
def test_law_kernel_drops_maps_inside_a_stage(dom_spec, cod_spec, op, monkeypatch):
    """With blocks of 64 pair x map entries, so that a stage's pairs span
    several blocks, the kernel's verdicts equal the full scans on a stack
    of every multiplicative map dom -> cod (the ring homs among them pass
    both laws), each changed at three elements, and 32 random functions.
    Some stage splits into blocks and drops maps after one of them, and
    each stage fetches its columns for the maps still alive."""
    monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", 64)
    dom, cod = parse_ring_spec(dom_spec), parse_ring_spec(cod_spec)
    rng = np.random.default_rng(dom.size * cod.size)
    mult = np.stack([m.img for m in enumerate_multiplicative_maps(dom, cod).maps])
    bent = np.repeat(mult, 3, axis=0)
    rows = np.arange(len(bent))
    at = rng.integers(0, dom.size, len(bent))
    bent[rows, at] = (bent[rows, at] + rng.integers(1, cod.size, len(bent))) % cod.size
    stack = np.concatenate([mult, bent, rng.integers(0, cod.size, (32, dom.size))])
    want = _scan_verdicts(op, dom, cod, stack)
    got, log = _recorded_kernel(op, dom, cod, stack, monkeypatch)
    assert got.tolist() == want
    assert any(want) and not all(want)
    stages, live = [], len(stack)
    for event in log:
        if event[0] == "column":
            assert event[2] <= live  # fetched for the maps alive on entry
            stages.append([])
        else:
            assert event[1] <= live
            stages[-1].append(event[1])
        live = event[-1]
    assert len(stages) == len(op_closure(dom, op).gens)  # some map passes
    assert live >= sum(want)
    assert any(len(widths) > 1 and widths[-1] < widths[0] for widths in stages)


@pytest.mark.parametrize("op", ["mul", "add"])
def test_law_kernel_edge_cases(op, monkeypatch):
    """An empty stack fetches nothing; maps that all fail at stage 0 fetch
    stage 0 only; zmod:1 as domain or codomain matches the full scans."""
    z6, z5 = parse_ring_spec("zmod:6"), parse_ring_spec("zmod:5")
    got, log = _recorded_kernel(op, z6, z5, np.empty((0, 6), dtype=np.int64), monkeypatch)
    assert (got.shape, log) == ((0,), [])
    # Stage 0 of both closures is {0}, and 2 o 2 = 4 != 2 in Z5 for o in {*, +}.
    got, log = _recorded_kernel(op, z6, z5, np.full((5, 6), 2), monkeypatch)
    assert got.tolist() == [False] * 5
    assert log == [("column", 1, 5), ("block", 5)]
    z1, z3 = parse_ring_spec("zmod:1"), parse_ring_spec("zmod:3")
    for dom, cod, stack in ((z1, z3, np.arange(3)[:, None]),
                            (z3, z1, np.zeros((1, 3), dtype=np.int64)),
                            (z1, z1, np.zeros((1, 1), dtype=np.int64))):
        got = _stacked_law(op, dom, cod, stack)
        assert got.tolist() == _scan_verdicts(op, dom, cod, stack)
        if cod is z3:  # 0 and 1 are idempotent in Z3, only 0 is additive
            assert got.tolist() == ([True, True, False] if op == "mul"
                                    else [True, False, False])


# ---------------------------------------------------------------------------
# Map laws decided on x times the closure generators on rings marked associative

FAST_PATH_SPECS = [*CORPUS_SPECS, "mat:2:zmod:5", "mat:2:zmod:7"]


def _grid_holds(op, ring, img, rows=None):
    """The ``op`` law of the self-map ``img`` on the first ``rows`` rows of
    the pair grid (all rows by default), 64 rows at a time."""
    t = getattr(ring, op)
    return all(np.array_equal(img[t[lo:hi]], t[np.ix_(img[lo:hi], img)])
               for lo in range(0, rows or ring.size, 64)
               for hi in [min(lo + 64, rows or ring.size)])


def _late_failures(ring, rows):
    """Per op, at most one self-map whose law holds on the first ``rows``
    rows of the pair grid and fails on a later row.  ``mul``: the identity
    with the image of n - 1 moved by a fraction of n (for a matrix ring,
    its top entry changed); ``add``: n - s <= x < n mapped to x + 1."""
    n = ring.size
    steps = sorted({n // d for d in (2, 3, 4, 7, 9)} - {0})
    found = {}
    for s in steps:
        moved = np.arange(n)
        moved[n - 1] = (n - 1 + s) % n
        shifted = np.arange(n)
        shifted[n - s:] = ring.add[n - s:, ring.one]
        for op, img in (("mul", moved), ("add", shifted)):
            if (op not in found and _grid_holds(op, ring, img, rows)
                    and not _grid_holds(op, ring, img)):
                found[op] = img
    return found


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
def test_ready_pair_map_laws_report_as_full_scans(block_rows, monkeypatch):
    """On every corpus ring and M2(Z7), ``is_multiplicative`` and
    ``is_additive`` report byte for byte as the full scans do (the ring
    marked as not associative) on passing maps, on maps failing in the
    first row block and on maps failing only past it.  A passing map on a
    grid of several row blocks (over 256 elements at the default block
    size: M2(Z5) and M2(Z7)) runs neither the full scan nor
    ``_law_kernel``: the generator law decides it."""
    scans, kernel_ops = [], []
    row_scan, kernel = maps._row_scan, maps._law_kernel

    def counted_scan(*args):
        scans.append(args[0])
        return row_scan(*args)

    def counted_kernel(op, *args):
        kernel_ops.append(op)
        return kernel(op, *args)

    monkeypatch.setattr(maps, "_row_scan", counted_scan)
    monkeypatch.setattr(maps, "_law_kernel", counted_kernel)
    default = _closure._BLOCK_ENTRIES
    late = set()
    for spec in FAST_PATH_SPECS:
        ring = parse_ring_spec(spec)
        n = ring.size
        rows = block_rows or _closure._block_rows(n)
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", rows * n if block_rows else default)
        first_block_fails = np.arange(n)
        first_block_fails[0] = 1 % n
        cases = [("pass", np.arange(n)), ("pass", np.full(n, ring.zero)),
                 ("first", first_block_fails)]
        for op, img in _late_failures(ring, rows).items():
            cases.append(("late", img))
            late.add(op)
        for kind, img in cases:
            phi = MapTable(ring, ring, img)
            scans.clear()
            fast = [is_multiplicative(phi).to_json(), is_additive(phi).to_json()]
            if kind == "pass" and n > rows:
                assert scans == [], spec
            if kind == "first" and n > 2:  # on Z2 it is the constant 1
                assert not (fast[0]["pass"] or fast[1]["pass"]), spec
            monkeypatch.setattr(ring, "_associative", False)
            full = [is_multiplicative(phi).to_json(), is_additive(phi).to_json()]
            monkeypatch.setattr(ring, "_associative", True)
            assert fast == full, (spec, kind, img.tolist()[:8])
    assert kernel_ops == []
    if block_rows:
        assert late == {"mul", "add"}


def test_map_laws_leave_the_ready_pairs_unbuilt():
    """On a fresh M2(Z7), marked associative, ``is_multiplicative`` and
    ``is_additive`` decide the identity on x times the closure generators:
    they build both closures and neither closure's ready pairs."""
    ring = MatrixRingView(make_zmod(7), 2).ring
    assert ring._associative and ring._closures == {}
    phi = identity_map(ring)
    assert is_multiplicative(phi).passed and is_additive(phi).passed
    for op in ("mul", "add"):
        assert "ready_pairs" not in vars(ring._closures[op, ()]), op


def test_unmarked_rings_never_build_a_closure_in_a_predicate(monkeypatch):
    """A hand-assembled copy of Z7 and its 2x2 matrix ring are not marked
    associative, so the map laws on them run the full scan, also on grids
    of several row blocks, and never ask for a closure."""
    z7 = parse_ring_spec("zmod:7")
    copy = RingTable(z7.add, z7.mul, z7.zero, z7.one, star=z7.star, label="zmod:7")
    m2 = make_matrix_ring(copy, 2).ring
    assert z7._associative and parse_ring_spec("mat:2:zmod:7")._associative
    assert not (copy._associative or m2._associative)

    def refused(ring, op):
        raise AssertionError(f"closure of {op} built from a predicate")

    monkeypatch.setattr(maps, "op_closure", refused)
    for block_rows in (None, 3):
        if block_rows:
            monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * 7)
        for ring in (copy, m2):
            hom = is_ring_hom(identity_map(ring))
            assert hom.passed and hom.counts["checked"] == 2 * ring.size ** 2
            assert not is_ring_hom(power_map(ring, 2)).passed

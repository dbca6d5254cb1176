"""Generator sets, enumeration completeness against the oracle, mining."""

import concurrent.futures
import functools
import gc
import hashlib
import json
import threading
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import CORPUS_SPECS, random_mutants, whole_grid_law
from matsemi import maps, rings, search
from matsemi.errors import MissingImaginaryUnit, NotAMatrixRing, SizeMismatch
from matsemi.maps import (
    MapTable,
    _image_stack,
    determinant_map,
    i_relation_holds,
    is_additive,
    is_multiplicative,
    power_map,
)
from matsemi.rings import (
    MatrixRingView,
    RingTable,
    _digits,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    parse_ring_spec,
    units,
)
from matsemi.search import (
    _Plan,
    canonical_filters,
    enumerate_multiplicative_maps,
    find_counterexamples,
    function_space_masks,
    function_space_size,
    monoid_generators,
    unique_addition_probe,
)
from matsemi.verify import (
    verify_corner_equivalence,
    verify_fourth_power_search,
    verify_tensor_equivalence,
)

Z1 = make_zmod(1)
Z2 = make_zmod(2)
Z3 = make_zmod(3)
Z4 = make_zmod(4)
G3 = make_gaussian(3)
M2Z2 = make_matrix_ring(Z2, 2)


# ---------------------------------------------------------------------------
# Generating sets


def test_generators_z4():
    gs = monoid_generators(Z4)
    assert gs.gens == [0, 2, 3]
    assert gs.words[1] == ()  # the identity has the empty word
    for e in range(4):
        w = gs.words[e]
        acc = Z4.one
        for g in w:
            acc = int(Z4.mul[acc, g])
        assert acc == e


def test_generators_trivial_ring():
    gs = monoid_generators(Z1)
    assert gs.gens == []
    assert gs.words == [()]


def test_generators_m2z2():
    """Ascending-index greedy picks every first-row-zero matrix: products of
    such matrices stay in that block, so none becomes derivable."""
    gs = monoid_generators(M2Z2.ring)
    assert gs.gens == [0, 1, 2, 3, 4, 5, 6, 7]
    for e in range(16):
        acc = M2Z2.ring.one
        for g in gs.words[e]:
            acc = int(M2Z2.ring.mul[acc, g])
        assert acc == e


def test_generators_and_words_match_the_closure_started_at_the_identity():
    """On every corpus ring the oracle handles, the generators and words
    read from the ring's cached closure equal those of the plain-Python
    right-generator closure started from the identity."""
    for spec in CORPUS_SPECS:
        if spec == "mat:2:gauss:3":
            continue
        ring = parse_ring_spec(spec)
        rows = ring.mul.tolist()
        want = oracles.right_closure(ring.size, lambda a, b: rows[a][b], ring.one)
        gs = monoid_generators(ring)
        assert (gs.gens, gs.words) == (want["gens"], want["words"]), spec


def test_generator_closure_covers_monoid():
    for ring in (Z2, Z3, Z4, G3):
        gs = monoid_generators(ring)
        reached = {ring.one}
        frontier = [ring.one]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gs.gens:
                    for p in (int(ring.mul[x, g]), int(ring.mul[g, x])):
                        if p not in reached:
                            reached.add(p)
                            nxt.append(p)
            frontier = nxt
        assert reached == set(range(ring.size))


# ---------------------------------------------------------------------------
# Enumeration vs the independent oracle


ORACLES = {
    "zmod:1": lambda: oracles.oracle_zmod(1),
    "zmod:2": lambda: oracles.oracle_zmod(2),
    "zmod:3": lambda: oracles.oracle_zmod(3),
    "zmod:4": lambda: oracles.oracle_zmod(4),
    "zmod:6": lambda: oracles.oracle_zmod(6),
    "zmod:8": lambda: oracles.oracle_zmod(8),
    "gauss:2": lambda: oracles.oracle_gauss(2),
    "mat:2:zmod:2": lambda: oracles.oracle_mat2(oracles.oracle_zmod(2)),
}

RINGS = {"zmod:1": Z1, "zmod:2": Z2, "zmod:3": Z3, "zmod:4": Z4,
         "zmod:6": make_zmod(6), "zmod:8": make_zmod(8),
         "gauss:2": make_gaussian(2), "mat:2:zmod:2": M2Z2.ring}


@pytest.mark.parametrize("dom_spec,cod_spec", [
    ("zmod:1", "zmod:4"),
    ("zmod:2", "zmod:2"),
    ("zmod:2", "zmod:4"),
    ("zmod:3", "zmod:3"),
    ("zmod:4", "zmod:4"),
    ("zmod:4", "zmod:2"),
    ("zmod:6", "zmod:6"),
    ("zmod:8", "zmod:4"),
    ("gauss:2", "zmod:2"),
    ("mat:2:zmod:2", "zmod:2"),
])
def test_enumeration_equals_oracle(dom_spec, cod_spec):
    dom, cod = RINGS[dom_spec], RINGS[cod_spec]
    o_dom, o_cod = ORACLES[dom_spec](), ORACLES[cod_spec]()
    want = oracles.multiplicative_functions(o_dom, o_cod)
    res = enumerate_multiplicative_maps(dom, cod)
    assert res.exhaustive
    got = [tuple(int(v) for v in m.img) for m in res.maps]
    assert got == want  # element for element, in lexicographic order


def test_enumeration_z2_self_maps():
    res = enumerate_multiplicative_maps(Z2, Z2)
    assert [m.img.tolist() for m in res.maps] == [[0, 0], [0, 1], [1, 1]]


def test_enumeration_filter_pruning_sound():
    """Filtered streams equal the oracle's filtered sets exactly."""
    o_dom = oracles.oracle_mat2(oracles.oracle_zmod(2))
    o_cod = oracles.oracle_zmod(2)
    mult = oracles.multiplicative_functions(o_dom, o_cod)
    want = [img for img in mult if oracles.corner_holds(o_dom, o_cod, img)]
    res = enumerate_multiplicative_maps(M2Z2.ring, Z2, filters=("corner",))
    got = [tuple(int(v) for v in m.img) for m in res.maps]
    assert got == want


def test_enumeration_star_filter():
    # codomain small enough for the plain-python oracle (3**9 functions)
    o_dom = oracles.oracle_gauss(3)
    o_cod = oracles.oracle_zmod(3)
    mult = oracles.multiplicative_functions(o_dom, o_cod)
    want = [img for img in mult if oracles.respects_star(o_dom, o_cod, img)]
    res = enumerate_multiplicative_maps(G3, Z3, filters=("star",))
    got = [tuple(int(v) for v in m.img) for m in res.maps]
    assert got == want


def _oracle_of(spec: str):
    if spec.startswith("mat:2:"):
        return oracles.oracle_mat2(_oracle_of(spec[len("mat:2:"):]))
    kind, n = spec.split(":")
    return {"zmod": oracles.oracle_zmod, "gauss": oracles.oracle_gauss}[kind](int(n))


def _star_swaps(spec: str, swapped: bool, rng):
    """``(ring, oracle)`` pairs for ``spec``: as built, or with two entries
    of its involution swapped, three times over."""
    ring, o = parse_ring_spec(spec), _oracle_of(spec)
    if not swapped:
        return [(ring, o)]
    out = []
    for _ in range(3):
        a, b = (int(v) for v in rng.choice(ring.size, 2, replace=False))
        star = ring.star.copy()
        star[[a, b]] = star[[b, a]]
        swap = {a: b, b: a}
        out.append((RingTable(ring.add, ring.mul, ring.zero, ring.one, star=star),
                    oracles.OracleRing(o.size, o.add, o.mul, o.zero, o.one,
                                       star=lambda x, s=o.star, w=swap: s(w.get(x, x)))))
    return out


_STAR_SWAP_PAIRS = [("gauss:2", "gauss:2"), ("zmod:4", "zmod:4"), ("gauss:2", "zmod:4"),
                    ("zmod:4", "gauss:2"), ("zmod:2", "gauss:2"), ("gauss:2", "zmod:2"),
                    ("zmod:2", "zmod:2")]


@pytest.mark.parametrize("dom,cod,side", [
    *((d, c, side) for d, c in _STAR_SWAP_PAIRS for side in ("dom", "cod", "both")),
    ("mat:2:zmod:2", "zmod:2", "cod"), ("mat:2:zmod:2", "zmod:2", "none"),
], ids=lambda v: v)
def test_star_prefilter_on_star_swapped_rings(dom, cod, side):
    """With two entries of the involution swapped on the domain, the
    codomain or both, the star filter emits exactly the multiplicative
    star-preserving maps a plain-Python brute force finds, in order."""
    rng = np.random.default_rng(len(dom) * 7 + len(cod))
    for d, o_dom in _star_swaps(dom, side in ("dom", "both"), rng):
        for c, o_cod in _star_swaps(cod, side in ("cod", "both"), rng):
            res = enumerate_multiplicative_maps(d, c, filters=("star",))
            assert res.exhaustive
            assert [tuple(m.img.tolist()) for m in res.maps] == \
                oracles.star_multiplicative_functions(o_dom, o_cod)


def test_enumeration_unital_filter():
    res = enumerate_multiplicative_maps(Z4, Z4, filters=("unital",))
    assert all(int(m.img[1]) == 1 for m in res.maps)
    res_all = enumerate_multiplicative_maps(Z4, Z4)
    want = [m.img.tolist() for m in res_all.maps if int(m.img[1]) == 1]
    assert [m.img.tolist() for m in res.maps] == want


def test_enumeration_limit_prefix():
    full = enumerate_multiplicative_maps(Z4, Z4)
    lim = enumerate_multiplicative_maps(Z4, Z4, limit=2)
    assert len(lim.maps) == 2
    assert not lim.exhaustive
    assert [m.img.tolist() for m in lim.maps] == [
        m.img.tolist() for m in full.maps[:2]]


def test_enumeration_node_budget_reported():
    res = enumerate_multiplicative_maps(Z4, Z4, node_budget=1)
    assert not res.exhaustive


def test_enumeration_worker_partition_identical():
    a = enumerate_multiplicative_maps(M2Z2.ring, Z2, workers=1)
    b = enumerate_multiplicative_maps(M2Z2.ring, Z2, workers=4)
    assert [m.img.tolist() for m in a.maps] == [m.img.tolist() for m in b.maps]
    assert a.nodes == b.nodes and a.exhaustive == b.exhaustive


@pytest.mark.parametrize("limit", [None, 1], ids=["exhaustive", "limit"])
def test_search_frees_its_plan_on_return(limit, monkeypatch):
    """The search leaves no reference cycle behind: its plan (on M2(Z3[i])
    about 4 MB of ready pairs) is freed when the search returns, with the
    garbage collector off."""
    plans = []

    class RecordedPlan(search._Plan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(weakref.ref(self))

    monkeypatch.setattr(search, "_Plan", RecordedPlan)
    gc.disable()
    try:
        enumerate_multiplicative_maps(Z4, Z4, limit=limit)
        assert len(plans) == 1 and plans[0]() is None
    finally:
        gc.enable()


def test_canonical_filters_rejects_unknown():
    with pytest.raises(ValueError):
        canonical_filters(("frobnicate",))


def test_canonical_filters_drops_repeats_in_first_seen_order():
    assert canonical_filters(["star", "corner", "star", "unital", "corner"]) == (
        "star", "corner", "unital")
    assert canonical_filters(iter(["i_relation", "i_relation"])) == ("i_relation",)


def test_canonical_filters_refuses_a_plain_string():
    """``filters="corner"`` read as the names "c", "o", ...; a string is
    refused as a whole, whether or not it names a filter."""
    for filters in ("corner", "c", ""):
        with pytest.raises(ValueError, match="not the string"):
            canonical_filters(filters)
    with pytest.raises(ValueError, match="not the string"):
        enumerate_multiplicative_maps(M2Z2.ring, Z2, filters="corner")


# ---------------------------------------------------------------------------
# Stage checks: ready pairs against full grids


# The plans of the ascending closure, and on M2(Z2[i]) the plan of the
# i-relation search, whose closure probes e11, e22 and i first.
READY_PLANS = (("zmod:4", ()), ("gauss:2", ()), ("mat:2:zmod:2", ()),
               ("mat:2:gauss:2", ("star", "i_relation")))


@functools.cache
def _endos(spec: str, filters: tuple = ()) -> list:
    ring = parse_ring_spec(spec)
    return enumerate_multiplicative_maps(ring, ring, filters).maps


@given(case=st.sampled_from(READY_PLANS), data=st.data())
def test_ready_pairs_decide_multiplicativity_on_each_closure(case, data):
    """A multiplicative map (one the plan's search emits) with one entry
    changed: the ready pairs of stages 0..p pass exactly when the map is
    multiplicative on every pair of the closure reached after stage p."""
    spec, filters = case
    ring = parse_ring_spec(spec)
    maps = _endos(spec, filters)
    img = maps[data.draw(st.integers(0, len(maps) - 1))].img.copy()
    img[data.draw(st.integers(0, ring.size - 1))] = data.draw(
        st.integers(0, ring.size - 1))
    plan = _Plan(ring, filters)
    closure = np.empty(0, dtype=np.int64)
    ready_ok = True
    for p, new in enumerate(plan.new_elems):
        xs, gs, xgs = plan.ready[p]
        ready_ok = ready_ok and np.array_equal(img[xgs], ring.mul[img[xs], img[gs]])
        closure = np.concatenate([closure, new])
        grid = np.ix_(closure, closure)
        full_ok = np.array_equal(img[ring.mul[grid]],
                                 ring.mul[np.ix_(img[closure], img[closure])])
        assert ready_ok == full_ok, (p, img.tolist())


def _digest(maps) -> str:
    return hashlib.sha256(
        json.dumps([m.img.tolist() for m in maps]).encode()).hexdigest()[:16]


@pytest.mark.parametrize("dom,cod,filters,limit,budget,nodes,count,digest", [
    ("mat:2:gauss:3", "gauss:3", ("star", "i_relation"), None, None,
     159, 1, "d93aea5e6d77a565"),
    ("mat:2:gauss:3", "mat:2:gauss:3", ("star", "i_relation"), 4, 60,
     256, 1, "d93aea5e6d77a565"),
    ("mat:2:gauss:2", "mat:2:gauss:2", ("star", "i_relation"), None, None,
     1885, 9, "0af7bb060e8da756"),
    ("mat:2:zmod:3", "mat:2:zmod:3", (), None, None, 607, 196, "56fb4ad2df58432d"),
    ("mat:2:zmod:3", "mat:2:zmod:3", ("star",), None, None, 1266, 52, "aff8d6b31aeb6edb"),
    ("mat:2:zmod:4", "mat:2:zmod:4", (), None, 1000, 3527, 186, "c55c5f6f20a9a28e"),
    ("mat:2:zmod:4", "mat:2:zmod:4", (), None, None, 31346, 6234, "6f82cc87b726afb4"),
], ids=["irel-base", "irel-endo-budget", "irel-m2g2-endo", "m2z3-endo", "m2z3-star",
        "m2z4-budget", "m2z4-endo"])
def test_mid_size_search_node_counts_and_maps_pinned(
        dom, cod, filters, limit, budget, nodes, count, digest):
    """Searches too large for the brute-force oracle keep their node counts
    and emitted maps, as recorded with the full new x prev stage grids.
    The two unbudgeted endomorphism searches of M2(Z3) and M2(Z4) search
    one map per unit-conjugation orbit: 607 nodes where the plain search
    visits 4292, and 31346 where it visits 482849, for the same maps (the
    plain search gives both digests).  The i-relation searches take e11,
    e22 and i as their first variables: into Z3[i] 159 nodes, and on
    M2(Z2[i]) 1885, where the ascending order visits 329 and 31267 for
    the same maps (both digests are the ascending search's); the budgeted
    one stays at 256 nodes."""
    res = enumerate_multiplicative_maps(parse_ring_spec(dom), parse_ring_spec(cod),
                                        filters=filters, limit=limit,
                                        node_budget=budget)
    assert (res.nodes, len(res.maps), _digest(res.maps)) == (nodes, count, digest)


# ---------------------------------------------------------------------------
# Relation-first order: the i-relation search takes e11, e22 and i first


def test_i_relation_plan_reads_only_the_relation_first_closure():
    """Under ``i_relation`` with no conjugation table, the plan's variables
    start with e11, e22 and i, the relation is decided at the third stage,
    and the closure probing them first is the only one built on a fresh
    M2(Z2[i]).  With a conjugation table, or without the filter, the plan
    keeps the ascending closure."""
    ring = MatrixRingView(make_gaussian(2), 2).ring
    assert ring._closures == {}
    priority = (*ring.matrix_view.diagonal_units, ring.i_elem)
    plan = _Plan(ring, ("star", "i_relation"))
    assert plan.priority == priority and plan.vars[:3] == list(priority)
    assert plan.checkpoints[2] == ["i_relation"]
    assert list(ring._closures) == [("mul", priority)]
    conj = search._conjugations(ring, ring, ("i_relation",), None, None)
    for filters, table in ((("i_relation",), conj), (("star",), None)):
        plan = _Plan(ring, filters, table)
        assert plan.priority == () and plan.vars == sorted(plan.vars)
    assert set(ring._closures) == {("mul", priority), ("mul", ())}


@pytest.mark.parametrize("dom,cod,ascending", [
    ("mat:2:gauss:2", "mat:2:gauss:2", "orbit"),
    ("mat:2:zmod:2", "mat:2:gauss:2", "orbit"),
    ("mat:2:gauss:2", "mat:2:zmod:2", "orbit"),
    ("mat:2:gauss:2", "gauss:2", "star"),
    ("mat:2:gauss:3", "gauss:3", "star"),
    ("mat:2:zmod:2", "mat:2:gauss:2", "star"),
    ("mat:2:gauss:2", "mat:2:zmod:2", "star"),
], ids=lambda v: v)
def test_relation_first_search_emits_the_ascending_search_maps(dom, cod, ascending):
    """The relation-first search emits the maps of a search over the
    ascending closure, in the same order: under ``i_relation`` alone the
    orbit search, which keeps the ascending order, against the budgeted
    plain search; under ``star`` the star search with the relation
    applied to its maps afterwards."""
    d, c = _rings(dom, cod)
    if ascending == "orbit":
        assert search._conjugations(d, c, ("i_relation",), None, None) is not None
        want = enumerate_multiplicative_maps(d, c, ("i_relation",)).maps
        got = enumerate_multiplicative_maps(d, c, ("i_relation",), node_budget=10**9)
    else:
        want = [m for m in enumerate_multiplicative_maps(d, c, ("star",)).maps
                if i_relation_holds(m).passed]
        got = enumerate_multiplicative_maps(d, c, ("star", "i_relation"))
    assert got.exhaustive
    assert [m.img.tolist() for m in got.maps] == [m.img.tolist() for m in want]


def test_limited_i_relation_search_sorts_the_maps_it_finds(monkeypatch):
    """The relation-first search finds the nine star i-relation
    endomorphisms of M2(Z2[i]) out of lexicographic order: the least, the
    sixth to ninth, then the second to fifth.  At limit 8 it keeps the
    first eight found and emits them sorted, without the fifth least map.
    A real pool of two threads, with ``_POOL_AFTER_S`` at 0, gives the
    one-worker result."""
    ring = parse_ring_spec("mat:2:gauss:2")
    filters = ("star", "i_relation")
    every = [m.img.tolist() for m in enumerate_multiplicative_maps(ring, ring, filters).maps]
    assert len(every) == 9 and every == sorted(every)
    plan = _Plan(ring, filters)
    found = [img.tolist() for lo, hi in search._partition(ring.size)
             for img in search._search_range(ring, ring, plan, None, None, lo, hi)[0]]
    assert [every.index(f) for f in found] == [0, 5, 6, 7, 8, 1, 2, 3, 4]
    outs = []
    for workers, after in ((1, search._POOL_AFTER_S), (2, 0)):
        monkeypatch.setattr(search, "_POOL_AFTER_S", after)
        res = enumerate_multiplicative_maps(ring, ring, filters, limit=8, workers=workers)
        outs.append((res.summary(), json.dumps([m.img.tolist() for m in res.maps])))
    assert outs[0] == outs[1]
    assert outs[0] == ({"count": 8, "nodes": 1877, "exhaustive": False,
                        "filters": list(filters)}, json.dumps(sorted(found[:8])))
    assert sorted(found[:8]) == [every[i] for i in (0, 1, 2, 3, 5, 6, 7, 8)]


@pytest.mark.parametrize("dom,cod,error", [
    ("gauss:3", "gauss:3", NotAMatrixRing),
    ("mat:2:zmod:3", "mat:2:gauss:3", MissingImaginaryUnit),
    ("mat:2:zmod:3", "mat:2:zmod:3", MissingImaginaryUnit),
], ids=["not-a-matrix-ring", "no-i-in-dom", "no-i-in-cod"])
def test_i_relation_refuses_a_ring_before_any_node(dom, cod, error, monkeypatch):
    """A domain that is not a 2x2 matrix ring, or a ring without an
    imaginary unit, is refused with its library error before any search
    task runs, whether the relation-first plan or the orbit search would
    have read it."""
    def refused(*args):
        raise AssertionError("a search task ran")

    monkeypatch.setattr(search, "_search_range", refused)
    d, c = _rings(dom, cod)
    for filters, budget in ((("i_relation",), None), (("i_relation",), 100),
                            (("star", "i_relation"), None)):
        with pytest.raises(error):
            enumerate_multiplicative_maps(d, c, filters, node_budget=budget)
    with pytest.raises(error):
        verify_fourth_power_search(d, c)


# ---------------------------------------------------------------------------
# Orbit search: one map per unit-conjugation orbit, then expanded

_ORBIT_CASES = [
    ("mat:2:zmod:2", "mat:2:zmod:2", ()),
    ("mat:2:zmod:2", "mat:2:zmod:2", ("corner",)),
    ("mat:2:zmod:2", "mat:2:zmod:2", ("unital",)),
    ("mat:2:zmod:3", "mat:2:zmod:3", ()),
    ("mat:2:zmod:3", "mat:2:zmod:3", ("corner",)),
    ("mat:2:zmod:3", "mat:2:zmod:3", ("unital",)),
    ("mat:2:zmod:2", "mat:2:zmod:2", ("i_relation",)),
    ("mat:2:gauss:2", "mat:2:zmod:2", ("i_relation",)),
    ("mat:2:zmod:2", "mat:2:gauss:2", ("i_relation", "unital")),
    ("gauss:2", "mat:2:zmod:3", ()),
]
_ORBIT_IDS = [f"{d}->{c}:{'+'.join(f) or 'all'}" for d, c, f in _ORBIT_CASES]


def _rings(dom: str, cod: str):
    return parse_ring_spec(dom), parse_ring_spec(cod)


@functools.cache
def _orbit_search(dom: str, cod: str, filters: tuple):
    """``(conjugation table, representatives, emitted maps)`` of the
    orbit search: the representatives come from one task over every first
    value, the maps from the public call."""
    d, c = _rings(dom, cod)
    conj = search._conjugations(d, c, filters, None, None)
    reps, _, exhausted = search._search_range(d, c, _Plan(d, filters, conj), None,
                                              None, 0, c.size)
    assert conj is not None and exhausted
    res = enumerate_multiplicative_maps(d, c, filters=filters)
    assert res.exhaustive
    return conj, [r.tolist() for r in reps], [m.img.tolist() for m in res.maps]


@pytest.mark.parametrize("dom,cod,filters", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_orbit_search_emits_the_plain_search_bytes(dom, cod, filters):
    """A node budget keeps the plain search (exhaustive here, as the budget
    is never reached); the orbit search emits byte-identical maps in fewer
    nodes."""
    d, c = _rings(dom, cod)
    orbit = enumerate_multiplicative_maps(d, c, filters=filters)
    plain = enumerate_multiplicative_maps(d, c, filters=filters, node_budget=10**9)
    assert orbit.exhaustive and plain.exhaustive
    assert orbit.nodes < plain.nodes
    assert (_image_stack(orbit.maps, d.size).tobytes()
            == _image_stack(plain.maps, d.size).tobytes())


@pytest.mark.parametrize("dom,cod,filters", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_orbit_search_keeps_the_oracle_lex_min_representatives(dom, cod, filters):
    """The conjugation table holds each inner automorphism of the codomain
    once, as a plain-Python oracle lists them from the units; the search
    keeps exactly the emitted maps that no automorphism makes
    lexicographically smaller, one per orbit."""
    conj, reps, emitted = _orbit_search(dom, cod, filters)
    autos = oracles.inner_automorphisms(oracles.tabulated(_oracle_of(cod)))
    assert conj.dtype == parse_ring_spec(cod).mul.dtype
    assert sorted(map(tuple, conj.tolist())) == autos
    assert [tuple(r) for r in reps] == oracles.lex_min_representatives(emitted, autos)


@pytest.mark.parametrize("dom,cod,filters", _ORBIT_CASES, ids=_ORBIT_IDS)
def test_orbit_stabilizer_identity(dom, cod, filters):
    """Each representative's orbit has |G| / |Stab| maps, the stabilizer
    being the automorphisms that fix it; summed over the representatives
    this is the emitted count."""
    conj, reps, emitted = _orbit_search(dom, cod, filters)
    total = 0
    for r in reps:
        stab = int(np.count_nonzero((conj[:, r] == r).all(axis=1)))
        assert len(conj) % stab == 0
        total += len(conj) // stab
    assert total == len(emitted)


def _conjugation(ring: RingTable, v: int) -> np.ndarray:
    """y -> v y v^-1 on ``ring``, from its product table."""
    w = int(np.flatnonzero(ring.mul[v] == ring.one)[0])
    return ring.mul[ring.mul[v], w].astype(np.int64)


@given(spec=st.sampled_from(["mat:2:zmod:3", "mat:2:zmod:4"]), data=st.data())
def test_emitted_maps_are_closed_under_conjugation_on_both_sides(spec, data):
    """For units u and v, Ad(v) o phi o Ad(u) of an emitted endomorphism
    phi is emitted too."""
    ring = parse_ring_spec(spec)
    emitted = _orbit_search(spec, spec, ())[2]
    phi = np.array(emitted[data.draw(st.integers(0, len(emitted) - 1))])
    u, v = (int(x) for x in data.draw(st.tuples(*[st.sampled_from(units(ring).tolist())] * 2)))
    assert _conjugation(ring, v)[phi[_conjugation(ring, u)]].tolist() in emitted


def test_orbit_search_applies_only_where_every_filter_is_invariant(monkeypatch):
    """The orbit search needs both rings associative by construction, no
    ``star`` filter, no ``limit`` and no ``node_budget``, which are tested
    before any unit is computed; ``i_relation`` needs a central i in the
    codomain.  A commutative codomain has one inner automorphism, and the
    plain search runs."""
    m2z3 = parse_ring_spec("mat:2:zmod:3")
    assert search._conjugations(m2z3, m2z3, (), None, None).shape == (24, 81)
    assert search._conjugations(m2z3, Z4, (), None, None) is None
    assert search._conjugations(M2Z2.ring, parse_ring_spec("mat:2:gauss:2"),
                                ("i_relation",), None, None).shape == (48, 256)
    assert search._conjugations(M2Z2.ring, M2Z2.ring, ("i_relation",), None,
                                None).shape == (6, 16)
    e11 = M2Z2.matrix_unit(0, 0)
    moved_i = rings._built_ring(M2Z2.ring.add, M2Z2.ring.mul, associative=True,
                                zero=M2Z2.ring.zero, one=M2Z2.ring.one, i_elem=e11)
    assert search._conjugations(M2Z2.ring, moved_i, ("i_relation",), None, None) is None
    unmarked = RingTable(m2z3.add, m2z3.mul, m2z3.zero, m2z3.one)
    assert search._conjugations(m2z3, unmarked, (), None, None) is None

    def refuse(ring):
        raise AssertionError("units computed")

    monkeypatch.setattr(search, "units", refuse)
    for filters, limit, budget in [(("star",), None, None), ((), 5, None),
                                   ((), None, 100), (("corner", "star"), None, None)]:
        assert search._conjugations(m2z3, m2z3, filters, limit, budget) is None
        enumerate_multiplicative_maps(m2z3, m2z3, filters, limit=limit,
                                      node_budget=budget)


@pytest.mark.parametrize("k,p", [(2, 2), (2, 3), (2, 5), (3, 2)],
                         ids=["2", "3", "5", "k3-p2"])
def test_additive_endomorphisms_of_m2_over_a_prime_field(k, p):
    """M_k(F_p) is simple, so a nonzero ring endomorphism is injective,
    hence an automorphism; it fixes the prime field, so it is an
    F_p-algebra automorphism, inner by Skolem-Noether.  The additive
    multiplicative self-maps are therefore the zero map and the
    |PGL_k(F_p)| distinct Ad(v), here built from ``units`` and the product
    table, not from the search."""
    ring = parse_ring_spec(f"mat:{k}:zmod:{p}")
    res = enumerate_multiplicative_maps(ring, ring)
    assert res.exhaustive
    imgs = _image_stack(res.maps, ring.size)
    additive = {tuple(r) for r in imgs[maps._stacked_law("add", ring, ring, imgs)].tolist()}
    assert len(additive) == oracles.pgl_order(k, p) + 1
    inner = {tuple(_conjugation(ring, int(v)).tolist()) for v in units(ring)}
    assert additive == inner | {(ring.zero,) * ring.size}


@pytest.mark.parametrize("dom,cod,filters,run", [
    ("mat:2:gauss:2", "mat:2:gauss:2", ("star", "i_relation"),
     lambda d, c: enumerate_multiplicative_maps(d, c, ("star", "i_relation"),
                                                node_budget=2000)),
    ("mat:2:zmod:3", "mat:2:zmod:3", ("star",),
     lambda d, c: enumerate_multiplicative_maps(d, c, ("star",))),
    ("mat:2:zmod:4", "mat:2:zmod:4", (),
     lambda d, c: enumerate_multiplicative_maps(d, c, node_budget=1000)),
    ("gauss:3", "gauss:3", (), unique_addition_probe),
    ("gauss:2", "mat:2:zmod:3", (), enumerate_multiplicative_maps),
], ids=["m2g2-star-irel", "m2z3-star", "m2z4-budget", "g3-probe", "g2-into-m2z3"])
def test_candidates_match_oracle_at_every_node(dom, cod, filters, run, monkeypatch):
    """At every node of these searches, the thinned candidate array equals
    the values a plain-Python oracle accepts when it checks the plan's
    probes, the self-square and the star constraint value by value on the
    independent oracle rings.  Into M2(Z3), probes whose product is the
    variable itself prune beyond the first such probe of a side."""
    d, c = parse_ring_spec(dom), parse_ring_spec(cod)
    od, oc = (oracles.tabulated(_oracle_of(s)) for s in (dom, cod))
    real, calls = search._candidates, []

    def checked(plan, cod_ring, img, p, lo, hi):
        got = real(plan, cod_ring, img, p, lo, hi)
        (left, _, _), (right, _, _) = plan.pf_probes[p]
        want = oracles.search_candidates(
            od, oc, img.tolist(), plan.vars[p], range(lo, hi) if p == 0 else range(c.size),
            left.tolist(), right.tolist(), star="star" in filters)
        assert got.tolist() == want, (p, img.tolist())
        calls.append(p)
        return got

    monkeypatch.setattr(search, "_candidates", checked)
    run(d, c)
    assert len(calls) > len(search._partition(c.size))


# ---------------------------------------------------------------------------
# Counterexample mining


def test_counterexamples_include_determinant():
    det = determinant_map(M2Z2)
    ce = find_counterexamples(M2Z2.ring, Z2)
    assert any(np.array_equal(c.img, det.img) for c in ce)
    for c in ce:
        assert is_multiplicative(c).passed
        assert not is_additive(c).passed


def test_counterexamples_include_cube():
    cube = power_map(Z4, 3)
    ce = find_counterexamples(Z4, Z4)
    assert any(np.array_equal(c.img, cube.img) for c in ce)


def test_counterexamples_constant_one_on_z2():
    ce = find_counterexamples(Z2, Z2)
    assert [c.img.tolist() for c in ce] == [[1, 1]]


def test_counterexamples_limit():
    ce = find_counterexamples(Z4, Z4, limit=1)
    assert len(ce) == 1


@pytest.mark.parametrize("limit", [0, -3])
def test_counterexamples_limit_below_one_rejected(limit):
    with pytest.raises(ValueError, match="limit must be >= 1"):
        find_counterexamples(Z4, Z4, limit=limit)


# ---------------------------------------------------------------------------
# Unique addition probe


def test_unique_addition_z4():
    rep = unique_addition_probe(Z4, Z4)
    assert rep.exhaustive
    assert len(rep.isomorphisms) == 1
    assert rep.isomorphisms[0].img.tolist() == [0, 1, 2, 3]
    assert rep.unique_addition


def test_unique_addition_z2():
    rep = unique_addition_probe(Z2, Z2)
    assert len(rep.isomorphisms) == 1
    assert rep.unique_addition


def test_unique_addition_gauss3():
    rep = unique_addition_probe(G3, G3)
    # the multiplicative monoid of the 9-element field has automorphisms
    # beyond the ring ones; the probe reports each with its additivity flag
    assert rep.exhaustive
    assert len(rep.isomorphisms) == len(rep.additive_flags)
    for iso, flag in zip(rep.isomorphisms, rep.additive_flags):
        assert is_additive(iso).passed == flag


def test_unique_addition_size_mismatch():
    with pytest.raises(SizeMismatch):
        unique_addition_probe(Z2, Z4)


@pytest.mark.parametrize("spec,count", [
    ("zmod:4", 1), ("zmod:8", 4), ("gauss:3", 4), ("mat:2:zmod:2", 6)])
def test_unique_addition_matches_bijection_oracle(spec, count):
    """The probe's isomorphisms are the oracle's multiplicative bijections,
    in lexicographic order, each with the oracle's additivity flag."""
    o = oracles.tabulated(_oracle_of(spec))
    isos = oracles.multiplicative_bijections(o, o)
    flags = [oracles.is_additive(o, o, img) for img in isos]
    assert len(isos) == count
    ring = parse_ring_spec(spec)
    assert unique_addition_probe(ring, ring).to_json() == {
        "dom": spec, "cod": spec,
        "isomorphisms": [{"dom": spec, "cod": spec, "img": list(img)} for img in isos],
        "additive": flags, "unique_addition": all(flags), "exhaustive": True,
    }


def test_probes_with_nothing_to_report():
    """zmod:1 has one multiplicative map into itself, and it is additive;
    zmod:9 and gauss:3 have equal sizes but no multiplicative bijection."""
    z1 = parse_ring_spec("zmod:1")
    assert find_counterexamples(z1, z1) == []
    rep = unique_addition_probe(parse_ring_spec("zmod:9"), G3)
    assert rep.isomorphisms == [] and rep.additive_flags == []
    assert rep.unique_addition and rep.exhaustive


@pytest.mark.parametrize("run", [
    lambda: find_counterexamples(M2Z2.ring, Z2),
    lambda: find_counterexamples(Z4, Z4, limit=1),
    lambda: unique_addition_probe(G3, G3),
    lambda: unique_addition_probe(M2Z2.ring, M2Z2.ring),
], ids=["ce-m2z2", "ce-z4-limit", "probe-g3", "probe-m2z2"])
def test_probes_decide_additivity_without_per_map_scans(run, monkeypatch):
    """The probes decide additivity as one image stack and run no
    per-map pair-law report, whose witnesses they would not read."""
    calls = []
    real = maps._pair_law

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(maps, "_pair_law", counted)
    run()
    assert calls == []


def test_process_pool_has_at_most_one_process_per_task(in_process_pool):
    """``workers`` beyond the task count starts no idle worker threads.  A
    fake executor records the pool size and runs each task in this
    thread."""
    res = enumerate_multiplicative_maps(Z4, Z4, workers=5000)
    assert in_process_pool == [len(search._partition(Z4.size))] == [4]
    assert [m.img.tolist() for m in res.maps] == [
        m.img.tolist() for m in enumerate_multiplicative_maps(Z4, Z4).maps]


@pytest.mark.parametrize("k,pool", [(1, [3]), (2, [3]), (14, [2]), (15, [])])
def test_tasks_run_here_until_the_cpu_threshold(k, pool, in_process_pool,
                                                monkeypatch):
    """A call runs its tasks in this thread until they have taken
    ``_POOL_AFTER_S`` of CPU time, then hands every remaining task to one
    pool of ``min(workers, remaining)`` threads, unless only one task
    remains.  A fake clock reads the number of tasks run so far, so the
    call spills after ``k`` of the 16 tasks.  A task runs in the (fake)
    pool when a pool has been started, as a call starts at most one.  The
    merged result equals the one-worker result."""
    ring = parse_ring_spec("mat:2:zmod:2")
    want = enumerate_multiplicative_maps(ring, ring)
    ran = []
    search_range = search._search_range

    def recorded(dom, cod, plan, limit, node_budget, lo, hi):
        ran.append("pool" if in_process_pool else "here")
        return search_range(dom, cod, plan, limit, node_budget, lo, hi)

    monkeypatch.setattr(search, "_search_range", recorded)
    monkeypatch.setattr(search, "time", SimpleNamespace(
        process_time=lambda: float(len(ran))))
    monkeypatch.setattr(search, "_POOL_AFTER_S", k)
    got = enumerate_multiplicative_maps(ring, ring, workers=3)
    assert len(search._partition(ring.size)) == 16
    here = k if pool else 16
    assert ran == ["here"] * here + ["pool"] * (16 - here)
    assert in_process_pool == pool
    assert ([m.img.tolist() for m in got.maps], got.nodes, got.exhaustive) == (
        [m.img.tolist() for m in want.maps], want.nodes, want.exhaustive)


def _star_enumeration(workers):
    ring = parse_ring_spec("mat:2:zmod:3")
    return [m.img.tolist() for m in enumerate_multiplicative_maps(
        ring, ring, filters=("star",), workers=workers).maps]


def _orbit_enumeration(workers):
    """The orbit search's result: every task's representatives merge
    before one expansion."""
    ring = parse_ring_spec("mat:2:zmod:3")
    res = enumerate_multiplicative_maps(ring, ring, workers=workers)
    return res.summary(), [m.img.tolist() for m in res.maps]


@pytest.mark.parametrize("run,pools", [
    (_star_enumeration, [2]),
    (_orbit_enumeration, [2]),
    (lambda workers: verify_corner_equivalence(
        parse_ring_spec("mat:2:zmod:2"), Z2, workers=workers).to_json(),
     [2, 2, 2]),
    (lambda workers: verify_fourth_power_search(
        parse_ring_spec("mat:2:gauss:2"), parse_ring_spec("gauss:2"),
        workers=workers).to_json(), [2]),
    (lambda workers: verify_tensor_equivalence(
        parse_ring_spec("zmod:6"), workers=workers).to_json(), [2]),
], ids=["enumerate-star", "enumerate-orbit", "prop1", "i-relation", "tensor"])
def test_thread_pool_gives_the_one_worker_results(run, pools, monkeypatch):
    """Real pools of two threads run each command's tasks (with
    ``_POOL_AFTER_S`` at 0, every task; prop1 starts one for its scan and
    one for each enumeration, tensor on Z6 one for its six scan chunks).
    The output equals the one-worker output, and no worker thread is left
    once the call returns."""
    started = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    want = run(1)
    threads = threading.active_count()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    assert run(2) == want
    assert started == pools
    assert threading.active_count() == threads


# The maps of each limited enumeration, as sha256 of their JSON image
# lists, taken when every task still ran.
_LIMITED_MAPS = {
    ("mat:2:zmod:3", 1):
        "0d03518143867a3eb12b88cfb6ca56a0126e184f2dee24052b27f4bec0e33f20",
    ("mat:2:zmod:4", 1000):
        "97bf564fee1cdb1af301c93fc6a1be56fe8e0447dd963dd39bb4af46d68b797d",
}


@pytest.mark.parametrize("spec,limit,nodes,ran", [
    ("mat:2:zmod:3", 1, 22, 1),
    ("mat:2:zmod:4", 1000, 71883, 1),
], ids=["m2z3-limit-1", "m2z4-limit-1000"])
def test_a_filled_limit_takes_no_later_task(spec, limit, nodes, ran, monkeypatch,
                                            request):
    """Once the merged maps fill ``limit`` and are already not exhaustive,
    every later map would be cut, so no later task runs and ``nodes``
    counts the tasks taken: for the endomorphisms of M2(Z3) at limit 1,
    one task of 16 and 22 nodes (316 when all 16 ran), and of M2(Z4) at
    limit 1000, 71883 nodes (74409).  The maps are those every task gave.
    Under the (fake) pool, which runs every task, the summary is the
    same."""
    ring = parse_ring_spec(spec)
    calls = []
    search_range = search._search_range

    def counted(*args):
        calls.append(args[-2:])
        return search_range(*args)

    monkeypatch.setattr(search, "_search_range", counted)
    got = enumerate_multiplicative_maps(ring, ring, limit=limit)
    assert (got.summary(), len(calls)) == (
        {"count": limit, "nodes": nodes, "exhaustive": False, "filters": []}, ran)
    digest = hashlib.sha256(json.dumps(
        [m.img.tolist() for m in got.maps]).encode()).hexdigest()
    assert digest == _LIMITED_MAPS[spec, limit]
    pools = request.getfixturevalue("in_process_pool")
    pooled = enumerate_multiplicative_maps(ring, ring, limit=limit, workers=2)
    assert pools == [2]
    assert pooled.summary() == got.summary()
    assert [m.img.tolist() for m in pooled.maps] == [m.img.tolist() for m in got.maps]


def test_a_filled_limit_cancels_the_pool_tasks_not_started(monkeypatch):
    """A real pool of two threads (with ``_POOL_AFTER_S`` at 0, every task)
    stops at the first task that fills ``limit``.  Every later task waits
    until the pool is shut down, so both threads are busy when the tasks
    not started are cancelled: at most tasks 0, 1 and 2 start.  The summary
    equals the one-worker one and no worker thread is left."""
    ring = parse_ring_spec("mat:2:zmod:3")
    want = enumerate_multiplicative_maps(ring, ring, limit=1)
    shut = threading.Event()
    started, released = [], []
    search_range = search._search_range

    def held(dom, cod, plan, limit, node_budget, lo, hi):
        started.append(lo)
        if lo:
            released.append(shut.wait(timeout=60))
        return search_range(dom, cod, plan, limit, node_budget, lo, hi)

    class ShutdownSignalled(concurrent.futures.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shut.set()
            super().shutdown(*args, **kwargs)

    firsts = [lo for lo, _ in search._partition(ring.size)]
    threads = threading.active_count()
    monkeypatch.setattr(search, "_search_range", held)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", ShutdownSignalled)
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    got = enumerate_multiplicative_maps(ring, ring, limit=1, workers=2)
    assert got.summary() == want.summary()
    assert [m.img.tolist() for m in got.maps] == [m.img.tolist() for m in want.maps]
    assert 0 in started and set(started) <= set(firsts[:3])
    assert all(released)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# Function-space scan plumbing


def test_function_space_size_guard():
    from matsemi.errors import SizeCapExceeded

    with pytest.raises(SizeCapExceeded):
        function_space_size(make_matrix_ring(Z4, 2).ring, Z4)


def test_function_space_masks_lex_order():
    total = function_space_size(Z2, Z3)
    imgs, _, _ = function_space_masks(Z2, Z3, 0, total)
    assert imgs.shape == (9, 2)
    assert imgs[0].tolist() == [0, 0]
    assert imgs[1].tolist() == [0, 1]
    assert imgs[-1].tolist() == [2, 2]


def test_function_space_masks_decide_additivity_for_multiplicative_maps_only(monkeypatch):
    """The additive law runs on the multiplicative maps of a chunk alone,
    and ``hom`` is ``mult`` and a full additivity scan combined."""
    dom, cod = parse_ring_spec("mat:2:zmod:2"), parse_ring_spec("zmod:2")
    calls = []
    kernel = maps._law_kernel

    def recording(op, d, c, m, column):
        calls.append((op, m))
        return kernel(op, d, c, m, column)

    monkeypatch.setattr(maps, "_law_kernel", recording)
    imgs, mult, hom = function_space_masks(dom, cod, 0, 8192)
    assert calls == [("mul", 8192), ("add", int(mult.sum()))]
    additive = np.array([is_additive(MapTable(dom, cod, img)).passed for img in imgs])
    assert np.array_equal(hom, mult & additive)
    assert hom.any() and (mult & ~hom).any() and (additive & ~mult).any()


# ---------------------------------------------------------------------------
# Exact on tables not marked associative


def _brute_force(dom, cod):
    """The image arrays of the multiplicative maps dom -> cod and of the
    ring homomorphisms among them, in lexicographic order, by whole grids
    over every function."""
    imgs = _digits(np.arange(cod.size ** dom.size), dom.size, cod.size, np.int64)
    mult = whole_grid_law("mul", dom, cod, imgs)
    return imgs[mult], imgs[mult & whole_grid_law("add", dom, cod, imgs)]


def test_search_is_exact_on_a_nonassociative_domain():
    """Z3 with mul = [[0,0,0],[0,2,2],[0,2,0]] is not associative.  The
    search into Z3 visits the same 11 nodes as the stage checks alone and
    emits the 2 multiplicative maps: (0, 1, 1) passes every stage check
    and is refused by the full scan of the complete map."""
    z3 = parse_ring_spec("zmod:3")
    mutant = RingTable(z3.add, [[0, 0, 0], [0, 2, 2], [0, 2, 0]], z3.zero, z3.one)
    res = enumerate_multiplicative_maps(mutant, z3)
    assert res.exhaustive and res.nodes == 11
    assert [m.img.tolist() for m in res.maps] == [[0, 0, 0], [1, 1, 1]]
    assert _brute_force(mutant, z3)[0].tolist() == [[0, 0, 0], [1, 1, 1]]


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3", "zmod:4", "zmod:5", "gauss:2"])
def test_search_and_masks_are_exact_on_random_mutants(spec, monkeypatch):
    """Mutants with one to three add or mul entries changed, as domain and
    as codomain of maps to or from the spec ring: the search and the
    function-space masks give exactly the brute-force sets, in order.
    Beyond Z2, whose mutants' stage checks here refuse every
    non-multiplicative map themselves, some complete map passes the stage
    checks and is refused by the full scan."""
    refused = []
    holds = search._generator_law

    def counted(*args):
        ok = holds(*args)
        refused.append(not ok)
        return ok

    monkeypatch.setattr(search, "_generator_law", counted)
    ring = parse_ring_spec(spec)
    for trial, add, mul in random_mutants(ring, [13, ring.size], 12):
        mutant = RingTable(add, mul, ring.zero, ring.one)
        for dom, cod in ((mutant, ring), (ring, mutant)):
            mult, hom = _brute_force(dom, cod)
            res = enumerate_multiplicative_maps(dom, cod)
            got = np.array([m.img for m in res.maps], dtype=np.int64).reshape(-1, dom.size)
            assert res.exhaustive and np.array_equal(got, mult), trial
            imgs, m, h = function_space_masks(dom, cod, 0, cod.size ** dom.size)
            assert np.array_equal(imgs[m], mult) and np.array_equal(imgs[h], hom), trial
    assert any(refused) or spec == "zmod:2"

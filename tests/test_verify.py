"""Verification suites and enumeration run on the ring objects they are
given, at every worker count, whatever the rings' labels say."""

import concurrent.futures
import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import matsemi.verify
import oracles
from conftest import random_mutants, whole_grid_law
from matsemi import _closure, search
from matsemi.errors import SizeCapExceeded
from matsemi.maps import (
    MapTable,
    _lift,
    _stacked_law,
    i_relation_holds,
    is_multiplicative,
    is_ring_hom,
    tensor_id,
)
from matsemi.rings import (
    RingTable,
    _digits,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    parse_ring_spec,
)
from matsemi.search import enumerate_multiplicative_maps
from matsemi.verify import (
    verify_corner_equivalence,
    verify_fourth_power_search,
    verify_tensor_equivalence,
    verify_witness_suite,
)
from matsemi.witness import fourth_power_reduction


def _copy(ring: RingTable, label: str) -> RingTable:
    """A hand-assembled ring with the tables of ``ring`` under ``label``."""
    return RingTable(ring.add, ring.mul, ring.zero, ring.one, star=ring.star,
                     i_elem=ring.i_elem, label=label)


def _without_labels(doc: dict) -> dict:
    return {k: v for k, v in doc.items() if k not in ("dom", "cod")}


@pytest.mark.parametrize("workers", [1, 2])
def test_tensor_on_unparseable_ring(workers, monkeypatch):
    """A hand-assembled ring goes to the pool like a spec-built one: with
    ``_POOL_AFTER_S`` at 0, two workers hand all six chunks of Z6 to it."""
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    rep = verify_tensor_equivalence(_copy(make_zmod(6), "ring"), workers=workers)
    want = verify_tensor_equivalence(make_zmod(6))
    assert rep.dom == rep.cod == "ring"
    assert _without_labels(rep.to_json()) == _without_labels(want.to_json())


def test_prop1_starts_a_pool_per_task_list(in_process_pool):
    """With every task handed to a pool, prop1 starts one pool for its
    8 scan chunks and one for each enumeration's 2 tasks into Z2, and the
    report equals the one-worker report."""
    dom, cod = parse_ring_spec("mat:2:zmod:2"), parse_ring_spec("zmod:2")
    rep = verify_corner_equivalence(dom, cod, workers=2)
    assert in_process_pool == [2, 2, 2]
    assert rep.to_json() == verify_corner_equivalence(dom, cod).to_json()


@pytest.mark.parametrize("workers", [1, 2])
def test_prop1_on_unparseable_rings(workers, monkeypatch):
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    z2 = _copy(make_zmod(2), "ring")
    dom = make_matrix_ring(z2, 2).ring
    rep = verify_corner_equivalence(dom, z2, workers=workers)
    want = verify_corner_equivalence(make_matrix_ring(make_zmod(2), 2).ring,
                                     make_zmod(2))
    assert rep.dom == "mat:2:ring" and rep.passed
    assert _without_labels(rep.to_json()) == _without_labels(want.to_json())


def test_threads_build_the_lazy_caches_of_fresh_rings(monkeypatch):
    """Worker threads meet the closures and ready pairs of freshly
    hand-assembled rings unbuilt, so several may build one at once: prop1
    on M2(copy of Z2) -> the Z2 copy and tensor on a Z6 copy, at four
    workers with ``_POOL_AFTER_S`` at 0 (every task) and a short switch
    interval, give the one-worker reports on other fresh copies.  Real
    pools start, and no worker thread is left."""
    def suites(workers):
        z2 = _copy(make_zmod(2), "ring")
        dom = make_matrix_ring(z2, 2).ring
        z6 = _copy(make_zmod(6), "ring")
        assert not (z2._closures or dom._closures or z6._closures)
        return (verify_corner_equivalence(dom, z2, workers=workers).to_json(),
                verify_tensor_equivalence(z6, workers=workers).to_json())

    started = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    want = suites(1)
    threads = threading.active_count()
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(search, "_POOL_AFTER_S", 0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = suites(4)
    finally:
        sys.setswitchinterval(interval)
    assert got == want
    # prop1: 8 scan chunks, then 2 search tasks per enumeration; tensor: 6 chunks.
    assert started == [4, 2, 2, 4]
    assert threading.active_count() == threads


@pytest.mark.parametrize("workers", [1, 2])
def test_mislabelled_ring_uses_its_own_tables(workers):
    g2 = make_gaussian(2)
    fake = _copy(g2, "zmod:4")
    res = enumerate_multiplicative_maps(fake, fake, workers=workers)
    want = enumerate_multiplicative_maps(g2, g2)
    assert [m.img.tolist() for m in res.maps] == [m.img.tolist() for m in want.maps]
    assert (res.nodes, res.exhaustive) == (want.nodes, want.exhaustive)

    rep = verify_tensor_equivalence(fake, workers=workers)
    assert rep.dom == "zmod:4" and rep.ring_homs == 3
    assert _without_labels(rep.to_json()) == _without_labels(
        verify_tensor_equivalence(g2).to_json())


def test_witness_suite_checks_pair_scan_cap_first(monkeypatch):
    """A ring built under a larger cap is refused by the suite's
    inverse-scan cap before either identity scan or the unit computation
    runs."""
    def not_reached(*args, **kwargs):
        raise AssertionError("scan ran before the size caps were checked")

    for name in ("corner_product_identity_check", "uv_product_identity_check", "units"):
        monkeypatch.setattr(matsemi.verify, name, not_reached)
    with pytest.raises(SizeCapExceeded,
                       match=r"^inverse scan over 14641 candidate matrices exceeds cap 10$"):
        verify_witness_suite(make_zmod(11), size_cap=10)


@pytest.mark.parametrize("spec", ["zmod:3", "zmod:4", "gauss:2"])
def test_witness_suite_failures_match_oracle_on_mutants(spec):
    """On every single-entry add and mul mutant, ``failures`` lists, in
    order, the (gamma/alpha/beta, lambda, p) whose matrix the plain-Python
    scan of all |R|**4 candidates finds no two-sided inverse for, looping
    over the oracle's units lambda, then p.  The suite scans all its
    matrices as one stack: in one block, and in blocks of 3 matrices."""
    ring = parse_ring_spec(spec)
    n, one, zero = ring.size, ring.one, ring.zero
    failing = 0
    for which in ("add", "mul"):
        for x in range(n):
            for y in range(n):
                tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
                tables[which][x, y] = (int(tables[which][x, y]) + 1) % n
                mutant = RingTable(tables["add"], tables["mul"], zero, one,
                                   star=ring.star)
                add, mul = tables["add"].tolist(), tables["mul"].tolist()
                oring = oracles.OracleRing(n, lambda a, b: add[a][b],
                                           lambda a, b: mul[a][b], zero, one)
                lams = oracles.pool(oring, "units")
                want = [(name, lam, p) for lam in lams for p in range(n)
                        for name, m in (("gamma", ((p, lam), (lam, zero))),
                                        ("alpha", ((one, p), (zero, lam))),
                                        ("beta", ((p, lam), (one, zero))))
                        if oracles.mat2_inverse(oring, m) is None]
                reps = [verify_witness_suite(mutant)]
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(_closure, "_BLOCK_ENTRIES", 3 * n * n)
                    reps.append(verify_witness_suite(mutant))
                for rep in reps:
                    assert (rep.units_count, rep.matrices_checked) == (
                        len(lams), 3 * len(lams) * n)
                    assert rep.failures == want, (which, x, y)
                    assert rep.all_invertible == (not want)
                failing += bool(want)
    assert failing


def test_witness_suite_runs_in_block_memory():
    """The Z_31 suite scans 2790 matrices against 961 candidate rows each;
    r·M over the whole stack at once would hold 2.7 million entries per
    array (21 MB at int64).  In blocks of about ``_BLOCK_ENTRIES``
    (matrix, row) entries it peaks under 4 MB."""
    ring = parse_ring_spec("zmod:31")
    tracemalloc.start()
    try:
        rep = verify_witness_suite(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rep.matrices_checked, rep.all_invertible, rep.passed) == (2790, True, True)
    assert peak < 4 * 2**20


def _tensor_sets(ring: RingTable):
    """The ring-hom ids and the lift-multiplicative ids among all self-maps
    of ``ring``, from one stacked task over the whole function space."""
    view = make_matrix_ring(ring, 2)
    return matsemi.verify._tensor_task(view, view, 0, ring.size ** ring.size)


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3", "zmod:4", "gauss:2"])
def test_stacked_tensor_verdicts_match_per_function_scans(spec):
    """On every self-map, the stacked ring-hom and lift verdicts equal the
    per-function path: a MapTable, its tensor_id lift and full pair scans."""
    ring = parse_ring_spec(spec)
    hom_ids, lift_ids = _tensor_sets(ring)
    imgs = _digits(np.arange(ring.size ** ring.size), ring.size, ring.size, np.int64)
    phis = [MapTable(ring, ring, img) for img in imgs]
    assert hom_ids.tolist() == [t for t, phi in enumerate(phis)
                                if is_ring_hom(phi).passed]
    assert lift_ids.tolist() == [t for t, phi in enumerate(phis)
                                 if is_multiplicative(tensor_id(phi, 2)).passed]


@pytest.mark.parametrize("n,half", [(3, 2), (5, 3)])
def test_tensor_counterexample_when_two_is_a_unit(n, half):
    """Over Z_n with 2 a unit, the lift of the constant map onto 1/2 is the
    constant idempotent (1/2)J, since J**2 = 2J for the all-ones matrix J.
    It is the one lift-multiplicative self-map that is not a ring hom, so
    the suite reports the counterexample and fails."""
    ring = make_zmod(n)
    assert int(ring.mul[2, half]) == 1
    assert verify_tensor_equivalence(ring).to_json() == {
        "suite": "tensor", "dom": f"zmod:{n}", "cod": f"zmod:{n}", "k": 2,
        "total_functions": n ** n, "ring_homs": 2, "lift_multiplicative": 3,
        "sets_equal": False, "pass": False}
    hom_ids, lift_ids = _tensor_sets(ring)
    extra = np.setdiff1d(lift_ids, hom_ids)
    assert np.isin(hom_ids, lift_ids).all()
    assert _digits(extra, n, n, np.int64).tolist() == [[half] * n]


@pytest.mark.parametrize("spec,limit,budget", [
    ("mat:2:gauss:2", None, None),
    ("mat:2:gauss:3", 4, 60),
], ids=["m2g2-exhaustive", "m2g3-budget"])
def test_fourth_power_search_needs_no_gates(spec, limit, budget, monkeypatch):
    """The i-relation suite skips the fourth-power reduction's gates, as
    the search decided both.  Every map it reports on passes the full
    multiplicativity and imaginary-unit scans, and the report equals one
    built with the gated reduction on each map."""
    ring = parse_ring_spec(spec)
    got = verify_fourth_power_search(ring, ring, limit=limit, node_budget=budget)
    seen = []

    def gated(phi):
        seen.append(phi)
        return fourth_power_reduction(phi)

    monkeypatch.setattr(matsemi.verify, "_fourth_power_report", gated)
    assert verify_fourth_power_search(
        ring, ring, limit=limit, node_budget=budget).to_json() == got.to_json()
    assert len(seen) == got.enumerated > 0
    assert got.exhaustive == (limit is None)
    for phi in seen:
        assert is_multiplicative(phi).passed and i_relation_holds(phi).passed


def test_fourth_power_search_on_m2_gauss3_is_exhaustive_without_a_budget():
    """With neither limit nor budget, the relation-first search decides
    every star-preserving multiplicative self-map of M2(Z3[i]) with the
    imaginary-unit relation: 25 maps in 141436 nodes (about 2 s of CPU),
    each annihilating zero and meeting the corner relation, and none
    flagged."""
    ring = parse_ring_spec("mat:2:gauss:3")
    rep = verify_fourth_power_search(ring, ring, limit=None, node_budget=None)
    assert (rep.enumerated, rep.nodes, rep.exhaustive, rep.zero_annihilating) == (
        25, 141436, True, 25)
    assert rep.passed and rep.flagged_findings == []


@pytest.mark.parametrize("suite,run", [
    ("prop1", lambda m2: verify_corner_equivalence(m2, make_zmod(2))),
    ("tensor", lambda m2: verify_tensor_equivalence(make_zmod(3))),
    ("witnesses", lambda m2: verify_witness_suite(make_zmod(2))),
    ("i-relation", lambda m2: verify_fourth_power_search(m2)),
], ids=["prop1", "tensor", "witnesses", "i-relation"])
def test_suite_report_json_is_its_fields_between_suite_and_pass(suite, run):
    """A suite report's JSON holds the suite id, then every field in
    declaration order as the report holds it, then the verdict."""
    rep = run(parse_ring_spec("mat:2:zmod:2"))
    doc = rep.to_json()
    names = [f.name for f in dataclasses.fields(rep)]
    assert list(doc) == ["suite", *names, "pass"]
    assert doc["suite"] == suite and doc["pass"] is rep.passed
    assert all(doc[name] is getattr(rep, name) for name in names)


@pytest.mark.parametrize("dom_spec,cod_spec,lo,hi", [
    ("zmod:4", "zmod:4", 0, 4**4), ("gauss:2", "gauss:2", 0, 4**4),
    ("zmod:6", "zmod:5", 8192, 5**6)], ids=["zmod:4", "gauss:2", "zmod:6->zmod:5"])
def test_tensor_task_lifts_like_the_materialised_lift(dom_spec, cod_spec, lo, hi):
    """The tensor task's lifting column source gives the ids that
    ``_stacked_law`` gives on the materialised lift of the chunk (lifted
    1024 maps at a time), and some map passes and some fails."""
    dom, cod = parse_ring_spec(dom_spec), parse_ring_spec(cod_spec)
    dv, cv = make_matrix_ring(dom, 2), make_matrix_ring(cod, 2)
    _, lift_ids = matsemi.verify._tensor_task(dv, cv, lo, hi)
    ids = np.arange(lo, hi)
    imgs = _digits(ids, dom.size, cod.size, np.int64)
    want = np.concatenate([_stacked_law("mul", dv.ring, cv.ring, _lift(imgs[i:i + 1024], dv, cv))
                           for i in range(0, len(imgs), 1024)])
    assert lift_ids.tolist() == ids[want].tolist()
    assert 0 < lift_ids.size < ids.size


def test_tensor_chunk_runs_in_bounded_memory():
    """One zmod:6 chunk of the tensor suite (8192 functions, whose lifts
    would take 8192 x 1296 images) peaks under 32 MB, the rings and their
    closures built beforehand; it holds the 4 ring homs, all lifted."""
    v6 = make_matrix_ring(parse_ring_spec("zmod:6"), 2)
    matsemi.verify._tensor_task(v6, v6, 8192, 2 * 8192)
    tracemalloc.start()
    try:
        hom_ids, lift_ids = matsemi.verify._tensor_task(v6, v6, 0, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert hom_ids.size == 4 and lift_ids.tolist() == hom_ids.tolist()


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3"])
def test_tensor_counts_are_exact_on_random_mutants(spec):
    """A mutant with one to three add or mul entries changed as the domain
    and the spec ring as the codomain: the ring homomorphisms and the maps
    whose 2x2 lift is multiplicative are the sets whole-grid scans over
    every function find."""
    ring = parse_ring_spec(spec)
    cv = make_matrix_ring(ring, 2)
    for trial, add, mul in random_mutants(ring, [17, ring.size], 8):
        mutant = RingTable(add, mul, ring.zero, ring.one, label="mutant")
        dv = make_matrix_ring(mutant, 2)
        imgs = _digits(np.arange(ring.size ** ring.size), ring.size, ring.size, np.int64)
        homs = (whole_grid_law("mul", mutant, ring, imgs)
                & whole_grid_law("add", mutant, ring, imgs))
        lifted = whole_grid_law("mul", dv.ring, cv.ring, _lift(imgs, dv, cv))
        rep = verify_tensor_equivalence(mutant, ring)
        assert (rep.ring_homs, rep.lift_multiplicative, rep.sets_equal) == (
            int(homs.sum()), int(lifted.sum()), bool(np.array_equal(homs, lifted))), trial

"""The greedy closure against the plain-Python oracles in ``oracles``
(the right-generator closure it builds, and the closure under every
product whose generators and stages it keeps on associative tables), the
row-block policy it shares with every pair grid, and the closures each
ring keeps through ``rings.op_closure``."""

import hashlib
import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CORPUS_SPECS, random_mutants
from matsemi import _closure, rings
from matsemi._closure import _generator_law, greedy_closure
from matsemi.maps import _stacked_law
from matsemi.rings import (
    MatrixRingView,
    RingTable,
    make_gaussian,
    op_closure,
    parse_ring_spec,
)
from matsemi.search import enumerate_multiplicative_maps, function_space_masks

# M2(Z3[i]) has 6561 elements, too many for the plain-Python oracle.
ORACLE_SPECS = [s for s in CORPUS_SPECS if s != "mat:2:gauss:3"]


def _assert_matches_oracle(table, priority=()):
    cl = greedy_closure(table, priority)
    rows = table.tolist()
    want = oracles.right_closure(len(rows), lambda a, b: rows[a][b], priority=priority)
    got = {
        "gens": cl.gens, "order": cl.order.tolist(),
        "stage_starts": cl.stage_starts, "round_starts": cl.round_starts,
        "deriv_x": cl.deriv_x.tolist(), "deriv_y": cl.deriv_y.tolist(),
        "words": cl.words(),
    }
    assert got == want


def _three_row_blocks(n: int):
    """Patch the block size so that an n-column grid is cut into blocks of
    three rows."""
    return mock.patch.object(_closure, "_BLOCK_ENTRIES", 3 * n)


@pytest.mark.parametrize("spec,block_rows", [
    *(pytest.param(s, None, id=s) for s in ORACLE_SPECS),
    *(pytest.param(s, 3, id=f"{s}-3-row-block") for s in ORACLE_SPECS),
])
def test_closure_matches_oracle_on_corpus_tables(spec, block_rows, monkeypatch):
    ring = parse_ring_spec(spec)
    if block_rows is not None:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * ring.size)
    for table in (ring.add, ring.mul):
        _assert_matches_oracle(table)


@st.composite
def _tables(draw):
    """A corpus add or mul table, a single-entry mutant of one, or a random
    magma."""
    kind = draw(st.sampled_from(["corpus", "mutant", "magma"]))
    if kind == "magma":
        n = draw(st.integers(1, 24))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.integers(0, n, size=(n, n))
    ring = parse_ring_spec(draw(st.sampled_from(ORACLE_SPECS)))
    table = getattr(ring, draw(st.sampled_from(["add", "mul"]))).copy()
    n = ring.size
    if kind == "mutant" and n > 1:
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[x, y] = (int(table[x, y]) + draw(st.integers(1, n - 1))) % n
    return table


def _priority(draw, n: int) -> tuple[int, ...]:
    """Up to four elements of ``range(n)`` to probe first, repeats allowed
    (a repeat, already known when probed, is skipped)."""
    return tuple(draw(st.lists(st.integers(0, n - 1), max_size=4)))


@settings(max_examples=120)
@given(table=_tables(), three_rows=st.booleans(), data=st.data())
def test_closure_matches_oracle(table, three_rows, data):
    """Generators, discovery order, stage and round boundaries, derivations
    and words all equal the oracle's, with the products gathered in blocks
    of the default size or of three rows, and with a drawn priority
    probed first or none."""
    priority = _priority(data.draw, len(table))
    if three_rows:
        with _three_row_blocks(len(table)):
            _assert_matches_oracle(table, priority)
    else:
        _assert_matches_oracle(table, priority)


def _corpus_priorities(ring) -> list[tuple[int, ...]]:
    """The priorities tried on a corpus ring: the last element, the middle
    one and the last again, and on a 2x2 matrix ring with an imaginary
    unit the i-relation search's (e11, e22, i)."""
    n = ring.size
    out = [(n - 1, n // 2, n - 1)]
    if ring.matrix_view is not None and ring.matrix_view.k == 2 and ring.has_i:
        out.append((*ring.matrix_view.diagonal_units, ring.i_elem))
    return out


@pytest.mark.parametrize("spec,block_rows", [
    *(pytest.param(s, None, id=s) for s in ORACLE_SPECS),
    *(pytest.param(s, 3, id=f"{s}-3-row-block") for s in ORACLE_SPECS),
])
def test_priority_closure_matches_oracle_on_corpus_tables(spec, block_rows, monkeypatch):
    """With elements probed first, each corpus closure equals the oracle's
    right closure field for field, and keeps the generators and stage sets
    of the oracle's closure under every product with the same priority."""
    ring = parse_ring_spec(spec)
    if block_rows is not None:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * ring.size)
    for priority in _corpus_priorities(ring):
        for table in (ring.add, ring.mul):
            _assert_matches_oracle(table, priority)
            _assert_stages_match_magma_closure(table, priority)


def test_block_size_patch_reaches_row_blocks(monkeypatch):
    """The block size lives in ``_closure`` alone, and patching it cuts the
    grids that ``rings._row_scan`` evaluates into several blocks."""
    assert not hasattr(rings, "_BLOCK_ENTRIES")
    monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", 3 * 10)
    assert list(_closure._row_blocks(10, 10)) == [(0, 3), (3, 6), (6, 9), (9, 10)]
    calls = []

    def law(lo, hi):
        calls.append((lo, hi))
        return np.ones((hi - lo, 10), dtype=bool)

    assert rings._row_scan((10, 10), law) == (0, [])
    assert calls == [(0, 3), (3, 6), (6, 9), (9, 10)]


@pytest.mark.parametrize("entries", [None, 10], ids=["default-tiles", "3x3-tiles"])
def test_transposed_copy_in_square_tiles(entries, monkeypatch):
    """``rings._transposed`` writes square tiles of about ``_BLOCK_ENTRIES``
    entries, partial ones at the edges included: the copy is ``t.T``, in
    the table dtype and C-contiguous, on tables wider or taller than a
    tile."""
    if entries:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(5)
    for shape in [(300, 257), (257, 300), (7, 7), (1, 5)]:
        t = rng.integers(0, 2**16, shape, dtype=np.uint16)
        out = rings._transposed(t)
        assert out.flags.c_contiguous and out.dtype == t.dtype
        assert np.array_equal(out, t.T), shape


def test_first_unseen_takes_the_first_position_per_value():
    flat = np.array([4, 2, 4, 1, 2, 3, 1])
    seen = np.zeros(5, dtype=bool)
    seen[3] = True
    vals, pos = _closure._first_unseen(flat, seen)
    assert vals.tolist() == [1, 2, 4] and pos.tolist() == [3, 1, 0]


@pytest.mark.parametrize("spec", ["mat:2:gauss:3", "mat:2:zmod:7"])
@pytest.mark.parametrize("which", ["add", "mul"])
def test_closure_of_large_table_peaks_under_10_mb(spec, which):
    """The M2(Z3[i]) and M2(Z7) closures (6561 and 2401 elements) gather
    their products one row block at a time and sort nothing of block size:
    under 10 MB under tracemalloc (measured: under 0.4 MB, reading at most
    n * len(gens) products; closing under every product peaked at 7.6 MB
    for the add closures), where sorting each block's fresh positions
    took about 14 MB (add) and whole-grid gathers about 75 MB (mul) and
    100 MB (add) on M2(Z3[i])."""
    ring = parse_ring_spec(spec)
    tracemalloc.start()
    try:
        greedy_closure(getattr(ring, which))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


@settings(max_examples=120)
@given(table=_tables(), data=st.data())
def test_ready_pairs_cover_every_element_generator_pair_once(table, data):
    """On any table, associative or not, and with a drawn priority probed
    first or none: stage p of ``ready_pairs``, three read-only intp arrays,
    holds exactly the pairs (x, g_q), q <= p, with x among the elements
    known after stage p that were not already paired with g_q at an
    earlier stage; it reads no element of a later stage, and its products
    are the table's.  The stages come from the plain-Python oracle
    closure, the products from the table's rows as lists."""
    rows = table.tolist()
    priority = _priority(data.draw, len(rows))
    want = oracles.right_closure(len(rows), lambda a, b: rows[a][b], priority=priority)
    order, gens, starts = want["order"], want["gens"], want["stage_starts"]
    stages = greedy_closure(table, priority).ready_pairs
    assert len(stages) == len(gens)
    seen = []
    for p, (xs, gs, xgs) in enumerate(stages):
        assert xs.dtype == gs.dtype == xgs.dtype == np.intp
        assert not (xs.flags.writeable or gs.flags.writeable or xgs.flags.writeable)
        pairs = list(zip(xs.tolist(), gs.tolist()))
        known = order[:starts[p + 1]]
        older = order[:starts[p]]
        assert sorted(pairs) == sorted(
            [(x, g) for x in known for g in gens[:p] if x not in older]
            + [(x, gens[p]) for x in known])
        assert xgs.tolist() == [rows[x][g] for x, g in pairs]
        seen += pairs
    assert sorted(seen) == sorted((x, g) for x in order for g in gens)


def _stages(gens, order, starts) -> tuple:
    return gens, [sorted(order[a:b]) for a, b in zip(starts, starts[1:])]


def _assert_stages_match_magma_closure(table, priority=()):
    """``gens`` and each stage's element set equal those of the oracle
    closure under every product, both probing ``priority`` first."""
    cl = greedy_closure(table, priority)
    rows = table.tolist()
    want = oracles.greedy_closure(len(rows), lambda a, b: rows[a][b], priority=priority)
    assert _stages(cl.gens, cl.order.tolist(), cl.stage_starts) == _stages(
        want["gens"], want["order"], want["stage_starts"])


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_closure_keeps_the_stages_of_the_magma_closure_on_corpus_tables(spec):
    """On an associative table the subsemigroup a set generates is the set
    of its left-nested words, so closing under right multiplication by the
    generators reaches what closing under every product reaches."""
    ring = parse_ring_spec(spec)
    for table in (ring.add, ring.mul):
        _assert_stages_match_magma_closure(table)


def _full_transformation_monoid(k: int) -> np.ndarray:
    """The composition table of all maps of ``range(k)`` into itself,
    ``(f * g)(i) = g(f(i))``, over the maps in ``itertools.product`` order."""
    maps = list(itertools.product(range(k), repeat=k))
    index = {f: i for i, f in enumerate(maps)}
    return np.array([[index[tuple(g[f[i]] for i in range(k))] for g in maps]
                     for f in maps])


_T3 = _full_transformation_monoid(3)


@settings(max_examples=60)
@given(perm=st.permutations(range(27)))
def test_closure_keeps_the_stages_of_the_magma_closure_on_relabelled_t3(perm):
    """The same on the full transformation monoid T3 (27 elements, not
    commutative) relabelled by a permutation, which changes the order in
    which the closure probes its elements."""
    p = np.array(perm)
    table = np.empty_like(_T3)
    table[p[:, None], p[None, :]] = p[_T3]
    _assert_stages_match_magma_closure(table)


def _closure_fields(cl) -> dict:
    return {"gens": cl.gens, "order": cl.order.tolist(),
            "stage_starts": cl.stage_starts, "round_starts": cl.round_starts,
            "deriv_x": cl.deriv_x.tolist(), "deriv_y": cl.deriv_y.tolist()}


@pytest.mark.parametrize("op", ["mul", "add"])
def test_op_closure_is_built_once_read_only_and_fresh(corpus, op):
    """On every corpus ring, the cached closure of each table is
    one object per ring, its arrays are read-only, and it equals a closure
    built afresh from the table."""
    for spec, ring in corpus["rings"].items():
        cl = rings.op_closure(ring, op)
        assert rings.op_closure(ring, op) is cl, spec
        for arr in (cl.order, cl.deriv_x, cl.deriv_y):
            assert not arr.flags.writeable, spec
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        assert _closure_fields(cl) == _closure_fields(
            greedy_closure(getattr(ring, op))), spec


def test_op_closure_is_kept_per_op_and_priority():
    """On a fresh M2(Z2[i]), the closure probing (e11, e22, i) first is
    built alone and kept under ``("mul", priority)``: one object per key,
    whether the priority comes as ints or as an array, read-only and equal
    to a closure built afresh.  The ascending closure is another entry."""
    ring = MatrixRingView(make_gaussian(2), 2).ring
    assert ring._closures == {}
    priority = (*ring.matrix_view.diagonal_units, ring.i_elem)
    cl = op_closure(ring, "mul", priority)
    assert list(ring._closures) == [("mul", priority)]
    assert op_closure(ring, "mul", np.array(priority)) is cl
    assert cl.gens[:3] == list(priority)
    for arr in (cl.order, cl.deriv_x, cl.deriv_y):
        assert not arr.flags.writeable
    assert _closure_fields(cl) == _closure_fields(greedy_closure(ring.mul, priority))
    ascending = op_closure(ring, "mul")
    assert ascending is not cl and ascending.gens == sorted(ascending.gens)
    assert set(ring._closures) == {("mul", priority), ("mul", ())}


def _mutants(spec: str, count: int):
    """``count`` rings labelled ``spec`` whose mul table differs from the
    spec-built ring's in one product x * g with g a generator of its
    closure (a product the closure reads), built after that closure."""
    ring = parse_ring_spec(spec)
    gens = rings.op_closure(ring, "mul").gens
    rng = np.random.default_rng(ring.size)
    out = []
    for _ in range(count):
        x, y = int(rng.integers(0, ring.size)), gens[int(rng.integers(0, len(gens)))]
        mul = ring.mul.copy()
        mul[x, y] = (int(mul[x, y]) + int(rng.integers(1, ring.size))) % ring.size
        out.append(rings.RingTable(ring.add, mul, ring.zero, ring.one,
                                   star=ring.star, label=ring.label))
    return ring, out


@pytest.mark.parametrize("spec", ["mat:2:zmod:2", "mat:2:zmod:3", "gauss:3"])
def test_op_closure_is_kept_per_ring_object(spec):
    """A single-entry mutant with the label of a corpus ring, built after
    that ring's closure is cached, gets the closure of its own table."""
    ring, mutants = _mutants(spec, 8)
    valid = rings.op_closure(ring, "mul")
    differs = 0
    for m in mutants:
        cl = rings.op_closure(m, "mul")
        assert cl is not valid
        assert _closure_fields(cl) == _closure_fields(greedy_closure(m.mul))
        differs += _closure_fields(cl) != _closure_fields(valid)
    assert differs


def test_warm_closure_cache_gives_cold_results_on_mutants():
    """On single-entry mutants of M2(Z2), a search and the stacked law over
    every function into Z2 give the same results with the mutant's
    closure cached as with an empty cache."""
    z2 = parse_ring_spec("zmod:2")
    imgs, _, _ = function_space_masks(parse_ring_spec("mat:2:zmod:2"), z2, 0, 2**16)

    def outcome(m):
        res = enumerate_multiplicative_maps(m, z2)
        return ([r.img.tolist() for r in res.maps], res.nodes,
                _stacked_law("mul", m, z2, imgs).tolist())

    _, mutants = _mutants("mat:2:zmod:2", 4)
    for m in mutants:
        assert m._closures == {}
        cold = outcome(m)
        assert ("mul", ()) in m._closures
        assert outcome(m) == cold


# sha256 of the JSON list [gens, order, stage_starts, round_starts, deriv_x,
# deriv_y] of each M2(Z7) closure, as oracles.right_closure builds it with
# every product of its rounds read.
_M2Z7_CLOSURES = {
    "add": "7b6e53163edd3076e3951219ef20124be68e0c47be8874a5e1f671cbb2663a16",
    "mul": "a37cc63b9409520d3bdcc37e18468fb959b15080b1f01b86394407fc7cc14552",
}


@pytest.mark.parametrize("op", ["add", "mul"])
def test_closure_reads_no_product_once_complete(op, monkeypatch):
    """The M2(Z7) closures stop once every element is known: no block of
    products reaches ``_first_unseen`` with every element seen, and at most
    n * len(gens) products are read in all, each element times each
    generator at most once.  The closure is the one every read gives."""
    ring = parse_ring_spec("mat:2:zmod:7")
    first_unseen = _closure._first_unseen
    read = []

    def counted(flat, seen):
        assert not seen.all()
        read.append(flat.size)
        return first_unseen(flat, seen)

    monkeypatch.setattr(_closure, "_first_unseen", counted)
    cl = greedy_closure(getattr(ring, op))
    assert sum(read) <= ring.size * len(cl.gens)
    fields = _closure_fields(cl)
    digest = hashlib.sha256(json.dumps([fields[k] for k in (
        "gens", "order", "stage_starts", "round_starts", "deriv_x", "deriv_y")]).encode())
    assert digest.hexdigest() == _M2Z7_CLOSURES[op]


# ---------------------------------------------------------------------------
# The generator law on image arrays


def _assert_generator_law_matches_oracle(table, imgs, gens, label):
    """``_generator_law`` on ``table`` into itself and into its transpose,
    for the stack ``imgs`` and for each of its rows, equals
    ``oracles.generator_law`` on the tables' entries as Python ints."""
    for cod_t in (table, table.T):
        want = [oracles.generator_law(len(table), table.item, cod_t.item,
                                      img.tolist(), list(gens)) for img in imgs]
        assert _generator_law(table, cod_t, imgs, gens).tolist() == want, label
        assert [_generator_law(table, cod_t, img, gens) for img in imgs] == want, label


def _self_maps(ring, rng):
    """The identity, the zero map, the involution (when there is one), the
    identity moved at its last element and a random map of ``ring``."""
    n = ring.size
    moved = np.arange(n)
    moved[-1] = (n - 1 + int(rng.integers(1, n))) % n if n > 1 else 0
    maps = [np.arange(n), np.full(n, ring.zero), moved, rng.integers(0, n, n)]
    if ring.star is not None:
        maps.insert(2, np.asarray(ring.star, dtype=np.int64))
    return np.stack(maps)


@pytest.mark.parametrize("spec", [*CORPUS_SPECS, "mat:2:zmod:7"])
def test_generator_law_matches_oracle_on_spec_rings(spec):
    """Over each closure's generators, and over every element on rings of
    at most 64 elements, with the table and its transpose as codomain: the
    verdicts of ``_generator_law`` on a stack of self-maps and on each map
    alone equal the plain-Python double loop.  The involution passes into
    the transposed product table and the identity into it only on
    commutative rings, so both verdicts occur."""
    ring = parse_ring_spec(spec)
    imgs = _self_maps(ring, np.random.default_rng(ring.size))
    for op in ("mul", "add"):
        table = getattr(ring, op)
        gens_sets = [op_closure(ring, op).gens]
        if ring.size <= 64:
            gens_sets.append(range(ring.size))
        for gens in gens_sets:
            _assert_generator_law_matches_oracle(table, imgs, gens, (spec, op))


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3", "zmod:4", "zmod:5", "gauss:2"])
def test_generator_law_matches_oracle_on_random_mutants(spec):
    """The same comparison on the seeded 1-3-entry mutants of the spec
    ring's tables, over each mutant table's closure generators and over
    every element."""
    ring = parse_ring_spec(spec)
    rng = np.random.default_rng(ring.size)
    for trial, add, mul in random_mutants(ring, [23, ring.size], 12):
        mutant = RingTable(add, mul, ring.zero, ring.one)
        imgs = _self_maps(mutant, rng)
        for table in (mutant.add, mutant.mul):
            for gens in (greedy_closure(table).gens, range(ring.size)):
                _assert_generator_law_matches_oracle(table, imgs, gens, (spec, trial))

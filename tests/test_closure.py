"""The greedy closure against the plain-Python oracle in ``oracles``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import CORPUS_SPECS
from matsemi._closure import greedy_closure
from matsemi.rings import parse_ring_spec

# M2(Z3[i]) has 6561 elements, too many for the plain-Python oracle.
ORACLE_SPECS = [s for s in CORPUS_SPECS if s != "mat:2:gauss:3"]


def _assert_matches_oracle(table, seed):
    cl = greedy_closure(table, seed)
    rows = table.tolist()
    want = oracles.greedy_closure(len(rows), lambda a, b: rows[a][b], seed)
    got = {
        "gens": cl.gens, "order": cl.order.tolist(),
        "stage_starts": cl.stage_starts, "round_starts": cl.round_starts,
        "deriv_x": cl.deriv_x.tolist(), "deriv_y": cl.deriv_y.tolist(),
        "words": cl.words(),
    }
    assert got == want


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_closure_matches_oracle_on_corpus_tables(spec):
    ring = parse_ring_spec(spec)
    for table, identity in ((ring.add, ring.zero), (ring.mul, ring.one)):
        for seed in (None, identity):
            _assert_matches_oracle(table, seed)


@st.composite
def _tables(draw):
    """A corpus add or mul table, a single-entry mutant of one, or a random
    magma, with the element that seeds it when a seed is drawn."""
    kind = draw(st.sampled_from(["corpus", "mutant", "magma"]))
    if kind == "magma":
        n = draw(st.integers(1, 24))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return rng.integers(0, n, size=(n, n)), draw(st.integers(0, n - 1))
    ring = parse_ring_spec(draw(st.sampled_from(ORACLE_SPECS)))
    which = draw(st.sampled_from(["add", "mul"]))
    table = getattr(ring, which).copy()
    n = ring.size
    if kind == "mutant" and n > 1:
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table[x, y] = (int(table[x, y]) + draw(st.integers(1, n - 1))) % n
    return table, ring.zero if which == "add" else ring.one


@settings(max_examples=120)
@given(drawn=_tables(), seeded=st.booleans())
def test_closure_matches_oracle(drawn, seeded):
    """Generators, discovery order, stage and round boundaries, derivations
    and words all equal the oracle's, seeded or not."""
    table, seed = drawn
    _assert_matches_oracle(table, seed if seeded else None)

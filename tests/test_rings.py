"""Ring construction, validation, units, and decomposition tests.

The generator-reduced axiom scans are cross-checked against a raw
triple-loop oracle on every small ring, so the fast path and the
definitional path must agree before anything else is trusted.
"""

import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import CORPUS_SPECS, random_mutants
from matsemi import _closure, rings
from matsemi.errors import (
    MissingInvolution,
    RingSpecError,
    SizeCapExceeded,
)
from matsemi.maps import MapTable
from matsemi.rings import (
    MatrixRingView,
    RingTable,
    make_gaussian,
    make_matrix_ring,
    make_zmod,
    mat_mul,
    mat2_inverse_scan,
    parse_ring_spec,
    sum_of_units_decompose,
    unitaries,
    units,
    validate_matrix_view,
    validate_ring,
)
from matsemi.search import enumerate_multiplicative_maps, monoid_generators
from matsemi.witness import extract_additivity


# ---------------------------------------------------------------------------
# Constructors


def test_zmod_characteristic_two():
    z2 = make_zmod(2)
    assert z2.add[1, 1] == 0


def test_zmod_four_two_squared():
    z4 = make_zmod(4)
    assert z4.mul[2, 2] == 0


def test_zmod_five_imaginary_unit():
    assert make_zmod(5).i_elem == 2


def test_zmod_canonical_indices():
    for n in range(1, 9):
        r = make_zmod(n)
        assert r.zero == 0
        assert r.one == (1 if n > 1 else 0)


def test_gaussian_three_product():
    g3 = make_gaussian(3)
    one_plus_i = 1 + 3 * 1
    one_minus_i = 1 + 3 * 2  # 1 - i = 1 + 2i mod 3
    assert g3.mul[one_plus_i, one_minus_i] == 2


def test_gaussian_two_squared_i():
    g2 = make_gaussian(2)
    one_plus_i = 1 + 2 * 1
    assert g2.mul[one_plus_i, one_plus_i] == 0


def test_gaussian_degenerate():
    g1 = make_gaussian(1)
    assert g1.size == 1
    assert g1.zero == g1.one == 0


def test_gaussian_star_is_conjugation():
    g3 = make_gaussian(3)
    i = g3.i_elem
    assert g3.star[i] == g3.neg[i]


def test_matrix_ring_sizes():
    assert make_matrix_ring(make_zmod(2), 2).ring.size == 16
    assert make_matrix_ring(make_zmod(3), 2).ring.size == 81


def test_matrix_ring_k1_is_isomorphic_copy():
    for base in (make_zmod(4), make_gaussian(3)):
        v = make_matrix_ring(base, 1)
        assert v.ring.size == base.size
        assert (v.ring.zero, v.ring.one, v.ring.i_elem) == (base.zero, base.one, base.i_elem)
        for name in ("add", "mul", "star"):
            assert np.array_equal(getattr(v.ring, name), getattr(base, name)), (base, name)
        assert validate_ring(v.ring).ok and validate_matrix_view(v).ok


@pytest.mark.parametrize("base,k", [(make_zmod(7), 2), (make_zmod(2), 3)],
                         ids=["mat:2:zmod:7", "mat:3:zmod:2"])
def test_matrix_ring_build_peak_memory(base, k):
    """Building the tables allocates at most about 2.5 tables: add, mul and
    the boolean scan for additive inverses, with no n x n temporaries."""
    tracemalloc.start()
    try:
        v = MatrixRingView(base, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * v.ring.add.nbytes


def test_matrix_units_orthogonal():
    v = make_matrix_ring(make_zmod(2), 2)
    e11 = v.matrix_unit(0, 0)
    e22 = v.matrix_unit(1, 1)
    assert v.ring.mul[e11, e22] == v.ring.zero


def test_matrix_size_cap():
    with pytest.raises(SizeCapExceeded):
        make_matrix_ring(make_zmod(2), 2, size_cap=10)


def test_cached_matrix_view_still_checks_size_cap():
    base = make_zmod(3)
    view = make_matrix_ring(base, 2)
    assert make_matrix_ring(base, 2) is view
    with pytest.raises(SizeCapExceeded):
        make_matrix_ring(base, 2, size_cap=10)


def test_one_ring_object_per_spec():
    from matsemi.maps import identity_map, tensor_id

    assert parse_ring_spec("mat:2:zmod:2") is make_matrix_ring(make_zmod(2), 2).ring
    assert parse_ring_spec("zmod:5") is make_zmod(5)
    assert parse_ring_spec("gauss:3") is make_gaussian(3)
    lifted = tensor_id(identity_map(make_gaussian(2)), 2)
    assert lifted.dom is lifted.cod is parse_ring_spec("mat:2:gauss:2")


def test_matrix_product_against_row_column_oracle():
    """One product per ring recomputed by explicit row-by-column sums."""
    for base in (make_zmod(4), make_gaussian(3)):
        v = make_matrix_ring(base, 2)
        x, y = 7 % v.ring.size, 13 % v.ring.size
        X, Y = v.decode(np.asarray(x)), v.decode(np.asarray(y))
        expect = np.empty((2, 2), dtype=np.int64)
        for i in range(2):
            for j in range(2):
                t0 = base.mul[X[i, 0], Y[0, j]]
                t1 = base.mul[X[i, 1], Y[1, j]]
                expect[i, j] = base.add[t0, t1]
        assert int(v.ring.mul[x, y]) == int(v.encode(expect))


def test_matrix_tables_match_oracle_everywhere():
    """All pairs of M_2(Z_3) and M_2(Z_2[i]) against the plain-Python oracle."""
    for base, oracle_base in ((make_zmod(3), oracles.oracle_zmod(3)),
                              (make_gaussian(2), oracles.oracle_gauss(2))):
        v = make_matrix_ring(base, 2)
        o = oracles.oracle_mat2(oracle_base)
        n = o.size
        assert v.ring.size == n
        assert v.ring.mul.tolist() == [[o.mul(x, y) for y in range(n)] for x in range(n)]
        assert v.ring.add.tolist() == [[o.add(x, y) for y in range(n)] for x in range(n)]
        assert (v.ring.zero, v.ring.one, v.ring.i_elem) == (o.zero, o.one, o.i_elem)
        assert v.ring.star.tolist() == [o.star(x) for x in range(n)]


def test_matrix_ring_k3_against_row_column_sums():
    """M_3(Z_2), all pairs: tables and mat_mul against integer row-by-column
    sums reduced mod 2, with row-major base-2 digits."""
    v = make_matrix_ring(make_zmod(2), 3)
    n = 2**9
    mats = (np.arange(n)[:, None] >> np.arange(8, -1, -1)) & 1
    mats = mats.reshape(n, 3, 3)
    place = 2 ** np.arange(8, -1, -1)
    prod = np.einsum("xit,ytj->xyij", mats, mats) % 2
    total = (mats[:, None] + mats[None, :]) % 2
    assert np.array_equal(v.ring.mul, prod.reshape(n, n, 9) @ place)
    assert np.array_equal(v.ring.add, total.reshape(n, n, 9) @ place)
    assert np.array_equal(mat_mul(make_zmod(2), mats[:, None], mats[None, :]), prod)
    assert v.ring.one == int(np.eye(3, dtype=np.int64).reshape(9) @ place)
    assert v.ring.zero == 0
    assert validate_ring(v.ring).ok and validate_matrix_view(v).ok


def _upper_triangular_z2() -> RingTable:
    """T_2(Z_2), the 8 upper-triangular 2x2 matrices [[a, b], [0, d]] over
    Z_2 with index 4a + 2b + d: a noncommutative base ring."""
    a, b, d = (np.arange(8)[:, None] >> np.array([2, 1, 0])).T & 1
    add = np.arange(8)[:, None] ^ np.arange(8)[None, :]
    pa = a[:, None] & a[None, :]
    pb = (a[:, None] & b[None, :]) ^ (b[:, None] & d[None, :])
    pd = d[:, None] & d[None, :]
    return RingTable(add, 4 * pa + 2 * pb + pd, zero=0, one=5, label="t2z2")


def test_matrix_ring_over_noncommutative_base():
    """M_2(T_2(Z_2)) against 4x4 block matrices over Z_2: add on all pairs,
    mul on a fixed sample of 512 rows against every column.  A base ring
    with xy != yx catches a row/column swap in the product."""
    base = _upper_triangular_z2()
    assert validate_ring(base).ok
    assert base.mul[4, 2] != base.mul[2, 4]  # e11 e12 = e12, e12 e11 = 0
    v = MatrixRingView(base, 2)
    n = 8**4
    assert v.ring.size == n
    idx = np.arange(n)
    # Entry bits (a, b, d) are the element's base-2 digits, so addition,
    # entrywise mod 2, is XOR of indices.
    assert np.array_equal(v.ring.add, idx[:, None] ^ idx[None, :])

    bits = (idx[:, None] >> np.arange(11, -1, -1)) & 1  # (n, 12): 4 entries x (a, b, d)
    blocks = np.zeros((n, 2, 2, 2, 2), dtype=np.uint8)  # element, block row/col, row/col
    e = bits.reshape(n, 2, 2, 3)
    blocks[..., 0, 0], blocks[..., 0, 1], blocks[..., 1, 1] = e[..., 0], e[..., 1], e[..., 2]
    full = blocks.transpose(0, 1, 3, 2, 4).reshape(n, 4, 4)
    rows = np.random.default_rng(5).choice(n, size=512, replace=False)
    prod = (full[rows, None] @ full[None]) % 2  # integer 4x4 products
    assert not prod[..., 1::2, 0::2].any()  # stays block upper-triangular
    prod = prod.reshape(512, n, 2, 2, 2, 2).transpose(0, 1, 2, 4, 3, 5)
    entry = 4 * prod[..., 0, 0] + 2 * prod[..., 0, 1] + prod[..., 1, 1]
    want = entry.reshape(512, n, 4).astype(np.int64) @ (8 ** np.arange(3, -1, -1))
    assert np.array_equal(v.ring.mul[rows], want)
    assert validate_matrix_view(v).ok


# One sha256 per matrix ring over the bytes and dtype of ``add``, ``mul``,
# ``neg`` and ``star`` and over (zero, one, i_elem), recorded from the
# tables as they were built one digit position at a time.  Every matrix
# ring with k = 1..3 over zmod:1..8 and gauss:1..3 of at most 7000
# elements, and one over a matrix-ring base.
_TABLE_DIGESTS = {
    "mat:1:zmod:1": "46ca5ca6c36e9392321eed3c3457b50167f3a8f97f7f6ec3da9d7dc8fe121b2a",
    "mat:1:zmod:2": "6c937491c9019aab80237d54a1e4bb6982c50390103740b8cfad4bc2daf6e18b",
    "mat:1:zmod:3": "dd6dbe1115da018e4a5aebf06efec9e12806f1bf05eb06fdff06c9b06780f57e",
    "mat:1:zmod:4": "b408e442523e8c9434bfe666ddeda9b1739ae20a1cb1a5d46093a03db373428d",
    "mat:1:zmod:5": "7ebbab6b1bad7af197b32b2ed3d19d51aa234ab3f156231bcc88a817c7e874e8",
    "mat:1:zmod:6": "bc8b538d2ae53d8b169152922a68059e4ab5bfd9329a6ebf75c4a16a0e05a60a",
    "mat:1:zmod:7": "90e43f0a4086b5ec30ceacc6d6da3b0602784d2683a61095ab5a95198eefb332",
    "mat:1:zmod:8": "19d2947bfb0cc72d54f445900f810936d0d9a4213339d3226ff328cc8a3951fa",
    "mat:1:gauss:1": "46ca5ca6c36e9392321eed3c3457b50167f3a8f97f7f6ec3da9d7dc8fe121b2a",
    "mat:1:gauss:2": "b2714a113db8337eab97f5bb1301d87f7687730ea351e822a7f7bfaa201bd190",
    "mat:1:gauss:3": "e4cb15d6d7917257429e84b4c116208408cc200fd0c7f8a65839f7ad7b666b06",
    "mat:2:zmod:1": "46ca5ca6c36e9392321eed3c3457b50167f3a8f97f7f6ec3da9d7dc8fe121b2a",
    "mat:2:zmod:2": "d1848434700e40dffac29f797f0b46c96310f8316cfd6c30ec5c128b18b1107c",
    "mat:2:zmod:3": "709ecc8cb9ea8052cadb1a1cc1f86574029b3aa4dafbd43c22036cc25050101e",
    "mat:2:zmod:4": "23ff80fff799a21572cc2ba8cfd6c75f009f2909bf1a5aea1fc5e96e1fbc1401",
    "mat:2:zmod:5": "6cdd77274dc330a57cf51273826dc35cda1c7dd3718451a1db7073ad7531b4e5",
    "mat:2:zmod:6": "ede62aab233b1c95512b7c655fa3cffd59226ceffa2a7706b4149559925e9b17",
    "mat:2:zmod:7": "ac0374ef168421f81b5260c916b869f8f1f681bd9643ece38634cccd7ff937fe",
    "mat:2:zmod:8": "88a2d81d4c250045ebc87a2ea9a64197ea303da2a7b68f07d4548cc6a4f1e1ba",
    "mat:2:gauss:1": "46ca5ca6c36e9392321eed3c3457b50167f3a8f97f7f6ec3da9d7dc8fe121b2a",
    "mat:2:gauss:2": "f2016f0b032f21bda97613f88475b833e048914fc6d88b2fc6ab736e8dbf13b4",
    "mat:2:gauss:3": "71309fddfbcd6af7e1133cefbc86ab2965d811a43e290169ea5fa43526131b52",
    "mat:3:zmod:1": "46ca5ca6c36e9392321eed3c3457b50167f3a8f97f7f6ec3da9d7dc8fe121b2a",
    "mat:3:zmod:2": "2070ea2e5f71dbca298f8faed76f99fbbb4c10cbf75a98ab6a587c03a11a33d6",
    "mat:3:gauss:1": "46ca5ca6c36e9392321eed3c3457b50167f3a8f97f7f6ec3da9d7dc8fe121b2a",
    "mat:2:mat:1:zmod:3": "709ecc8cb9ea8052cadb1a1cc1f86574029b3aa4dafbd43c22036cc25050101e",
}


@pytest.mark.parametrize("spec", list(_TABLE_DIGESTS))
def test_matrix_ring_tables_match_pinned_digests(spec):
    """Each view is built afresh (not through the shared cache, so its
    tables are freed after the test) and must reproduce the pinned bytes,
    dtypes and distinguished elements, with every table read-only."""
    _, k, base_spec = spec.split(":", 2)
    ring = MatrixRingView(parse_ring_spec(base_spec), int(k)).ring
    h = hashlib.sha256()
    for name in ("add", "mul", "neg", "star"):
        table = getattr(ring, name)
        assert not table.flags.writeable, name
        h.update(table.dtype.str.encode())
        h.update(table.tobytes())
    h.update(repr((ring.zero, ring.one, ring.i_elem)).encode())
    assert h.hexdigest() == _TABLE_DIGESTS[spec]


def test_matrix_view_checks_dimension_and_table_limit(monkeypatch):
    """``MatrixRingView`` itself refuses k < 1, and dense tables past the
    limit with the message of ``make_matrix_ring``, before it allocates;
    the element cap stays with ``make_matrix_ring``."""
    for k in (0, -1):
        with pytest.raises(ValueError, match="^k must be >= 1$"):
            MatrixRingView(make_zmod(3), k)
    monkeypatch.setattr(rings, "_DENSE_TABLE_ENTRY_LIMIT", 100)
    message = "^matrix ring 'mat:2:zmod:8' needs 4096x4096 tables, beyond the dense-table limit$"
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match=message):
            MatrixRingView(make_zmod(8), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16  # the tables would take 2 x 32 MiB
    with pytest.raises(SizeCapExceeded, match=message):
        make_matrix_ring(make_zmod(8), 2)
    monkeypatch.undo()
    monkeypatch.setenv("MATSEMI_SIZE_CAP", "5")
    assert MatrixRingView(make_zmod(2), 2).ring.size == 16
    with pytest.raises(SizeCapExceeded, match="has 16 elements, cap is 5$"):
        make_matrix_ring(make_zmod(2), 2)
    assert make_matrix_ring(make_zmod(2), 2, size_cap=16).ring.size == 16


_M2Z3 = make_matrix_ring(make_zmod(3), 2)


@pytest.mark.parametrize("mats", [[[5, 0], [0, 0]], [[-1, 0], [0, 0]],
                                  [[1.7, 0], [0, 2]], [[True, False], [False, True]],
                                  [0, 1, 2, 0], [[[0, 1, 2]]]],
                         ids=["too-large", "negative", "float", "bool", "flat", "1x3"])
def test_view_encode_refuses_non_index_matrices(mats):
    with pytest.raises(ValueError, match="^matri"):
        _M2Z3.encode(mats)
    assert _M2Z3.encode([[2, 0], [0, 1]]) == 2 * 27 + 1


@pytest.mark.parametrize("idx", [-1, 81, 1.0, [0, 81], True],
                         ids=["negative", "too-large", "float", "list", "bool"])
def test_view_decode_refuses_non_indices(idx):
    with pytest.raises(ValueError, match="^ring index "):
        _M2Z3.decode(idx)
    assert _M2Z3.decode(80).tolist() == [[2, 2], [2, 2]]


@pytest.mark.parametrize("args", [(0, 1, 7), (0, 1, -1), (0, 1, 1.5), (-1, 0),
                                  (2, 0), (0, 1.0), (True, 0)],
                         ids=["scalar-too-large", "scalar-negative", "scalar-float",
                              "i-negative", "i-too-large", "j-float", "i-bool"])
def test_view_matrix_unit_refuses_non_indices(args):
    with pytest.raises(ValueError, match="^(i|j|scalar) "):
        _M2Z3.matrix_unit(*args)
    assert _M2Z3.matrix_unit(0, 1, 2) == 2 * 9


@pytest.mark.parametrize("s", [-1, 3, 1.0, True, [1, 2]],
                         ids=["negative", "too-large", "float", "bool", "list"])
def test_view_scalar_matrix_refuses_non_indices(s):
    with pytest.raises(ValueError, match="^scalar "):
        _M2Z3.scalar_matrix(s)
    assert _M2Z3.scalar_matrix(2) == 2 * 27 + 2


def test_view_names_matrices_over_a_base_whose_zero_is_not_index_0():
    """Z_3 relabelled so that zero is index 2 and one is index 0: the
    units, the scalar matrices and the view's zero and one equal the
    encoded matrices, the view validates, and the identity's corner
    certificate passes."""
    z3 = make_zmod(3)
    new = np.array([2, 0, 1])  # new index of each element of Z_3
    old = np.argsort(new)
    base = RingTable(new[z3.add[old[:, None], old]], new[z3.mul[old[:, None], old]],
                     zero=2, one=0, star=np.arange(3))
    view = MatrixRingView(base, 2)
    assert view.matrix_unit(0, 1) == view.encode([[2, 0], [2, 2]])
    assert view.matrix_unit(1, 0, 1) == view.encode([[2, 2], [1, 2]])
    assert view.diagonal_units == (view.encode([[0, 2], [2, 2]]),
                                   view.encode([[2, 2], [2, 0]]))
    assert view.scalar_matrix(1) == view.encode([[1, 2], [2, 1]])
    assert view.ring.zero == view.encode(np.full((2, 2), 2))
    assert view.ring.one == view.encode([[0, 2], [2, 0]])
    assert validate_matrix_view(view).ok
    cert = extract_additivity(MapTable(view.ring, view.ring, np.arange(view.ring.size)))
    assert cert.passed and cert.additive_confirmed


# ---------------------------------------------------------------------------
# Spec grammar


@pytest.mark.parametrize("spec,size", [
    ("zmod:6", 6),
    ("gauss:3", 9),
    ("mat:2:zmod:2", 16),
    ("mat:2:gauss:2", 256),
])
def test_parse_ring_spec(spec, size):
    ring = parse_ring_spec(spec)
    assert ring.size == size
    assert ring.label == spec


def test_parse_nested_matrix_spec():
    ring = parse_ring_spec("mat:2:gauss:3")
    assert ring.size == 6561
    assert ring.matrix_view.base.label == "gauss:3"


@pytest.mark.parametrize("bad", ["", "zmod", "zmod:x", "zmod:0", "ring:3",
                                 "mat:2", "mat:0:zmod:2", "mat:x:zmod:2",
                                 "zmod:3_0", "zmod:+3", "zmod: 3", "zmod:\uff13",
                                 "zmod:-3", "gauss:0_3", "gauss:\u00b3",
                                 "mat:2_0:zmod:2", "mat: 2:zmod:2", "mat:+2:zmod:2",
                                 "mat:2: zmod:3", " zmod:3 ", "zmod:3\n", "\tgauss:2",
                                 "mat:2:zmod:3 ", "mat\u00a0:2:zmod:3",
                                 pytest.param("zmod:" + "9" * 5000, id="5000-digits")])
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(RingSpecError):
        parse_ring_spec(bad)


@pytest.mark.parametrize("spec,quoted", [
    ("x" * 78, repr("x" * 78)), ("x" * 79, repr("x" * 79)[:77] + "...")],
    ids=["80-characters", "81-characters"])
def test_spec_errors_quote_at_most_80_characters(spec, quoted):
    """A spec whose repr fits in 80 characters is quoted whole; a longer
    one is cut to 80 characters, ending in three dots."""
    with pytest.raises(RingSpecError) as exc:
        parse_ring_spec(spec)
    assert str(exc.value) == f"unknown ring spec {quoted}"


@pytest.mark.parametrize("spec,error", [
    ("zmod:" + "9" * 4000, RingSpecError),
    ("mat:" + "9" * 4000 + ":zmod:2", RingSpecError),
    ("gauss:" + "9" * 10, RingSpecError),
    ("zmod:" + "0" * 4000 + "99999999", SizeCapExceeded),
    ("mat:100:zmod:100", SizeCapExceeded),
], ids=["long-modulus", "long-dimension", "ten-digit-modulus", "zero-padded",
        "huge-matrix-ring"])
def test_size_errors_stay_short_for_any_spec(spec, error):
    """A modulus or dimension of more than nine significant digits is
    refused before it is converted; the size messages quote the spec cut
    to 80 characters and give a count past 64 bits as a power of two, so
    no message reaches 200 characters or Python's own digit limit."""
    with pytest.raises(error) as exc:
        parse_ring_spec(spec)
    assert len(str(exc.value)) < 200
    assert "4300" not in str(exc.value)


def test_spec_digit_bound_counts_significant_digits():
    """Nine significant digits reach the element cap; leading zeros do not
    count, and a tenth digit is refused whatever the cap."""
    with pytest.raises(SizeCapExceeded, match="^ring 'zmod:999999999' has 999999999 "):
        parse_ring_spec("zmod:999999999")
    assert parse_ring_spec("zmod:" + "0" * 20 + "3") is parse_ring_spec("zmod:3")
    with pytest.raises(RingSpecError, match="has more than 9 digits"):
        parse_ring_spec("zmod:1000000000", size_cap=10**30)


def test_parse_reads_leading_zeros_as_decimal():
    assert parse_ring_spec("zmod:03") is parse_ring_spec("zmod:3")
    assert parse_ring_spec("mat:02:gauss:002") is parse_ring_spec("mat:2:gauss:2")


def test_parse_respects_size_cap():
    with pytest.raises(SizeCapExceeded):
        parse_ring_spec("mat:2:zmod:40", size_cap=100)


def test_dense_table_limit_applies_to_every_spec(monkeypatch):
    """Under a 100-entry table limit, zmod:10 builds while zmod:11, gauss:4
    and mat:2:zmod:2 are refused, also when already built, before any
    table is allocated."""
    parse_ring_spec("gauss:4")
    monkeypatch.setattr(rings, "_DENSE_TABLE_ENTRY_LIMIT", 100)
    assert parse_ring_spec("zmod:10").size == 10
    for spec, n in [("zmod:11", 11), ("gauss:4", 16), ("mat:2:zmod:2", 16)]:
        with pytest.raises(SizeCapExceeded,
                           match=f"needs {n}x{n} tables, beyond the dense-table limit"):
            parse_ring_spec(spec)


def test_matrix_dimension_bounded_by_the_unit_grid():
    """A k x k matrix ring is refused when the k**2 x k**2 grid of
    matrix-unit products (k**4 entries) passes the dense-table limit,
    before anything is allocated.  Over the one-element ring, which passes
    every other limit at any k, that is k = 119; k = 118 passes."""
    z1 = make_zmod(1)
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapExceeded, match="^matrix ring 'mat:119:zmod:1' "
                           "needs a 14161x14161 matrix-unit grid, beyond"):
            make_matrix_ring(z1, 119)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rings._matrix_ring_size(z1, 118) == ("matrix ring 'mat:118:zmod:1'", 1)


def test_public_constructors_check_size_limits(monkeypatch):
    """``make_zmod`` and ``make_gaussian`` refuse, on every call and before
    their cache, a ring over the environment cap or the dense-table limit
    (here patched down), as ``parse_ring_spec`` does; an explicit cap
    still beats the environment and reaches the same shared ring."""
    monkeypatch.setattr(rings, "_DENSE_TABLE_ENTRY_LIMIT", 100)
    assert make_zmod(10) is parse_ring_spec("zmod:10")
    for make, n, message in [(make_zmod, 11, "ring 'zmod:11' needs 11x11 tables"),
                             (make_gaussian, 4, "ring 'gauss:4' needs 16x16 tables")]:
        with pytest.raises(SizeCapExceeded, match=f"^{message}, beyond"):
            make(n)
    monkeypatch.undo()
    monkeypatch.setenv("MATSEMI_SIZE_CAP", "5")
    for make, n, spec, size in [(make_zmod, 7, "zmod:7", 7), (make_gaussian, 3, "gauss:3", 9)]:
        with pytest.raises(SizeCapExceeded,
                           match=f"^ring '{spec}' has {size} elements, cap is 5$"):
            make(n)
        with pytest.raises(SizeCapExceeded, match=f"^ring '{spec}' has {size} elements"):
            parse_ring_spec(spec)
    assert parse_ring_spec("zmod:7", size_cap=10).size == 7
    assert make_zmod(4) is parse_ring_spec("zmod:4")
    assert make_gaussian(2) is parse_ring_spec("gauss:2", size_cap=10)


# ---------------------------------------------------------------------------
# Validation: fast generator scans agree with the definitional triple loop


@pytest.mark.parametrize("spec", ["zmod:1", "zmod:2", "zmod:4", "zmod:6",
                                  "gauss:2", "gauss:3", "mat:2:zmod:2"])
def test_validation_agrees_with_triple_loop_oracle(spec):
    ring = parse_ring_spec(spec)
    assert validate_ring(ring).ok
    if spec.startswith("zmod"):
        oring = oracles.oracle_zmod(int(spec.split(":")[1]))
    elif spec.startswith("gauss"):
        oring = oracles.oracle_gauss(int(spec.split(":")[1]))
    else:
        oring = oracles.oracle_mat2(oracles.oracle_zmod(2))
    assert oracles.ring_axioms_hold(oring)


# sha256 of json.dumps(validate_ring(ring).to_json(), sort_keys=True) for
# each corpus ring and M2(Z7): every check's verdict, count, witness and
# note, and the info block, byte for byte.
_VALIDATION_DIGESTS = {
    "zmod:1": "80bd107a9d6f93c4921539a47c7f7579e8701fdaae9f5b9a031459bff2d54f41",
    "zmod:2": "6f722df8eae70ef6eb1b5a95b56702ff567e345fd4223a61dbe24525da2a4fe1",
    "zmod:3": "7d182b664f29f8764c5c39710a745312976be9d177b0623e9a736020edb3ea55",
    "zmod:4": "9b1ec8b36832576796c21234e56d05475b69147184725604d1e8a4cc7bb64f8a",
    "zmod:5": "99819513e7b74e0572510e4caefa1fa6785333b6968416a32638dd3c69ed116b",
    "zmod:6": "b824da0227e936b46bb24da5db65897f7eebc3cb17f19fdc7976941885642812",
    "zmod:7": "3ac44a17357f80fa18fb6c3b278c9d027db1ac232523aec2c840f73cdf2a6286",
    "zmod:8": "4da54707b39a9371ff32f86ca3714e133b770a54d9a46b0f313b8b093a237fc9",
    "gauss:2": "43f787f20ee82c52fe4bd6cf6e85345e2a21f661f50eaaa7a525efc608b7cc7d",
    "gauss:3": "ab2e9af79b6397bafb69a9cda45a64eb0f3dd5468b8e6fd2d72d27490e96e6bf",
    "mat:2:zmod:2": "7f01c2764d89be45ce86f52d384567fcd8cd3a13840b8fc8b64f6462aa6556f6",
    "mat:2:zmod:3": "c5ddeaf8aab46687293d2d14acd0b60c97e29982e8c912749956756d99180cb0",
    "mat:2:zmod:4": "4b34cf5c8adeb80be752dfd23e7c8e25004300163133cce4c722296eb6afe911",
    "mat:2:gauss:2": "e5a274d6c1c5b3f287f310243a75d8514414a580ae52d8798c53ba3281c9ccd1",
    "mat:2:gauss:3": "0d3e962d41f4f6c9617d4d8e0177a19504cd9db07a1e843638b7d6dc82057d62",
    "mat:2:zmod:7": "740247366b6fe578db300fef8eb9f28d9db5ec39ed88280892a21c65e5f2f94a",
}


@pytest.mark.parametrize("spec", list(_VALIDATION_DIGESTS))
def test_validation_reports_match_pinned_digests(spec):
    report = validate_ring(parse_ring_spec(spec)).to_json()
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == _VALIDATION_DIGESTS[spec]


@pytest.mark.parametrize("bad", [
    {"add": [[0, 257], [1, 0]]},
    {"add": [[0, 1], [1, -256]]},
    {"mul": [[0, 0], [0, 0.7]]},
    {"mul": np.zeros((2, 2), dtype=bool)},
    {"star": np.arange(2) + 256},
], ids=["add-257", "add-minus-256", "mul-float", "mul-bool", "star-256"])
def test_ring_table_rejects_entries_it_cannot_store(bad):
    """An entry outside 0..n-1 or a non-integer table raises, instead of
    being wrapped or truncated into a table that then validates."""
    z2 = make_zmod(2)
    tables = {"add": z2.add, "mul": z2.mul, "star": z2.star}
    tables.update(bad)
    with pytest.raises(ValueError):
        RingTable(tables["add"], tables["mul"], 0, 1, star=tables["star"])


@pytest.mark.parametrize("table", [
    np.array([[0, 2], [1, 0]], dtype=np.uint16),
    np.array([[0, 1], [1, -1]], dtype=np.int8),
], ids=["uint16-holding-n", "int8-holding-minus-1"])
def test_index_array_range_check_by_signedness(table):
    """An unsigned table skips the scan for negatives, which it cannot
    hold, and keeps the one past its end; a signed table keeps both."""
    with pytest.raises(ValueError, match=r"^add entries must lie in 0\.\.1$"):
        rings._index_array("add", table, 2, np.uint8)
    assert rings._index_array("add", table % 2, 2, np.uint8).tolist() == (table % 2).tolist()


def test_only_constructor_rings_skip_the_range_scan_and_are_marked(monkeypatch):
    """The spec constructors build their tables in range and mark them
    associative without scanning them; a matrix ring over a hand-assembled
    base is built without the scan too, but not marked.  Every table given
    to ``RingTable`` is still scanned: an entry past the end or below zero
    raises ValueError."""
    scans = []
    index_array = rings._index_array

    def logged(name, a, n, dt, in_range=False):
        scans.append((name, in_range))
        return index_array(name, a, n, dt, in_range)

    monkeypatch.setattr(rings, "_index_array", logged)
    z3 = rings._zmod.__wrapped__(3)
    m2 = rings.MatrixRingView(z3, 2).ring
    hand = RingTable(z3.add, z3.mul, z3.zero, z3.one, star=z3.star)
    m2_hand = rings.MatrixRingView(hand, 2).ring
    assert [s for s in scans if s[0] in ("add", "mul")] == [
        ("add", True), ("mul", True), ("add", True), ("mul", True),
        ("add", False), ("mul", False), ("add", True), ("mul", True)]
    assert [r._associative for r in (z3, m2, hand, m2_hand)] == [True, True, False, False]
    assert np.array_equal(m2_hand.mul, m2.mul) and np.array_equal(m2_hand.add, m2.add)
    for name, value in (("add", 3), ("mul", -1)):
        tables = {"add": z3.add.astype(np.int64), "mul": z3.mul.astype(np.int64)}
        tables[name][2, 1] = value
        with pytest.raises(ValueError, match=rf"^{name} entries must lie in 0\.\.2$"):
            RingTable(tables["add"], tables["mul"], 0, 1)


@pytest.mark.parametrize("bad,message", [
    ({"one": 1.7}, "^one must hold integer indices"),
    ({"one": True}, "^one must hold integer indices"),
    ({"zero": -1}, r"^zero entries must lie in 0\.\.3$"),
    ({"zero": 5}, r"^zero entries must lie in 0\.\.3$"),
    ({"zero": [0, 1]}, "^zero must be a single index"),
    ({"i_elem": 4}, r"^i_elem entries must lie in 0\.\.3$"),
    ({"i_elem": "3"}, "^i_elem must hold integer indices"),
], ids=["one-float", "one-bool", "zero-negative", "zero-past-end", "zero-array",
        "i-past-end", "i-str"])
def test_ring_table_refuses_identities_that_are_not_indices(bad, message):
    """``zero``, ``one`` and ``i_elem`` are checked as strictly as the
    tables: a float is not truncated, -1 does not index the last element,
    and an index past the end is refused at construction, not when a scan
    reads it."""
    z4 = make_zmod(4)
    elems = {"zero": 0, "one": 1, "i_elem": None, **bad}
    with pytest.raises(ValueError, match=message):
        RingTable(z4.add, z4.mul, elems["zero"], elems["one"], i_elem=elems["i_elem"])
    ring = RingTable(z4.add, z4.mul, np.int64(0), np.uint8(1), i_elem=np.int32(3))
    assert (ring.zero, ring.one, ring.i_elem) == (0, 1, 3)
    assert all(type(v) is int for v in (ring.zero, ring.one, ring.i_elem))


def test_validation_catches_broken_associativity():
    z4 = make_zmod(4)
    mul = z4.mul.copy()
    mul[2, 3] = 1  # break (2*3) while leaving identities intact
    from matsemi.rings import RingTable

    broken = RingTable(z4.add, mul, 0, 1, label="broken")
    val = validate_ring(broken)
    assert not val.ok


def test_validation_catches_broken_distributivity():
    """Broken additions fail validation, and each translation check reports
    exactly whether its law holds on the instances it certifies: zmod:5
    with add[2, 3] = 1 keeps its multiplication, so multiplicative
    associativity passes although the cube's prerequisites fail."""
    for n, (x, y, new) in ((4, (2, 3, 2)), (5, (2, 3, 1))):
        ring = make_zmod(n)
        add = ring.add.copy()
        add[x, y] = new
        val = validate_ring(RingTable(add, ring.mul, 0, 1, label="broken-add"))
        assert not val.ok
        for name in ("add_associative", "left_distributive",
                     "right_distributive", "mul_associative"):
            kind = "multiplicative" if name == "mul_associative" else "additive"
            assert val.checks[name].passed == _certified_law_holds(
                name, add, ring.mul, val.info[f"{kind}_generators"]), (n, name)
        assert val.checks["mul_associative"].passed, n


def _is_violation(name: str, w: tuple, ring: RingTable, add, mul) -> bool:
    """Whether witness ``w`` of check ``name`` breaks that law in the
    tables (nested lists), read from the law's definition."""
    zero, one = ring.zero, ring.one
    if name == "add_commutative":
        x, y = w
        return add[x][y] != add[y][x]
    if name == "add_identity":
        x = w[1]
        return add[zero][x] != x or add[x][zero] != x
    if name == "add_inverses":
        (x,) = w
        return not any(add[x][y] == zero and add[y][x] == zero
                       for y in range(ring.size))
    if name == "add_associative":
        x, s, y = w
        return add[add[x][s]][y] != add[x][add[s][y]]
    if name == "mul_identity":
        x = w[1]
        return mul[one][x] != x or mul[x][one] != x
    if name == "zero_absorbs":
        x = w[1]
        return mul[zero][x] != zero or mul[x][zero] != zero
    if name == "left_distributive":
        x, y, s = w
        return mul[x][add[y][s]] != add[mul[x][y]][mul[x][s]]
    if name == "right_distributive":
        y, s, x = w
        return mul[add[y][s]][x] != add[mul[y][x]][mul[s][x]]
    if name == "mul_associative":
        x, s, y = w
        return mul[mul[x][s]][y] != mul[x][mul[s][y]]
    raise AssertionError(f"no definition for check {name}")


@pytest.mark.parametrize("spec", ["zmod:%d" % n for n in range(2, 9)]
                         + ["gauss:2", "gauss:3", "mat:2:zmod:2"])
def test_validation_against_oracle_on_single_entry_mutants(spec):
    """Every single-entry change of the add or mul table (to the next value
    and to one seeded random other value): ``validate_ring`` fails exactly
    when the triple-loop oracle does, and each failed check's witness
    breaks its law.  The mutants carry no involution or imaginary unit,
    which the oracle does not check."""
    ring = parse_ring_spec(spec)
    n = ring.size
    rng = np.random.default_rng(n)
    mutants = 0
    for which in ("add", "mul"):
        for x in range(n):
            for y in range(n):
                old = int(getattr(ring, which)[x, y])
                for new in {(old + 1) % n, (old + 1 + int(rng.integers(n - 1))) % n}:
                    tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
                    tables[which][x, y] = new
                    add, mul = tables["add"].tolist(), tables["mul"].tolist()
                    mutant = RingTable(tables["add"], tables["mul"],
                                       ring.zero, ring.one)
                    val = validate_ring(mutant)
                    oring = oracles.OracleRing(
                        n, lambda a, b: add[a][b], lambda a, b: mul[a][b],
                        ring.zero, ring.one)
                    assert val.ok == oracles.ring_axioms_hold(oring), (which, x, y, new)
                    for c in val.failed():
                        if c.witness is not None:
                            assert _is_violation(c.name, c.witness, mutant,
                                                 add, mul), (which, x, y, new, c)
                    mutants += 1
    assert mutants >= 2 * n * n


@pytest.mark.parametrize("spec", ["zmod:%d" % n for n in range(2, 9)]
                         + ["gauss:2", "gauss:3", "mat:2:zmod:2"])
def test_validation_on_single_entry_mutants_in_three_row_blocks(spec, monkeypatch):
    """The mutation suite again with the dense scans cut into blocks of
    three rows, so every ring spans several blocks."""
    monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", 3 * parse_ring_spec(spec).size)
    test_validation_against_oracle_on_single_entry_mutants(spec)


def _certified_law_holds(name: str, add, mul, gens) -> bool:
    """Whether the law of translation check ``name`` holds on every
    instance the check certifies: all x, y with s in ``gens``."""
    n = len(add)
    x, y = np.ix_(range(n), range(n))
    laws = {
        "add_associative": lambda s: add[add[x, s], y] == add[x, add[s, y]],
        "left_distributive": lambda s: mul[x, add[y, s]] == add[mul[x, y], mul[x, s]],
        "right_distributive": lambda s: mul[add[y, s], x] == add[mul[y, x], mul[s, x]],
        "mul_associative": lambda s: mul[mul[x, s], y] == mul[x, mul[s, y]],
    }
    return all(laws[name](s).all() for s in gens)


@pytest.mark.parametrize("spec", ["zmod:%d" % n for n in range(2, 9)]
                         + ["gauss:2", "gauss:3", "mat:2:zmod:2"])
def test_reduced_checks_on_one_sided_tables(spec):
    """Tables x*y = f(x)h(y) over a ring keep its additive group, and are
    left distributive when h = id.  The seeded f and h are pinned so that
    the reduced checks can pass where the full laws fail: f fixes the
    additive generators and their pairwise sums, or h sends the generators
    to zero.  Each translation check passes exactly when its law holds on
    every instance it certifies, and each witness breaks its law."""
    ring = parse_ring_spec(spec)
    n = ring.size
    rng = np.random.default_rng(100 + n)
    gens = np.asarray(validate_ring(ring).info["additive_generators"])
    sums = ring.add[gens[:, None], gens[None, :]]
    for trial in range(40):
        f = rng.integers(0, n, n)
        h = np.arange(n) if trial % 2 == 0 else rng.integers(0, n, n)
        f[ring.zero] = h[ring.zero] = ring.zero
        if trial % 4 < 2:
            f[gens], f[sums] = gens, sums
        else:
            h[gens] = ring.zero
        mul = ring.mul[f[:, None], h[None, :]]
        val = validate_ring(RingTable(ring.add, mul, ring.zero, ring.one))
        assert val.info["mul_assoc_strategy"] == "generator translation scan"
        for name in ("add_associative", "left_distributive",
                     "right_distributive", "mul_associative"):
            kind = "multiplicative" if name == "mul_associative" else "additive"
            check = val.checks[name]
            assert check.passed == _certified_law_holds(
                name, ring.add, mul, val.info[f"{kind}_generators"]), (trial, name)
            if not check.passed:
                assert _is_violation(name, check.witness, ring,
                                     ring.add.tolist(), mul.tolist()), (trial, check)


@pytest.mark.parametrize("spec", CORPUS_SPECS)
def test_validation_generators_are_the_closure_generators_but_the_identity(corpus, spec):
    """On every corpus ring, ``validate_ring`` scans the generators of the
    ring's cached closures with the identity left out.  Where the
    plain-Python oracle is fast enough, these are the generators of the
    closure started from the identity."""
    ring = corpus["rings"][spec]
    info = validate_ring(ring).info
    for op, identity in (("add", ring.zero), ("mul", ring.one)):
        kind = "additive" if op == "add" else "multiplicative"
        gens = [g for g in rings.op_closure(ring, op).gens if g != identity]
        assert info[f"{kind}_generators"] == gens, (spec, op)
        if spec != "mat:2:gauss:3":
            rows = getattr(ring, op).tolist()
            want = oracles.greedy_closure(ring.size, lambda a, b: rows[a][b], identity)
            assert gens == want["gens"], (spec, op)


def test_search_after_validation_builds_no_closure(monkeypatch):
    """``validate_ring`` builds the two closures of a fresh ring; the
    generating sets and a search on that ring then build none."""
    calls = []
    build = rings.greedy_closure
    monkeypatch.setattr(rings, "greedy_closure",
                        lambda t, *priority: calls.append(t) or build(t, *priority))
    m2z2 = parse_ring_spec("mat:2:zmod:2")
    ring = RingTable(m2z2.add, m2z2.mul, m2z2.zero, m2z2.one, star=m2z2.star)
    validate_ring(ring)
    assert len(calls) == 2
    monoid_generators(ring)
    assert enumerate_multiplicative_maps(ring, parse_ring_spec("zmod:2")).maps
    assert len(calls) == 2


def test_mul_associativity_scans_the_identity_when_its_law_fails():
    """Z3 with mul = [[0,0,0],[0,2,2],[0,2,0]] is not associative and 1 is
    no identity of it.  Generators taken without 1 ([0, 2]) passed the
    translation scan; 1 is a generator of the closure and is scanned."""
    z3 = parse_ring_spec("zmod:3")
    mul = [[0, 0, 0], [0, 2, 2], [0, 2, 0]]
    val = validate_ring(RingTable(z3.add, mul, z3.zero, z3.one))
    assert not val.checks["mul_identity"].passed
    assert val.info["multiplicative_generators"] == [0, 1]
    check = val.checks["mul_associative"]
    assert not check.passed
    x, s, y = check.witness
    assert mul[mul[x][s]][y] != mul[x][mul[s][y]]


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3", "zmod:4", "zmod:5", "gauss:2"])
def test_associativity_checks_are_exact_on_random_mutants(spec):
    """200 mutants with one to three add or mul entries changed: each
    associativity check passes exactly when its law holds on all triples,
    whether or not the identity laws hold."""
    ring = parse_ring_spec(spec)
    n = ring.size
    for trial, add, mul in random_mutants(ring, [7, n], 200):
        val = validate_ring(RingTable(add, mul, ring.zero, ring.one))
        for name in ("add_associative", "mul_associative"):
            assert val.checks[name].passed == _certified_law_holds(
                name, add, mul, range(n)), (trial, name)


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3", "zmod:4", "zmod:5", "gauss:2"])
def test_distributivity_checks_are_exact_on_random_mutants(spec):
    """1000 mutants with one to three add or mul entries changed: each
    distributivity check passes exactly when its law holds on all triples,
    and its witness breaks the law.  Where addition fails its
    associativity scan, every element is scanned (n^3 instances)."""
    ring = parse_ring_spec(spec)
    n = ring.size
    scanned_all = 0
    for trial, add, mul in random_mutants(ring, [5, n], 1000):
        val = validate_ring(RingTable(add, mul, ring.zero, ring.one))
        add_assoc = val.checks["add_associative"].passed
        scanned_all += not add_assoc
        for name in ("left_distributive", "right_distributive"):
            check = val.checks[name]
            assert check.passed == _certified_law_holds(name, add, mul, range(n)), (
                trial, name)
            if not check.passed:
                assert _is_violation(name, check.witness, ring,
                                     add.tolist(), mul.tolist()), (trial, check)
            if not add_assoc:
                assert check.checked == n**3, (trial, name)
    assert scanned_all


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-blocks", "3-row-blocks"])
@pytest.mark.parametrize("spec", ["gauss:2", "gauss:3", "mat:2:gauss:2"])
def test_star_checks_on_swapped_star_tables(spec, block_rows, monkeypatch):
    """The involution as built, the identity, two of its entries swapped,
    1* swapped with another element (breaking ``star_fixes_one``), or an
    add entry changed (breaking additive associativity), as built or
    swapped: the star additivity and antimultiplicativity checks pass
    exactly when their laws hold on all pairs, and report the first
    violating pair in row-major order."""
    ring = parse_ring_spec(spec)
    n = ring.size
    if block_rows:
        monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * n)
    rng = np.random.default_rng(n)
    x, y = np.ix_(range(n), range(n))

    def swapped(a, b):
        star = ring.star.copy()
        star[[a, b]] = star[[b, a]]
        return star

    cases = [(ring.add, ring.star), (ring.add, np.arange(n))]
    cases += [(ring.add, swapped(*rng.choice(n, 2, replace=False))) for _ in range(20)]
    others = np.delete(np.arange(n), ring.one)
    cases += [(ring.add, swapped(ring.one, b))
              for b in rng.choice(others, min(5, others.size), replace=False)]
    for star in (ring.star, swapped(*rng.choice(n, 2, replace=False))):
        add = ring.add.copy()
        a, b = rng.choice(n, 2)
        add[a, b] = (int(add[a, b]) + int(rng.integers(1, n))) % n
        cases.append((add, star))
    fixes_one = add_assoc = 0
    for trial, (add, star) in enumerate(cases):
        val = validate_ring(RingTable(add, ring.mul, ring.zero, ring.one, star=star))
        fixes_one += val.checks["star_fixes_one"].passed
        add_assoc += val.checks["add_associative"].passed
        laws = {"star_additive": star[add] == add[star[x], star[y]],
                "star_antimultiplicative": star[ring.mul] == ring.mul[star[y], star[x]]}
        for name, holds in laws.items():
            check = val.checks[name]
            assert check.passed == holds.all(), (trial, name)
            assert check.checked == n * n
            if not check.passed:
                assert check.witness == tuple(np.argwhere(~holds)[0].tolist()), (trial, name)
    assert fixes_one < len(cases) and add_assoc < len(cases)


def test_validation_peak_memory():
    """validate_ring on M_2(Z_7) peaks at 5 bytes per pair or less
    (measured: 4.4): the dense scans run in row blocks beside at most one
    transposed table, and the closures sort nothing of block size."""
    ring = make_matrix_ring(make_zmod(7), 2).ring
    tracemalloc.start()
    try:
        assert validate_ring(ring).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * ring.size ** 2


def test_add_inverses_accepts_any_two_sided_inverse():
    """zmod:3 with add[2, 0] = 0: the first zero of row 2 is at 0, which is
    not a two-sided inverse, but 1 is, so 2 is no ``add_inverses`` witness.
    The table still fails, on commutativity and the identity."""
    z3 = make_zmod(3)
    add = z3.add.copy()
    add[2, 0] = 0
    broken = RingTable(add, z3.mul, 0, 1)
    assert int(broken.neg[2]) == 0
    val = validate_ring(broken)
    assert val.checks["add_inverses"].passed
    assert val.checks["add_inverses"].witness is None
    assert not val.ok
    assert not val.checks["add_identity"].passed
    add = z3.add.copy()
    add[2, 1] = 2  # 1 and 2 lose each other, their only inverses
    val = validate_ring(RingTable(add, z3.mul, 0, 1))
    assert val.checks["add_inverses"].witness == (1,)


def _inverse_tables():
    """``(add, mul, zero, one)``: corpus rings, a hand-made table whose row 1
    has a one-sided first right inverse (2) and a later two-sided one (3),
    and random tables dense in the identity."""
    for spec in ("zmod:1", "zmod:6", "gauss:3", "mat:2:zmod:2", "mat:2:zmod:3"):
        ring = parse_ring_spec(spec)
        yield ring.add, ring.mul, ring.zero, ring.one
    hand = np.array([[0, 1, 2, 3], [1, 2, 0, 0], [2, 3, 1, 0], [3, 0, 1, 2]])
    yield hand, hand, 0, 0
    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        e = int(rng.integers(0, n))
        a, m = (np.where(rng.random((n, n)) < 0.3, e, rng.integers(0, n, (n, n)))
                for _ in range(2))
        yield a, m, e, e


@pytest.mark.parametrize("block_rows", [None, 3], ids=["default-block", "3-row-block"])
def test_inverses_match_two_sided_oracle(block_rows, monkeypatch):
    """``neg`` (the first right inverse per row), ``units`` and the
    ``add_inverses`` check equal a plain-Python inverse search, also where
    a row's first right inverse is one-sided and a later one two-sided."""
    later_two_sided = 0
    for add, mul, zero, one in _inverse_tables():
        n = len(add)
        if block_rows is not None:
            monkeypatch.setattr(_closure, "_BLOCK_ENTRIES", block_rows * n)
        ring = RingTable(add, mul, zero, one)
        al, ml = add.tolist(), mul.tolist()
        first, add_two = oracles.inverses(n, lambda a, b: al[a][b], zero)
        _, mul_two = oracles.inverses(n, lambda a, b: ml[a][b], one)
        assert ring.neg.tolist() == first
        assert units(ring).tolist() == [x for x in range(n) if mul_two[x]]
        check = validate_ring(ring).checks["add_inverses"]
        lacking = [x for x in range(n) if not add_two[x]]
        assert (check.passed, check.witness) == (
            not lacking, (lacking[0],) if lacking else None)
        later_two_sided += sum(al[first[x]][x] != zero and add_two[x] for x in range(n))
    assert later_two_sided


def test_units_scan_in_bounded_memory():
    """units on M2(Z7) (2401 elements) peaks at half a byte per element
    pair or less: the inverse search runs in row blocks."""
    m = make_matrix_ring(make_zmod(7), 2).ring
    ring = RingTable(m.add, m.mul, m.zero, m.one)
    tracemalloc.start()
    try:
        us = units(ring)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert us.size == 2016
    assert peak <= 0.5 * ring.size ** 2


def test_degenerate_ring_vacuously_valid():
    z1 = make_zmod(1)
    val = validate_ring(z1)
    assert val.ok
    assert z1.zero == z1.one == 0


def test_star_i_compatibility_reported_not_gating():
    z5 = make_zmod(5)
    val = validate_ring(z5)
    assert val.ok
    assert val.info["star_negates_i"] is False
    g3 = make_gaussian(3)
    assert validate_ring(g3).info["star_negates_i"] is True


def test_matrix_view_scans():
    for base in (make_zmod(2), make_zmod(3), make_gaussian(2)):
        view = make_matrix_ring(base, 2)
        assert validate_matrix_view(view).ok


@pytest.mark.parametrize("spec,digest", [
    ("mat:2:zmod:2", "a27799b5119f51c9078512f3958de2408038deaa7b53922799a9a8ad098957ca"),
    ("mat:2:zmod:3", "80b3ffbb3934f475f10aced7a379fb309bc0b4c40d9a4e82e8116a0f7f49b156"),
    ("mat:2:zmod:4", "29f43300ff93aed55dc9dc00f20a841f7ca5b59ee1402083e0f6851a2e5e4633"),
    ("mat:2:gauss:2", "f9dc9e9e92126fd1d38d51de71064da7d01a7958e718570f3c0673cf9800ea0e"),
    ("mat:2:gauss:3", "9c725e8730f1ed288fe1b8fefe1dd0829f5e92ffad3e3c355202996669c1d579"),
    ("mat:8:zmod:1", "2f74b22234fe31a9006006867f268eec9a3e83d908c437178f05b46b9d05b13f"),
    ("mat:30:zmod:1", "bc7535ded07cb57703bebc0ada445ed438a7c895d0ae9bea5cc7e974720436ae"),
])
def test_matrix_view_reports_pinned(spec, digest):
    """The json of ``validate_matrix_view`` is pinned byte for byte on the
    corpus matrix rings and on k x k matrices over the zero ring."""
    rep = validate_matrix_view(parse_ring_spec(spec).matrix_view).to_json()
    assert hashlib.sha256(json.dumps(rep).encode()).hexdigest() == digest


def _matrix_unit_relations_by_loop(view):
    """``(ok, checked, witness)`` of e_ij e_kl = delta_jk e_il by a loop
    over (i, j, k, l); the witness is the last failing pair."""
    k, ring = view.k, view.ring
    eu = [[view.matrix_unit(i, j) for j in range(k)] for i in range(k)]
    ok, wit, pairs = True, None, 0
    for i, j, kk, ll in itertools.product(range(k), repeat=4):
        pairs += 1
        want = eu[i][ll] if j == kk else ring.zero
        if int(ring.mul[eu[i][j], eu[kk][ll]]) != want:
            ok, wit = False, (eu[i][j], eu[kk][ll])
    return ok, pairs, wit


@pytest.mark.parametrize("spec,k", [("zmod:2", 2), ("zmod:3", 2),
                                    ("gauss:2", 2), ("zmod:2", 3)])
def test_matrix_unit_relations_match_the_loop_on_corrupted_views(spec, k):
    """On a valid view and on views whose product table has one to three
    entries at matrix-unit products changed, the row-blocked check gives
    the loop's verdict, count and witness."""
    view = MatrixRingView(parse_ring_spec(spec), k)
    ring = view.ring
    units_ = [view.matrix_unit(i, j) for i in range(k) for j in range(k)]
    rng = np.random.default_rng(k * ring.size)
    for trial in range(12):
        mul = ring.mul.copy()
        for _ in range(int(rng.integers(1, 4)) if trial else 0):
            a, b = (units_[int(x)] for x in rng.integers(0, len(units_), 2))
            mul[a, b] = (int(mul[a, b]) + int(rng.integers(1, ring.size))) % ring.size
        view.ring = RingTable(ring.add, mul, ring.zero, ring.one, star=ring.star,
                              label=ring.label)
        got = validate_matrix_view(view).checks["matrix_unit_relations"]
        ok, checked, wit = _matrix_unit_relations_by_loop(view)
        assert (got.passed, got.checked, got.witness) == (ok, checked, wit), trial
        assert ok == (trial == 0), trial


# ---------------------------------------------------------------------------
# Units / unitaries


def test_units_zmod4():
    assert list(units(make_zmod(4))) == [1, 3]


def test_units_m2z2_count():
    m = make_matrix_ring(make_zmod(2), 2)
    us = units(m.ring)
    assert len(us) == 6
    # closure under product and inverse
    prods = m.ring.mul[np.ix_(us, us)]
    assert set(int(p) for p in prods.ravel()) <= set(int(u) for u in us)


def test_units_degenerate():
    assert list(units(make_zmod(1))) == [0]


def test_unitaries_subset_of_units():
    for ring in (make_gaussian(3), make_matrix_ring(make_gaussian(2), 2).ring):
        us = set(int(u) for u in units(ring))
        for u in unitaries(ring):
            assert int(u) in us


def test_unitaries_gauss3_contains_i():
    g3 = make_gaussian(3)
    assert g3.i_elem in set(int(u) for u in unitaries(g3))


def test_unitaries_zmod2():
    assert list(unitaries(make_zmod(2))) == [1]


def test_unitaries_need_star():
    g3 = make_gaussian(3)
    from matsemi.rings import RingTable

    bare = RingTable(g3.add, g3.mul, g3.zero, g3.one, label="bare")
    with pytest.raises(MissingInvolution):
        unitaries(bare)


def test_star_maps_units_bijectively():
    for ring in (make_zmod(4), make_gaussian(3),
                 make_matrix_ring(make_zmod(2), 2).ring):
        us = units(ring)
        starred = sorted(int(ring.star[u]) for u in us)
        assert starred == [int(u) for u in us]


# ---------------------------------------------------------------------------
# Sum-of-units decomposition


def test_decompose_zero_in_z2():
    assert sum_of_units_decompose(make_zmod(2), 0, 2) == [1, 1]


def test_decompose_two_in_z4():
    assert sum_of_units_decompose(make_zmod(4), 2, 2) == [1, 1]


def test_decompose_e11_in_m2z2():
    m = make_matrix_ring(make_zmod(2), 2)
    out = sum_of_units_decompose(m.ring, m.matrix_unit(0, 0), 2)
    assert out is not None and len(out) == 2
    assert all(int(u) in set(int(x) for x in units(m.ring)) for u in out)
    assert int(m.ring.add[out[0], out[1]]) == m.matrix_unit(0, 0)


def test_decompose_matches_shortest_oracle():
    g3 = make_gaussian(3)
    o = oracles.oracle_gauss(3)
    pool = [int(u) for u in units(g3)]
    for x in range(9):
        got = sum_of_units_decompose(g3, x, 4)
        want = oracles.shortest_unit_sum(o, pool, x, 4)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)


def test_decompose_none_when_unreachable():
    z4 = make_zmod(4)
    assert sum_of_units_decompose(z4, 1, 1) == [1]
    # 0 needs two units in Z4 (1+3); kmax=1 cannot reach it
    assert sum_of_units_decompose(z4, 0, 1) is None


@pytest.mark.parametrize("x", [-1, 5, 2.0, True, np.array([2]), "2"],
                         ids=["negative", "past-the-end", "float", "bool", "array", "str"])
def test_decompose_refuses_what_is_not_an_element_index(x):
    """On Z5, -1 returned [-1] and 5 or 2.0 raised IndexError: x is read
    through ``rings._index``, like a ring's identities."""
    with pytest.raises(ValueError):
        sum_of_units_decompose(make_zmod(5), x, 2)
    assert sum_of_units_decompose(make_zmod(5), np.int64(2), 2) == [2]


def test_decompose_unitaries_mode():
    g3 = make_gaussian(3)
    for x in range(9):
        out = sum_of_units_decompose(g3, x, 4, mode="unitaries")
        assert out is not None
        pool = set(int(u) for u in unitaries(g3))
        assert all(int(u) in pool for u in out)


# ---------------------------------------------------------------------------
# Matrix arithmetic helpers


def test_mat_mul_matches_ring_table():
    """Batched products re-encoded against the oracle M_2(Z_3) table."""
    base = make_zmod(3)
    v = make_matrix_ring(base, 2)
    o = oracles.oracle_mat2(oracles.oracle_zmod(3))
    rng = np.random.default_rng(7)
    xs = rng.integers(0, 81, size=12)
    ys = rng.integers(0, 81, size=12)
    got = v.encode(mat_mul(base, v.decode(xs), v.decode(ys)))
    assert list(got) == [o.mul(int(x), int(y)) for x, y in zip(xs, ys)]


def test_mat2_inverse_scan_finds_inverse():
    z3 = make_zmod(3)
    m = np.array([[1, 1], [0, 1]])
    inv = mat2_inverse_scan(z3, m)
    assert inv is not None
    assert np.array_equal(mat_mul(z3, m, inv), np.array([[1, 0], [0, 1]]))


def test_mat2_inverse_scan_rejects_singular():
    z3 = make_zmod(3)
    assert mat2_inverse_scan(z3, np.array([[1, 1], [1, 1]])) is None


def _all_mat2(n: int) -> np.ndarray:
    """Every 2x2 matrix over an n-element ring, in index order."""
    return np.array(list(itertools.product(range(n), repeat=4))).reshape(-1, 2, 2)


def _as_tuples(m):
    return None if m is None else tuple(tuple(int(e) for e in row) for row in m)


@pytest.mark.parametrize("spec", ["zmod:2", "zmod:3", "zmod:4", "gauss:2"])
def test_mat2_inverse_scan_matches_oracle_on_every_matrix(spec):
    """On every 2x2 matrix, the row-by-row scan returns the first two-sided
    inverse of the plain-Python scan over all |R|**4 candidates."""
    ring = parse_ring_spec(spec)
    kind, n = spec.split(":")
    oring = (oracles.oracle_zmod if kind == "zmod" else oracles.oracle_gauss)(int(n))
    for m in _all_mat2(ring.size):
        assert _as_tuples(mat2_inverse_scan(ring, m)) == oracles.mat2_inverse(
            oring, _as_tuples(m)), m.tolist()


@pytest.mark.parametrize("spec,sample", [("zmod:3", None), ("zmod:4", 12),
                                         ("gauss:2", 12)])
def test_mat2_inverse_scan_matches_oracle_on_single_entry_mutants(spec, sample):
    """On every single-entry add and mul mutant (each entry to the next
    value), the scan equals the oracle on every matrix (zmod:3) or on a
    seeded sample of them.  The corpus includes matrices whose left
    inverses are not unique, and left inverses that are not two-sided."""
    ring = parse_ring_spec(spec)
    n = ring.size
    mats = _all_mat2(n)
    eye = np.array([[ring.one, ring.zero], [ring.zero, ring.one]])
    rng = np.random.default_rng(n)
    several_left = one_sided_left = 0
    for which in ("add", "mul"):
        for x in range(n):
            for y in range(n):
                tables = {"add": ring.add.copy(), "mul": ring.mul.copy()}
                tables[which][x, y] = (int(tables[which][x, y]) + 1) % n
                mutant = RingTable(tables["add"], tables["mul"], ring.zero, ring.one)
                add, mul = tables["add"].tolist(), tables["mul"].tolist()
                oring = oracles.OracleRing(n, lambda a, b: add[a][b],
                                           lambda a, b: mul[a][b], ring.zero, ring.one)
                picked = mats if sample is None else mats[rng.choice(len(mats), sample)]
                for m in picked:
                    assert _as_tuples(mat2_inverse_scan(mutant, m)) == oracles.mat2_inverse(
                        oring, _as_tuples(m)), (which, x, y, m.tolist())
                    left = (mat_mul(mutant, mats, m) == eye).all(axis=(1, 2))
                    right = (mat_mul(mutant, m, mats) == eye).all(axis=(1, 2))
                    several_left += int(left.sum()) > 1
                    one_sided_left += bool((left & ~right).any())
    assert several_left and one_sided_left


def test_mat2_inverse_scan_runs_in_row_memory():
    """A scan over Z_31 (923 521 candidates) decides the 961 candidate rows
    and peaks under 1 MB; a candidate array alone would take 29 MB."""
    ring = parse_ring_spec("zmod:31")
    for m, want in [([[2, 3], [5, 7]], [[24, 3], [5, 29]]), ([[2, 4], [1, 2]], None)]:
        tracemalloc.start()
        try:
            inv = mat2_inverse_scan(ring, np.array(m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (None if inv is None else inv.tolist()) == want
        assert peak < 2**20


@pytest.mark.parametrize("m", [[[-1, 0], [0, 1]], [[3, 0], [0, 1]], [[1.0, 0], [0, 1]],
                               [[1, 0, 0], [0, 1, 0], [0, 0, 1]]],
                         ids=["negative", "too-large", "float", "3x3"])
def test_mat2_inverse_scan_rejects_non_index_matrices(m):
    """``M`` must be a 2x2 matrix of element indices: a negative entry no
    longer wraps around, and one past the ring no longer ends in an
    IndexError."""
    with pytest.raises(ValueError, match="^M "):
        mat2_inverse_scan(make_zmod(3), np.array(m))

"""Finite rings as dense Cayley tables, and their k x k matrix rings.

Elements of a ring are the indices ``0 .. size-1``; the additive and
multiplicative structure is carried by two ``size x size`` index tables.
Constructors arrange ``zero`` at index 0 and, where the encoding permits,
``one`` at index 1 (matrix rings keep the row-major entry encoding instead,
so their identity sits wherever that encoding puts it).  A table entry
outside ``0..size-1`` is refused when the ring is built; the spec
constructors build their tables in range and skip that scan, and mark
both tables associative by construction (``_built_ring``).

A matrix ring's tables are built without n x n gathers, and each is
written once (``_place_table``): by halves over its digits, the table over
the high half scaled by the place of the low half plus the table over the
low half, in one broadcast add.  The sum table is built so from the base
addition over the k*k entry digits; the product table from the
|base|**k x n table of each row times each matrix over the k row digits
of X, which comes from one |base|**k x |base|**k table of row-by-column
sums.

The module also houses the exhaustive axiom scans.  Associativity and
distributivity are verified through greedy generating sets rather than raw
triple loops: the generator-reduced scans cover every triple by an
induction on derivation words, which keeps even a 6561-element matrix ring
verifiable in seconds without sampling.  The generating sets are those of
the closures ``op_closure`` keeps, less an identity whose law has passed.

Every grid of element pairs here (the dense n x n laws, the inverse
search behind ``neg``, ``units`` and ``add_inverses``, and the sums of
units) is evaluated in the row blocks of ``_closure._row_blocks``; the
dense laws run through one row-blocked kernel, ``_row_scan``, with gathers
along one axis (or flat gathers into rows of a transposed table), so
temporaries stay at block size.  Four checks are decided by exact
reductions once the laws their proofs use have passed; otherwise the full
scan runs and reports the same first witness:

* right distributivity on (y, s, t) with s, t additive generators: given
  the additive group laws and left distributivity, (y+s)x - yx - sx is
  additive in x;
* multiplicative associativity on the additive-generator cube: given the
  group laws and both distributive laws, (xy)z - x(yz) is additive in
  each argument;
* star additivity on x times the additive generators, given the group
  laws, and star antimultiplicativity on x times the multiplicative
  generators, given multiplicative associativity: by induction on words,
  over the closures' generators as they are, identity included.

The first and third are map laws phi(x o g) = phi(x) o' phi(g) on x times
generators, decided by ``_closure._generator_law``: for the maps
y -> ys of the additive generators s, and for the involution into ``add``
and into the transposed ``mul``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from ._closure import (
    ClosureStages,
    _block_rows,
    _first_unseen,
    _generator_law,
    _row_blocks,
    greedy_closure,
)
from .errors import (
    MissingImaginaryUnit,
    MissingInvolution,
    RingSpecError,
    SizeCapExceeded,
    _quoted,
    effective_size_cap,
)

# Dense n x n tables beyond this many entries per table do not fit desk-scale
# memory, independently of the element-count cap.
_DENSE_TABLE_ENTRY_LIMIT = 2 * 10**8


def _min_dtype(size: int):
    if size <= 2**8:
        return np.uint8
    if size <= 2**16:
        return np.uint16
    return np.uint32


def _digits(ids, width: int, base: int, dtype) -> np.ndarray:
    """The ``width`` base-``base`` digits of each id, most significant
    first, as a (len(ids), width) array of ``dtype``."""
    r = np.array(ids, dtype=np.int64)
    out = np.empty((r.shape[0], width), dtype=dtype)
    for pos in range(width - 1, -1, -1):
        # One floor division and a multiply-subtract: NumPy's integer
        # ``%`` by a scalar costs about three times its ``//``.
        q = r // base
        out[:, pos] = r - q * base
        r = q
    return out


def _place_table(digit: np.ndarray, width: int, dt, split: bool) -> np.ndarray:
    """The ``dt`` table over ``width``-digit base-``B`` numbers x, most
    significant digit first, with ``B = len(digit)``: entry (x, c) is the
    number whose digit p is ``digit[x_p, c_p]``, where c_p is digit p of c
    when ``split`` and all of c otherwise.  ``digit`` entries lie below B.

    Built by halves: the table over the high ceil(width/2) digits, scaled
    by B**floor(width/2), plus the table over the low digits in one
    broadcast ``np.add``, which writes the result once.  Every entry stays
    below B**width, so a ``dt`` that holds the result holds each step."""
    if width == 1:
        return digit.astype(dt)
    lo = width // 2
    high = _place_table(digit, width - lo, dt, split)
    low = _place_table(digit, lo, dt, split)
    high *= dt(len(digit) ** lo)
    if split:
        out = np.add(high[:, None, :, None], low[None, :, None, :])
    else:
        out = np.add(high[:, None, :], low[None, :, :])
    return out.reshape(len(high) * len(low), -1)


def _index_array(name: str, a, n: int, dt, in_range: bool = False) -> np.ndarray:
    """``a`` as a contiguous ``dt`` array of element indices.  Raises
    ValueError unless it holds integers in ``0..n-1``: the cast to ``dt``
    would silently wrap or truncate anything else.  An unsigned ``a``
    cannot hold a negative, so only its maximum is scanned, and nothing is
    scanned when the caller built ``a`` in range (``in_range``)."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must hold integer indices, not {a.dtype}")
    if a.size and not in_range and (
            (a.dtype.kind == "i" and a.min() < 0) or a.max() >= n):
        raise ValueError(f"{name} entries must lie in 0..{n - 1}")
    # ascontiguousarray turns a 0-d array into shape (1,); keep a's shape.
    return np.ascontiguousarray(a, dtype=dt).reshape(a.shape)


def _index(name: str, x, n: int) -> int:
    """``x`` as one element index in ``0..n-1``; ValueError otherwise."""
    a = _index_array(name, x, n, np.int64)
    if a.ndim:
        raise ValueError(f"{name} must be a single index, not of shape {a.shape}")
    return int(a)


class RingTable:
    """A finite ring as index-based addition and multiplication tables.

    Instances are immutable after construction (the tables are flagged
    read-only) and safe for concurrent reads.

    Parameters
    ----------
    add, mul : (size, size) integer arrays, entries in ``0..size-1``.
    zero, one : element indices of the additive and multiplicative identity.
    star : optional permutation of indices implementing an involution.
    i_elem : optional element index with ``i*i = -1``.
    label : ring spec string used in reports and serialization.
    render : optional element formatter ``idx -> str``.

    Raises ValueError when ``add``, ``mul`` or ``star`` is not an integer
    array or has an entry outside ``0..size-1``, or when ``zero``, ``one``
    or ``i_elem`` is not one integer index in that range.

    A table given here is never assumed to satisfy any law.  Only the spec
    constructors (:func:`_built_ring`) mark a ring whose tables are
    associative by construction, so that the ready-pair reductions of
    ``maps`` and ``search`` may decide on it; on any other ring they are
    re-decided, or not used, and stay exact.
    """

    def __init__(self, add, mul, zero, one, star=None, i_elem=None,
                 label="ring", render=None, *, _in_range=False):
        add = np.asarray(add)
        mul = np.asarray(mul)
        if add.ndim != 2 or add.shape[0] != add.shape[1] or add.shape != mul.shape:
            raise ValueError("add and mul must be square tables of equal size")
        n = add.shape[0]
        dt = _min_dtype(n)
        self.size = n
        self.add = _index_array("add", add, n, dt, _in_range)
        self.mul = _index_array("mul", mul, n, dt, _in_range)
        self.zero = _index("zero", zero, n)
        self.one = _index("one", one, n)
        self.star = None if star is None else _index_array("star", star, n, dt)
        self.i_elem = None if i_elem is None else _index("i_elem", i_elem, n)
        self.label = label
        # Additive inverse per element; meaningful once the axioms hold.
        self.neg, _ = _inverses(self.add, self.zero)
        self._render = render if render is not None else str
        self.matrix_view = None  # set when this ring was built as a matrix ring
        self._views: dict[int, "MatrixRingView"] = {}
        self._units = None
        self._unitaries = None
        self._closures: dict[tuple[str, tuple[int, ...]], ClosureStages] = {}
        self._associative = False  # see _built_ring
        for arr in (self.add, self.mul, self.neg):
            arr.setflags(write=False)
        if self.star is not None:
            self.star.setflags(write=False)

    @property
    def has_star(self) -> bool:
        return self.star is not None

    @property
    def has_i(self) -> bool:
        return self.i_elem is not None

    def require_star(self) -> np.ndarray:
        if self.star is None:
            raise MissingInvolution(f"ring {self.label} carries no involution")
        return self.star

    def require_i(self) -> int:
        if self.i_elem is None:
            raise MissingImaginaryUnit(f"ring {self.label} carries no imaginary unit")
        return self.i_elem

    def render(self, idx: int) -> str:
        return self._render(int(idx))

    def __repr__(self):
        return f"RingTable({self.label}, size={self.size})"


def _built_ring(add, mul, *, associative: bool, **kw) -> RingTable:
    """A ring whose ``add`` and ``mul`` a constructor built from in-range
    base data, so its table range scans are skipped.  ``associative``
    marks both tables as associative by construction: true for the integer
    and Gaussian rings, and for a matrix ring over a marked base."""
    ring = RingTable(add, mul, _in_range=True, **kw)
    ring._associative = associative
    return ring


def make_zmod(n: int, /) -> RingTable:
    """The ring of integers mod ``n``, with the identity involution.

    The imaginary-unit slot is filled with the smallest ``x`` satisfying
    ``x*x = n-1`` when one exists.  ``n = 1`` yields the one-element ring.
    Every call checks the size limits under the environment or default cap
    (see :func:`_check_size`), then returns the shared object for ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_size(f"ring {_quoted(f'zmod:{n}')}", n, None)
    return _zmod(n)


@functools.cache
def _zmod(n: int) -> RingTable:
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    i_elem = None
    for x in range(n):
        if (x * x) % n == (n - 1) % n:
            i_elem = x
            break
    return _built_ring(add, mul, associative=True, zero=0, one=1 % n,
                       star=idx.copy(), i_elem=i_elem, label=f"zmod:{n}")


def _gauss_render(n):
    def fmt(idx):
        a, b = idx % n, idx // n
        if b == 0:
            return str(a)
        im = "i" if b == 1 else f"{b}i"
        return im if a == 0 else f"{a}+{im}"
    return fmt


def make_gaussian(n: int, /) -> RingTable:
    """The ring Z_n[x]/(x^2+1): pairs a+bi with conjugation involution.

    Element ``a + b*i`` has index ``a + n*b``, so 0 and 1 land on indices
    0 and 1 and the class of ``x`` (the imaginary unit) on index ``n``.
    Every call checks the size limits under the environment or default cap
    (see :func:`_check_size`), then returns the shared object for ``n``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_size(f"ring {_quoted(f'gauss:{n}')}", n * n, None)
    return _gaussian(n)


@functools.cache
def _gaussian(n: int) -> RingTable:
    size = n * n
    idx = np.arange(size)
    a, b = idx % n, idx // n
    add = (a[:, None] + a[None, :]) % n + n * ((b[:, None] + b[None, :]) % n)
    mul = (a[:, None] * a[None, :] - b[:, None] * b[None, :]) % n + n * (
        (a[:, None] * b[None, :] + b[:, None] * a[None, :]) % n)
    star = a + n * ((n - b) % n)
    i_elem = n % size  # class of x; collapses to 0 in the degenerate ring
    return _built_ring(add, mul, associative=True, zero=0, one=1 % size,
                       star=star, i_elem=i_elem, label=f"gauss:{n}",
                       render=_gauss_render(n))


class MatrixRingView:
    """The k x k matrix ring over a base ring, with entry/index conversion.

    ``ring`` is the induced :class:`RingTable` of size ``|base|**(k*k)``;
    ``encode``/``decode`` translate between ring indices and row-major
    ``(k, k)`` arrays of base indices, and refuse anything that is not an
    array of element indices with ValueError.  Build views through
    :func:`make_matrix_ring`, which also checks the element-count cap and
    shares one view per base ring and ``k``.

    Raises ValueError when ``k < 1`` and :class:`SizeCapExceeded` when the
    dense tables would pass the dense-table limit, before allocating.
    """

    def __init__(self, base: RingTable, k: int):
        name, n = _matrix_ring_size(base, k)
        _check_dense_tables(name, n)
        self.base = base
        self.k = k
        k2 = k * k
        B = base.size
        self.digits = digits = _digits(np.arange(n), k2, B, _min_dtype(B))
        self.place = place = B ** np.arange(k2 - 1, -1, -1, dtype=np.int64)
        self._n = n

        # Digit p of entry (X, Y) of the sum table is x_p + y_p; digit i of
        # the product table is row i of X times Y, P[row i of X, Y].  P[r, Y]
        # is r·Y as a k-digit number: entry j is T[r, column j of Y], with
        # T[r, c] = sum_t r_t c_t over rows r and columns c of k base
        # entries, gathered at the number of column j of each Y.  Every
        # partial sum stays below n and fits the table dtype; the ``dt(...)``
        # scalars keep the arithmetic in that dtype under NumPy 1.x and 2.x
        # casting rules.
        dt = _min_dtype(n)
        R = B ** k  # rows (and columns) of k base entries
        vecs = _digits(np.arange(R), k, B, _min_dtype(B))
        _, _, T = next(_mat_entries(base, vecs[:, None, None, :], vecs[None, :, :, None]))
        T = T.astype(dt, copy=False)
        P = np.zeros((R, n), dtype=dt)
        for j in range(k):  # digits[:, j::k] is column j of each Y
            P += T[:, digits[:, j::k] @ place[k2 - k:]] * dt(B ** (k - 1 - j))

        star = None
        if base.star is not None:
            td = digits.reshape(n, k, k).transpose(0, 2, 1).reshape(n, k2)
            star = base.star[td].astype(np.int64) @ place

        self.ring = _built_ring(
            _place_table(base.add, k2, dt, split=True),
            _place_table(P, k, dt, split=False),
            associative=base._associative,
            zero=self.scalar_matrix(base.zero),
            one=self.scalar_matrix(base.one),
            star=star,
            i_elem=None if base.i_elem is None else self.scalar_matrix(base.i_elem),
            label=f"mat:{k}:{base.label}",
            render=self._render_matrix,
        )
        self.ring.matrix_view = self

    def encode(self, mats) -> np.ndarray | int:
        """Row-major (…, k, k) arrays of base indices -> ring indices."""
        mats = _index_array("matrix", mats, self.base.size, np.int64)
        if mats.shape[-2:] != (self.k, self.k):
            raise ValueError(f"matrices must have shape (..., {self.k}, {self.k}),"
                             f" not {mats.shape}")
        flat = mats.reshape(*mats.shape[:-2], self.k * self.k)
        out = flat @ self.place
        return int(out) if out.ndim == 0 else out

    def decode(self, idx) -> np.ndarray:
        """Ring indices -> row-major (…, k, k) arrays of base indices."""
        idx = _index_array("ring index", idx, self._n, np.intp)
        d = self.digits[idx]
        return d.reshape(*idx.shape, self.k, self.k).astype(np.int64)

    def matrix_unit(self, i: int, j: int, scalar: int | None = None) -> int:
        """Index of ``s * e_ij`` (entry ``s`` at row i, col j, zeros elsewhere)."""
        s = self.base.one if scalar is None else _index("scalar", scalar, self.base.size)
        return int(self._placed(s, [_index("i", i, self.k) * self.k + _index("j", j, self.k)]))

    @functools.cached_property
    def diagonal_units(self) -> tuple[int, ...]:
        """Indices of e_11, ..., e_kk, encoded once per view."""
        return tuple(self.matrix_unit(i, i) for i in range(self.k))

    def scalar_matrix(self, s: int) -> int:
        """Index of ``s`` times the identity matrix."""
        s = _index("scalar", s, self.base.size)
        return int(self._placed(s, np.arange(self.k) * (self.k + 1)))

    def _placed(self, s, entries):
        """Index of the matrix holding base element(s) ``s`` at the
        row-major ``entries`` (summed over the last axis) and the base's
        zero everywhere else: ``encode`` is linear in the entries, so it is
        z*sum(place) + (s - z)*sum(place[entries]).  Nothing is validated."""
        z = self.base.zero
        return z * self.place.sum() + (np.asarray(s) - z) * self.place[entries].sum(axis=-1)

    def _render_matrix(self, idx: int) -> str:
        m = self.decode(np.asarray(idx))
        rows = ", ".join(
            "[" + ", ".join(self.base.render(int(e)) for e in row) + "]"
            for row in m)
        return f"[{rows}]"

    def __repr__(self):
        return f"MatrixRingView(k={self.k}, base={self.base.label}, size={self._n})"


def _check_size(name: str, n: int, size_cap: int | None):
    """Refuse the ring ``name`` (which quotes its spec through
    :func:`~matsemi.errors._quoted`) of ``n`` elements with
    :class:`SizeCapExceeded` when ``n`` exceeds the element-count cap, or
    when its dense Cayley tables would not fit in memory at desk scale.
    Every public ring constructor runs it on every call, before any cache
    lookup.  A count past 64 bits is given as a power of two, so the
    message stays short however large the ring."""
    cap = effective_size_cap(size_cap)
    if n > cap:
        count = n if n.bit_length() <= 64 else f"more than 2**{n.bit_length() - 1}"
        raise SizeCapExceeded(f"{name} has {count} elements, cap is {cap}")
    _check_dense_tables(name, n)


def _check_dense_tables(name: str, n: int):
    """Refuse the ring ``name`` of ``n`` elements with
    :class:`SizeCapExceeded` when its dense Cayley tables would not fit in
    memory at desk scale."""
    if n * n > _DENSE_TABLE_ENTRY_LIMIT:
        raise SizeCapExceeded(
            f"{name} needs {n}x{n} tables, beyond the dense-table limit")


def _matrix_ring_size(base: RingTable, k: int) -> tuple[str, int]:
    """The name and element count of the k x k matrix ring over ``base``;
    ValueError unless ``k >= 1``.  Raises :class:`SizeCapExceeded` when
    the k**2 x k**2 grid of matrix-unit products, which
    :func:`validate_matrix_view` checks, would pass the dense-table limit:
    over a one-element base every other limit passes at any k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    name = f"matrix ring {_quoted(f'mat:{k}:{base.label}')}"
    if k**4 > _DENSE_TABLE_ENTRY_LIMIT:
        raise SizeCapExceeded(f"{name} needs a {k * k}x{k * k} matrix-unit "
                              "grid, beyond the dense-table limit")
    return name, base.size ** (k * k)


def make_matrix_ring(base: RingTable, k: int,
                     size_cap: int | None = None) -> MatrixRingView:
    """The k x k matrix ring over ``base``, built once per base ring and
    ``k`` and shared by every later call.

    Raises :class:`SizeCapExceeded` when ``|base|**(k*k)`` exceeds the
    element-count cap, or when the dense Cayley tables would not fit in
    memory at desk scale.  Both limits are checked on every call, so an
    already-built view is still refused under a smaller cap.
    """
    _check_size(*_matrix_ring_size(base, k), size_cap)
    view = base._views.get(k)
    if view is None:
        view = base._views[k] = MatrixRingView(base, k)
    return view


def parse_ring_spec(spec: str, size_cap: int | None = None) -> RingTable:
    """Parse a ring spec string: ``zmod:<n>``, ``gauss:<n>``, ``mat:<k>:<spec>``.

    ``mat`` specs nest, e.g. ``mat:2:gauss:3``.  A spec holding whitespace
    anywhere is refused, not stripped.  The element cap and the
    dense-table limit are checked on every call (see :func:`_check_size`);
    within a process each spec yields one shared ring object, the one its
    constructor returns.
    """
    if any(c.isspace() for c in spec):
        raise RingSpecError(f"whitespace in ring spec {_quoted(spec)}")
    parts = spec.split(":", 1)
    kind = parts[0]
    if kind in ("zmod", "gauss"):
        if len(parts) != 2:
            raise RingSpecError(f"{kind} spec needs a modulus: {_quoted(spec)}")
        n = _spec_int(parts[1], "modulus", spec)
        _check_size(f"ring {_quoted(spec)}", n if kind == "zmod" else n * n, size_cap)
        return _zmod(n) if kind == "zmod" else _gaussian(n)
    if kind == "mat":
        rest = parts[1] if len(parts) == 2 else ""
        sub = rest.split(":", 1)
        if len(sub) != 2:
            raise RingSpecError(
                f"mat spec needs a dimension and base: {_quoted(spec)}")
        k = _spec_int(sub[0], "dimension", spec)
        base = parse_ring_spec(sub[1], size_cap=size_cap)
        return make_matrix_ring(base, k, size_cap=size_cap).ring
    raise RingSpecError(f"unknown ring spec {_quoted(spec)}")


# A modulus or dimension of more significant digits is refused before it
# is converted: at 10**9 or more, the n**2 table entries of zmod and the
# k**4 matrix-unit products of mat both pass the dense-table limit.
_SPEC_DIGITS = len(str(_DENSE_TABLE_ENTRY_LIMIT))


def _spec_int(text: str, what: str, spec: str) -> int:
    """The modulus or dimension ``text`` of ``spec``: ASCII digits only, at
    least 1.  Signs, spaces, underscores and non-ASCII digits, which
    ``int`` would accept, raise :class:`RingSpecError`, and so do more
    than :data:`_SPEC_DIGITS` significant digits, before ``int`` reads
    them."""
    if not (text.isascii() and text.isdigit()):
        raise RingSpecError(f"bad {what} in ring spec {_quoted(spec)}")
    if len(text.lstrip("0")) > _SPEC_DIGITS:
        raise RingSpecError(f"{what} in ring spec {_quoted(spec)} has more than "
                            f"{_SPEC_DIGITS} digits, beyond the dense-table limit")
    n = int(text)
    if n < 1:
        raise RingSpecError(f"{what} must be >= 1 in {_quoted(spec)}")
    return n


def op_closure(ring: RingTable, op: str, priority=()) -> ClosureStages:
    """The :func:`~matsemi._closure.greedy_closure` of the ring's ``op``
    table (``"mul"`` or ``"add"``) that probes the elements of ``priority``
    first, built on first use and kept on the ring object under
    ``(op, priority)``, so its validation, generating sets, search plans
    and stacked laws share one.  Its arrays are read-only.  Two threads
    that build one at once store equal values."""
    key = (op, tuple(map(int, priority)))
    cl = ring._closures.get(key)
    if cl is None:
        cl = greedy_closure(getattr(ring, op), key[1])
        for arr in (cl.order, cl.deriv_x, cl.deriv_y):
            arr.setflags(write=False)
        ring._closures[key] = cl
    return cl


# ---------------------------------------------------------------------------
# Units and unitaries


def _inverses(table: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Per x, the first y with x o y = e in ``table`` (0 if none, as argmax
    gives) and whether some y is a two-sided inverse; only rows whose
    first right inverse is one-sided are searched again."""
    n = table.shape[0]
    first = np.empty(n, dtype=table.dtype)
    for lo, hi in _row_blocks(n, n):
        first[lo:hi] = np.argmax(table[lo:hi] == e, axis=1)
    x = np.arange(n)
    right = table[x, first] == e
    two_sided = right & (table[first, x] == e)
    redo = np.flatnonzero(right & ~two_sided)
    for lo, hi in _row_blocks(redo.size, n):
        r = redo[lo:hi]
        two_sided[r] = ((table[r] == e) & (table[:, r].T == e)).any(axis=1)
    return first, two_sided


def units(ring: RingTable) -> np.ndarray:
    """All elements with a two-sided multiplicative inverse, ascending."""
    if ring._units is None:
        ring._units = np.flatnonzero(_inverses(ring.mul, ring.one)[1])
        ring._units.setflags(write=False)
    return ring._units


def unitaries(ring: RingTable) -> np.ndarray:
    """All u with ``u u* = u* u = 1``, ascending.  Requires an involution."""
    star = ring.require_star()
    if ring._unitaries is None:
        idx = np.arange(ring.size)
        ok = (ring.mul[idx, star] == ring.one) & (ring.mul[star, idx] == ring.one)
        ring._unitaries = np.flatnonzero(ok)
        ring._unitaries.setflags(write=False)
    return ring._unitaries


def _pool(ring: RingTable, mode: str) -> np.ndarray:
    """The units (``mode="units"``) or unitaries (``"unitaries"``) of
    ``ring``; any other mode raises ValueError before work is done."""
    if mode == "units":
        return units(ring)
    if mode == "unitaries":
        return unitaries(ring)
    raise ValueError(f"unknown mode {_quoted(mode)}")


def sum_of_units_decompose(ring: RingTable, x: int, kmax: int,
                           mode: str = "units") -> list[int] | None:
    """Shortest decomposition of ``x`` as a sum of at most ``kmax`` pool
    elements (units or unitaries), or None when no such sum exists.

    Breadth-first over sum lengths; the returned sequence is rebuilt
    greedily (smallest usable pool element first), so output is
    deterministic.  The sum is re-evaluated before returning.  Raises
    ValueError unless ``x`` is one element index.
    """
    x = _index("x", x, ring.size)
    if kmax < 1:
        raise ValueError("kmax must be >= 1")
    pool = _pool(ring, mode)
    if pool.size == 0:
        return None
    dist = np.full(ring.size, -1, dtype=np.int64)
    dist[pool] = 1
    frontier = pool
    m = 1
    while m < kmax and frontier.size and dist[x] < 0:
        for lo, hi in _row_blocks(frontier.size, pool.size):
            new, _ = _first_unseen(ring.add[frontier[lo:hi, None], pool].ravel(),
                                   dist >= 0)
            dist[new] = m + 1
        frontier = np.flatnonzero(dist == m + 1)
        m += 1
    if dist[x] < 0:
        return None
    out: list[int] = []
    cur = x
    for remaining in range(int(dist[x]), 1, -1):
        rest = ring.add[cur, ring.neg[pool]]  # cur - u for each pool element
        ok = np.flatnonzero(dist[rest] == remaining - 1)
        u = int(pool[ok[0]])
        out.append(u)
        cur = int(rest[ok[0]])
    out.append(cur)
    total = out[0]
    for u in out[1:]:
        total = int(ring.add[total, u])
    assert total == x, "decomposition failed to re-evaluate"
    return out


# ---------------------------------------------------------------------------
# Batched k x k matrix arithmetic over an arbitrary ring (no table of the
# matrix ring required; used by the proof-identity scans, and by
# MatrixRingView to fill that table).


def _mat_entries(ring: RingTable, X, Y):
    """Yield ``(i, j, entry)`` for the row-by-column product of (…, p, q)
    and (…, q, r) index matrices over ``ring``; ``entry`` is the broadcast
    of X's and Y's leading axes.  The matrix-ring tables, ``mat_mul`` and
    the inverse scan use it; the two identity scans of :mod:`matsemi.witness`
    write their block products' entries out by hand for speed."""
    for i in range(X.shape[-2]):
        for j in range(Y.shape[-1]):
            acc = ring.mul[X[..., i, 0], Y[..., 0, j]]
            for t in range(1, X.shape[-1]):
                acc = ring.add[acc, ring.mul[X[..., i, t], Y[..., t, j]]]
            yield i, j, acc


def mat_mul(ring: RingTable, X, Y) -> np.ndarray:
    """Row-by-column product of (…, k, k) index matrices over ``ring``."""
    X, Y = np.broadcast_arrays(np.asarray(X), np.asarray(Y))
    out = np.empty_like(X)
    for i, j, entry in _mat_entries(ring, X, Y):
        out[..., i, j] = entry
    return out


def _check_inverse_scan_cap(ring: RingTable, size_cap: int | None = None):
    """Raise SizeCapExceeded when the |ring|**4 candidates of a 2x2
    inverse scan over ``ring`` exceed the size cap."""
    cap = effective_size_cap(size_cap)
    total = ring.size**4
    if total > cap:
        raise SizeCapExceeded(
            f"inverse scan over {total} candidate matrices exceeds cap {cap}")


def mat2_inverse_stack(ring: RingTable, Ms, size_cap: int | None = None):
    """Two-sided inverses of a stack of 2x2 index matrices over ``ring``,
    each by exhaustive scan of all |ring|**4 candidates: ``(found, inv)``,
    where ``found[k]`` says whether matrix k has one and ``inv[k]`` is its
    first in index order (zeros where there is none).

    Row i of L·M reads only row i of L, so each of the |ring|**2 rows r
    is decided once per matrix: the left inverses pair a row with
    r·M = e_0 and one with r·M = e_1, in index order, and the first with
    M·L = 1 is kept.  That is the first two-sided inverse of the full
    scan, also on tables that break the ring axioms.  No determinant
    shortcut is taken.  The stack goes through r·M in blocks of about
    :data:`_closure._BLOCK_ENTRIES` (matrix, row) entries, and its
    candidate pairs through M·L in chunks of as many entries, so the pass
    runs in block memory for any stack.  The cap of
    :func:`_check_inverse_scan_cap` is checked before any scan.  Raises
    ValueError unless ``Ms`` is an (m, 2, 2) stack of element indices."""
    Ms = _index_array("M", Ms, ring.size, np.int64)
    if Ms.ndim != 3 or Ms.shape[1:] != (2, 2):
        raise ValueError(f"M must be a stack of 2x2 matrices, not of shape {Ms.shape}")
    _check_inverse_scan_cap(ring, size_cap)
    found = np.zeros(len(Ms), dtype=bool)
    inv = np.zeros_like(Ms)
    n = ring.size
    rows = _digits(np.arange(n * n), 2, n, np.int64)
    add = ring.add.ravel()
    eye = np.where(np.eye(2, dtype=bool), ring.one, ring.zero)
    for lo, hi in _row_blocks(len(Ms), n * n):
        M = Ms[lo:hi]
        # Entry j of r·M for every row r = (r0, r1), in row order: the sum
        # of r0·M[0, j] and r1·M[1, j], one gather from the flat sum table
        # over the n x n grid of the two products.
        entries = []
        for j in (0, 1):
            left = ring.mul[:, M[:, 0, j]].T.astype(np.intp) * n
            right = ring.mul[:, M[:, 1, j]].T
            entries.append(add[left[:, :, None] + right[:, None, :]].reshape(hi - lo, -1))
        p0, p1 = entries
        # (matrix, row) of the rows with r·M = e_0 and with r·M = e_1,
        # matrix-major and in row order within a matrix.
        fk, fr = np.nonzero((p0 == ring.one) & (p1 == ring.zero))
        sk, sr = np.nonzero((p0 == ring.zero) & (p1 == ring.one))
        nf = np.bincount(fk, minlength=hi - lo)
        ns = np.bincount(sk, minlength=hi - lo)
        # Matrix k's left inverses are the pairs t < nf[k] * ns[k], first
        # row t // ns[k] and second row t % ns[k]: index order.
        ends = np.cumsum(nf * ns)
        f0, s0 = np.cumsum(nf) - nf, np.cumsum(ns) - ns
        # A pair carries 16 int64 entries (its L, its M and M·L).
        for plo, phi in _row_blocks(int(ends[-1]), 16):
            t = np.arange(plo, phi)
            k = np.searchsorted(ends, t, side="right")
            a, b = np.divmod(t - (ends[k] - nf[k] * ns[k]), ns[k])
            L = np.stack([rows[fr[f0[k] + a]], rows[sr[s0[k] + b]]], axis=1)
            ok = (mat_mul(ring, M[k], L) == eye).all(axis=(1, 2))
            # The first passing pair of each matrix not decided yet.
            hit = np.flatnonzero(ok & ~found[lo + k])
            hit = hit[np.r_[True, k[hit[1:]] != k[hit[:-1]]]] if hit.size else hit
            found[lo + k[hit]] = True
            inv[lo + k[hit]] = L[hit]
    return found, inv


def mat2_inverse_scan(ring: RingTable, M, size_cap: int | None = None):
    """Two-sided inverse of a 2x2 index matrix over ``ring`` by exhaustive
    scan of all |ring|**4 candidates: the first in index order, or None.
    A one-matrix stack of :func:`mat2_inverse_stack`.  Raises ValueError
    unless ``M`` is a 2x2 matrix of element indices."""
    M = np.asarray(M)
    if M.shape != (2, 2):
        raise ValueError(f"M must be a 2x2 matrix, not of shape {M.shape}")
    found, inv = mat2_inverse_stack(ring, M[None], size_cap)
    return inv[0] if found[0] else None


# ---------------------------------------------------------------------------
# Exhaustive axiom scans


@dataclass
class CheckOutcome:
    """One axiom check.  ``checked`` counts the law instances the check
    certifies: for a generator translation scan, all (x, s, y) with s a
    generator (every element for an all-element scan), also when a reduced
    check on fewer instances decided it exactly (see :func:`validate_ring`)."""

    name: str
    passed: bool
    checked: int
    witness: tuple[int, ...] | None = None
    note: str = ""


@dataclass
class RingValidation:
    """Outcome of the full axiom scan of a ring table.

    ``checks`` gates validity; ``info`` carries reported-but-not-gating
    facts (the star/imaginary-unit compatibility, scan strategies).  Each
    check's ``checked`` and ``note`` name the translation scan it
    certifies, whether that scan ran or an exact reduction decided it.
    """

    label: str
    checks: dict[str, CheckOutcome] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def failed(self) -> list[CheckOutcome]:
        return [c for c in self.checks.values() if not c.passed]

    def to_json(self) -> dict:
        return {
            "ring": self.label,
            "ok": self.ok,
            "checks": {
                name: {
                    "pass": c.passed,
                    "checked": c.checked,
                    "witness": list(c.witness) if c.witness else None,
                    "note": c.note,
                }
                for name, c in self.checks.items()
            },
            "info": dict(self.info),
        }


def _row_scan(shape: tuple[int, int], law,
              witness_cap: int = 1) -> tuple[int, list[tuple[int, int]]]:
    """Scan a ``shape`` boolean law in the row blocks of
    :func:`_closure._row_blocks`; ``law(lo, hi)`` returns its rows
    ``lo..hi-1``, true where the law holds.

    Returns the number of false entries and the first ``witness_cap`` of
    them as ``(row, col)`` in row-major order.  Blocks keep every
    temporary at block size, and laws gather with ``np.take`` along one
    axis of a contiguous table.
    """
    violations, witnesses = 0, []
    for lo, hi in _row_blocks(*shape):
        ok = law(lo, hi)
        bad = ok.size - int(np.count_nonzero(ok))
        if not bad:
            continue
        violations += bad
        need = witness_cap - len(witnesses)
        if need > 0:
            # Only the leading rows holding the first ``need`` violations
            # are searched, so no index array over all of them is built.
            bad_per_row = ok.shape[1] - np.count_nonzero(ok, axis=1)
            stop = int(np.searchsorted(np.cumsum(bad_per_row), need)) + 1
            witnesses += [(lo + r, c)
                          for r, c in np.argwhere(~ok[:stop])[:need].tolist()]
    return violations, witnesses


def _transposed(t: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``t.T``, written one square tile of about
    :data:`_closure._BLOCK_ENTRIES` entries at a time.  A row block of a
    wide table would write row pieces of a few entries, shorter than a
    cache line; a tile writes rows as long as it is high."""
    out = np.empty(t.shape[::-1], dtype=t.dtype)
    side = math.isqrt(_block_rows(1))  # _block_rows(1) is _BLOCK_ENTRIES
    for lo, hi in _row_blocks(t.shape[0], side):
        for clo, chi in _row_blocks(t.shape[1], side):
            out[clo:chi, lo:hi] = t[lo:hi, clo:chi].T
    return out


def _outcome(name, eq, checked, mapper=lambda x: (x,)) -> CheckOutcome:
    """Outcome of the per-element check ``eq``; the witness is ``mapper``
    of the first element failing it."""
    bad = np.flatnonzero(~np.asarray(eq))
    return CheckOutcome(name, bad.size == 0, checked,
                        mapper(int(bad[0])) if bad.size else None)


def _outcome_at(name: str, n: int, law) -> CheckOutcome:
    """Outcome of the n x n ``law(lo, hi)`` (see :func:`_row_scan`); the
    witness is its first failure."""
    _, w = _row_scan((n, n), law)
    return CheckOutcome(name, not w, n * n, w[0] if w else None)


def _generator_scan(n: int, gens, law) -> tuple[int, int, int] | None:
    """The first failure ``(s, row, col)`` of the n x n laws
    ``law(s, lo, hi)``, generators s taken in order, or None."""
    for s in gens:
        _, w = _row_scan((n, n), functools.partial(law, s))
        if w:
            return (s, *w[0])
    return None


def _xsy(hit):
    """A :func:`_generator_scan` failure ``(s, x, y)`` as the triple (x, s, y)."""
    return None if hit is None else (hit[1], hit[0], hit[2])


def validate_ring(ring: RingTable) -> RingValidation:
    """Run the full ring-axiom scan: additive commutative group,
    multiplicative monoid, distributivity, involution and imaginary-unit
    laws.  Every law is verified for all elements, with associativity,
    distributivity and the star laws reduced to greedy generating sets
    (complete by the derivation-word induction; no sampling involved).
    Distributivity is reduced only when addition has passed its
    associativity scan, which the induction uses; otherwise every element
    is scanned.

    The involution/imaginary-unit compatibility ``(i)* = -i`` is reported
    in ``info`` rather than gating validity: integer rings carry the
    identity involution, under which only 2-torsion imaginary units could
    satisfy it.
    """
    n = ring.size
    add, mul = ring.add, ring.mul
    idx = np.arange(n)
    v = RingValidation(label=ring.label)
    ch = v.checks

    # The constructor has refused every index outside 0..n-1; what is left
    # to check is that the involution is a permutation.
    well_formed = ring.star is None or bool(np.array_equal(np.sort(ring.star), idx))
    ch["tables_well_formed"] = CheckOutcome("tables_well_formed", well_formed,
                                            2 * n * n)

    # add's transpose serves commutativity and, as xy + xs = entry
    # (xs, xy) of it, the left distributivity scan: one row of it per x.
    addT = _transposed(add)
    ch["add_commutative"] = _outcome_at(
        "add_commutative", n, lambda lo, hi: add[lo:hi] == addT[lo:hi])
    ch["add_identity"] = _outcome(
        "add_identity",
        (add[ring.zero, :] == idx) & (add[:, ring.zero] == idx), n,
        mapper=lambda x: (ring.zero, x))
    ch["add_inverses"] = _outcome("add_inverses", _inverses(add, ring.zero)[1], n)

    # The scans run over the closure's generators.  A two-sided identity's
    # translations hold and no product with it is new, so it is left out
    # once its law has passed; otherwise it is scanned like the others.
    gens_add = [g for g in op_closure(ring, "add").gens
                if g != ring.zero or not ch["add_identity"].passed]
    v.info["additive_generators"] = gens_add
    G = np.asarray(gens_add, dtype=np.intp)
    per = n * n * len(gens_add)

    def add_assoc(s, lo, hi):  # (x + s) + y == x + (s + y)
        return np.take(add, add[lo:hi, s], axis=0) == np.take(add[lo:hi], add[s], axis=1)

    hit = _generator_scan(n, gens_add, add_assoc)
    ch["add_associative"] = CheckOutcome(
        "add_associative", hit is None, per, _xsy(hit),
        note="generator translation scan")
    group = all(ch[k].passed for k in (
        "add_commutative", "add_identity", "add_inverses", "add_associative"))

    ch["mul_identity"] = _outcome(
        "mul_identity",
        (mul[ring.one, :] == idx) & (mul[:, ring.one] == idx), n,
        mapper=lambda x: (ring.one, x))
    ch["zero_absorbs"] = _outcome(
        "zero_absorbs",
        (mul[ring.zero, :] == ring.zero) & (mul[:, ring.zero] == ring.zero), n,
        mapper=lambda x: (ring.zero, x))

    def left_dist(s, lo, hi):  # x(y + s) == xy + xs
        xs = mul[lo:hi, s].astype(np.intp) * n
        return (np.take(mul[lo:hi], add[:, s], axis=1)
                == np.take(addT, xs[:, None] + mul[lo:hi]))

    # The generator scans reach every s through associativity of add;
    # without it, every element is scanned as s.
    dist_gens, dist_note = ((gens_add, "additive generator scan")
                            if ch["add_associative"].passed
                            else (range(n), "all-element scan"))
    dist_per = n * n * len(dist_gens)
    hit = _generator_scan(n, dist_gens, left_dist)
    del addT
    ch["left_distributive"] = CheckOutcome(
        "left_distributive", hit is None, dist_per,
        None if hit is None else (hit[1], hit[2], hit[0]), note=dist_note)

    # With the additive group laws and left distributivity, the defect
    # (y+s)x - yx - sx is additive in x: it vanishes for every x once it
    # vanishes for x in the additive generators, that is, when the map
    # y -> ys of each generator s is additive on y + t for every generator t.
    reduced = group and ch["left_distributive"].passed and bool(
        _generator_law(add, add, mul[:, G].T, G).all())

    def right_dist(s, lo, hi):  # (y + s)x == yx + sx
        return (np.take(mul, add[lo:hi, s], axis=0)
                == np.take(add, mul[lo:hi].astype(np.intp) * n + mul[s]))

    hit = None if reduced else _generator_scan(n, dist_gens, right_dist)
    ch["right_distributive"] = CheckOutcome(
        "right_distributive", hit is None, dist_per, _xsy(hit), note=dist_note)

    gens_mul = [g for g in op_closure(ring, "mul").gens
                if g != ring.one or not ch["mul_identity"].passed]
    v.info["multiplicative_generators"] = gens_mul
    # (xy)z - x(yz) is additive in each argument once distributivity and
    # the additive group laws hold, so vanishing on additive-generator
    # triples is equivalent to vanishing everywhere.
    prereq = (group and ch["left_distributive"].passed
              and ch["right_distributive"].passed and ch["zero_absorbs"].passed)
    GG = mul[np.ix_(G, G)]
    cube = prereq and bool(
        (mul[GG[:, :, None], G] == mul[G[:, None, None], GG[None, :, :]]).all())

    def mul_assoc(s, lo, hi):  # (x s) y == x (s y)
        return (np.take(mul, mul[lo:hi, s], axis=0)
                == np.take(mul[lo:hi], mul[s], axis=1))

    # The translation scan runs only when the cube cannot decide it.
    hit = None if cube else _generator_scan(n, gens_mul, mul_assoc)
    ch["mul_associative"] = CheckOutcome(
        "mul_associative", hit is None, n * n * len(gens_mul), _xsy(hit),
        note="generator translation scan")
    v.info["mul_assoc_strategy"] = ch["mul_associative"].note

    if ring.star is not None:
        star = ring.star
        ch["star_involutive"] = _outcome("star_involutive", star[star] == idx, n)
        ch["star_fixes_one"] = CheckOutcome(
            "star_fixes_one", int(star[ring.one]) == ring.one, 1,
            None if int(star[ring.one]) == ring.one else (ring.one,))
        # On an associative table, (x o y)* = x* o y* (additive) or
        # y* o x* (antimultiplicative, the law of the map x -> x* into the
        # transposed table) holds for every x and y once it holds for every
        # x and every generator of the table's closure: the ready-pair
        # lemma of ClosureStages.ready_pairs, with associativity on the
        # starred side.  When the reduced check fails or cannot apply, the
        # full scan runs and reports the first witness.
        if group and _generator_law(add, add, star, op_closure(ring, "add").gens):
            ch["star_additive"] = CheckOutcome("star_additive", True, n * n)
        else:
            ch["star_additive"] = _outcome_at(
                "star_additive", n, lambda lo, hi: np.take(star, add[lo:hi]) == np.take(
                    np.take(add, star[lo:hi], axis=0), star, axis=1))
        if ch["mul_associative"].passed and _generator_law(
                mul, mul.T, star, op_closure(ring, "mul").gens):
            ch["star_antimultiplicative"] = CheckOutcome(
                "star_antimultiplicative", True, n * n)
        else:
            mulT = _transposed(mul)
            ch["star_antimultiplicative"] = _outcome_at(
                "star_antimultiplicative", n, lambda lo, hi: np.take(star, mul[lo:hi]) == np.take(
                    np.take(mulT, star[lo:hi], axis=0), star, axis=1))
            del mulT

    if ring.i_elem is not None:
        i = ring.i_elem
        minus_one = int(ring.neg[ring.one])
        sq = int(mul[i, i])
        ch["i_squares_to_minus_one"] = CheckOutcome(
            "i_squares_to_minus_one", sq == minus_one, 1,
            None if sq == minus_one else (i, i))
        if ring.star is not None:
            v.info["star_negates_i"] = bool(
                int(ring.star[i]) == int(ring.neg[i]))
    return v


def validate_matrix_view(view: MatrixRingView) -> RingValidation:
    """Scan the matrix-ring structure: encode/decode bijection, the matrix
    unit relations ``e_ij e_kl = delta_jk e_il``, the diagonal-sum identity,
    and the conjugate-transpose involution.
    """
    ring = view.ring
    k = view.k
    n = ring.size
    v = RingValidation(label=ring.label)
    ch = v.checks

    idx = np.arange(n)
    ch["encode_decode_bijective"] = _outcome(
        "encode_decode_bijective", view.encode(view.decode(idx)) == idx, n)

    # The k^2 x k^2 grid of products e_ij e_pq, with e_ij at row i*k + j
    # and e_pq at column p*k + q, in row blocks; the witness is its last
    # failing pair in (i, j, p, q) order.
    flat = view._placed(view.base.one, np.arange(k * k)[:, None])
    eu = flat.reshape(k, k)
    wit = None
    for lo, hi in _row_blocks(k * k, k * k):
        rows = np.arange(lo, hi)
        kron = (rows % k)[:, None, None] == np.arange(k)[None, :, None]
        want = np.where(kron, eu[rows // k][:, None, :], ring.zero)
        bad = np.flatnonzero(ring.mul[flat[lo:hi, None], flat[None, :]]
                             != want.reshape(hi - lo, k * k))
        if bad.size:
            r, c = divmod(int(bad[-1]), k * k)
            wit = (int(flat[lo + r]), int(flat[c]))
    ch["matrix_unit_relations"] = CheckOutcome(
        "matrix_unit_relations", wit is None, k ** 4, wit)

    total = eu[0][0]
    for i in range(1, k):
        total = int(ring.add[total, eu[i][i]])
    ch["one_is_diagonal_sum"] = CheckOutcome(
        "one_is_diagonal_sum", total == ring.one, 1,
        None if total == ring.one else (total, ring.one))

    if view.base.star is not None:
        expected = view.encode(view.base.star[np.swapaxes(view.decode(idx), -1, -2)])
        ch["star_is_conjugate_transpose"] = _outcome(
            "star_is_conjugate_transpose", np.asarray(ring.star, dtype=np.int64) == expected, n)
    if view.base.i_elem is not None:
        want = view.scalar_matrix(view.base.i_elem)
        ch["i_is_scalar_identity"] = CheckOutcome(
            "i_is_scalar_identity", ring.i_elem == want, 1,
            None if ring.i_elem == want else (ring.i_elem, want))
    return v

"""Finite rings as dense Cayley tables, and their k x k matrix rings.

Elements of a ring are the indices ``0 .. size-1``; the additive and
multiplicative structure is carried by two ``size x size`` index tables.
Constructors arrange ``zero`` at index 0 and, where the encoding permits,
``one`` at index 1 (matrix rings keep the row-major entry encoding instead,
so their identity sits wherever that encoding puts it).  A table entry
outside ``0..size-1`` is refused when the ring is built.

A matrix ring's tables are built without n x n gathers: its sum table is
the base addition broadcast over each digit position, and its product
table is one |base|**k x |base|**k table of row-by-column sums broadcast
onto the digit axes of each row of X and each column of Y.

The module also houses the exhaustive axiom scans.  Associativity and
distributivity are verified through greedy generating sets rather than raw
triple loops: the generator-reduced scans cover every triple by an
induction on derivation words, which keeps even a 6561-element matrix ring
verifiable in seconds without sampling.

Every dense n x n law runs through one row-blocked kernel, ``_row_scan``,
which evaluates about ``_BLOCK_ENTRIES`` entries at a time with gathers
along one axis (or flat gathers into rows of a transposed table), so
temporaries stay at block size.  Two checks are decided by exact
reductions once the laws their proofs use have passed; otherwise the full
translation scan runs and reports the same first witness:

* right distributivity on (y, s, t) with s, t additive generators: given
  the additive group laws and left distributivity, (y+s)x - yx - sx is
  additive in x;
* multiplicative associativity on the additive-generator cube: given the
  group laws and both distributive laws, (xy)z - x(yz) is additive in
  each argument.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._closure import greedy_closure
from .errors import (
    MissingImaginaryUnit,
    MissingInvolution,
    RingSpecError,
    SizeCapExceeded,
    effective_size_cap,
)

# Above this many (pairs x generators), associativity is reported as decided
# by the additive-generator cube rather than as the generator "translation"
# scans, which the cube certifies whenever its prerequisites pass.
_LIGHT_SCAN_BUDGET = 2 * 10**8

# Dense n x n scans evaluate their law this many table entries at a time.
_BLOCK_ENTRIES = 1 << 20

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
        out[:, pos] = r % base
        r //= base
    return out


def _index_array(name: str, a, n: int, dt) -> np.ndarray:
    """``a`` as a contiguous ``dt`` array of element indices.  Raises
    ValueError unless it holds integers in ``0..n-1``: the cast to ``dt``
    would silently wrap or truncate anything else."""
    a = np.asarray(a)
    if not np.issubdtype(a.dtype, np.integer):
        raise ValueError(f"{name} must hold integer indices, not {a.dtype}")
    if a.size and (a.min() < 0 or a.max() >= n):
        raise ValueError(f"{name} entries must lie in 0..{n - 1}")
    return np.ascontiguousarray(a, dtype=dt)


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
    array or has an entry outside ``0..size-1``.
    """

    def __init__(self, add, mul, zero, one, star=None, i_elem=None,
                 label="ring", render=None):
        add = np.asarray(add)
        mul = np.asarray(mul)
        if add.ndim != 2 or add.shape[0] != add.shape[1] or add.shape != mul.shape:
            raise ValueError("add and mul must be square tables of equal size")
        n = add.shape[0]
        dt = _min_dtype(n)
        self.size = n
        self.add = _index_array("add", add, n, dt)
        self.mul = _index_array("mul", mul, n, dt)
        self.zero = int(zero)
        self.one = int(one)
        self.star = None if star is None else _index_array("star", star, n, dt)
        self.i_elem = None if i_elem is None else int(i_elem)
        self.label = label
        # Additive inverse per element; meaningful once the axioms hold.
        self.neg = np.argmax(self.add == self.zero, axis=1).astype(dt)
        self._render = render if render is not None else str
        self.matrix_view = None  # set when this ring was built as a matrix ring
        self._views: dict[int, "MatrixRingView"] = {}
        self._units = None
        self._unitaries = None
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


@functools.cache
def make_zmod(n: int, /) -> RingTable:
    """The ring of integers mod ``n``, with the identity involution.

    The imaginary-unit slot is filled with the smallest ``x`` satisfying
    ``x*x = n-1`` when one exists.  ``n = 1`` yields the one-element ring.
    Every call with the same ``n`` returns the same shared object.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    i_elem = None
    for x in range(n):
        if (x * x) % n == (n - 1) % n:
            i_elem = x
            break
    return RingTable(add, mul, zero=0, one=1 % n, star=idx.copy(),
                     i_elem=i_elem, label=f"zmod:{n}")


def _gauss_render(n):
    def fmt(idx):
        a, b = idx % n, idx // n
        if b == 0:
            return str(a)
        im = "i" if b == 1 else f"{b}i"
        return im if a == 0 else f"{a}+{im}"
    return fmt


@functools.cache
def make_gaussian(n: int, /) -> RingTable:
    """The ring Z_n[x]/(x^2+1): pairs a+bi with conjugation involution.

    Element ``a + b*i`` has index ``a + n*b``, so 0 and 1 land on indices
    0 and 1 and the class of ``x`` (the imaginary unit) on index ``n``.
    Every call with the same ``n`` returns the same shared object.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    size = n * n
    idx = np.arange(size)
    a, b = idx % n, idx // n
    add = (a[:, None] + a[None, :]) % n + n * ((b[:, None] + b[None, :]) % n)
    mul = (a[:, None] * a[None, :] - b[:, None] * b[None, :]) % n + n * (
        (a[:, None] * b[None, :] + b[:, None] * a[None, :]) % n)
    star = a + n * ((n - b) % n)
    i_elem = n % size  # class of x; collapses to 0 in the degenerate ring
    return RingTable(add, mul, zero=0, one=1 % size, star=star,
                     i_elem=i_elem, label=f"gauss:{n}",
                     render=_gauss_render(n))


class MatrixRingView:
    """The k x k matrix ring over a base ring, with entry/index conversion.

    ``ring`` is the induced :class:`RingTable` of size ``|base|**(k*k)``;
    ``encode``/``decode`` translate between ring indices and row-major
    ``(k, k)`` arrays of base indices.  Build views through
    :func:`make_matrix_ring`, which checks the size limits and shares one
    view per base ring and ``k``.
    """

    def __init__(self, base: RingTable, k: int):
        self.base = base
        self.k = k
        k2 = k * k
        B = base.size
        n = B ** k2
        self.digits = digits = _digits(np.arange(n), k2, B, _min_dtype(B))
        self.place = place = B ** np.arange(k2 - 1, -1, -1, dtype=np.int64)
        self._n = n

        # Both tables are built in their final (X digits, Y digits) layout.
        # Each step adds digit * place terms, so every partial sum stays
        # below n and fits the table dtype; the ``dt(...)`` scalars keep the
        # arithmetic in that dtype under NumPy 1.x and 2.x casting rules.
        dt = _min_dtype(n)
        add = np.zeros((B,) * (2 * k2), dtype=dt)
        for pos in range(k2):
            shape = [1] * (2 * k2)
            shape[pos] = shape[k2 + pos] = B
            add += (base.add.astype(dt) * dt(place[pos])).reshape(shape)

        # T[r, c] = sum_t r_t c_t over rows r and columns c of k base
        # entries; entry (i, j) of XY is T[row i of X, column j of Y].  With
        # X's rows as k axes of size B**k and Y's k*k digits as axes after
        # them, the axes of row i and of column j's digits (t, j) are in
        # increasing order, so T broadcasts in without a transpose.
        vecs = _digits(np.arange(B ** k), k, B, _min_dtype(B))
        _, _, T = next(_mat_entries(base, vecs[:, None, None, :], vecs[None, :, :, None]))
        T = T.astype(dt, copy=False)
        mul = np.zeros((B ** k,) * k + (B,) * k2, dtype=dt)
        for i in range(k):
            for j in range(k):
                shape = [1] * (k + k2)
                shape[i] = B ** k
                for t in range(k):
                    shape[k + t * k + j] = B
                mul += (T * dt(place[i * k + j])).reshape(shape)

        star = None
        if base.star is not None:
            td = digits.reshape(n, k, k).transpose(0, 2, 1).reshape(n, k2)
            star = base.star[td].astype(np.int64) @ place

        self.ring = RingTable(
            add.reshape(n, n), mul.reshape(n, n),
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
        mats = np.asarray(mats, dtype=np.int64)
        flat = mats.reshape(*mats.shape[:-2], self.k * self.k)
        out = flat @ self.place
        return int(out) if out.ndim == 0 else out

    def decode(self, idx) -> np.ndarray:
        """Ring indices -> row-major (…, k, k) arrays of base indices."""
        idx = np.asarray(idx)
        d = self.digits[idx]
        return d.reshape(*idx.shape, self.k, self.k).astype(np.int64)

    def matrix_unit(self, i: int, j: int, scalar: int | None = None) -> int:
        """Index of ``s * e_ij`` (entry ``s`` at row i, col j, zeros elsewhere)."""
        m = np.full((self.k, self.k), self.base.zero, dtype=np.int64)
        m[i, j] = self.base.one if scalar is None else scalar
        return int(self.encode(m))

    @functools.cached_property
    def diagonal_units(self) -> tuple[int, ...]:
        """Indices of e_11, ..., e_kk, encoded once per view."""
        return tuple(self.matrix_unit(i, i) for i in range(self.k))

    def scalar_matrix(self, s: int) -> int:
        """Index of ``s`` times the identity matrix."""
        m = np.full((self.k, self.k), self.base.zero, dtype=np.int64)
        m[np.arange(self.k), np.arange(self.k)] = s
        return int(self.encode(m))

    def _render_matrix(self, idx: int) -> str:
        m = self.decode(np.asarray(idx))
        rows = ", ".join(
            "[" + ", ".join(self.base.render(int(e)) for e in row) + "]"
            for row in m)
        return f"[{rows}]"

    def __repr__(self):
        return f"MatrixRingView(k={self.k}, base={self.base.label}, size={self._n})"


def make_matrix_ring(base: RingTable, k: int,
                     size_cap: int | None = None) -> MatrixRingView:
    """The k x k matrix ring over ``base``, built once per base ring and
    ``k`` and shared by every later call.

    Raises :class:`SizeCapExceeded` when ``|base|**(k*k)`` exceeds the
    element-count cap, or when the dense Cayley tables would not fit in
    memory at desk scale.  Both limits are checked on every call, so an
    already-built view is still refused under a smaller cap.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    cap = effective_size_cap(size_cap)
    n = base.size ** (k * k)
    if n > cap:
        raise SizeCapExceeded(
            f"matrix ring mat:{k}:{base.label} has {n} elements, cap is {cap}")
    if n * n > _DENSE_TABLE_ENTRY_LIMIT:
        raise SizeCapExceeded(
            f"matrix ring mat:{k}:{base.label} needs {n}x{n} tables, "
            f"beyond the dense-table limit")
    view = base._views.get(k)
    if view is None:
        view = base._views[k] = MatrixRingView(base, k)
    return view


def parse_ring_spec(spec: str, size_cap: int | None = None) -> RingTable:
    """Parse a ring spec string: ``zmod:<n>``, ``gauss:<n>``, ``mat:<k>:<spec>``.

    ``mat`` specs nest, e.g. ``mat:2:gauss:3``.  The size cap is checked on
    every call; within a process each spec yields one shared ring object,
    the one its constructor returns.
    """
    spec = spec.strip()
    parts = spec.split(":", 1)
    kind = parts[0]
    if kind in ("zmod", "gauss"):
        if len(parts) != 2:
            raise RingSpecError(f"{kind} spec needs a modulus: {spec!r}")
        try:
            n = int(parts[1])
        except ValueError:
            raise RingSpecError(f"bad modulus in ring spec {spec!r}") from None
        if n < 1:
            raise RingSpecError(f"modulus must be >= 1 in {spec!r}")
        cap = effective_size_cap(size_cap)
        size = n if kind == "zmod" else n * n
        if size > cap:
            raise SizeCapExceeded(f"ring {spec} has {size} elements, cap is {cap}")
        return make_zmod(n) if kind == "zmod" else make_gaussian(n)
    if kind == "mat":
        rest = parts[1] if len(parts) == 2 else ""
        sub = rest.split(":", 1)
        if len(sub) != 2:
            raise RingSpecError(f"mat spec needs a dimension and base: {spec!r}")
        try:
            k = int(sub[0])
        except ValueError:
            raise RingSpecError(f"bad dimension in ring spec {spec!r}") from None
        if k < 1:
            raise RingSpecError(f"matrix dimension must be >= 1 in {spec!r}")
        base = parse_ring_spec(sub[1], size_cap=size_cap)
        return make_matrix_ring(base, k, size_cap=size_cap).ring
    raise RingSpecError(f"unknown ring spec {spec!r}")


# ---------------------------------------------------------------------------
# Units and unitaries


def units(ring: RingTable) -> np.ndarray:
    """All elements with a two-sided multiplicative inverse, ascending."""
    if ring._units is None:
        right = ring.mul == ring.one
        two_sided = right & right.T
        ring._units = np.flatnonzero(two_sided.any(axis=1))
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
    raise ValueError(f"unknown mode {mode!r}")


def sum_of_units_decompose(ring: RingTable, x: int, kmax: int,
                           mode: str = "units") -> list[int] | None:
    """Shortest decomposition of ``x`` as a sum of at most ``kmax`` pool
    elements (units or unitaries), or None when no such sum exists.

    Breadth-first over sum lengths; the returned sequence is rebuilt
    greedily (smallest usable pool element first), so output is
    deterministic.  The sum is re-evaluated before returning.
    """
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
        sums = np.unique(ring.add[np.ix_(frontier, pool)])
        new = sums[dist[sums] < 0]
        dist[new] = m + 1
        frontier = new
        m += 1
    if dist[x] < 0:
        return None
    out: list[int] = []
    cur = int(x)
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
    assert total == int(x), "decomposition failed to re-evaluate"
    return out


# ---------------------------------------------------------------------------
# Batched k x k matrix arithmetic over an arbitrary ring (no table of the
# matrix ring required; used by the proof-identity scans, and by
# MatrixRingView to fill that table).


def _mat_entries(ring: RingTable, X, Y):
    """Yield ``(i, j, entry)`` for the row-by-column product of (…, p, q)
    and (…, q, r) index matrices over ``ring``; ``entry`` is the broadcast
    of X's and Y's leading axes.  The one matrix product formula in the
    package."""
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


def mat_star(ring: RingTable, X) -> np.ndarray:
    """Conjugate transpose of (…, k, k) index matrices."""
    star = ring.require_star()
    X = np.asarray(X)
    return star[np.swapaxes(X, -1, -2)]


def mat_eye(ring: RingTable, k: int) -> np.ndarray:
    m = np.full((k, k), ring.zero, dtype=np.int64)
    m[np.arange(k), np.arange(k)] = ring.one
    return m


def _inverse_scan_candidates(ring: RingTable, size_cap: int | None = None) -> int:
    """|ring|**4, the candidates of a 2x2 inverse scan over ``ring``;
    raises SizeCapExceeded when they exceed the size cap."""
    cap = effective_size_cap(size_cap)
    total = ring.size**4
    if total > cap:
        raise SizeCapExceeded(
            f"inverse scan over {total} candidate matrices exceeds cap {cap}")
    return total


def mat2_inverse_scan(ring: RingTable, M, size_cap: int | None = None):
    """Two-sided inverse of a 2x2 index matrix over ``ring`` by exhaustive
    scan of all |ring|**4 candidates.  Returns the inverse matrix or None.

    Determinant shortcuts are deliberately not used; invertibility over a
    general base is decided by the scan alone.
    """
    total = _inverse_scan_candidates(ring, size_cap)
    C = _digits(np.arange(total), 4, ring.size, np.int64).reshape(total, 2, 2)
    M = np.asarray(M, dtype=np.int64)
    eye = mat_eye(ring, 2)
    left = mat_mul(ring, M[None, :, :], C)
    ok = (left == eye).all(axis=(1, 2))
    if ok.any():
        cand = C[ok]
        right = mat_mul(ring, cand, M[None, :, :])
        both = (right == eye).all(axis=(1, 2))
        if both.any():
            return cand[np.argmax(both)].copy()
    return None


# ---------------------------------------------------------------------------
# Exhaustive axiom scans


@dataclass
class CheckOutcome:
    """One axiom check.  ``checked`` counts the law instances the check
    certifies: for a generator translation scan, all (x, s, y) with s a
    generator, also when a reduced check on fewer instances decided it
    exactly (see :func:`validate_ring`)."""

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


def _row_scan(shape: tuple[int, int], law, witness_cap: int = 1,
              count: bool = True) -> tuple[int, list[tuple[int, int]]]:
    """Scan a ``shape`` boolean law in row blocks of about
    :data:`_BLOCK_ENTRIES` entries; ``law(lo, hi)`` returns its rows
    ``lo..hi-1``, true where the law holds.

    Returns the number of false entries and the first ``witness_cap`` of
    them as ``(row, col)`` in row-major order.  With ``count`` false the
    scan stops at the first block holding a false entry, so the count is
    only nonzero-or-not.  Blocks keep every temporary at block size, and
    laws gather with ``np.take`` along one axis of a contiguous table.
    """
    n, width = shape
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    violations, witnesses = 0, []
    for lo in range(0, n, step):
        ok = law(lo, min(lo + step, n))
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
        if not count:
            break
    return violations, witnesses


def _first_violation(n: int, law) -> tuple[int, int] | None:
    """The first ``(row, col)`` where the n x n ``law`` fails, or None."""
    _, w = _row_scan((n, n), law, 1, count=False)
    return w[0] if w else None


def _transposed(t: np.ndarray) -> np.ndarray:
    """A contiguous copy of ``t.T``, written one row block at a time."""
    out = np.empty(t.shape[::-1], dtype=t.dtype)
    step = max(1, _BLOCK_ENTRIES // max(t.shape[1], 1))
    for lo in range(0, t.shape[0], step):
        out[:, lo:lo + step] = t[lo:lo + step].T
    return out


def _first_bad(eq: np.ndarray) -> tuple[int, ...] | None:
    if eq.all():
        return None
    return tuple(int(v) for v in np.argwhere(~eq)[0])


def _outcome(name, eq, checked, mapper=None, note="") -> CheckOutcome:
    eq = np.asarray(eq)
    w = _first_bad(eq)
    if w is not None and mapper is not None:
        w = mapper(w)
    return CheckOutcome(name, w is None, checked, w, note)


def _outcome_at(name: str, n: int, law) -> CheckOutcome:
    """Outcome of the n x n ``law(lo, hi)`` (see :func:`_row_scan`)."""
    w = _first_violation(n, law)
    return CheckOutcome(name, w is None, n * n, w)


def _generator_scan(n: int, gens, law) -> tuple[int, int, int] | None:
    """The first failure ``(s, row, col)`` of the n x n laws
    ``law(s, lo, hi)``, generators s taken in order, or None."""
    for s in gens:
        w = _first_violation(n, functools.partial(law, s))
        if w is not None:
            return (s, *w)
    return None


def _xsy(hit):
    """A :func:`_generator_scan` failure ``(s, x, y)`` as the triple (x, s, y)."""
    return None if hit is None else (hit[1], hit[0], hit[2])


def validate_ring(ring: RingTable) -> RingValidation:
    """Run the full ring-axiom scan: additive commutative group,
    multiplicative monoid, distributivity, involution and imaginary-unit
    laws.  Every law is verified for all elements, with associativity and
    distributivity reduced to greedy generating sets (complete by the
    derivation-word induction; no sampling involved).

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

    in_range = (
        int(add.min(initial=0)) >= 0 and int(add.max(initial=0)) < n
        and int(mul.min(initial=0)) >= 0 and int(mul.max(initial=0)) < n
        and 0 <= ring.zero < n and 0 <= ring.one < n
    )
    if ring.star is not None:
        in_range = in_range and bool(np.array_equal(np.sort(ring.star), idx))
    if ring.i_elem is not None:
        in_range = in_range and 0 <= ring.i_elem < n
    ch["tables_well_formed"] = CheckOutcome("tables_well_formed", in_range, 2 * n * n)

    # add's transpose serves commutativity and, as xy + xs = entry
    # (xs, xy) of it, the left distributivity scan: one row of it per x.
    addT = _transposed(add)
    ch["add_commutative"] = _outcome_at(
        "add_commutative", n, lambda lo, hi: add[lo:hi] == addT[lo:hi])
    ch["add_identity"] = _outcome(
        "add_identity",
        (add[ring.zero, :] == idx) & (add[:, ring.zero] == idx), n,
        mapper=lambda w: (ring.zero, w[0]))
    neg_ok = (add[idx, ring.neg] == ring.zero) & (add[ring.neg, idx] == ring.zero)
    # ring.neg[x] is only the first right inverse in x's row: search the
    # rows it fails for any two-sided inverse.
    bad = np.flatnonzero(~neg_ok)
    neg_ok[bad] = ((add[bad] == ring.zero) & (add[:, bad].T == ring.zero)).any(axis=1)
    ch["add_inverses"] = _outcome("add_inverses", neg_ok, n)

    add_cl = greedy_closure(add, seed=ring.zero)
    gens_add = add_cl.gens
    v.info["additive_generators"] = list(gens_add)
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
        mapper=lambda w: (ring.one, w[0]))
    ch["zero_absorbs"] = _outcome(
        "zero_absorbs",
        (mul[ring.zero, :] == ring.zero) & (mul[:, ring.zero] == ring.zero), n,
        mapper=lambda w: (ring.zero, w[0]))

    def left_dist(s, lo, hi):  # x(y + s) == xy + xs
        xs = mul[lo:hi, s].astype(np.intp) * n
        return (np.take(mul[lo:hi], add[:, s], axis=1)
                == np.take(addT, xs[:, None] + mul[lo:hi]))

    hit = _generator_scan(n, gens_add, left_dist)
    del addT
    ch["left_distributive"] = CheckOutcome(
        "left_distributive", hit is None, per,
        None if hit is None else (hit[1], hit[2], hit[0]),
        note="additive generator scan")

    # With the additive group laws and left distributivity, the defect
    # (y+s)x - yx - sx is additive in x: it vanishes for every x once it
    # vanishes for x in the additive generators.
    reduced = group and ch["left_distributive"].passed and bool((
        mul[add[:, G][:, :, None], G]
        == add[mul[:, G][:, None, :], mul[np.ix_(G, G)]]).all())

    def right_dist(s, lo, hi):  # (y + s)x == yx + sx
        return (np.take(mul, add[lo:hi, s], axis=0)
                == np.take(add, mul[lo:hi].astype(np.intp) * n + mul[s]))

    hit = None if reduced else _generator_scan(n, gens_add, right_dist)
    ch["right_distributive"] = CheckOutcome(
        "right_distributive", hit is None, per, _xsy(hit),
        note="additive generator scan")

    mul_cl = greedy_closure(mul, seed=ring.one)
    gens_mul = mul_cl.gens
    v.info["multiplicative_generators"] = list(gens_mul)
    # (xy)z - x(yz) is additive in each argument once distributivity and
    # the additive group laws hold, so vanishing on additive-generator
    # triples is equivalent to vanishing everywhere.
    prereq = (group and ch["left_distributive"].passed
              and ch["right_distributive"].passed and ch["zero_absorbs"].passed)
    GG = mul[np.ix_(G, G)]
    cube_w = _first_bad(mul[GG[:, :, None], G] == mul[G[:, None, None], GG[None, :, :]])
    if n * n * max(len(gens_mul), 1) <= _LIGHT_SCAN_BUDGET:
        strategy = "generator translation scan"

        def mul_assoc(s, lo, hi):  # (x s) y == x (s y)
            return (np.take(mul, mul[lo:hi, s], axis=0)
                    == np.take(mul[lo:hi], mul[s], axis=1))

        # The translation scan runs only when the cube cannot decide it.
        hit = None if prereq and cube_w is None else _generator_scan(n, gens_mul, mul_assoc)
        massoc_ok, massoc_w = hit is None, _xsy(hit)
        checked = n * n * len(gens_mul)
    else:
        strategy = "additive generator cube"
        massoc_ok = prereq and cube_w is None
        massoc_w = None if cube_w is None else tuple(int(G[a]) for a in cube_w)
        if cube_w is None and not prereq:
            strategy += " (prerequisite scans failed)"
        checked = len(gens_add) ** 3
    ch["mul_associative"] = CheckOutcome(
        "mul_associative", massoc_ok, checked, massoc_w, note=strategy)
    v.info["mul_assoc_strategy"] = strategy

    if ring.star is not None:
        star = ring.star
        ch["star_involutive"] = _outcome("star_involutive", star[star] == idx, n)
        ch["star_fixes_one"] = CheckOutcome(
            "star_fixes_one", int(star[ring.one]) == ring.one, 1,
            None if int(star[ring.one]) == ring.one else (ring.one,))
        ch["star_additive"] = _outcome_at(
            "star_additive", n, lambda lo, hi: np.take(star, add[lo:hi]) == np.take(
                np.take(add, star[lo:hi], axis=0), star, axis=1))
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


@dataclass
class MatrixViewValidation:
    label: str
    checks: dict[str, CheckOutcome] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks.values())


def validate_matrix_view(view: MatrixRingView) -> MatrixViewValidation:
    """Scan the matrix-ring structure: encode/decode bijection, the matrix
    unit relations ``e_ij e_kl = delta_jk e_il``, the diagonal-sum identity,
    and the conjugate-transpose involution.
    """
    ring = view.ring
    k = view.k
    n = ring.size
    v = MatrixViewValidation(label=ring.label)
    ch = v.checks

    idx = np.arange(n)
    ch["encode_decode_bijective"] = _outcome(
        "encode_decode_bijective", view.encode(view.decode(idx)) == idx, n)

    eu = [[view.matrix_unit(i, j) for j in range(k)] for i in range(k)]
    ok = True
    wit = None
    pairs = 0
    for i in range(k):
        for j in range(k):
            for kk in range(k):
                for ll in range(k):
                    pairs += 1
                    got = int(ring.mul[eu[i][j], eu[kk][ll]])
                    want = eu[i][ll] if j == kk else ring.zero
                    if got != want:
                        ok, wit = False, (eu[i][j], eu[kk][ll])
    ch["matrix_unit_relations"] = CheckOutcome("matrix_unit_relations", ok, pairs, wit)

    total = eu[0][0]
    for i in range(1, k):
        total = int(ring.add[total, eu[i][i]])
    ch["one_is_diagonal_sum"] = CheckOutcome(
        "one_is_diagonal_sum", total == ring.one, 1,
        None if total == ring.one else (total, ring.one))

    if view.base.star is not None:
        expected = view.encode(mat_star(view.base, view.decode(idx)))
        ch["star_is_conjugate_transpose"] = _outcome(
            "star_is_conjugate_transpose", np.asarray(ring.star, dtype=np.int64) == expected, n)
    if view.base.i_elem is not None:
        want = view.scalar_matrix(view.base.i_elem)
        ch["i_is_scalar_identity"] = CheckOutcome(
            "i_is_scalar_identity", ring.i_elem == want, 1,
            None if ring.i_elem == want else (ring.i_elem, want))
    return v

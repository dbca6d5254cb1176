"""Constructive machinery behind the corner-relation equivalence.

This module implements, at finite scale, the block-matrix witnesses that
upgrade multiplicative maps to additive ones:

* the corner product ``[[1,a],[0,0]] [[b,0],[1,0]] = [[a+b,0],[0,0]]`` and
  the additivity certificate extracted from it,
* the fourth-power reduction from the imaginary-unit relation to the
  corner relation,
* the invertible parameter matrices gamma/alpha/beta,
* the u/v doubling pair and the recursive additivity closure over pools of
  units or unitaries (with the zero-padding rule for short sums).

Matrix computations here run entrywise over the base ring; the 2x2 matrix
ring is never materialized unless an exhaustive inverse scan needs its
candidate list.  The two identity scans evaluate their entrywise formulas
one row block of a at a time through ``rings._row_scan``, which counts
violations and lists witnesses for every check here, so no n x n grid is
built.  The doubling certificate is two arrays indexed by element: the
certified value and the pair (s, t) that first reached it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotAUnit,
    PreconditionFailed,
    SizeCapExceeded,
    effective_size_cap,
)
from .maps import (
    CheckReport,
    MapTable,
    WITNESS_CAP,
    _joint_report,
    _pair_law,
    _pair_report,
    _relation,
    corner_relation_holds,
    i_relation_holds,
    is_additive,
    is_multiplicative,
    tensor_id,
)
from .rings import RingTable, _pool, _row_scan, mat_mul, mat2_inverse_scan, units

TRACE_CONFLICT_CAP = 64


# ---------------------------------------------------------------------------
# Ring identities used by the proofs, scanned over all parameter pairs


def _guard_pair_scan(ring: RingTable, size_cap: int | None):
    cap = effective_size_cap(size_cap)
    if ring.size > cap:
        raise SizeCapExceeded(
            f"pair scan over {ring.size}^2 parameter pairs exceeds the cap")


def corner_product_identity_check(ring: RingTable,
                                  witness_cap: int = WITNESS_CAP,
                                  size_cap: int | None = None) -> CheckReport:
    """Verify ``[[1,a],[0,0]] [[b,0],[1,0]] = [[a+b,0],[0,0]]`` for all a, b.

    Computed entrywise over ``ring`` one row block of a at a time (the 2x2
    matrix ring itself is not materialized).
    """
    _guard_pair_scan(ring, size_cap)
    n = ring.size
    add, mul = ring.add, ring.mul
    one, zero = ring.one, ring.zero
    one_b, a_one = mul[one], mul[:, one]               # 1*b per b, a*1 per a
    c01 = add[mul[one, zero], mul[:, zero]] == zero    # 1*0 + a*0, per a
    c10 = add[mul[zero], mul[zero, one]] == zero       # 0*b + 0*1, per b
    c11 = add[mul[zero, zero], mul[zero, zero]] == zero

    def law(lo, hi):  # rows a in lo..hi-1
        eq00 = add[one_b[None, :], a_one[lo:hi, None]] == add[lo:hi]
        return eq00 & c01[lo:hi, None] & c10 & c11

    violations, witnesses = _row_scan((n, n), law, witness_cap)
    return CheckReport("corner_product_identity", violations == 0, witnesses,
                       {"checked": n * n, "violations": violations})


def _at(table: np.ndarray, rows, cols):
    """``table[x, y]`` for x in ``rows`` and y in ``cols``, each a scalar or
    a 1-D index array (a row gather, then a take along the rows)."""
    return np.take(table[rows], cols, axis=-1)


def _uv_closed_form(ring: RingTable, a, b):
    """The entries, row-major, of ``[[a+b, -1+ab*], [1-a*b, a*+b*]]``, the
    closed form of the doubling product u v, over a x b (each a scalar or
    a 1-D index array); each entry is computed when it is reached."""
    add, mul, neg, star, one = ring.add, ring.mul, ring.neg, ring.star, ring.one
    yield _at(add, a, b)
    yield add[neg[one]][_at(mul, a, star[b])]
    yield add[one][neg[_at(mul, star[a], b)]]
    yield _at(add, star[a], star[b])


def uv_product_identity_check(ring: RingTable,
                              witness_cap: int = WITNESS_CAP,
                              size_cap: int | None = None) -> CheckReport:
    """Verify the u/v block product for all pairs a, b of ``ring``.

    u = [[1, a], [-a*, 1]] and v = [[b, -1], [1, b*]]; the product must be
    [[a+b, -1+ab*], [1-a*b, a*+b*]].  The upper-left corner is the entry
    the additivity argument reads off.  Requires an involution.  Computed
    entrywise one row block of a at a time.
    """
    star = ring.require_star()
    _guard_pair_scan(ring, size_cap)
    n = ring.size
    add, mul, neg, one = ring.add, ring.mul, ring.neg, ring.one
    m1 = neg[one]
    b = np.arange(n)

    def law(lo, hi):  # rows a in lo..hi-1; want yields the closed form's entries
        a = b[lo:hi]
        na = neg[star[a]]  # -a*
        want = _uv_closed_form(ring, a, b)
        eq = add[mul[one, b][None, :], mul[a, one][:, None]] == next(want)  # 1*b + a*1
        eq &= add[mul[one, m1]][_at(mul, a, star)] == next(want)  # 1*(-1) + a*b*
        eq &= add[:, mul[one, one]][mul[na]] == next(want)  # (-a*)*b + 1*1
        eq &= _at(add, mul[na, m1], mul[one, star]) == next(want)  # (-a*)*(-1) + 1*b*
        return eq

    violations, witnesses = _row_scan((n, n), law, witness_cap)
    return CheckReport("uv_product_identity", violations == 0, witnesses,
                       {"checked": n * n, "violations": violations})


@dataclass
class UVPair:
    """The doubling pair u, v over a ring with involution, for one (a, b)."""

    a: int
    b: int
    u: np.ndarray
    v: np.ndarray
    uv: np.ndarray
    identity_holds: bool
    u_invertible: bool | None
    v_invertible: bool | None
    u_inverse: np.ndarray | None
    v_inverse: np.ndarray | None

    def to_json(self) -> dict:
        return {
            "a": self.a, "b": self.b,
            "u": self.u.tolist(), "v": self.v.tolist(), "uv": self.uv.tolist(),
            "identity_holds": self.identity_holds,
            "u_invertible": self.u_invertible,
            "v_invertible": self.v_invertible,
        }


def build_uv_pair(ring: RingTable, a: int, b: int) -> UVPair:
    """Build u = [[1,a],[-a*,1]], v = [[b,-1],[1,b*]] and their product.

    The product is checked against its closed form (upper-left ``a+b``).
    Invertibility of u and v is decided by exhaustive two-sided inverse
    scan when the candidate space fits the size cap, else left undecided
    (``None``); no determinant shortcut is ever taken.
    """
    star = ring.require_star()
    neg, one = ring.neg, ring.one
    a, b = int(a), int(b)
    u = np.array([[one, a], [int(neg[star[a]]), one]], dtype=np.int64)
    v = np.array([[b, int(neg[one])], [one, int(star[b])]], dtype=np.int64)
    uv = mat_mul(ring, u, v)
    identity_holds = bool(np.array_equal(uv.ravel(), list(_uv_closed_form(ring, a, b))))
    try:
        u_inv = mat2_inverse_scan(ring, u)
        v_inv = mat2_inverse_scan(ring, v)
        u_ok: bool | None = u_inv is not None
        v_ok: bool | None = v_inv is not None
    except SizeCapExceeded:
        u_inv = v_inv = None
        u_ok = v_ok = None
    return UVPair(a, b, u, v, uv, identity_holds, u_ok, v_ok, u_inv, v_inv)


@dataclass
class WitnessMatrix:
    name: str
    matrix: np.ndarray
    invertible: bool
    inverse: np.ndarray | None

    def to_json(self) -> dict:
        return {"name": self.name, "matrix": self.matrix.tolist(),
                "invertible": self.invertible,
                "inverse": None if self.inverse is None else self.inverse.tolist()}


def invertible_witness_matrices(ring: RingTable, lam: int, a: int, b: int,
                                c: int) -> tuple[WitnessMatrix, WitnessMatrix, WitnessMatrix]:
    """The parameter matrices gamma_c = [[c,l],[l,0]], alpha_a = [[1,a],[0,l]],
    beta_b = [[b,l],[1,0]] for a unit ``l``, each verified invertible by
    exhaustive two-sided inverse scan over all 2x2 matrices.
    """
    lam, a, b, c = int(lam), int(a), int(b), int(c)
    if lam not in set(int(u) for u in units(ring)):
        raise NotAUnit(f"{lam} is not a unit of {ring.label}")
    one, zero = ring.one, ring.zero
    mats = [
        ("gamma", np.array([[c, lam], [lam, zero]], dtype=np.int64)),
        ("alpha", np.array([[one, a], [zero, lam]], dtype=np.int64)),
        ("beta", np.array([[b, lam], [one, zero]], dtype=np.int64)),
    ]
    out = []
    for name, m in mats:
        inv = mat2_inverse_scan(ring, m)
        out.append(WitnessMatrix(name, m, inv is not None, inv))
    return tuple(out)


# ---------------------------------------------------------------------------
# Additivity certificates


@dataclass
class CornerCheck:
    corner: tuple[int, int]
    passed: bool
    checked: int
    witness: tuple[int, ...] | None


@dataclass
class CornerCertificate:
    """Certificate that a multiplicative map satisfying the corner relation
    decomposes entrywise and is additive corner by corner.

    ``decomposition_passed`` covers phi(x) = sum of phi(x_ij e_ij) over all
    x; each :class:`CornerCheck` covers phi(u e_ij) + phi(v e_ij) =
    phi((u+v) e_ij) over all base pairs.  ``additive_confirmed`` re-checks
    plain additivity of the map.
    """

    map: MapTable
    decomposition_passed: bool
    decomposition_checked: int
    decomposition_witness: tuple[int, ...] | None
    corners: list[CornerCheck]
    additive_confirmed: bool

    @property
    def passed(self) -> bool:
        return self.decomposition_passed and all(c.passed for c in self.corners)

    def to_json(self) -> dict:
        return {
            "map": self.map.to_json(),
            "pass": self.passed,
            "decomposition": {
                "pass": self.decomposition_passed,
                "checked": self.decomposition_checked,
                "witness": list(self.decomposition_witness)
                if self.decomposition_witness else None,
            },
            "corners": [
                {"corner": list(c.corner), "pass": c.passed, "checked": c.checked,
                 "witness": list(c.witness) if c.witness else None}
                for c in self.corners
            ],
            "additive_confirmed": self.additive_confirmed,
        }


def _embedding_tables(view):
    """Per matrix position, the ring index of ``value * e_ij`` for each base value."""
    base = view.base
    k = view.k
    tables = []
    vals = np.arange(base.size, dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mats = np.full((base.size, k, k), base.zero, dtype=np.int64)
            mats[:, i, j] = vals
            tables.append(np.asarray(view.encode(mats)))
    return tables


def extract_additivity(phi: MapTable) -> CornerCertificate:
    """Upgrade gate: from multiplicativity plus the corner relation, certify
    the entrywise decomposition of ``phi`` and its additivity on each
    corner.  Raises :class:`PreconditionFailed` when either gate fails.
    """
    mrep = is_multiplicative(phi)
    if not mrep.passed:
        raise PreconditionFailed("map is not multiplicative", mrep)
    crep = corner_relation_holds(phi)
    if not crep.passed:
        raise PreconditionFailed("map fails the corner relation", crep)
    view = phi.dom.matrix_view
    base = view.base
    cod = phi.cod
    img = phi.img
    emb = _embedding_tables(view)

    digits = view.digits
    total = img[emb[0][digits[:, 0]]]
    for pos in range(1, 4):
        total = cod.add[total, img[emb[pos][digits[:, pos]]]]
    dec = _pair_report("", total == img, 1)

    corners = []
    for pos, corner in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        e = emb[pos]
        rep = _pair_report("", cod.add[np.ix_(img[e], img[e])] == img[e[base.add]], 1)
        corners.append(CornerCheck(corner, rep.passed, rep.counts["checked"],
                                   rep.witnesses[0] if rep.witnesses else None))

    return CornerCertificate(
        map=phi,
        decomposition_passed=dec.passed,
        decomposition_checked=dec.counts["checked"],
        decomposition_witness=dec.witnesses[0] if dec.witnesses else None,
        corners=corners,
        additive_confirmed=is_additive(phi).passed,
    )


def fourth_power_reduction(phi: MapTable) -> CheckReport:
    """From the imaginary-unit relation to the corner relation.

    With P = phi(e11), Q = phi(e22) and z = phi(0), checks that
    ``(iP + iQ)**4 = phi(1)`` (forced by multiplicativity since i**4 = 1),
    reports whether ``(P+Q)**4 = P+Q`` and whether ``z = 0``, and passes
    exactly when the corner relation holds.  ``z`` is reported rather than
    assumed zero: the cross terms P*Q equal phi(0), so the reduction is
    only automatic for maps annihilating zero.
    """
    mrep = is_multiplicative(phi)
    if not mrep.passed:
        raise PreconditionFailed("map is not multiplicative", mrep)
    irep = i_relation_holds(phi)
    if not irep.passed:
        raise PreconditionFailed("map fails the imaginary-unit relation", irep)
    dom, cod, img = phi.dom, phi.cod, phi.img
    z = int(img[dom.zero])
    _, _, s = _relation("i_relation", dom, cod, img)  # s = iP + iQ
    _, phi_one, pq = _relation("corner", dom, cod, img)  # pq = P + Q
    s2 = int(cod.mul[s, s])
    fourth_ok = int(cod.mul[s2, s2]) == int(phi_one)
    pq2 = int(cod.mul[pq, pq])
    sum_ok = int(cod.mul[pq2, pq2]) == int(pq)

    crep = corner_relation_holds(phi)
    counts = {
        "checked": 3,
        "violations": int(not crep.passed),
        "phi_zero": z,
        "phi_zero_is_zero": int(z == cod.zero),
        "fourth_power_identity": int(fourth_ok),
        "sum_fourth_equals_sum": int(sum_ok),
    }
    return CheckReport("fourth_power_reduction", crep.passed,
                       list(crep.witnesses), counts)


# ---------------------------------------------------------------------------
# Doubling recursion


@dataclass
class DoublingConflict:
    level: int
    a: int
    b: int
    elem: int
    expected: int
    actual: int

    def to_json(self) -> list[int]:
        return [self.level, self.a, self.b, self.elem, self.expected, self.actual]


@dataclass
class DoublingLevel:
    level: int
    pairs_checked: int
    new_certified: int
    conflicts: int


@dataclass
class DoublingTrace:
    """Trace of the doubling additivity closure.

    The closure certifies sums of pool elements level by level: level d
    asserts ``phi(s+t) = cert(s) + cert(t)`` for certified sums s, t from
    level d-1, covering sums of up to ``2**depth`` pool elements.  With
    zero padding, shorter certified sums carry forward unchanged (the zero
    element is never split into pool summands); without it, each level
    only combines the previous level's new sums.

    The certificate is two arrays indexed by element: ``value``, the
    certified value (-1 while uncertified), and ``split``, the pair (s, t)
    that first reached it (``(u, -1)`` for a pool element u).

    ``conflicts`` is empty exactly when the certified extension is a
    well-defined function agreeing with the map.
    """

    map: MapTable
    mode: str
    depth: int
    zero_padding: bool
    pool: np.ndarray
    levels: list[DoublingLevel]
    conflicts: list[DoublingConflict]
    conflicts_total: int
    value: np.ndarray
    split: np.ndarray

    @property
    def ok(self) -> bool:
        return self.conflicts_total == 0

    def covered(self) -> np.ndarray:
        """Elements certified as sums of at most 2**depth pool elements."""
        return np.flatnonzero(self.value >= 0)

    def extension(self) -> dict[int, int]:
        covered = self.covered()
        return dict(zip(covered.tolist(), self.value[covered].tolist()))

    def to_json(self) -> dict:
        covered = self.covered()
        return {
            "map": self.map.to_json(),
            "mode": self.mode,
            "depth": self.depth,
            "zero_padding": self.zero_padding,
            "pool": [int(u) for u in self.pool],
            "levels": [
                {"level": lv.level, "pairs_checked": lv.pairs_checked,
                 "new_certified": lv.new_certified, "conflicts": lv.conflicts}
                for lv in self.levels
            ],
            "conflicts": [c.to_json() for c in self.conflicts],
            "conflicts_total": self.conflicts_total,
            "extension": np.column_stack([covered, self.value[covered]]).tolist(),
            "reps": np.column_stack([covered, self.split[covered]]).tolist(),
        }


def doubling_additivity_closure(phi: MapTable, mode: str = "units",
                                depth: int = 4,
                                include_zero_padding: bool = True) -> DoublingTrace:
    """Run the doubling recursion over the chosen pool.

    Precondition (verified first, else :class:`PreconditionFailed`): ``phi``
    is multiplicative on the pool.  Level 1 asserts pairwise additivity on
    the pool; each further level combines previously certified sums, so a
    conflict pinpoints the exact pair whose asserted sum disagrees with the
    map table.  Pairs are processed in ascending lexicographic order and
    the first decomposition reaching an element is the one recorded.
    """
    if not 1 <= depth <= 4:
        raise ValueError("depth must be in 1..4")
    dom, cod = phi.dom, phi.cod
    pool = _pool(dom, mode)
    img = phi.img
    pl = np.asarray(pool, dtype=np.int64)
    rep = _pair_law("pool_multiplicative", phi, "mul", WITNESS_CAP, pl, pl)
    if not rep.passed:
        raise PreconditionFailed("map is not multiplicative on the pool", rep)

    value = np.full(dom.size, -1, dtype=np.int64)
    split = np.full((dom.size, 2), -1, dtype=np.int64)
    value[pl] = img[pl]
    split[pl, 0] = pl
    img_t = img.astype(cod.add.dtype)
    new = pl
    levels: list[DoublingLevel] = []
    conflicts: list[DoublingConflict] = []
    conflicts_total = 0

    for level in range(1, depth + 1):
        base = np.flatnonzero(value >= 0) if include_zero_padding else new
        vals = value[base]
        found = [base[:0]]  # the level's new elements, block by block

        def law(lo, hi):
            """phi(s+t) == cert(s) + cert(t) for s in base[lo:hi], t in
            base; also certifies each uncertified sum at its first pair."""
            sums = dom.add[base[lo:hi, None], base]
            eq = img_t[sums] == cod.add[vals[lo:hi, None], vals]
            fresh = np.flatnonzero((value < 0)[sums])
            elems, first = np.unique(sums.ravel()[fresh], return_index=True)
            i, j = np.divmod(fresh[first], base.size)
            value[elems] = cod.add[vals[lo + i], vals[j]]
            split[elems] = np.column_stack([base[lo + i], base[j]])
            found.append(elems)
            return eq

        cap = TRACE_CONFLICT_CAP - len(conflicts)
        total, bad = _row_scan((base.size, base.size), law, cap)
        conflicts_total += total
        for i, j in bad:
            s, t = int(base[i]), int(base[j])
            e = int(dom.add[s, t])
            conflicts.append(DoublingConflict(
                level, s, t, e, int(cod.add[vals[i], vals[j]]), int(img[e])))
        new = np.sort(np.concatenate(found))
        levels.append(DoublingLevel(level, base.size * base.size, new.size, total))

    return DoublingTrace(
        map=phi, mode=mode, depth=depth,
        zero_padding=include_zero_padding,
        pool=pl, levels=levels, conflicts=conflicts,
        conflicts_total=conflicts_total, value=value, split=split)


# ---------------------------------------------------------------------------
# Group restriction


def group_hom_restriction_check(phi: MapTable, k: int, mode: str = "units",
                                witness_cap: int = WITNESS_CAP,
                                size_cap: int | None = None) -> CheckReport:
    """Check that the k-fold matrix lift of ``phi`` maps the chosen pool
    (units or unitaries) of the lifted domain into the codomain pool and is
    multiplicative on it.  ``k = 1`` checks ``phi`` itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    lifted = phi if k == 1 else tensor_id(phi, k, size_cap=size_cap)
    dring, cring = lifted.dom, lifted.cod
    pool = _pool(dring, mode)
    cod_pool = _pool(cring, mode)
    member = np.zeros(cring.size, dtype=bool)
    member[cod_pool] = True
    into = _pair_report("", member[lifted.img[pool]], witness_cap, axes=(pool,))
    mult = _pair_law("", lifted, "mul", witness_cap, pool, pool)
    return _joint_report(f"group_restriction_{mode}", [into, mult], witness_cap,
                         {"pool_size": int(pool.size),
                          "cod_pool_size": int(cod_pool.size), "k": k})

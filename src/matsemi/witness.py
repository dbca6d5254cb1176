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
candidate list.
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
from .rings import RingTable, _pool, mat_mul, mat2_inverse_scan, units

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

    Computed entrywise over ``ring`` (the 2x2 matrix ring itself is not
    materialized).
    """
    _guard_pair_scan(ring, size_cap)
    n = ring.size
    add, mul = ring.add, ring.mul
    one, zero = ring.one, ring.zero
    A = np.arange(n)
    c00 = add[mul[one, :][None, :], mul[:, one][:, None]]  # 1*b + a*1, grid [a,b]
    eq00 = c00 == add[A[:, None], A[None, :]]
    c01 = add[int(mul[one, zero]), mul[:, zero]] == zero   # 1*0 + a*0, per a
    c10 = add[mul[zero, :], int(mul[zero, one])] == zero   # 0*b + 0*1, per b
    c11 = int(add[mul[zero, zero], mul[zero, zero]]) == zero
    ok = eq00 & c01[:, None] & c10[None, :] & c11
    bad = np.argwhere(~ok)
    witnesses = [tuple(int(v) for v in row) for row in bad[:witness_cap]]
    return CheckReport("corner_product_identity", bad.shape[0] == 0, witnesses,
                       {"checked": n * n, "violations": int(bad.shape[0])})


def uv_product_identity_check(ring: RingTable,
                              witness_cap: int = WITNESS_CAP,
                              size_cap: int | None = None) -> CheckReport:
    """Verify the u/v block product for all pairs a, b of ``ring``.

    u = [[1, a], [-a*, 1]] and v = [[b, -1], [1, b*]]; the product must be
    [[a+b, -1+ab*], [1-a*b, a*+b*]].  The upper-left corner is the entry
    the additivity argument reads off.  Requires an involution.
    """
    star = ring.require_star()
    _guard_pair_scan(ring, size_cap)
    n = ring.size
    add, mul, neg = ring.add, ring.mul, ring.neg
    one = ring.one
    A = np.arange(n)
    a_col = A[:, None]
    b_row = A[None, :]
    sa_col = star[A][:, None]
    sb_row = star[A][None, :]
    # 1*b + a*1
    c00 = add[mul[one, :][None, :], mul[:, one][:, None]]
    eq = c00 == add[a_col, b_row]
    # 1*(-1) + a*b*
    c01 = add[int(mul[one, neg[one]]), mul[a_col, sb_row]]
    eq &= c01 == add[neg[one], mul[a_col, sb_row]]
    # (-a*)*b + 1*1
    c10 = add[mul[neg[star[A]], :], int(mul[one, one])]
    eq &= c10 == add[one, neg[mul[star[A], :]]]
    # (-a*)*(-1) + 1*b*
    c11 = add[mul[neg[star[A]], neg[one]][:, None], mul[one, star[A]][None, :]]
    eq &= c11 == add[sa_col, sb_row]
    bad = np.argwhere(~eq)
    witnesses = [tuple(int(v) for v in row) for row in bad[:witness_cap]]
    return CheckReport("uv_product_identity", bad.shape[0] == 0, witnesses,
                       {"checked": n * n, "violations": int(bad.shape[0])})


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
    add, mul, neg = ring.add, ring.mul, ring.neg
    one = ring.one
    a, b = int(a), int(b)
    u = np.array([[one, a], [int(neg[star[a]]), one]], dtype=np.int64)
    v = np.array([[b, int(neg[one])], [one, int(star[b])]], dtype=np.int64)
    uv = mat_mul(ring, u, v)
    expected = np.array([
        [int(add[a, b]), int(add[neg[one], mul[a, star[b]]])],
        [int(add[one, neg[mul[star[a], b]]]), int(add[star[a], star[b]])],
    ], dtype=np.int64)
    identity_holds = bool(np.array_equal(uv, expected))
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
    eq = total == img
    bad = np.flatnonzero(~eq)
    dec_witness = (int(bad[0]),) if bad.size else None

    corners = []
    B = base.size
    for pos, (i, j) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        e = emb[pos]
        lhs = cod.add[np.ix_(img[e], img[e])]
        rhs = img[e[base.add]]
        ceq = lhs == rhs
        cbad = np.argwhere(~ceq)
        corners.append(CornerCheck(
            (i, j), cbad.shape[0] == 0, B * B,
            tuple(int(v) for v in cbad[0]) if cbad.shape[0] else None))

    cert = CornerCertificate(
        map=phi,
        decomposition_passed=bad.size == 0,
        decomposition_checked=phi.dom.size,
        decomposition_witness=dec_witness,
        corners=corners,
        additive_confirmed=is_additive(phi).passed,
    )
    return cert


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
    extension_elems: np.ndarray
    extension_values: np.ndarray
    reps: dict[int, tuple[int, int]]

    @property
    def ok(self) -> bool:
        return self.conflicts_total == 0

    def covered(self) -> np.ndarray:
        """Elements certified as sums of at most 2**depth pool elements."""
        return self.extension_elems

    def extension(self) -> dict[int, int]:
        return {int(e): int(v) for e, v in
                zip(self.extension_elems, self.extension_values)}

    def to_json(self) -> dict:
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
            "extension": [[int(e), int(v)] for e, v in
                          zip(self.extension_elems, self.extension_values)],
            "reps": [[int(e), int(s), int(t)] for e, (s, t) in
                     sorted(self.reps.items())],
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

    cert_val = {int(u): int(img[u]) for u in pl}
    reps: dict[int, tuple[int, int]] = {int(u): (int(u), -1) for u in pl}
    prev_new = np.sort(pl)
    levels: list[DoublingLevel] = []
    conflicts: list[DoublingConflict] = []
    conflicts_total = 0

    for level in range(1, depth + 1):
        if include_zero_padding:
            base_elems = np.array(sorted(cert_val), dtype=np.int64)
        else:
            base_elems = prev_new
        if base_elems.size == 0:
            levels.append(DoublingLevel(level, 0, 0, 0))
            prev_new = base_elems
            continue
        vals = np.array([cert_val[int(e)] for e in base_elems], dtype=np.int64)
        S = dom.add[np.ix_(base_elems, base_elems)]
        V = cod.add[np.ix_(vals, vals)]
        target = img[S]
        bad = np.argwhere(V != target)
        lv_conflicts = int(bad.shape[0])
        conflicts_total += lv_conflicts
        for i, j in bad[:max(0, TRACE_CONFLICT_CAP - len(conflicts))]:
            conflicts.append(DoublingConflict(
                level, int(base_elems[i]), int(base_elems[j]),
                int(S[i, j]), int(V[i, j]), int(target[i, j])))
        flat = S.ravel()
        vflat = V.ravel()
        order = np.arange(flat.size)
        seen = np.zeros(dom.size, dtype=bool)
        seen[list(cert_val)] = True
        fresh_mask = ~seen[flat]
        new_elems = []
        if fresh_mask.any():
            vals_new, first = np.unique(flat[fresh_mask], return_index=True)
            pos = order[fresh_mask][first]
            for e, p in zip(vals_new, pos):
                i, j = divmod(int(p), base_elems.size)
                cert_val[int(e)] = int(vflat[p])
                reps[int(e)] = (int(base_elems[i]), int(base_elems[j]))
            new_elems = [int(e) for e in vals_new]
        levels.append(DoublingLevel(level, int(S.size), len(new_elems), lv_conflicts))
        prev_new = np.array(sorted(new_elems), dtype=np.int64)

    elems = np.array(sorted(cert_val), dtype=np.int64)
    values = np.array([cert_val[int(e)] for e in elems], dtype=np.int64)
    return DoublingTrace(
        map=phi, mode=mode, depth=depth,
        zero_padding=include_zero_padding,
        pool=pl, levels=levels, conflicts=conflicts,
        conflicts_total=conflicts_total,
        extension_elems=elems, extension_values=values, reps=reps)


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

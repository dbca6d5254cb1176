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

Matrix computations here run entrywise over the base ring, and the 2x2
matrix ring is never materialized (``rings.mat2_inverse_scan`` decides
candidate rows).  The two identity scans evaluate their entrywise formulas
one row block of a at a time through ``rings._row_scan``, as do the pair
laws behind the corner checks and the doubling pool gate, so no n x n or
pool x pool grid is built.  The pool gate reads the pool x pool grid only
when it cannot decide multiplicativity on x times the multiplicative
generators (rings not marked associative, or a map failing there).  The
doubling certificate is two arrays indexed by element: the certified
value and the pair (s, t) that first reached it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._closure import _first_unseen, _generator_law
from .errors import NotAUnit, PreconditionFailed, SizeCapExceeded
from .maps import (
    CheckReport,
    MapTable,
    WITNESS_CAP,
    _element_report,
    _pair_law,
    _relation,
    _relation_report,
    is_additive,
    is_multiplicative,
)
from .rings import (
    RingTable,
    _index_array,
    _pool,
    _row_scan,
    mat2_inverse_scan,
    mat_mul,
    op_closure,
    units,
)

TRACE_CONFLICT_CAP = 64


# ---------------------------------------------------------------------------
# Ring identities used by the proofs, scanned over all parameter pairs


# Both scans write out the block products' entries by hand rather than
# through ``rings._mat_entries``: most factors are 0, 1 or -1, so a product
# is one row or column of a table, where the kernel gathers every product
# pair by pair.  Routed through the kernel, the scans took 2-6x the CPU
# time on M2(Z7) and M2(Z3[i]) (2-vCPU Xeon, best of 3).


def corner_product_identity_check(ring: RingTable) -> CheckReport:
    """Verify ``[[1,a],[0,0]] [[b,0],[1,0]] = [[a+b,0],[0,0]]`` for all a, b.

    Computed entrywise over ``ring`` one row block of a at a time (the 2x2
    matrix ring itself is not materialized).
    """
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

    violations, witnesses = _row_scan((n, n), law, WITNESS_CAP)
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


def uv_product_identity_check(ring: RingTable) -> CheckReport:
    """Verify the u/v block product for all pairs a, b of ``ring``.

    u = [[1, a], [-a*, 1]] and v = [[b, -1], [1, b*]]; the product must be
    [[a+b, -1+ab*], [1-a*b, a*+b*]].  The upper-left corner is the entry
    the additivity argument reads off.  Requires an involution.  Computed
    entrywise one row block of a at a time.
    """
    star = ring.require_star()
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

    violations, witnesses = _row_scan((n, n), law, WITNESS_CAP)
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


def build_uv_pair(ring: RingTable, a: int, b: int) -> UVPair:
    """Build u = [[1,a],[-a*,1]], v = [[b,-1],[1,b*]] and their product.

    The product is checked against its closed form (upper-left ``a+b``).
    Invertibility of u and v is decided by exhaustive two-sided inverse
    scan when the candidate space fits the size cap, else left undecided
    (``None``); no determinant shortcut is ever taken.  Raises ValueError
    unless ``a`` and ``b`` are element indices.
    """
    star = ring.require_star()
    neg, one = ring.neg, ring.one
    a, b = _index_array("a and b", [a, b], ring.size, np.int64).tolist()
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


def invertible_witness_matrices(ring: RingTable, lam: int, a: int, b: int, c: int,
                                size_cap: int | None = None) -> tuple[WitnessMatrix, ...]:
    """The parameter matrices gamma_c = [[c,l],[l,0]], alpha_a = [[1,a],[0,l]],
    beta_b = [[b,l],[1,0]] for a unit ``l``, each verified invertible by
    exhaustive two-sided inverse scan over all 2x2 matrices, up to ``size_cap``.
    Raises ValueError unless ``lam``, ``a``, ``b`` and ``c`` are element indices.
    """
    lam, a, b, c = _index_array("lam, a, b and c", [lam, a, b, c], ring.size,
                                np.int64).tolist()
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
        inv = mat2_inverse_scan(ring, m, size_cap)
        out.append(WitnessMatrix(name, m, inv is not None, inv))
    return tuple(out)


# ---------------------------------------------------------------------------
# Additivity certificates


@dataclass
class CornerCertificate:
    """Certificate that a multiplicative map satisfying the corner relation
    decomposes entrywise and is additive corner by corner.

    ``decomposition`` covers phi(x) = sum of phi(x_ij e_ij) over all x;
    ``corners[i * k + j]``, predicate ``corner_{i}{j}``, covers
    phi(u e_ij) + phi(v e_ij) = phi((u+v) e_ij) over all base pairs.  Each
    report keeps its first witness.  ``additive_confirmed`` re-checks plain
    additivity of the map.
    """

    map: MapTable
    decomposition: CheckReport
    corners: list[CheckReport]
    additive_confirmed: bool

    @property
    def passed(self) -> bool:
        return self.decomposition.passed and all(c.passed for c in self.corners)


def _gate(phi: MapTable, relation: str, what: str):
    """Raise :class:`PreconditionFailed` unless ``phi`` is multiplicative
    and satisfies ``relation`` (see :func:`maps._relation`), checked in
    that order; ``what`` names the relation in the message."""
    rep = is_multiplicative(phi)
    if not rep.passed:
        raise PreconditionFailed("map is not multiplicative", rep)
    rep = _relation_report(relation, phi)
    if not rep.passed:
        raise PreconditionFailed(f"map fails the {what}", rep)


def extract_additivity(phi: MapTable) -> CornerCertificate:
    """Upgrade gate: from multiplicativity plus the corner relation, certify
    the entrywise decomposition of ``phi`` and its additivity on each
    corner.  Raises :class:`PreconditionFailed` when either gate fails.
    """
    _gate(phi, "corner", "corner relation")
    view = phi.dom.matrix_view
    base, cod, img = view.base, phi.cod, phi.img
    total, corners = None, []
    for pos in range(view.k * view.k):
        i, j = divmod(pos, view.k)
        emb = view._placed(np.arange(base.size), [pos])  # s e_ij
        term = img[emb[view.digits[:, pos]]]
        total = term if total is None else cod.add[total, term]
        corners.append(_pair_law(f"corner_{i}{j}", MapTable(base, cod, img[emb]), "add", 1))
    return CornerCertificate(
        map=phi,
        decomposition=_element_report("decomposition", total == img, 1),
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

    Raises :class:`PreconditionFailed` unless ``phi`` is multiplicative and
    satisfies the imaginary-unit relation.
    """
    _gate(phi, "i_relation", "imaginary-unit relation")
    return _fourth_power_report(phi)


def _fourth_power_report(phi: MapTable) -> CheckReport:
    """:func:`fourth_power_reduction` without its gates, for callers that
    have already decided both."""
    dom, cod, img = phi.dom, phi.cod, phi.img
    z = int(img[dom.zero])
    _, _, s = _relation("i_relation", dom, cod, img)  # s = iP + iQ
    elems, phi_one, pq = _relation("corner", dom, cod, img)  # pq = P + Q
    s2 = int(cod.mul[s, s])
    fourth_ok = int(cod.mul[s2, s2]) == int(phi_one)
    pq2 = int(cod.mul[pq, pq])
    sum_ok = int(cod.mul[pq2, pq2]) == int(pq)
    corner_ok = bool(phi_one == pq)
    counts = {
        "checked": 3,
        "violations": int(not corner_ok),
        "phi_zero": z,
        "phi_zero_is_zero": int(z == cod.zero),
        "fourth_power_identity": int(fourth_ok),
        "sum_fourth_equals_sum": int(sum_ok),
    }
    return CheckReport("fourth_power_reduction", corner_ok,
                       [] if corner_ok else [elems], counts)


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

    ``levels[d - 1].pairs_checked`` counts the pairs level d reports on,
    its whole base x base grid.  With zero padding some of them are
    carried over from level d-1 rather than asserted again (see
    :func:`doubling_additivity_closure`); a conflicting pair counts once in
    every level whose grid holds it, in ``conflicts`` per level and in
    ``conflicts_total``.

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


def _take2(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[rows[:, None], cols]`` by one ``np.take`` along each axis.
    The shorter index is gathered first, so the temporary is at most
    ``min(rows.size, cols.size)`` full table rows or columns."""
    if rows.size <= cols.size:
        return np.take(np.take(table, rows, axis=0), cols, axis=1)
    return np.take(np.take(table, cols, axis=1), rows, axis=0)


def doubling_additivity_closure(phi: MapTable, mode: str = "units",
                                depth: int = 4,
                                include_zero_padding: bool = True) -> DoublingTrace:
    """Run the doubling recursion over the chosen pool.

    Precondition (verified first, else :class:`PreconditionFailed`): ``phi``
    is multiplicative on the pool.  When both rings are marked associative
    by construction (:func:`rings._built_ring`) it is first decided ring-wide,
    on x times the generators of ``op_closure(dom, "mul")``
    (:func:`_closure._generator_law`): a map passing there is multiplicative
    on every pair (:meth:`ClosureStages.ready_pairs`), so on the pool.  Any
    other map or ring runs the pool-pair scan, whose report a refusal
    carries.

    Level 1 asserts pairwise additivity on the pool; each further level
    combines previously certified sums, so a conflict pinpoints the exact
    pair whose asserted sum disagrees with the map table.  Pairs are
    processed in ascending lexicographic order and the first decomposition
    reaching an element is the one recorded.

    With zero padding the levels are semi-naive.  Level d >= 2 reports on
    the grid base x base of every certified element, but asserts only the
    pairs with a summand certified during level d-1 (``fresh``): first
    fresh x base, then old x fresh, where ``old`` is level d-1's base.  The
    old x old pairs are level d-1's whole grid: a certified value never
    changes, so they keep their verdicts, and level d carries over level
    d-1's conflict count and listed conflicts, relabelled.  Each sum is
    certified at its lexicographically first pair over both regions, each
    region finding its first hits against the certified set as the level
    started.  At level 1, ``old`` is empty and ``fresh`` is the pool, so
    the level scans its whole grid, as does every level without padding.
    Once every element is certified or reached in a scan, its remaining
    row blocks only count conflicts: no block can hold a first hit.
    """
    if not 1 <= depth <= 4:
        raise ValueError("depth must be in 1..4")
    dom, cod = phi.dom, phi.cod
    pool = _pool(dom, mode)
    img = phi.img
    pl = np.asarray(pool, dtype=np.int64)
    if not (dom._associative and cod._associative
            and _generator_law(dom.mul, cod.mul, img, op_closure(dom, "mul").gens)):
        rep = _pair_law("pool_multiplicative", phi, "mul", WITNESS_CAP, pl)
        if not rep.passed:
            raise PreconditionFailed("map is not multiplicative on the pool", rep)

    n = dom.size
    value = np.full(n, -1, dtype=np.int64)
    split = np.full((n, 2), -1, dtype=np.int64)
    value[pl] = img[pl]
    split[pl, 0] = pl
    img_t = img.astype(cod.add.dtype)

    def scan(rows, cols, first, cap):
        """Assert phi(s+t) == cert(s) + cert(t) for s in ``rows``, t in
        ``cols`` (ascending certified elements); lower ``first[e]`` to the
        key s * n + t of the first pair reaching each uncertified sum e.
        Returns the number of failed pairs and the first ``cap`` of them."""
        seen = value >= 0
        vals = value[cols]

        def law(lo, hi):
            r = rows[lo:hi]
            sums = _take2(dom.add, r, cols)
            eq = np.take(img_t, sums) == _take2(cod.add, value[r], vals)
            if not seen.all():  # else no block of this scan has a first hit
                elems, pos = _first_unseen(sums.ravel(), seen)
                seen[elems] = True
                i, j = np.divmod(pos, cols.size)
                first[elems] = np.minimum(first[elems], r[i] * n + cols[j])
            return eq

        total, bad = _row_scan((rows.size, cols.size), law, cap)
        return total, [(int(rows[i]), int(cols[j])) for i, j in bad]

    fresh = pl  # certified during the previous level; the pool before level 1
    old = fresh[:0]  # the previous level's base
    levels: list[DoublingLevel] = []
    conflicts: list[DoublingConflict] = []
    conflicts_total = 0

    for level in range(1, depth + 1):
        cap = TRACE_CONFLICT_CAP - len(conflicts)
        if include_zero_padding:
            base = np.flatnonzero(value >= 0)
            regions = [(fresh, base), (old, fresh)]
            total = levels[-1].conflicts if levels else 0
            listed = [replace(c, level=level) for c in conflicts
                      if c.level == level - 1]
        else:
            base, regions, total, listed = fresh, [(fresh, fresh)], 0, []
        first = np.full(n, n * n, dtype=np.int64)
        for rows, cols in regions:
            count, bad = scan(rows, cols, first, cap)
            total += count
            for s, t in bad:
                e = int(dom.add[s, t])
                listed.append(DoublingConflict(
                    level, s, t, e, int(cod.add[value[s], value[t]]), int(img[e])))
        listed.sort(key=lambda c: (c.a, c.b))
        conflicts += listed[:cap]
        conflicts_total += total
        new = np.flatnonzero(first < n * n)
        s, t = np.divmod(first[new], n)
        value[new] = cod.add[value[s], value[t]]
        split[new] = np.column_stack([s, t])
        levels.append(DoublingLevel(level, base.size * base.size, new.size, total))
        old, fresh = base, new

    return DoublingTrace(
        map=phi, mode=mode, depth=depth,
        zero_padding=include_zero_padding,
        pool=pl, levels=levels, conflicts=conflicts,
        conflicts_total=conflicts_total, value=value, split=split)

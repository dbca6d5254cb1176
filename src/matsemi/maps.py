"""Total maps between finite rings and the relation predicates on them.

A :class:`MapTable` is an arbitrary function between two rings, stored as
an image array over element indices.  The predicates decide, by full pair
scans, whether a map is multiplicative, additive, involution-preserving,
whether it satisfies the corner relation ``phi(1) = phi(e11) + phi(e22)``
on a 2x2 matrix ring, and the imaginary-unit analogue
``phi(i) = i phi(e11) + i phi(e22)``.

Every predicate returns a :class:`CheckReport` whose violating witnesses
are listed in ascending lexicographic index order, capped at
:data:`WITNESS_CAP` per report so output stays diffable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MapFormatError, NonCentralScalar, NotAMatrixRing
from .rings import MatrixRingView, RingTable, make_matrix_ring, parse_ring_spec

WITNESS_CAP = 16


class MapTable:
    """A total function between two rings, as an image array of cod indices."""

    def __init__(self, dom: RingTable, cod: RingTable, img):
        try:
            img = np.asarray(img, dtype=np.int64)
        except OverflowError:
            raise MapFormatError(
                "image array contains out-of-range codomain indices") from None
        if img.shape != (dom.size,):
            raise MapFormatError(
                f"image array has length {img.shape}, domain has {dom.size} elements")
        if img.size and (img.min() < 0 or img.max() >= cod.size):
            raise MapFormatError("image array contains out-of-range codomain indices")
        self.dom = dom
        self.cod = cod
        self.img = img
        self.img.setflags(write=False)

    def __call__(self, x: int) -> int:
        return int(self.img[x])

    def to_json(self) -> dict:
        return {"dom": self.dom.label, "cod": self.cod.label,
                "img": [int(v) for v in self.img]}

    @classmethod
    def from_json(cls, obj, size_cap: int | None = None) -> "MapTable":
        """Load from the wire format ``{dom, cod, img}``: two ring spec
        strings and a list of JSON integers."""
        if not isinstance(obj, dict):
            raise MapFormatError("map JSON must be an object")
        missing = {"dom", "cod", "img"} - set(obj)
        if missing:
            raise MapFormatError(f"map JSON lacks fields: {sorted(missing)}")
        if not (isinstance(obj["dom"], str) and isinstance(obj["cod"], str)):
            raise MapFormatError("dom and cod must be ring spec strings")
        img = obj["img"]
        if not isinstance(img, list) or any(type(v) is not int for v in img):
            raise MapFormatError("img must be a list of integers")
        return cls(parse_ring_spec(obj["dom"], size_cap=size_cap),
                   parse_ring_spec(obj["cod"], size_cap=size_cap), img)

    def __repr__(self):
        return f"MapTable({self.dom.label} -> {self.cod.label})"


def identity_map(ring: RingTable) -> MapTable:
    return MapTable(ring, ring, np.arange(ring.size))


def zero_map(dom: RingTable, cod: RingTable) -> MapTable:
    return MapTable(dom, cod, np.full(dom.size, cod.zero))


def constant_map(dom: RingTable, cod: RingTable, value: int) -> MapTable:
    return MapTable(dom, cod, np.full(dom.size, value))


def power_map(ring: RingTable, exponent: int) -> MapTable:
    """x -> x**exponent (exponent >= 1, computed through the tables)."""
    if exponent < 1:
        raise ValueError("exponent must be >= 1")
    idx = np.arange(ring.size)
    acc = idx.copy()
    for _ in range(exponent - 1):
        acc = ring.mul[acc, idx]
    return MapTable(ring, ring, acc)


def from_callable(dom: RingTable, cod: RingTable, fn) -> MapTable:
    return MapTable(dom, cod, [fn(x) for x in range(dom.size)])


def determinant_map(view: MatrixRingView, cod: RingTable | None = None) -> MapTable:
    """ad - bc on a 2x2 matrix ring (meaningful over commutative bases)."""
    if view.k != 2:
        raise NotAMatrixRing("determinant map needs a 2x2 matrix ring")
    base = view.base
    d = view.digits
    det = base.add[base.mul[d[:, 0], d[:, 3]],
                   base.neg[base.mul[d[:, 1], d[:, 2]]]]
    return MapTable(view.ring, cod if cod is not None else base, det)


@dataclass
class CheckReport:
    """Outcome of a predicate scan with explicit violating witnesses.

    ``passed`` is true exactly when ``witnesses`` would be empty before
    capping; ``counts`` always carries ``checked`` and ``violations`` and
    may add predicate-specific summary entries.
    """

    predicate: str
    passed: bool
    witnesses: list[tuple[int, ...]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "predicate": self.predicate,
            "pass": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
            "counts": dict(self.counts),
        }


def _pair_report(name: str, eq: np.ndarray, witness_cap: int,
                 extra_counts: dict | None = None) -> CheckReport:
    eq = np.asarray(eq)
    violations = eq.size - int(np.count_nonzero(eq))
    counts = {"checked": int(eq.size), "violations": violations}
    if extra_counts:
        counts.update(extra_counts)
    witnesses = []
    if violations:
        # Only the leading rows that hold the first ``witness_cap``
        # violations are searched, so no index array over all of them is built.
        rows = eq.reshape(len(eq), -1)
        bad_per_row = rows.shape[1] - np.count_nonzero(rows, axis=1)
        stop = int(np.searchsorted(np.cumsum(bad_per_row), witness_cap)) + 1
        witnesses = [tuple(int(v) for v in w)
                     for w in np.argwhere(~eq[:stop])[:witness_cap]]
    return CheckReport(name, violations == 0, witnesses, counts)


def is_unital(phi: MapTable) -> bool:
    return int(phi.img[phi.dom.one]) == phi.cod.one


def is_multiplicative(phi: MapTable, witness_cap: int = WITNESS_CAP) -> CheckReport:
    """phi(x*y) = phi(x)*phi(y) over all pairs."""
    img = phi.img.astype(phi.cod.mul.dtype)
    eq = img[phi.dom.mul] == phi.cod.mul[img[:, None], img[None, :]]
    return _pair_report("multiplicative", eq, witness_cap,
                        {"unital": int(is_unital(phi))})


def is_additive(phi: MapTable, witness_cap: int = WITNESS_CAP) -> CheckReport:
    """phi(x+y) = phi(x)+phi(y) over all pairs."""
    img = phi.img.astype(phi.cod.add.dtype)
    eq = img[phi.dom.add] == phi.cod.add[img[:, None], img[None, :]]
    return _pair_report("additive", eq, witness_cap)


def is_ring_hom(phi: MapTable, witness_cap: int = WITNESS_CAP) -> CheckReport:
    """Conjunction of the multiplicative and additive scans."""
    m = is_multiplicative(phi, witness_cap)
    a = is_additive(phi, witness_cap)
    witnesses = (m.witnesses + a.witnesses)[:witness_cap]
    counts = {
        "checked": m.counts["checked"] + a.counts["checked"],
        "violations": m.counts["violations"] + a.counts["violations"],
        "mul_violations": m.counts["violations"],
        "add_violations": a.counts["violations"],
        "unital": m.counts["unital"],
    }
    return CheckReport("ring_hom", m.passed and a.passed, witnesses, counts)


def respects_star(phi: MapTable, witness_cap: int = WITNESS_CAP) -> CheckReport:
    """phi(x*) = phi(x)* over all elements."""
    ds = phi.dom.require_star()
    cs = phi.cod.require_star()
    eq = phi.img[ds] == cs[phi.img]
    return _pair_report("star", eq, witness_cap)


def _mat2_view(ring: RingTable) -> MatrixRingView:
    view = ring.matrix_view
    if view is None or view.k != 2:
        raise NotAMatrixRing(
            f"ring {ring.label} was not built as a 2x2 matrix ring")
    return view


def corner_relation_holds(phi: MapTable) -> CheckReport:
    """phi(1) = phi(e11) + phi(e22) on a 2x2 matrix ring domain."""
    view = _mat2_view(phi.dom)
    e11 = view.matrix_unit(0, 0)
    e22 = view.matrix_unit(1, 1)
    lhs = int(phi.img[phi.dom.one])
    rhs = int(phi.cod.add[phi.img[e11], phi.img[e22]])
    ok = lhs == rhs
    witnesses = [] if ok else [(phi.dom.one, e11, e22)]
    return CheckReport("corner_relation", ok, witnesses,
                       {"checked": 1, "violations": int(not ok)})


def i_relation_holds(phi: MapTable) -> CheckReport:
    """phi(i·1) = i·phi(e11) + i·phi(e22) on a 2x2 matrix ring domain."""
    view = _mat2_view(phi.dom)
    i_dom = phi.dom.require_i()
    i_cod = phi.cod.require_i()
    e11 = view.matrix_unit(0, 0)
    e22 = view.matrix_unit(1, 1)
    lhs = int(phi.img[i_dom])
    rhs = int(phi.cod.add[phi.cod.mul[i_cod, phi.img[e11]],
                          phi.cod.mul[i_cod, phi.img[e22]]])
    ok = lhs == rhs
    witnesses = [] if ok else [(i_dom, e11, e22)]
    return CheckReport("i_relation", ok, witnesses,
                       {"checked": 1, "violations": int(not ok)})


def tensor_id(phi: MapTable, k: int, size_cap: int | None = None) -> MapTable:
    """Entrywise application of ``phi`` on k x k matrices: decode, map each
    entry through ``phi``, encode."""
    dv = make_matrix_ring(phi.dom, k, size_cap=size_cap)
    cv = make_matrix_ring(phi.cod, k, size_cap=size_cap)
    mapped = phi.img[dv.digits].astype(np.int64)
    return MapTable(dv.ring, cv.ring, mapped @ cv.place)


def scalar_linearity_holds(phi: MapTable, scalars,
                           witness_cap: int = WITNESS_CAP) -> CheckReport:
    """Linearity of ``phi`` over a designated central scalar set.

    Checks phi(s·x) = phi(s·1)·phi(x) for every scalar s and element x,
    and additivity of ``phi`` on the span {s·e11 + t·e22 : s, t scalars}.
    Raises :class:`NonCentralScalar` when a scalar fails to commute with
    some domain element.
    """
    view = _mat2_view(phi.dom)
    dom, cod, img = phi.dom, phi.cod, phi.img
    scalars = [int(s) for s in scalars]
    for s in scalars:
        diff = np.flatnonzero(dom.mul[s, :] != dom.mul[:, s])
        if diff.size:
            raise NonCentralScalar(
                f"scalar {s} does not commute with element {int(diff[0])}")
    witnesses: list[tuple[int, ...]] = []
    violations = 0
    checked = 0
    for s in scalars:
        eq = img[dom.mul[s, :]] == cod.mul[int(img[s]), img]
        checked += eq.size
        bad = np.flatnonzero(~eq)
        violations += bad.size
        witnesses.extend((s, int(x)) for x in bad[: max(0, witness_cap - len(witnesses))])
    e11 = view.matrix_unit(0, 0)
    e22 = view.matrix_unit(1, 1)
    sarr = np.asarray(scalars)
    span = np.unique(dom.add[np.ix_(dom.mul[sarr, e11], dom.mul[sarr, e22])])
    eq = img[dom.add[np.ix_(span, span)]] == cod.add[np.ix_(img[span], img[span])]
    checked += eq.size
    bad = np.argwhere(~eq)
    violations += bad.shape[0]
    witnesses.extend(
        (int(span[i]), int(span[j]))
        for i, j in bad[: max(0, witness_cap - len(witnesses))])
    return CheckReport("scalar_linearity", violations == 0, witnesses,
                       {"checked": checked, "violations": violations,
                        "scalars": len(scalars), "span_size": int(span.size)})

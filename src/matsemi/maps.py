"""Total maps between finite rings and the relation predicates on them.

A :class:`MapTable` is an arbitrary function between two rings, stored as
an image array over element indices.  The predicates decide whether a map
is multiplicative, additive, involution-preserving, whether it satisfies
the corner relation ``phi(1) = phi(e11) + phi(e22)`` on a 2x2 matrix
ring, and the imaginary-unit analogue ``phi(i) = i phi(e11) + i phi(e22)``.
The element laws are read on every element.  On rings associative by
construction, a pair law on a grid of several row blocks is first decided
on x times the generators of the domain's closure, and only a failure
runs the full scan.

Every predicate returns a :class:`CheckReport` whose violating witnesses
are listed in ascending lexicographic index order, capped at
:data:`WITNESS_CAP` per report so output stays diffable.  Its counts and
witnesses are those of the full scan, whichever way it was decided.

Each law is stated once.  ``_pair_law`` decides phi(x o y) = phi(x) o
phi(y) for o in {*, +} for one map, over all pairs or over the pairs of
one element set, through ``_closure._generator_law`` (the yes/no check
of one image array, or each row of a stack, on x times a generator set)
and the full scan; ``_law_kernel`` decides the same law for a stack of
maps on the ready pairs of a generator closure, reading images through a
column source and dropping each map at its first failed block of pairs
(``_stacked_law`` feeds it an image stack, the tensor suite lifted
images); and ``_relation`` gives both sides of the unital, corner and
imaginary-unit relations for one image array or a stack of them.  The
predicates here, the search, the witness scans, the verification suites
and the CLI all use these.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._closure import _block_rows, _generator_law
from .errors import MapFormatError, NotAMatrixRing
from .rings import (
    MatrixRingView,
    RingTable,
    _row_scan,
    make_matrix_ring,
    op_closure,
    parse_ring_spec,
)

WITNESS_CAP = 16


class MapTable:
    """A total function between two rings, as an image array of cod indices.

    Raises :class:`MapFormatError` unless ``img`` is an integer array of
    one codomain index per domain element; booleans, floats and strings
    are refused rather than cast."""

    def __init__(self, dom: RingTable, cod: RingTable, img):
        img = np.asarray(img)
        if not np.issubdtype(img.dtype, np.integer):
            raise MapFormatError(
                f"image array must hold integer indices, not {img.dtype}")
        if img.shape != (dom.size,):
            raise MapFormatError(
                f"image array has length {img.shape}, domain has {dom.size} elements")
        if img.size and (img.min() < 0 or img.max() >= cod.size):
            raise MapFormatError("image array contains out-of-range codomain indices")
        self.dom = dom
        self.cod = cod
        # A copy: freezing the caller's own array would make it read-only.
        self.img = np.array(img, dtype=np.int64)
        self.img.setflags(write=False)

    def __call__(self, x: int) -> int:
        return int(self.img[x])

    def to_json(self) -> dict:
        return {"dom": self.dom.label, "cod": self.cod.label,
                "img": self.img.tolist()}

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


def determinant_map(view: MatrixRingView) -> MapTable:
    """ad - bc on a 2x2 matrix ring (meaningful over commutative bases)."""
    if view.k != 2:
        raise NotAMatrixRing("determinant map needs a 2x2 matrix ring")
    base = view.base
    d = view.digits
    det = base.add[base.mul[d[:, 0], d[:, 3]],
                   base.neg[base.mul[d[:, 1], d[:, 2]]]]
    return MapTable(view.ring, base, det)


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


def _element_report(name: str, eq: np.ndarray, witness_cap: int) -> CheckReport:
    """Report over the per-element check ``eq``: its size, its false
    entries and the first ``witness_cap`` of them as 1-tuples of their
    element indices."""
    bad = np.flatnonzero(~np.asarray(eq))
    witnesses = [(int(v),) for v in bad[:witness_cap]]
    return CheckReport(name, bad.size == 0, witnesses,
                       {"checked": len(eq), "violations": int(bad.size)})


def _joint_report(name: str, parts: list[CheckReport],
                  extra_counts: dict | None = None) -> CheckReport:
    """One report for the conjunction of ``parts``: counts summed, witnesses
    concatenated in order and capped at :data:`WITNESS_CAP`."""
    violations = sum(r.counts["violations"] for r in parts)
    counts = {"checked": sum(r.counts["checked"] for r in parts),
              "violations": violations, **(extra_counts or {})}
    witnesses = [w for r in parts for w in r.witnesses][:WITNESS_CAP]
    return CheckReport(name, violations == 0, witnesses, counts)


def _pair_law(name: str, phi: MapTable, op: str, witness_cap: int,
              elems=None, extra_counts: dict | None = None) -> CheckReport:
    """The pair law phi(x o y) = phi(x) o phi(y) for ``op`` in {"mul", "add"}
    over all pairs (x, y) in ``elems`` x ``elems``, by default every element.

    Witnesses are element pairs in the order of the grid (lexicographic for
    sorted ``elems``), read one row block of x at a time
    (:func:`rings._row_scan`), with images gathered in the codomain
    table's dtype.

    Over all pairs of a grid of several row blocks, with both rings marked
    associative by construction (:func:`rings._built_ring`), the law is
    first decided on x times the generators of ``op_closure(dom, op)``
    (:func:`_closure._generator_law`; the closure is built on first use).
    Only a map failing there runs the full scan, so counts and witnesses
    are those of the full scan.

    The guard ``n > _block_rows(n)`` keeps a grid of one block, every ring
    of up to 256 elements, on the one-pass full scan, which reads no
    closure.  Past one block, building the closure costs up to about twice
    the scan it replaces, once per ring, and a kept closure (which the
    axiom scans and the search share) decides a passing map in a small
    fraction of it: the identity's multiplicativity on M2(Z5) takes 2.5 ms
    with the closure built, 0.19 ms once kept and 2.0 ms as a full scan,
    on zmod:1000 5.3, 0.11 and 3.5 ms.
    """
    dom, cod = phi.dom, phi.cod
    dom_t, cod_t = getattr(dom, op), getattr(cod, op)
    xs = None if elems is None else np.asarray(elems, dtype=np.int64)
    n = dom.size if xs is None else xs.size
    passed = (xs is None and n > _block_rows(n) and dom._associative
              and cod._associative
              and _generator_law(dom_t, cod_t, phi.img, op_closure(dom, op).gens))
    violations, found = 0, []
    if not passed:
        img = phi.img.astype(cod_t.dtype)
        img_y = img if xs is None else img[xs]

        def law(lo, hi):  # rows x of the grid; without xs, row slices and whole rows
            x = slice(lo, hi) if xs is None else xs[lo:hi]
            prod = dom_t[x] if xs is None else np.take(dom_t[x], xs, axis=1)
            return np.take(img, prod) == np.take(np.take(cod_t, img[x], axis=0),
                                                 img_y, axis=1)
        violations, found = _row_scan((n, n), law, witness_cap)
    if xs is not None:  # grid positions to elements
        found = [(int(xs[r]), int(xs[c])) for r, c in found]
    return CheckReport(name, violations == 0, found,
                       {"checked": n * n, "violations": violations,
                        **(extra_counts or {})})


def _law_kernel(op: str, dom: RingTable, cod: RingTable, m: int, column) -> np.ndarray:
    """One bool per map ``0..m-1`` of a stack of maps ``dom -> cod``:
    whether it satisfies phi(x o y) = phi(x) o phi(y) for ``op`` in
    {"mul", "add"} over all pairs.

    ``column(elems, live)`` returns the images of the elements ``elems``
    under the maps ``live`` (ascending map numbers), one row per map.  The
    kernel walks the ready pairs (x, g) of the closure of dom's ``op`` table
    (:func:`~matsemi.rings.op_closure`) one stage at a time.  On entering a
    stage it fetches the images of the stage's new elements for the live
    maps only; each stage is closed under right multiplication by the
    generators so far, so every x, g and x o g of the stage has its images
    by then.  The stage's pairs are checked in row blocks of about
    :data:`_closure._BLOCK_ENTRIES` pairs x live maps, and after each
    block every map that failed a pair is dropped.

    The ready pairs decide the law when both op tables are associative
    (:meth:`ClosureStages.ready_pairs`), which the rings marked so by
    construction are (:func:`rings._built_ring`).  Otherwise the maps that
    passed them are re-decided over all pairs, as one stack
    (:func:`_closure._generator_law` over every element).  Its callers
    are the stacks: :func:`_stacked_law` and the tensor suite's lifted
    images; one image array goes through :func:`_closure._generator_law`.
    """
    cod_t = getattr(cod, op)
    flat = cod_t.ravel()
    cl = op_closure(dom, op)
    starts = cl.stage_starts
    rank = np.empty(dom.size, dtype=np.int64)  # element -> its row in cols
    rank[cl.order] = np.arange(dom.size)
    live = np.arange(m)
    cols = np.empty((0, m), dtype=cod_t.dtype)  # row r: order[r]'s images by live map
    for p, (xs, gs, xgs) in enumerate(cl.ready_pairs):
        if not live.size:
            break
        lo, hi = starts[p], starts[p + 1]
        grown = np.empty((hi, live.size), dtype=cod_t.dtype)
        grown[:lo] = cols
        grown[lo:] = column(cl.order[lo:hi], live).T
        cols = grown
        rx, rg, rxg = rank[xs], rank[gs], rank[xgs]
        i = 0
        while i < rx.size and live.size:
            j = i + _block_rows(live.size)
            # One flat gather: cod_t[a, b] on the two narrow index blocks
            # runs about 25 % slower on prop1's stacks.
            idx = cols[rx[i:j]].astype(np.intp)
            idx *= cod.size
            idx += cols[rg[i:j]]
            ok = (flat[idx] == cols[rxg[i:j]]).all(axis=0)
            if not ok.all():
                live, cols = live[ok], cols[:, ok]
            i = j
    if not (dom._associative and cod._associative):
        every = np.arange(dom.size)
        live = live[_generator_law(getattr(dom, op), cod_t, column(every, live), every)]
    out = np.zeros(m, dtype=bool)
    out[live] = True
    return out


def _stacked_law(op: str, dom: RingTable, cod: RingTable, imgs) -> np.ndarray:
    """One bool per row of the ``(m, |dom|)`` image stack ``imgs``: whether
    that map satisfies phi(x o y) = phi(x) o phi(y) for ``op`` in
    {"mul", "add"} over all pairs, decided by :func:`_law_kernel`, whose
    images are read from the stack."""
    imgs = np.asarray(imgs)
    return _law_kernel(op, dom, cod, imgs.shape[0],
                       lambda elems, live: imgs[np.ix_(live, elems)])


def _image_stack(maps: list[MapTable], n: int) -> np.ndarray:
    """The image arrays of ``maps``, maps of an ``n``-element domain, as
    one ``(len(maps), n)`` int64 stack."""
    return (np.stack([m.img for m in maps]) if maps
            else np.empty((0, n), dtype=np.int64))


def _corner_units(ring: RingTable) -> tuple[int, int]:
    """The matrix units e11 and e22 of a ring built as a 2x2 matrix ring."""
    view = ring.matrix_view
    if view is None or view.k != 2:
        raise NotAMatrixRing(
            f"ring {ring.label} was not built as a 2x2 matrix ring")
    return view.diagonal_units


def _relation(name: str, dom: RingTable, cod: RingTable, imgs):
    """``(elements, lhs, rhs)`` of relation ``name`` for one image array
    ``imgs`` of a map ``dom -> cod``, or a stack of them (images of element
    e read as ``imgs[..., e]``):

    * ``unital``: phi(1) = 1;
    * ``corner``: phi(1) = phi(e11) + phi(e22);
    * ``i_relation``: phi(i) = i phi(e11) + i phi(e22).

    The last two need a 2x2 matrix ring domain (:class:`NotAMatrixRing`),
    and ``i_relation`` an imaginary unit on both sides.
    """
    if name == "unital":
        return (dom.one,), imgs[..., dom.one], cod.one
    e11, e22 = _corner_units(dom)
    if name == "corner":
        return ((dom.one, e11, e22), imgs[..., dom.one],
                cod.add[imgs[..., e11], imgs[..., e22]])
    i_dom, i_cod = dom.require_i(), cod.require_i()
    return ((i_dom, e11, e22), imgs[..., i_dom],
            cod.add[cod.mul[i_cod, imgs[..., e11]], cod.mul[i_cod, imgs[..., e22]]])


_RELATION_PREDICATES = {"unital": "unital", "corner": "corner_relation",
                        "i_relation": "i_relation"}


def _relation_report(name: str, phi: MapTable) -> CheckReport:
    """Relation ``name`` (see :func:`_relation`) as a one-check report whose
    witness is the relation's elements."""
    elems, lhs, rhs = _relation(name, phi.dom, phi.cod, phi.img)
    ok = bool(lhs == rhs)
    return CheckReport(_RELATION_PREDICATES[name], ok, [] if ok else [elems],
                       {"checked": 1, "violations": int(not ok)})


def unital_holds(phi: MapTable) -> CheckReport:
    """phi(1) = 1."""
    return _relation_report("unital", phi)


def is_unital(phi: MapTable) -> bool:
    return unital_holds(phi).passed


def is_multiplicative(phi: MapTable) -> CheckReport:
    """phi(x*y) = phi(x)*phi(y) over all pairs."""
    return _pair_law("multiplicative", phi, "mul", WITNESS_CAP,
                     extra_counts={"unital": int(is_unital(phi))})


def is_additive(phi: MapTable) -> CheckReport:
    """phi(x+y) = phi(x)+phi(y) over all pairs."""
    return _pair_law("additive", phi, "add", WITNESS_CAP)


def is_ring_hom(phi: MapTable) -> CheckReport:
    """Conjunction of the multiplicative and additive scans."""
    m = is_multiplicative(phi)
    a = is_additive(phi)
    return _joint_report("ring_hom", [m, a], {
        "mul_violations": m.counts["violations"],
        "add_violations": a.counts["violations"],
        "unital": m.counts["unital"],
    })


def respects_star(phi: MapTable) -> CheckReport:
    """phi(x*) = phi(x)* over all elements."""
    ds = phi.dom.require_star()
    cs = phi.cod.require_star()
    eq = phi.img[ds] == cs[phi.img]
    return _element_report("star", eq, WITNESS_CAP)


def corner_relation_holds(phi: MapTable) -> CheckReport:
    """phi(1) = phi(e11) + phi(e22) on a 2x2 matrix ring domain."""
    return _relation_report("corner", phi)


def i_relation_holds(phi: MapTable) -> CheckReport:
    """phi(i·1) = i·phi(e11) + i·phi(e22) on a 2x2 matrix ring domain."""
    return _relation_report("i_relation", phi)


def _lift(imgs, dv: MatrixRingView, cv: MatrixRingView, elems=None) -> np.ndarray:
    """Entrywise images of the matrices ``elems`` of ``dv`` (by default
    all) under one image array ``imgs`` of a map ``dv.base -> cv.base``, or
    a stack of them: decode, map each entry, encode in ``cv``.  Encoding
    adds one digit position at a time, so no temporary holds all k*k digits
    of a stack."""
    imgs = np.asarray(imgs, dtype=np.int64)
    digits = dv.digits if elems is None else dv.digits[elems]
    out = np.zeros(imgs.shape[:-1] + digits.shape[:1], dtype=np.int64)
    for pos, place in enumerate(cv.place.tolist()):
        out += imgs[..., digits[:, pos]] * place
    return out


def tensor_id(phi: MapTable, k: int) -> MapTable:
    """Entrywise application of ``phi`` on k x k matrices: decode, map each
    entry through ``phi``, encode."""
    dv = make_matrix_ring(phi.dom, k)
    cv = make_matrix_ring(phi.cod, k)
    return MapTable(dv.ring, cv.ring, _lift(phi.img, dv, cv))

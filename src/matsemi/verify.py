"""Named verification suites wired to the CLI.

Each suite exercises one equivalence or identity over concrete finite
rings and returns a structured report with deterministic field order.
Function-space scans are chunked into fixed-size tasks, and searches into
the fixed partition of :mod:`matsemi.search`, so results are
byte-identical for any worker count.  Each task list goes to one
:func:`~matsemi.search._run_ring_tasks` call, which runs the tasks in this
thread until they have taken ``search._POOL_AFTER_S`` of CPU time and
only then may hand the rest to a pool of worker threads, so each task
list starts at most one pool, and a light command none.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import partial
from typing import ClassVar

import numpy as np

from .errors import MapFormatError, PreconditionFailed
from .maps import MapTable, _corner_units, _image_stack, _law_kernel, _lift, _relation
from .rings import (
    MatrixRingView,
    RingTable,
    _check_inverse_scan_cap,
    _digits,
    make_matrix_ring,
    units,
)
from .search import (
    _run_ring_tasks,
    enumerate_multiplicative_maps,
    function_space_masks,
    function_space_size,
)
from .witness import (
    _fourth_power_report,
    corner_product_identity_check,
    doubling_additivity_closure,
    invertible_witness_matrices,
    uv_product_identity_check,
)

_CHUNK = 8192

# The tensor suite lifts maps to 2x2 matrices.
_TENSOR_K = 2

# Default node budget per search task (one block of the first variable's
# values, see search._partition) of the capped i-relation search.  With
# it, the default search M2(Z3[i]) -> M2(Z3[i]) visits 20016 nodes over
# its 16 tasks and is not exhaustive (the whole command, interpreter
# start, ring and closure build included, takes 0.5-0.7 s of wall time on
# a shared 2-core x86 Xeon host); without a budget that search is
# exhaustive at 141436 nodes.  Callers with more patience pass a larger
# budget explicitly.
DEFAULT_NODE_BUDGET = 5000

# Default cap on the maps the i-relation search lists.
DEFAULT_MAP_LIMIT = 40


def _scan_tasks(task, total: int, *args) -> list[partial]:
    """The :func:`_run_ring_tasks` tasks running
    ``task(*args, lo, hi)`` over the function ids ``0..total-1`` in fixed
    chunks of ``_CHUNK``."""
    return [partial(task, *args, lo, min(lo + _CHUNK, total))
            for lo in range(0, total, _CHUNK)]


def _joined(parts) -> list[np.ndarray]:
    """Each output of the scan tasks' results ``parts`` (every chunk's,
    taken in chunk order) joined, so the result is the same for any
    worker count."""
    return [np.concatenate(out) for out in zip(*parts)]


class _SuiteReport:
    """A suite's report.  Its JSON is ``{"suite": <id>}``, then every field
    in declaration order, then ``"pass"``.  The fields are read as they are,
    not copied as :func:`dataclasses.asdict` would copy them."""

    suite: ClassVar[str]

    def to_json(self) -> dict:
        return {"suite": self.suite,
                **{f.name: getattr(self, f.name) for f in fields(self)},
                "pass": self.passed}


def _enumeration_matches(res, ids: np.ndarray, dom: RingTable,
                         cod: RingTable) -> bool:
    """Whether the exhaustive enumeration ``res`` emitted exactly the
    functions with ids ``ids``, in the same order."""
    return res.exhaustive and bool(np.array_equal(
        _image_stack(res.maps, dom.size), _digits(ids, dom.size, cod.size, np.int64)))


# ---------------------------------------------------------------------------
# Suite: corner-relation equivalence on a 2x2 matrix ring (map-set level)


def _corner_task(dom: RingTable, cod: RingTable, lo: int, hi: int):
    imgs, mult, hom = function_space_masks(dom, cod, lo, hi)
    ids = np.arange(lo, hi, dtype=np.int64)
    mult_ids = ids[mult]
    _, lhs, rhs = _relation("corner", dom, cod, imgs[mult])
    return mult_ids, mult_ids[lhs == rhs], ids[hom]


@dataclass
class CornerEquivalenceReport(_SuiteReport):
    suite = "prop1"

    dom: str
    cod: str
    total_functions: int
    multiplicative: int
    with_corner: int
    additive: int
    sets_equal: bool
    enumeration_matches: bool
    enumeration_nodes: int

    @property
    def passed(self) -> bool:
        return self.sets_equal and self.enumeration_matches


def verify_corner_equivalence(dom: RingTable, cod: RingTable,
                              workers: int = 1) -> CornerEquivalenceReport:
    """Over every function dom -> cod: the multiplicative maps satisfying
    the corner relation are exactly the multiplicative additive maps, and
    the generator-based enumeration reproduces the multiplicative set
    element for element.  A domain not built as a 2x2 matrix ring is
    refused (:class:`~matsemi.errors.NotAMatrixRing`) before any function
    is scanned."""
    total = function_space_size(dom, cod)
    _corner_units(dom)
    mult_ids, corner_ids, add_ids = _joined(_run_ring_tasks(
        _scan_tasks(_corner_task, total, dom, cod), workers))
    sets_equal = bool(np.array_equal(corner_ids, add_ids))

    res = enumerate_multiplicative_maps(dom, cod, workers=workers)
    res_corner = enumerate_multiplicative_maps(dom, cod, filters=("corner",),
                                               workers=workers)
    matches = (_enumeration_matches(res, mult_ids, dom, cod)
               and _enumeration_matches(res_corner, corner_ids, dom, cod))

    return CornerEquivalenceReport(
        dom=dom.label, cod=cod.label, total_functions=total,
        multiplicative=int(mult_ids.size), with_corner=int(corner_ids.size),
        additive=int(add_ids.size), sets_equal=sets_equal,
        enumeration_matches=matches,
        enumeration_nodes=res.nodes + res_corner.nodes)


# ---------------------------------------------------------------------------
# Suite: matrix lift multiplicativity <-> ring homomorphism


def _tensor_task(dv: MatrixRingView, cv: MatrixRingView, lo: int, hi: int):
    imgs, _, hom = function_space_masks(dv.base, cv.base, lo, hi)
    lifted_ok = _law_kernel("mul", dv.ring, cv.ring, len(imgs),
                            lambda elems, live: _lift(imgs[live], dv, cv, elems))
    ids = np.arange(lo, hi, dtype=np.int64)
    return ids[hom], ids[lifted_ok]


@dataclass
class TensorEquivalenceReport(_SuiteReport):
    suite = "tensor"

    dom: str
    cod: str
    k: int
    total_functions: int
    ring_homs: int
    lift_multiplicative: int
    sets_equal: bool

    @property
    def passed(self) -> bool:
        return self.sets_equal


def verify_tensor_equivalence(dom: RingTable, cod: RingTable | None = None,
                              workers: int = 1,
                              size_cap: int | None = None) -> TensorEquivalenceReport:
    """Over every function dom -> cod: the 2x2 matrix lift is
    multiplicative exactly for the ring homomorphisms.  Both 2x2 matrix
    rings are built once, under ``size_cap``, before any function is
    scanned, and every chunk reads them.
    The lift's verdicts come from :func:`~matsemi.maps._law_kernel`, which
    lifts the images of each closure stage's new matrices for the maps
    still alive only, so no chunk's lift is ever materialised."""
    cod = cod if cod is not None else dom
    total = function_space_size(dom, cod)
    dv, cv = (make_matrix_ring(ring, _TENSOR_K, size_cap=size_cap)
              for ring in (dom, cod))
    hom_ids, lift_ids = _joined(_run_ring_tasks(
        _scan_tasks(_tensor_task, total, dv, cv), workers))
    return TensorEquivalenceReport(
        dom=dom.label, cod=cod.label, k=_TENSOR_K, total_functions=total,
        ring_homs=int(hom_ids.size), lift_multiplicative=int(lift_ids.size),
        sets_equal=bool(np.array_equal(hom_ids, lift_ids)))


# ---------------------------------------------------------------------------
# Suite: proof witnesses (parameter matrices and product identities)


@dataclass
class WitnessSuiteReport(_SuiteReport):
    suite = "witnesses"

    ring: str
    corner_identity_pass: bool
    uv_identity_pass: bool
    pairs_checked: int
    units_count: int
    matrices_checked: int
    all_invertible: bool
    failures: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return (self.corner_identity_pass and self.uv_identity_pass
                and self.all_invertible)


def verify_witness_suite(ring: RingTable, size_cap: int | None = None) -> WitnessSuiteReport:
    """Corner and u/v product identities over all parameter pairs, plus
    exhaustive invertibility of gamma/alpha/beta for every unit lambda and
    every parameter value.  The inverse scans' |ring|**4 cap, under
    ``size_cap``, is checked before any scan."""
    _check_inverse_scan_cap(ring, size_cap)
    corner = corner_product_identity_check(ring)
    uv = uv_product_identity_check(ring)
    us = units(ring)
    failures: list[tuple[str, int, int]] = []
    checked = 0
    for lam in us:
        for p in range(ring.size):
            gam, alp, bet = invertible_witness_matrices(ring, int(lam), p, p, p, size_cap)
            checked += 3
            for w in (gam, alp, bet):
                if not w.invertible:
                    failures.append((w.name, int(lam), p))
    return WitnessSuiteReport(
        ring=ring.label,
        corner_identity_pass=corner.passed,
        uv_identity_pass=uv.passed,
        pairs_checked=corner.counts["checked"] + uv.counts["checked"],
        units_count=int(us.size),
        matrices_checked=checked,
        all_invertible=not failures,
        failures=failures)


# ---------------------------------------------------------------------------
# Suite: imaginary-unit relation search (fourth-power reduction)


@dataclass
class FourthPowerSearchReport(_SuiteReport):
    suite = "i-relation"

    dom: str
    cod: str
    enumerated: int
    nodes: int
    exhaustive: bool
    zero_annihilating: int
    implication_violations: list[dict] = field(default_factory=list)
    flagged_findings: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.implication_violations


def verify_fourth_power_search(dom: RingTable, cod: RingTable | None = None,
                               limit: int | None = DEFAULT_MAP_LIMIT,
                               node_budget: int | None = DEFAULT_NODE_BUDGET,
                               workers: int = 1) -> FourthPowerSearchReport:
    """Enumerate multiplicative star-preserving maps satisfying the
    imaginary-unit relation and check the fourth-power consequence: every
    map annihilating zero must satisfy the corner relation.  Maps with
    phi(0) != 0 breaking the implication are surfaced as flagged findings,
    not failures.  The report states whether the capped search was
    exhaustive.

    Each map goes to the fourth-power reduction without its gates: the
    search's ``i_relation`` checkpoint has decided the imaginary-unit
    relation, and the search has decided multiplicativity."""
    cod = cod if cod is not None else dom
    res = enumerate_multiplicative_maps(
        dom, cod, filters=("star", "i_relation"), limit=limit,
        node_budget=node_budget, workers=workers)
    violations: list[dict] = []
    findings: list[dict] = []
    zero_annihilating = 0
    for phi in res.maps:
        z = int(phi.img[dom.zero])
        rep = _fourth_power_report(phi)
        if z == cod.zero:
            zero_annihilating += 1
            if not rep.passed:
                violations.append({"map": phi.to_json(), "report": rep.to_json()})
        elif not rep.passed:
            findings.append({"map": phi.to_json(), "report": rep.to_json()})
    return FourthPowerSearchReport(
        dom=dom.label, cod=cod.label, enumerated=len(res.maps),
        nodes=res.nodes, exhaustive=res.exhaustive,
        zero_annihilating=zero_annihilating,
        implication_violations=violations, flagged_findings=findings)


# ---------------------------------------------------------------------------
# Suite: doubling closures


@dataclass
class DoublingReport:
    mode: str
    ok: bool
    precondition_failed: bool
    trace_json: dict | None
    reason: str = ""

    @property
    def passed(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {
            "suite": f"doubling-{'gl' if self.mode == 'units' else 'unitary'}",
            "mode": self.mode,
            "pass": self.ok,
            "precondition_failed": self.precondition_failed,
            "reason": self.reason,
            "trace": self.trace_json,
        }


def verify_doubling(phi: MapTable, mode: str) -> DoublingReport:
    """The doubling closure of ``phi`` over the ``mode`` pool at depth 4,
    with zero padding."""
    try:
        trace = doubling_additivity_closure(phi, mode=mode)
    except PreconditionFailed as exc:
        return DoublingReport(mode=mode, ok=False, precondition_failed=True,
                              trace_json=None, reason=str(exc))
    return DoublingReport(mode=mode, ok=trace.ok, precondition_failed=False,
                          trace_json=trace.to_json(),
                          reason="" if trace.ok else "conflicts found")


def replay_doubling_trace(stored: dict,
                          size_cap: int | None = None) -> tuple[bool, dict]:
    """Re-run a serialized doubling trace and compare against the stored
    outcome.  Returns (identical, recomputed_trace_json).  The map's rings
    are built under ``size_cap``.

    Raises :class:`MapFormatError` unless ``stored`` is an object carrying
    ``map``, a ``mode`` of ``"units"`` or ``"unitaries"``, an integer
    ``depth`` and a boolean ``zero_padding``; a bad ``mode`` is not quoted.
    """
    if not isinstance(stored, dict):
        raise MapFormatError("doubling trace must be a JSON object")
    missing = {"map", "mode", "depth", "zero_padding"} - set(stored)
    if missing:
        raise MapFormatError(f"doubling trace lacks fields: {sorted(missing)}")
    if (type(stored["depth"]) is not int
            or not isinstance(stored["zero_padding"], bool)):
        raise MapFormatError(
            "doubling trace needs an integer depth and a boolean zero_padding")
    if stored["mode"] not in ("units", "unitaries"):
        raise MapFormatError('doubling trace mode must be "units" or "unitaries"')
    phi = MapTable.from_json(stored["map"], size_cap=size_cap)
    trace = doubling_additivity_closure(
        phi, mode=stored["mode"], depth=stored["depth"],
        include_zero_padding=stored["zero_padding"])
    recomputed = trace.to_json()
    return recomputed == stored, recomputed

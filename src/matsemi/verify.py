"""Named verification suites wired to the CLI.

Each suite exercises one equivalence or identity over concrete finite
rings and returns a structured report with deterministic field order.
Function-space scans are chunked into fixed-size tasks so results are
byte-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MapFormatError, PreconditionFailed
from .maps import MapTable, is_multiplicative, tensor_id
from .rings import RingTable, _digits, _inverse_scan_candidates, units
from .search import (
    _run_ring_tasks,
    enumerate_multiplicative_maps,
    function_space_masks,
    function_space_size,
)
from .witness import (
    _guard_pair_scan,
    corner_product_identity_check,
    doubling_additivity_closure,
    fourth_power_reduction,
    invertible_witness_matrices,
    uv_product_identity_check,
)

_CHUNK = 8192

# The tensor suite lifts maps to 2x2 matrices.
_TENSOR_K = 2

# Default step budget per top-level branch of the capped i-relation search.
# With it, the default search M2(Z3[i]) -> M2(Z3[i]) visits 6392 nodes in
# 4.3-7.9 s of CPU on a shared 2-core x86 host (about 0.7-1.2 ms per node)
# and is not exhaustive; callers with more patience pass a larger budget
# explicitly.
DEFAULT_NODE_BUDGET = 5000

# Default cap on the maps the i-relation search lists.
DEFAULT_MAP_LIMIT = 40


def _chunks(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]


def _enumeration_matches(res, ids: np.ndarray, dom: RingTable,
                         cod: RingTable) -> bool:
    """Whether the exhaustive enumeration ``res`` emitted exactly the
    functions with ids ``ids``, in the same order."""
    imgs = (np.stack([m.img for m in res.maps]) if res.maps
            else np.empty((0, dom.size), dtype=np.int64))
    return res.exhaustive and bool(
        np.array_equal(imgs, _digits(ids, dom.size, cod.size, np.int64)))


# ---------------------------------------------------------------------------
# Suite: corner-relation equivalence on a 2x2 matrix ring (map-set level)


def _corner_task(dom: RingTable, cod: RingTable, lo: int, hi: int):
    masks = function_space_masks(dom, cod, lo, hi,
                                 want=("multiplicative", "additive", "corner"))
    m = masks["multiplicative"]
    ids = np.arange(lo, hi, dtype=np.int64)
    return (ids[m],
            ids[m & masks["corner"]],
            ids[m & masks["additive"]])


@dataclass
class CornerEquivalenceReport:
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

    def to_json(self) -> dict:
        return {
            "suite": "prop1",
            "dom": self.dom, "cod": self.cod,
            "total_functions": self.total_functions,
            "multiplicative": self.multiplicative,
            "with_corner": self.with_corner,
            "additive": self.additive,
            "sets_equal": self.sets_equal,
            "enumeration_matches": self.enumeration_matches,
            "enumeration_nodes": self.enumeration_nodes,
            "pass": self.passed,
        }


def verify_corner_equivalence(dom: RingTable, cod: RingTable,
                              workers: int = 1) -> CornerEquivalenceReport:
    """Over every function dom -> cod: the multiplicative maps satisfying
    the corner relation are exactly the multiplicative additive maps, and
    the generator-based enumeration reproduces the multiplicative set
    element for element."""
    total = function_space_size(dom, cod)
    parts = _run_ring_tasks(_corner_task, dom, cod, _chunks(total), workers)
    mult_ids = np.concatenate([p[0] for p in parts])
    corner_ids = np.concatenate([p[1] for p in parts])
    add_ids = np.concatenate([p[2] for p in parts])
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


def _tensor_task(dom: RingTable, cod: RingTable, lo: int, hi: int):
    masks = function_space_masks(dom, cod, lo, hi,
                                 want=("multiplicative", "additive"))
    hom = masks["multiplicative"] & masks["additive"]
    ids = np.arange(lo, hi, dtype=np.int64)
    lifted_ok = np.zeros(ids.size, dtype=bool)
    imgs = masks["_imgs"]
    for row in range(ids.size):
        phi = MapTable(dom, cod, imgs[row])
        lifted_ok[row] = is_multiplicative(tensor_id(phi, _TENSOR_K)).passed
    return ids[hom], ids[lifted_ok]


@dataclass
class TensorEquivalenceReport:
    dom: str
    cod: str
    total_functions: int
    ring_homs: int
    lift_multiplicative: int
    sets_equal: bool

    @property
    def passed(self) -> bool:
        return self.sets_equal

    def to_json(self) -> dict:
        return {
            "suite": "tensor",
            "dom": self.dom, "cod": self.cod, "k": _TENSOR_K,
            "total_functions": self.total_functions,
            "ring_homs": self.ring_homs,
            "lift_multiplicative": self.lift_multiplicative,
            "sets_equal": self.sets_equal,
            "pass": self.passed,
        }


def verify_tensor_equivalence(dom: RingTable, cod: RingTable | None = None,
                              workers: int = 1) -> TensorEquivalenceReport:
    """Over every function dom -> cod: the 2x2 matrix lift is
    multiplicative exactly for the ring homomorphisms."""
    cod = cod if cod is not None else dom
    total = function_space_size(dom, cod)
    parts = _run_ring_tasks(_tensor_task, dom, cod, _chunks(total), workers)
    hom_ids = np.concatenate([p[0] for p in parts])
    lift_ids = np.concatenate([p[1] for p in parts])
    return TensorEquivalenceReport(
        dom=dom.label, cod=cod.label, total_functions=total,
        ring_homs=int(hom_ids.size), lift_multiplicative=int(lift_ids.size),
        sets_equal=bool(np.array_equal(hom_ids, lift_ids)))


# ---------------------------------------------------------------------------
# Suite: proof witnesses (parameter matrices and product identities)


@dataclass
class WitnessSuiteReport:
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

    def to_json(self) -> dict:
        return {
            "suite": "witnesses",
            "ring": self.ring,
            "corner_identity_pass": self.corner_identity_pass,
            "uv_identity_pass": self.uv_identity_pass,
            "pairs_checked": self.pairs_checked,
            "units_count": self.units_count,
            "matrices_checked": self.matrices_checked,
            "all_invertible": self.all_invertible,
            "failures": [list(f) for f in self.failures],
            "pass": self.passed,
        }


def verify_witness_suite(ring: RingTable) -> WitnessSuiteReport:
    """Corner and u/v product identities over all parameter pairs, plus
    exhaustive invertibility of gamma/alpha/beta for every unit lambda and
    every parameter value.  Both size caps are checked before any scan."""
    _guard_pair_scan(ring, None)
    _inverse_scan_candidates(ring)
    corner = corner_product_identity_check(ring)
    uv = uv_product_identity_check(ring)
    us = units(ring)
    failures: list[tuple[str, int, int]] = []
    checked = 0
    for lam in us:
        for p in range(ring.size):
            gam, alp, bet = invertible_witness_matrices(
                ring, int(lam), p, p, p)
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
class FourthPowerSearchReport:
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

    def to_json(self) -> dict:
        return {
            "suite": "i-relation",
            "dom": self.dom, "cod": self.cod,
            "enumerated": self.enumerated,
            "nodes": self.nodes,
            "exhaustive": self.exhaustive,
            "zero_annihilating": self.zero_annihilating,
            "implication_violations": self.implication_violations,
            "flagged_findings": self.flagged_findings,
            "pass": self.passed,
        }


def verify_fourth_power_search(dom: RingTable, cod: RingTable | None = None,
                               limit: int | None = DEFAULT_MAP_LIMIT,
                               node_budget: int | None = DEFAULT_NODE_BUDGET,
                               workers: int = 1) -> FourthPowerSearchReport:
    """Enumerate multiplicative star-preserving maps satisfying the
    imaginary-unit relation and check the fourth-power consequence: every
    map annihilating zero must satisfy the corner relation.  Maps with
    phi(0) != 0 breaking the implication are surfaced as flagged findings,
    not failures.  The report states whether the capped search was
    exhaustive."""
    cod = cod if cod is not None else dom
    res = enumerate_multiplicative_maps(
        dom, cod, filters=("star", "i_relation"), limit=limit,
        node_budget=node_budget, workers=workers)
    violations: list[dict] = []
    findings: list[dict] = []
    zero_annihilating = 0
    for phi in res.maps:
        z = int(phi.img[dom.zero])
        rep = fourth_power_reduction(phi)
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


def verify_doubling(phi: MapTable, mode: str, depth: int = 4,
                    include_zero_padding: bool = True) -> DoublingReport:
    try:
        trace = doubling_additivity_closure(
            phi, mode=mode, depth=depth,
            include_zero_padding=include_zero_padding)
    except PreconditionFailed as exc:
        return DoublingReport(mode=mode, ok=False, precondition_failed=True,
                              trace_json=None, reason=str(exc))
    return DoublingReport(mode=mode, ok=trace.ok, precondition_failed=False,
                          trace_json=trace.to_json(),
                          reason="" if trace.ok else "conflicts found")


def replay_doubling_trace(stored: dict) -> tuple[bool, dict]:
    """Re-run a serialized doubling trace and compare against the stored
    outcome.  Returns (identical, recomputed_trace_json).

    Raises :class:`MapFormatError` unless ``stored`` is an object carrying
    ``map``, ``mode``, an integer ``depth`` and a boolean ``zero_padding``.
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
    phi = MapTable.from_json(stored["map"])
    trace = doubling_additivity_closure(
        phi, mode=stored["mode"], depth=stored["depth"],
        include_zero_padding=stored["zero_padding"])
    recomputed = trace.to_json()
    return recomputed == stored, recomputed

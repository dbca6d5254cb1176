"""Exhaustive enumeration of multiplicative maps between finite monoids.

The enumerator scans domain elements in ascending index order; every
element not forced as a product of earlier assignments becomes a search
variable, and after each assignment all forced images propagate through
the precomputed derivation stages.  Each stage then checks only the right
products by a variable that it decides (its "ready" pairs), which is
equivalent to checking every decided pair when both multiplications are
associative.  Branches die as soon as the stage check or an active filter
fails, so the emitted stream is exactly the brute-force-filtered set, in
lexicographic order of the full image arrays.

Top-level branches are partitioned into a fixed number of tasks (a
function of the codomain size only), so results merge in the same order
no matter how many worker processes execute them.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from ._closure import greedy_closure
from .errors import MatsemiError, SizeCapExceeded, SizeMismatch
from .maps import MapTable, _relation, corner_relation_holds, is_additive
from .rings import RingTable, _digits, parse_ring_spec

BRUTE_FORCE_LIMIT = 2**20

KNOWN_FILTERS = ("unital", "star", "corner", "i_relation")

_FILTER_ALIASES = {
    "unital": "unital",
    "star": "star",
    "corner": "corner",
    "corner_relation": "corner",
    "i_relation": "i_relation",
    "i-relation": "i_relation",
    "multiplicative": None,  # always on
}


def canonical_filters(filters) -> tuple[str, ...]:
    out = []
    for f in filters:
        if f not in _FILTER_ALIASES:
            raise ValueError(f"unknown filter {f!r}; known: {KNOWN_FILTERS}")
        c = _FILTER_ALIASES[f]
        if c is not None and c not in out:
            out.append(c)
    return tuple(out)


# ---------------------------------------------------------------------------
# Generating sets


@dataclass
class GeneratorSet:
    """A generating set of a ring's multiplicative monoid, with one product
    expression (word over the generators) per element.  The identity has
    the empty word."""

    monoid: str
    gens: list[int]
    words: list[tuple[int, ...]]

    def to_json(self) -> dict:
        return {"monoid": self.monoid, "gens": list(self.gens),
                "words": [list(w) for w in self.words]}


def monoid_generators(ring: RingTable) -> GeneratorSet:
    """Greedy generating set of ``(ring, *, 1)``: repeatedly adjoin the
    smallest element outside the current closure and re-saturate."""
    cl = greedy_closure(ring.mul, seed=ring.one)
    return GeneratorSet(monoid=ring.label, gens=list(cl.gens), words=cl.words())


# ---------------------------------------------------------------------------
# Enumeration queries


@dataclass
class EnumerationQuery:
    dom: str
    cod: str
    filters: tuple[str, ...] = ()
    limit: int | None = None

    def __post_init__(self):
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be >= 1")
        self.filters = canonical_filters(self.filters)

    def to_json(self) -> dict:
        return {"dom": self.dom, "cod": self.cod,
                "filters": list(self.filters), "limit": self.limit}

    @classmethod
    def from_json(cls, obj) -> "EnumerationQuery":
        return cls(dom=obj["dom"], cod=obj["cod"],
                   filters=tuple(obj.get("filters", ())),
                   limit=obj.get("limit"))


@dataclass
class EnumerationResult:
    maps: list[MapTable]
    nodes: int
    exhaustive: bool
    filters: tuple[str, ...] = ()

    def summary(self) -> dict:
        return {"count": len(self.maps), "nodes": self.nodes,
                "exhaustive": self.exhaustive, "filters": list(self.filters)}


# ---------------------------------------------------------------------------
# Search plan: variables, forced-image stages, filter checkpoints

# Candidate prefilters probe at most this many decided pairs per side; the
# stage checks still decide multiplicativity, the probes only thin the
# candidate values cheaply.
_PREFILTER_PROBES = 64


class _Plan:
    def __init__(self, dom: RingTable, filters: tuple[str, ...]):
        cl = greedy_closure(dom.mul, seed=None)
        self.vars = cl.gens
        self.dx = cl.deriv_x
        self.dy = cl.deriv_y
        nstages = len(self.vars)
        starts, rs = cl.stage_starts, cl.round_starts
        self.new_elems = [cl.order[starts[p]:starts[p + 1]] for p in range(nstages)]
        self.prev_elems = [cl.order[:starts[p]] for p in range(nstages)]
        stage_of = np.empty(dom.size, dtype=np.int64)
        stage_of[cl.order] = np.repeat(np.arange(nstages), np.diff(starts))
        # Per stage: the rounds after the variable's own, whose images are
        # forced by the products recorded in dx/dy.
        self.rounds = [[cl.order[a:b] for a, b in zip(rs, rs[1:])
                        if starts[p] < a < starts[p + 1]]
                       for p in range(nstages)]

        # Per stage: the "ready" pairs (x, g) whose right product x*g it
        # decides first: x new with an earlier variable g, and x anywhere in
        # the closure so far with g = vars[p].  Over stages 0..p these are
        # all (x, g) with x in the closure and g in vars[:p+1], so the stage
        # checks together prove phi multiplicative on the closure: by
        # induction on the word of y, phi(x*y'g) = phi(x*y')phi(g) =
        # phi(x)phi(y')phi(g) = phi(x)phi(y'g), using associativity of both
        # multiplications.
        self.ready: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        gens = np.asarray(self.vars, dtype=np.int64)
        for p, (new, prev) in enumerate(zip(self.new_elems, self.prev_elems)):
            xs = np.concatenate([np.repeat(new, p), prev, new])
            gs = np.concatenate([np.tile(gens[:p], new.size),
                                 np.full(prev.size + new.size, gens[p])])
            self.ready.append((xs, gs, dom.mul[xs, gs].astype(np.int64)))

        # Per stage: decided pairs involving the variable whose product is
        # already decided (or the variable itself).  Sound constraints on
        # the candidate value, evaluated vectorized over all candidates.
        # ``pf_probes[p]`` holds the left probes v*x, then the right probes
        # x*v, each side read from row v of ``mul`` or of its transpose as
        # ``(xs, k, ts)``: the k probes whose product is v itself come first,
        # and ts holds the products of the others.
        self.pf_probes: list[list[tuple[np.ndarray, int, np.ndarray]]] = []
        self.pf_self: list[int] = []
        for p, v in enumerate(self.vars):
            prev = self.prev_elems[p]
            in_prev = np.zeros(dom.size, dtype=bool)
            in_prev[prev] = True
            sides = []
            for mul in (dom.mul, dom.mul.T):
                t = mul[v, prev]
                keep = in_prev[t] | (t == v)
                xs = prev[keep][:_PREFILTER_PROBES]
                ts = mul[v, xs].astype(np.int64)
                order = np.argsort(ts != v, kind="stable")
                k = int(np.count_nonzero(ts == v))
                sides.append((xs[order], k, ts[order][k:]))
            self.pf_probes.append(sides)
            tvv = int(dom.mul[v, v])
            self.pf_self.append(tvv if (in_prev[tvv] or tvv == v) else -1)

        self.pf_star: list[int] = [-2] * nstages  # -2: no constraint
        self.star_checks: list[np.ndarray] | None = None
        if "star" in filters:
            star = dom.require_star()
            for p, v in enumerate(self.vars):
                sv = int(star[v])
                if sv == v:
                    self.pf_star[p] = -1  # candidate must be star-fixed
                elif stage_of[sv] < p:
                    self.pf_star[p] = sv
            ready = np.maximum(stage_of, stage_of[star])
            self.star_checks = [
                np.flatnonzero(ready == i) for i in range(nstages)]

        # Per stage: the relation filters whose elements are all decided
        # there.  The identity map of dom stands in for phi, as only the
        # elements of each relation are read.
        self.checkpoints: list[list[str]] = [[] for _ in range(nstages)]
        for name in ("unital", "corner", "i_relation"):
            if name in filters:
                elems, _, _ = _relation(name, dom, dom, np.arange(dom.size))
                self.checkpoints[int(stage_of[list(elems)].max())].append(name)


class _StopSearch(Exception):
    pass


def _search_range(dom: RingTable, cod: RingTable, plan: _Plan,
                  injective: bool, limit: int | None,
                  node_budget: int | None, lo: int, hi: int):
    """Depth-first search with the first variable restricted to [lo, hi)."""
    img = np.full(dom.size, -1, dtype=np.int64)
    used = np.zeros(cod.size, dtype=bool) if injective else None
    out: list[np.ndarray] = []
    nodes = 0
    exhausted = True
    nvars = len(plan.vars)
    cod_muls = (cod.mul, cod.mul.T)  # left probes v*x, right probes x*v

    def candidates(p: int) -> np.ndarray:
        """Candidate values surviving the vectorized probe constraints."""
        v = plan.vars[p]
        cand = np.arange(lo, hi) if p == 0 else np.arange(cod.size)
        mask = np.ones(cand.size, dtype=bool)
        for mul, (xs, k, ts) in zip(cod_muls, plan.pf_probes[p]):
            prod = mul[cand[:, None], img[xs][None, :]]
            if k:
                mask &= (prod[:, :k] == cand[:, None]).all(axis=1)
            if ts.size:
                mask &= (prod[:, k:] == img[ts][None, :]).all(axis=1)
        tvv = plan.pf_self[p]
        if tvv >= 0:
            sq = cod.mul[cand, cand]
            mask &= sq == (cand if tvv == v else int(img[tvv]))
        sv = plan.pf_star[p]
        if sv == -1:
            mask &= cod.star[cand] == cand
        elif sv >= 0:
            mask &= cod.star[cand] == int(img[sv])
        return cand[mask]

    def check_stage(p: int) -> bool:
        xs, gs, xgs = plan.ready[p]
        if not np.array_equal(img[xgs], cod.mul[img[xs], img[gs]]):
            return False
        if plan.star_checks is not None:
            xs = plan.star_checks[p]
            if xs.size and not np.array_equal(img[dom.star[xs]],
                                              cod.star[img[xs]]):
                return False
        for name in plan.checkpoints[p]:
            _, lhs, rhs = _relation(name, dom, cod, img)
            if lhs != rhs:
                return False
        return True

    def rec(p: int):
        nonlocal nodes, exhausted
        if p == nvars:
            out.append(img.copy())
            if limit is not None and len(out) >= limit:
                exhausted = False
                raise _StopSearch
            return
        v = plan.vars[p]
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            exhausted = False
            raise _StopSearch
        for c in candidates(p):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = False
                raise _StopSearch
            img[v] = c
            for rnd in plan.rounds[p]:
                img[rnd] = cod.mul[img[plan.dx[rnd]], img[plan.dy[rnd]]]
            ok = check_stage(p)
            if ok and injective:
                vals = img[plan.new_elems[p]]
                uniq = np.unique(vals)
                if uniq.size != vals.size or used[uniq].any():
                    ok = False
                else:
                    used[uniq] = True
            if ok:
                rec(p + 1)
                if injective:
                    used[np.unique(img[plan.new_elems[p]])] = False
            img[plan.new_elems[p]] = -1

    try:
        rec(0)
    except _StopSearch:
        pass
    return out, nodes, exhausted


def _on_spec_rings(fn, dom_spec: str, cod_spec: str, args: tuple):
    """Pool-worker side of :func:`_run_ring_tasks`."""
    return fn(parse_ring_spec(dom_spec), parse_ring_spec(cod_spec), *args)


def _run_ring_tasks(fn, dom: RingTable, cod: RingTable, argss: list[tuple],
                    workers: int) -> list:
    """``[fn(dom, cod, *args) for args in argss]``, in order.

    A process pool runs the tasks only when ``workers > 1``, there is more
    than one task, and both rings are the objects :func:`parse_ring_spec`
    returns for their labels: workers resolve the labels to the same rings
    (under ``fork``, from the constructor caches they inherit).  Any other
    ring, hand-assembled or labelled with a spec it was not built from,
    runs in this process.  ``fn`` must be a private module-level function,
    so a pickled reference resolves to it even when public names are
    wrapped.
    """
    def built_from_spec(ring: RingTable) -> bool:
        try:
            return parse_ring_spec(ring.label) is ring
        except MatsemiError:
            return False

    if (workers > 1 and len(argss) > 1
            and built_from_spec(dom) and built_from_spec(cod)):
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futs = [pool.submit(_on_spec_rings, fn, dom.label, cod.label, args)
                    for args in argss]
            return [f.result() for f in futs]
    return [fn(dom, cod, *args) for args in argss]


def _partition(total: int, max_tasks: int = 16) -> list[tuple[int, int]]:
    """Fixed partition of [0, total) used regardless of worker count."""
    ntasks = min(total, max_tasks)
    if ntasks == 0:
        return [(0, 0)]
    bounds = np.linspace(0, total, ntasks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(ntasks)
            if bounds[i] < bounds[i + 1]]


def enumerate_multiplicative_maps(dom: RingTable, cod: RingTable,
                                  filters=(), limit: int | None = None,
                                  node_budget: int | None = None,
                                  workers: int = 1,
                                  injective: bool = False) -> EnumerationResult:
    """Enumerate all multiplicative maps ``dom -> cod`` passing the filters.

    Emission is in lexicographic order of the full image arrays and equals
    the brute-force-filtered set whenever the search runs to completion
    (``exhaustive`` in the result).  ``node_budget`` bounds the nodes each
    top-level branch may visit; ``limit`` truncates the output.  Both
    truncations clear the ``exhaustive`` flag.

    With ``workers > 1`` the fixed top-level partition may be executed by
    a process pool (see :func:`_run_ring_tasks`); output is merged in
    partition order, so results are byte-identical for every worker count.

    Multiplicativity is decided on right products by the search variables
    only (the "ready" pairs of each stage), which is exact when both
    multiplications are associative.  Every ring :func:`parse_ring_spec`
    builds is; for a hand-assembled ``RingTable``, run
    :func:`~matsemi.rings.validate_ring` first.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    filters = canonical_filters(filters)
    if "star" in filters:
        dom.require_star()
        cod.require_star()
    if "i_relation" in filters:
        cod.require_i()
    plan = _Plan(dom, filters)  # validates filter applicability eagerly
    results = _run_ring_tasks(
        _search_range, dom, cod,
        [(plan, injective, limit, node_budget, lo, hi)
         for lo, hi in _partition(cod.size)],
        workers)

    maps: list[MapTable] = []
    nodes = 0
    exhaustive = True
    for imgs, n, ex in results:
        nodes += n
        exhaustive = exhaustive and ex
        for arr in imgs:
            if limit is None or len(maps) < limit:
                maps.append(MapTable(dom, cod, arr))
            else:
                exhaustive = False
    return EnumerationResult(maps=maps, nodes=nodes,
                             exhaustive=exhaustive, filters=filters)


def run_query(query: EnumerationQuery, workers: int = 1,
              node_budget: int | None = None,
              size_cap: int | None = None) -> EnumerationResult:
    dom = parse_ring_spec(query.dom, size_cap=size_cap)
    cod = parse_ring_spec(query.cod, size_cap=size_cap)
    return enumerate_multiplicative_maps(
        dom, cod, filters=query.filters, limit=query.limit,
        node_budget=node_budget, workers=workers)


# ---------------------------------------------------------------------------
# Counterexample mining and the unique-addition probe


def find_counterexamples(dom: RingTable, cod: RingTable,
                         limit: int | None = None,
                         node_budget: int | None = None,
                         workers: int = 1) -> list[MapTable]:
    """Multiplicative maps that fail additivity, in lexicographic order.

    On a 2x2 matrix ring domain every returned map is cross-checked to
    also fail the corner relation; a violation would disprove the
    additivity equivalence and raises :class:`MatsemiError`.
    """
    res = enumerate_multiplicative_maps(dom, cod, node_budget=node_budget,
                                        workers=workers)
    out = []
    is_mat2 = dom.matrix_view is not None and dom.matrix_view.k == 2
    for phi in res.maps:
        if is_additive(phi).passed:
            continue
        if is_mat2 and corner_relation_holds(phi).passed:
            raise MatsemiError(
                "multiplicative non-additive map satisfies the corner "
                "relation; additivity equivalence violated")
        out.append(phi)
        if limit is not None and len(out) >= limit:
            break
    return out


@dataclass
class UniqueAdditionReport:
    """Outcome of probing whether multiplicative structure forces addition."""

    dom: str
    cod: str
    isomorphisms: list[MapTable]
    additive_flags: list[bool]
    exhaustive: bool

    @property
    def unique_addition(self) -> bool:
        return all(self.additive_flags)

    def to_json(self) -> dict:
        return {
            "dom": self.dom, "cod": self.cod,
            "isomorphisms": [m.to_json() for m in self.isomorphisms],
            "additive": list(self.additive_flags),
            "unique_addition": self.unique_addition,
            "exhaustive": self.exhaustive,
        }


def unique_addition_probe(dom: RingTable, cod: RingTable,
                          node_budget: int | None = None,
                          workers: int = 1) -> UniqueAdditionReport:
    """Enumerate multiplicative monoid isomorphisms ``dom -> cod`` and flag
    which are additive.  Requires equal sizes (only bijections qualify)."""
    if dom.size != cod.size:
        raise SizeMismatch(
            f"|{dom.label}| = {dom.size} but |{cod.label}| = {cod.size}")
    res = enumerate_multiplicative_maps(dom, cod, node_budget=node_budget,
                                        workers=workers, injective=True)
    flags = [is_additive(m).passed for m in res.maps]
    return UniqueAdditionReport(dom=dom.label, cod=cod.label,
                                isomorphisms=res.maps, additive_flags=flags,
                                exhaustive=res.exhaustive)


# ---------------------------------------------------------------------------
# Full function-space scan (production side of the oracle cross-checks)


def function_space_masks(dom: RingTable, cod: RingTable, lo: int, hi: int,
                         want=("multiplicative", "additive")) -> dict:
    """Predicate masks over the function ids [lo, hi) in lexicographic order.

    Function id ``t`` is the image array given by the base-|cod| digits of
    ``t`` (most significant digit = image of element 0).
    """
    n, c = dom.size, cod.size
    ids = np.arange(lo, hi, dtype=np.int64)
    imgs = _digits(ids, n, c, np.int64)
    masks: dict[str, np.ndarray] = {}
    if "multiplicative" in want:
        m = np.ones(ids.size, dtype=bool)
        for x in range(n):
            for y in range(n):
                m &= imgs[:, dom.mul[x, y]] == cod.mul[imgs[:, x], imgs[:, y]]
        masks["multiplicative"] = m
    if "additive" in want:
        a = np.ones(ids.size, dtype=bool)
        for x in range(n):
            for y in range(n):
                a &= imgs[:, dom.add[x, y]] == cod.add[imgs[:, x], imgs[:, y]]
        masks["additive"] = a
    if "corner" in want:
        _, lhs, rhs = _relation("corner", dom, cod, imgs)
        masks["corner"] = lhs == rhs
    masks["_imgs"] = imgs
    return masks


def function_space_size(dom: RingTable, cod: RingTable) -> int:
    total = cod.size ** dom.size
    if total > BRUTE_FORCE_LIMIT:
        raise SizeCapExceeded(
            f"function space {cod.size}**{dom.size} exceeds {BRUTE_FORCE_LIMIT}")
    return total

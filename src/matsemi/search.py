"""Exhaustive enumeration of multiplicative maps between finite monoids.

The enumerator scans domain elements in ascending index order (under the
``i_relation`` filter, e11, e22 and i first); every element not forced as
a product of earlier assignments becomes a search variable, and after
each assignment all forced images propagate through the precomputed
derivation stages.  Each stage then checks only the right
products by a variable that it decides (its "ready" pairs), which is
equivalent to checking every decided pair when both multiplications are
associative.  Branches die as soon as the stage check or an active filter
fails.  On rings not marked associative by construction each complete map
is then re-decided over all pairs, so the emitted stream is exactly the
brute-force-filtered set on every table, in lexicographic order of the
full image arrays (sorted at the end when e11, e22 and i came first).

When every active filter is invariant under conjugation by the units of
the codomain and the search is neither limited nor budgeted, it keeps one
lexicographically least map per orbit of ``phi -> v phi v^-1`` and the
orbits are expanded once at the end (see :func:`_conjugations`).

Top-level branches are partitioned into a fixed number of tasks (a
function of the codomain size only), so results merge in the same order
no matter how many worker threads execute them.
"""

from __future__ import annotations

import time
from contextlib import closing
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._closure import _generator_law
from .errors import MatsemiError, SizeCapExceeded, SizeMismatch, _quoted
from .maps import MapTable, _corner_units, _image_stack, _relation, _stacked_law
from .rings import RingTable, _digits, op_closure, units

BRUTE_FORCE_LIMIT = 2**20

KNOWN_FILTERS = ("unital", "star", "corner", "i_relation")


def canonical_filters(filters) -> tuple[str, ...]:
    """``filters`` without repeats, in first-seen order.  Raises ValueError
    for a plain string (which would read as its characters) and for a name
    not in :data:`KNOWN_FILTERS`."""
    if isinstance(filters, str):
        raise ValueError(
            f"filters must be a sequence of names, not the string {_quoted(filters)}")
    filters = tuple(dict.fromkeys(filters))
    for f in filters:
        if f not in KNOWN_FILTERS:
            raise ValueError(f"unknown filter {_quoted(f)}; known: {KNOWN_FILTERS}")
    return filters


# ---------------------------------------------------------------------------
# Generating sets


@dataclass
class GeneratorSet:
    """A generating set of a ring's multiplicative monoid, with one product
    expression (word over the generators) per element.  The identity has
    the empty word."""

    gens: list[int]
    words: list[tuple[int, ...]]


def monoid_generators(ring: RingTable) -> GeneratorSet:
    """The greedy generating set of ``(ring, *, 1)`` from the ring's
    :func:`~matsemi.rings.op_closure`, less the identity, whose word is ()."""
    cl = op_closure(ring, "mul")
    words = cl.words()
    words[ring.one] = ()
    return GeneratorSet(gens=[g for g in cl.gens if g != ring.one], words=words)


# ---------------------------------------------------------------------------
# Enumeration results


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
# candidate values cheaply.  Only the first probe of each side reads every
# candidate; the rest are gathered for the survivors (see _candidates).
_PREFILTER_PROBES = 64


class _Plan:
    """The search variables of ``dom`` and what each stage decides: the
    generators of ``op_closure(dom, "mul", priority)``, their forced
    rounds, ready pairs, candidate probes and filter checkpoints.

    ``priority`` is ``(e11, e22, i)`` when ``i_relation`` is a filter and
    there is no conjugation table, so the relation is decided at the third
    variable and prunes every branch that breaks it there; otherwise it is
    empty and the variables are picked in ascending element order, which
    the orbit expansion needs (see :func:`_orbit_union`).  The ready pairs
    prove multiplicativity whatever the order of the generators, since
    their lemma inducts on words.
    """

    def __init__(self, dom: RingTable, filters: tuple[str, ...],
                 conj: np.ndarray | None = None):
        # The conjugation table of the orbit search (see _conjugations), or
        # None for the plain search.
        self.conj = conj
        self.priority: tuple[int, ...] = ()
        if "i_relation" in filters and conj is None:
            self.priority = (*_corner_units(dom), dom.require_i())
        cl = op_closure(dom, "mul", self.priority)
        self.vars = cl.gens
        nstages = len(self.vars)
        starts, rs = cl.stage_starts, cl.round_starts
        self.new_elems = [cl.order[starts[p]:starts[p + 1]] for p in range(nstages)]
        self.prev_elems = [cl.order[:starts[p]] for p in range(nstages)]
        stage_of = np.empty(dom.size, dtype=np.int64)
        stage_of[cl.order] = np.repeat(np.arange(nstages), np.diff(starts))
        # Per stage: the rounds after the variable's own, whose images are
        # forced by their derivations, as ``(elems, xs, ys)`` intp arrays
        # with elems = xs * ys.
        dx, dy = cl.deriv_x, cl.deriv_y
        self.rounds = [[tuple(a.astype(np.intp) for a in (rnd, dx[rnd], dy[rnd]))
                        for rnd in (cl.order[a:b] for a, b in zip(rs, rs[1:])
                                    if starts[p] < a < starts[p + 1])]
                       for p in range(nstages)]

        # Per stage: the ready pairs it decides, as intp arrays; together
        # they prove phi multiplicative (see ClosureStages.ready_pairs).
        self.ready = cl.ready_pairs

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


def _conjugations(dom: RingTable, cod: RingTable, filters: tuple[str, ...],
                  limit: int | None, node_budget: int | None) -> np.ndarray | None:
    """The inner automorphisms ``y -> v y v^-1`` of ``cod``, one row per
    coset of its central units (the cosets are exactly the distinct
    automorphisms), in the codomain's table dtype, when the search may keep
    one map per orbit of ``phi -> Ad(v) o phi``; otherwise None.

    It may when both rings are associative by construction, the search is
    neither limited nor budgeted (a truncated orbit search has no
    byte-stable meaning) and every filter is invariant under each Ad(v):
    ``unital`` and ``corner`` always, ``i_relation`` when the codomain's
    i is central, ``star`` only under unitaries, so never.  A table of one
    row (every unit central, as on a commutative codomain) prunes nothing,
    and the plain search runs.
    """
    if ("star" in filters or limit is not None or node_budget is not None
            or not (dom._associative and cod._associative)):
        return None
    mul = cod.mul
    if "i_relation" in filters and not np.array_equal(mul[cod.i_elem],
                                                      mul[:, cod.i_elem]):
        return None
    u = units(cod)
    # A unit is central when it commutes with the monoid's generators.
    gens = op_closure(cod, "mul").gens
    central = u[(mul[np.ix_(u, gens)] == mul[np.ix_(gens, u)].T).all(axis=1)]
    reps = u[mul[np.ix_(central, u)].min(axis=0) == u]  # least of each coset
    if reps.size == 1:
        return None
    inv = np.argmax(mul[reps] == cod.one, axis=1)
    return mul[mul[reps], inv[:, None]]


def _orbit_union(conj: np.ndarray, reps: list[np.ndarray],
                 variables: list[int]) -> list[np.ndarray]:
    """Every ``Ad(v) o phi`` with Ad(v) a row of ``conj`` and phi in
    ``reps``, once each, in lexicographic order of the image arrays.

    A multiplicative map is decided by its images of the search variables,
    since every other element is a product of them, so the maps are
    deduplicated and sorted on those images alone.  As the closure takes
    each variable at the least element its predecessors do not generate,
    two maps first differ at a variable, and the variable images sort the
    full arrays.  The orbits of distinct representatives are disjoint, so
    a repeated key is one map reached twice within its orbit.
    """
    if not reps:
        return reps
    R = np.stack(reps)
    keys = conj[:, R[:, variables]].reshape(-1, len(variables))  # row g*|reps|+j
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    g, j = np.divmod(order[first], len(reps))
    return list(conj[g[:, None], R[j]])


class _StopSearch(Exception):
    pass


def _candidates(plan: _Plan, cod: RingTable, img: np.ndarray, p: int,
                lo: int, hi: int) -> np.ndarray:
    """The values for variable ``p`` (in [lo, hi) at p = 0), ascending,
    that pass the plan's sound constraints given the images ``img`` of the
    earlier stages.

    The constraints are one conjunction, applied cheapest first so that
    the dense gather reads few rows: the star and self-square constraints
    (one entry per candidate), then the first probe of each side (one
    table row or column), then every probe of each side on the survivors.
    Returns as soon as no candidate is left.
    """
    v = plan.vars[p]
    cand = np.arange(lo, hi) if p == 0 else np.arange(cod.size)
    sv, tvv = plan.pf_star[p], plan.pf_self[p]
    if sv != -2:
        cand = cand[cod.star[cand] == (cand if sv == -1 else img[sv])]
    if tvv >= 0 and cand.size:
        cand = cand[cod.mul[cand, cand] == (cand if tvv == v else img[tvv])]
    # Left probes v*x, then right probes x*v (see _Plan.pf_probes).
    sides = list(zip((cod.mul, cod.mul.T), plan.pf_probes[p]))
    for mul, (xs, k, ts) in sides:
        if xs.size and cand.size:
            cand = cand[mul[cand, img[xs[0]]] == (cand if k else img[ts[0]])]
    for mul, (xs, k, ts) in sides:
        if xs.size > 1 and cand.size:
            prod = mul[cand[:, None], img[xs][None, :]]
            cand = cand[(prod[:, :k] == cand[:, None]).all(axis=1)
                        & (prod[:, k:] == img[ts][None, :]).all(axis=1)]
    return cand


def _search_range(dom: RingTable, cod: RingTable, plan: _Plan,
                  limit: int | None, node_budget: int | None, lo: int, hi: int):
    """Depth-first search with the first variable restricted to [lo, hi).
    A complete map counts only once it is multiplicative on every pair:
    the stage checks decide that on rings marked associative by
    construction, and a full scan re-decides it on any other.

    With a conjugation table on the plan (see :func:`_conjugations`) only
    the least map of each orbit is kept, comparing the variable images in
    order (isomorph rejection by lex-minimal representatives).  ``fixed``
    holds the rows of the table that keep every decided variable image; a
    candidate that one of them maps lower is pruned, since every
    completion then has a lesser conjugate.  The least map of an orbit
    passes at every prefix, so every orbit keeps exactly one map."""
    img = np.full(dom.size, -1, dtype=np.int64)
    conj = plan.conj
    # The ready pairs gather their products from the flat table,
    # flat[a * m + b] = a * b; the rounds, mostly a few elements each, from
    # the 2-D table, which costs fewer NumPy calls per small gather.
    flat, m = cod.mul.ravel(), cod.size
    exact = dom._associative and cod._associative
    out: list[np.ndarray] = []
    nodes = 0
    exhausted = True
    nvars = len(plan.vars)

    def check_stage(p: int) -> bool:
        xs, gs, xgs = plan.ready[p]
        if not (img[xgs] == flat[img[xs] * m + img[gs]]).all():
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

    def rec(p: int, fixed: np.ndarray | None):
        nonlocal nodes, exhausted
        if p == nvars:
            if exact or _generator_law(dom.mul, cod.mul, img, range(dom.size)):
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
        cand = _candidates(plan, cod, img, p, lo, hi)
        if fixed is not None:
            moved = conj[fixed[:, None], cand]
            least = (moved >= cand).all(axis=0)
        for j, c in enumerate(cand):
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                exhausted = False
                raise _StopSearch
            if fixed is not None and not least[j]:
                continue
            img[v] = c
            for rnd, xs, ys in plan.rounds[p]:
                img[rnd] = cod.mul[img[xs], img[ys]]
            if check_stage(p):
                rec(p + 1, None if fixed is None else fixed[moved[:, j] == c])
            img[plan.new_elems[p]] = -1

    try:
        rec(0, None if conj is None else np.arange(len(conj)))
    except _StopSearch:
        pass
    # rec reaches itself through its closure cell; breaking that cycle
    # frees the plan and the images on return, not at the next collection.
    rec = None
    return out, nodes, exhausted


# A _run_ring_tasks call runs its tasks in this thread until they have
# taken this much CPU time, and only then hands the rest to a thread pool.
# The searches and scans hold the interpreter lock for much of each task, so
# threads started at the first task contend for it: the five --workers 2
# commands of the bench sweep took 106-141 ms of CPU together that way on a
# 2-vCPU x86 host, against 64-133 ms with this mark, where none of them
# starts a pool.  The fixed partition leaves nearly all of a large search in
# its first task anyway.
_POOL_AFTER_S = 0.1


def _run_ring_tasks(tasks: list, workers: int):
    """Yields ``task()`` for each zero-argument callable in ``tasks``, in
    order.

    The tasks run in order in this thread, each when the caller asks for
    its result.  Before each one, if the tasks run so far have taken
    :data:`_POOL_AFTER_S` of this process's CPU time, ``workers > 1`` and
    at least two tasks remain, every remaining task goes to one thread pool
    of at most one thread per remaining task instead, and its results
    follow the ones computed here.  The pool is started and joined within
    the iteration; a caller that stops early (closing the generator)
    cancels the pool's tasks that have not started, and the pool is joined
    on close.

    Threads are safe because the tasks only read what they share (the
    rings, plans and views), except for the idempotent caches a task may
    fill on first use (:func:`~matsemi.rings.op_closure`,
    ``ClosureStages.ready_pairs``): two threads that build one at once
    store equal values.  A process pool would have to hand every plan
    to its workers: under ``forkserver``, the default start method on
    Linux from Python 3.14, the plans and ring labels are pickled to each
    worker instead of inherited at fork.
    """
    spent = 0.0  # CPU time of the tasks run here, not of the caller
    for i, task in enumerate(tasks):
        if workers > 1 and len(tasks) - i > 1 and spent >= _POOL_AFTER_S:
            # Imported here: the light commands start no pool, and the
            # import costs them start-up time (it loads ``logging``).
            from concurrent.futures import ThreadPoolExecutor

            rest = tasks[i:]
            with ThreadPoolExecutor(max_workers=min(workers, len(rest))) as pool:
                futs = [pool.submit(t) for t in rest]
                try:
                    for f in futs:
                        yield f.result()
                finally:
                    for f in futs:
                        f.cancel()
            return
        start = time.process_time()
        result = task()
        spent += time.process_time() - start
        yield result


# The top-level branches are split into at most this many search tasks.
_MAX_TASKS = 16


def _partition(total: int) -> list[tuple[int, int]]:
    """Fixed partition of [0, total) used regardless of worker count."""
    ntasks = min(total, _MAX_TASKS)
    if ntasks == 0:
        return [(0, 0)]
    bounds = np.linspace(0, total, ntasks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(ntasks)
            if bounds[i] < bounds[i + 1]]


def enumerate_multiplicative_maps(dom: RingTable, cod: RingTable,
                                  filters=(), limit: int | None = None,
                                  node_budget: int | None = None,
                                  workers: int = 1) -> EnumerationResult:
    """Enumerate all multiplicative maps ``dom -> cod`` passing the filters.

    Emission is in lexicographic order of the full image arrays and equals
    the brute-force-filtered set whenever the search runs to completion
    (``exhaustive`` in the result).  ``node_budget`` bounds the nodes of
    each search task, one block of the first variable's values (see
    :func:`_partition`), not of the whole call; ``limit`` keeps the first
    ``limit`` maps the tasks find, in partition order.  Both truncations
    clear the ``exhaustive`` flag.  Under ``i_relation`` the search takes
    e11, e22 and i as its first variables (see :class:`_Plan`) and finds
    maps out of lexicographic order, so the maps kept are sorted here: a
    limited search emits its first ``limit`` maps found, sorted, not the
    least ``limit`` maps.  An unknown filter, or one that a ring cannot
    carry, raises before any node is visited.

    The top-level branches form one task per block of the fixed partition,
    and the tasks' results merge in partition order.  The tasks run in
    this thread; with ``workers > 1``, once they have taken
    ``_POOL_AFTER_S`` of CPU time, a pool of worker threads runs the rest
    (see :func:`_run_ring_tasks`), so a call starts at most one pool, and
    a light one none.  Once the merged results hold ``limit`` maps and are
    already not exhaustive, every later map would be cut, so the call
    takes no further task's results (and runs no further task in this
    thread, or cancels the pool's tasks that have not started).
    ``nodes`` counts the nodes of the tasks whose results were taken.
    Results are byte-identical for every worker count.

    Multiplicativity is decided on right products by the search variables
    (the "ready" pairs of each stage), and on every pair for each complete
    map when a ring is not marked associative by construction (see
    :func:`_search_range`).

    Without ``limit`` or ``node_budget``, with both rings marked
    associative and every filter invariant under conjugation by the
    codomain's units (``star`` is not), the tasks keep one map per orbit
    of ``phi -> v phi v^-1`` and the orbits are expanded here, once, after
    every task (:func:`_conjugations`, :func:`_orbit_union`).  The maps
    are those of the plain search, byte for byte; ``nodes`` counts the
    candidates the smaller search tried, pruned ones included.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    filters = canonical_filters(filters)
    if "star" in filters:
        dom.require_star()
        cod.require_star()
    if "i_relation" in filters:
        cod.require_i()
    plan = _Plan(dom, filters, _conjugations(dom, cod, filters, limit, node_budget))
    tasks = [partial(_search_range, dom, cod, plan, limit, node_budget, lo, hi)
             for lo, hi in _partition(cod.size)]
    found: list[np.ndarray] = []
    nodes = 0
    exhaustive = True
    with closing(_run_ring_tasks(tasks, workers)) as results:
        for imgs, n, ex in results:
            nodes += n
            exhaustive = exhaustive and ex
            for arr in imgs:
                if limit is None or len(found) < limit:
                    found.append(arr)
                else:
                    exhaustive = False
            if not exhaustive and limit is not None and len(found) == limit:
                break
    if plan.conj is not None:
        found = _orbit_union(plan.conj, found, plan.vars)
    elif plan.priority:
        found.sort(key=np.ndarray.tolist)
    return EnumerationResult(maps=[MapTable(dom, cod, arr) for arr in found],
                             nodes=nodes, exhaustive=exhaustive, filters=filters)


# ---------------------------------------------------------------------------
# Counterexample mining and the unique-addition probe


def find_counterexamples(dom: RingTable, cod: RingTable,
                         limit: int | None = None) -> list[MapTable]:
    """Multiplicative maps that fail additivity, in lexicographic order.

    Additivity is decided for every enumerated map at once, as one image
    stack (:func:`~matsemi.maps._stacked_law`).  On a 2x2 matrix ring
    domain every returned map is cross-checked to also fail the corner
    relation; a violation would disprove the additivity equivalence and
    raises :class:`MatsemiError`.
    """
    if limit is not None and limit < 1:
        raise ValueError("limit must be >= 1")
    res = enumerate_multiplicative_maps(dom, cod)
    additive = _stacked_law("add", dom, cod, _image_stack(res.maps, dom.size))
    out = [phi for phi, ok in zip(res.maps, additive) if not ok][:limit]
    if dom.matrix_view is not None and dom.matrix_view.k == 2:
        _, lhs, rhs = _relation("corner", dom, cod, _image_stack(out, dom.size))
        if (lhs == rhs).any():
            raise MatsemiError(
                "multiplicative non-additive map satisfies the corner "
                "relation; additivity equivalence violated")
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


def unique_addition_probe(dom: RingTable, cod: RingTable) -> UniqueAdditionReport:
    """Enumerate multiplicative monoid isomorphisms ``dom -> cod`` and flag
    which are additive.  Requires equal sizes (only bijections qualify):
    the isomorphisms are the bijective maps of the plain enumeration, in
    its lexicographic order.  Their additivity is decided as one image
    stack (:func:`~matsemi.maps._stacked_law`)."""
    if dom.size != cod.size:
        raise SizeMismatch(
            f"|{dom.label}| = {dom.size} but |{cod.label}| = {cod.size}")
    res = enumerate_multiplicative_maps(dom, cod)
    isos = [m for m in res.maps if np.unique(m.img).size == cod.size]
    flags = _stacked_law("add", dom, cod, _image_stack(isos, dom.size)).tolist()
    return UniqueAdditionReport(dom=dom.label, cod=cod.label,
                                isomorphisms=isos, additive_flags=flags,
                                exhaustive=res.exhaustive)


# ---------------------------------------------------------------------------
# Full function-space scan (production side of the oracle cross-checks)


def function_space_masks(dom: RingTable, cod: RingTable, lo: int, hi: int):
    """``(imgs, mult, hom)`` over the function ids [lo, hi) in lexicographic
    order.

    Function id ``t`` is the image array given by the base-|cod| digits of
    ``t`` (most significant digit = image of element 0); ``imgs`` holds
    one row per id.  ``mult`` marks the multiplicative maps and ``hom``
    those that are also additive; additivity is decided for the
    multiplicative maps only.  Both laws are decided by
    :func:`~matsemi.maps._stacked_law`, each map only until its first
    failed block of pairs.
    """
    imgs = _digits(np.arange(lo, hi, dtype=np.int64), dom.size, cod.size, np.int64)
    mult = _stacked_law("mul", dom, cod, imgs)
    hom = mult.copy()
    hom[mult] = _stacked_law("add", dom, cod, imgs[mult])
    return imgs, mult, hom


def function_space_size(dom: RingTable, cod: RingTable) -> int:
    total = cod.size ** dom.size
    if total > BRUTE_FORCE_LIMIT:
        raise SizeCapExceeded(
            f"function space {cod.size}**{dom.size} exceeds {BRUTE_FORCE_LIMIT}")
    return total

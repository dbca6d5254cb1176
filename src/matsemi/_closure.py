"""Greedy generating-set closure for a finite magma given by a Cayley table.

Built once per ring, table and priority by ``rings.op_closure``, which
every generator reduction of the package reads.  The closure is taken
under right multiplication by the generators, which is all the reduction
lemma of ``ClosureStages.ready_pairs`` needs: each element is derived as
x * g with g a generator, and building it reads at most n * len(gens)
products.  Everything here is deterministic: generators are picked in
probe order (a caller's priority elements, then ascending element order)
and each element records the first derivation that produced it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# Every grid of element pairs in the package is evaluated in row blocks of
# about this many entries, through _row_blocks.  A block's working set
# should stay in a core's L2 cache (2 MiB on the hosts measured): NumPy
# copies uint16 np.take indices to intp, 8 bytes per entry, so a block of
# 2**16 entries gathers through a 512 KB index copy beside its 128 KB
# operands, where 2**20 entries needed about 11 MB.  2**16 still holds
# every grid up to n = 256, the whole corpus, in one block.
_BLOCK_ENTRIES = 1 << 16


def _block_rows(width: int) -> int:
    """Rows of a ``width``-wide grid in one block: about
    :data:`_BLOCK_ENTRIES` entries, at least one row."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


def _row_blocks(rows: int, width: int):
    """Yield ``(lo, hi)`` bounds of the row blocks of a ``rows`` x ``width``
    grid (see :func:`_block_rows`)."""
    step = _block_rows(width)
    for lo in range(0, rows, step):
        yield lo, min(lo + step, rows)


def _first_unseen(flat: np.ndarray, seen: np.ndarray):
    """``(vals, first_pos)``: the values of ``flat`` not marked in
    ``seen``, ascending, and the first position in ``flat`` holding each,
    i.e. the first (row, col) of a raveled grid.

    The first hits are the minima of the fresh positions per value,
    gathered into one slot per element of ``seen``, so nothing of block
    size is sorted."""
    fresh = np.flatnonzero(~seen[flat])
    if not fresh.size:
        return fresh, fresh
    first = np.full(seen.size, flat.size, dtype=np.int64)
    np.minimum.at(first, flat[fresh], fresh)
    vals = np.flatnonzero(first < flat.size)
    return vals, first[vals]


@dataclass
class ClosureStages:
    """Result of a greedy closure over the Cayley table ``table``.

    ``order`` lists every element once, in discovery order: the stage of
    each generator in ``gens`` (in probe order, see :func:`greedy_closure`),
    which starts with the generator itself.  Stage ``i`` is
    ``order[stage_starts[i]:stage_starts[i + 1]]``, and each stage is
    split into saturation rounds
    ``order[round_starts[j]:round_starts[j + 1]]``, each sorted ascending,
    whose derivations only reference elements of earlier rounds.  Both
    boundary lists end with ``order.size``.  ``deriv_x``/``deriv_y`` give
    one product ``x * g`` per derived element, with ``g`` a generator of
    its stage or an earlier one; generators carry ``-1``.
    """

    gens: list[int]
    order: np.ndarray
    stage_starts: list[int]
    round_starts: list[int]
    deriv_x: np.ndarray
    deriv_y: np.ndarray
    table: np.ndarray = field(repr=False)

    def words(self) -> list[tuple[int, ...]]:
        """One product expression per element as a sequence of generators.

        Derivations only reference earlier rounds, so one pass in discovery
        order expands them all.
        """
        words: list[tuple[int, ...]] = [()] * self.order.size
        dx, dy = self.deriv_x.tolist(), self.deriv_y.tolist()
        for e in self.order.tolist():
            words[e] = words[dx[e]] + words[dy[e]] if dx[e] >= 0 else (e,)
        return words

    @functools.cached_property
    def ready_pairs(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Per stage p, the "ready" pairs ``(xs, gs, xgs)`` whose right
        products ``xgs = table[xs, gs]`` stage p decides first: the stage's
        new elements times the earlier generators ``gens[:p]``, then the
        closure so far (``order[:stage_starts[p + 1]]``) times ``gens[p]``.
        Across the stages every (x, g) with x in ``order`` and g in
        ``gens`` appears exactly once.  These are the products the rounds
        of stage p read (see :func:`greedy_closure`), together with those
        skipped once every element is known, so every derivation is a
        ready pair.  The search's stage checks and the stacked-law kernel
        read them; :func:`_generator_law` checks the same pairs on image
        arrays.

        Built on first use as three flat read-only intp arrays; each
        stage's triple is a view of them.

        Reduction lemma: on an associative table, a map phi into an
        associative operation with phi(x*g) = phi(x)*phi(g) on every ready
        pair has phi(x*y) = phi(x)*phi(y) for all x and y.  By induction
        on the word of y, which every element has: a generator is a ready
        pair, and for y = y'g, phi(x*y'g) = phi(x*y')phi(g) =
        phi(x)phi(y')phi(g) = phi(x)phi(y'g).
        """
        gens = np.asarray(self.gens, dtype=np.intp)
        starts = self.stage_starts
        xs, gs = [], []
        for p in range(len(self.gens)):
            new = self.order[starts[p]:starts[p + 1]]
            xs += [np.repeat(new, p), self.order[:starts[p + 1]]]
            gs += [np.tile(gens[:p], new.size), np.full(starts[p + 1], gens[p])]
        flat_x = np.concatenate(xs).astype(np.intp, copy=False)
        flat_g = np.concatenate(gs).astype(np.intp, copy=False)
        flat_xg = self.table[flat_x, flat_g].astype(np.intp)
        for arr in (flat_x, flat_g, flat_xg):
            arr.setflags(write=False)
        ends = np.cumsum([a.size for a in xs])[1::2].tolist()  # two parts per stage
        return [(flat_x[lo:hi], flat_g[lo:hi], flat_xg[lo:hi])
                for lo, hi in zip([0] + ends, ends)]


def _generator_law(dom_t: np.ndarray, cod_t: np.ndarray, imgs, gens):
    """Whether phi(x o g) = phi(x) o' phi(g) for every element x and every
    g in ``gens``, with o the table ``dom_t`` and o' the table ``cod_t``:
    one bool for one image array ``imgs``, or one per row of a stack of
    them.  Read one row block of x at a time; stops once every map has
    failed.

    With ``gens`` the generators of the closure of ``dom_t`` and both
    tables associative these are the ready pairs, so the law then holds
    on every pair (see :meth:`ClosureStages.ready_pairs`); with every
    element as ``gens`` it is the full law.
    """
    imgs = np.asarray(imgs).astype(cod_t.dtype)  # images are cod indices
    G = np.asarray(gens, dtype=np.intp)
    img_g = imgs[..., None, G]
    ok = np.ones(imgs.shape[:-1], dtype=bool)
    for lo, hi in _row_blocks(dom_t.shape[0], G.size * ok.size):
        ok &= (imgs[..., dom_t[lo:hi, G]]
               == cod_t[imgs[..., lo:hi, None], img_g]).all(axis=(-2, -1))
        if not ok.any():
            break
    return ok if ok.ndim else bool(ok)


def greedy_closure(table: np.ndarray, priority=()) -> ClosureStages:
    """Greedily pick generators for the magma ``(range(n), table)``.

    Probes the elements of ``priority`` in their order, then every element
    index in ascending order; any element not yet reachable when probed
    becomes a generator, after which the reachable set is closed under
    right multiplication by the generators so far.  Each round takes the
    products frontier * (generators so far), and the first round of a
    stage also old * (new generator) (old: known before the stage), one
    row block at a time; the first such (row, col) pair wins an element's
    derivation.  Once every element is known no further product is read:
    the rest of the round's blocks and later rounds would find nothing new.

    So at most n * len(gens) products are read.  On an associative table
    the subsemigroup generated by a set is the set of its left-nested words
    (((g1 g2) g3) ...), so the generators and each stage's elements are
    those of the closure under every product; on any other table the
    closure may pick more generators.
    """
    n = table.shape[0]
    known = np.zeros(n, dtype=bool)
    deriv_x = np.full(n, -1, dtype=np.int64)
    deriv_y = np.full(n, -1, dtype=np.int64)
    order = np.empty(n, dtype=np.int64)
    end = 0  # order[:end] is known

    gens: list[int] = []
    stage_starts: list[int] = []
    round_starts: list[int] = []
    for g in (*priority, *range(n)):
        if known[g]:
            continue
        gens.append(g)
        gen_arr = np.array(gens, dtype=np.int64)
        stage_starts.append(end)
        known[g] = True
        order[end] = g
        old = order[:end]
        lo, end = end, end + 1  # the frontier is order[lo:end]
        while lo < end:
            round_starts.append(lo)
            if end == n:
                break
            new_end = end
            for rows, cols in ((order[lo:end], gen_arr), (old, gen_arr[-1:])):
                for blo, bhi in _row_blocks(rows.size, cols.size):
                    if new_end == n:
                        break
                    r = rows[blo:bhi]
                    vals, pos = _first_unseen(table[r[:, None], cols].ravel(), known)
                    deriv_x[vals] = r[pos // cols.size]
                    deriv_y[vals] = cols[pos % cols.size]
                    known[vals] = True
                    order[new_end:new_end + vals.size] = vals
                    new_end += vals.size
            order[end:new_end].sort()
            old = order[:0]  # only a stage's first round reads old * g
            lo, end = end, new_end
    stage_starts.append(end)
    round_starts.append(end)
    return ClosureStages(
        gens=gens,
        order=order,
        stage_starts=stage_starts,
        round_starts=round_starts,
        deriv_x=deriv_x,
        deriv_y=deriv_y,
        table=table,
    )

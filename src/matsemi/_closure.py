"""Greedy generating-set closure for a finite magma given by a Cayley table.

Shared by ring validation (generator-reduced exhaustive axiom scans) and by
the map enumerator (stage structure of forced images).  Everything here is
deterministic: generators are picked in ascending element order and each
reachable element records the first derivation that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ClosureStages:
    """Result of a greedy closure over a Cayley table.

    ``gens`` are the chosen generators in ascending order.  Adding
    ``gens[i]`` makes the elements of ``stage_rounds[i]`` reachable; the
    stage is split into saturation rounds whose derivations only reference
    elements of earlier rounds.  ``deriv_x``/``deriv_y`` give one product
    ``x * y`` per derived element; generators and the seed carry ``-1``.
    """

    size: int
    seed: int | None
    gens: list[int]
    stage_rounds: list[list[np.ndarray]]
    deriv_x: np.ndarray
    deriv_y: np.ndarray
    _words: dict[int, tuple[int, ...]] = field(default_factory=dict, repr=False)

    def word(self, elem: int) -> tuple[int, ...]:
        """One product expression for ``elem`` as a sequence of generators.

        The seed element (when present) has the empty word.  Words are
        expanded from the recorded derivations and memoized.
        """
        cached = self._words.get(elem)
        if cached is not None:
            return cached
        # Iterative expansion; derivations only reference earlier elements,
        # but chains can be deep enough to make recursion unpleasant.
        stack = [elem]
        while stack:
            e = stack[-1]
            if e in self._words:
                stack.pop()
                continue
            x = int(self.deriv_x[e])
            if x < 0:
                self._words[e] = () if (self.seed is not None and e == self.seed) else (e,)
                stack.pop()
                continue
            y = int(self.deriv_y[e])
            wx = self._words.get(x)
            wy = self._words.get(y)
            if wx is None or wy is None:
                if wx is None:
                    stack.append(x)
                if wy is None:
                    stack.append(y)
                continue
            self._words[e] = wx + wy
            stack.pop()
        return self._words[elem]

    def words(self) -> list[tuple[int, ...]]:
        return [self.word(e) for e in range(self.size)]


def greedy_closure(table: np.ndarray, seed: int | None) -> ClosureStages:
    """Greedily pick generators for the magma ``(range(n), table)``.

    Scans element indices in ascending order; any element not yet reachable
    becomes a generator, after which the reachable set is saturated under
    the table operation.  With ``seed`` given (an identity element), the
    closure starts from it and the seed never becomes a generator.
    """
    n = table.shape[0]
    known = np.zeros(n, dtype=bool)
    deriv_x = np.full(n, -1, dtype=np.int64)
    deriv_y = np.full(n, -1, dtype=np.int64)
    known_list: list[np.ndarray] = []
    if seed is not None:
        known[seed] = True
        known_list.append(np.array([seed], dtype=np.int64))

    gens: list[int] = []
    stage_rounds: list[list[np.ndarray]] = []
    next_probe = 0
    while True:
        while next_probe < n and known[next_probe]:
            next_probe += 1
        if next_probe == n:
            break
        g = next_probe
        gens.append(g)
        known[g] = True
        rounds = [np.array([g], dtype=np.int64)]
        frontier = rounds[0]
        while frontier.size:
            old = (
                np.concatenate(known_list)
                if known_list
                else np.empty(0, dtype=np.int64)
            )
            known_list.append(frontier)
            allk = np.concatenate(known_list)
            # Candidate products in a fixed order: frontier*all, then
            # old*frontier.  First occurrence wins the derivation.
            blocks = [(frontier, allk, table[np.ix_(frontier, allk)])]
            if old.size:
                blocks.append((old, frontier, table[np.ix_(old, frontier)]))
            found: list[np.ndarray] = []
            for rows, cols, prods in blocks:
                flat = prods.ravel()
                fresh = ~known[flat]
                if not fresh.any():
                    continue
                # np.unique(return_index) keeps the first flat position per
                # value, i.e. the lexicographically first (row, col) pair.
                vals, first = np.unique(flat[fresh], return_index=True)
                pos = np.flatnonzero(fresh)[first]
                deriv_x[vals] = rows[pos // cols.size]
                deriv_y[vals] = cols[pos % cols.size]
                known[vals] = True
                found.append(vals)
            frontier = (
                np.sort(np.concatenate(found)) if found else np.empty(0, dtype=np.int64)
            )
            if frontier.size:
                rounds.append(frontier)
        stage_rounds.append(rounds)
    return ClosureStages(
        size=n,
        seed=seed,
        gens=gens,
        stage_rounds=stage_rounds,
        deriv_x=deriv_x,
        deriv_y=deriv_y,
    )

"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from the definitions with plain
Python integers and loops: no table reuse, no vectorized shortcuts, and no
imports from the package under test.  Index conventions (residues, a + n*b
for Gaussian pairs, row-major matrix digits) are reimplemented from their
definitions so that image arrays are directly comparable.
"""

from __future__ import annotations

import itertools


class OracleRing:
    def __init__(self, size, add, mul, zero, one, star=None, i_elem=None):
        self.size = size
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.star = star
        self.i_elem = i_elem


def oracle_zmod(n: int) -> OracleRing:
    i_elem = None
    for x in range(n):
        if (x * x) % n == (n - 1) % n:
            i_elem = x
            break
    return OracleRing(
        size=n,
        add=lambda a, b: (a + b) % n,
        mul=lambda a, b: (a * b) % n,
        zero=0,
        one=1 % n,
        star=lambda a: a,
        i_elem=i_elem,
    )


def oracle_gauss(n: int) -> OracleRing:
    def dec(x):
        return x % n, x // n

    def enc(a, b):
        return (a % n) + n * (b % n)

    def add(x, y):
        a, b = dec(x)
        c, d = dec(y)
        return enc(a + c, b + d)

    def mul(x, y):
        a, b = dec(x)
        c, d = dec(y)
        return enc(a * c - b * d, a * d + b * c)

    return OracleRing(
        size=n * n, add=add, mul=mul, zero=0, one=1 % (n * n),
        star=lambda x: enc(dec(x)[0], -dec(x)[1]),
        i_elem=n % (n * n),
    )


def oracle_mat2(base: OracleRing) -> OracleRing:
    B = base.size

    def dec(x):
        d3 = x % B
        x //= B
        d2 = x % B
        x //= B
        d1 = x % B
        return (x // B, d1, d2, d3)

    def enc(d0, d1, d2, d3):
        return ((d0 * B + d1) * B + d2) * B + d3

    def add(x, y):
        a = dec(x)
        b = dec(y)
        return enc(*(base.add(p, q) for p, q in zip(a, b)))

    def mul(x, y):
        a0, a1, a2, a3 = dec(x)
        b0, b1, b2, b3 = dec(y)
        return enc(
            base.add(base.mul(a0, b0), base.mul(a1, b2)),
            base.add(base.mul(a0, b1), base.mul(a1, b3)),
            base.add(base.mul(a2, b0), base.mul(a3, b2)),
            base.add(base.mul(a2, b1), base.mul(a3, b3)),
        )

    star = None
    if base.star is not None:
        def star(x):
            d0, d1, d2, d3 = dec(x)
            return enc(base.star(d0), base.star(d2), base.star(d1), base.star(d3))

    i_elem = None
    if base.i_elem is not None:
        i_elem = enc(base.i_elem, base.zero, base.zero, base.i_elem)

    ring = OracleRing(size=B**4, add=add, mul=mul,
                      zero=enc(base.zero, base.zero, base.zero, base.zero),
                      one=enc(base.one, base.zero, base.zero, base.one),
                      star=star, i_elem=i_elem)
    ring.dec = dec
    ring.enc = enc
    ring.base = base
    return ring


def mat2_unit(ring, i, j):
    """Index of e_ij in an oracle_mat2 ring."""
    d = [ring.base.zero] * 4
    d[2 * i + j] = ring.base.one
    return ring.enc(*d)


def det_image(ring) -> list[int]:
    """ad - bc over the decoded entries of an oracle_mat2 ring."""
    base = ring.base
    neg_one = next(t for t in range(base.size)
                   if base.add(base.one, t) == base.zero)
    out = []
    for x in range(ring.size):
        a, b, c, d = ring.dec(x)
        out.append(base.add(base.mul(a, d),
                            base.mul(neg_one, base.mul(b, c))))
    return out


def all_functions(dom_size: int, cod_size: int):
    """All image tuples in lexicographic order."""
    return itertools.product(range(cod_size), repeat=dom_size)


def is_multiplicative(dom: OracleRing, cod: OracleRing, img) -> bool:
    for x in range(dom.size):
        for y in range(dom.size):
            if img[dom.mul(x, y)] != cod.mul(img[x], img[y]):
                return False
    return True


def is_additive(dom: OracleRing, cod: OracleRing, img) -> bool:
    for x in range(dom.size):
        for y in range(dom.size):
            if img[dom.add(x, y)] != cod.add(img[x], img[y]):
                return False
    return True


def corner_holds(dom, cod, img) -> bool:
    e11 = mat2_unit(dom, 0, 0)
    e22 = mat2_unit(dom, 1, 1)
    return img[dom.one] == cod.add(img[e11], img[e22])


def respects_star(dom, cod, img) -> bool:
    return all(img[dom.star(x)] == cod.star(img[x]) for x in range(dom.size))


def star_multiplicative_functions(dom: OracleRing, cod: OracleRing) -> list[tuple]:
    """All multiplicative, star-preserving image tuples, lexicographic order."""
    return [img for img in all_functions(dom.size, cod.size)
            if respects_star(dom, cod, img) and is_multiplicative(dom, cod, img)]


def search_candidates(dom: OracleRing, cod: OracleRing, img, v: int, values,
                      left, right, star: bool = False) -> list[int]:
    """The values c among ``values``, in order, that pass every constraint
    a search puts on the image phi(v) = c of a variable v, checked one
    value at a time.  ``img`` holds the images of the decided elements and
    -1 for the others.  The constraints: phi(v x) = c phi(x) for each probe
    x in ``left``, phi(x v) = phi(x) c for each x in ``right``,
    phi(v v) = c c when v v is v or decided, and, with ``star``,
    phi(v*) = c* when v* is v or decided."""
    def decided(e):
        return e == v or img[e] >= 0

    def image(e, c):
        assert decided(e), f"constraint reads undecided element {e}"
        return c if e == v else img[e]

    assert all(img[x] >= 0 for x in [*left, *right])
    out = []
    for c in values:
        sq = dom.mul(v, v)
        ok = not decided(sq) or image(sq, c) == cod.mul(c, c)
        if star and decided(dom.star(v)):
            ok = ok and image(dom.star(v), c) == cod.star(c)
        ok = ok and all(image(dom.mul(v, x), c) == cod.mul(c, img[x]) for x in left)
        ok = ok and all(image(dom.mul(x, v), c) == cod.mul(img[x], c) for x in right)
        if ok:
            out.append(c)
    return out


def inverses(n: int, op, e: int) -> tuple[list[int], list[bool]]:
    """Per x in range(n): the first y with op(x, y) = e (0 when there is
    none), and whether some y has op(x, y) = e = op(y, x)."""
    first = [next((y for y in range(n) if op(x, y) == e), 0) for x in range(n)]
    two_sided = [any(op(x, y) == e == op(y, x) for y in range(n)) for x in range(n)]
    return first, two_sided


def multiplicative_functions(dom: OracleRing, cod: OracleRing) -> list[tuple]:
    """All multiplicative image tuples, lexicographic order."""
    return [img for img in all_functions(dom.size, cod.size)
            if is_multiplicative(dom, cod, img)]


def multiplicative_bijections(dom: OracleRing, cod: OracleRing) -> list[tuple]:
    """All multiplicative bijections as image tuples, lexicographic order.

    Images are assigned element by element in index order, each new image
    an unused value in ascending order; a branch dies at the first pair
    x, y with x, y and xy assigned and phi(xy) != phi(x)phi(y).
    """
    n = dom.size
    out = []
    img = [-1] * n

    def consistent(e):
        for x in range(e + 1):
            for y in range(e + 1):
                if e not in (x, y) and dom.mul(x, y) != e:
                    continue
                xy = dom.mul(x, y)
                if xy <= e and img[xy] != cod.mul(img[x], img[y]):
                    return False
        return True

    def rec(e):
        if e == n:
            out.append(tuple(img))
            return
        for c in range(cod.size):
            if c in img[:e]:
                continue
            img[e] = c
            if consistent(e):
                rec(e + 1)
        img[e] = -1

    if n == cod.size:
        rec(0)
    return out


def ring_axioms_hold(ring: OracleRing) -> bool:
    """Raw triple-loop check of every ring axiom.  Small rings only."""
    n = ring.size
    for a in range(n):
        if ring.add(a, ring.zero) != a or ring.add(ring.zero, a) != a:
            return False
        if ring.mul(a, ring.one) != a or ring.mul(ring.one, a) != a:
            return False
        if not any(ring.add(a, b) == ring.zero for b in range(n)):
            return False
    for a in range(n):
        for b in range(n):
            if ring.add(a, b) != ring.add(b, a):
                return False
            for c in range(n):
                if ring.add(ring.add(a, b), c) != ring.add(a, ring.add(b, c)):
                    return False
                if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
                    return False
                if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
                    return False
                if ring.mul(ring.add(a, b), c) != ring.add(ring.mul(a, c), ring.mul(b, c)):
                    return False
    return True


def shortest_unit_sum(ring: OracleRing, pool: list[int], x: int,
                      kmax: int) -> list[int] | None:
    """First shortest decomposition in lexicographic multiset order."""
    for m in range(1, kmax + 1):
        for combo in itertools.combinations_with_replacement(pool, m):
            total = combo[0]
            for u in combo[1:]:
                total = ring.add(total, u)
            if total == x:
                return list(combo)
    return None


def _greedy(n: int, op, seed, round_pairs, priority=()) -> dict:
    """The greedy closure of the magma ``(range(n), op)`` whose rounds form
    the products ``round_pairs(order, start, lo, gens)`` lists, the frontier
    being ``order[lo:]`` and the stage starting at ``order[start]``.

    The elements of ``priority`` are probed first, in their order, then
    every element in ascending order; one that is not yet reachable
    becomes a generator, and the reachable set is then saturated in rounds.
    The first product to reach an element is its derivation, and the
    round's new elements, sorted ascending, are the next frontier.  A word
    expands the derivations down to generators; the seed's word is empty.
    """
    order = [] if seed is None else [seed]
    known = set(order)
    deriv = {}
    gens, stage_starts, round_starts = [], [], []
    for g in [*priority, *range(n)]:
        if g in known:
            continue
        gens.append(g)
        start = len(order)
        stage_starts.append(start)
        order.append(g)
        known.add(g)
        lo = start
        while lo < len(order):
            end = len(order)
            round_starts.append(lo)
            new = []
            for x, y in round_pairs(order, start, lo, gens):
                z = op(x, y)
                if z not in known:
                    known.add(z)
                    deriv[z] = (x, y)
                    new.append(z)
            order += sorted(new)
            lo = end
    stage_starts.append(len(order))
    round_starts.append(len(order))

    memo = {}

    def word(e):
        if e not in memo:
            if e == seed:
                memo[e] = ()
            elif e not in deriv:
                memo[e] = (e,)
            else:
                x, y = deriv[e]
                memo[e] = word(x) + word(y)
        return memo[e]

    return {
        "gens": gens, "order": order,
        "stage_starts": stage_starts, "round_starts": round_starts,
        "deriv_x": [deriv[e][0] if e in deriv else -1 for e in range(n)],
        "deriv_y": [deriv[e][1] if e in deriv else -1 for e in range(n)],
        "words": [word(e) for e in range(n)],
    }


def greedy_closure(n: int, op, seed=None, priority=()) -> dict:
    """Greedy generating set of the magma ``(range(n), op)``, saturated
    under every product (see :func:`_greedy`).

    A round forms the products frontier x known (rows in frontier order,
    columns in discovery order), then old x frontier, where old is what was
    known before the frontier.
    """
    def pairs(order, start, lo, gens):
        return ([(x, y) for x in order[lo:] for y in order]
                + [(x, y) for x in order[:lo] for y in order[lo:]])

    return _greedy(n, op, seed, pairs, priority)


def right_closure(n: int, op, seed=None, priority=()) -> dict:
    """Greedy generating set of the magma ``(range(n), op)``, closed under
    right multiplication by the generators (see :func:`_greedy`).

    A round forms the products frontier x gens (rows in frontier order,
    the generators so far ascending); the first round of a stage then
    forms old x g, with g the stage's generator and old, in discovery
    order, what was known before the stage.
    """
    def pairs(order, start, lo, gens):
        out = [(x, g) for x in order[lo:] for g in gens]
        if lo == start:
            out += [(x, gens[-1]) for x in order[:start]]
        return out

    return _greedy(n, op, seed, pairs, priority)


def generator_law(n: int, dom_op, cod_op, img, gens) -> bool:
    """Whether img[x o g] == img[x] o' img[g] for every x in range(n) and
    every g in ``gens``, with o = ``dom_op`` and o' = ``cod_op``."""
    for x in range(n):
        for g in gens:
            if img[dom_op(x, g)] != cod_op(img[x], img[g]):
                return False
    return True


def _mat2_product(ring: OracleRing, a, b):
    """The 2x2 product ``a b`` of nested entry tuples over ``ring``."""
    return tuple(
        tuple(ring.add(ring.mul(a[i][0], b[0][j]), ring.mul(a[i][1], b[1][j]))
              for j in range(2))
        for i in range(2))


def mat2_inverse(ring: OracleRing, m):
    """The first two-sided inverse of the 2x2 matrix ``m`` (nested entry
    tuples) among all |R|**4 matrices over ``ring`` in index order (entries
    row-major, the first most significant), or None."""
    eye = ((ring.one, ring.zero), (ring.zero, ring.one))
    for e in itertools.product(range(ring.size), repeat=4):
        c = (e[:2], e[2:])
        if _mat2_product(ring, m, c) == eye and _mat2_product(ring, c, m) == eye:
            return c
    return None


def corner_identity_violations(ring: OracleRing) -> list[tuple[int, int]]:
    """Pairs (a, b), lexicographic, where the block product
    ``[[1,a],[0,0]] [[b,0],[1,0]]`` differs from ``[[a+b,0],[0,0]]``."""
    one, zero = ring.one, ring.zero
    return [(a, b) for a in range(ring.size) for b in range(ring.size)
            if _mat2_product(ring, ((one, a), (zero, zero)), ((b, zero), (one, zero)))
            != ((ring.add(a, b), zero), (zero, zero))]


def uv_identity_violations(ring: OracleRing) -> list[tuple[int, int]]:
    """Pairs (a, b), lexicographic, where ``u v`` differs from
    ``[[a+b, -1+ab*], [1-a*b, a*+b*]]`` for u = [[1, a], [-a*, 1]] and
    v = [[b, -1], [1, b*]].  ``-x`` is the smallest y with x + y = 0 (0
    when there is none), which only matters on tables that are not rings."""
    add, mul, star, one = ring.add, ring.mul, ring.star, ring.one

    def neg(x):
        return next((y for y in range(ring.size) if add(x, y) == ring.zero), 0)

    out = []
    for a in range(ring.size):
        for b in range(ring.size):
            u = ((one, a), (neg(star(a)), one))
            v = ((b, neg(one)), (one, star(b)))
            want = ((add(a, b), add(neg(one), mul(a, star(b)))),
                    (add(one, neg(mul(star(a), b))), add(star(a), star(b))))
            if _mat2_product(ring, u, v) != want:
                out.append((a, b))
    return out


def tabulated(ring: OracleRing) -> OracleRing:
    """``ring`` with its operations read from tables of its own values."""
    n = ring.size
    add = [[ring.add(a, b) for b in range(n)] for a in range(n)]
    mul = [[ring.mul(a, b) for b in range(n)] for a in range(n)]
    star = [ring.star(a) for a in range(n)]
    return OracleRing(n, lambda a, b: add[a][b], lambda a, b: mul[a][b],
                      ring.zero, ring.one, star=lambda a: star[a],
                      i_elem=ring.i_elem)


def pool(ring: OracleRing, mode: str) -> list[int]:
    """The units (``mode="units"``) or unitaries of ``ring``, ascending."""
    if mode == "units":
        return [x for x in range(ring.size)
                if any(ring.mul(x, y) == ring.one == ring.mul(y, x)
                       for y in range(ring.size))]
    return [x for x in range(ring.size)
            if ring.mul(x, ring.star(x)) == ring.one == ring.mul(ring.star(x), x)]


def doubling_closure(dom: OracleRing, cod: OracleRing, img, pool_elems,
                     depth: int, zero_padding: bool, cap: int = 64):
    """The doubling additivity closure of ``img`` over ``pool_elems``, or
    None when ``img`` is not multiplicative on the pool.

    Pool elements are certified with their images.  Level d takes the base
    of certified sums (every certified element with zero padding, only the
    previous level's new ones without), and for each pair (s, t) of the
    base in lexicographic order asserts img(s+t) = cert(s) + cert(t); the
    first pair to reach an uncertified element certifies it with that sum.
    A failed assertion is a conflict ``[level, s, t, s+t, cert(s)+cert(t),
    img(s+t)]``; all are counted, the first ``cap`` listed.  Returns the
    trace fields: ``pool``, ``levels``, ``conflicts``, ``conflicts_total``,
    and ``extension`` ``[e, cert(e)]`` and ``reps`` ``[e, s, t]`` (t = -1
    for a pool element e = s), ascending in e.
    """
    pool_elems = sorted(pool_elems)
    for x in pool_elems:
        for y in pool_elems:
            if img[dom.mul(x, y)] != cod.mul(img[x], img[y]):
                return None
    cert = {u: img[u] for u in pool_elems}
    reps = {u: (u, -1) for u in pool_elems}
    newest = pool_elems
    levels, conflicts, total = [], [], 0
    for level in range(1, depth + 1):
        base = sorted(cert) if zero_padding else newest
        found, count = [], 0
        for s in base:
            for t in base:
                e = dom.add(s, t)
                value = cod.add(cert[s], cert[t])
                if value != img[e]:
                    count += 1
                    if len(conflicts) < cap:
                        conflicts.append([level, s, t, e, value, img[e]])
                if e not in cert:
                    cert[e] = value
                    reps[e] = (s, t)
                    found.append(e)
        total += count
        levels.append({"level": level, "pairs_checked": len(base) ** 2,
                       "new_certified": len(found), "conflicts": count})
        newest = sorted(found)
    return {
        "pool": pool_elems,
        "levels": levels,
        "conflicts": conflicts,
        "conflicts_total": total,
        "extension": [[e, cert[e]] for e in sorted(cert)],
        "reps": [[e, *reps[e]] for e in sorted(reps)],
    }


def inner_automorphisms(ring: OracleRing) -> list[tuple]:
    """The distinct maps y -> v y v^-1 over the units v of ``ring``, as
    image tuples, ascending."""
    out = set()
    for v in pool(ring, "units"):
        w = next(y for y in range(ring.size) if ring.mul(v, y) == ring.one)
        out.add(tuple(ring.mul(ring.mul(v, y), w) for y in range(ring.size)))
    return sorted(out)


def lex_min_representatives(maps, automorphisms) -> list[tuple]:
    """The image tuples of ``maps`` that no automorphism in
    ``automorphisms`` makes lexicographically smaller: phi with
    phi <= a o phi for every a, which an orbit search keeps.  Input order
    is kept."""
    return [tuple(phi) for phi in maps
            if all(tuple(a[y] for y in phi) >= tuple(phi) for a in automorphisms)]


def pgl_order(k: int, p: int) -> int:
    """|PGL_k(F_p)| = |GL_k(F_p)| / (p - 1), for a prime p: a basis of
    F_p^k is chosen row by row, each row outside the span of the rows
    before it, in p^k - p^i ways for row i."""
    order = 1
    for i in range(k):
        order *= p**k - p**i
    return order // (p - 1)

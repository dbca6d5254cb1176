"""Seeded benchmark inputs, built without the package under test.

Element indices follow the package's documented encodings:

* ``zmod:n`` holds ``x`` at index ``x``;
* ``gauss:n`` holds ``a + b i`` at index ``a + n*b``;
* ``mat:2:<base>`` holds ``[[a, b], [c, d]]`` at index
  ``((a*B + b)*B + c)*B + d`` with ``B = |base|``.

:class:`Arith` re-derives the ring operations from those encodings, so the
benchmark can build maps whose verdicts are known by construction and can
re-check every witness a predicate reports.
"""

from __future__ import annotations

import numpy as np


class Arith:
    """Vectorised ring operations on element indices of one ring spec."""

    def __init__(self, spec: str):
        kind, _, rest = spec.partition(":")
        self.spec = spec
        self.mat = kind == "mat"
        if self.mat:
            k, _, base = rest.partition(":")
            if k != "2":
                raise ValueError(f"only 2x2 matrix rings are supported: {spec}")
            self.base = Arith(base)
            self.B = self.base.size
            self.size = self.B ** 4
            self.zero = 0
            self.one = self.encode(1, 0, 0, 1)
            self.e11 = self.encode(1, 0, 0, 0)
            self.e22 = self.encode(0, 0, 0, 1)
            return
        n = int(rest)
        if kind == "zmod":
            x = np.arange(n)
            self.size = n
            self._add = (x[:, None] + x[None, :]) % n
            self._mul = (x[:, None] * x[None, :]) % n
            self._star = x.copy()
        elif kind == "gauss":
            x = np.arange(n * n)
            a, b = x % n, x // n
            self.size = n * n
            self._add = (a[:, None] + a[None, :]) % n + n * ((b[:, None] + b[None, :]) % n)
            self._mul = ((a[:, None] * a[None, :] - b[:, None] * b[None, :]) % n
                         + n * ((a[:, None] * b[None, :] + b[:, None] * a[None, :]) % n))
            self._star = a + n * ((-b) % n)
        else:
            raise ValueError(f"unsupported ring spec {spec}")
        self.n = n
        self.zero = 0
        self.one = 1 % self.size

    # -- matrix encoding -------------------------------------------------

    def encode(self, a, b, c, d):
        B = self.B
        return ((np.asarray(a) * B + b) * B + c) * B + d

    def digits(self, x):
        B = self.B
        x = np.asarray(x, dtype=np.int64)
        return x // B ** 3 % B, x // B ** 2 % B, x // B % B, x % B

    # -- operations ------------------------------------------------------

    def add(self, x, y):
        if not self.mat:
            return self._add[x, y]
        ba = self.base.add
        return self.encode(*(ba(p, q) for p, q in zip(self.digits(x), self.digits(y))))

    def mul(self, x, y):
        if not self.mat:
            return self._mul[x, y]
        a, b, c, d = self.digits(x)
        e, f, g, h = self.digits(y)
        bm, ba = self.base.mul, self.base.add
        return self.encode(ba(bm(a, e), bm(b, g)), ba(bm(a, f), bm(b, h)),
                           ba(bm(c, e), bm(d, g)), ba(bm(c, f), bm(d, h)))

    def star(self, x):
        if not self.mat:
            return self._star[x]
        a, b, c, d = self.digits(x)
        s = self.base.star
        return self.encode(s(a), s(c), s(b), s(d))

    def lift(self, f: np.ndarray, x):
        """Apply the base-ring map ``f`` (an image array) entrywise."""
        return self.encode(*(f[p] for p in self.digits(x)))

    @property
    def elements(self) -> np.ndarray:
        return np.arange(self.size, dtype=np.int64)


# ---------------------------------------------------------------------------
# Maps with verdicts known by construction


def _base_hom(base: Arith, rng) -> np.ndarray:
    """A star-preserving ring endomorphism of a commutative base ring:
    identity, zero, ``x -> e*x`` for an idempotent integer ``e``, or (for
    Gaussian rings) conjugation."""
    x = base.elements
    idem = [e for e in range(base.n) if (e * e) % base.n == e % base.n]
    choices = ["identity", "zero", "scale"] + (["conj"] if base.size > base.n else [])
    kind = choices[int(rng.integers(len(choices)))]
    if kind == "identity":
        return x.copy()
    if kind == "zero":
        return np.zeros_like(x)
    if kind == "scale":
        return base.mul(idem[int(rng.integers(len(idem)))] % base.size, x)
    return base.star(x)


def passing_map(ring: Arith, rng) -> np.ndarray:
    """A ring endomorphism that commutes with the involution.

    It passes the multiplicative, additive, star and (on 2x2 matrix rings)
    corner checks: every additive map satisfies the corner relation, since
    ``1 = e11 + e22``.  On matrix rings it is an entrywise lift of a base
    endomorphism composed with conjugation by a unitary ``P`` (``P P* = 1``).
    """
    if not ring.mat:
        return _base_hom(ring, rng)
    base = ring.base
    x = ring.elements
    bx = base.elements
    unitary = bx[base.mul(bx, base.star(bx)) == base.one]
    u, v = (int(unitary[i]) for i in rng.integers(unitary.size, size=2))
    p = ring.encode(u, 0, 0, v)
    if rng.integers(2):
        p = ring.mul(p, ring.encode(0, 1, 1, 0))
    img = ring.mul(ring.mul(p, x), ring.star(p))
    return ring.lift(_base_hom(base, rng), img)


def failing_map(ring: Arith, rng) -> tuple[np.ndarray, dict]:
    """A random image array with pinned entries that force failures.

    ``phi(0) = 1`` and ``phi(1) = 0`` break multiplicativity
    (``phi(0*1) = 1`` but ``phi(0)*phi(1) = 0``) and additivity
    (``phi(0+0) = 1`` but ``1 + 1 != 1``).  On matrix rings
    ``phi(e11) = 1, phi(e22) = 0`` break the corner relation.  Where the
    involution moves some element ``t``, ``phi(t) = 1, phi(t*) = 0`` break
    star preservation; where it is the identity every map preserves it.
    Returns the image array and the expected verdict per predicate.
    """
    if ring.size < 2:
        raise ValueError("the one-element ring has no failing self-map")
    img = rng.integers(0, ring.size, size=ring.size)
    img[ring.zero], img[ring.one] = ring.one, ring.zero
    expected = {"multiplicative": False, "additive": False}
    if ring.mat:
        img[ring.e11], img[ring.e22] = ring.one, ring.zero
        expected["corner_relation"] = False
    x = ring.elements
    moved = x[ring.star(x) != x]
    if moved.size:
        t = int(moved[rng.integers(moved.size)])
        img[t], img[int(ring.star(t))] = ring.one, ring.zero
    expected["star"] = moved.size == 0
    return img, expected


def map_mix(ring: Arith, seed: int, n_pass: int, n_fail: int):
    """``(img, expected)`` pairs for one ring, fixed by ``seed``."""
    rng = np.random.default_rng([seed, ring.size])
    out = []
    for _ in range(n_pass):
        expected = {"multiplicative": True, "additive": True, "star": True}
        if ring.mat:
            expected["corner_relation"] = True
        out.append((passing_map(ring, rng), expected))
    for _ in range(n_fail if ring.size > 1 else 0):
        out.append(failing_map(ring, rng))
    return out


def conjugation_map(ring: Arith, seed: int) -> np.ndarray:
    """``X -> P X P^-1`` for a seeded invertible ``P`` over ``zmod:n``."""
    n = ring.base.n
    rng = np.random.default_rng([seed, ring.size, 1])
    while True:
        a, b, c, d = (int(v) for v in rng.integers(0, n, size=4))
        det = (a * d - b * c) % n
        inv = next((t for t in range(1, n) if (det * t) % n == 1), None)
        if inv is not None:
            break
    p = ring.encode(a, b, c, d)
    p_inv = ring.encode(inv * d % n, inv * (n - b) % n, inv * (n - c) % n, inv * a % n)
    return ring.mul(ring.mul(p, ring.elements), p_inv)


# ---------------------------------------------------------------------------
# Witness re-checks


def witness_violates(ring: Arith, img: np.ndarray, predicate: str, w) -> bool:
    """True when ``w`` really violates ``predicate`` for the map ``img``."""
    if predicate == "multiplicative":
        x, y = w
        return int(img[ring.mul(x, y)]) != int(ring.mul(img[x], img[y]))
    if predicate == "additive":
        x, y = w
        return int(img[ring.add(x, y)]) != int(ring.add(img[x], img[y]))
    if predicate == "star":
        (x,) = w
        return int(img[ring.star(x)]) != int(ring.star(img[x]))
    if predicate == "corner_relation":
        return (tuple(w) == (ring.one, ring.e11, ring.e22)
                and int(img[ring.one]) != int(ring.add(img[ring.e11], img[ring.e22])))
    raise ValueError(predicate)

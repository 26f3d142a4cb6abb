"""Truncated power series in z and zbar with coefficients in a jet ring.

A series is a dict from (alpha, beta) multi-index pairs to ring elements,
exact inside the bidegree box cap = (h, a): |alpha| <= h, |beta| <= a.
d_hol lowers h and d_anti lowers a, refusing a side already at 0 (the terms
it would need were truncated); products and sums take the componentwise
smallest box.  Curvature scalars are read at the center after operators
taking as many d as dbar (the Laplacian; a gradient then a divergence) and
products add bidegrees, so a term outside the box (h, h) never reaches a
center value that takes h derivatives on each side.
"""

from __future__ import annotations

from operator import add

from .combinat import decrement
from .rationals import as_count, as_dimension, as_int
from .rings import _add_term

__all__ = ["ScalarSeries"]


def _check_index(key, n):
    """(alpha, beta) as two length-n tuples of non-negative integers; any
    other key is refused with a message that names it."""
    try:
        alpha, beta = map(tuple, key)
    except (TypeError, ValueError):
        raise ValueError(f"jet index {key!r} is not a pair of index tuples") from None
    alpha = tuple(as_int(v, "alpha") for v in alpha)
    beta = tuple(as_int(v, "beta") for v in beta)
    if len(alpha) != n or len(beta) != n:
        raise ValueError(f"jet index {key} does not match dimension {n}")
    if min(alpha + beta, default=0) < 0:
        raise ValueError(f"negative jet index {key}")
    return alpha, beta


def _inside(key, cap):
    alpha, beta = key
    return sum(alpha) <= cap[0] and sum(beta) <= cap[1]


def _sum_products(pairs):
    """Sum of x * y over the pairs (x, y) of series, in one dict, at the
    componentwise smallest cap of all the factors, an empty one's included;
    a pair with an empty factor forms no product, nor does a term pair
    outside the box; every other term pair goes to ring.mul, which applies
    the ring's own caps (see rings).  Pairs are visited in order, x outer
    and y inner, which fixes the insertion order."""
    pairs = list(pairs)
    first = pairs[0][0]
    ring = first.ring
    h, a = map(min, zip(*(s.cap for pair in pairs for s in pair)))
    out: dict = {}
    for x, y in pairs:
        first._check(x)
        first._check(y)
        if not x.terms or not y.terms:
            continue
        inner = y._indexed()
        for (a1, b1), v1, h1, c1 in x._indexed():
            rh, ra = h - h1, a - c1
            if rh < 0 or ra < 0:
                continue
            for (a2, b2), v2, h2, c2 in inner:
                if h2 > rh or c2 > ra:
                    continue
                p = ring.mul(v1, v2)
                if p:
                    key = tuple(map(add, a1, a2)), tuple(map(add, b1, b2))
                    _add_term(out, key, p, ring)
    return first._like((h, a), out)


class ScalarSeries:
    __slots__ = ("ring", "n", "cap", "terms", "_index")

    def __init__(self, ring, n, cap, terms=None):
        self.ring = ring
        self.n = as_dimension(n)
        if type(cap) is int:
            cap = (cap, cap)  # one count c is the square box (c, c)
        if not isinstance(cap, (tuple, list)) or len(cap) != 2:
            raise ValueError(f"cap must be a count or a pair of counts, got {cap!r}")
        self.cap = cap = (as_count(cap[0], "cap"), as_count(cap[1], "cap"))
        clean = {}
        if terms:
            for key, v in terms.items():
                key = _check_index(key, self.n)
                if _inside(key, cap) and v:
                    clean[key] = v
        self.terms = clean
        self._index = None

    @classmethod
    def one(cls, ring, n, cap):
        zero = (0,) * as_dimension(n)
        return cls(ring, n, cap, {(zero, zero): ring.one})

    def _like(self, cap, terms):
        out = ScalarSeries.__new__(ScalarSeries)
        out.ring = self.ring
        out.n = self.n
        out.cap = cap
        out.terms = terms
        out._index = None
        return out

    def _indexed(self):
        """[(key, value, |alpha|, |beta|)], built once."""
        if self._index is None:
            self._index = [(k, v, sum(k[0]), sum(k[1])) for k, v in self.terms.items()]
        return self._index

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, ScalarSeries)
            and self.ring == other.ring
            and self.n == other.n
            and self.terms == other.terms
        )

    def at_zero(self):
        zero = (0,) * self.n
        return self.terms.get((zero, zero), self.ring.zero)

    def add(self, other):
        self._check(other)
        ring = self.ring
        cap = tuple(map(min, self.cap, other.cap))
        out = {k: v for k, v in self.terms.items() if _inside(k, cap)}
        for k, v in other.terms.items():
            if _inside(k, cap):
                _add_term(out, k, v, ring)
        return self._like(cap, out)

    def neg(self):
        return self.scale(-1)

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        return _sum_products(((self, other),))

    def scale(self, c):
        out = {}
        for k, v in self.terms.items():
            s = self.ring.scale(v, c)
            if s:
                out[k] = s
        return self._like(self.cap, out)

    def d_hol(self, a):
        if self.cap[0] < 1:
            raise ValueError(f"d_hol past the holomorphic order of the box {self.cap}")
        out = {}
        for (alpha, beta), v in self.terms.items():
            if alpha[a]:
                out[(decrement(alpha, a), beta)] = self.ring.scale(v, alpha[a])
        return self._like((self.cap[0] - 1, self.cap[1]), out)

    def d_anti(self, a):
        if self.cap[1] < 1:
            raise ValueError(f"d_anti past the antiholomorphic order of the box {self.cap}")
        out = {}
        for (alpha, beta), v in self.terms.items():
            if beta[a]:
                out[(alpha, decrement(beta, a))] = self.ring.scale(v, beta[a])
        return self._like((self.cap[0], self.cap[1] - 1), out)

    def _check(self, other):
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("series mismatch")

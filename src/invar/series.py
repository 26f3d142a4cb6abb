"""Truncated power series in z and zbar with coefficients in a jet ring.

A series is a dict from (alpha, beta) multi-index pairs to ring elements,
kept to total order <= cap.  Differentiation lowers the declared cap by one
so downstream products stay as small as the final evaluation allows.
"""

from __future__ import annotations

from operator import add

from .combinat import decrement
from .rings import _add_term, _truncated_product

__all__ = ["ScalarSeries"]


def _order(key):
    """Total order |alpha| + |beta| of the monomial z^alpha zbar^beta."""
    alpha, beta = key
    return sum(alpha) + sum(beta)


def _add_keys(k1, k2):
    """Key of the product of two monomials."""
    (a1, b1), (a2, b2) = k1, k2
    return tuple(map(add, a1, a2)), tuple(map(add, b1, b2))


class ScalarSeries:
    __slots__ = ("ring", "n", "cap", "terms")

    def __init__(self, ring, n, cap, terms=None):
        self.ring = ring
        self.n = n
        self.cap = cap
        clean = {}
        if terms:
            for key, v in terms.items():
                if _order(key) > cap or ring.is_zero(v):
                    continue
                alpha, beta = key
                clean[(tuple(alpha), tuple(beta))] = v
        self.terms = clean

    @classmethod
    def constant(cls, ring, n, cap, value):
        zero = (0,) * n
        return cls(ring, n, cap, {(zero, zero): value})

    @classmethod
    def one(cls, ring, n, cap):
        return cls.constant(ring, n, cap, ring.one)

    def _like(self, cap, terms):
        out = ScalarSeries.__new__(ScalarSeries)
        out.ring = self.ring
        out.n = self.n
        out.cap = cap
        out.terms = terms
        return out

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
        cap = min(self.cap, other.cap)
        out = {k: v for k, v in self.terms.items() if _order(k) <= cap}
        for k, v in other.terms.items():
            if _order(k) <= cap:
                _add_term(out, k, v, ring)
        return self._like(cap, out)

    def neg(self):
        return self._like(self.cap, {k: self.ring.neg(v) for k, v in self.terms.items()})

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        self._check(other)
        cap = min(self.cap, other.cap)
        product = _truncated_product(
            self.terms, other.terms, self.ring, cap, _order, _add_keys
        )
        return self._like(cap, product)

    def scale(self, c):
        out = {}
        for k, v in self.terms.items():
            s = self.ring.scale(v, c)
            if not self.ring.is_zero(s):
                out[k] = s
        return self._like(self.cap, out)

    def d_hol(self, a):
        out = {}
        for (alpha, beta), v in self.terms.items():
            if alpha[a]:
                out[(decrement(alpha, a), beta)] = self.ring.scale(v, alpha[a])
        return self._like(max(self.cap - 1, 0), out)

    def d_anti(self, a):
        out = {}
        for (alpha, beta), v in self.terms.items():
            if beta[a]:
                out[(alpha, decrement(beta, a))] = self.ring.scale(v, beta[a])
        return self._like(max(self.cap - 1, 0), out)

    def _check(self, other):
        if self.ring != other.ring or self.n != other.n:
            raise ValueError("series mismatch")

"""Gaussian rational arithmetic.

Everything downstream is exact: real coefficients are ``fractions.Fraction``
and complex ones are :class:`GaussRat`, three Python ints ``(p, q, d)`` with
value ``(p + q*i)/d``, kept in the canonical form ``d > 0`` and
``gcd(p, q, d) = 1``.  No floats enter any computation in this package.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd


def as_int(value, field: str) -> int:
    """An integer argument; floats, bools and strings are refused, never
    truncated, with a message that names the field."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def as_count(value, field: str) -> int:
    """A non-negative integer argument, refused like as_int otherwise."""
    if type(value) is not int or value < 0:
        as_int(value, field)  # a non-integer gets as_int's message
        raise ValueError(f"{field} must be non-negative, got {value}")
    return value


def as_positive(value, field: str) -> int:
    """An integer argument of at least 1, refused like as_int otherwise."""
    if as_int(value, field) < 1:
        raise ValueError(f"{field} must be at least 1, got {value}")
    return value


_JSON_KINDS = {list: "a list", dict: "an object"}


def as_json(value, kind, field: str):
    """A JSON list (kind list) or object (kind dict) read from a file; any
    other value is refused with a message that names the field, never
    indexed or iterated."""
    if not isinstance(value, kind):
        raise ValueError(f"{field} must be {_JSON_KINDS[kind]}, got {value!r}")
    return value


def as_dimension(n) -> int:
    """A complex dimension: an integer of at least 1."""
    if as_int(n, "n") < 1:
        raise ValueError("need at least one complex dimension")
    return n


_RATIONAL_STRING = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def as_fraction(x) -> Fraction:
    """An exact rational from a Fraction, an integer or a string of the form
    ``"p"`` or ``"p/q"`` (optional sign, decimal digits, no spaces); floats
    and bools are refused, and so are other strings and a zero q."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL_STRING.fullmatch(x)
        if m is None:
            raise ValueError(f"not a rational 'p' or 'p/q' string: {x!r}")
        den = int(m.group(2) or 1)
        if not den:
            raise ValueError(f"zero denominator in {x!r}")
        return Fraction(int(m.group(1)), den)
    raise TypeError(f"not an exact rational: {x!r}")


def random_fraction(rng) -> Fraction:
    """Seeded coefficient draw p/q, p in [-3, 3] then q in [1, 3]; every
    seeded generator draws here, so its stream depends on both bounds."""
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def as_gauss(x) -> "GaussRat":
    if isinstance(x, GaussRat):
        return x
    return GaussRat(x)


class GaussRat:
    """A Gaussian rational ``re + im*i``, stored as ``(p + q*i)/d``.

    The form is canonical (``d > 0``, ``gcd(p, q, d) = 1``), so equal values
    have equal fields.  ``re`` and ``im`` are read-only Fraction views.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            d = 1
        else:
            re = as_fraction(re)
            im = as_fraction(im)
            # re and im are reduced, so the shared denominator lcm(b, e)
            # leaves gcd(p, q, d) = 1: each prime of d divides b or e fully
            b, e = re.denominator, im.denominator
            d = b // gcd(b, e) * e
            re = re.numerator * (d // b)
            im = im.numerator * (d // e)
        _set_p(self, re)
        _set_q(self, im)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __delattr__(self, name):
        raise AttributeError("GaussRat is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild from the fields, which the
        # default slot-by-slot restore cannot set
        return _make, (self._p, self._q, self._d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._q, self._d)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self._d, other._d
        if d == e:
            return _make(self._p + other._p, self._q + other._q, d)
        return _make(self._p * e + other._p * d, self._q * e + other._q * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + -other

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussRat:
            if type(other) is int:
                return _make(self._p * other, self._q * other, self._d)
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p, q, a, b = self._p, self._q, other._p, other._q
        return _make(p * a - q * b, p * b + q * a, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        p, q, a, b = self._p, self._q, other._p, other._q
        norm = a * a + b * b
        if not norm:
            raise ZeroDivisionError("division by zero GaussRat")
        # (p + qi)/d / ((a + bi)/e) = (p + qi)(a - bi) e / (d (a^2 + b^2))
        e = other._d
        return _make((p * a + q * b) * e, (q * a - p * b) * e, self._d * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __pow__(self, k: int):
        k = as_count(k, "exponent")
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussRat":
        return _make(self._p, -self._q, self._d)

    # -- comparisons and hashing -----------------------------------------

    def __eq__(self, other):
        if type(other) is not GaussRat:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self):
        # a real value hashes like the equal int or Fraction
        if not self._q:
            return hash(Fraction(self._p, self._d))
        return hash((self._p, self._q, self._d))

    def __bool__(self):
        return bool(self._p or self._q)

    # -- presentation ------------------------------------------------------

    def __repr__(self):
        if not self.im:
            return f"GaussRat({self.re})"
        return f"GaussRat({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


_set_p = GaussRat._p.__set__
_set_q = GaussRat._q.__set__
_set_d = GaussRat._d.__set__
_new = object.__new__


def _make(p, q, d):
    """The GaussRat (p + q*i)/d for ints with d > 0, reduced by one gcd and
    built without validation."""
    g = gcd(p, q, d)
    if g != 1:
        p //= g
        q //= g
        d //= g
    x = _new(GaussRat)
    _set_p(x, p)
    _set_q(x, q)
    _set_d(x, d)
    return x


def _coerce(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    return NotImplemented


GR_ZERO = GaussRat(0)
GR_ONE = GaussRat(1)


def format_fraction(x: Fraction) -> str:
    """Canonical string form used in JSON payloads: always ``p/q``."""
    x = as_fraction(x)
    return f"{x.numerator}/{x.denominator}"

"""Coefficient rings for jet computations.

Three interchangeable rings sit under the power series and kernel pipeline:

* GaussRing: plain Gaussian rationals, for evaluating geometry at explicit
  numeric jets.
* GradedRing: Gaussian rationals graded by jet weight, for numeric kernel
  runs.  Grades are doubled so they stay integral (a jet z^a zbar^b carries
  grade |a|+|b|-2); multiplication drops anything above the cap, which is
  what keeps the kernel expansion finite.
* SymbolicRing: polynomials in formal jet symbols with Gaussian-rational
  coefficients, for identities that must hold for every potential.  Carries
  the same grade cap; the linear flag drops every monomial of total degree
  above one (the linearized theory).

Elements are plain values (GaussRat, dict of grades, dict of monomials);
all arithmetic goes through the ring object, and an element is falsy
exactly when it is zero.  The dict rings read a key's doubled weight
through grade.  Code that needs more than arithmetic branches on the ring
class: the CLI prints a GradedRing element as one total, and the kernel
pipeline refuses a GaussRing and check_weight skips it.  Pruning lives in
mul alone: series and symbol products pass every pair inside their own box
or t-order cap, and a product the ring's caps drop comes back zero.  SymbolicRing.mul answers
zero at once when the factors' least monomial grades sum past the grade
cap, or on the linear ring when neither factor has a constant term.

Elements are shared values that nothing mutates: every operation builds a
new dict or returns an operand it was given, so a result may be the
caller's own object, and each ring's zero and one are class constants.  A
sum into an empty slot keeps the addend (add with a zero operand,
_add_term on an absent key, a fresh key in mul), so no sum adds a zero, and
scaling by 1 returns its argument.  An element's dict holds only nonzero
coefficients.
"""

from __future__ import annotations

from functools import cache

from .rationals import GR_ONE, GR_ZERO, as_gauss

__all__ = ["GaussRing", "GradedRing", "SymbolicRing", "symbol_grade"]


def symbol_grade(key) -> int:
    """Doubled weight of the jet symbol (alpha, beta)."""
    alpha, beta = key
    return sum(alpha) + sum(beta) - 2


def _add_term(terms, key, value, ring):
    """Add the ring element value into terms[key] in place.  An absent key
    stores value itself (the object, shared, not a copy) unless it is zero,
    and ring.add runs only on a key already held; a sum that cancels pops
    its key, so a key that comes back is appended last."""
    if key in terms:
        value = ring.add(terms[key], value)
    if not value:
        terms.pop(key, None)
    else:
        terms[key] = value


def check_weight(ring, name, weight):
    """On a graded or symbolic ring a doubled weight must fit under the grade
    cap; above it every product is dropped and the value would read zero."""
    if not isinstance(ring, GaussRing) and 2 * weight > ring.cap:
        raise ValueError(
            f"{name} has doubled weight {2 * weight}, above the ring's grade cap {ring.cap}"
        )


class GaussRing:
    """Plain Gaussian rationals."""

    __slots__ = ()

    zero = GR_ZERO
    one = GR_ONE

    def __eq__(self, other):
        return type(other) is GaussRing

    def __hash__(self):
        return hash(GaussRing)

    def add(self, x, y):
        if not x:
            return y
        if not y:
            return x
        return x + y

    def mul(self, x, y):
        return x * y

    def scale(self, x, c):
        if type(c) is not int:
            c = as_gauss(c)
        return x if c == 1 else x * c

    def conj(self, x):
        return x.conjugate()


class _DictRing:
    """Linear structure shared by the graded rings: an element is a dict from
    a key (a grade, or a symbol monomial) to a nonzero Gaussian rational.
    Subclasses supply one, mul, conj and grade (the doubled weight of a
    key).  A ring is equal only to itself, so series combine only on one
    ring object."""

    __slots__ = ()

    zero: dict = {}

    def add(self, x, y):
        out = dict(x)
        for k, c in y.items():
            if k in out:
                c = out[k] + c
                if not c:
                    del out[k]
                    continue
            out[k] = c
        return out

    def scale(self, x, c):
        if type(c) is not int:
            c = as_gauss(c)
        if c == 1:
            return x
        if not c:
            return {}
        return {k: v * c for k, v in x.items()}


class GradedRing(_DictRing):
    """Gaussian rationals tagged with doubled jet weight; capped products."""

    __slots__ = ("cap",)

    one: dict = {0: GR_ONE}

    def __init__(self, cap):
        self.cap = cap

    @staticmethod
    def grade(g):
        return g

    def graded(self, grade, c):
        c = as_gauss(c)
        if not c or grade > self.cap:
            return {}
        return {grade: c}

    def mul(self, x, y):
        out: dict = {}
        for g1, c1 in x.items():
            for g2, c2 in y.items():
                g = g1 + g2
                if g > self.cap:
                    continue
                p = c1 * c2
                if g in out:
                    p = out[g] + p
                    if not p:
                        del out[g]
                        continue
                out[g] = p
        return out

    def conj(self, x):
        return {g: c.conjugate() for g, c in x.items()}


class SymbolicRing(_DictRing):
    """Polynomials in formal jet symbols (alpha, beta), capped by grade; on
    the linear ring, also at total degree one.

    A monomial is a sorted tuple of (symbol, exponent) pairs; conjugation
    swaps each symbol's index pair and conjugates the coefficient, which is
    exactly the constraint a real potential puts on its jets.
    """

    __slots__ = ("cap", "linear", "grade")

    one: dict = {(): GR_ONE}

    def __init__(self, cap, linear=False):
        self.cap = cap
        self.linear = linear
        # each monomial's grade, computed once and kept for the ring's life:
        # one entry per distinct monomial whose grade is read
        self.grade = cache(self.monomial_grade)

    def symbol(self, key):
        alpha, beta = key
        key = (tuple(alpha), tuple(beta))
        if symbol_grade(key) > self.cap:
            return {}
        return {((key, 1),): GR_ONE}

    @staticmethod
    def monomial_grade(mono):
        return sum(symbol_grade(s) * e for s, e in mono)

    @staticmethod
    def monomial_degree(mono):
        return sum(e for _, e in mono)

    def mul(self, x, y):
        if self.linear and () not in x and () not in y:
            return {}  # every term would have degree at least 2
        grade = self.grade
        if not x or not y or min(map(grade, x)) + min(map(grade, y)) > self.cap:
            return {}  # every term would be past the grade cap
        out: dict = {}
        for m1, c1 in x.items():
            d1 = dict(m1)
            g1 = grade(m1)
            n1 = self.monomial_degree(m1) if self.linear else 0
            for m2, c2 in y.items():
                if g1 + grade(m2) > self.cap:
                    continue
                if self.linear and n1 + self.monomial_degree(m2) > 1:
                    continue
                merged = dict(d1)
                for s, e in m2:
                    merged[s] = merged.get(s, 0) + e
                m = tuple(sorted(merged.items()))
                p = c1 * c2
                if m in out:
                    p = out[m] + p
                    if not p:
                        del out[m]
                        continue
                out[m] = p
        return out

    def conj(self, x):
        out = {}
        for m, c in x.items():
            m2 = tuple(sorted((((s[1], s[0]), e) for s, e in m)))
            out[m2] = c.conjugate()
        return out

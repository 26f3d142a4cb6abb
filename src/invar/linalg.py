"""Exact rational linear solving for the witness search.

The solver asks for many right-hand sides against one column space, so the
columns are reduced once, left to right, into a sparse basis; a solve
reduces the right-hand side against that basis and back-substitutes once.

A column pivots on its row that the fewest columns ahead of it and basis
vectors touch (Markowitz counts, Management Sci. 1957), which cuts fill-in;
the basis, the leftmost independent column set, does not depend on the
pivots.  The reduction is
fraction-free (Bareiss, Math. Comp. 1968): every column is scaled to
integers by the lcm of its denominators, every step multiplies through
instead of dividing, and every basis vector is kept primitive.  A basis
vector keeps only the record of how it was reduced, not its value as a
combination of the original columns.  Fractions appear only in the
back-substitution of solve().
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from .rationals import as_fraction

__all__ = ["LinearSystem"]

_ZERO = Fraction(0)


def _integer_map(vec):
    """(scale, map) with map = scale * vec over ints, scale the lcm of the
    denominators; entries go through as_fraction, so floats are refused."""
    vec = {r: as_fraction(v) for r, v in vec.items()}
    scale = lcm(*(v.denominator for v in vec.values()))
    return scale, {r: v.numerator * (scale // v.denominator) for r, v in vec.items() if v}


class LinearSystem:
    """Sparse column basis of a fixed list of columns (maps row -> exact
    rational: Fraction, int or "p/q" string).

    Column order is significant: a column joins the basis only if the columns
    to its left do not span it, and solve() is zero on every other column.
    """

    def __init__(self, columns):
        self.ncols = len(columns)
        # (pivot row, pivot value, primitive integer vector that is 0 at
        # every earlier pivot)
        self._basis = []
        # per basis vector r_k, built from column c: (c, content, factor,
        # [(i, m)]) with factor * column c = content * r_k + sum m * r_i
        self._records = []
        maps = [_integer_map(col) for col in columns]
        touched = Counter(r for _, vec in maps for r in vec)
        for c, (scale, vec) in enumerate(maps):
            touched.subtract(vec.keys())
            factor, pairs = self._reduce(vec)
            if vec:
                pivot = min(vec, key=lambda r: (touched[r], r))
                content = gcd(*vec.values())
                vec = {r: v // content for r, v in vec.items()}
                touched.update(vec.keys())
                self._basis.append((pivot, vec[pivot], vec))
                self._records.append((c, content, factor * scale, pairs))
        self.rank = len(self._basis)

    def _reduce(self, vec):
        """Reduce the integer map vec in place against the basis in order.

        Each step is vec <- a * vec - b * r_i, with a and b the pivot value
        of r_i and the entry of vec there, divided by their gcd.  Returns
        (factor, [(i, m)]) with the final vec equal to factor * (the vec
        passed in) - sum m * r_i.
        """
        steps = []
        for i, (pivot, d, bvec) in enumerate(self._basis):
            f = vec.get(pivot)
            if f:
                g = gcd(f, d)
                a, b = d // g, f // g
                if a != 1:
                    for k in vec:
                        vec[k] *= a
                for k, v in bvec.items():
                    s = vec.get(k, 0) - b * v
                    if s:
                        vec[k] = s
                    else:
                        del vec[k]
                steps.append((i, a, b))
        # a step's b is scaled by every a applied after it
        factor, pairs = 1, []
        for i, a, b in reversed(steps):
            pairs.append((i, b * factor))
            factor *= a
        return factor, pairs

    def solve(self, rhs) -> list | None:
        """Basic solution x with columns . x = rhs (a sparse map row ->
        exact rational), or None if inconsistent."""
        scale, vec = _integer_map(rhs)
        factor, pairs = self._reduce(vec)
        if vec:
            return None
        # rhs = sum (y_i / den) * r_i; peel each r_k back into its column and
        # the basis vectors it was reduced by, last basis vector first,
        # keeping the y_i integers over the one denominator den
        y, den = [0] * self.rank, scale * factor
        for i, m in pairs:
            y[i] = m
        x = [_ZERO] * self.ncols
        for k in range(self.rank - 1, -1, -1):
            if y[k]:
                c, content, kfactor, kpairs = self._records[k]
                g = gcd(y[k], content)
                t, q = y[k] // g, content // g
                if q != 1:
                    den *= q
                    y[:k] = [v * q for v in y[:k]]
                x[c] = Fraction(t * kfactor, den)
                for i, m in kpairs:
                    y[i] -= t * m
        return x

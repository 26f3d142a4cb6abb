"""Exact rational linear solving for the witness search.

The solver asks for many right-hand sides against one column space, so the
columns are reduced once, left to right, into a sparse basis that records
how each basis vector is built from the original columns; a solve reduces
the right-hand side against that basis.  Everything is Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LinearSystem"]

_ZERO = Fraction(0)


def _add_scaled(target, f, source):
    """target += f * source on sparse maps, dropping entries that cancel."""
    for k, v in source.items():
        s = target.get(k, _ZERO) + f * v
        if s:
            target[k] = s
        else:
            del target[k]


class LinearSystem:
    """Sparse column basis of a fixed list of columns (maps row -> Fraction).

    Column order is significant: a column joins the basis only if the columns
    to its left do not span it, and solve() is zero on every other column.
    """

    def __init__(self, columns):
        self.ncols = len(columns)
        # (pivot row, vector that is 1 at its pivot and 0 at every earlier
        # pivot, that vector as a combination of the original columns)
        self._basis = []
        for c, col in enumerate(columns):
            residual, taken = self._reduce(col)
            if residual:
                pivot = min(residual)
                inv = 1 / Fraction(residual[pivot])
                built = {k: -v * inv for k, v in taken.items()}
                built[c] = inv
                vec = {r: v * inv for r, v in residual.items()}
                self._basis.append((pivot, vec, built))
        self.rank = len(self._basis)

    def _reduce(self, vec):
        """vec reduced against the basis in order, and the combination of
        original columns taken out of it."""
        vec, taken = dict(vec), {}
        for pivot, bvec, built in self._basis:
            f = vec.get(pivot)
            if f:
                _add_scaled(vec, -f, bvec)
                _add_scaled(taken, f, built)
        return vec, taken

    def solve(self, rhs) -> list | None:
        """Basic solution x with columns . x = rhs (a sparse map row ->
        Fraction), or None if inconsistent."""
        residual, taken = self._reduce(rhs)
        if residual:
            return None
        x = [_ZERO] * self.ncols
        for c, v in taken.items():
            x[c] = v
        return x

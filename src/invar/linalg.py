"""Exact rational linear solving for the witness search.

The decomposition solver asks for many right-hand sides against one column
space, so the Gauss-Jordan elimination of the column matrix is done once and
recorded as a row transform; each solve is then a single matrix-vector
product plus a consistency check.  Everything is Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["LinearSystem"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LinearSystem:
    """RREF factorization of a fixed column family.

    columns: list of sparse maps row -> Fraction over rows 0..nrows-1.
    Column order is significant: the basic solution returned by solve() sets
    every non-pivot variable to zero, and pivots are chosen left to right.
    """

    def __init__(self, columns, nrows):
        self.ncols = len(columns)
        self.nrows = nrows
        matrix = [[_ZERO] * self.ncols for _ in range(nrows)]
        for c, col in enumerate(columns):
            for r, v in col.items():
                matrix[r][c] = v
        # transform starts as the identity; row ops applied to both
        transform = [
            [_ONE if i == j else _ZERO for j in range(nrows)] for i in range(nrows)
        ]
        pivots = []  # (row, col) with row == position in reduced order
        rank = 0
        for c in range(self.ncols):
            prow = next(
                (r for r in range(rank, nrows) if matrix[r][c]), None
            )
            if prow is None:
                continue
            if prow != rank:
                matrix[rank], matrix[prow] = matrix[prow], matrix[rank]
                transform[rank], transform[prow] = transform[prow], transform[rank]
            inv = 1 / matrix[rank][c]
            if inv != 1:
                matrix[rank] = [v * inv for v in matrix[rank]]
                transform[rank] = [v * inv for v in transform[rank]]
            for r in range(nrows):
                if r == rank:
                    continue
                f = matrix[r][c]
                if f:
                    mrank = matrix[rank]
                    trank = transform[rank]
                    matrix[r] = [v - f * w for v, w in zip(matrix[r], mrank)]
                    transform[r] = [v - f * w for v, w in zip(transform[r], trank)]
            pivots.append((rank, c))
            rank += 1
        self.rank = rank
        self.pivots = pivots
        self.transform = transform

    def solve(self, rhs) -> list | None:
        """Basic solution x with columns . x = rhs, or None if inconsistent.

        rhs is a sparse map row -> Fraction.  Non-pivot entries of x are zero
        and pivot entries are read off the fully reduced system.
        """
        items = rhs.items()
        reduced = [sum((row[k] * v for k, v in items), _ZERO) for row in self.transform]
        if any(reduced[r] for r in range(self.rank, self.nrows)):
            return None
        x = [_ZERO] * self.ncols
        for row, col in self.pivots:
            x[col] = reduced[row]
        return x

"""The sparse column basis behind the witness search."""

import random
from fractions import Fraction

from invar.linalg import LinearSystem
from invar.solver import _column_space

F = Fraction


def apply(columns, x):
    out = {}
    for col, xc in zip(columns, x):
        for r, v in col.items():
            out[r] = out.get(r, 0) + xc * v
    return {r: v for r, v in out.items() if v}


def dense_rank(columns):
    """Reference rank by plain row reduction of the dense column list."""
    rows = sorted({r for col in columns for r in col})
    m = [[col.get(r, F(0)) for col in columns] for r in rows]
    rank = 0
    for c in range(len(columns)):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_hand_built_columns():
    c0 = {0: F(1), 2: F(3)}
    columns = [c0, {r: 2 * v for r, v in c0.items()}, {1: F(-1, 2), 2: F(1)}]
    system = LinearSystem(columns)
    assert system.rank == 2
    assert system.solve(columns[1]) == [2, 0, 0]
    assert system.solve({0: F(1)}) is None
    assert system.solve({}) == [0, 0, 0]


def test_solutions_on_a_real_block():
    columns = _column_space(6, 2, ((2, 2),) * 2)["columns"]
    system = LinearSystem(columns)
    assert system.rank == dense_rank(columns)
    # a column is spanned by those to its left exactly when it leaves the
    # rank of the prefix unchanged
    spanned = [
        dense_rank(columns[: c + 1]) == dense_rank(columns[:c])
        for c in range(len(columns))
    ]
    assert any(spanned) and not all(spanned)
    rng = random.Random(0)
    for _ in range(20):
        coeffs = [
            F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3 else F(0)
            for _ in columns
        ]
        rhs = apply(columns, coeffs)
        x = system.solve(rhs)
        assert apply(columns, x) == rhs
        assert all(not v for v, s in zip(x, spanned) if s)

"""The sparse column basis behind the witness search."""

import random
from fractions import Fraction

import pytest

from invar.linalg import LinearSystem
from invar.solver import _column_space

F = Fraction
_ZERO = F(0)


def _add_scaled(target, f, source):
    """target += f * source on sparse maps, dropping entries that cancel."""
    for k, v in source.items():
        s = target.get(k, _ZERO) + f * v
        if s:
            target[k] = s
        else:
            del target[k]


class FractionLinearSystem:
    """Reference: the same left-to-right column basis in Fraction arithmetic,
    each basis vector carrying its combination of the original columns."""

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
        vec, taken = dict(vec), {}
        for pivot, bvec, built in self._basis:
            f = vec.get(pivot)
            if f:
                _add_scaled(vec, -f, bvec)
                _add_scaled(taken, f, built)
        return vec, taken

    def solve(self, rhs):
        residual, taken = self._reduce(rhs)
        if residual:
            return None
        x = [_ZERO] * self.ncols
        for c, v in taken.items():
            x[c] = v
        return x


def basis_columns(system):
    """The columns that joined the basis, in order, for either class."""
    if isinstance(system, FractionLinearSystem):
        # built holds its own column and columns to the left of it
        return [max(built) for _, _, built in system._basis]
    return [c for c, *_ in system._records]


def apply(columns, x):
    out = {}
    for col, xc in zip(columns, x):
        for r, v in col.items():
            out[r] = out.get(r, 0) + xc * v
    return {r: v for r, v in out.items() if v}


def assert_parity(columns, rhss):
    """Same rank, same basis columns, and exactly equal solutions (None
    included) as the Fraction reference; returns the solutions."""
    system, ref = LinearSystem(columns), FractionLinearSystem(columns)
    assert system.ncols == ref.ncols == len(columns)
    assert system.rank == ref.rank
    assert basis_columns(system) == basis_columns(ref)
    xs = []
    for rhs in rhss:
        x = system.solve(rhs)
        assert x == ref.solve(rhs)
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            assert apply(columns, x) == {r: v for r, v in rhs.items() if v}
        xs.append(x)
    return xs


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


def _random_value(rng):
    return F(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))


# every (sigma, weight, restriction) block of the decompose bench workload,
# and (3, 9), whose Fraction factorization takes about 20 s
R11 = (1, 1)
BLOCKS = [
    (1, 2, None), (1, 3, None), (1, 4, None),
    (2, 4, None), (2, 5, None), (2, 6, None),
    (3, 6, None), (3, 7, None), (3, 5, (R11,) * 3),
    (3, 8, None), (4, 5, (R11,) * 4),
    (3, 9, None),
]


@pytest.mark.parametrize(
    "sigma, w, restriction", BLOCKS, ids=[f"s{s}-w{w}" + ("-r11" if r else "") for s, w, r in BLOCKS]
)
def test_integer_basis_matches_the_fraction_reference(sigma, w, restriction):
    columns = _column_space(w, sigma, restriction)["columns"]
    rows = sorted({r for col in columns for r in col})
    rng = random.Random(1000 * sigma + w)
    consistent = [
        apply(columns, [_random_value(rng) if rng.random() < 0.2 else 0 for _ in columns])
        for _ in range(4)
    ]
    # random values on random rows, and a spanned target moved off the span
    # by one row no column reaches
    off = [{r: _random_value(rng) for r in rng.sample(rows, min(3, len(rows)))}]
    off.append({**consistent[0], rows[-1] + 1: F(1)})
    xs = assert_parity(columns, consistent + off + [{}])
    assert all(x is not None for x in xs[:4])
    assert xs[-2] is None
    assert xs[-1] == [0] * len(columns)


def test_mixed_denominators():
    columns = [
        {0: F(1, 3), 1: F(2, 7)},
        {1: F(-5, 6), 2: F(1, 3)},
        {0: F(2, 7), 2: F(-5, 6), 3: F(1, 3)},
        {0: F(1, 3) + F(2, 7), 1: F(2, 7) - F(5, 6), 2: F(1, 3) - F(5, 6), 3: F(1, 3)},
    ]
    rhss = [
        {0: F(-5, 6)},
        {0: F(1, 3), 1: F(2, 7), 2: F(-5, 6)},
        apply(columns, [F(2, 7), F(-5, 6), F(1, 3), 0]),
        {3: F(1, 21)},
    ]
    xs = assert_parity(columns, rhss)
    assert LinearSystem(columns).rank == 3
    assert xs[2] == [F(2, 7), F(-5, 6), F(1, 3), 0]


def test_negative_and_non_unit_pivots():
    columns = [
        {0: -3, 1: 2},
        {0: 6, 1: -4, 2: 5},
        {1: -7, 2: 2},
        {0: -9, 1: 6, 2: 10},
        {2: -4, 3: 6},
    ]
    rhss = [apply(columns, [1, -2, 3, 0, 5]), {0: 1}, {3: -6}, {1: 1, 3: 1}]
    xs = assert_parity(columns, rhss)
    assert all(x is not None for x in xs)
    assert xs[2] == [F(-8, 5), F(-4, 5), 0, 0, -1]


def test_zero_duplicate_and_empty_columns():
    c = {0: F(1, 2), 2: F(-3)}
    columns = [{}, c, dict(c), {1: F(4)}, {}, dict(c)]
    xs = assert_parity(columns, [c, {0: F(1), 1: F(2), 2: F(-6)}, {0: F(1)}, {}])
    assert LinearSystem(columns).rank == 2
    assert xs[0] == [0, 1, 0, 0, 0, 0]
    assert xs[1] == [0, 2, 0, F(1, 2), 0, 0]
    assert xs[2] is None
    assert assert_parity([], [{}, {0: F(1)}]) == [[], None]
    # an explicit zero entry is no entry
    assert LinearSystem([{3: F(0)}, {3: 0, 1: F(2)}]).rank == 1


def test_empty_right_hand_side_gives_zero_fractions():
    columns = _column_space(6, 2, None)["columns"]
    x = LinearSystem(columns).solve({})
    assert x == [0] * len(columns)
    assert all(type(v) is Fraction for v in x)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, 1j], ids=repr)
def test_inexact_entries_are_refused(bad):
    """Column and right-hand side entries go through as_fraction: scaling a
    float to an integer would truncate it."""
    with pytest.raises(TypeError):
        LinearSystem([{0: F(1)}, {1: bad}])
    system = LinearSystem([{0: F(1)}, {1: F(1, 2)}])
    with pytest.raises(TypeError):
        system.solve({0: F(1), 1: bad})


def test_factorization_does_no_fraction_arithmetic(monkeypatch):
    columns = _column_space(7, 3, None)["columns"]

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in the factorization")

    for name in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
        for prefix in ("__", "__r"):
            monkeypatch.setattr(Fraction, f"{prefix}{name}__", refuse)
    monkeypatch.setattr(Fraction, "__neg__", refuse)
    system = LinearSystem(columns)
    monkeypatch.undo()
    assert system.rank == FractionLinearSystem(columns).rank


def test_pivots_on_the_least_touched_row_cut_fill_in():
    """Each column pivots on its row that the fewest columns ahead and basis
    vectors touch, which keeps the basis sparse: at (w, sigma) = (9, 3) it
    holds 3072 nonzeros, against 4164 when the pivot is the smallest row."""
    system = LinearSystem(_column_space(9, 3, None)["columns"])
    assert system.rank == 582
    assert sum(len(vec) for _, _, vec in system._basis) <= 3072

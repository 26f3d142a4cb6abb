"""The sparse curvature tables against the nested-list package they replaced.

`NestedPackage` is the earlier `CurvaturePackage`: every table a nested list
of n^rank series, absent entries stored as empty series, and every
contraction handing all its pairs, empty factors included, to one
`_sum_products` call per output.  The sparse package must give every table
entry (cap and terms, absent entries included) and every scalar exactly.
"""

import itertools
import random
from fractions import Fraction
from functools import reduce

import pytest

from invar import geometry
from invar.geometry import curvature_package
from invar.jets import Potential, random_hermitian_jets
from invar.series import ScalarSeries, _sum_products


def _table(n, rank, entry, canon=None):
    """Nested lists T[i][j]... = entry(i, j, ...), each index over range(n).

    With canon, entry runs only at the tuples that canon fixes, and every
    tuple refers to the one object built at canon(i, j, ...)."""
    if canon is not None:
        built = {}
        for idx in itertools.product(range(n), repeat=rank):
            if canon(*idx) == idx:
                built[idx] = entry(*idx)
        return _table(n, rank, lambda *idx: built[canon(*idx)])
    if rank == 1:
        return [entry(i) for i in range(n)]
    return [_table(n, rank - 1, lambda *rest, i=i: entry(i, *rest)) for i in range(n)]


class NestedPackage:
    """The nested-list curvature package, with the index conventions of
    `CurvaturePackage`: G[a][b], Ginv[b][a], Gamma[e][d][c], K[e][c][a][d],
    Ric[a][d] and the raised Ricci T[p][c]."""

    def __init__(self, pot, cap):
        n = pot.n
        ring = pot.ring
        rng = range(n)
        self.n = n
        self.ring = ring
        self.cap = cap
        H = pot.series(cap + 2)
        E = _table(n, 2, lambda a, b: H.d_hol(a).d_anti(b))
        one = ScalarSeries.one(ring, n, cap + 1)
        G = _table(n, 2, lambda a, b: E[a][b].add(one) if a == b else E[a][b])
        box = (cap, cap + 1)
        one, zero = ScalarSeries.one(ring, n, box), ScalarSeries(ring, n, box)
        F = _table(n, 2, lambda a, b: E[a][b].add(zero).neg())
        Ginv, power = _table(n, 2, lambda a, b: one if a == b else zero), F
        for k in range(1, cap + 1):
            Ginv = _table(n, 2, lambda a, b: Ginv[a][b].add(power[a][b]))
            if k < cap:
                power = _table(
                    n, 2, lambda a, b: _sum_products((power[a][e], F[e][b]) for e in rng)
                )
        dG = _table(n, 3, lambda c, a, b: G[a][b].d_hol(c))
        Gamma = _table(
            n,
            3,
            lambda e, b, c: _sum_products((Ginv[d][e], dG[b][c][d]) for d in rng),
            lambda e, b, c: (e, min(b, c), max(b, c)),
        )
        trace = [reduce(ScalarSeries.add, (Gamma[e][e][a] for e in rng)) for a in rng]
        Ric = _table(n, 2, lambda a, d: trace[a].d_anti(d).neg())
        self.G, self.Ginv, self.Gamma, self.Ric = G, Ginv, Gamma, Ric
        self.S = _sum_products((Ginv[b][a], Ric[a][b]) for a in rng for b in rng)
        Gamma, canon = self.Gamma, lambda e, c, a, d: (e, min(c, a), max(c, a), d)
        self.K = _table(n, 4, lambda e, c, a, d: Gamma[e][c][a].d_anti(d), canon)
        self.T = _table(
            n, 2, lambda p, c: _sum_products((Ginv[q][c], Ric[p][q]) for q in rng)
        )

    def laplacian(self, f):
        n = self.n
        return _sum_products(
            (self.Ginv[b][a], f.d_hol(a).d_anti(b)) for a in range(n) for b in range(n)
        )

    def curvature_norm2(self):
        n, rng = self.n, range(self.n)
        Ginv, K = self.Ginv, self.K
        P = _table(
            n,
            4,
            lambda x, c, a, z: _sum_products((Ginv[d][z], K[x][c][a][d]) for d in rng),
            lambda x, c, a, z: (min(x, z), min(c, a), max(c, a), max(x, z)),
        )
        return _sum_products(
            (P[x][c][a][z], P[a][z][x][c])
            for x, c, a, z in itertools.product(rng, repeat=4)
        )

    def ricci_norm2(self):
        T, rng = self.T, range(self.n)
        return _sum_products((T[a][p], T[p][a]) for a in rng for p in rng)

    def gradient_divergence(self):
        rng = range(self.n)
        Ginv, Gamma, K, Ric, S, T = self.Ginv, self.Gamma, self.K, self.Ric, self.S, self.T
        Y = _table(
            self.n,
            2,
            lambda a, f: _sum_products(
                (K[p][c][a][f], T[p][c]) for p in rng for c in rng
            ).sub(S.mul(Ric[a][f]).scale(4)),
        )
        F = (
            self.curvature_norm2()
            .sub(self.ricci_norm2().scale(4))
            .add(S.mul(S).scale(8))
        )
        Q = []
        for a in rng:
            covY = _sum_products(
                (
                    Ginv[f][d],
                    Y[a][f].d_hol(d).sub(_sum_products((Gamma[e][d][a], Y[e][f]) for e in rng)),
                )
                for d in rng
                for f in rng
            )
            Q.append(F.d_hol(a).add(covY.scale(2)).scale(Fraction(1, 48)))
        return _sum_products((Ginv[b][a], Q[a].d_anti(b)) for a in rng for b in rng)


_RANKS = {"G": 2, "Ginv": 2, "Gamma": 3, "K": 4, "Ric": 2, "T": 2}


def _nested_entry(table, idx):
    return reduce(lambda t, i: t[i], idx, table)


def _scalars(pkg):
    """Every series scalar the package reads at its cap."""
    out = {"S": pkg.S, "abs_R2": pkg.curvature_norm2(), "abs_Ric2": pkg.ricci_norm2()}
    f = pkg.S
    for k in range(1, pkg.cap + 1):
        f = out[f"lap{k}_S"] = pkg.laplacian(f)
    if pkg.cap:
        out["div_Q"] = pkg.gradient_divergence()
    return out


def assert_parity(pot, cap):
    pkg, ref = curvature_package(pot, cap), NestedPackage(pot, cap)
    tables = {**{name: getattr(pkg, name) for name in _RANKS if name != "T"},
              "T": pkg.T}
    for name, rank in _RANKS.items():
        for idx in itertools.product(range(pot.n), repeat=rank):
            got, want = tables[name][idx], _nested_entry(getattr(ref, name), idx)
            assert (got.cap, got.terms) == (want.cap, want.terms), (name, idx, cap)
        assert all(s.terms for s in tables[name].values()), name
    got, want = _scalars(pkg), _scalars(ref)
    assert list(got) == list(want)
    for name in want:
        assert (got[name].cap, got[name].terms) == (want[name].cap, want[name].terms), name


def _rich(n, seed):
    rng = random.Random(seed)
    return {**random_hermitian_jets(n, 1, rng), **random_hermitian_jets(n, 3, rng)}


def _potential(kind, n):
    """Weight 3 potentials, except symbolic n = 3 at weight 2 (the full one
    takes about 10 s to package at weight 3)."""
    if kind == "gauss":
        return Potential.numeric(n, _rich(n, 40 + n))
    if kind == "graded":
        return Potential.graded_numeric(n, _rich(n, 50 + n), 3)
    return Potential.symbolic(n, 3 if n < 3 else 2, linear=kind == "linear")


@pytest.mark.parametrize("kind", ["gauss", "graded", "linear", "symbolic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_sparse_tables_match_the_nested_package(kind, n):
    pot = _potential(kind, n)
    for cap in range(4):
        assert_parity(pot, cap)


def _sparse_draw(n, seed):
    """A graded potential drawn like the kernel benchmark's random a3 ops:
    a sparse conjugate-paired draw up to weight 3."""
    return Potential.graded_numeric(n, random_hermitian_jets(n, 3, random.Random(seed)), 3)


@pytest.mark.parametrize("n", [2, 3])
def test_sparse_draws_match_the_nested_package(n):
    """Most entries of these packages are empty at cap 1."""
    empty = total = 0
    for seed in range(6):
        pot = _sparse_draw(n, seed)
        for cap in range(3):
            assert_parity(pot, cap)
        K = curvature_package(pot, 1).K
        empty += n**4 - len(K)
        total += n**4
    assert 2 * empty > total


def test_named_scalars_match_the_nested_package():
    for pot in (_sparse_draw(3, 7), _potential("graded", 2), Potential.symbolic(2, 3)):
        for name in ("S", "lap_S", "lap2_S", "abs_R2", "abs_Ric2", "div_Q"):
            want = geometry._read(pot, name, lambda cap: NestedPackage(pot, cap))
            assert geometry.named_scalar(pot, name) == want, name


def test_gradient_divergence_pairs_only_nonempty_factors(monkeypatch):
    """On a sparse n = 3 draw, no pair with an empty factor reaches the
    contraction: the nested package handed it every index's pair."""
    pot = _sparse_draw(3, 3)
    pkg = curvature_package(pot, 1)
    want = NestedPackage(pot, 1).gradient_divergence()
    pairs = []
    contract = geometry._sum_products

    def recorded(given):
        given = list(given)
        pairs.extend(given)
        return contract(given)

    monkeypatch.setattr(geometry, "_sum_products", recorded)
    assert want and pkg.gradient_divergence() == want
    assert pairs and all(x.terms and y.terms for x, y in pairs)


def test_symmetric_classes_share_one_series():
    pkg = curvature_package(_potential("graded", 3), 2)
    assert all(s is pkg.Gamma[e, c, b] for (e, b, c), s in pkg.Gamma.items())
    assert all(s is pkg.K[e, a, c, d] for (e, c, a, d), s in pkg.K.items())
    cut = pkg.restrict(1)
    assert all(s is cut.Gamma[e, c, b] for (e, b, c), s in cut.Gamma.items())

"""The capped products against plain pair loops.

`ScalarSeries.mul` (curvature series, truncated to a bidegree box) and
`bergman.convolve` (operator symbols, truncated by the t-order and its
defect and pruned by ring grade) are checked against stand-alone loops:
x outer, y inner, cap check, ring product, zero skip, and an add that pops
a key whose sum cancels.  Results are compared as item lists, so dict
insertion order is pinned as well as the values.
"""

import random

import pytest

from invar.bergman import build_A, convolve
from invar.geometry import curvature_package
from invar.jets import Potential, jet_keys_up_to_grade
from invar.rationals import GaussRat
from invar.rings import GaussRing, GradedRing, SymbolicRing
from invar.series import ScalarSeries, _sum_products


def reference_series_mul(s1, s2):
    """The product on the componentwise smallest box: a pair is kept when
    both its holomorphic and its antiholomorphic degrees fit."""
    ring = s1.ring
    h, a = min(s1.cap[0], s2.cap[0]), min(s1.cap[1], s2.cap[1])
    out: dict = {}
    for (a1, b1), v1 in s1.terms.items():
        for (a2, b2), v2 in s2.terms.items():
            if sum(a1) + sum(a2) > h or sum(b1) + sum(b2) > a:
                continue
            p = ring.mul(v1, v2)
            if ring.is_zero(p):
                continue
            k = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            s = ring.add(out.get(k, ring.zero), p)
            if ring.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


def reference_convolve(t1, t2, ring, jprime_cap):
    out: dict = {}
    for (g1, d1, j1), v1 in t1.items():
        p1 = j1 + sum(g1) - sum(d1)
        for (g2, d2, j2), v2 in t2.items():
            if p1 + j2 + sum(g2) - sum(d2) > jprime_cap:
                continue
            v = ring.mul(v1, v2)
            if ring.is_zero(v):
                continue
            key = (
                tuple(x + y for x, y in zip(g1, g2)),
                tuple(x + y for x, y in zip(d1, d2)),
                j1 + j2,
            )
            s = ring.add(out.get(key, ring.zero), v)
            if ring.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return out


RINGS = {
    "gauss": GaussRing(),
    "graded": GradedRing(4),
    "symbolic": SymbolicRing(4),
    # products of two symbols vanish here, so the zero skip is exercised
    "linear": SymbolicRing(4, degree_cap=1),
}
SYMBOLS = jet_keys_up_to_grade(1, 3)


def random_value(ring, rng):
    """A nonzero ring element with small coefficients, so sums cancel often."""
    while True:
        c = GaussRat(rng.choice((-1, 1)), rng.choice((0, 0, 0, 1)))
        if isinstance(ring, GaussRing):
            return c
        if isinstance(ring, GradedRing):
            v = ring.graded(rng.choice((0, 2, 4)), c)
        else:
            v = ring.scale(ring.one, c) if rng.random() < 0.5 else {}
            sym = ring.symbol(rng.choice(SYMBOLS))
            v = ring.add(v, ring.scale(sym, rng.choice((-1, 1))))
        if not ring.is_zero(v):
            return v


def random_indices(n, rng):
    return tuple(rng.randint(0, 1) for _ in range(n))


def random_series(ring, n, rng):
    terms = {}
    for _ in range(rng.randint(1, 9)):
        terms[(random_indices(n, rng), random_indices(n, rng))] = random_value(ring, rng)
    return ScalarSeries(ring, n, (rng.randint(0, 4), rng.randint(0, 4)), terms)


def random_symbol(ring, n, rng):
    terms = {}
    for _ in range(rng.randint(1, 9)):
        key = (random_indices(n, rng), random_indices(n, rng), rng.randint(-1, 1))
        terms[key] = random_value(ring, rng)
    return terms


@pytest.mark.parametrize("name", sorted(RINGS))
def test_series_mul_matches_the_reference_loop(name):
    ring = RINGS[name]
    for seed in range(100):
        rng = random.Random(seed)
        n = 1 + seed % 2
        s1, s2 = random_series(ring, n, rng), random_series(ring, n, rng)
        want = reference_series_mul(s1, s2)
        got = s1.mul(s2)
        assert got.cap == tuple(map(min, s1.cap, s2.cap))
        assert list(got.terms.items()) == list(want.items()), seed


@pytest.mark.parametrize("name", sorted(RINGS))
def test_convolve_matches_the_reference_loop(name):
    ring = RINGS[name]
    for seed in range(100):
        rng = random.Random(seed)
        n = 1 + seed % 2
        t1, t2 = random_symbol(ring, n, rng), random_symbol(ring, n, rng)
        for cap in range(-2, 4):
            # only pairs past the t-order cap reach a key past it
            want = [(k, v) for k, v in reference_convolve(t1, t2, ring, cap).items() if k[2] <= cap]
            got = convolve(t1, t2, ring, cap)
            assert list(got.items()) == want, (seed, cap)


def test_pairs_exactly_at_the_cap_are_kept():
    ring = GaussRing()
    x = ScalarSeries(ring, 1, 2, {((1,), (0,)): GaussRat(1)})
    y = ScalarSeries(ring, 1, 3, {((0,), (1,)): GaussRat(2), ((2,), (0,)): GaussRat(3)})
    assert list(x.mul(y).terms.items()) == [(((1,), (1,)), GaussRat(2))]
    # defects 1 + 1 = 2 sit on the cap; 1 + 2 lies past it
    t1 = {((1,), (0,), 0): GaussRat(1)}
    t2 = {((0,), (0,), 1): GaussRat(2), ((0,), (0,), 2): GaussRat(3)}
    assert list(convolve(t1, t2, ring, 2).items()) == [(((1,), (0,), 1), GaussRat(2))]
    assert convolve(t1, t2, ring, 1) == {}


def test_cancelled_sums_are_dropped_and_reinserted_last():
    ring = GaussRing()
    z, zb, zzb = ((1,), (0,)), ((0,), (1,)), ((1,), (1,))
    x = ScalarSeries(ring, 1, (2, 2), {z: GaussRat(1), zb: GaussRat(1)})
    y = ScalarSeries(ring, 1, (2, 2), {zb: GaussRat(1), z: GaussRat(-1)})
    # |z|^2 comes in at +1 and then cancels at -1
    assert list(x.mul(y).terms.items()) == [
        (((2,), (0,)), GaussRat(-1)),
        (((0,), (2,)), GaussRat(1)),
    ]
    # a key that cancels and comes back moves to the end; on the box (2, 1)
    # zbar^2 and z zbar^2 are dropped, though their total order 2 and 3 fit
    one = ((0,), (0,))
    x = ScalarSeries(ring, 1, (2, 2), {z: GaussRat(1), zb: GaussRat(1), one: GaussRat(1)})
    y = ScalarSeries(ring, 1, (3, 1), {zb: GaussRat(1), z: GaussRat(-1), zzb: GaussRat(1)})
    got = list(x.mul(y).terms.items())
    assert got == [
        (((2,), (0,)), GaussRat(-1)),
        (((2,), (1,)), GaussRat(1)),
        (((0,), (1,)), GaussRat(1)),
        (((1,), (0,)), GaussRat(-1)),
        (zzb, GaussRat(1)),
    ]
    assert x.mul(y).cap == (2, 1)
    assert got == list(reference_series_mul(x, y).items())


def test_the_linear_ring_skips_vanishing_products():
    ring = RINGS["linear"]
    sym = ring.symbol(((2,), (2,)))
    x = {((0,), (0,), 0): sym, ((1,), (0,), 0): ring.one}
    y = {((0,), (1,), 0): sym}
    # sym * sym has degree two and vanishes; only one * sym survives
    assert list(convolve(x, y, ring, 5).items()) == [(((1,), (1,), 0), sym)]


def test_build_A_forms_no_symbolic_product_past_the_caps(monkeypatch):
    """convolve skips a pair whose lowest grades or degrees sum past the
    ring's caps, so no SymbolicRing product comes back empty; the full pair
    loop formed 36,401 products here, almost all of them empty."""
    products = []
    mul = SymbolicRing.mul
    monkeypatch.setattr(
        SymbolicRing, "mul", lambda self, x, y: products.append(p := mul(self, x, y)) or p
    )
    assert build_A(Potential.symbolic(2, 3, linear=True), 3)
    assert products and all(products)


def test_a_contraction_with_an_empty_factor_forms_no_product(monkeypatch):
    ring_products, series_products = [], []
    monkeypatch.setattr(GaussRing, "mul", lambda self, x, y: ring_products.append(1) or x * y)
    mul = ScalarSeries.mul
    monkeypatch.setattr(ScalarSeries, "mul", lambda s, o: series_products.append(1) or mul(s, o))
    ring = GaussRing()
    x = ScalarSeries(ring, 1, (3, 3), {((1,), (0,)): GaussRat(2), ((0,), (1,)): GaussRat(1)})
    empty = ScalarSeries(ring, 1, (1, 2))
    got = _sum_products([(x, empty), (empty, x)])
    assert not got and got.cap == (1, 2) and not ring_products
    # the empty factor's cap still bounds the pairs that are formed
    got = _sum_products([(x, empty), (x, x)])
    assert got.cap == (1, 2) and list(got.terms) == [((1,), (1,)), ((0,), (2,))]
    assert len(ring_products) == 3
    # the Laplacian of an empty series contracts empty factors only
    pkg = curvature_package(Potential.numeric(2, {((2, 0), (2, 0)): GaussRat(1)}), 2)
    ring_products.clear()
    series_products.clear()
    lap = pkg.laplacian(ScalarSeries(ring, 2, (2, 2)))
    assert not lap and lap.cap == (1, 1)
    assert not ring_products and not series_products

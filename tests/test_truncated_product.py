"""The shared capped product against the two pair loops it replaced.

`ScalarSeries.mul` (curvature series) and `bergman.convolve` (operator
symbols) both run through `rings._truncated_product`.  The references below
are the stand-alone loops each of them used before, kept verbatim in
behaviour: x outer, y inner, cap check, ring product, zero skip, and an add
that pops a key whose sum cancels.  Results are compared as item lists, so
dict insertion order is pinned as well as the values.
"""

import random

import pytest

from invar.bergman import convolve
from invar.jets import jet_keys_up_to_grade
from invar.rationals import GaussRat
from invar.rings import GaussRing, GradedRing, SymbolicRing
from invar.series import ScalarSeries


def reference_series_mul(s1, s2):
    ring = s1.ring
    cap = min(s1.cap, s2.cap)
    out: dict = {}
    for (a1, b1), v1 in s1.terms.items():
        o1 = sum(a1) + sum(b1)
        for (a2, b2), v2 in s2.terms.items():
            if o1 + sum(a2) + sum(b2) > cap:
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
    return ScalarSeries(ring, n, rng.randint(1, 5), terms)


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
        assert got.cap == min(s1.cap, s2.cap)
        assert list(got.terms.items()) == list(want.items()), seed


@pytest.mark.parametrize("name", sorted(RINGS))
def test_convolve_matches_the_reference_loop(name):
    ring = RINGS[name]
    for seed in range(100):
        rng = random.Random(seed)
        n = 1 + seed % 2
        t1, t2 = random_symbol(ring, n, rng), random_symbol(ring, n, rng)
        for cap in range(-2, 4):
            want = reference_convolve(t1, t2, ring, cap)
            got = convolve(t1, t2, ring, n, cap)
            assert list(got.items()) == list(want.items()), (seed, cap)


def test_pairs_exactly_at_the_cap_are_kept():
    ring = GaussRing()
    x = ScalarSeries(ring, 1, 2, {((1,), (0,)): GaussRat(1)})
    y = ScalarSeries(ring, 1, 3, {((0,), (1,)): GaussRat(2), ((2,), (0,)): GaussRat(3)})
    assert list(x.mul(y).terms.items()) == [(((1,), (1,)), GaussRat(2))]
    # defects 1 + 1 = 2 sit on the cap; 1 + 2 lies past it
    t1 = {((1,), (0,), 0): GaussRat(1)}
    t2 = {((0,), (0,), 1): GaussRat(2), ((0,), (0,), 2): GaussRat(3)}
    assert list(convolve(t1, t2, ring, 1, 2).items()) == [(((1,), (0,), 1), GaussRat(2))]
    assert convolve(t1, t2, ring, 1, 1) == {}


def test_cancelled_sums_are_dropped_and_reinserted_last():
    ring = GaussRing()
    z, zb = ((1,), (0,)), ((0,), (1,))
    x = ScalarSeries(ring, 1, 4, {z: GaussRat(1), zb: GaussRat(1)})
    y = ScalarSeries(ring, 1, 4, {zb: GaussRat(1), z: GaussRat(-1)})
    # |z|^2 comes in at +1 and then cancels at -1
    assert list(x.mul(y).terms.items()) == [
        (((2,), (0,)), GaussRat(-1)),
        (((0,), (2,)), GaussRat(1)),
    ]
    # a key that cancels and comes back moves to the end
    x = ScalarSeries(ring, 1, 4, {z: GaussRat(1), zb: GaussRat(1), ((0,), (0,)): GaussRat(1)})
    y = ScalarSeries(ring, 1, 4, {zb: GaussRat(1), z: GaussRat(-1), ((1,), (1,)): GaussRat(1)})
    got = list(x.mul(y).terms.items())
    assert len(got) == 7 and got[-1] == (((1,), (1,)), GaussRat(1))
    assert got == list(reference_series_mul(x, y).items())


def test_the_linear_ring_skips_vanishing_products():
    ring = RINGS["linear"]
    sym = ring.symbol(((2,), (2,)))
    x = {((0,), (0,), 0): sym, ((1,), (0,), 0): ring.one}
    y = {((0,), (1,), 0): sym}
    # sym * sym has degree two and vanishes; only one * sym survives
    assert list(convolve(x, y, ring, 1, 5).items()) == [(((1,), (1,), 0), sym)]

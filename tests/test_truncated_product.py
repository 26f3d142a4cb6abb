"""The capped products against plain pair loops.

`ScalarSeries.mul` (curvature series, truncated to a bidegree box),
`bergman.convolve` (operator symbols, truncated by the t-order and its
defect) and `SymbolicRing.mul` (monomials, truncated by grade and degree)
are checked against stand-alone loops: x outer, y inner, cap check,
product, zero skip, and an add that pops a key whose sum cancels.  The
series and symbol loops call the ring's mul; the monomial loop calls no
ring code.  Results are compared as item lists, so dict insertion order is
pinned as well as the values.

The accumulation rule (a sum into an empty slot keeps the addend, scaling
by one keeps the element) is checked against a stand-alone copy of the
rule it replaced, which added every term to an explicit zero; by a count
of the zero additions the kernel pipeline makes; and by an aliasing guard,
since a stored value may now be the caller's own object.
"""

import copy
import random

import pytest

from invar.bergman import bergman_coefficients, convolve
from invar.geometry import curvature_package, kernel_coefficient_reference, named_scalar
from invar.jets import Potential, jet_keys_up_to_grade, random_hermitian_jets
from invar.rationals import GR_ONE, GR_ZERO, GaussRat
from invar.rings import GaussRing, GradedRing, SymbolicRing, _add_term, _DictRing
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
            if not p:
                continue
            k = (
                tuple(x + y for x, y in zip(a1, a2)),
                tuple(x + y for x, y in zip(b1, b2)),
            )
            s = ring.add(out.get(k, ring.zero), p)
            if not s:
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
            if not v:
                continue
            key = (
                tuple(x + y for x, y in zip(g1, g2)),
                tuple(x + y for x, y in zip(d1, d2)),
                j1 + j2,
            )
            s = ring.add(out.get(key, ring.zero), v)
            if not s:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def reference_symbolic_mul(ring, x, y):
    """The monomial product with no early exit: exponents merged, a pair
    past the grade cap, or past degree one on the linear ring, dropped."""
    out: dict = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            merged = dict(m1)
            for sym, e in m2:
                merged[sym] = merged.get(sym, 0) + e
            grade = sum((sum(alpha) + sum(beta) - 2) * e for (alpha, beta), e in merged.items())
            degree = sum(merged.values())
            if grade > ring.cap or (ring.linear and degree > 1):
                continue
            key = tuple(sorted(merged.items()))
            s = out.get(key, GaussRat(0)) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


RINGS = {
    "gauss": GaussRing(),
    "graded": GradedRing(4),
    "symbolic": SymbolicRing(4),
    # products of two symbols vanish here, so the zero skip is exercised
    "linear": SymbolicRing(4, linear=True),
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
        if v:
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


def random_monomial(rng, n, degree):
    """A sorted monomial of the given degree in n-dimensional jet symbols,
    built by hand, so it may lie past any ring's caps."""
    keys = jet_keys_up_to_grade(n, 3)
    merged: dict = {}
    for _ in range(degree):
        sym = rng.choice(keys)
        merged[sym] = merged.get(sym, 0) + 1
    return tuple(sorted(merged.items()))


def random_polynomial(rng, n, constant):
    """Up to four hand-built monomials of degree 1 or 2, plus the constant
    monomial when asked; small coefficients, so sums cancel often."""
    out = {(): GaussRat(rng.choice((-1, 1)), rng.choice((0, 1)))} if constant else {}
    for _ in range(rng.randint(1, 4)):
        out[random_monomial(rng, n, rng.randint(1, 2))] = GaussRat(rng.choice((-1, 1)))
    return out


@pytest.mark.parametrize("linear", [False, True], ids=["full", "linear"])
def test_symbolic_mul_matches_the_monomial_reference(linear, monkeypatch):
    degrees = []
    degree = SymbolicRing.monomial_degree
    monkeypatch.setattr(
        SymbolicRing, "monomial_degree", staticmethod(lambda m: degrees.append(m) or degree(m))
    )
    ring = SymbolicRing(4, linear)
    for seed in range(200):
        rng = random.Random(seed)
        n = 1 + seed % 2
        x = random_polynomial(rng, n, constant=seed % 4 < 2)
        y = random_polynomial(rng, n, constant=seed % 2 == 0)
        want = reference_symbolic_mul(ring, x, y)
        assert list(ring.mul(x, y).items()) == list(want.items()), seed
        assert list(ring.mul(y, x).items()) == list(reference_symbolic_mul(ring, y, x).items())
    # only the linear ring's degree cap reads a monomial's degree
    assert bool(degrees) == linear
    # degree-2 monomials by hand: past the linear cap, whatever they meet
    ring = SymbolicRing(4, linear=True)
    sym = ring.symbol(((2,), (2,)))
    square = {((((2,), (2,)), 2),): GaussRat(1)}
    for x, y in ((square, ring.one), (square, sym), (ring.add(ring.one, square), sym)):
        got = ring.mul(x, y)
        assert list(got.items()) == list(reference_symbolic_mul(ring, x, y).items())
    assert ring.mul(square, ring.one) == {}
    assert ring.mul(ring.add(ring.one, square), sym) == sym


def unread(mono):
    raise AssertionError(f"read monomial {mono}")


def test_the_linear_ring_rejects_a_constant_free_pair_unread(monkeypatch):
    """Two linear-ring elements with no constant term multiply to zero, and
    mul answers so before reading any monomial's grade or degree."""
    monkeypatch.setattr(SymbolicRing, "monomial_grade", staticmethod(unread))
    monkeypatch.setattr(SymbolicRing, "monomial_degree", staticmethod(unread))
    ring = SymbolicRing(4, linear=True)
    x = ring.add(ring.symbol(((2,), (2,))), ring.symbol(((3,), (2,))))
    y = ring.scale(ring.symbol(((2,), (3,))), GaussRat(2, 1))
    assert ring.mul(x, y) == {} and ring.mul(y, x) == {} and ring.mul(x, x) == {}
    with pytest.raises(AssertionError, match="read monomial"):
        ring.mul(x, ring.one)


def test_a_pair_past_the_grade_cap_is_rejected_unread(monkeypatch):
    """A pair whose lowest grades sum past the grade cap is zero before any
    degree is read, and each monomial's grade is computed once for the
    ring's life."""
    graded = []
    grade = SymbolicRing.monomial_grade
    monkeypatch.setattr(
        SymbolicRing, "monomial_grade", staticmethod(lambda m: graded.append(m) or grade(m))
    )
    monkeypatch.setattr(SymbolicRing, "monomial_degree", staticmethod(unread))
    ring = SymbolicRing(5)
    x = ring.symbol(((3,), (3,)))  # grade 4
    y = ring.add(ring.symbol(((3,), (2,))), ring.symbol(((4,), (2,))))  # grades 3 and 4
    for _ in range(3):
        assert ring.mul(x, y) == {} and ring.mul(y, x) == {} and ring.mul(y, y) == {}
    assert sorted(graded) == sorted([*x, *y])


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


# -- the accumulation rule against the zero-add rule it replaced ----------


def zero_add(ring, x, y):
    """The old ring.add: every coefficient of y added to x's, an absent one
    read as an explicit zero, and a sum that cancels popped."""
    if isinstance(ring, GaussRing):
        return x + y
    out = dict(x)
    for k, c in y.items():
        s = out.get(k, GR_ZERO) + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def zero_add_term(terms, key, value, ring):
    """The old _add_term: the value added to the held one or to ring.zero."""
    s = zero_add(ring, terms.get(key, ring.zero), value)
    if not s:
        terms.pop(key, None)
    else:
        terms[key] = s


def zero_add_mul(ring, x, y):
    """The old GradedRing.mul and SymbolicRing.mul loops: each product added
    to the held coefficient or to an explicit zero, with no early exit."""
    if isinstance(ring, SymbolicRing):
        return reference_symbolic_mul(ring, x, y)
    out: dict = {}
    for g1, c1 in x.items():
        for g2, c2 in y.items():
            g = g1 + g2
            if g > ring.cap:
                continue
            s = out.get(g, GR_ZERO) + c1 * c2
            if s:
                out[g] = s
            else:
                out.pop(g, None)
    return out


def as_items(x):
    """An element as a comparable list: a dict ring's items in order, each
    coefficient as its canonical fields, so equal lists mean equal objects
    in equal order."""
    if isinstance(x, GaussRat):
        return (x._p, x._q, x._d)
    return [(k, (c._p, c._q, c._d)) for k, c in x.items()]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_accumulation_matches_the_zero_add_rule(name):
    ring = RINGS[name]
    keys = [(i,) for i in range(4)]
    for seed in range(200):
        rng = random.Random(seed)
        values = [random_value(ring, rng) for _ in range(6)]
        x, y = values[0], values[1]
        assert as_items(ring.add(x, y)) == as_items(zero_add(ring, x, y)), seed
        assert as_items(ring.add(ring.zero, x)) == as_items(zero_add(ring, ring.zero, x))
        if not isinstance(ring, GaussRing):
            assert as_items(ring.mul(x, y)) == as_items(zero_add_mul(ring, x, y)), seed
        got, want = {}, {}
        for _ in range(12):
            key, v = rng.choice(keys), rng.choice(values)
            if rng.random() < 0.3:
                v = ring.scale(v, -1)
            _add_term(got, key, v, ring)
            zero_add_term(want, key, v, ring)
            assert [(k, as_items(v)) for k, v in got.items()] == [
                (k, as_items(v)) for k, v in want.items()
            ], seed


@pytest.mark.parametrize("name", sorted(RINGS))
def test_a_cancelled_slot_is_popped_and_refilled_last(name):
    ring = RINGS[name]
    v = random_value(ring, random.Random(1))
    w = ring.add(v, v)
    got, want = {}, {}
    for key, x in (("a", v), ("b", v), ("a", ring.scale(v, -1)), ("c", v), ("a", w)):
        _add_term(got, key, x, ring)
        zero_add_term(want, key, x, ring)
    assert list(got) == ["b", "c", "a"]
    assert [(k, as_items(x)) for k, x in got.items()] == [
        (k, as_items(x)) for k, x in want.items()
    ]
    # an empty slot keeps the addend itself, and a zero addend leaves no key
    assert got["b"] is v and got["a"] is w
    _add_term(got, "d", ring.zero, ring)
    assert "d" not in got


def test_graded_and_dict_sums_refill_a_cancelled_grade_last():
    ring = GradedRing(8)
    one, minus = GaussRat(1), GaussRat(-1)
    x = {0: one, 2: one, 4: one}
    y = {4: one, 2: minus, 0: one}
    # grades 4 and 2 cancel and are popped; grade 4 comes back last
    want = [(0, one), (8, one), (4, one)]
    assert list(ring.mul(x, y).items()) == want == list(zero_add_mul(ring, x, y).items())
    z = {2: minus, 6: one, 0: one}
    assert list(ring.add(x, z).items()) == [(0, GaussRat(2)), (4, one), (6, one)]
    assert list(ring.add(x, z).items()) == list(zero_add(ring, x, z).items())


@pytest.mark.parametrize("name", sorted(RINGS))
def test_scaling_by_one_keeps_the_element(name):
    ring = RINGS[name]
    x = random_value(ring, random.Random(2))
    for one in (1, GaussRat(1)):
        assert ring.scale(x, one) is x
    if isinstance(ring, GaussRing):
        assert ring.add(ring.zero, x) is x and ring.add(x, ring.zero) is x


# -- the kernel pipeline adds no zero ----------------------------------------


@pytest.mark.parametrize(
    "pot",
    [
        lambda: Potential.graded_numeric(2, random_hermitian_jets(2, 3, random.Random(0)), 3),
        lambda: Potential.symbolic(1, 3),
    ],
    ids=["graded", "symbolic"],
)
def test_the_kernel_pipeline_adds_no_zero(pot, monkeypatch):
    """Each GaussRat addition a_3 and its reference make has two nonzero
    operands (under the zero-add rule 162 of 188 and 500 of 628 did not)."""
    pot = pot()
    add = GaussRat.__add__
    counts = {"all": 0, "zero": 0}

    def counted(x, y):
        counts["all"] += 1
        counts["zero"] += not x or not y
        return add(x, y)

    monkeypatch.setattr(GaussRat, "__add__", counted)
    bergman_coefficients(pot, 3)
    kernel_coefficient_reference(pot, 3)
    assert counts["all"] > 0 and counts["zero"] == 0


# -- shared values are never mutated -----------------------------------------


def _run_everything(pot):
    out = []
    if not isinstance(pot.ring, GaussRing):
        out.append(bergman_coefficients(pot, 3))
    out.append([kernel_coefficient_reference(pot, j) for j in range(4)])
    names = ["S", "lap_S", "lap2_S", "abs_R2", "abs_Ric2", "div_Q", "P0", "P2", "P3"]
    out.append([named_scalar(pot, name) for name in names])
    return out


@pytest.mark.parametrize(
    "pot",
    [
        lambda: Potential.numeric(2, random_hermitian_jets(2, 3, random.Random(3))),
        lambda: Potential.graded_numeric(2, random_hermitian_jets(2, 3, random.Random(3)), 3),
        lambda: Potential.symbolic(1, 3),
    ],
    ids=["numeric", "graded", "symbolic"],
)
def test_shared_values_are_never_mutated(pot):
    """The results may hold the jets' own objects and the shared zero and
    one; a run leaves them as they were and a second run gives equal
    results."""
    pot = pot()
    jets = copy.deepcopy(pot.jets)
    first = _run_everything(pot)
    assert pot.jets == jets
    assert _DictRing.zero == {}
    assert _run_everything(pot) == first
    assert pot.jets == jets and _DictRing.zero == {}
    assert GradedRing.one == {0: GR_ONE} and SymbolicRing.one == {(): GR_ONE}

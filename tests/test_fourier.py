"""Exact torus integration oracle."""

import contextlib
import functools
import itertools
import random
import signal
from fractions import Fraction

import pytest

from invar.calculus import divergence
from invar.chern import chern_invariant, partitions_of
from invar import fourier
from invar.fourier import FourierFunction, eval_integral, pairing, random_phi
from invar.invariants import Invariant, monomial_invariant
from invar.monomials import PHI, ContractionMonomial
from invar.rationals import GR_ZERO, GaussRat
from invar.solver import enumerate_monomials, random_coexact_invariant

SQ = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))


def two_mode_phi():
    return FourierFunction(1, {(1, 0): 1, (-1, 0): 1})


def test_pairing_unit_mode():
    assert pairing((1, 0), (1, 0), 1) == GaussRat(Fraction(-1, 4))
    # antiholomorphic side is conjugated, holomorphic side is not
    assert pairing((0, 1), (0, 1), 1) == GaussRat(Fraction(-1, 4))
    assert pairing((1, 0), (0, 1), 1) == GaussRat(0, Fraction(-1, 4))


def test_squared_trace_reference_value():
    assert eval_integral(SQ, two_mode_phi()) == GaussRat(Fraction(1, 128))


def test_single_factor_derivative_integrates_to_zero():
    lap2 = monomial_invariant(ContractionMonomial(PHI, ((2,),)))
    assert eval_integral(lap2, two_mode_phi()) == GR_ZERO
    assert eval_integral(lap2, random_phi(2, seed=3)) == GR_ZERO


def test_divergences_integrate_to_zero():
    t = monomial_invariant(
        ContractionMonomial(PHI, ((0, 2), (2, 0)), (1, 0), (0, 0))
    )
    div = divergence(t)
    for seed in range(3):
        for n in (1, 2):
            assert eval_integral(div, random_phi(n, seed=seed)) == GR_ZERO


def test_cycle_invariants_integrate_to_zero_numerically():
    for p in ((2,), (1, 1)):
        inv = chern_invariant(p)
        for seed in range(3):
            assert eval_integral(inv, random_phi(2, seed=seed)) == GR_ZERO


def test_nonzero_integral_detected():
    values = [eval_integral(SQ, random_phi(1, seed=s)) for s in range(5)]
    assert any(values)


def test_linearity_in_the_invariant():
    phi = random_phi(1, seed=8)
    v = eval_integral(SQ, phi)
    assert eval_integral(SQ.scale(3), phi) == v + v + v


def test_polarized_evaluation_agrees_on_the_diagonal():
    phi = random_phi(2, seed=4)
    inv = chern_invariant((2,)) + SQ.scale(Fraction(1, 2))
    pol = inv.polarize()
    assert eval_integral(pol, [phi, phi]) == eval_integral(inv, phi)


def test_multilinearity_in_each_slot():
    inv = SQ.polarize()
    f = random_phi(1, seed=1)
    g = random_phi(1, seed=2)
    two = GaussRat(2)
    f2 = FourierFunction(1, {m: two * c for m, c in f.coeffs.items()})
    lhs = eval_integral(inv, [f2, g])
    base = eval_integral(inv, [f, g])
    assert lhs == base + base
    merged = dict(f.coeffs)
    for m, c in g.coeffs.items():
        merged[m] = merged.get(m, GR_ZERO) + c
    h = FourierFunction(1, merged)
    assert eval_integral(inv, [h, g]) == base + eval_integral(inv, [g, g])


def test_random_phi_is_seeded_real_and_bounded():
    a = random_phi(2, mode_bound=2, seed=5)
    b = random_phi(2, mode_bound=2, seed=5)
    assert a.coeffs == b.coeffs
    # real: opposite modes carry conjugate coefficients
    assert all(a.coeffs.get(tuple(-v for v in m)) == c.conjugate() for m, c in a.coeffs.items())
    assert len(a.coeffs) == 6
    assert all(abs(v) <= 2 for m in a.coeffs for v in m)
    assert (0, 0, 0, 0) not in a.coeffs
    assert random_phi(2, seed=6).coeffs != a.coeffs
    with pytest.raises(ValueError):
        random_phi(1, mode_bound=0)
    # a bool or a fraction is refused by name, not drawn as 1 or left to randrange
    for bound in (True, 1.5):
        with pytest.raises(ValueError, match="mode_bound must be an integer"):
            random_phi(1, mode_bound=bound)


@contextlib.contextmanager
def deadline(seconds, what):
    """Turn a draw that never ends into a failure instead of a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"{what} is still drawing")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_random_phi_refuses_dimension_zero():
    # no length-0 mode is ever admitted, so a draw would never end
    with deadline(5, "random_phi(0)"), pytest.raises(ValueError, match="dimension"):
        random_phi(0)
    for n in (1.0, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            random_phi(n)


def test_random_phi_refuses_a_draw_that_does_not_close():
    # at n = 30 the third mode almost never stays in the box, so without the
    # redraw limit the draw would never end
    with deadline(5, "random_phi(30)"), pytest.raises(ValueError) as exc:
        random_phi(30, mode_bound=2, seed=0)
    assert str(exc.value) == (
        "no mode triangle closed for n=30, mode bound 2 within "
        f"{fourier._REDRAW_LIMIT} redraws of the base pair"
    )


def test_random_phi_draws_are_pinned():
    """The exact coefficients of seven draws, in drawing order: each base
    mode, then the closing mode, each followed by its negative.  The
    oracle's values rest on this stream."""
    g = GaussRat
    half, third = Fraction(1, 2), Fraction(1, 3)
    pinned = {
        (1, 1, 0): {
            (-1, -1): g(0, 1), (0, 1): g(0, 2), (1, 0): g(3 * half, 1),
        },
        (1, 2, 0): {
            (-1, -1): g(half, -2 * third), (0, 2): g(-1), (1, -1): g(-1, -3 * half),
        },
        (2, 2, 0): {
            (0, 2, 0, 0): g(1, 2 * third),
            (1, -2, 2, 1): g(-3, -3 * half),
            (-1, 0, -2, -1): g(-2, 2),
        },
        (2, 2, 5): {
            (0, 0, 0, 2): g(0, 1),
            (1, 2, -1, -2): g(-3 * half),
            (-1, -2, 1, 0): g(-2 * third, -1),
        },
        (3, 1, 7): {
            (1, 0, 0, 1, 0, 0): g(-2 * third, -3 * half),
            (-1, -1, 0, -1, -1, 1): g(-third, -third),
            (0, 1, 0, 0, 1, -1): g(0, -third),
        },
        (4, 2, 7): {
            (1, 1, -2, -2, 2, -2, -1, -1): g(-third, half),
            (1, 1, 0, 1, -1, 0, 0, 2): g(-1, 3),
            (-2, -2, 2, 1, -1, 2, 1, -1): g(2 * third, -1),
        },
        (4, 3, 11): {
            (2, 3, 2, -2, -1, -3, 0, 1): g(1, 1),
            (0, -2, -2, -1, -1, 0, -3, -1): g(-3, 2 * third),
            (-2, -1, 0, 3, 2, 3, 3, 0): g(-3, -3 * half),
        },
    }
    for (n, bound, seed), half_support in pinned.items():
        want = []
        for m, c in half_support.items():
            want += [(m, c), (tuple(-v for v in m), c.conjugate())]
        assert list(random_phi(n, bound, seed).coeffs.items()) == want


def test_function_validation():
    with pytest.raises(ValueError):
        FourierFunction(0, {})
    with pytest.raises(ValueError):
        FourierFunction(1, {(1,): 1})


def test_eval_argument_validation():
    phi = two_mode_phi()
    with pytest.raises(ValueError):
        eval_integral(SQ, [phi, phi])
    pol = SQ.polarize()
    with pytest.raises(ValueError):
        eval_integral(pol, [phi])
    with pytest.raises(ValueError):
        eval_integral(pol, [phi, random_phi(2, seed=1)])
    with pytest.raises(ValueError):
        eval_integral(pol, [])
    one_form = monomial_invariant(ContractionMonomial(PHI, ((2,),), (1,), (0,)))
    with pytest.raises(ValueError):
        eval_integral(one_form, phi)


def reference_pairing(xi, eta, n):
    total = GR_ZERO
    for a in range(n):
        total = total + GaussRat(xi[a], -xi[n + a]) * GaussRat(eta[a], eta[n + a])
    return total * Fraction(-1, 4)


def reference_integral(inv, phi):
    """The mode sum written directly in GaussRat arithmetic: every product
    of coefficients and pairings is formed and summed as it stands."""
    n = phi.n if inv.kind == PHI else phi[0].n
    total = GR_ZERO
    for mono, coeff in inv.sorted_terms():
        sigma = mono.sigma
        slots = [phi] * sigma if inv.kind == PHI else list(phi)
        acc = GR_ZERO
        for head in itertools.product(*(sorted(f.coeffs) for f in slots[:-1])):
            last = tuple(-sum(v) for v in zip(*head)) if head else (0,) * (2 * n)
            if last not in slots[-1].coeffs:
                continue
            assign = head + (last,)
            value = GaussRat(1)
            for f, xi in zip(slots, assign):
                value = value * f.coeffs[xi]
            for i, row in enumerate(mono.edges):
                for j, e in enumerate(row):
                    value = value * reference_pairing(assign[i], assign[j], n) ** e
            acc = acc + value
        total = total + acc * coeff
    return total


def fifths_and_sevenths():
    """Three non-real functions on T^2 whose coefficient denominators differ
    (5, 7 and 35), with a closed mode triangle in each support."""
    f = FourierFunction(1, {
        (1, 0): GaussRat(Fraction(2, 5), Fraction(-1, 5)),
        (-1, 1): GaussRat(Fraction(-3, 5)),
        (0, -1): GaussRat(0, Fraction(4, 5)),
    })
    g = FourierFunction(1, {
        (1, 0): GaussRat(Fraction(1, 7), Fraction(3, 7)),
        (-1, 1): GaussRat(Fraction(-2, 7), Fraction(5, 7)),
        (0, -1): GaussRat(Fraction(6, 7)),
        (0, 1): GaussRat(0, Fraction(-1, 7)),
    })
    h = FourierFunction(1, {
        (1, 0): GaussRat(Fraction(3, 5), Fraction(2, 7)),
        (-1, 1): GaussRat(Fraction(1, 7), Fraction(-4, 5)),
        (0, -1): GaussRat(Fraction(-1, 35), Fraction(2)),
        (-1, 0): GaussRat(Fraction(5, 7)),
    })
    return f, g, h


def random_scalar_invariant(weight, sigma, rng):
    basis = enumerate_monomials(weight, sigma)
    picks = rng.sample(basis, min(2, len(basis)))
    return Invariant(PHI, (0, 0), [(m, Fraction(rng.randint(1, 3), rng.randint(1, 3))) for m in picks])


def mixed_degree_invariant():
    """One phi-invariant with sigma = 1, 2 and 3 terms, so eval_integral
    walks three groups and shares each walk among that group's terms."""
    monos = enumerate_monomials(3, 1) + enumerate_monomials(5, 2)[:2] + enumerate_monomials(6, 3)[:3]
    return Invariant(PHI, (0, 0), [(m, Fraction(k + 1, 2)) for k, m in enumerate(monos)])


def orthogonal_triangle():
    """A non-real function on T^4 whose modes e1, e2 and -(e1 + e2), and
    their negatives, close triangles in which e1 and e2 pair to zero."""
    e1, e2, e3 = (1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0)
    coeffs = {e1: GaussRat(1, 2), e2: GaussRat(Fraction(1, 3)), e3: GaussRat(-2, 1)}
    coeffs.update({tuple(-v for v in m): c * GaussRat(0, 3) for m, c in list(coeffs.items())})
    return FourierFunction(2, coeffs)


def odd_and_twisted_triangles():
    """A non-real function on T^4 with two closed mode triangles.  On the
    first, f(-xi) = -f(xi), so every sigma = 3 pair {a, -a} there has
    C(a) + C(-a) = 0; on the second, f(-xi) = (1/2 + 3i) f(xi)."""
    odd = {(1, 0, 0, 0): GaussRat(1, 2), (0, 1, 0, 0): GaussRat(Fraction(1, 3)),
           (-1, -1, 0, 0): GaussRat(-2, 1)}
    twisted = {(0, 0, 1, 1): GaussRat(Fraction(2, 5), 1), (1, 0, -1, 0): GaussRat(3),
               (-1, 0, 0, -1): GaussRat(0, -1)}
    coeffs = {}
    for triangle, factor in ((odd, GaussRat(-1)), (twisted, GaussRat(Fraction(1, 2), 3))):
        for m, c in triangle.items():
            coeffs[m] = c
            coeffs[tuple(-v for v in m)] = factor * c
    return FourierFunction(2, coeffs)


def with_zero_mode(phi):
    """phi plus a constant: the all-zero assignment is its own negative."""
    return FourierFunction(phi.n, {**phi.coeffs, (0,) * (2 * phi.n): GaussRat(Fraction(2, 3), 1)})


def without_last_negative(phi):
    """random_phi's support minus -xi3, its last mode: the triangle
    (xi1, xi2, xi3) stays closed, (-xi1, -xi2, -xi3) does not."""
    coeffs = dict(phi.coeffs)
    coeffs.popitem()
    return FourierFunction(phi.n, coeffs)


def test_integer_mode_sum_matches_the_gaussrat_reference():
    zero = []  # cases that integrate to zero: chern and co-exact invariants
    for sigma in (1, 2, 3):
        for p in partitions_of(sigma):
            for n in (1, 2, 3):
                zero.append((chern_invariant(p), random_phi(n, seed=10 * sigma + n)))
    for p in partitions_of(4):
        for n in (3, 4):
            zero.append((chern_invariant(p), random_phi(n, seed=40 + n)))
    rng = random.Random(7)
    for k in range(6):
        sigma = 1 + k % 3
        inv = random_coexact_invariant(rng.randint(max(2, sigma), 5), sigma, rng)
        zero.append((inv, random_phi(sigma, seed=k)))
    # odd weights catch the sign of the -4 per edge; f, g, h catch each slot's scale
    nonzero = []
    for k, (weight, sigma) in enumerate(((4, 2), (5, 2), (6, 3)) * 2):
        inv = random_scalar_invariant(weight, sigma, rng)
        nonzero.append((inv, random_phi(sigma, seed=k)))
    f, g, h = fifths_and_sevenths()
    cubic = random_scalar_invariant(6, 3, rng)
    quintic = random_scalar_invariant(5, 2, rng)
    nonzero.append((cubic.polarize(), [random_phi(1, mode_bound=1, seed=s) for s in (1, 2, 3)]))
    nonzero.append((cubic.polarize(), [f, g, h]))
    nonzero.append((quintic.polarize(), [g, h]))
    nonzero.append((SQ.polarize(), [h, f]))
    nonzero.append((cubic, f))
    mixed = mixed_degree_invariant()
    nonzero.append((mixed, random_phi(2, seed=5)))
    nonzero.append((mixed, h))
    # every closed assignment of the triangle puts e1 and e2 on two factors,
    # so each term with an edge between those factors meets a zero entry
    assert pairing((1, 0, 0, 0), (0, 1, 0, 0), 2) == GR_ZERO
    nonzero.append((cubic, orthogonal_triangle()))
    nonzero.append((mixed, orthogonal_triangle()))
    # pairs {a, -a} whose coefficient sums cancel, assignments that are
    # their own negative, and closed a with -a not closed
    for phi in (odd_and_twisted_triangles(), with_zero_mode(random_phi(2, seed=1)),
                without_last_negative(random_phi(2, seed=2))):
        nonzero.append((cubic, phi))
        nonzero.append((mixed, phi))
    lopsided = without_last_negative(random_phi(1, seed=3))
    nonzero.append((cubic.polarize(), [with_zero_mode(f), g, lopsided]))
    for expect_zero, cases in ((True, zero), (False, nonzero)):
        for inv, phi in cases:
            value = eval_integral(inv, phi)
            assert value == reference_integral(inv, phi), (inv, phi)
            assert bool(value) != expect_zero  # the comparison is not vacuous
    # a psi-invariant needs exactly one function per factor of every term
    for inv, functions in ((cubic.polarize(), [f, g]), (quintic.polarize(), [f, g, h])):
        with pytest.raises(ValueError, match="factors"):
            eval_integral(inv, functions)


def test_one_mode_walk_per_factor_count(monkeypatch):
    # counts the head tuples of every zero-sum walk; a walk per term would
    # multiply the sigma = 3 count by the number of terms
    heads = []
    product = itertools.product

    def counting(*iterables):
        for head in product(*iterables):
            heads.append(len(head))
            yield head

    monkeypatch.setattr(fourier.itertools, "product", counting)
    phi = random_phi(2, seed=5)
    modes = len(phi.coeffs)
    cubic = Invariant(PHI, (0, 0), [(m, k + 1) for k, m in enumerate(enumerate_monomials(6, 3))])
    assert len(cubic.terms) >= 5
    eval_integral(cubic, phi)
    assert heads == [2] * modes**2
    heads.clear()
    eval_integral(mixed_degree_invariant(), phi)
    assert sorted(heads) == [0] + [1] * modes + [2] * modes**2
    # a psi-invariant with the wrong function count for its sigma = 3 terms
    # is refused before its sigma = 2 term is walked
    heads.clear()
    f, g, _ = fifths_and_sevenths()
    with pytest.raises(ValueError, match="3 factors, got 2"):
        eval_integral(SQ.polarize() + cubic.polarize(), [f, g])
    assert heads == []


def test_each_closed_pair_builds_one_pairing_table(monkeypatch):
    # every table entry is one read of the cached pairing, sigma^2 per table;
    # a and -a share a table, and a pair whose coefficients cancel builds none
    reads = []
    cache = functools.cache

    def counting(fn):
        cached = cache(fn)

        def read(*args):
            reads.append(args)
            return cached(*args)

        return read

    monkeypatch.setattr(fourier.functools, "cache", counting)
    cubic = Invariant(PHI, (0, 0), [(m, k + 1) for k, m in enumerate(enumerate_monomials(6, 3))])
    # a real triangle closes 12 assignments in 6 pairs; the odd and twisted
    # triangles close 24 in 12 pairs, of which the 6 odd ones cancel
    for phi, closed, tables in ((random_phi(2, seed=5), 12, 6), (odd_and_twisted_triangles(), 24, 6)):
        triples = itertools.product(phi.coeffs, repeat=3)
        assert sum(not any(map(sum, zip(*a))) for a in triples) == closed
        reads.clear()
        eval_integral(cubic, phi)
        assert len(reads) == 9 * tables

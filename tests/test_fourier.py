"""Exact torus integration oracle."""

import signal
from fractions import Fraction

import pytest

from invar.calculus import divergence
from invar.chern import chern_invariant
from invar.fourier import FourierFunction, eval_integral, pairing, random_phi
from invar.invariants import monomial_invariant
from invar.monomials import PHI, ContractionMonomial, scalar_monomial
from invar.rationals import GR_ZERO, GaussRat

SQ = monomial_invariant(scalar_monomial(PHI, ((2, 0), (0, 2))))


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
    lap2 = monomial_invariant(scalar_monomial(PHI, ((2,),)))
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
    assert a.is_real()
    assert len(a.coeffs) == 6
    assert all(abs(v) <= 2 for m in a.coeffs for v in m)
    assert (0, 0, 0, 0) not in a.coeffs
    assert random_phi(2, seed=6).coeffs != a.coeffs
    with pytest.raises(ValueError):
        random_phi(1, mode_bound=0)


def test_random_phi_refuses_dimension_zero():
    # no length-0 mode is ever admitted, so a draw would never end; the alarm
    # turns a missing refusal into a failure instead of a hang
    def expire(signum, frame):
        raise TimeoutError("random_phi(0) is still drawing")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="dimension"):
            random_phi(0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_function_validation():
    with pytest.raises(ValueError):
        FourierFunction(0, {})
    with pytest.raises(ValueError):
        FourierFunction(1, {(1,): 1})
    lopsided = FourierFunction(1, {(1, 0): 1})
    assert not lopsided.is_real()


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

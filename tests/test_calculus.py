"""Divergences, local divergences, and the formal integral test."""

import random
from fractions import Fraction

import pytest

from invar.calculus import (
    divergence,
    first_slot_residue,
    integrates_to_zero,
    local_divergence,
)
from invar.invariants import Invariant, monomial_invariant
from invar.monomials import PHI, PSI, ContractionMonomial, scalar_monomial
from invar.solver import random_coexact_invariant


def one_form():
    # T_a with both derivative blocks of the second factor fully contracted
    return monomial_invariant(
        ContractionMonomial(PHI, ((0, 2), (2, 0)), (1, 0), (0, 0))
    )


def test_divergence_two_term_leibniz():
    div = divergence(one_form())
    assert div.valence == (0, 0)
    assert div.coefficient(scalar_monomial(PHI, ((1, 2), (2, 0)))) == 1
    assert div.coefficient(scalar_monomial(PHI, ((0, 3), (2, 0)))) == 1
    assert sum(div.terms.values()) == 2


def test_divergence_bookkeeping():
    t = one_form()
    div = divergence(t)
    assert div.weights() == {w + 1 for w in t.weights()}
    assert div.degrees() == t.degrees()


def test_divergence_is_linear():
    t = one_form()
    u = monomial_invariant(ContractionMonomial(PHI, ((2, 1), (1, 0)), (1, 0), (0, 0)))
    lhs = divergence(t.scale(3) + u.scale(Fraction(-1, 2)))
    assert lhs == divergence(t).scale(3) + divergence(u).scale(Fraction(-1, 2))


def test_divergence_commutes_with_conjugation():
    t = one_form()
    assert divergence(t.conjugate()) == divergence(t).conjugate()


def test_divergence_requires_one_form():
    with pytest.raises(ValueError):
        divergence(monomial_invariant(scalar_monomial(PHI, ((2,),))))


def test_local_divergence_trace_factor():
    # lap psi^1 lap^2 psi^2, integrating off psi^1
    inv = monomial_invariant(scalar_monomial(PSI, ((1, 0), (0, 2))))
    out = local_divergence(inv, 1)
    assert out == monomial_invariant(scalar_monomial(PSI, ((3,),)))


def test_local_divergence_cross_contraction():
    inv = monomial_invariant(scalar_monomial(PSI, ((0, 2), (2, 0))))
    out = local_divergence(inv, 1)
    assert out == monomial_invariant(scalar_monomial(PSI, ((4,),)))


def test_local_divergence_single_edge_sign():
    # psi^1_a psi^2_abar picks up one integration by parts
    inv = monomial_invariant(scalar_monomial(PSI, ((0, 1), (0, 0))))
    out = local_divergence(inv, 1)
    assert out == monomial_invariant(scalar_monomial(PSI, ((1,),)), -1)


def test_local_divergence_bookkeeping():
    inv = monomial_invariant(scalar_monomial(PSI, ((1, 1), (1, 1))))
    out = local_divergence(inv, 2)
    assert out.weights() == {4}
    assert out.degrees() == {1}


def test_local_divergence_validation():
    phi_inv = monomial_invariant(scalar_monomial(PHI, ((0, 2), (2, 0))))
    with pytest.raises(ValueError):
        local_divergence(phi_inv, 1)
    psi_inv = phi_inv.polarize()
    with pytest.raises(ValueError):
        local_divergence(psi_inv, 0)
    with pytest.raises(ValueError):
        local_divergence(psi_inv, 3)
    with pytest.raises(ValueError):
        local_divergence(monomial_invariant(scalar_monomial(PSI, ((2,),))), 1)


def test_integrates_to_zero_single_factor():
    assert integrates_to_zero(monomial_invariant(scalar_monomial(PHI, ((2,),))))
    assert not integrates_to_zero(monomial_invariant(scalar_monomial(PHI, ((0,),))))


def test_integrates_to_zero_squared_trace_fails():
    sq = monomial_invariant(scalar_monomial(PHI, ((2, 0), (0, 2))))
    assert not integrates_to_zero(sq)


def test_integrates_to_zero_on_divergences():
    assert integrates_to_zero(divergence(one_form()))
    t_anti = monomial_invariant(
        ContractionMonomial(PHI, ((1, 1), (1, 0)), (0, 0), (0, 1))
    )
    assert integrates_to_zero(divergence(t_anti))


def test_integrates_to_zero_requires_scalar():
    with pytest.raises(ValueError):
        integrates_to_zero(one_form())


def test_local_divergence_vanishes_at_every_slot_on_coexact_input():
    rng = random.Random(7)
    for _ in range(6):
        sigma = rng.choice([2, 3])
        inv = random_coexact_invariant(rng.randint(max(2, sigma), 5), sigma, rng)
        if not inv:
            continue
        pol = inv.polarize()
        for k in range(1, sigma + 1):
            assert not local_divergence(pol, k)


def test_nonzero_integral_leaves_residue():
    sq = monomial_invariant(scalar_monomial(PHI, ((2, 0), (0, 2))))
    assert local_divergence(sq.polarize(), 1)
    assert first_slot_residue(sq) == local_divergence(sq.polarize(), 1)
    # one factor: the residue is the terms without a derivative
    bare = monomial_invariant(scalar_monomial(PHI, ((0,),)))
    traced = monomial_invariant(scalar_monomial(PHI, ((1,),)))
    assert first_slot_residue(bare + traced) == bare

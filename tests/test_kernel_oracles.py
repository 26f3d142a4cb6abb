"""Kernel coefficients against answers known without the operator pipeline.

Fubini-Study: on projective space the density of states is a polynomial,
so a_j / a_0 is the elementary symmetric value e_j(1, ..., n) at every
order.  Product potentials: for H1(z') + H2(z'') the kernel of the product
is the product of the kernels, so a_j of the sum is the Cauchy product
sum_i a_i(H1) a_(j-i)(H2) of the factors' coefficients.  The identity
holds for any adjoint rule that acts coordinate by coordinate, so the
factors' a_1 .. a_3 are pinned to their curvature closed forms as well.
Symmetry: a unitary change of coordinates that keeps the center in normal
form, a permutation or a phase on one coordinate, leaves every a_j
unchanged, and a_j is real on Hermitian input.
"""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest

from invar.bergman import bergman_coefficients
from invar.geometry import kernel_coefficient_reference
from invar.jets import Potential, fubini_study_jets, random_hermitian_jets
from invar.rationals import GR_ZERO, GaussRat


def graded_total(element):
    return sum(element.values(), GR_ZERO)


def elementary_symmetric(n, j):
    return sum(prod(c) for c in itertools.combinations(range(1, n + 1), j))


@pytest.mark.parametrize("n, jmax", [(1, 5), (2, 5), (3, 4), (4, 4)])
def test_fubini_study_chain_to_every_order(n, jmax):
    pot = Potential.graded_numeric(n, fubini_study_jets(n, 2 * jmax + 2), jmax)
    coeffs = [graded_total(c) for c in bergman_coefficients(pot, jmax)]
    assert coeffs[0] == GaussRat(1)
    assert coeffs[1:] == [GaussRat(elementary_symmetric(n, j)) for j in range(1, jmax + 1)]


def _on_slot(jets, slot):
    """n = 1 jets moved to coordinate slot of two."""
    return {
        tuple(tuple(a if i == slot else 0 for i in range(2)) for a in (alpha[0], beta[0])): v
        for (alpha, beta), v in jets.items()
    }


@pytest.mark.parametrize("seeds", [(1, 3), (10, 12)])
def test_product_potential_is_the_cauchy_product(seeds):
    jmax = 4
    factors = [random_hermitian_jets(1, jmax, random.Random(s)) for s in seeds]
    a = []
    for f in factors:
        pot = Potential.graded_numeric(1, f, jmax)
        coeffs = bergman_coefficients(pot, jmax)
        assert all(coeffs[j] == kernel_coefficient_reference(pot, j) for j in (1, 2, 3))
        a.append([graded_total(c) for c in coeffs])
    jets = {**_on_slot(factors[0], 0), **_on_slot(factors[1], 1)}
    got = bergman_coefficients(Potential.graded_numeric(2, jets, jmax), jmax)
    # every a_j of both factors is nonzero, so each cross term counts
    assert all(a[0]) and all(a[1])
    for j in range(jmax + 1):
        want = sum((a[0][i] * a[1][j - i] for i in range(j + 1)), GR_ZERO)
        assert graded_total(got[j]) == want, j


# a unit Gaussian rational, so z_k -> U z_k is unitary and exact
U = GaussRat(Fraction(3, 5), Fraction(4, 5))


def _permuted(jets, perm):
    """Jets of H after z_i -> z_perm[i]."""
    return {
        (tuple(alpha[p] for p in perm), tuple(beta[p] for p in perm)): v
        for (alpha, beta), v in jets.items()
    }


def _phased(jets, k):
    """Jets of H after z_k -> U z_k: h[alpha|beta] times U^alpha_k conj(U)^beta_k."""
    return {
        (alpha, beta): v * U ** alpha[k] * U.conjugate() ** beta[k]
        for (alpha, beta), v in jets.items()
    }


@pytest.mark.parametrize("n, seed", [(1, 4), (2, 5), (3, 7)])
def test_kernel_coefficients_are_unitary_invariants(n, seed):
    jmax = 3
    # (2, 2) jets first, which a_1 and a_2 read, then a sparse weight-3 draw
    rng = random.Random(seed)
    jets = {**random_hermitian_jets(n, 1, rng), **random_hermitian_jets(n, jmax, rng)}
    moved = [_phased(jets, n - 1)]
    if n > 1:
        moved.append(_permuted(jets, [*range(1, n), 0]))
    assert all(raw != jets for raw in moved)
    runs = []
    for raw in [jets, *moved]:
        pot = Potential.graded_numeric(n, raw, jmax)
        coeffs = bergman_coefficients(pot, jmax)
        assert all(c.im == 0 for a in coeffs for c in a.values())
        assert all(coeffs[j] == kernel_coefficient_reference(pot, j) for j in (1, 2, 3))
        runs.append(coeffs)
    assert all(run == runs[0] for run in runs)
    # a nonzero a_1 .. a_3, so the checks compare values
    assert all(runs[0][1:])

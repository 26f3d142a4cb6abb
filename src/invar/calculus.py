"""Integration by parts: divergences, the local divergence identity, co-exactness.

The co-exactness test is purely formal.  An invariant of degree sigma >= 2
integrates to zero over compactly supported data iff integrating every
derivative off the first factor of its multilinear form leaves nothing; for
sigma = 1 a scalar monomial is a pure trace power and integrates to zero iff
it carries at least one derivative.  This decides the integral condition in
the stable dimension range; low-dimensional identities are out of scope.
"""

from __future__ import annotations

from .invariants import Invariant
from .monomials import PHI, PSI, ContractionMonomial

__all__ = ["divergence", "local_divergence", "first_slot_residue", "integrates_to_zero"]


def divergence(inv: Invariant) -> Invariant:
    """Contracted derivative of a one-form valued invariant.

    For valence (1,0) input T_a, computes d_abar T_a expanded by the Leibniz
    rule; for (0,1) input T_abar, computes d_a T_abar.  Each output term moves
    the new derivative onto one factor, converting the free slot into a
    contraction.  Weight increases by one, degree is preserved.
    """
    if inv.valence == (1, 0):
        hol_free = True
    elif inv.valence == (0, 1):
        hol_free = False
    else:
        raise ValueError("divergence expects valence (1,0) or (0,1)")
    terms = []
    for mono, coeff in inv.terms.items():
        free = mono.free_hol if hol_free else mono.free_anti
        i = next(k for k in range(mono.sigma) if free[k])
        new_free = list(free)
        new_free[i] -= 1
        new_free = tuple(new_free)
        for m in range(mono.sigma):
            edges = [list(row) for row in mono.edges]
            if hol_free:
                # free holomorphic slot on i pairs with the new d_abar on m
                edges[i][m] += 1
                out = ContractionMonomial(mono.kind, edges, new_free, mono.free_anti)
            else:
                edges[m][i] += 1
                out = ContractionMonomial(mono.kind, edges, mono.free_hol, new_free)
            terms.append((out, coeff))
    return Invariant(inv.kind, (0, 0), terms)


def local_divergence(inv: Invariant, k: int) -> Invariant:
    """Integrate all derivatives off factor k of a multilinear invariant.

    Every edge touching factor k releases a pending derivative that lands on
    each surviving factor in turn (Leibniz), re-creating one edge per pending
    derivative: an edge (k, j) becomes (m, j), an edge (i, k) becomes (i, m),
    and a trace (k, k) becomes (m, m') over ordered pairs of survivors.  The
    overall sign is (-1)^(A_k + B_k).  Output factors are renumbered by
    deleting slot k; weight is preserved and degree drops by one.
    """
    if inv.kind != PSI:
        raise ValueError("local_divergence expects a psi-invariant")
    if inv.valence != (0, 0):
        raise ValueError("local_divergence expects a scalar invariant")
    if inv.terms:
        sigma = inv.homogeneous_degree()
        if sigma < 2:
            raise ValueError("local_divergence needs at least two factors")
        if not 1 <= k <= sigma:
            raise ValueError(f"factor index {k} out of range 1..{sigma}")
    terms = []
    for mono, coeff in inv.terms.items():
        terms.extend(_local_divergence_monomial(mono, coeff, k - 1))
    return Invariant(PSI, (0, 0), terms)


def _local_divergence_monomial(mono, coeff, k):
    survivors = [i for i in range(mono.sigma) if i != k]
    sign = -1 if (mono.A(k) + mono.B(k)) % 2 else 1
    base = [[mono.edges[i][j] for j in survivors] for i in survivors]
    pending = []
    for j in survivors:
        pending.extend([("hol", survivors.index(j))] * mono.edges[k][j])
    for i in survivors:
        pending.extend([("anti", survivors.index(i))] * mono.edges[i][k])
    pending.extend([("pair", None)] * mono.edges[k][k])

    results = []

    def distribute(idx, edges):
        if idx == len(pending):
            results.append(
                (ContractionMonomial(PSI, [tuple(r) for r in edges]), coeff * sign)
            )
            return
        what, slot = pending[idx]
        if what == "hol":
            for m in range(len(survivors)):
                edges[m][slot] += 1
                distribute(idx + 1, edges)
                edges[m][slot] -= 1
        elif what == "anti":
            for m in range(len(survivors)):
                edges[slot][m] += 1
                distribute(idx + 1, edges)
                edges[slot][m] -= 1
        else:
            for m in range(len(survivors)):
                for mp in range(len(survivors)):
                    edges[m][mp] += 1
                    distribute(idx + 1, edges)
                    edges[m][mp] -= 1

    distribute(0, base)
    return results


def first_slot_residue(inv: Invariant) -> Invariant:
    """What integrating every derivative off the first factor leaves.

    Empty iff a scalar invariant integrates to zero.  A multilinear input is
    used as it is and a phi-invariant is polarized first; for sigma = 1 the
    residue is the terms without a derivative, since a single factor is a
    pure trace power and a total derivative iff w >= 1.
    """
    if inv.valence != (0, 0):
        raise ValueError("the integral test expects a scalar invariant")
    if not inv.terms or inv.homogeneous_degree() == 1:
        return inv.filter(lambda m: m.weight < 1)
    return local_divergence(inv.polarize() if inv.kind == PHI else inv, 1)


def integrates_to_zero(inv: Invariant) -> bool:
    """Formal test for a vanishing integral over compactly supported data."""
    return not first_slot_residue(inv)

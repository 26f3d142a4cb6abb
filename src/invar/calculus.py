"""Integration by parts: divergences, the local divergence identity, co-exactness.

The co-exactness test is purely formal.  An invariant of degree sigma >= 2
integrates to zero over compactly supported data iff integrating every
derivative off the first factor of its multilinear form leaves nothing; for
sigma = 1 a scalar monomial is a pure trace power and integrates to zero iff
it carries at least one derivative.  This decides the integral condition in
the stable dimension range; low-dimensional identities are out of scope.

Both divergences and the integral test are Leibniz expansions: each
released derivative lands on one of the cells its contraction allows, and
placements collect on bare edge matrices before any monomial is built, at
most one per distinct nonzero matrix.

The integral test never polarizes a phi-invariant.  Its multilinear form is
the average of its sigma! factor relabelings, and integrating off slot 1 of a
relabeling is integrating off whichever factor it moved there.  So with
Y = sum_k local_divergence(psi-copy, k), one expansion per factor, the
residue's coefficient on a monomial m is |Stab m|/sigma! times the sum of Y
over the relabeling orbit of m, and the residue vanishes iff every orbit sum
of Y does.  An orbit is a canonical phi-monomial, and that is how the test
collects Y.  The residue itself is built only when asked for, as a refused
decomposition does, and then as the residue of the polarized form.

Y is linear in the terms, and the same monomials recur from call to call, so
each monomial's expansion Y_bare(m) on bare flat matrices, with integer
numerators, is memoized for the life of the process.  A block sums
c_m * Y_bare(m) over the lcm of its denominators and collects that sum
once.  The memo's bound counts stored matrices, 2^16 in all, since one
sigma = 6 monomial alone reaches thousands: a fill that would pass it clears
the memo, and an expansion larger than the bound is used and not stored.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from .invariants import Invariant
from .monomials import PHI, PSI, _scalar_canonical
from .rationals import as_int

__all__ = ["divergence", "local_divergence", "first_slot_residue", "integrates_to_zero"]


def divergence(inv: Invariant, *more: Invariant) -> Invariant:
    """Contracted derivative of a one-form valued invariant.

    For valence (1,0) input T_a, computes d_abar T_a expanded by the Leibniz
    rule; for (0,1) input T_abar, computes d_a T_abar.  Each output term moves
    the new derivative onto one factor, converting the free slot into a
    contraction.  Weight increases by one, degree is preserved.  Further
    one-forms of the same kind, of either valence, are expanded in the same
    pass: divergence(a, b) == divergence(a) + divergence(b).
    """
    placements = []
    for one_form in (inv, *more):
        if one_form.valence not in ((1, 0), (0, 1)):
            raise ValueError("divergence expects valence (1,0) or (0,1)")
        if one_form.kind != inv.kind:
            raise ValueError("divergence expects one-forms of one kind")
        hol_free = one_form.valence == (1, 0)
        for mono, coeff in one_form.terms.items():
            s = mono.sigma
            i = (mono.free_hol if hol_free else mono.free_anti).index(1)
            # the free slot on i pairs with the new derivative on any factor m:
            # edge (i, m) for a holomorphic slot, (m, i) for an antiholomorphic one
            move = range(i * s, i * s + s) if hol_free else range(i, s * s, s)
            placements.append(([x for row in mono.edges for x in row], [move], coeff))
    return _collect(inv.kind, *_leibniz(placements))


def local_divergence(inv: Invariant, k: int) -> Invariant:
    """Integrate all derivatives off factor k of a multilinear invariant.

    Every edge touching factor k releases a pending derivative that lands on
    each surviving factor in turn (Leibniz), re-creating one edge per pending
    derivative: an edge (k, j) becomes (m, j), an edge (i, k) becomes (i, m),
    and a trace (k, k) becomes (m, m') over ordered pairs of survivors.  The
    overall sign is (-1)^(A_k + B_k).  Output factors are renumbered by
    deleting slot k; weight is preserved and degree drops by one.
    """
    as_int(k, "k")
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
    placements = [_off_factor(mono, coeff, k - 1) for mono, coeff in inv.terms.items()]
    return _collect(PSI, *_leibniz(placements))


def _off_factor(mono, coeff, k):
    """The Leibniz placement that integrates every derivative off factor k
    (counted from 0) of a scalar monomial, read as multilinear."""
    e, s = mono.edges, mono.sigma - 1
    survivors = [i for i in range(mono.sigma) if i != k]
    # an edge (k, j) lands in column c of survivor j, an edge (j, k) in
    # its row c, and a trace (k, k) in any cell
    moves = [range(s * s)] * e[k][k]
    for c, j in enumerate(survivors):
        moves += [range(c, s * s, s)] * e[k][j] + [range(c * s, c * s + s)] * e[j][k]
    base = [e[i][j] for i in survivors for j in survivors]
    return base, moves, (-1) ** (mono.A(k) + mono.B(k)) * coeff


def _leibniz(placements):
    """Every Leibniz placement, collected on bare flat edge matrices.

    Each ``(base, moves, coeff)`` holds a row-major flat edge matrix and, per
    released derivative, the range of flat cells it may land on; every choice
    of one cell per move adds coeff to the matrix it reaches, as an integer
    numerator over the lcm q of all the denominators.  Returns the map from
    flat matrix to numerator, and q.
    """
    q = lcm(*(coeff.denominator for _, _, coeff in placements))
    acc = {}
    for base, moves, coeff in placements:
        num = coeff.numerator * (q // coeff.denominator)
        for cells in product(*moves):
            flat = base.copy()
            for c in cells:
                flat[c] += 1
            flat = tuple(flat)
            acc[flat] = acc.get(flat, 0) + num
    return acc, q


def _collect(kind, acc, q):
    """The scalar invariant of _leibniz's accumulation: each distinct nonzero
    matrix's numerator is added to its canonical monomial in the order and
    with the cancel-and-delete rule of ``Invariant``'s constructor."""
    nums = {}
    for flat, num in acc.items():
        if num:
            s = isqrt(len(flat))
            mono = _scalar_canonical(kind, tuple(flat[r : r + s] for r in range(0, s * s, s)))
            new = nums.get(mono, 0) + num
            if new:
                nums[mono] = new
            else:
                del nums[mono]
    return Invariant._raw(kind, (0, 0), {m: Fraction(n, q) for m, n in nums.items()})


def first_slot_residue(inv: Invariant) -> Invariant:
    """What integrating every derivative off the first factor leaves.

    Empty iff a scalar invariant integrates to zero.  A multilinear input is
    used as it is, and a phi-invariant of degree sigma >= 2 through its
    polarization.  For sigma = 1 the residue is the terms without a
    derivative, since a single factor is a pure trace power and a total
    derivative iff w >= 1.
    """
    if inv.valence != (0, 0):
        raise ValueError("the integral test expects a scalar invariant")
    if not inv.terms or inv.homogeneous_degree() == 1:
        return inv.filter(lambda m: m.weight < 1)
    return local_divergence(inv.polarize() if inv.kind == PHI else inv, 1)


def integrates_to_zero(inv: Invariant) -> bool:
    """Formal test for a vanishing integral over compactly supported data.

    Input of mixed degree is tested one degree block at a time: scaling the
    functions by t scales the block of degree sigma by t^sigma, so the
    integral vanishes identically iff every block's does.  A phi block of
    degree sigma >= 2 passes iff every relabeling-orbit sum of its Y (see
    the module docstring) vanishes, so its residue is never built.
    """
    if inv.valence != (0, 0):
        raise ValueError("the integral test expects a scalar invariant")
    blocks = [inv.filter(lambda m, s=s: m.sigma == s) for s in sorted(inv.degrees())]
    return all(_block_integrates_to_zero(b) for b in blocks or [inv])


def _block_integrates_to_zero(inv):
    sigma = inv.homogeneous_degree() if inv.terms else 0
    if inv.kind == PSI or sigma < 2:
        return not first_slot_residue(inv)
    # Y is linear: sum each monomial's bare expansion over one denominator q;
    # collected on canonical phi-monomials, that is the sum over each orbit
    q = lcm(*(c.denominator for c in inv.terms.values()))
    acc = {}
    for mono, c in inv.terms.items():
        num = c.numerator * (q // c.denominator)
        flats, nums = _bare_y(mono)
        for flat, n in zip(flats, nums):
            acc[flat] = acc.get(flat, 0) + num * n
    return not _collect(PHI, acc, q)


# Y_bare(m) per scalar phi-monomial m, keyed by its edge matrix: the nonzero
# matrices of _leibniz([_off_factor(m, 1, k) for every k]) and their
# numerators, as two tuples, which cost less memory than a tuple of pairs.
# _y_memo_size counts the matrices held; the bound is in the module docstring.
_Y_MEMO_LIMIT = 1 << 16
_Y_MEMO: dict = {}
_y_memo_size = 0


def _bare_y(mono):
    """Y_bare(mono), read from the memo or expanded and stored."""
    global _y_memo_size
    y = _Y_MEMO.get(mono.edges)
    if y is None:
        acc, _ = _leibniz([_off_factor(mono, 1, k) for k in range(mono.sigma)])
        y = tuple(f for f, n in acc.items() if n), tuple(n for n in acc.values() if n)
        size = len(y[0])
        if size <= _Y_MEMO_LIMIT:
            if _y_memo_size + size > _Y_MEMO_LIMIT:
                _Y_MEMO.clear()
                _y_memo_size = 0
            _Y_MEMO[mono.edges] = y
            _y_memo_size += size
    return y

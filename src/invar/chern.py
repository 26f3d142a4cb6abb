"""Chern polynomials of the potential and the trace-cycle reduction.

``chern_invariant(p)`` realizes the scalar invariant obtained by wedging the
curvature-variation forms F_{ab} = phi_{acbe} dz^c dz^ebar into one closed
form per part of the partition and fully contracting.  In edge-matrix terms
each part of size k contributes a cycle of k factors joined by matrix-index
edges, and the wedge contraction sums over all pairings of the form indices
with the sign of the pairing permutation.  Every factor ends up of type
(2,2); the invariant has degree sum(p) and weight 2*sum(p), and it integrates
to zero because the underlying form is exact.

``chern_reduce`` inverts this description on the all-trace terms: the unique
maximal-height term of chern_invariant(p) is the product of plain trace
cycles encoding p with coefficient 1, so repeatedly reading off a maximal
all-trace term and subtracting the matching Chern invariant terminates with
a remainder whose every term has a trace-free factor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from .combinat import cycle_lengths, cycle_successor, perm_sign
from .invariants import Invariant
from .monomials import PHI, ContractionMonomial
from .rationals import as_count, as_int

__all__ = [
    "partitions_of",
    "chern_invariant",
    "chern_reduce",
]


def partitions_of(n: int):
    """Partitions of n as non-increasing tuples, in descending lex order."""

    def gen(rest, maxpart):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return list(gen(as_count(n, "n"), n))


# chern_invariant canonicalizes sigma! terms whose signatures all tie, so its
# cost grows as sigma!^2 (degree 6 took 1.6 s, 7 over 80 s): it refuses a
# larger degree before it builds a monomial.  The memo maps a normalized
# partition to its invariant for the life of the process, so it holds at most
# the 29 of degree <= 6 (the largest built from 720 permutations).  Every
# caller shares one Invariant: nothing in src/ mutates an Invariant's terms.
_CHERN_DEGREE_LIMIT = 6
_CHERN_MEMO: dict = {}


def chern_invariant(p) -> Invariant:
    p = tuple(sorted((as_int(k, "partition") for k in p), reverse=True))
    inv = _CHERN_MEMO.get(p)
    if inv is not None:
        return inv
    sigma = sum(p)
    if sigma > _CHERN_DEGREE_LIMIT:
        raise ValueError(f"degree {sigma} is above the limit {_CHERN_DEGREE_LIMIT}")
    if not p or p[-1] < 1:
        raise ValueError("partition must consist of positive integers")
    succ = cycle_successor(p)
    terms = []
    for tau in permutations(range(sigma)):
        edges = [[0] * sigma for _ in range(sigma)]
        for i in range(sigma):
            edges[i][succ[i]] += 1
            edges[i][tau[i]] += 1
        terms.append((ContractionMonomial(PHI, edges), perm_sign(tau)))
    inv = _CHERN_MEMO[p] = Invariant(PHI, (0, 0), terms)
    return inv


def height(mono: ContractionMonomial) -> int:
    """Number of trace edges: the sum of the edge matrix's diagonal."""
    return sum(mono.edges[i][i] for i in range(mono.sigma))


def _read_partition(mono):
    """Partition encoded by an all-trace (2,2)-monomial: every row and column
    of its edge matrix sums to 2 and every diagonal entry is at least 1, so
    edges - I is a permutation matrix, whose cycle type is the partition (a
    double trace is a fixed point, a part of size 1)."""
    rows = enumerate(mono.edges)
    succ = [next(j for j, e in enumerate(row) if e - (i == j)) for i, row in rows]
    return tuple(sorted(cycle_lengths(succ), reverse=True))


def chern_reduce(inv: Invariant):
    """Split an order-0 invariant as sum(c_p * chern_invariant(p)) + remainder.

    The remainder has at least one trace-free factor in every term.  Raises
    unless inv is a scalar phi-invariant with every factor of type (2,2).
    """
    if inv.kind != PHI or inv.valence != (0, 0):
        raise ValueError("chern_reduce expects a scalar phi-invariant")
    if any(s != (2, 2) for m in inv.terms for s in m.signatures):
        raise ValueError("chern_reduce expects every factor of type (2,2)")
    chern_part: dict[tuple, Fraction] = {}
    rest = inv
    while True:
        traced = [m for m in rest.terms if all(m.edges[i][i] for i in range(m.sigma))]
        if not traced:
            break
        mono = min(traced, key=lambda m: (-height(m), m.sort_key()))
        coeff = rest.terms[mono]
        p = _read_partition(mono)
        chern_part[p] = chern_part.get(p, Fraction(0)) + coeff
        rest = rest - coeff * chern_invariant(p)
    chern_part = {p: c for p, c in chern_part.items() if c}
    return chern_part, rest

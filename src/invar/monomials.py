"""Contraction monomials.

A monomial records a product of factors ``D^(A_i, B_i) psi^i`` together with
a pairing of holomorphic against antiholomorphic derivative slots.  Because
the derivative slots of each type on one factor are totally symmetric, the
pairing is fully described by an edge-multiplicity matrix: ``edges[i][j]`` is
the number of contractions whose holomorphic slot sits on factor i and whose
antiholomorphic slot sits on factor j.  Uncontracted slots are counted per
factor in ``free_hol`` / ``free_anti`` and carry no individual labels.

Two kinds exist.  A phi-monomial is a product of derivatives of one function,
so its factors are unordered and the canonical form minimizes the encoding
over simultaneous row/column permutations.  A psi-monomial is multilinear in
labeled functions psi^1..psi^sigma and keeps factor order fixed.
"""

from __future__ import annotations

from itertools import chain, groupby, permutations, product
from math import factorial, prod
from operator import add, itemgetter

from .rationals import as_count, as_int, as_json

PHI = "phi"
PSI = "psi"

# canonical() tries every labeling that sorts the signatures, the product of
# the factorials of the tied runs' lengths; past 9! it would take minutes
_LABELING_LIMIT = factorial(9)

# raw encoding -> canonical ContractionMonomial.  One memo for the whole
# process: every phi-monomial's canonical() fills it, and _scalar_canonical
# reads it for calculus's bare edge matrices.  It holds each raw key
# canonical() was asked about and each canonical form.  A fill that would pass
# the bound clears it (a seed-0 decompose bench pass leaves 1888 entries, the
# (11, 5) column space about 34,000).
_CANONICAL_LIMIT = 1 << 17
_CANONICAL_CACHE: dict = {}


class ContractionMonomial:
    __slots__ = ("kind", "sigma", "edges", "free_hol", "free_anti", "_key")

    def __init__(self, kind, edges, free_hol=None, free_anti=None):
        if kind not in (PHI, PSI):
            raise ValueError(f"unknown kind {kind!r}")
        edges = tuple(_counts(row, "edges") for row in edges)
        sigma = len(edges)
        if sigma == 0 or any(len(row) != sigma for row in edges):
            raise ValueError("edges must be a non-empty square matrix")
        free_hol = _counts(free_hol or (0,) * sigma, "free_hol")
        free_anti = _counts(free_anti or (0,) * sigma, "free_anti")
        if len(free_hol) != sigma or len(free_anti) != sigma:
            raise ValueError("free slot lists must have length sigma")
        self._fill(kind, edges, free_hol, free_anti)

    @classmethod
    def _raw(cls, kind, edges, free_hol, free_anti):
        """Wrap tuples that are already valid: a non-empty square matrix of
        count tuples and two count tuples of its size."""
        out = cls.__new__(cls)
        out._fill(kind, edges, free_hol, free_anti)
        return out

    def _fill(self, kind, edges, free_hol, free_anti):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "sigma", len(edges))
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "free_hol", free_hol)
        object.__setattr__(self, "free_anti", free_anti)
        object.__setattr__(self, "_key", (kind, edges, free_hol, free_anti))

    def __setattr__(self, name, value):
        raise AttributeError("ContractionMonomial is immutable")

    def __eq__(self, other):
        return isinstance(other, ContractionMonomial) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return (
            f"ContractionMonomial({self.kind!r}, {list(map(list, self.edges))}, "
            f"{list(self.free_hol)}, {list(self.free_anti)})"
        )

    # -- derived counts ----------------------------------------------------

    @property
    def signatures(self):
        edges = self.edges
        a = map(add, map(sum, edges), self.free_hol)
        return tuple(zip(a, map(add, map(sum, zip(*edges)), self.free_anti)))

    @property
    def weight(self) -> int:
        return sum(x for row in self.edges for x in row)

    @property
    def valence(self):
        return (sum(self.free_hol), sum(self.free_anti))

    # -- transformations ---------------------------------------------------

    def apply_permutation(self, perm) -> "ContractionMonomial":
        """Relabel factors: new factor i is old factor perm[i]."""
        rng = range(self.sigma)
        return ContractionMonomial._raw(
            self.kind,
            tuple(tuple(self.edges[perm[i]][perm[j]] for j in rng) for i in rng),
            tuple(self.free_hol[perm[i]] for i in rng),
            tuple(self.free_anti[perm[i]] for i in rng),
        )

    def conjugate(self) -> "ContractionMonomial":
        """Swap holomorphic and antiholomorphic index types."""
        rng = range(self.sigma)
        return ContractionMonomial._raw(
            self.kind,
            tuple(tuple(self.edges[j][i] for j in rng) for i in rng),
            self.free_anti,
            self.free_hol,
        )

    def canonical(self) -> "ContractionMonomial":
        """Canonical representative (identity for psi-monomials)."""
        if self.kind == PSI:
            return self
        cached = _CANONICAL_CACHE.get(self._key)
        if cached is not None:
            return cached
        # the signatures lead the minimized key (signatures, edges, free_hol,
        # free_anti), so only labelings that sort them can win: those permute
        # factors inside each run of equal signatures, and distinct signatures
        # leave the sorting one alone.  A factor's signature moves with it, so
        # relabel keys, not monomials; itemgetter(*perm) returns a tuple only
        # for two or more indices, and one factor is its own canonical form
        best_edges, free_hol, free_anti = self.edges, self.free_hol, self.free_anti
        if self.sigma > 1:
            sig = self.signatures
            order = sorted(range(self.sigma), key=sig.__getitem__)
            runs = [tuple(g) for _, g in groupby(order, sig.__getitem__)]
            labelings = prod(factorial(len(run)) for run in runs)
            if labelings > _LABELING_LIMIT:
                raise ValueError(
                    f"canonical form needs {labelings} labelings, over the limit {_LABELING_LIMIT}"
                )
            perms = [runs] if labelings == 1 else product(*map(permutations, runs))
            best_edges, free_hol, free_anti = min(
                (tuple(map(at, at(best_edges))), at(free_hol), at(free_anti))
                for at in (itemgetter(*chain(*perm)) for perm in perms)
            )
        best = ContractionMonomial._raw(self.kind, best_edges, free_hol, free_anti)
        if len(_CANONICAL_CACHE) + 2 > _CANONICAL_LIMIT:
            _CANONICAL_CACHE.clear()
        _CANONICAL_CACHE[self._key] = best
        _CANONICAL_CACHE[best._key] = best
        return best

    def sort_key(self):
        """Deterministic ordering key; compare canonical forms of equal kind."""
        return (self.sigma, self.edges, self.free_hol, self.free_anti)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma": self.sigma,
            "edges": [list(row) for row in self.edges],
            "free_hol": list(self.free_hol),
            "free_anti": list(self.free_anti),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ContractionMonomial":
        edges = [as_json(row, list, "each edge row") for row in as_json(d["edges"], list, "edges")]
        # an absent free-slot list reads as [], which the constructor fills with zeros
        free = [as_json(d.get(f, []), list, f) for f in ("free_hol", "free_anti")]
        m = cls(d["kind"], edges, *free)
        if m.sigma != as_int(d.get("sigma", m.sigma), "sigma"):
            raise ValueError("sigma does not match edge matrix size")
        return m


def _scalar_canonical(kind, rows):
    """The canonical scalar monomial with these edge rows, tuples of counts.
    A phi hit in the memo skips building a monomial; psi keys never enter it,
    and a psi monomial is its own canonical form."""
    zeros = (0,) * len(rows)
    mono = _CANONICAL_CACHE.get((kind, rows, zeros, zeros))
    if mono is None:
        mono = ContractionMonomial._raw(kind, rows, zeros, zeros).canonical()
    return mono


def _counts(values, field):
    """The values as a tuple of non-negative integers; anything else is refused."""
    values = tuple(values)
    for x in values:
        as_count(x, field)
    return values


def _check_restriction(restriction, sigma):
    """The restriction list as sorted integer pairs.  Floors are matched to
    factors up to relabeling, so the order of the list carries nothing."""
    if restriction is None:
        return ((2, 2),) * sigma
    restriction = _floor_pairs(restriction)
    if len(restriction) != sigma:
        raise ValueError("restriction list length must equal the factor count")
    return tuple(sorted(restriction))


_NOT_PAIRS = "restriction entries must be [alpha, beta] pairs, got {!r}"


def _floor_pairs(restriction):
    """A list or tuple of [alpha, beta] pairs, of any length, as integer
    pairs; any other value is refused whole, never iterated."""
    if not isinstance(restriction, (tuple, list)):
        raise ValueError(_NOT_PAIRS.format(restriction))
    return tuple(map(_floor_pair, restriction))


def _floor_pair(entry):
    if not isinstance(entry, (tuple, list)) or len(entry) != 2:
        raise ValueError(_NOT_PAIRS.format(entry))
    return as_int(entry[0], "restriction"), as_int(entry[1], "restriction")


def _meets_floors(sigs, restriction):
    """Some one-to-one assignment of the restriction's entries to factors
    meets every floor; a factor of signature (A, B) takes (a, b) when
    A >= a and B >= b.  Entries in decreasing (a, b) each take the free
    fitting factor of least B, which is exact: a later entry has no larger
    a, so of two factors an entry fits, the one of larger B fits every later
    entry the other fits, and an exchange turns any assignment into this one."""
    free = sorted(sigs, key=itemgetter(1))
    for a, b in sorted(restriction, reverse=True):
        i = next((i for i, (A, B) in enumerate(free) if A >= a and B >= b), None)
        if i is None:
            return False
        del free[i]
    return True


"""Witness search: invariant = Chern part + divergence of one-forms.

Any scalar invariant that integrates to zero is a rational combination of
Chern invariants and divergences of acceptable one-form invariants of weight
w-1.  The witness is found by exact linear algebra over the canonical
monomial basis: Chern columns first, then divergences of enumerated
one-forms of each valence, and the deterministic basic solution of that
system.  Inhomogeneous input is split into (weight, degree) blocks which are
solved independently.

Only the (1,0) one-forms are enumerated and expanded: the (0,1) generators
and their columns are conjugates of those (see `_column_space`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .calculus import divergence, first_slot_residue, integrates_to_zero
from .chern import chern_invariant, partitions_of
from .combinat import compositions
from .invariants import Invariant, monomial_invariant, zero_invariant
from .linalg import LinearSystem
from .monomials import PHI, ContractionMonomial, _check_restriction, _counts, _meets_floors
from .rationals import as_fraction, as_int, as_positive, format_fraction, random_fraction

__all__ = [
    "NotCoexactError",
    "InfeasibleError",
    "Decomposition",
    "enumerate_monomials",
    "decompose",
    "verify_decomposition",
    "random_coexact_invariant",
]


class NotCoexactError(Exception):
    """The input does not integrate to zero; carries the nonvanishing residue."""

    def __init__(self, message, residue):
        super().__init__(message)
        self.residue = residue


class InfeasibleError(Exception):
    """No witness exists in the generated column space."""


class Decomposition:
    """chern: partition -> coefficient; t_hol, t_anti: one-form witnesses."""

    __slots__ = ("chern", "t_hol", "t_anti")

    def __init__(self, chern=None, t_hol=None, t_anti=None):
        self.chern = {p: as_fraction(c) for p, c in (chern or {}).items()}
        self.t_hol = t_hol if t_hol is not None else zero_invariant(PHI, (1, 0))
        self.t_anti = t_anti if t_anti is not None else zero_invariant(PHI, (0, 1))

    def reconstruct(self) -> Invariant:
        """Both divergences in one Leibniz pass, plus the Chern part."""
        total = divergence(self.t_hol, self.t_anti)
        for p, c in self.chern.items():
            total = total + chern_invariant(p).scale(c)
        return total

    def to_json_dict(self) -> dict:
        return {
            "chern": [
                {"partition": list(p), "coeff": format_fraction(c)}
                for p, c in sorted(self.chern.items())
            ],
            "t_hol": self.t_hol.to_json_dict(),
            "t_anti": self.t_anti.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Decomposition":
        chern = {tuple(e["partition"]): e["coeff"] for e in d.get("chern", [])}
        t_hol = Invariant.from_json_dict(d["t_hol"]) if "t_hol" in d else None
        t_anti = Invariant.from_json_dict(d["t_anti"]) if "t_anti" in d else None
        if t_hol is not None and not t_hol.terms:
            t_hol = zero_invariant(PHI, (1, 0))
        if t_anti is not None and not t_anti.terms:
            t_anti = zero_invariant(PHI, (0, 1))
        return cls(chern, t_hol, t_anti)


def enumerate_monomials(w, sigma, restriction=None, valence=(0, 0)):
    """All canonical acceptable monomials of given weight, degree, valence.

    The restriction's floors are matched to factors up to relabeling: a
    class is kept when some one-to-one assignment of the list's entries to
    its factors meets every floor.  A class's canonical representative has
    its factor signatures sorted, so only such matrices are built
    (`_sorted_matrices`).  The row sums and free holomorphic slots total
    w + p, the column sums and free antiholomorphic slots w + q, so a
    restriction whose floors add up to more than either admits no monomial
    and nothing is walked."""
    as_positive(sigma, "sigma")
    restriction = _check_restriction(restriction, sigma)
    p, q = _counts(valence, "valence")
    if as_int(w, "w") < 0:
        return []
    if w + p < sum(a for a, _ in restriction) or w + q < sum(b for _, b in restriction):
        return []
    out = set()
    for free_hol in compositions(p, sigma):
        for free_anti in compositions(q, sigma):
            for edges, sigs in _sorted_matrices(w, free_hol, free_anti, restriction):
                if _meets_floors(sigs, restriction):
                    mono = ContractionMonomial._raw(PHI, edges, free_hol, free_anti)
                    out.add(mono.canonical())
    return sorted(out, key=lambda m: m.sort_key())


def _sorted_matrices(w, free_hol, free_anti, restriction):
    """(edges, signatures) of every edge matrix of total weight w whose
    factor signatures, with these free slots, come out sorted; the walk
    goes row by row.  Sorted signatures have sorted A's, and the sorted A's
    and B's must each dominate the restriction's sorted floors entry by
    entry.  So a row's sum starts at the larger of its floor and the row
    above, stops rising once the rows below cannot keep up within the
    weight left, and a partial matrix is cut once its columns' deficits
    exceed that weight."""
    sigma = len(free_hol)
    floor_a = sorted(a for a, _ in restriction)
    floor_b = sorted(b for _, b in restriction)
    rows = [None] * sigma
    # (floor, free holomorphic slots) of the rows below each row
    below = [list(zip(floor_a, free_hol))[i + 1 :] for i in range(sigma)]

    def walk(i, cols, left, prev):
        last = i == sigma - 1
        lo = max(prev, floor_a[i], free_hol[i]) - free_hol[i]
        for r in (left,) if last else range(lo, left + 1):
            a_i = r + free_hol[i]
            rest = left - r
            # the rows below keep their A's at least a_i and meet their floors
            need = sum(max(a_i, a, h) - h for a, h in below[i])
            if r < lo or rest < need:
                return
            for row in compositions(r, sigma):
                new = list(map(add, cols, row))
                bs = sorted(map(add, new, free_anti))
                if rest < sum(f - b for f, b in zip(floor_b, bs) if f > b):
                    continue
                rows[i] = row
                if not last:
                    yield from walk(i + 1, new, rest, a_i)
                    continue
                sigs = tuple(
                    (sum(e) + h, b + f)
                    for e, h, b, f in zip(rows, free_hol, new, free_anti)
                )
                if all(sigs[k] <= sigs[k + 1] for k in range(sigma - 1)):
                    yield tuple(rows), sigs

    return walk(0, [0] * sigma, w, 0)


# (w, sigma, sorted restriction) -> column space.  One per process, filled one
# block at a time by decompose and by draws (factored on a block's first solve).
# A fill that would pass the bound clears it (a seed-0 decompose bench pass
# leaves 11 entries).  An entry's presence also orders decompose's integral
# test: after the solve on a cached block, before the column build on an
# uncached one.
_SYSTEM_LIMIT = 64
_SYSTEM_CACHE: dict = {}


def _column_space(w, sigma, restriction):
    """Chern and divergence generator columns for one (weight, degree) block.

    Conjugation swaps each factor's (A, B) and commutes with divergence, so
    the (0,1) generators under a list are the conjugates of the (1,0) ones
    under its transpose, and their columns the conjugates of those columns:
    one walk, and one Leibniz expansion per (1,0) generator, serve both
    valences when the list is its own transpose, as the default one is."""
    key = (w, sigma, restriction)
    cached = _SYSTEM_CACHE.get(key)
    if cached is not None:
        return cached
    chern_gens = (
        [(p, chern_invariant(p).terms) for p in partitions_of(sigma)] if w == 2 * sigma else []
    )
    floors = _check_restriction(restriction, sigma)
    transposed = tuple(sorted((b, a) for a, b in floors))
    expanded = {}
    hol = _hol_generators(w, sigma, floors, expanded)
    source = hol if transposed == floors else _hol_generators(w, sigma, transposed, expanded)
    # each distinct monomial conjugated once; conjugation maps canonical
    # classes one to one, so no two terms of a column collide
    bar = dict.fromkeys(m for t, terms in source for m in (t, *terms))
    bar = {m: m.conjugate().canonical() for m in bar}
    anti = [(bar[t], {bar[m]: c for m, c in terms.items()}) for t, terms in source]
    anti.sort(key=lambda gen: gen[0].sort_key())
    rows: dict[ContractionMonomial, int] = {}
    columns = []
    for _, terms in chern_gens + hol + anti:
        col = {}
        for m, c in terms.items():
            r = rows.setdefault(m, len(rows))
            col[r] = c
        columns.append(col)
    # the row map is final once built: a target monomial outside it makes the
    # block infeasible, so solving never grows the cached system
    entry = {
        "rows": rows,
        "chern": [p for p, _ in chern_gens],
        "tmonos": [m for m, _ in hol + anti],
        "nhol": len(hol),
        "columns": columns,
        "system": None,
    }
    if len(_SYSTEM_CACHE) >= _SYSTEM_LIMIT:
        _SYSTEM_CACHE.clear()
    _SYSTEM_CACHE[key] = entry
    return entry


def _hol_generators(w, sigma, floors, expanded):
    """(one-form, its divergence's terms) for each (1,0) generator under the
    floors; expanded maps each one-form to its terms, shared by both walks."""
    out = []
    for mono in enumerate_monomials(w - 1, sigma, floors, (1, 0)):
        if mono not in expanded:
            expanded[mono] = divergence(monomial_invariant(mono)).terms
        out.append((mono, expanded[mono]))
    return out


def decompose(inv: Invariant, restriction=None) -> Decomposition:
    """Witness decomposition of a co-exact scalar phi-invariant.

    Every generator column is a Chern invariant or a divergence and
    integrates to zero, so a found witness proves a block co-exact.  The
    formal integral test runs before the columns are built on a block whose
    column space is not cached, and on a cached one only if no witness is found.

    Raises NotCoexactError when the formal integral test fails,
    InfeasibleError when no witness exists over the generated columns, and
    ValueError on a non-scalar or psi input, a restriction list whose
    length is not a block's factor count (checked before the integral test),
    or a block of weight 2 * sigma whose Chern columns chern_invariant
    refuses: sigma above its degree limit 6.
    """
    if inv.kind != PHI:
        raise ValueError("decompose expects a phi-invariant")
    if inv.valence != (0, 0):
        raise ValueError("decompose expects a scalar invariant")
    result = Decomposition()
    # inv's terms are canonical, distinct and nonzero, so each block's are
    blocks: dict[tuple, dict] = {}
    for m, c in inv.terms.items():
        blocks.setdefault((m.weight, m.sigma), {})[m] = c
    for (w, sigma), terms in sorted(blocks.items()):
        block = Invariant._raw(PHI, (0, 0), terms)
        _decompose_block(block, w, sigma, restriction, result)
    return result


def _decompose_block(block, w, sigma, restriction, result):
    # the sorted list: one cache entry serves every order
    key = (w, sigma, _check_restriction(restriction, sigma))
    cold = key not in _SYSTEM_CACHE
    if cold:
        _require_coexact(block, w, sigma)
    entry = _column_space(*key)
    rows = entry["rows"]
    # a target monomial that no generator column reaches has no witness
    if any(m not in rows for m in block.terms):
        x = None
    else:
        if entry["system"] is None:
            entry["system"] = LinearSystem(entry["columns"])
        x = entry["system"].solve({rows[m]: c for m, c in block.terms.items()})
    if x is None:
        if not cold:
            _require_coexact(block, w, sigma)
        raise InfeasibleError(
            f"no witness found for block of weight {w}, degree {sigma}"
        )
    nchern = len(entry["chern"])
    for p, c in zip(entry["chern"], x[:nchern]):
        if c:
            result.chern[p] = result.chern.get(p, Fraction(0)) + c
    # the (1,0) generators come first; enumerated monomials are canonical and distinct
    t_terms = list(zip(entry["tmonos"], x[nchern:]))
    nhol = entry["nhol"]
    hol = {m: c for m, c in t_terms[:nhol] if c}
    anti = {m: c for m, c in t_terms[nhol:] if c}
    if hol:
        result.t_hol = result.t_hol + Invariant._raw(PHI, (1, 0), hol)
    if anti:
        result.t_anti = result.t_anti + Invariant._raw(PHI, (0, 1), anti)


def _require_coexact(block, w, sigma):
    if not integrates_to_zero(block):
        raise NotCoexactError(
            f"block of weight {w}, degree {sigma} does not integrate to zero",
            residue=first_slot_residue(block),
        )


def verify_decomposition(inv: Invariant, dec: Decomposition) -> bool:
    """Exact canonical equality of the input against the reconstruction."""
    return dec.reconstruct() == inv


def random_coexact_invariant(weight, sigma, rng, restriction=None) -> Invariant:
    """Random input that integrates to zero by construction: a rational
    combination of cycle invariants when the weight admits them, plus
    divergences of random acceptable one-forms, drawn from the block's cached
    generators (the column space decompose solves in).  A block with no
    acceptable one-form of weight w - 1 and w != 2 sigma (under the default
    restriction, every w < 2 sigma) gives the empty invariant on every draw
    and leaves rng untouched: a caller wanting a nonzero sample redraws on
    another block.  Elsewhere an unlucky draw may still come out empty."""
    # checked before the cache lookup: (6.0, 3, ...) hashes like (6, 3, ...)
    as_int(weight, "weight")
    as_positive(sigma, "sigma")
    entry = _column_space(weight, sigma, _check_restriction(restriction, sigma))
    tmonos, nhol = entry["tmonos"], entry["nhol"]
    total = zero_invariant(PHI, (0, 0))
    if weight == 2 * sigma:
        for p in partitions_of(sigma):
            c = random_fraction(rng)
            if c:
                total = total + chern_invariant(p).scale(c)
    for gens in (tmonos[:nhol], tmonos[nhol:]):
        for mono in rng.sample(gens, k=min(3, len(gens))):
            c = random_fraction(rng)
            if c:
                total = total + divergence(monomial_invariant(mono, c))
    return total

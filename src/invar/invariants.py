"""Linear combinations of contraction monomials with exact rational coefficients."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import factorial

from .monomials import PHI, PSI, ContractionMonomial
from .rationals import as_count, as_fraction, as_json, format_fraction

__all__ = ["Invariant", "zero_invariant", "monomial_invariant"]


class Invariant:
    """Finite map from canonical monomials to nonzero rational coefficients.

    All monomials share ``kind`` and free-slot valence.  Terms are stored
    canonicalized and collected, so structural equality of two Invariants is
    formal equality of the contraction expressions they denote.
    """

    __slots__ = ("kind", "valence", "terms")

    def __init__(self, kind, valence, terms):
        collected: dict[ContractionMonomial, Fraction] = {}
        if not isinstance(valence, (list, tuple)) or len(valence) != 2:
            raise ValueError(f"valence must be a two-element list, got {valence!r}")
        p, q = valence
        valence = (as_count(p, "valence"), as_count(q, "valence"))
        for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
            coeff = as_fraction(coeff)
            if not coeff:
                continue
            if mono.kind != kind:
                raise ValueError("monomial kind does not match invariant kind")
            if mono.valence != valence:
                raise ValueError(
                    f"monomial valence {mono.valence} does not match {valence}"
                )
            mono = mono.canonical()
            new = collected.get(mono, _ZERO) + coeff
            if new:
                collected[mono] = new
            else:
                del collected[mono]
        self._fill(kind, valence, collected)

    @classmethod
    def _raw(cls, kind, valence, terms):
        """Wrap terms that are already canonical, collected and nonzero."""
        out = cls.__new__(cls)
        out._fill(kind, valence, terms)
        return out

    def _fill(self, kind, valence, terms):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "valence", valence)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError("Invariant is immutable")

    # -- basic queries -----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Invariant)
            and self.kind == other.kind
            and self.valence == other.valence
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.kind, self.valence, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __repr__(self):
        if not self.terms:
            return f"Invariant({self.kind!r}, {self.valence}, 0)"
        parts = [f"({c})*{m!r}" for m, c in self.sorted_terms()]
        return f"Invariant({self.kind!r}, {self.valence}, " + " + ".join(parts) + ")"

    def coefficient(self, mono: ContractionMonomial) -> Fraction:
        return self.terms.get(mono.canonical(), _ZERO)

    def degrees(self) -> set:
        return {m.sigma for m in self.terms}

    def homogeneous_degree(self) -> int:
        degs = self.degrees()
        if len(degs) != 1:
            raise ValueError("invariant is not homogeneous in degree")
        return degs.pop()

    # -- linear structure ----------------------------------------------------

    def _combine(self, other, sign):
        if self.kind != other.kind or self.valence != other.valence:
            raise ValueError("cannot combine invariants of different kind or valence")
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            new = terms.get(mono, _ZERO) + sign * coeff
            if new:
                terms[mono] = new
            else:
                terms.pop(mono, None)
        return Invariant._raw(self.kind, self.valence, terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "Invariant":
        c = as_fraction(c)
        terms = {m: c * v for m, v in self.terms.items()} if c else {}
        return Invariant._raw(self.kind, self.valence, terms)

    def __mul__(self, c):
        return self.scale(c)

    __rmul__ = __mul__

    def filter(self, predicate) -> "Invariant":
        """Sublinear combination of the terms whose monomial satisfies predicate."""
        terms = {m: c for m, c in self.terms.items() if predicate(m)}
        return Invariant._raw(self.kind, self.valence, terms)

    # -- multiplicative and symmetry structure -------------------------------

    def multiply(self, other: "Invariant") -> "Invariant":
        """Product of scalar invariants: block-diagonal union of factor sets."""
        if self.kind != other.kind:
            raise ValueError("cannot multiply invariants of different kind")
        if self.valence != (0, 0) or other.valence != (0, 0):
            raise ValueError("multiply is defined for scalar invariants only")
        terms = []
        for m1, c1 in self.terms.items():
            s1 = m1.sigma
            for m2, c2 in other.terms.items():
                s2 = m2.sigma
                edges = [
                    tuple(m1.edges[i]) + (0,) * s2 for i in range(s1)
                ] + [
                    (0,) * s1 + tuple(m2.edges[i]) for i in range(s2)
                ]
                mono = ContractionMonomial(
                    self.kind,
                    edges,
                    m1.free_hol + m2.free_hol,
                    m1.free_anti + m2.free_anti,
                )
                terms.append((mono, c1 * c2))
        return Invariant(self.kind, (0, 0), terms)

    def conjugate(self) -> "Invariant":
        return Invariant(
            self.kind,
            (self.valence[1], self.valence[0]),
            [(m.conjugate(), c) for m, c in self.terms.items()],
        )

    def polarize(self) -> "Invariant":
        """Multilinear form of a degree-homogeneous phi-invariant.

        Averages over all factor relabelings with weight 1/sigma!; the
        labeled factors then become the functions psi^1..psi^sigma.
        """
        if self.kind != PHI:
            raise ValueError("polarize expects a phi-invariant")
        if not self.terms:
            return Invariant(PSI, self.valence, [])
        sigma = self.homogeneous_degree()
        inv = Fraction(1, factorial(sigma))
        terms = []
        for mono, coeff in self.terms.items():
            psi = ContractionMonomial(PSI, mono.edges, mono.free_hol, mono.free_anti)
            for perm in permutations(range(sigma)):
                terms.append((psi.apply_permutation(perm), coeff * inv))
        return Invariant(PSI, self.valence, terms)

    # -- serialization -------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "valence": list(self.valence),
            "terms": [
                {"monomial": m.to_json_dict(), "coeff": format_fraction(c)}
                for m, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "Invariant":
        as_json(d, dict, "document")
        terms = []
        for t in as_json(d["terms"], list, "terms"):
            mono = as_json(as_json(t, dict, "each term")["monomial"], dict, "monomial")
            terms.append((ContractionMonomial.from_json_dict(mono), t["coeff"]))
        kinds = {m.kind for m, _ in terms}
        if len(kinds) > 1:
            raise ValueError("mixed monomial kinds in invariant")
        kind = kinds.pop() if kinds else PHI
        return cls(kind, d.get("valence", [0, 0]), terms)


_ZERO = Fraction(0)


def zero_invariant(kind=PHI, valence=(0, 0)) -> Invariant:
    return Invariant(kind, valence, [])


def monomial_invariant(mono: ContractionMonomial, coeff=1) -> Invariant:
    return Invariant(mono.kind, mono.valence, [(mono, coeff)])

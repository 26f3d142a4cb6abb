"""Potentials as finite jet collections.

A potential is the deviation H of a Kahler potential from the flat one,
stored as a finite dict of jets: (alpha, beta) -> coefficient of
z^alpha zbar^beta.  Normal coordinates are assumed throughout, so every jet
must have |alpha| >= 2 and |beta| >= 2.  A real potential carries conjugate
coefficients on transposed index pairs, and the numeric constructors refuse
jets that do not.

The coefficient lives in one of the jet rings: plain values for numeric
geometry, graded values for numeric kernel runs, formal symbols for
identities.  Constructors cover explicit jets, the standard rational
curvature model on projective space, random Hermitian jets, and the fully
symbolic potential of a given weight.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .combinat import compositions
from .rationals import GR_ZERO, GaussRat, as_count, as_dimension, as_gauss, as_json, random_fraction
from .rings import GaussRing, GradedRing, SymbolicRing, symbol_grade
from .series import ScalarSeries, _check_index

__all__ = [
    "Potential",
    "fubini_study_jets",
    "random_hermitian_jets",
    "jet_keys_up_to_grade",
]


def _check_key(key, n):
    alpha, beta = _check_index(key, n)
    if sum(alpha) < 2 or sum(beta) < 2:
        raise ValueError(
            f"jet {key} is not in normal form; need order >= 2 in z and zbar"
        )
    return alpha, beta


class Potential:
    __slots__ = ("n", "ring", "jets")

    def __init__(self, n, ring, jets):
        self.n = as_dimension(n)
        self.ring = ring
        clean = {}
        for key, v in jets.items():
            key = _check_key(key, n)
            if v:
                clean[key] = v
        self.jets = clean

    @classmethod
    def numeric(cls, n, raw_jets):
        """Plain Gaussian-rational coefficients; raw values as GaussRat.
        Jets that are not a real potential's are refused (_check_real)."""
        pot = cls(n, GaussRing(), {k: as_gauss(v) for k, v in raw_jets.items()})
        _check_real(pot.jets)
        return pot

    @classmethod
    def graded_numeric(cls, n, raw_jets, weight_cap):
        """Same values, tagged with their jet grade and capped products, and
        refused unless real like numeric's, before the cap drops any."""
        as_count(weight_cap, "weight_cap")
        ring = GradedRing(2 * weight_cap)
        raw = {key: as_gauss(v) for key, v in raw_jets.items()}
        pot = cls(n, ring, {key: ring.graded(symbol_grade(key), v) for key, v in raw.items()})
        _check_real(raw)
        return pot

    @classmethod
    def symbolic(cls, n, weight_cap, linear=False):
        """One formal symbol per jet index pair up to the weight cap."""
        as_count(weight_cap, "weight_cap")
        keys = jet_keys_up_to_grade(n, 2 * weight_cap)
        ring = SymbolicRing(2 * weight_cap, linear)
        jets = {key: ring.symbol(key) for key in keys}
        return cls(n, ring, jets)

    def series(self, cap) -> ScalarSeries:
        return ScalarSeries(self.ring, self.n, cap, self.jets)

    @classmethod
    def from_json_dict(cls, d: dict) -> "Potential":
        as_json(d, dict, "document")
        raw = {}
        for e in as_json(d["jets"], list, "jets"):
            as_json(e, dict, "each jet")
            key = tuple(tuple(as_json(e[f], list, f)) for f in ("alpha", "beta"))
            if key in raw:
                raise ValueError(f"repeated jet alpha={e['alpha']}, beta={e['beta']}")
            raw[key] = GaussRat(e.get("re", 0), e.get("im", 0))
        return cls.numeric(d["n"], raw)


def _check_real(jets):
    """Refuse GaussRat jets, under checked keys, that are not a real
    potential's: a real potential holds the conjugate coefficient on the
    transposed index pair."""
    for (a, b), v in jets.items():
        if jets.get((b, a), GR_ZERO) != v.conjugate():
            raise ValueError(
                f"not real: jet alpha={list(a)}, beta={list(b)} is {v}, "
                f"so alpha={list(b)}, beta={list(a)} must be {v.conjugate()}"
            )


def jet_keys_up_to_grade(n, grade_cap):
    """All normal-form jet index pairs with doubled weight <= grade_cap."""
    as_dimension(n)
    as_count(grade_cap, "grade_cap")
    out = []
    for ka in range(2, grade_cap + 1):
        for kb in range(2, grade_cap + 3 - ka):
            for alpha in compositions(ka, n):
                for beta in compositions(kb, n):
                    out.append((alpha, beta))
    return out


def fubini_study_jets(n, max_order) -> dict:
    """Jets of log(1 + |z|^2) - |z|^2 through the given total order."""
    as_dimension(n)
    as_count(max_order, "max_order")
    jets = {}
    for k in range(2, max_order // 2 + 1):
        c = Fraction((-1) ** (k - 1)) * factorial(k - 1)
        for alpha in compositions(k, n):
            jets[(alpha, alpha)] = GaussRat(c / prod(map(factorial, alpha)))
    return jets


# a random potential stops at 2 * _TERMS jets (or 50 * _TERMS draws);
# seeded draws depend on it
_TERMS = 6


def random_hermitian_jets(n, weight_cap, rng) -> dict:
    """Sparse random real potential: conjugate pairs of rational jets.  At
    weight cap 0 no jet fits, so the potential is flat and rng is untouched."""
    as_count(weight_cap, "weight_cap")
    keys = jet_keys_up_to_grade(n, 2 * weight_cap)
    jets: dict = {}
    if not keys:
        return jets
    attempts = 0
    while len(jets) < 2 * _TERMS and attempts < 50 * _TERMS:
        attempts += 1
        key = keys[rng.randrange(len(keys))]
        a, b = key
        if key in jets:
            continue
        # a diagonal jet is real: its conjugate rewrites it under the same key
        v = GaussRat(random_fraction(rng), random_fraction(rng) if a != b else 0)
        if not v:
            continue
        jets[key] = v
        jets[(b, a)] = v.conjugate()
    return jets

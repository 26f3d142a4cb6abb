"""Exact integration of invariants over the flat torus via Fourier modes.

A trigonometric polynomial on the 2n-torus is stored as a finite dict of
integer modes (k_1..k_n, l_1..l_n) with Gaussian-rational coefficients.
Holomorphic and antiholomorphic derivatives act diagonally on each mode, so
the integral of a contraction monomial is a finite mode sum: assignments of
one mode per factor summing to zero, each weighted by the product of
coefficients and of pairing values

    D(xi, eta) = -1/4 * sum_a (k_a - i l_a) (k'_a + i l'_a)

raised to the edge multiplicities.  Everything stays in exact arithmetic;
the returned value is the mean over the torus (no volume factor).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .invariants import Invariant
from .monomials import PHI
from .rationals import GR_ZERO, GaussRat, as_gauss, as_int

__all__ = ["FourierFunction", "pairing", "eval_integral", "random_phi"]


class FourierFunction:
    """Finite Fourier sum on the 2n-torus with Gaussian-rational coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        if as_int(n, "n") < 1:
            raise ValueError("need at least one complex dimension")
        self.n = n
        clean = {}
        for mode, c in coeffs.items():
            mode = tuple(as_int(v, "mode") for v in mode)
            if len(mode) != 2 * n:
                raise ValueError(f"mode {mode} is not a length-{2*n} vector")
            c = as_gauss(c)
            if c:
                clean[mode] = c
        self.coeffs = clean

    def is_real(self) -> bool:
        """True when opposite modes carry conjugate coefficients."""
        for mode, c in self.coeffs.items():
            neg = tuple(-v for v in mode)
            if self.coeffs.get(neg, GR_ZERO) != c.conjugate():
                return False
        return True

    def __bool__(self):
        return bool(self.coeffs)


def pairing(xi, eta, n) -> GaussRat:
    """Value of one holomorphic-on-xi, antiholomorphic-on-eta contraction."""
    total = GR_ZERO
    for a in range(n):
        hol = GaussRat(xi[a], -xi[n + a])
        anti = GaussRat(eta[a], eta[n + a])
        total = total + hol * anti
    return total * Fraction(-1, 4)


def eval_integral(inv: Invariant, phi) -> GaussRat:
    """Exact mean of a scalar invariant evaluated on Fourier sums.

    A phi-invariant takes one FourierFunction; a multilinear invariant takes
    a sequence of them, one per factor slot.
    """
    if inv.valence != (0, 0):
        raise ValueError("only scalar invariants integrate")
    if inv.kind == PHI:
        if isinstance(phi, (list, tuple)):
            raise ValueError("a phi-invariant takes a single function")
        functions = None
        n = phi.n
    else:
        functions = list(phi)
        if not functions:
            raise ValueError("multilinear evaluation needs one function per factor")
        n = functions[0].n
        if any(f.n != n for f in functions):
            raise ValueError("mixed torus dimensions")
    cache: dict = {}

    def d(xi, eta):
        v = cache.get((xi, eta))
        if v is None:
            v = pairing(xi, eta, n)
            cache[(xi, eta)] = v
        return v

    total = GR_ZERO
    for mono, coeff in inv.sorted_terms():
        sigma = mono.sigma
        if functions is None:
            slots = [phi] * sigma
        elif len(functions) == sigma:
            slots = functions
        else:
            raise ValueError(f"invariant has {sigma} factors, got {len(functions)} functions")
        acc = GR_ZERO
        pairs = [
            (i, j, e)
            for i, row in enumerate(mono.edges)
            for j, e in enumerate(row)
            if e
        ]
        head_modes = [sorted(f.coeffs) for f in slots[:-1]]
        for head in itertools.product(*head_modes):
            last = tuple(-sum(v) for v in zip(*head)) if head else ()
            if sigma == 1:
                last = (0,) * (2 * n)
            c_last = slots[-1].coeffs.get(last)
            if c_last is None:
                continue
            assign = head + (last,)
            value = c_last
            for f, xi in enumerate(head):
                value = value * slots[f].coeffs[xi]
            for i, j, e in pairs:
                p = d(assign[i], assign[j])
                if not p:
                    value = GR_ZERO
                    break
                value = value * p ** e
            acc = acc + value
        total = total + acc * coeff
    return total


# bound on the numerators of random coefficients; seeded draws depend on it
_COEFF_BOUND = 3


def random_phi(n, mode_bound=2, seed=0, pairs=3) -> FourierFunction:
    """Seeded random real trigonometric polynomial: conjugate mode pairs, no mean.

    With three or more pairs the support always closes a mode triangle
    (xi3 = -(xi1 + xi2)); a support of independent pairs admits no zero-sum
    triple for n >= 2 in practice, which would blind degree-3 sampling for
    support reasons alone.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if mode_bound < 1:
        raise ValueError("mode bound must be at least 1")
    rng = random.Random(f"{seed}:{n}:{mode_bound}")

    modes: list = []
    taken: set = set()

    def admit(mode):
        if not any(mode) or any(abs(v) > mode_bound for v in mode):
            return False
        if mode in taken:
            return False
        modes.append(mode)
        taken.add(mode)
        taken.add(tuple(-v for v in mode))
        return True

    while len(modes) < pairs:
        if len(modes) == 2 and pairs >= 3:
            third = tuple(-(a + b) for a, b in zip(modes[0], modes[1]))
            if not admit(third):
                # triangle leaves the mode box or collides; redraw the base pair
                modes.clear()
                taken.clear()
            continue
        admit(tuple(rng.randint(-mode_bound, mode_bound) for _ in range(2 * n)))

    coeffs: dict = {}
    for mode in modes:
        c = GR_ZERO
        while not c:
            c = GaussRat(
                Fraction(rng.randint(-_COEFF_BOUND, _COEFF_BOUND), rng.randint(1, 3)),
                Fraction(rng.randint(-_COEFF_BOUND, _COEFF_BOUND), rng.randint(1, 3)),
            )
        coeffs[mode] = c
        coeffs[tuple(-v for v in mode)] = c.conjugate()
    return FourierFunction(n, coeffs)

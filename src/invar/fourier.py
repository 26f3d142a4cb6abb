"""Exact integration of invariants over the flat torus via Fourier modes.

A trigonometric polynomial on the 2n-torus is stored as a finite dict of
integer modes (k_1..k_n, l_1..l_n) with Gaussian-rational coefficients.
Holomorphic and antiholomorphic derivatives act diagonally on each mode, so
the integral of a contraction monomial is a finite mode sum: assignments of
one mode per factor summing to zero, each weighted by the product of
coefficients and of pairing values

    D(xi, eta) = -1/4 * sum_a (k_a - i l_a) (k'_a + i l'_a)

raised to the edge multiplicities.  The returned value is the mean over the
torus (no volume factor).

The mode sum runs over Python-int Gaussian integers: each function's
coefficients are scaled by the lcm L of their denominators, and each
pairing is kept as -4 D.  The modes^(sigma-1) heads of the zero-sum
assignments are walked once per factor count sigma, not once per term.

D is bilinear, so D(-xi, -eta) = D(xi, eta): a closed assignment a and its
negative -a have the same sigma x sigma pairing table and the same pairing
product P_m(a) in every term m, and differ only in their coefficient
products C(a) and C(-a).  The walk therefore sums C(a) + C(-a) per pair
{a, -a}, and each pair with a nonzero sum builds one table and runs each
sigma-factor term once, as F_m(a) + F_m(-a) = (C(a) + C(-a)) * P_m(a).  This
holds for functions that are not real, and slot by slot for a multilinear
invariant; the all-zero assignment is its own negative and counts once.

Each term sums into its own integer, and a term with W edges has the
divisor q = prod(L) * (-4)^W.  The invariant's coefficients times these
sums are totalled as integers over one common denominator, and the answer
is built as one GaussRat.  No floats enter anywhere.
"""

from __future__ import annotations

import functools
import itertools
import random
from fractions import Fraction
from math import lcm, prod
from operator import neg

from .invariants import Invariant
from .monomials import PHI
from .rationals import GR_ZERO, GaussRat, as_dimension, as_gauss, as_int, as_positive, random_fraction

__all__ = ["FourierFunction", "pairing", "eval_integral", "random_phi"]


class FourierFunction:
    """Finite Fourier sum on the 2n-torus with Gaussian-rational coefficients."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs):
        self.n = as_dimension(n)
        clean = {}
        for mode, c in coeffs.items():
            mode = tuple(as_int(v, "mode") for v in mode)
            if len(mode) != 2 * n:
                raise ValueError(f"mode {mode} is not a length-{2*n} vector")
            c = as_gauss(c)
            if c:
                clean[mode] = c
        self.coeffs = clean

    def __bool__(self):
        return bool(self.coeffs)


def _pairing_int(xi, eta, n):
    """-4 * D(xi, eta) as a Gaussian integer (re, im)."""
    re = im = 0
    for a in range(n):
        k, l = xi[a], -xi[n + a]
        k2, l2 = eta[a], eta[n + a]
        re += k * k2 - l * l2
        im += k * l2 + l * k2
    return re, im


def pairing(xi, eta, n) -> GaussRat:
    """Value of one holomorphic-on-xi, antiholomorphic-on-eta contraction."""
    re, im = _pairing_int(xi, eta, n)
    return GaussRat(Fraction(re, -4), Fraction(im, -4))


def _integer_coeffs(f):
    """(L, {mode: (re, im)}): the coefficients of f times the lcm L of their
    denominators, as Gaussian integers."""
    scale = 1
    for c in f.coeffs.values():
        scale = lcm(scale, c._d)
    return scale, {
        mode: (c._p * (scale // c._d), c._q * (scale // c._d)) for mode, c in f.coeffs.items()
    }


def eval_integral(inv: Invariant, phi) -> GaussRat:
    """Exact mean of a scalar invariant evaluated on Fourier sums.

    A phi-invariant takes one FourierFunction; a multilinear invariant takes
    a sequence of them, one per factor slot.  Each pair {a, -a} of closed
    mode assignments is evaluated once, weighted by C(a) + C(-a), and the
    value is totalled over one denominator (see the module docstring).
    """
    if inv.valence != (0, 0):
        raise ValueError("only scalar invariants integrate")
    groups: dict = {}
    for mono, coeff in inv.sorted_terms():
        groups.setdefault(mono.sigma, []).append((mono, coeff))
    if inv.kind == PHI:
        if isinstance(phi, (list, tuple)):
            raise ValueError("a phi-invariant takes a single function")
        n = phi.n
        single = _integer_coeffs(phi)
    else:
        functions = list(phi)
        if not functions:
            raise ValueError("multilinear evaluation needs one function per factor")
        n = functions[0].n
        if any(f.n != n for f in functions):
            raise ValueError("mixed torus dimensions")
        wrong = groups.keys() - {len(functions)}
        if wrong:
            raise ValueError(f"invariant has {min(wrong)} factors, got {len(functions)} functions")
        scaled = [_integer_coeffs(f) for f in functions]
    d = functools.cache(lambda xi, eta: _pairing_int(xi, eta, n))
    # the answer is (re + im i) / den, summed over every term in integers
    total_re = total_im = 0
    den = 1
    for sigma, group in groups.items():
        slots = [single] * sigma if inv.kind == PHI else scaled
        scale = prod(L for L, _ in slots)
        # each term's edges index the flat sigma x sigma pairing table; every
        # product carries prod(L) from the slots and -4 per edge
        plans = []
        for mono, coeff in group:
            edges = [
                (i * sigma + j, e)
                for i, row in enumerate(mono.edges)
                for j, e in enumerate(row)
                if e
            ]
            plans.append((edges, coeff, (-4) ** sum(e for _, e in edges) * scale, [0, 0]))
        head_ints = [ints for _, ints in slots[:-1]]
        last_ints = slots[-1][1]
        # a and -a share every pairing, so each closed pair {a, -a} is keyed
        # by its larger member and carries C(a) + C(-a)
        pairs: dict = {}
        for head in itertools.product(*(sorted(ints) for ints in head_ints)):
            last = tuple(map(neg, map(sum, zip(*head)))) if head else (0,) * (2 * n)
            c_last = last_ints.get(last)
            if c_last is None:
                continue
            assign = head + (last,)
            c_re, c_im = c_last
            for ints, xi in zip(head_ints, head):
                a, b = ints[xi]
                c_re, c_im = c_re * a - c_im * b, c_re * b + c_im * a
            key = max(assign, tuple(tuple(map(neg, xi)) for xi in assign))
            re, im = pairs.get(key, (0, 0))
            pairs[key] = (re + c_re, im + c_im)
        for assign, (c_re, c_im) in pairs.items():
            if not (c_re or c_im):
                continue
            table = [d(xi, eta) for xi in assign for eta in assign]
            for edges, _, _, acc in plans:
                re, im = c_re, c_im
                for k, e in edges:
                    a, b = table[k]
                    if not (a or b):
                        re = im = 0
                        break
                    for _ in range(e):
                        re, im = re * a - im * b, re * b + im * a
                acc[0] += re
                acc[1] += im
        for _, coeff, q, (re, im) in plans:
            # add coeff * (re + im i) / q over the common denominator; lcm is
            # positive, so common // u carries the sign of q
            t, u = coeff.numerator, coeff.denominator * q
            common = lcm(den, u)
            total_re = total_re * (common // den) + t * re * (common // u)
            total_im = total_im * (common // den) + t * im * (common // u)
            den = common
    return GaussRat(Fraction(total_re, den), Fraction(total_im, den))


# base-pair redraws before random_phi gives up: over seeds 0-49 every n <= 12
# closed within 3,633, while at n = 30 (mode bound 2) almost none close
_REDRAW_LIMIT = 10_000


def random_phi(n, mode_bound=2, seed=0) -> FourierFunction:
    """Seeded random real trigonometric polynomial: three conjugate mode
    pairs that close a triangle (xi3 = -(xi1 + xi2)), no mean.

    A support of independent pairs admits no zero-sum triple for n >= 2 in
    practice, which would blind degree-3 sampling for support reasons alone.
    When xi3 leaves the mode box or repeats a mode, both base modes are
    redrawn; past _REDRAW_LIMIT redraws the draw is refused, since the
    chance that one closes falls geometrically with n.
    """
    as_dimension(n)
    as_positive(mode_bound, "mode_bound")
    rng = random.Random(f"{seed}:{n}:{mode_bound}")

    modes: list = []
    redraws = 0
    while len(modes) < 3:
        if len(modes) < 2:
            mode = tuple(rng.randint(-mode_bound, mode_bound) for _ in range(2 * n))
        else:
            mode = tuple(-(a + b) for a, b in zip(*modes))
        if (any(mode) and mode not in modes and tuple(-v for v in mode) not in modes
                and max(map(abs, mode)) <= mode_bound):
            modes.append(mode)
        elif len(modes) == 2:
            redraws += 1
            if redraws > _REDRAW_LIMIT:
                raise ValueError(
                    f"no mode triangle closed for n={n}, mode bound {mode_bound} "
                    f"within {_REDRAW_LIMIT} redraws of the base pair"
                )
            modes.clear()

    coeffs: dict = {}
    for mode in modes:
        c = GR_ZERO
        while not c:
            c = GaussRat(random_fraction(rng), random_fraction(rng))
        coeffs[mode] = c
        coeffs[tuple(-v for v in mode)] = c.conjugate()
    return FourierFunction(n, coeffs)

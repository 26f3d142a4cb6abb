"""Kernel coefficient pipeline through operator symbols.

The reproducing condition turns the potential into a normal-ordered
operator symbol

    A = det g(z, zeta/t) * exp(-H(z, zeta/t) * t)

stored as a dict from (z-degree, derivative-degree, t-order) to ring
coefficients, with zeta replaced by the derivative after commutative
expansion.  The adjoint acts termwise by the calibrated reordering rule

    (c z^g d^d t^-j)* = conj(c) * sum_k C(g,k) C(d,k) k! z^(d-k) d^(g-k) t^-j'

with j' = j + |g| - |d| and every sign plus, as the curvature anchors and
the sign test require.  Every non-identity adjoint term sits at t-order
<= -1, so the inverse is a finite geometric sum.  The extractor walks it
over states (z-degree b, t-order j) from (0, 0), keeping every state it
reaches: a step reads an adjoint term (cz, dd, j') with b >= cz and moves
to (b - cz + dd, j + j').  The j-th coefficient is the sum of the zero-z-degree
states at t-order j, and the weight grading of the ring checks it comes
out homogeneous.  Only the A terms that some walk from zero back to zero
can read are adjointed.  Every A term has j, j' <= jmax, the one cap.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial, perm, prod
from operator import add

from .combinat import decrement, perm_sign
from .rationals import as_count
from .rings import GaussRing, _add_term, check_weight

__all__ = [
    "multiplication_terms",
    "build_A",
    "adjoint",
    "bergman_coefficients",
]


def _zero_key(n):
    z = (0,) * n
    return (z, z, 0)


def _defect(key):
    """t-order defect j' = j + |g| - |d| of the term z^g d^d t^-j."""
    g, d, j = key
    return j + sum(g) - sum(d)


def convolve(t1, t2, ring, jmax):
    """Commutative product of two symbol term dicts, used before the middle
    slot is read as a derivative.  The t-order j and the defect j' are
    additive, and a pair taking either past jmax is skipped; every other
    pair goes to ring.mul, which applies the ring's own caps (see rings),
    and a zero product is skipped.  Pairs are visited t1 outer, t2 inner,
    which fixes the insertion order."""
    out: dict = {}
    inner = [(k2, v2, _defect(k2), k2[2]) for k2, v2 in t2.items()]
    for k1, v1 in t1.items():
        room, jroom = jmax - _defect(k1), jmax - k1[2]
        for k2, v2, o2, j2 in inner:
            if o2 > room or j2 > jroom:
                continue
            p = ring.mul(v1, v2)
            if p:
                key = tuple(map(add, k1[0], k2[0])), tuple(map(add, k1[1], k2[1])), k1[2] + j2
                _add_term(out, key, p, ring)
    return out


def multiplication_terms(pot):
    """Symbol of multiplication by H(z, zeta/t) * t."""
    out = {}
    for (alpha, beta), v in pot.jets.items():
        out[(alpha, beta, sum(beta) - 1)] = v
    return out


def build_A(pot, jmax):
    """Terms of A for the potential with t-order j and defect j' at most
    jmax.  Both are additive and nonnegative on every factor, so partial
    products past jmax are never formed.  Every term but the identity has
    j >= 1 and j' >= 1, since a normal-form jet has |alpha|, |beta| >= 2."""
    as_count(jmax, "jmax")
    n = pot.n
    ring = pot.ring
    one = {_zero_key(n): ring.one}
    # metric entries with the antiholomorphic slot fed zeta/t
    entries = [[dict() for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                entries[a][b][_zero_key(n)] = ring.one
            for (alpha, beta), v in pot.jets.items():
                if not alpha[a] or not beta[b]:
                    continue
                db = decrement(beta, b)
                _add_term(
                    entries[a][b],
                    (decrement(alpha, a), db, sum(db)),
                    ring.scale(v, alpha[a] * beta[b]),
                    ring,
                )
    det = {}
    for sigma in itertools.permutations(range(n)):
        product = one
        for a in range(n):
            product = convolve(product, entries[a][sigma[a]], ring, jmax)
            if not product:
                break
        sign = perm_sign(sigma)
        for key, v in product.items():
            _add_term(det, key, v if sign > 0 else ring.scale(v, -1), ring)
    mult = multiplication_terms(pot)
    expo = dict(one)
    power = dict(one)
    k = 0
    while power:
        k += 1
        power = convolve(power, mult, ring, jmax)
        power = {key: ring.scale(v, Fraction(-1, k)) for key, v in power.items()}
        for key, v in power.items():
            _add_term(expo, key, v, ring)
    return convolve(det, expo, ring, jmax)


def adjoint(terms, ring):
    """Termwise adjoint of a normal-ordered symbol.

    On the linear ring (the linearized theory) A is 1 - H t + tr(g - 1), and after
    the Hermitian relabel conj(h[b|a]) = h[a|b] the adjoint is the one-piece
    ladder

        A* - 1 = sum_(a,b) h[a|b] sum_{m>=0} (m-1)/m! lap^m(z^a d^b) t^(1-|b|)

    with lap^m(z^a d^b) = sum_{|mu|=m} m!/mu! (a)_mu (b)_mu z^(a-mu) d^(b-mu).
    The -1/m! part is the adjoint of -H t, the +m/m! part that of the trace,
    so the m = 1 rung vanishes and every rung keeps t-order |b| - 1.
    """
    out: dict = {}
    for key, v in terms.items():
        g, d, _ = key
        jp = _defect(key)
        base = ring.conj(v)
        ranges = [range(min(ga, da) + 1) for ga, da in zip(g, d)]
        for kappa in itertools.product(*ranges):
            mult = 1
            for ga, da, ka in zip(g, d, kappa):
                mult *= comb(ga, ka) * comb(da, ka) * factorial(ka)
            key = (
                tuple(x - y for x, y in zip(d, kappa)),
                tuple(x - y for x, y in zip(g, kappa)),
                jp,
            )
            _add_term(out, key, ring.scale(base, mult), ring)
    return out


def _readable(key, jmax):
    """Whether the walk from z-degree zero back to zero within t-order jmax
    can read an adjoint term of the A term key (derivation in the README)."""
    g, d, _ = key
    # the least derivative order and z-degree over kappa, both at kappa = min(g, d)
    cz = sum(max(0, y - x) for x, y in zip(g, d))
    dd = sum(max(0, x - y) for x, y in zip(g, d))
    return cz <= max(0, jmax - 1 - _defect(key)) and dd <= max(0, jmax - 2)


def bergman_coefficients(pot, jmax):
    """Exact expansion coefficients [a_0 .. a_jmax]; each comes out
    homogeneous of its own weight, asserted through the ring grading."""
    n = pot.n
    ring = pot.ring
    if isinstance(ring, GaussRing):
        raise ValueError("kernel runs need a graded or symbolic ring")
    check_weight(ring, f"a{jmax}", as_count(jmax, "jmax"))
    A = build_A(pot, jmax)
    ident = _zero_key(n)
    for key, v in A.items():
        # the adjoint keeps j' and is injective on each t-order
        if _defect(key) < 1 and (key != ident or v != ring.one):
            raise ArithmeticError(
                "adjoint term at nonnegative t-order; inversion would not close"
            )
    E = adjoint({k: v for k, v in A.items() if _readable(k, jmax)}, ring)
    _add_term(E, ident, ring.scale(ring.one, -1), ring)
    zero = (0,) * n
    X = {(zero, 0): ring.one}
    Q = {0: ring.one}
    for _ in range(jmax):
        Xn: dict = {}
        for (b, j), xv in X.items():
            for (cz, dd, j2), ev in E.items():
                nj = j + j2
                if nj > jmax:
                    continue
                # falling factorials, 0 where a derivative outruns its power
                mult = prod(map(perm, b, cz))
                if not mult:
                    continue
                nb = tuple(bi - ci + di for bi, ci, di in zip(b, cz, dd))
                contrib = ring.scale(ring.mul(xv, ev), -mult)
                if contrib:
                    _add_term(Xn, (nb, nj), contrib, ring)
        X = Xn
        if not X:
            break
        for (b, j), xv in X.items():
            if b == zero:
                Q[j] = ring.add(Q.get(j, ring.zero), xv)
    out = []
    for j in range(jmax + 1):
        q = Q.get(j, ring.zero)
        stray = set(map(ring.grade, q)) - {2 * j}
        if stray:
            raise ArithmeticError(
                f"coefficient {j} is not weight-homogeneous: grades {sorted(stray)}"
            )
        out.append(q)
    return out

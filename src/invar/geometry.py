"""Curvature of a potential and the named local scalars built from it.

Series scalars come from truncated series around the center in normal
coordinates: metric, inverse metric, connection, curvature, Ricci, scalar
curvature, covariant Laplacians, norm squares and the gradient-divergence
scalar of the third kernel coefficient, each at its own series caps plus an
optional margin that audits truncation.  ``evaluate`` reads any scalar
phi-invariant, the Todd polynomials P_j among them, from the jets alone.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial, prod

from .invariants import zero_invariant
from .monomials import PHI
from .rationals import as_count
from .rings import GaussRing
from .series import ScalarSeries

__all__ = [
    "CurvaturePackage",
    "curvature_package",
    "evaluate",
    "named_scalar",
    "scalar_weight",
    "todd_polynomial",
    "todd_gammas",
    "kernel_coefficient_reference",
    "NAMED_SCALARS",
]


def _sum_series(items):
    total = None
    for s in items:
        total = s if total is None else total.add(s)
    return total


def _table(n, rank, entry, canon=None):
    """Nested lists T[i][j]... = entry(i, j, ...), each index over range(n).

    With canon, entry runs only at the tuples that canon fixes, and every
    tuple refers to the one object built at canon(i, j, ...); safe because
    no series is mutated in place."""
    if canon is not None:
        built = {}
        for idx in itertools.product(range(n), repeat=rank):
            if canon(*idx) == idx:
                built[idx] = entry(*idx)
        return _table(n, rank, lambda *idx: built[canon(*idx)])
    if rank == 1:
        return [entry(i) for i in range(n)]
    return [_table(n, rank - 1, lambda *rest, i=i: entry(i, *rest)) for i in range(n)]


def _pairs_sorted(a, b, c, d):
    """Class key of an index tuple symmetric under a <-> c and b <-> d."""
    return min(a, c), min(b, d), max(a, c), max(b, d)


class CurvaturePackage:
    """Metric data of one potential, as series of one common truncation order.

    Index conventions: G[a][b] is the metric with holomorphic slot a and
    antiholomorphic slot b; Ginv[b][a] is its inverse pairing antiholomorphic
    b against holomorphic a, so raising contracts Ginv[b][a]*T[...a...].
    Gamma[e][d][c] is the connection with upper index e and lower indices
    d, c; R[a][b][c][d] has holomorphic slots a, c and antiholomorphic b, d.
    Every tensor is a contraction of tensors built before it.

    As G = d dbar H, Gamma[e][d][c] = Gamma[e][c][d] and R is symmetric
    under a <-> c and b <-> d, exactly on the truncated series: each is
    computed only at d <= c, resp. a <= c and b <= d, and the other entries
    refer to the same ScalarSeries object, as no series is mutated in place.
    """

    __slots__ = ("n", "ring", "cap", "G", "Ginv", "Gamma", "R", "Ric", "S", "_RU")

    def __init__(self, pot, cap):
        as_count(cap, "cap")
        n = pot.n
        ring = pot.ring
        rng = range(n)
        self.n = n
        self.ring = ring
        self.cap = cap
        H = pot.series(cap + 4)
        one = ScalarSeries.one(ring, n, cap + 2)
        zero = ScalarSeries(ring, n, cap + 2)
        E = _table(n, 2, lambda a, b: H.d_hol(a).d_anti(b))
        if any(E[a][b].at_zero() != ring.zero for a in rng for b in rng):
            raise ValueError("potential is not in normal form")
        G = _table(n, 2, lambda a, b: E[a][b].add(one) if a == b else E[a][b])
        # Neumann series for the inverse; E vanishes at the center so powers
        # gain z-order and the loop empties
        Ginv = _table(n, 2, lambda a, b: one if a == b else zero)
        power = E
        for k in range(cap + 2):
            if all(not power[a][b] for a in rng for b in rng):
                break
            term = power if k % 2 else _table(n, 2, lambda a, b: power[a][b].neg())
            Ginv = _table(n, 2, lambda a, b: Ginv[a][b].add(term[a][b]))
            power = _table(
                n, 2, lambda a, b: _sum_series(power[a][e].mul(E[e][b]) for e in rng)
            )
        # dG[c][a][b] = d_c G[a][b] and dbG[d][a][b] = dbar_d G[a][b]
        dG = _table(n, 3, lambda c, a, b: G[a][b].d_hol(c))
        dbG = _table(n, 3, lambda d, a, b: G[a][b].d_anti(d))
        Gamma = _table(
            n,
            3,
            lambda e, b, c: _sum_series(Ginv[d][e].mul(dG[b][c][d]) for d in rng),
            lambda e, b, c: (e, min(b, c), max(b, c)),
        )
        # R = d dbar g - Ginv d g dbar g; Gamma[e][c][a] already holds the
        # sum over f of Ginv[f][e] d_c G[a][f]
        R = _table(
            n,
            4,
            lambda a, b, c, d: dG[c][a][b].d_anti(d).sub(
                _sum_series(Gamma[e][c][a].mul(dbG[d][e][b]) for e in rng)
            ),
            _pairs_sorted,
        )
        Ric = _table(
            n,
            2,
            lambda a, b: _sum_series(
                Ginv[d][c].mul(R[a][b][c][d]) for c in rng for d in rng
            ).neg(),
        )
        self.G, self.Ginv, self.Gamma, self.R, self.Ric = G, Ginv, Gamma, R, Ric
        self.S = _sum_series(Ginv[b][a].mul(Ric[a][b]) for a in rng for b in rng)
        self._RU = None

    def laplacian(self, f: ScalarSeries) -> ScalarSeries:
        n = self.n
        return _sum_series(
            self.Ginv[b][a].mul(f.d_hol(a).d_anti(b))
            for a in range(n)
            for b in range(n)
        )

    def _raised_ricci(self):
        """RU[b][c] = Ginv[b][p] Ginv[q][c] Ric[p][q], raised one slot at a
        time, built on first use and kept for the life of the package."""
        if self._RU is None:
            rng = range(self.n)
            Ginv, Ric = self.Ginv, self.Ric
            T = _table(
                self.n, 2, lambda p, c: _sum_series(Ginv[q][c].mul(Ric[p][q]) for q in rng)
            )
            self._RU = _table(
                self.n, 2, lambda b, c: _sum_series(Ginv[b][p].mul(T[p][c]) for p in rng)
            )
        return self._RU

    def curvature_norm2(self) -> ScalarSeries:
        """|R|^2 = W[p][b][q][d] W[b][p][d][q], with W the curvature raised
        in both holomorphic slots one at a time, through V[p][b][c][d] =
        Ginv[p][a] R[a][b][c][d]: at most 2 n^5 + n^4 series products.  V
        keeps R's symmetry b <-> d and W both, so each is built per class."""
        n, rng = self.n, range(self.n)
        Ginv, R = self.Ginv, self.R
        V = _table(
            n,
            4,
            lambda p, b, c, d: _sum_series(Ginv[p][a].mul(R[a][b][c][d]) for a in rng),
            lambda p, b, c, d: (p, min(b, d), c, max(b, d)),
        )
        W = _table(
            n,
            4,
            lambda p, b, q, d: _sum_series(Ginv[q][c].mul(V[p][b][c][d]) for c in rng),
            _pairs_sorted,
        )
        return _sum_series(
            W[p][b][q][d].mul(W[b][p][d][q])
            for p, b, q, d in itertools.product(rng, repeat=4)
        )

    def ricci_norm2(self) -> ScalarSeries:
        RU = self._raised_ricci()
        rng = range(self.n)
        return _sum_series(self.Ric[a][b].mul(RU[b][a]) for a in rng for b in rng)

    def gradient_divergence(self) -> ScalarSeries:
        """div of the weight-3 gradient current, the correction term in the
        third kernel coefficient.  48 Q_a = grad_a(|R|^2 - 4|Ric|^2 + 8 S^2)
        + 2 g^{d fbar} (del_d Y)_{a fbar} with Y = X - 4 S Ric and
        X the Ricci contraction of the curvature.  Only unmixed connection
        coefficients exist, so (del_d Y)_{a fbar} = d_d Y[a][f] -
        Gamma[e][d][a] Y[e][f] and the antiholomorphic slot takes none."""
        rng = range(self.n)
        Ginv, Gamma, R, Ric, S = self.Ginv, self.Gamma, self.R, self.Ric, self.S
        RU = self._raised_ricci()
        Y = _table(
            self.n,
            2,
            lambda a, f: _sum_series(
                R[a][b][c][f].mul(RU[b][c]) for b in rng for c in rng
            ).sub(S.mul(Ric[a][f]).scale(4)),
        )
        F = (
            self.curvature_norm2()
            .sub(self.ricci_norm2().scale(4))
            .add(S.mul(S).scale(8))
        )
        Q = []
        for a in rng:
            covY = _sum_series(
                Ginv[f][d].mul(
                    Y[a][f]
                    .d_hol(d)
                    .sub(_sum_series(Gamma[e][d][a].mul(Y[e][f]) for e in rng))
                )
                for d in rng
                for f in rng
            )
            Q.append(F.d_hol(a).add(covY.scale(2)).scale(Fraction(1, 48)))
        return _sum_series(Ginv[b][a].mul(Q[a].d_anti(b)) for a in rng for b in rng)


def curvature_package(pot, cap) -> CurvaturePackage:
    return CurvaturePackage(pot, cap)


def todd_gammas(jmax):
    """Coefficients of log(x / (e^x - 1)) through degree jmax, exactly."""
    as_count(jmax, "jmax")
    u = [Fraction(0)] * (jmax + 1)
    for k in range(1, jmax + 1):
        u[k] = Fraction(1, factorial(k + 1))
    log = [Fraction(0)] * (jmax + 1)
    power = [Fraction(0)] * (jmax + 1)
    power[0] = Fraction(1)
    for m in range(1, jmax + 1):
        nxt = [Fraction(0)] * (jmax + 1)
        for i, a in enumerate(power):
            if not a:
                continue
            for k in range(1, jmax + 1 - i):
                nxt[i + k] += a * u[k]
        power = nxt
        c = Fraction((-1) ** (m - 1), m)
        for i in range(jmax + 1):
            log[i] += c * power[i]
    return [-v for v in log]


def _check_grade(pot, name, weight):
    """On a graded or symbolic ring a doubled weight must fit under the grade
    cap; above it every product is dropped and the value would read zero."""
    if not isinstance(pot.ring, GaussRing) and 2 * weight > pot.ring.cap:
        raise ValueError(
            f"{name} has doubled weight {2 * weight}, above the ring's grade "
            f"cap {pot.ring.cap}"
        )


def _orderings(counts):
    """Every distinct tuple holding index i counts[i] times."""
    return set(itertools.permutations([i for i, c in enumerate(counts) for _ in range(c)]))


def _derivatives(pot, A, B):
    """Nonzero d^alpha dbar^beta phi(0), |alpha| = A and |beta| = B, of phi =
    |z|^2 + H, keyed by each distinct order of the holomorphic then the
    antiholomorphic indices: alpha! beta! h[alpha|beta] on a jet, delta on
    (1,1), none at any other signature (every jet is in normal form)."""
    ring = pot.ring
    if (A, B) == (1, 1):
        return [((a, a), ring.one) for a in range(pot.n)]
    out = []
    for (alpha, beta), h in pot.jets.items():
        if sum(alpha) == A and sum(beta) == B:
            v = ring.scale(h, prod(map(factorial, alpha + beta)))
            out.extend((p + q, v) for p in _orderings(alpha) for q in _orderings(beta))
    return out


def evaluate(inv, pot):
    """Center value of a scalar phi-invariant on the potential, in pot.ring.

    Each edge (i, k) of a monomial is one summed index, holomorphic on
    factor i and antiholomorphic on factor k; a factor reads _derivatives
    at its signature.  Indices are bound factor by factor, each factor
    taking only the entries that agree with those bound before it."""
    if inv.kind != PHI or inv.valence != (0, 0):
        raise ValueError("evaluate expects a scalar phi-invariant")
    ring, total = pot.ring, pot.ring.zero
    entries = {sig: _derivatives(pot, *sig) for m in inv.terms for sig in m.signatures}
    for mono, coeff in inv.terms.items():
        rng = range(mono.sigma)
        edges = [(i, k) for i in rng for k in rng for _ in range(mono.edges[i][k])]
        plan, known, bound = [], set(), {}
        for f, sig in enumerate(mono.signatures):
            slots = [e for e, ik in enumerate(edges) if ik[0] == f]
            slots += [e for e, ik in enumerate(edges) if ik[1] == f]
            # earlier-bound slots key the lookup; a loop edge needs equal indices
            keyed = [p for p, e in enumerate(slots) if e in known]
            first = [slots.index(e) for e in slots]
            agree = {}
            for idx, v in entries[sig]:
                if all(idx[p] == idx[q] for p, q in enumerate(first)):
                    agree.setdefault(tuple(idx[p] for p in keyed), []).append((idx, v))
            plan.append((slots, keyed, agree))
            known.update(slots)

        def walk(f, v):
            if f == len(plan):
                return v
            slots, keyed, agree = plan[f]
            out = ring.zero
            for idx, r in agree.get(tuple(bound[slots[p]] for p in keyed), ()):
                if not ring.is_zero(w := ring.mul(v, r)):
                    bound.update(zip(slots, idx))
                    out = ring.add(out, walk(f + 1, w))
            return out

        total = ring.add(total, ring.scale(walk(0, ring.one), coeff))
    return total


def todd_polynomial(pot, j):
    """Degree-j Todd curvature polynomial of the potential, at the center.

    P_j is the phi-invariant sum over partitions p of j of
    prod_m gamma_m^r_m / r_m! * chern_invariant(p), where part m occurs r_m
    times in p, evaluated on the jets.
    """
    from .chern import chern_invariant, partitions_of

    as_count(j, "j")
    _check_grade(pot, f"P{j}", j)
    ring = pot.ring
    if j > pot.n:
        # every chern_invariant(p) alternates over j indices with n values
        return ring.zero
    if not j:
        return ring.one
    gam = todd_gammas(j)
    todd = zero_invariant()
    for partition in partitions_of(j):
        coeff = Fraction(1)
        for m in set(partition):
            r = partition.count(m)
            coeff *= gam[m] ** r / factorial(r)
        if coeff:
            todd = todd + coeff * chern_invariant(partition)
    return evaluate(todd, pot)


NAMED_SCALARS = (
    "S",
    "lap_S",
    "lap2_S",
    "lap3_S",
    "lap4_S",
    "abs_R2",
    "abs_Ric2",
    "P1",
    "P2",
    "P3",
    "div_Q",
)


def scalar_weight(name) -> int:
    m = re.fullmatch(r"lap(\d*)_S", name)
    if m:
        return 1 + int(m.group(1) or "1")
    if name == "S":
        return 1
    if name in ("abs_R2", "abs_Ric2"):
        return 2
    if name == "div_Q":
        return 3
    m = re.fullmatch(r"P(\d+)", name)
    if m:
        return int(m.group(1))
    raise ValueError(f"unknown scalar {name!r}")


def named_scalar(pot, name, extra=0):
    """Value of a named curvature scalar at the center, exactly."""
    weight = scalar_weight(name)
    as_count(extra, "extra")
    _check_grade(pot, name, weight)
    m = re.fullmatch(r"lap(\d*)_S", name)
    if m:
        k = int(m.group(1) or "1")
        pkg = curvature_package(pot, 2 * k + extra)
        f = pkg.S
        for _ in range(k):
            f = pkg.laplacian(f)
        return f.at_zero()
    if name == "S":
        return curvature_package(pot, extra).S.at_zero()
    if name == "abs_R2":
        return curvature_package(pot, extra).curvature_norm2().at_zero()
    if name == "abs_Ric2":
        return curvature_package(pot, extra).ricci_norm2().at_zero()
    if name == "div_Q":
        return curvature_package(pot, 2 + extra).gradient_divergence().at_zero()
    # scalar_weight has accepted the name, so only P<j> is left
    return todd_polynomial(pot, weight)


# a_j = sum of coefficient * named scalar, in the order they are evaluated
_KERNEL_CLOSED_FORMS = {
    1: ((Fraction(1, 2), "S"),),
    2: ((Fraction(1), "P2"), (Fraction(1, 3), "lap_S")),
    3: ((Fraction(1), "P3"), (Fraction(1), "div_Q"), (Fraction(1, 8), "lap2_S")),
}


def kernel_coefficient_reference(pot, j, extra=0):
    """Closed-form value of the j-th kernel coefficient at the center.

    Known through j = 3: 1, S/2, P2 + lap S / 3, and P3 + div_Q +
    lap^2 S / 8.
    """
    as_count(j, "j")
    as_count(extra, "extra")
    ring = pot.ring
    if j == 0:
        return ring.one
    if j not in _KERNEL_CLOSED_FORMS:
        raise ValueError("closed forms are implemented through j = 3")
    total = ring.zero
    for coeff, name in _KERNEL_CLOSED_FORMS[j]:
        total = ring.add(total, ring.scale(named_scalar(pot, name, extra), coeff))
    return total

"""Curvature of a potential and the named local scalars built from it.

Series scalars come from truncated series around the center in normal
coordinates: metric, inverse metric, connection, curvature, Ricci, scalar
curvature, covariant Laplacians, norm squares and the gradient-divergence
scalar of the third kernel coefficient, each on the bidegree box its
reading needs.  ``evaluate`` reads any scalar phi-invariant, the Todd
polynomials P_j among them, from the jets alone.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod

from .chern import chern_invariant, partitions_of
from .invariants import zero_invariant
from .monomials import PHI
from .rationals import as_count
from .rings import check_weight
from .series import ScalarSeries, _sum_products

__all__ = [
    "CurvaturePackage",
    "curvature_package",
    "evaluate",
    "named_scalar",
    "scalar_weight",
    "todd_polynomial",
    "todd_gammas",
    "kernel_coefficient_reference",
]


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


class CurvaturePackage:
    """Metric data of one potential, as series exact on bidegree boxes.

    With cap h, H is on the box (h + 2, h + 2), G on (h + 1, h + 1), Ginv
    and Gamma on (h, h + 1), and K, Ric and S on (h, h): a center value
    taking h derivatives on each side of them (lap^h S; div_Q at h = 1; S,
    |R|^2 and |Ric|^2 at h = 0) reads nothing outside these boxes.  K is
    built on first read and kept for the life of the package, one table of
    n^4 entries; only curvature_norm2 and gradient_divergence read it.

    Index conventions: G[a][b] is the metric with holomorphic slot a and
    antiholomorphic slot b; Ginv[b][a] is its inverse pairing antiholomorphic
    b against holomorphic a, so raising contracts Ginv[b][a]*T[...a...].
    Gamma[e][d][c] is the connection with upper index e and lower indices
    d, c.  K[e][c][a][d] = dbar_d Gamma[e][c][a] is the curvature with its
    antiholomorphic slot raised: the lowered curvature, holomorphic slots
    a, c and antiholomorphic b, d, is R[a][b][c][d] = G[e][b] K[e][c][a][d],
    and Ric = -d dbar log det G = -dbar tr Gamma is computed from the trace
    as Ric[a][d] = -dbar_d Gamma[e][e][a], summed over e before the one
    d_anti, so it equals -K[e][e][a][d] (Griffiths-Harris, ch. 0 sec. 5).
    Ginv is exact to its cap, so these hold exactly on the truncated series.

    As G = d dbar H, Gamma[e][d][c] = Gamma[e][c][d] and so K is symmetric
    under c <-> a: each is computed only at d <= c, resp. c <= a, and the
    other entries refer to the same ScalarSeries object, as no series is
    mutated in place.
    """

    __slots__ = ("n", "ring", "cap", "G", "Ginv", "Gamma", "Ric", "S", "_K", "_T")

    def __init__(self, pot, cap):
        as_count(cap, "cap")
        n = pot.n
        ring = pot.ring
        rng = range(n)
        self.n = n
        self.ring = ring
        self.cap = cap
        H = pot.series(cap + 2)
        E = _table(n, 2, lambda a, b: H.d_hol(a).d_anti(b))
        one = ScalarSeries.one(ring, n, cap + 1)
        G = _table(n, 2, lambda a, b: E[a][b].add(one) if a == b else E[a][b])
        # Neumann series sum_k (-E)^k for the inverse, on (h, h + 1): E has no
        # term below bidegree (1, 1), so its powers past E^h vanish there
        box = (cap, cap + 1)
        one, zero = ScalarSeries.one(ring, n, box), ScalarSeries(ring, n, box)
        F = _table(n, 2, lambda a, b: E[a][b].add(zero).neg())
        Ginv, power = _table(n, 2, lambda a, b: one if a == b else zero), F
        for k in range(1, cap + 1):
            Ginv = _table(n, 2, lambda a, b: Ginv[a][b].add(power[a][b]))
            if k < cap:
                power = _table(
                    n, 2, lambda a, b: _sum_products((power[a][e], F[e][b]) for e in rng)
                )
        # dG[c][a][b] = d_c G[a][b]
        dG = _table(n, 3, lambda c, a, b: G[a][b].d_hol(c))
        Gamma = _table(
            n,
            3,
            lambda e, b, c: _sum_products((Ginv[d][e], dG[b][c][d]) for d in rng),
            lambda e, b, c: (e, min(b, c), max(b, c)),
        )
        # tr Gamma[a] = Gamma[e][e][a] summed over e, on the box (h, h + 1)
        trace = [reduce(ScalarSeries.add, (Gamma[e][e][a] for e in rng)) for a in rng]
        Ric = _table(n, 2, lambda a, d: trace[a].d_anti(d).neg())
        self.G, self.Ginv, self.Gamma, self.Ric = G, Ginv, Gamma, Ric
        self.S = _sum_products((Ginv[b][a], Ric[a][b]) for a in rng for b in rng)
        self._K = self._T = None

    def restrict(self, cap) -> CurvaturePackage:
        """The package of a cap no larger: every table cut to that cap's boxes,
        equal to a new package there since truncated arithmetic is exact on
        boxes.  K and T are built again on first read."""
        if as_count(cap, "cap") > self.cap:
            raise ValueError(f"cannot restrict a cap-{self.cap} package to cap {cap}")
        if cap == self.cap:
            return self
        out = CurvaturePackage.__new__(CurvaturePackage)
        out.n, out.ring, out.cap, out._K, out._T = self.n, self.ring, cap, None, None
        cut = {}  # one cut per series object and box, so shared entries stay shared

        def table(t, box):
            if isinstance(t, list):
                return [table(x, box) for x in t]
            if (id(t), box) not in cut:
                cut[id(t), box] = t.add(ScalarSeries(self.ring, self.n, box))
            return cut[id(t), box]

        out.G = table(self.G, cap + 1)
        out.Ginv, out.Gamma = table(self.Ginv, (cap, cap + 1)), table(self.Gamma, (cap, cap + 1))
        out.Ric, out.S = table(self.Ric, cap), table(self.S, cap)
        return out

    @property
    def K(self):
        """K[e][c][a][d] = dbar_d Gamma[e][c][a], built on first read and kept
        for the life of the package."""
        if self._K is None:
            Gamma, canon = self.Gamma, lambda e, c, a, d: (e, min(c, a), max(c, a), d)
            self._K = _table(self.n, 4, lambda e, c, a, d: Gamma[e][c][a].d_anti(d), canon)
        return self._K

    def laplacian(self, f: ScalarSeries) -> ScalarSeries:
        n = self.n
        return _sum_products(
            (self.Ginv[b][a], f.d_hol(a).d_anti(b)) for a in range(n) for b in range(n)
        )

    def _raised_ricci(self):
        """T[p][c] = Ginv[q][c] Ric[p][q], the Ricci form with its
        antiholomorphic slot raised, built on first use and kept for the life
        of the package."""
        if self._T is None:
            rng = range(self.n)
            Ginv, Ric = self.Ginv, self.Ric
            self._T = _table(
                self.n, 2, lambda p, c: _sum_products((Ginv[q][c], Ric[p][q]) for q in rng)
            )
        return self._T

    def curvature_norm2(self) -> ScalarSeries:
        """|R|^2 = P[x][c][a][z] P[a][z][x][c], with P[x][c][a][z] =
        Ginv[d][z] K[x][c][a][d] the curvature with both antiholomorphic
        slots raised: at most n^5 + n^4 series products.  P keeps K's
        symmetry c <-> a and gains x <-> z from R's b <-> d, so it is built
        per class."""
        n, rng = self.n, range(self.n)
        Ginv, K = self.Ginv, self.K
        P = _table(
            n,
            4,
            lambda x, c, a, z: _sum_products((Ginv[d][z], K[x][c][a][d]) for d in rng),
            lambda x, c, a, z: (min(x, z), min(c, a), max(c, a), max(x, z)),
        )
        return _sum_products(
            (P[x][c][a][z], P[a][z][x][c])
            for x, c, a, z in itertools.product(rng, repeat=4)
        )

    def ricci_norm2(self) -> ScalarSeries:
        T = self._raised_ricci()
        rng = range(self.n)
        return _sum_products((T[a][p], T[p][a]) for a in rng for p in rng)

    def gradient_divergence(self) -> ScalarSeries:
        """div of the weight-3 gradient current, the correction term in the
        third kernel coefficient.  48 Q_a = grad_a(|R|^2 - 4|Ric|^2 + 8 S^2)
        + 2 g^{d fbar} (del_d Y)_{a fbar} with Y = X - 4 S Ric and
        X[a][f] = K[p][c][a][f] T[p][c] the Ricci contraction of the
        curvature.  Only unmixed connection coefficients exist, so
        (del_d Y)_{a fbar} = d_d Y[a][f] - Gamma[e][d][a] Y[e][f] and the
        antiholomorphic slot takes none."""
        rng = range(self.n)
        Ginv, Gamma, K, Ric, S = self.Ginv, self.Gamma, self.K, self.Ric, self.S
        T = self._raised_ricci()
        Y = _table(
            self.n,
            2,
            lambda a, f: _sum_products(
                (K[p][c][a][f], T[p][c]) for p in rng for c in rng
            ).sub(S.mul(Ric[a][f]).scale(4)),
        )
        F = (
            self.curvature_norm2()
            .sub(self.ricci_norm2().scale(4))
            .add(S.mul(S).scale(8))
        )
        Q = []
        for a in rng:
            covY = _sum_products(
                (
                    Ginv[f][d],
                    Y[a][f].d_hol(d).sub(_sum_products((Gamma[e][d][a], Y[e][f]) for e in rng)),
                )
                for d in rng
                for f in rng
            )
            Q.append(F.d_hol(a).add(covY.scale(2)).scale(Fraction(1, 48)))
        return _sum_products((Ginv[b][a], Q[a].d_anti(b)) for a in rng for b in rng)


def curvature_package(pot, cap) -> CurvaturePackage:
    return CurvaturePackage(pot, cap)


def todd_gammas(jmax):
    """Coefficients of log(x / (e^x - 1)) through degree jmax: gamma_k =
    -B_k / (k k!), with sum_{i <= k} C(k + 1, i) B_i = k + 1, so B_1 = +1/2
    (the Todd series; Hirzebruch, Topological Methods in Algebraic Geometry)."""
    as_count(jmax, "jmax")
    bern = []
    for k in range(jmax + 1):
        rest = sum(comb(k + 1, i) * b for i, b in enumerate(bern))
        bern.append(Fraction(k + 1 - rest, k + 1))
    return [Fraction(0)] + [-b / (k * factorial(k)) for k, b in enumerate(bern) if k]


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
    sigs = {sig for m in inv.terms for sig in m.signatures}
    entries = {sig: _derivatives(pot, *sig) for sig in sigs}
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
                if w := ring.mul(v, r):
                    bound.update(zip(slots, idx))
                    out = ring.add(out, walk(f + 1, w))
            return out

        total = ring.add(total, ring.scale(walk(0, ring.one), coeff))
    return total


# j -> the phi-invariant P_j for the life of the process, shared like the
# Chern invariants it sums; chern_invariant's degree limit bounds it at 6 entries
_TODD_MEMO: dict = {}


def todd_polynomial(pot, j):
    """Degree-j Todd curvature polynomial of the potential, at the center.

    P_j is the phi-invariant sum over partitions p of j of
    prod_m gamma_m^r_m / r_m! * chern_invariant(p), where part m occurs r_m
    times in p, evaluated on the jets.
    """
    as_count(j, "j")
    check_weight(pot.ring, f"P{j}", j)
    ring = pot.ring
    if j > pot.n:
        # every chern_invariant(p) alternates over j indices with n values
        return ring.zero
    if not j:
        return ring.one
    todd = _TODD_MEMO.get(j)
    if todd is None:
        gam = todd_gammas(j)
        todd = zero_invariant()
        for partition in partitions_of(j):
            coeff = Fraction(1)
            for m in set(partition):
                r = partition.count(m)
                coeff *= gam[m] ** r / factorial(r)
            if coeff:
                todd = todd + coeff * chern_invariant(partition)
        _TODD_MEMO[j] = todd
    return evaluate(todd, pot)


# lap_S, lap<k>_S for k >= 2 and P<j>, no count with a leading zero, so
# each scalar has one spelling
_COUNTED_NAME = re.compile(r"lap(?P<k>[2-9]|[1-9]\d+)?_S|P(?P<j>0|[1-9]\d*)")
_FIXED_WEIGHTS = {"S": 1, "abs_R2": 2, "abs_Ric2": 2, "div_Q": 3}


def scalar_weight(name) -> int:
    m = _COUNTED_NAME.fullmatch(name)
    if m:
        return int(m["j"]) if m["j"] else 1 + int(m["k"] or 1)
    if name in _FIXED_WEIGHTS:
        return _FIXED_WEIGHTS[name]
    raise ValueError(f"unknown scalar {name!r}")


def named_scalar(pot, name):
    """Value of a named curvature scalar at the center, exactly: S, lap_S,
    lap<k>_S (lap^k S, k >= 2), abs_R2, abs_Ric2, div_Q or P<j>, each count
    written without a leading zero."""
    return _read(pot, name, lambda cap: curvature_package(pot, cap))


def _read(pot, name, package):
    """Center value of a named scalar.  A series scalar reads package(h), h
    its own cap: lap^k S takes k derivatives on each side of S, div_Q one,
    and S, |R|^2 and |Ric|^2 none."""
    weight = scalar_weight(name)
    check_weight(pot.ring, name, weight)
    if name[0] == "P":
        return todd_polynomial(pot, weight)
    if name.endswith("S"):
        # S is lap^0 S
        pkg = package(weight - 1)
        f = pkg.S
        for _ in range(weight - 1):
            f = pkg.laplacian(f)
        return f.at_zero()
    pkg = package(weight - 2)
    if name == "abs_R2":
        return pkg.curvature_norm2().at_zero()
    if name == "abs_Ric2":
        return pkg.ricci_norm2().at_zero()
    return pkg.gradient_divergence().at_zero()


# a_j = sum of coefficient * named scalar, in the order they are evaluated
_KERNEL_CLOSED_FORMS = {
    1: ((Fraction(1, 2), "S"),),
    2: ((Fraction(1), "P2"), (Fraction(1, 3), "lap_S")),
    3: ((Fraction(1), "P3"), (Fraction(1), "div_Q"), (Fraction(1, 8), "lap2_S")),
}


def kernel_coefficient_reference(pot, j):
    """Closed-form value of the j-th kernel coefficient at the center.

    Known through j = 3: 1, S/2, P2 + lap S / 3, and P3 + div_Q +
    lap^2 S / 8.  Every series scalar of a_j (each j >= 1 has one) reads
    one package of cap j - 1, lap^(j-1) S's, restricted to that scalar's
    own cap.
    """
    as_count(j, "j")
    ring = pot.ring
    if j == 0:
        return ring.one
    if j not in _KERNEL_CLOSED_FORMS:
        raise ValueError("closed forms are implemented through j = 3")
    top = curvature_package(pot, j - 1)
    total = ring.zero
    for coeff, name in _KERNEL_CLOSED_FORMS[j]:
        value = _read(pot, name, top.restrict)
        total = ring.add(total, ring.scale(value, coeff))
    return total

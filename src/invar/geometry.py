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
from functools import cached_property, reduce
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


class _Table(dict):
    """Nonzero series of one curvature table by index tuple, all on the box
    of empty, the one series that every absent index reads.  twins(*key)
    lists the keys that share the series built at key."""

    __slots__ = ("empty", "_index")

    def __init__(self, empty, entries, twins=lambda *key: (key,)):
        entries = {t: s for key, s in entries.items() if s.terms for t in twins(*key)}
        super().__init__((key, entries[key]) for key in sorted(entries))
        self.empty, self._index = empty, {}

    def __missing__(self, key):
        return self.empty

    def at(self, slot, i):
        """The (key, series) entries with key[slot] == i, in key order."""
        index = self._index.get(slot)
        if index is None:
            index = self._index[slot] = {}
            for key, s in self.items():
                index.setdefault(key[slot], []).append((key, s))
        return index.get(i, ())


def _contract(empty, triples, twins=lambda *key: (key,)):
    """The table on empty's box of the sum of x * y over the triples (key, x,
    y) of each key, in their order, by one _sum_products call per key; a
    pair with an empty factor is dropped, so a key with none left is absent."""
    groups = {}
    for key, x, y in triples:
        if x.terms and y.terms:
            groups.setdefault(key, []).append((x, y))
    return _Table(empty, {key: _sum_products(pairs) for key, pairs in groups.items()}, twins)


class CurvaturePackage:
    """Metric data of one potential, as series exact on bidegree boxes.

    Each table (G, Ginv, Gamma, K, Ric, the raised Ricci T) is a dict from
    index tuple to nonzero series on the table's one box, where an absent
    index reads as the table's one empty series.  Contractions walk the
    supports and pair only nonempty factors.

    With cap h, H is on the box (h + 2, h + 2), G on (h + 1, h + 1), Ginv
    and Gamma on (h, h + 1), and K, Ric and S on (h, h): a center value
    taking h derivatives on each side of them (lap^h S; div_Q at h = 1; S,
    |R|^2 and |Ric|^2 at h = 0) reads nothing outside these boxes.  K and T
    are cached properties, built on first read; K has at most n^4 entries,
    and only curvature_norm2 and gradient_divergence read it.

    Index conventions: G[a, b] is the metric with holomorphic slot a and
    antiholomorphic slot b; Ginv[b, a] is its inverse pairing antiholomorphic
    b against holomorphic a, so raising contracts Ginv[b, a]*T[...a...].
    Gamma[e, d, c] is the connection with upper index e and lower indices
    d, c.  K[e, c, a, d] = dbar_d Gamma[e, c, a] is the curvature with its
    antiholomorphic slot raised: the lowered curvature, holomorphic slots
    a, c and antiholomorphic b, d, is R[a, b, c, d] = G[e, b] K[e, c, a, d],
    and Ric = -d dbar log det G = -dbar tr Gamma is computed from the trace
    as Ric[a, d] = -dbar_d Gamma[e, e, a], summed over e before the one
    d_anti, so it equals -K[e, e, a, d] (Griffiths-Harris, ch. 0 sec. 5).
    Ginv is exact to its cap, so these hold exactly on the truncated series.

    As G = d dbar H, Gamma[e, d, c] = Gamma[e, c, d] and so K is symmetric
    under c <-> a: each class is computed once, at d <= c, resp. c <= a,
    and stored under all its keys as one ScalarSeries object, as no series
    is mutated in place.
    """

    def __init__(self, pot, cap):
        as_count(cap, "cap")
        n = pot.n
        ring = pot.ring
        rng = range(n)
        self.n = n
        self.ring = ring
        self.cap = cap
        H = pot.series(cap + 2)
        E = {(a, b): H.d_hol(a).d_anti(b) for a in rng for b in rng}
        one = ScalarSeries.one(ring, n, cap + 1)
        G = {(a, b): E[a, b].add(one) if a == b else E[a, b] for a, b in E}
        G = _Table(ScalarSeries(ring, n, cap + 1), G)
        # Neumann series sum_k (-E)^k for the inverse, on (h, h + 1): E has no
        # term below bidegree (1, 1), so its powers past E^h vanish there
        box = (cap, cap + 1)
        one, zero = ScalarSeries.one(ring, n, box), ScalarSeries(ring, n, box)
        F = _Table(zero, {k: E[k].add(zero).neg() for k in E})
        Ginv, power = _Table(zero, {(a, a): one for a in rng}), F
        for k in range(1, cap + 1):
            Ginv = _Table(zero, {i: Ginv[i].add(power[i]) for i in Ginv.keys() | power.keys()})
            if k < cap:
                power = _contract(zero, [((a, b), x, y) for e in rng for (a, _), x in power.at(1, e)
                                         for (_, b), y in F.at(0, e)])
        # dG[b, c, d] = d_b G[c, d]
        dG = _Table(zero, {(b, c, d): s.d_hol(b) for (c, d), s in G.items() for b in rng})
        Gamma = _contract(zero, [
            ((e, b, c), x, y) for d in rng for (_, e), x in Ginv.at(0, d)
            for (b, c, _), y in dG.at(2, d) if b <= c
        ], lambda e, b, c: ((e, b, c), (e, c, b)))
        # tr Gamma[a] = Gamma[e, e, a] summed over e, on the box (h, h + 1)
        trace = [reduce(ScalarSeries.add, (Gamma[e, e, a] for e in rng)) for a in rng]
        Ric = {(a, d): trace[a].d_anti(d).neg() for a in rng for d in rng}
        Ric = _Table(ScalarSeries(ring, n, cap), Ric)
        self.G, self.Ginv, self.Gamma, self.Ric = G, Ginv, Gamma, Ric
        self.S = _contract(Ric.empty, [((), Ginv[b, a], y) for (a, b), y in Ric.items()])[()]

    def restrict(self, cap) -> CurvaturePackage:
        """The package of a cap no larger: every present entry cut to that
        cap's boxes, equal to a new package there since truncated arithmetic
        is exact on boxes.  K and T are built again on first read."""
        if as_count(cap, "cap") > self.cap:
            raise ValueError(f"cannot restrict a cap-{self.cap} package to cap {cap}")
        if cap == self.cap:
            return self
        out = CurvaturePackage.__new__(CurvaturePackage)
        out.n, out.ring, out.cap = self.n, self.ring, cap
        cut = {}  # one cut per series object and box, so shared entries stay shared

        def table(t, box):
            empty = ScalarSeries(self.ring, self.n, box)
            for s in t.values():
                if (id(s), box) not in cut:
                    cut[id(s), box] = s.add(empty)
            return _Table(empty, {k: cut[id(s), box] for k, s in t.items()})

        out.G = table(self.G, cap + 1)
        out.Ginv, out.Gamma = table(self.Ginv, (cap, cap + 1)), table(self.Gamma, (cap, cap + 1))
        out.Ric, out.S = table(self.Ric, cap), self.S.add(ScalarSeries(self.ring, self.n, cap))
        return out

    @cached_property
    def K(self):
        """K[e, c, a, d] = dbar_d Gamma[e, c, a], built on first read and kept
        for the life of the package."""
        return _Table(self.Ric.empty, {
            (e, c, a, d): s.d_anti(d)
            for (e, c, a), s in self.Gamma.items() if c <= a for d in range(self.n)
        }, lambda e, c, a, d: ((e, c, a, d), (e, a, c, d)))

    def _divergence(self, Q):
        """Ginv[b, a] dbar_b Q[a] summed over a and b, the Q[a] on one box."""
        Ginv = self.Ginv
        triples = [((), g, Q[a].d_anti(b)) for a in range(self.n) for (b, _), g in Ginv.at(1, a)]
        h, a = Q[0].cap
        return _contract(Ginv.empty.add(ScalarSeries(self.ring, self.n, (h, a - 1))), triples)[()]

    def laplacian(self, f: ScalarSeries) -> ScalarSeries:
        return self._divergence([f.d_hol(a) for a in range(self.n)])

    @cached_property
    def T(self):
        """T[p, c] = Ginv[q, c] Ric[p, q], the Ricci form with its
        antiholomorphic slot raised, built on first read and kept for the life
        of the package."""
        Ginv, Ric = self.Ginv, self.Ric
        return _contract(Ric.empty, [
            ((p, c), x, y) for q in range(self.n)
            for (p, _), y in Ric.at(1, q) for (_, c), x in Ginv.at(0, q)
        ])

    def curvature_norm2(self) -> ScalarSeries:
        """|R|^2 = P[x, c, a, z] P[a, z, x, c], with P[x, c, a, z] =
        Ginv[d, z] K[x, c, a, d] the curvature with both antiholomorphic
        slots raised: at most n^5 + n^4 series products.  P keeps K's
        symmetry c <-> a and gains x <-> z from R's b <-> d, so it is built
        per class."""
        Ginv, K = self.Ginv, self.K
        P = _contract(K.empty, [
            ((x, c, a, z), g, k) for d in range(self.n)
            for (x, c, a, _), k in K.at(3, d) if c <= a for (_, z), g in Ginv.at(0, d) if x <= z
        ], lambda x, c, a, z: ((x, c, a, z), (z, c, a, x), (x, a, c, z), (z, a, c, x)))
        return _contract(P.empty, [((), y, P[a, z, x, c]) for (x, c, a, z), y in P.items()])[()]

    def ricci_norm2(self) -> ScalarSeries:
        T = self.T
        return _contract(T.empty, [((), y, T[p, a]) for (a, p), y in T.items()])[()]

    def gradient_divergence(self) -> ScalarSeries:
        """div of the weight-3 gradient current, the correction term in the
        third kernel coefficient.  48 Q_a = grad_a(|R|^2 - 4|Ric|^2 + 8 S^2)
        + 2 g^{d fbar} (del_d Y)_{a fbar} with Y = X - 4 S Ric and
        X[a, f] = K[p, c, a, f] T[p, c] the Ricci contraction of the
        curvature.  Only unmixed connection coefficients exist, so
        (del_d Y)_{a fbar} = d_d Y[a, f] - Gamma[e, d, a] Y[e, f] and the
        antiholomorphic slot takes none."""
        rng = range(self.n)
        Ginv, Gamma, K, Ric, S, T = self.Ginv, self.Gamma, self.K, self.Ric, self.S, self.T
        X = _contract(K.empty, [
            ((a, f), k, t) for (p, c), t in T.items() for (_, q, a, f), k in K.at(0, p) if q == c
        ])
        Y = _Table(K.empty, {i: X[i].sub(S.mul(Ric[i]).scale(4)) for i in X.keys() | Ric.keys()})
        F = (
            self.curvature_norm2()
            .sub(self.ricci_norm2().scale(4))
            .add(S.mul(S).scale(8))
        )
        # GY[d, a, f] = Gamma[e, d, a] Y[e, f], so delY[a, d, f] = (del_d Y)_{a fbar}
        GY = _contract(K.empty, [
            ((d, a, f), g, y)
            for e in rng for (_, d, a), g in Gamma.at(0, e) for (_, f), y in Y.at(0, e)
        ])
        keys = {(a, d, f) for a, f in Y for d in rng} | {(a, d, f) for d, a, f in GY}
        delY = {(a, d, f): Y[a, f].d_hol(d).sub(GY[d, a, f]) for a, d, f in keys}
        delY = _Table(Y.empty.d_hol(0), delY)
        covY = _contract(delY.empty, [((a,), Ginv[f, d], y) for (a, d, f), y in delY.items()])
        Q = [F.d_hol(a).add(covY[a,].scale(2)).scale(Fraction(1, 48)) for a in rng]
        return self._divergence(Q)


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

"""Curvature of a potential and the named local scalars built from it.

Everything is computed from truncated series around the center in normal
coordinates: metric, inverse metric, connection, curvature, Ricci, scalar
curvature, covariant Laplacians, norm squares, the gradient-divergence
scalar entering the third kernel coefficient, and the Todd-type curvature
polynomials.  Each named scalar fixes the series caps it needs; an extra
margin can be requested to audit truncation stability.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import factorial

from .combinat import perm_sign
from .series import ScalarSeries

__all__ = [
    "CurvaturePackage",
    "ComponentTensor",
    "curvature_package",
    "covariant_derivative",
    "named_scalar",
    "scalar_weight",
    "todd_polynomial",
    "todd_contraction",
    "todd_gammas",
    "kernel_coefficient_reference",
    "NAMED_SCALARS",
]


def _mat_mul(A, B, n):
    return [
        [_sum_series(A[a][e].mul(B[e][b]) for e in range(n)) for b in range(n)]
        for a in range(n)
    ]


def _sum_series(items):
    total = None
    for s in items:
        total = s if total is None else total.add(s)
    return total


class CurvaturePackage:
    """Metric data of one potential, as series of one common truncation order.

    Index conventions: G[a][b] is the metric with holomorphic slot a and
    antiholomorphic slot b; Ginv[b][a] is its inverse pairing antiholomorphic
    b against holomorphic a, so raising contracts Ginv[b][a]*T[...a...].
    Gamma[e][d][c] is the connection with upper index e and lower indices
    d, c; R[a][b][c][d] has holomorphic slots a, c and antiholomorphic b, d.
    """

    __slots__ = ("n", "ring", "cap", "G", "Ginv", "Gamma", "R", "Ric", "S")

    def __init__(self, pot, cap):
        n = pot.n
        ring = pot.ring
        self.n = n
        self.ring = ring
        self.cap = cap
        H = pot.series(cap + 4)
        one = ScalarSeries.one(ring, n, cap + 2)
        zero = ScalarSeries(ring, n, cap + 2)
        E = [[H.d_hol(a).d_anti(b) for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                if E[a][b].at_zero() != ring.zero:
                    raise ValueError("potential is not in normal form")
        self.G = [
            [E[a][b].add(one) if a == b else E[a][b] for b in range(n)]
            for a in range(n)
        ]
        # Neumann series for the inverse; E vanishes at the center so powers
        # gain z-order and the loop empties
        inv = [[one if a == b else zero for b in range(n)] for a in range(n)]
        power = E
        sign = -1
        for _ in range(cap + 2):
            if all(not power[a][b] for a in range(n) for b in range(n)):
                break
            term = power
            inv = [
                [
                    inv[a][b].add(term[a][b] if sign > 0 else term[a][b].neg())
                    for b in range(n)
                ]
                for a in range(n)
            ]
            power = _mat_mul(power, E, n)
            sign = -sign
        self.Ginv = inv
        self.Gamma = [
            [
                [
                    _sum_series(
                        self.Ginv[d][e].mul(self.G[c][d].d_hol(b)) for d in range(n)
                    )
                    for c in range(n)
                ]
                for b in range(n)
            ]
            for e in range(n)
        ]
        self.R = [
            [
                [
                    [
                        self.G[a][b]
                        .d_hol(c)
                        .d_anti(d)
                        .sub(
                            _sum_series(
                                self.Ginv[f][e]
                                .mul(self.G[a][f].d_hol(c))
                                .mul(self.G[e][b].d_anti(d))
                                for e in range(n)
                                for f in range(n)
                            )
                        )
                        for d in range(n)
                    ]
                    for c in range(n)
                ]
                for b in range(n)
            ]
            for a in range(n)
        ]
        self.Ric = [
            [
                _sum_series(
                    self.Ginv[d][c].mul(self.R[a][b][c][d])
                    for c in range(n)
                    for d in range(n)
                ).neg()
                for b in range(n)
            ]
            for a in range(n)
        ]
        self.S = _sum_series(
            self.Ginv[b][a].mul(self.Ric[a][b]) for a in range(n) for b in range(n)
        )

    def laplacian(self, f: ScalarSeries) -> ScalarSeries:
        n = self.n
        return _sum_series(
            self.Ginv[b][a].mul(f.d_hol(a).d_anti(b))
            for a in range(n)
            for b in range(n)
        )

    def curvature_norm2(self) -> ScalarSeries:
        n = self.n
        rng = range(n)
        W = [
            [
                [
                    [
                        _sum_series(
                            self.Ginv[p][a].mul(self.Ginv[q][c]).mul(self.R[a][b][c][d])
                            for a in rng
                            for c in rng
                        )
                        for d in rng
                    ]
                    for q in rng
                ]
                for b in rng
            ]
            for p in rng
        ]
        return _sum_series(
            W[p][b][q][d].mul(
                _sum_series(
                    self.Ginv[b][a].mul(self.Ginv[d][c]).mul(self.R[a][p][c][q])
                    for a in rng
                    for c in rng
                )
            )
            for p in rng
            for b in rng
            for q in rng
            for d in rng
        )

    def ricci_norm2(self) -> ScalarSeries:
        n = self.n
        rng = range(n)
        return _sum_series(
            self.Ric[a][b]
            .mul(self.Ginv[b][c])
            .mul(self.Ginv[d][a])
            .mul(self.Ric[c][d])
            for a in rng
            for b in rng
            for c in rng
            for d in rng
        )

    def gradient_divergence(self) -> ScalarSeries:
        """div of the weight-3 gradient current, the correction term in the
        third kernel coefficient.  48 Q_a = grad_a(|R|^2 - 4|Ric|^2 + 8 S^2)
        + 2 g^{d fbar} (del_d Y)_{a fbar} with Y = X - 4 S Ric and
        X the Ricci contraction of the curvature."""
        n = self.n
        rng = range(n)
        RU = [
            [
                _sum_series(
                    self.Ginv[b][p].mul(self.Ginv[q][c]).mul(self.Ric[p][q])
                    for p in rng
                    for q in rng
                )
                for c in rng
            ]
            for b in rng
        ]
        X = [
            [
                _sum_series(
                    self.R[a][b][c][d].mul(RU[b][c]) for b in rng for c in rng
                )
                for d in rng
            ]
            for a in rng
        ]
        SRic = [[self.S.mul(self.Ric[a][b]).scale(4) for b in rng] for a in rng]
        Y = [[X[a][b].sub(SRic[a][b]) for b in rng] for a in rng]
        F = (
            self.curvature_norm2()
            .sub(self.ricci_norm2().scale(4))
            .add(self.S.mul(self.S).scale(8))
        )
        DY = covariant_derivative(
            ComponentTensor(self, "ha", {(a, f): Y[a][f] for a in rng for f in rng}),
            "hol",
        )
        Q = []
        for a in rng:
            covY = _sum_series(
                self.Ginv[f][d].mul(DY.component((d, a, f)))
                for d in rng
                for f in rng
            )
            Q.append(F.d_hol(a).add(covY.scale(2)).scale(Fraction(1, 48)))
        return _sum_series(
            self.Ginv[b][a].mul(Q[a].d_anti(b)) for a in rng for b in rng
        )


def curvature_package(pot, cap) -> CurvaturePackage:
    return CurvaturePackage(pot, cap)


class ComponentTensor:
    """Dense componentwise tensor with lower indices only.

    slots is a string over {'h', 'a'}, one letter per index in component
    order: 'h' for a holomorphic (unbarred) index, 'a' for an
    antiholomorphic one.  components maps index tuples to series; absent
    entries read as zero.
    """

    __slots__ = ("pkg", "slots", "components")

    def __init__(self, pkg, slots, components):
        if set(slots) - {"h", "a"}:
            raise ValueError("slot letters are 'h' and 'a'")
        self.pkg = pkg
        self.slots = slots
        self.components = {
            idx: f for idx, f in components.items() if f
        }

    @classmethod
    def scalar(cls, pkg, f):
        return cls(pkg, "", {(): f})

    def component(self, idx):
        f = self.components.get(tuple(idx))
        if f is None:
            return ScalarSeries(self.pkg.ring, self.pkg.n, self.pkg.cap)
        return f


def covariant_derivative(T: ComponentTensor, kind) -> ComponentTensor:
    """One covariant derivative, prepending the new index slot.

    Only unmixed connection coefficients exist here, so a holomorphic
    derivative corrects holomorphic slots and an antiholomorphic one the
    conjugate slots, through the conjugated connection.
    """
    if kind not in ("hol", "anti"):
        raise ValueError("kind is 'hol' or 'anti'")
    pkg = T.pkg
    n = pkg.n
    out: dict = {}
    for idx in itertools.product(range(n), repeat=len(T.slots) + 1):
        d, rest = idx[0], idx[1:]
        base = T.component(rest)
        f = base.d_hol(d) if kind == "hol" else base.d_anti(d)
        for p, letter in enumerate(T.slots):
            if (letter == "h") != (kind == "hol"):
                continue
            corr = _sum_series(
                _christoffel(pkg, e, d, rest[p], kind).mul(
                    T.component(rest[:p] + (e,) + rest[p + 1 :])
                )
                for e in range(n)
            )
            f = f.sub(corr)
        if f:
            out[idx] = f
    letter = "h" if kind == "hol" else "a"
    return ComponentTensor(pkg, letter + T.slots, out)


def _christoffel(pkg, e, d, c, kind):
    gamma = pkg.Gamma[e][d][c]
    return gamma if kind == "hol" else gamma.conjugate()


def todd_gammas(jmax):
    """Coefficients of log(x / (e^x - 1)) through degree jmax, exactly."""
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


def todd_contraction(R0, n, partition, ring):
    """Alternating full contraction of curvature values along a cycle type.

    The first index pair of each factor runs along the cycles of the
    partition; the second pair is contracted through a signed sum over all
    permutations of the factors.
    """
    j = sum(partition)
    nxt = []
    start = 0
    for part in partition:
        for i in range(part):
            nxt.append(start + (i + 1) % part)
        start += part
    total = ring.zero
    for tau in itertools.permutations(range(j)):
        sign = perm_sign(tau)
        for a in itertools.product(range(n), repeat=j):
            for c in itertools.product(range(n), repeat=j):
                v = ring.one
                dead = False
                for f in range(j):
                    v = ring.mul(v, R0[a[f]][a[nxt[f]]][c[f]][c[tau[f]]])
                    if ring.is_zero(v):
                        dead = True
                        break
                if dead:
                    continue
                total = ring.add(total, v if sign > 0 else ring.neg(v))
    return total


def todd_polynomial(pot, j, extra=0):
    """Degree-j Todd curvature polynomial of the potential, at the center."""
    from .chern import partitions_of

    pkg = curvature_package(pot, extra)
    n = pot.n
    ring = pot.ring
    R0 = [
        [
            [[pkg.R[a][b][c][d].at_zero() for d in range(n)] for c in range(n)]
            for b in range(n)
        ]
        for a in range(n)
    ]
    gam = todd_gammas(j)
    total = ring.zero
    for partition in partitions_of(j):
        coeff = Fraction(1)
        counts: dict = {}
        for part in partition:
            counts[part] = counts.get(part, 0) + 1
        for m, r in counts.items():
            coeff *= gam[m] ** r / factorial(r)
        if not coeff:
            continue
        contr = todd_contraction(R0, n, partition, ring)
        total = ring.add(total, ring.scale(contr, coeff))
    return total


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
    m = re.fullmatch(r"P(\d+)", name)
    if m:
        return todd_polynomial(pot, int(m.group(1)), extra)
    raise ValueError(f"unknown scalar {name!r}")


def kernel_coefficient_reference(pot, j, extra=0):
    """Closed-form value of the j-th kernel coefficient at the center.

    Known through j = 3: 1, S/2, P2 + lap S / 3, and P3 + div_Q +
    lap^2 S / 8.
    """
    ring = pot.ring
    if j == 0:
        return ring.one
    if j == 1:
        return ring.scale(named_scalar(pot, "S", extra), Fraction(1, 2))
    if j == 2:
        return ring.add(
            named_scalar(pot, "P2", extra),
            ring.scale(named_scalar(pot, "lap_S", extra), Fraction(1, 3)),
        )
    if j == 3:
        return ring.add(
            ring.add(
                named_scalar(pot, "P3", extra), named_scalar(pot, "div_Q", extra)
            ),
            ring.scale(named_scalar(pot, "lap2_S", extra), Fraction(1, 8)),
        )
    raise ValueError("closed forms are implemented through j = 3")

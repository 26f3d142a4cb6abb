"""Potential jets, curvature series, and the named curvature scalars."""

import itertools
import random
import re
from fractions import Fraction
from math import factorial

import pytest

from invar import geometry
from invar.bergman import bergman_coefficients
from invar.chern import chern_invariant, partitions_of
from invar.combinat import cycle_successor, perm_sign
from invar.geometry import (
    CurvaturePackage,
    curvature_package,
    evaluate,
    kernel_coefficient_reference,
    named_scalar,
    scalar_weight,
    todd_gammas,
    todd_polynomial,
)
from invar.invariants import monomial_invariant, zero_invariant
from invar.jets import (
    Potential,
    fubini_study_jets,
    jet_keys_up_to_grade,
    random_hermitian_jets,
)
from invar.monomials import PHI, PSI, ContractionMonomial
from invar.rationals import GaussRat
from invar.rings import GaussRing, GradedRing
from invar.series import ScalarSeries
from invar.solver import enumerate_monomials


def fs_potential(n, order=8):
    return Potential.numeric(n, fubini_study_jets(n, order))


def random_potential(n, seed, weight_cap=3):
    return Potential.numeric(n, random_hermitian_jets(n, weight_cap, random.Random(seed)))


def test_fubini_study_jet_values():
    jets = fubini_study_jets(1, 6)
    assert jets[((2,), (2,))] == GaussRat(Fraction(-1, 2))
    assert jets[((3,), (3,))] == GaussRat(Fraction(1, 3))
    jets2 = fubini_study_jets(2, 4)
    assert jets2[((1, 1), (1, 1))] == GaussRat(-1)
    assert jets2[((2, 0), (2, 0))] == GaussRat(Fraction(-1, 2))


def test_jet_validation():
    with pytest.raises(ValueError):
        Potential.numeric(0, {})
    with pytest.raises(ValueError):
        Potential.numeric(1, {((1,), (2,)): 1})
    with pytest.raises(ValueError):
        Potential.numeric(1, {((2,), (-2,)): 1})
    with pytest.raises(ValueError):
        Potential.numeric(2, {((2,), (2,)): 1})


def test_hermiticity_check():
    """Both numeric constructors refuse jets that are not a real potential's,
    before the graded cap could drop them, with from_json_dict's message."""
    fs_potential(2)
    random_potential(2, seed=1)
    balanced = {((2,), (3,)): GaussRat(1, 2), ((3,), (2,)): GaussRat(1, -2)}
    assert Potential.numeric(1, balanced).jets == balanced
    assert Potential.graded_numeric(1, balanced, 1).jets == {}
    lopsided = {((2,), (3,)): 1}
    complex_diagonal = {((2,), (2,)): GaussRat(1, 1)}
    for raw, message in (
        (lopsided, "not real: jet alpha=[2], beta=[3] is 1, so alpha=[3], beta=[2] must be 1"),
        (complex_diagonal, "not real: jet alpha=[2], beta=[2] is 1+1i, so alpha=[2], beta=[2] must be 1-1i"),
        ({**balanced, ((3,), (2,)): GaussRat(1, 2)}, "not real: jet alpha=[2], beta=[3] is 1+2i"),
    ):
        for build in (
            lambda: Potential.numeric(1, raw),
            lambda: Potential.graded_numeric(1, raw, 2),
            lambda: Potential.graded_numeric(1, raw, 0),
        ):
            with pytest.raises(ValueError, match=rf"^{re.escape(message)}"):
                build()


def test_max_order_and_key_enumeration():
    keys = jet_keys_up_to_grade(1, 4)
    assert ((2,), (2,)) in keys
    assert all(sum(a) >= 2 and sum(b) >= 2 for a, b in keys)
    assert all(sum(a) + sum(b) <= 6 for a, b in keys)


def test_a_random_potential_at_weight_cap_zero_is_flat():
    # no normal-form jet has doubled weight <= 0, so nothing is drawn
    rng = random.Random(4)
    state = rng.getstate()
    for n in (1, 2, 3):
        assert jet_keys_up_to_grade(n, 0) == []
        assert random_hermitian_jets(n, 0, rng) == {}
    assert rng.getstate() == state


def test_normal_form_enforced_by_package():
    linear_term = Potential.numeric  # jets below order 2 are already rejected
    with pytest.raises(ValueError):
        linear_term(1, {((1,), (1,)): 1})


def test_fubini_study_scalar_curvature():
    for n in (1, 2, 3):
        assert named_scalar(fs_potential(n), "S") == GaussRat(n * (n + 1))


def test_fubini_study_curvature_tensor_at_center():
    # G = 1 at the center, so there R[a][b][c][d] = K[b, c, a, d]
    pkg = curvature_package(fs_potential(2), 0)
    delta = lambda i, j: 1 if i == j else 0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    want = -(delta(a, b) * delta(c, d) + delta(a, d) * delta(c, b))
                    assert pkg.K[b, c, a, d].at_zero() == GaussRat(want)


def test_center_normalization():
    pkg = curvature_package(random_potential(2, seed=3), 2)
    n = pkg.n
    for a in range(n):
        for b in range(n):
            assert pkg.G[a, b].at_zero() == (pkg.ring.one if a == b else pkg.ring.zero)
            for c in range(n):
                assert pkg.Gamma[a, b, c].at_zero() == pkg.ring.zero


def test_metric_inverse_is_exact_to_cap():
    pkg = curvature_package(random_potential(2, seed=4), 2)
    n = pkg.n
    one = ScalarSeries.one(pkg.ring, n, pkg.cap)
    for a in range(n):
        for b in range(n):
            prod = ScalarSeries(pkg.ring, n, pkg.cap)
            for k in range(n):
                prod = prod.add(pkg.Ginv[a, k].mul(pkg.G[k, b]))
            target = one if a == b else ScalarSeries(pkg.ring, n, pkg.cap)
            assert not prod.sub(target)


def test_curvature_center_symmetries_and_reality():
    pkg = curvature_package(random_potential(2, seed=5), 0)
    n = pkg.n
    R0 = [
        [
            [[pkg.K[b, c, a, d].at_zero() for d in range(n)] for c in range(n)]
            for b in range(n)
        ]
        for a in range(n)
    ]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    assert R0[a][b][c][d] == R0[c][b][a][d]
                    assert R0[a][b][c][d] == R0[a][d][c][b]
                    assert R0[a][b][c][d].conjugate() == R0[b][a][d][c]


def series_log(s):
    """log(s) for a series with constant term one, s - 1 of bidegree at
    least (1, 1): the alternating sum of the powers of s - 1, the k-th of
    bidegree at least (k, k), so the box (h, a) empties it past min(h, a)."""
    ring, n, cap = s.ring, s.n, s.cap
    assert s.at_zero() == ring.one
    x = s.sub(ScalarSeries.one(ring, n, cap))
    out = ScalarSeries(ring, n, cap)
    power = ScalarSeries.one(ring, n, cap)
    for k in range(1, min(cap) + 1):
        power = power.mul(x)
        if not power:
            break
        out = out.add(power.scale(Fraction((-1) ** (k - 1), k)))
    return out


def test_ricci_from_log_determinant_in_one_dimension():
    pot = random_potential(1, seed=6)
    pkg = curvature_package(pot, 3)
    lhs = pkg.Ric[0, 0]
    rhs = series_log(pkg.G[0, 0]).d_hol(0).d_anti(0).neg()
    assert not lhs.sub(rhs)


def test_lap4_reads_a_package_with_no_term_outside_its_box(monkeypatch):
    """lap^4 S takes four d and four dbar, so it reads the package of cap 4:
    S on the box (4, 4), which keeps z^alpha zbar^beta of total order 8 at
    |alpha| = |beta| = 4 and nothing of |alpha| or |beta| above 4."""
    import invar.geometry as geometry

    built = []

    def record(pot, cap):
        built.append(CurvaturePackage(pot, cap))
        return built[-1]

    monkeypatch.setattr(geometry, "curvature_package", record)
    pot = Potential.numeric(2, rich_jets(2, 25))
    named_scalar(pot, "lap4_S")
    (pkg,) = built
    assert pkg.G[0, 1].cap == (5, 5)
    assert pkg.Ginv[1, 0].cap == pkg.Gamma[0, 0, 1].cap == (4, 5)
    assert pkg.K[0, 0, 1, 1].cap == pkg.Ric[0, 1].cap == pkg.S.cap == (4, 4)
    orders = [(sum(alpha), sum(beta)) for alpha, beta in pkg.S.terms]
    assert all(h <= 4 and a <= 4 for h, a in orders)
    assert max(h + a for h, a in orders) == 8


def read_with_margin(pot, name, margin):
    """named_scalar read on a new package margin orders above the scalar's
    own cap."""
    return geometry._read(pot, name, lambda cap: geometry.curvature_package(pot, cap + margin))


def reference_with_margin(pot, j, margin):
    """kernel_coefficient_reference read margin orders wider: one package of
    cap j - 1 + margin, restricted to each scalar's own cap plus the margin.
    restrict refuses a larger cap, so this also checks that no scalar of a_j
    reads above cap j - 1."""
    top = geometry.curvature_package(pot, j - 1 + margin)
    ring, total = pot.ring, pot.ring.zero
    for coeff, name in geometry._KERNEL_CLOSED_FORMS[j]:
        value = geometry._read(pot, name, lambda cap: top.restrict(cap + margin))
        total = ring.add(total, ring.scale(value, coeff))
    return total


def test_the_kernel_reference_builds_one_package(monkeypatch):
    """a_3 reads div_Q and lap^2 S on one package of cap 2, div_Q on its
    restriction to cap 1; two orders wider, on one package of cap 4."""
    built = []

    def record(pot, cap):
        built.append(cap)
        return CurvaturePackage(pot, cap)

    monkeypatch.setattr(geometry, "curvature_package", record)
    pot = Potential.numeric(2, rich_jets(2, 8))
    value = kernel_coefficient_reference(pot, 3)
    assert built == [2]
    assert reference_with_margin(pot, 3, 2) == value
    assert built == [2, 4]


def test_lap2_S_builds_no_curvature_tensor(monkeypatch):
    """lap^k S reads no K, so its only d_anti are the n^2 of E, of Ric and
    of each Laplacian; K would add n^3 (n + 1) / 2 more."""
    pot = Potential.numeric(2, rich_jets(2, 8))
    calls = []
    d_anti = ScalarSeries.d_anti
    monkeypatch.setattr(
        ScalarSeries, "d_anti", lambda self, b: calls.append(b) or d_anti(self, b)
    )
    assert named_scalar(pot, "lap2_S") == GaussRat(105219)
    assert len(calls) == 4 * pot.n**2


def _restriction_potential(kind, n):
    """Weight 3 draws, except the symbolic n = 3 potentials at weight 2 (the
    full one takes 10 s to package at weight 3)."""
    jets = rich_jets(n, 30 + n)
    if kind == "gauss":
        return Potential.numeric(n, jets)
    if kind == "graded":
        return Potential.graded_numeric(n, jets, 3)
    return Potential.symbolic(n, 3 if n < 3 else 2, linear=kind == "linear")


def _entries(pkg, name):
    """Every entry of a table, index tuple by index tuple, absent ones
    included; S as its one entry."""
    table = getattr(pkg, name)
    if name == "S":
        return [table]
    rank = {"Gamma": 3, "K": 4}.get(name, 2)
    return [table[idx] for idx in itertools.product(range(pkg.n), repeat=rank)]


@pytest.mark.parametrize("kind", ["gauss", "graded", "linear", "symbolic"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_restricted_package_equals_a_new_one_at_its_cap(kind, n):
    """Truncated arithmetic is exact on boxes, so every table of a package
    cut to a smaller cap has the terms and boxes of a new package there."""
    pot = _restriction_potential(kind, n)
    fresh = [curvature_package(pot, h) for h in range(4)]
    for big in (1, 2, 3):
        assert fresh[big].restrict(big) is fresh[big]
        for h in range(big):
            cut = fresh[big].restrict(h)
            assert cut.cap == h
            for name in ("G", "Ginv", "Gamma", "K", "Ric", "S"):
                got, want = _entries(cut, name), _entries(fresh[h], name)
                assert [(s.cap, s.terms) for s in got] == [(s.cap, s.terms) for s in want]


def test_a_package_is_not_restricted_to_a_larger_cap():
    pkg = curvature_package(fs_potential(1), 1)
    with pytest.raises(ValueError, match=r"^cannot restrict a cap-1 package to cap 2$"):
        pkg.restrict(2)
    with pytest.raises(ValueError, match=r"^cap must be"):
        pkg.restrict(-1)


def one_package_per_scalar_reference(pot, j, margin):
    """a_1 .. a_3 from their closed forms, each scalar read on a new package
    of its own cap + margin."""
    forms = {
        1: ((Fraction(1, 2), "S"),),
        2: ((Fraction(1), "P2"), (Fraction(1, 3), "lap_S")),
        3: ((Fraction(1), "P3"), (Fraction(1), "div_Q"), (Fraction(1, 8), "lap2_S")),
    }
    ring, total = pot.ring, pot.ring.zero
    for coeff, name in forms[j]:
        total = ring.add(total, ring.scale(read_with_margin(pot, name, margin), coeff))
    return total


@pytest.mark.parametrize(
    "make, margins",
    [
        (lambda: Potential.numeric(2, rich_jets(2, 8)), (0, 2)),
        (lambda: Potential.graded_numeric(3, rich_jets(3, 9), 3), (0, 2)),
        (lambda: Potential.symbolic(1, 3), (0, 2)),
        (lambda: Potential.symbolic(2, 3, linear=True), (0, 2)),
        (lambda: Potential.symbolic(2, 3), (0,)),
    ],
    ids=["gauss-n2", "graded-n3", "symbolic-n1", "linear-n2", "symbolic-n2"],
)
def test_the_one_package_reference_matches_one_package_per_scalar(make, margins):
    pot = make()
    for margin in margins:
        for j in (1, 2, 3):
            want = one_package_per_scalar_reference(pot, j, margin)
            if margin:
                got = reference_with_margin(pot, j, margin)
            else:
                got = kernel_coefficient_reference(pot, j)
            assert got == want, (j, margin)


def test_laplacian_flat_limit():
    pot = Potential.numeric(1, {})
    pkg = curvature_package(pot, 4)
    f = ScalarSeries(pkg.ring, 1, 4, {((2,), (2,)): GaussRat(3)})
    assert pkg.laplacian(f) == f.d_hol(0).d_anti(0)


def test_a_derivative_of_an_exhausted_side_is_refused():
    """A side of the box already at 0 has lost the terms a derivative needs,
    so d_hol and d_anti refuse it rather than read zero."""
    ring = GaussRing()
    z = {((1,), (0,)): GaussRat(1)}
    with pytest.raises(ValueError, match=r"^d_hol past the holomorphic order of .* \(0, 1\)$"):
        ScalarSeries(ring, 1, (0, 1), z).d_hol(0)
    assert ScalarSeries(ring, 1, (1, 1), z).d_hol(0).at_zero() == GaussRat(1)
    with pytest.raises(ValueError, match=r"^d_anti past the antiholomorphic .* \(1, 0\)$"):
        ScalarSeries(ring, 1, (1, 0)).d_anti(0)
    # div Q takes one d and one dbar of curvature series: a cap-0 package
    # cannot give it
    pot = Potential.numeric(1, dense_jets(1, 70, hermitian=True))
    assert named_scalar(pot, "div_Q") == GaussRat(-165)
    with pytest.raises(ValueError, match=r"box \(0, 0\)$"):
        curvature_package(pot, 0).gradient_divergence()
    # a cap-1 package holds lap S exactly, but not lap^2 S
    pot = Potential.numeric(2, rich_jets(2, 8))
    assert named_scalar(pot, "lap2_S") == GaussRat(105219)
    pkg = curvature_package(pot, 1)
    lap_s = pkg.laplacian(pkg.S)
    with pytest.raises(ValueError, match=r"box \(0, 0\)$"):
        pkg.laplacian(lap_s)


def test_named_scalars_real_on_hermitian_input():
    pot = random_potential(2, seed=7)
    for name in ("S", "lap_S", "lap2_S", "abs_R2", "abs_Ric2", "P1", "P2", "P3", "div_Q"):
        v = named_scalar(pot, name)
        assert v.im == 0, name


def rich_jets(n, seed):
    """Most (2,2) jets, which every scalar at the center reads, plus a sparse
    draw up to weight 3 for the derivatives."""
    rng = random.Random(seed)
    return {**random_hermitian_jets(n, 1, rng), **random_hermitian_jets(n, 3, rng)}


def test_named_scalar_truncation_stability():
    """Every scalar the first three kernel coefficients read, at its own
    caps and with two more orders of margin; each is nonzero here, except
    P3 at n = 2."""
    for pot in (
        Potential.numeric(2, rich_jets(2, 8)),
        Potential.graded_numeric(3, rich_jets(3, 9), 3),
    ):
        for name in ("S", "lap_S", "lap2_S", "abs_R2", "abs_Ric2", "P2", "P3", "div_Q"):
            value = named_scalar(pot, name)
            assert value or name == f"P{pot.n + 1}", (pot.n, name)
            assert value == read_with_margin(pot, name, 2), (pot.n, name)
    for n in (1, 2):
        for j in (1, 2):
            pot = Potential.symbolic(n, j)
            want = kernel_coefficient_reference(pot, j)
            assert reference_with_margin(pot, j, 2) == want, (n, j)


def test_first_todd_polynomial_is_half_curvature():
    for seed in (9, 10):
        pot = random_potential(2, seed=seed)
        assert named_scalar(pot, "P1") == named_scalar(pot, "S") * GaussRat(
            Fraction(1, 2)
        )


def test_fubini_study_second_todd_polynomial():
    assert named_scalar(fs_potential(2), "P2") == GaussRat(2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fubini_study_todd_polynomials_are_elementary_symmetric(n):
    """On P^n the Todd polynomials at the center are e_j(1..n), from
    dim H^0(P^n, O(k)) = C(k + n, n); summed over grades, for every j <= n."""
    want = {1: [1], 2: [3, 2], 3: [6, 11, 6], 4: [10, 35, 50, 24]}[n]
    pot = Potential.graded_numeric(n, fubini_study_jets(n, 2 * n + 2), n)
    for j, e_j in enumerate(want, start=1):
        total = GaussRat(0)
        for part in todd_polynomial(pot, j).values():
            total = total + part
        assert total == GaussRat(e_j), j


def todd_contraction(R0, n, partition, ring):
    """Reference: alternating full contraction of curvature values along a
    cycle type.  The first index pair of each factor runs along the cycles
    of the partition; the second pair is contracted through a signed sum
    over all permutations of the factors."""
    j = sum(partition)
    nxt = cycle_successor(partition)
    total = ring.zero
    for tau in itertools.permutations(range(j)):
        sign = perm_sign(tau)
        for a in itertools.product(range(n), repeat=j):
            for c in itertools.product(range(n), repeat=j):
                v = ring.one
                dead = False
                for f in range(j):
                    v = ring.mul(v, R0[a[f]][a[nxt[f]]][c[f]][c[tau[f]]])
                    if not v:
                        dead = True
                        break
                if dead:
                    continue
                total = ring.add(total, v if sign > 0 else ring.scale(v, -1))
    return total


def reference_todd_polynomial(pot, j):
    """P_j as the Todd-weighted sum of todd_contraction over partitions, on
    the curvature at the center, R[a][b][c][d] = K[b, c, a, d] as G = 1."""
    pkg = curvature_package(pot, 0)
    n, ring = pot.n, pot.ring
    rng = range(n)
    R0 = [
        [[[pkg.K[b, c, a, d].at_zero() for d in rng] for c in rng] for b in rng]
        for a in rng
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


def _dense_graded(n, seed, jmax):
    # random_hermitian_jets at weight 1 draws most (2,2) jets, the only ones
    # the curvature at the center reads
    jets = random_hermitian_jets(n, 1, random.Random(seed))
    return Potential.graded_numeric(n, jets, jmax)


@pytest.mark.parametrize(
    "pot, jmax",
    [(_dense_graded(n, seed, 4), 4) for n in (1, 2) for seed in (30, 31)]
    + [(_dense_graded(3, 32, 3), 3)]
    + [(fs_potential(n), 4) for n in (1, 2)]
    + [(fs_potential(3), 3)]
    + [(Potential.symbolic(n, 3), 3) for n in (1, 2)],
    ids=[
        "graded-1-30",
        "graded-1-31",
        "graded-2-30",
        "graded-2-31",
        "graded-3-32",
        "fubini-study-1",
        "fubini-study-2",
        "fubini-study-3",
        "symbolic-1",
        "symbolic-2",
    ],
)
def test_todd_polynomial_matches_the_signed_permutation_contraction(pot, jmax):
    """P_j read from chern_invariant agrees with the signed sum over
    permutations; it vanishes for j > n, and is nonzero at j <= n here.
    Which end of an edge is holomorphic cannot show in P_j: every
    chern_invariant(p) equals its conjugate."""
    for j in range(jmax + 1):
        got = todd_polynomial(pot, j)
        assert got == reference_todd_polynomial(pot, j), j
        if j <= pot.n:
            assert got, j


def todd_invariant(j):
    """The phi-invariant sum over partitions p of j of the Todd weights times
    chern_invariant(p)."""
    gam = todd_gammas(j)
    todd = zero_invariant()
    for partition in partitions_of(j):
        coeff = Fraction(1)
        for m in set(partition):
            r = partition.count(m)
            coeff *= gam[m] ** r / factorial(r)
        if coeff:
            todd = todd + coeff * chern_invariant(partition)
    return todd


def full_contraction_todd(pot, j):
    """Reference: P_j as todd_polynomial reads it for j <= n, the Todd sum of
    chern_invariant(p) evaluated on the jets, with no shortcut for j > n."""
    return evaluate(todd_invariant(j), pot)


@pytest.mark.parametrize(
    "pot",
    [random_potential(n, seed=40 + n) for n in (1, 2)]
    + [Potential.symbolic(n, n + 2) for n in (1, 2)],
    ids=["numeric-1", "numeric-2", "symbolic-1", "symbolic-2"],
)
def test_todd_polynomial_above_the_dimension_is_the_zero_of_the_ring(pot):
    """For j > n, todd_polynomial returns the ring's zero without the
    contraction, and the full contraction agrees."""
    for j in (pot.n + 1, pot.n + 2):
        got = todd_polynomial(pot, j)
        assert got == pot.ring.zero, j
        assert got == full_contraction_todd(pot, j), j


def test_todd_polynomial_builds_P_j_once(monkeypatch):
    """P_j depends on no potential: a second potential only evaluates it,
    on the memoized invariant, which equals the Todd sum built afresh."""
    calls = []
    original = geometry.chern_invariant

    def counted(p):
        calls.append(p)
        return original(p)

    monkeypatch.setattr(geometry, "chern_invariant", counted)
    # raising=False: without the memo, the call counts below are what fails
    monkeypatch.setattr(geometry, "_TODD_MEMO", {}, raising=False)
    first, second = fs_potential(3), random_potential(3, seed=7)
    for j in (2, 3):
        before = len(calls)
        todd_polynomial(first, j)
        built = len(calls)
        assert built > before, j
        assert todd_polynomial(second, j) == full_contraction_todd(second, j)
        assert len(calls) == built, j
    assert geometry._TODD_MEMO == {j: todd_invariant(j) for j in (2, 3)}


def test_a_todd_polynomial_above_the_chern_limit_is_refused(monkeypatch):
    # P7 sums chern_invariant over the partitions of 7, which it refuses
    monkeypatch.setattr(geometry, "_TODD_MEMO", {})
    with pytest.raises(ValueError, match=r"^degree 7 is above the limit 6$"):
        named_scalar(fs_potential(7, order=4), "P7")
    assert geometry._TODD_MEMO == {}


def brute_force_center_value(mono, pot):
    """Reference for evaluate: the sum over every tuple of edge indices of
    the product over factors of d^alpha dbar^beta phi(0), phi = |z|^2 + H,
    read off the jet series by repeated differentiation, plus delta on a
    (1,1) factor."""
    n, ring = pot.n, pot.ring
    rng = range(mono.sigma)
    edges = [(i, k) for i in rng for k in rng for _ in range(mono.edges[i][k])]
    H = pot.series(max((sum(a) + sum(b) for a, b in pot.jets), default=0))
    derivative = {}
    total = ring.zero
    for idx in itertools.product(range(n), repeat=len(edges)):
        v = ring.one
        for f in rng:
            hol = tuple(sorted(idx[e] for e, (i, _) in enumerate(edges) if i == f))
            anti = tuple(sorted(idx[e] for e, (_, k) in enumerate(edges) if k == f))
            if (hol, anti) not in derivative:
                d = H
                for a in hol:
                    d = d.d_hol(a)
                for b in anti:
                    d = d.d_anti(b)
                x = d.at_zero()
                if len(hol) == len(anti) == 1 and hol == anti:
                    x = ring.add(x, ring.one)
                derivative[hol, anti] = x
            v = ring.mul(v, derivative[hol, anti])
        total = ring.add(total, v)
    return total


def dense_jets(n, seed, hermitian):
    """Every normal-form jet through total order 10, with seeded values;
    without hermitian, transposed jets carry unrelated values."""
    rng = random.Random(seed)
    draw = lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    jets = {}
    for a, b in jet_keys_up_to_grade(n, 8):
        if not hermitian:
            jets[a, b] = GaussRat(draw(), draw())
        elif (b, a) in jets:
            jets[a, b] = jets[b, a].conjugate()
        else:
            jets[a, b] = GaussRat(draw(), draw() if a != b else 0)
    return jets


@pytest.mark.parametrize(
    "w, sigma, restriction",
    [(3, 1, None), (4, 1, None), (5, 1, None), (4, 2, None), (5, 2, None)]
    + [(6, 2, None), (6, 3, None), (7, 3, None), (4, 2, [(1, 1), (1, 1)])],
    ids=["3-1", "4-1", "5-1", "4-2", "5-2", "6-2", "6-3", "7-3", "4-2-restricted"],
)
def test_evaluate_matches_the_sum_over_edge_indices(w, sigma, restriction):
    """evaluate against the plain sum over index tuples, on every monomial of
    a block; the non-Hermitian potential shows which end of an edge is
    holomorphic, and the (1,1) restriction lets the flat part delta in."""
    pots = [
        Potential.numeric(1, dense_jets(1, 70, hermitian=True)),
        # the numeric constructors refuse it, so build it directly
        Potential(2, GaussRing(), dense_jets(2, 71, hermitian=False)),
    ]
    for mono in enumerate_monomials(w, sigma, restriction):
        for pot in pots:
            got = evaluate(monomial_invariant(mono), pot)
            assert got == brute_force_center_value(mono, pot), (mono, pot.n)


def scalar(edges):
    return monomial_invariant(ContractionMonomial(PHI, edges))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_center_identities_tie_the_jets_to_the_curvature_package(n):
    """S, |R|^2 and |Ric|^2 at the center are full contractions of the jets;
    with (2,2) jets only, lap S = |R|^2 + 2 |Ric|^2 there."""
    norm_R, norm_Ric = scalar([[0, 2], [2, 0]]), scalar([[1, 1], [1, 1]])
    pot = Potential.numeric(n, rich_jets(n, 50 + n))
    assert named_scalar(pot, "S") == -evaluate(scalar([[2]]), pot) != 0
    assert named_scalar(pot, "abs_R2") == evaluate(norm_R, pot) != 0
    assert named_scalar(pot, "abs_Ric2") == evaluate(norm_Ric, pot) != 0
    flat = Potential.numeric(n, random_hermitian_jets(n, 1, random.Random(60 + n)))
    assert named_scalar(flat, "lap_S") == evaluate(norm_R + 2 * norm_Ric, flat) != 0


def test_todd_polynomial_builds_no_curvature_package(monkeypatch):
    """P_j is read from the jets alone, on every ring."""
    symbolic = Potential.symbolic(2, 2)
    want = reference_todd_polynomial(symbolic, 2)

    def refuse(self, pot, cap):
        raise AssertionError("P_j built a curvature package")

    monkeypatch.setattr(CurvaturePackage, "__init__", refuse)
    for n, values in {1: [1], 2: [3, 2], 3: [6, 11, 6], 4: [10, 35, 50, 24]}.items():
        pot = Potential.graded_numeric(n, fubini_study_jets(n, 2 * n + 2), n)
        for j, e_j in enumerate(values, start=1):
            assert sum(todd_polynomial(pot, j).values(), GaussRat(0)) == e_j, (n, j)
    assert todd_polynomial(symbolic, 2) == want


def test_evaluate_refuses_all_but_scalar_phi_invariants():
    psi = monomial_invariant(ContractionMonomial(PSI, [[2]]))
    vector = monomial_invariant(ContractionMonomial(PHI, [[2]], [1], [0]))
    for inv in (psi, vector):
        with pytest.raises(ValueError, match="scalar phi-invariant"):
            evaluate(inv, fs_potential(1))


def test_todd_gamma_values():
    g = todd_gammas(4)
    assert g[1] == Fraction(-1, 2)
    assert g[2] == Fraction(-1, 24)
    assert g[3] == 0
    assert g[4] == Fraction(1, 2880)


def reference_todd_gammas(jmax):
    """log(x / (e^x - 1)) through degree jmax by composing the series
    log(1 + u) with u = (e^x - 1)/x - 1, kept to check the Bernoulli form."""
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


def test_todd_gammas_match_the_series_logarithm():
    for j in range(25):
        assert todd_gammas(j) == reference_todd_gammas(j), j


def test_evaluate_reads_each_signature_once(monkeypatch):
    calls = []
    derivatives = geometry._derivatives

    def counted(pot, A, B):
        calls.append((A, B))
        return derivatives(pot, A, B)

    monkeypatch.setattr(geometry, "_derivatives", counted)
    pot = Potential.graded_numeric(3, fubini_study_jets(3, 8), 3)
    todd_polynomial(pot, 3)
    assert calls == [(2, 2)]


def test_scalar_weights():
    weights = {
        "S": 1,
        "lap_S": 2,
        "lap2_S": 3,
        "lap3_S": 4,
        "lap4_S": 5,
        "abs_R2": 2,
        "abs_Ric2": 2,
        "P1": 1,
        "P2": 2,
        "P3": 3,
        "div_Q": 3,
    }
    for name, weight in weights.items():
        assert scalar_weight(name) == weight
    with pytest.raises(ValueError):
        scalar_weight("curvature")
    with pytest.raises(ValueError):
        named_scalar(fs_potential(1), "curvature")
    assert [scalar_weight(f"lap{k}_S") for k in (5, 9, 10, 12)] == [6, 10, 11, 13]
    assert scalar_weight("P0") == 0 and scalar_weight("P10") == 10


@pytest.mark.parametrize(
    "alias", ["lap0_S", "lap00_S", "lap1_S", "lap01_S", "lap02_S", "P00", "P01", "P007"]
)
def test_every_named_scalar_has_one_spelling(alias):
    """A count with a leading zero, lap0_S for S and lap1_S for lap_S are
    refused, naming the scalar."""
    with pytest.raises(ValueError, match=alias):
        scalar_weight(alias)
    with pytest.raises(ValueError, match=alias):
        named_scalar(fs_potential(1), alias)


def test_kernel_coefficient_reference_values():
    pot = fs_potential(1)
    assert kernel_coefficient_reference(pot, 0) == GaussRat(1)
    assert kernel_coefficient_reference(pot, 1) == GaussRat(1)
    with pytest.raises(ValueError):
        kernel_coefficient_reference(pot, 4)


def test_graded_scalar_sums_to_numeric_value():
    jets = random_hermitian_jets(2, 3, random.Random(12))
    plain = named_scalar(Potential.numeric(2, jets), "lap_S")
    graded = named_scalar(Potential.graded_numeric(2, jets, 3), "lap_S")
    total = GaussRat(0)
    for part in graded.values():
        total = total + part
    assert total == plain


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda: curvature_package(fs_potential(1), -1), "cap"),
        (lambda: curvature_package(fs_potential(1), 1.0), "cap"),
        (lambda: Potential.graded_numeric(1, {}, 2.5), "weight_cap"),
        (lambda: Potential.graded_numeric(1, {}, -1), "weight_cap"),
        (lambda: Potential.symbolic(1, -1), "weight_cap"),
        (lambda: Potential.symbolic(1, True), "weight_cap"),
        (lambda: bergman_coefficients(Potential.symbolic(1, 1), -1), "jmax"),
        (lambda: bergman_coefficients(Potential.symbolic(1, 1), 1.0), "jmax"),
        (lambda: todd_gammas(-1), "jmax"),
        (lambda: todd_polynomial(fs_potential(1), -1), "j"),
        (lambda: kernel_coefficient_reference(fs_potential(1), -1), "j"),
        (lambda: kernel_coefficient_reference(fs_potential(1), True), "j"),
    ],
    ids=[
        "package-cap-negative",
        "package-cap-float",
        "graded-weight-cap-fraction",
        "graded-weight-cap-negative",
        "symbolic-weight-cap-negative",
        "symbolic-weight-cap-bool",
        "bergman-jmax-negative",
        "bergman-jmax-float",
        "todd-gammas-negative",
        "todd-polynomial-negative",
        "reference-j-negative",
        "reference-j-bool",
    ],
)
def test_kernel_caps_are_non_negative_integers(call, field):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Potential.symbolic(1.5, 1), "n must be an integer"),
        (lambda: Potential.symbolic(0, 1), "need at least one complex dimension"),
        (lambda: fubini_study_jets(1.5, 8), "n must be an integer"),
        (lambda: fubini_study_jets(0, 8), "need at least one complex dimension"),
        (lambda: fubini_study_jets(1, 8.0), "max_order must be an integer"),
        (lambda: jet_keys_up_to_grade(2, 2.5), "grade_cap must be an integer"),
        (lambda: random_hermitian_jets(1.5, 2, random.Random(0)), "n must be an integer"),
        (
            lambda: random_hermitian_jets(1, 2.5, random.Random(0)),
            "weight_cap must be an integer",
        ),
    ],
    ids=[
        "symbolic-n-float",
        "symbolic-n-zero",
        "fubini-study-n-float",
        "fubini-study-n-zero",
        "fubini-study-order-float",
        "jet-keys-grade-float",
        "random-n-float",
        "random-weight-cap-float",
    ],
)
def test_jet_constructors_refuse_a_bad_dimension_or_order(call, message):
    with pytest.raises(ValueError, match=rf"^{message}"):
        call()


def test_potential_json_round_trip():
    doc = {
        "n": 2,
        "jets": [
            {"alpha": [1, 1], "beta": [2, 0], "re": "1/2", "im": "-3"},
            {"alpha": [2, 0], "beta": [1, 1], "re": "1/2", "im": "3"},
            {"alpha": [0, 2], "beta": [0, 2], "re": "-2"},
        ],
    }
    pot = Potential.from_json_dict(doc)
    assert pot.n == 2
    assert pot.jets == {
        ((1, 1), (2, 0)): GaussRat(Fraction(1, 2), -3),
        ((2, 0), (1, 1)): GaussRat(Fraction(1, 2), 3),
        ((0, 2), (0, 2)): GaussRat(-2),
    }


def _total(items):
    items = iter(items)
    out = next(items)
    for s in items:
        out = out.add(s)
    return out


def _textbook_curvature(G, Ginv, rng):
    """R[a, b, c, d] = d_c dbar_d G[a, b] - Ginv[f, e] d_c G[a, f] dbar_d
    G[e, b], every entry computed on its own."""
    return {
        (a, b, c, d): G[a, b].d_hol(c).d_anti(d).sub(
            _total(
                Ginv[f, e].mul(G[a, f].d_hol(c)).mul(G[e, b].d_anti(d))
                for e in rng
                for f in rng
            )
        )
        for a in rng
        for b in rng
        for c in rng
        for d in rng
    }


_DIRECT_POTENTIALS = {
    **{
        f"numeric-{n}": Potential.numeric(
            n, random_hermitian_jets(n, 2, random.Random(20 + n))
        )
        for n in (1, 2, 3)
    },
    "graded-3": Potential.graded_numeric(3, rich_jets(3, 23), 3),
    **{f"symbolic-{n}": Potential.symbolic(n, 3) for n in (1, 2)},
    "linear-2": Potential.symbolic(2, 3, linear=True),
}


@pytest.mark.parametrize(
    "name, cap",
    [pytest.param(name, 2, id=name) for name in _DIRECT_POTENTIALS]
    + [
        pytest.param(name, 4, id=f"{name}-cap4")
        for name, pot in _DIRECT_POTENTIALS.items()
        if pot.n <= 2
    ],
)
def test_package_matches_direct_contractions(name, cap):
    """Gamma, R, |R|^2, |Ric|^2 and div Q against the textbook
    contractions, whole series and entry by entry: Gamma as Ginv d g, R =
    G[e, b] K[e, c, a, d] against d dbar g - Ginv d g dbar g, |R|^2 with
    both raised copies built on their own, |Ric|^2 as the four-index sum,
    and Y in div Q from the four-index sum.  Cap 2 is the box lap2_S
    reads, cap 4 the one lap4_S reads.  On the linear ring every product of two curvature terms
    vanishes, so there only Gamma, R and the vanishing of the rest are
    checked."""
    pot = _DIRECT_POTENTIALS[name]
    quadratic = not getattr(pot.ring, "linear", False)
    pkg = curvature_package(pot, cap)
    G, Ginv, Ric = pkg.G, pkg.Ginv, pkg.Ric
    rng = range(pot.n)
    idx4 = [(a, b, c, d) for a in rng for b in rng for c in rng for d in rng]
    Gamma = {
        (e, d, a): _total(Ginv[f, e].mul(G[a, f].d_hol(d)) for f in rng)
        for e in rng
        for d in rng
        for a in rng
    }
    assert all(pkg.Gamma[e, d, a] == Gamma[e, d, a] for e, d, a in Gamma)
    R = _textbook_curvature(G, Ginv, rng)
    assert any(R.values())
    assert all(
        _total(G[e, b].mul(pkg.K[e, c, a, d]) for e in rng) == R[a, b, c, d]
        for a, b, c, d in idx4
    )
    # both inverse metrics of a double raising at once: GG[p, a, q, c] =
    # Ginv[p, a] Ginv[q, c]
    GG = {(p, a, q, c): Ginv[p, a].mul(Ginv[q, c]) for p, a, q, c in idx4}
    upper = {
        (p, b, q, d): _total(GG[p, a, q, c].mul(R[a, b, c, d]) for a in rng for c in rng)
        for p, b, q, d in idx4
    }
    lower = {
        (b, p, d, q): _total(GG[b, a, d, c].mul(R[a, p, c, q]) for a in rng for c in rng)
        for p, b, q, d in idx4
    }
    norm_R = _total(upper[p, b, q, d].mul(lower[b, p, d, q]) for p, b, q, d in idx4)
    assert bool(norm_R) == quadratic and pkg.curvature_norm2() == norm_R
    norm_Ric = _total(
        Ric[a, b].mul(Ginv[b, c]).mul(Ginv[d, a]).mul(Ric[c, d])
        for a, b, c, d in idx4
    )
    assert bool(norm_Ric) == quadratic and pkg.ricci_norm2() == norm_Ric
    S = pkg.S
    Y = {
        (a, f): _total(
            R[a, b, c, f].mul(GG[b, p, q, c]).mul(Ric[p, q])
            for b in rng
            for c in rng
            for p in rng
            for q in rng
        ).sub(S.mul(Ric[a, f]).scale(4))
        for a in rng
        for f in rng
    }
    F = norm_R.sub(norm_Ric.scale(4)).add(S.mul(S).scale(8))
    Q = [
        F.d_hol(a)
        .add(
            _total(
                Ginv[f, d].mul(
                    Y[a, f]
                    .d_hol(d)
                    .sub(_total(Gamma[e, d, a].mul(Y[e, f]) for e in rng))
                )
                for d in rng
                for f in rng
            ).scale(2)
        )
        .scale(Fraction(1, 48))
        for a in rng
    ]
    div_Q = _total(Ginv[b, a].mul(Q[a].d_anti(b)) for a in rng for b in rng)
    assert bool(div_Q) == quadratic and pkg.gradient_divergence() == div_Q


@pytest.mark.parametrize(
    "name, cap",
    [
        pytest.param(name, cap, id=f"{name}-cap{cap}")
        for name in _DIRECT_POTENTIALS
        for cap in (2, 4)
    ],
)
def test_ricci_is_the_trace_of_the_raised_curvature(name, cap):
    """Ric[a, d] = -K[e, e, a, d], whole series, equals the contraction
    -Ginv[d, c] R[a, b, c, d] of the textbook curvature."""
    pot = _DIRECT_POTENTIALS[name]
    pkg = curvature_package(pot, cap)
    rng = range(pot.n)
    R = _textbook_curvature(pkg.G, pkg.Ginv, rng)
    want = {
        (a, b): _total(pkg.Ginv[d, c].mul(R[a, b, c, d]) for c in rng for d in rng).neg()
        for a in rng
        for b in rng
    }
    assert any(want.values())
    assert all(pkg.Ric[a, b] == want[a, b] for a, b in want)


def test_raisings_form_one_slot_at_a_time_products(monkeypatch):
    """At n = 3, |R|^2 forms at most n^5 + n^4 series products and the
    raised Ricci at most n^3: |R|^2 raises the second antiholomorphic slot
    of K, whose first is raised already, and the Ricci form has one such
    slot to raise.  Raising the lowered R twice took 2 n^5 + n^4, and the
    doubly raised Ricci 2 n^3.  A product is a ScalarSeries.mul call or a
    pair handed to the one-pass contraction."""
    import invar.geometry as geometry

    n = 3
    pkg = curvature_package(Potential.numeric(n, rich_jets(n, 24)), 1)
    calls = []
    mul, contract = ScalarSeries.mul, geometry._sum_products

    def counted(pairs):
        pairs = list(pairs)
        calls.extend(pairs)
        return contract(pairs)

    monkeypatch.setattr(ScalarSeries, "mul", lambda s, o: calls.append(1) or mul(s, o))
    monkeypatch.setattr(geometry, "_sum_products", counted)
    assert pkg.curvature_norm2()
    assert len(calls) <= n**5 + n**4
    calls.clear()
    assert any(pkg._raised_ricci().values())
    assert len(calls) <= n**3

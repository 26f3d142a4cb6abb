"""Operator-symbol pipeline for the kernel expansion coefficients."""

import itertools
import random
from fractions import Fraction
from math import comb, factorial, perm, prod
from operator import sub

import pytest

from invar import bergman
from invar.bergman import (
    _add_term,
    _defect,
    _readable,
    _zero_key,
    adjoint,
    bergman_coefficients,
    build_A,
    convolve,
    multiplication_terms,
)
from invar.geometry import kernel_coefficient_reference, named_scalar, todd_polynomial
from invar.jets import Potential, fubini_study_jets, random_hermitian_jets
from invar.rationals import GaussRat
from invar.rings import GaussRing, GradedRing, SymbolicRing
from test_truncated_product import reference_convolve

IDENT1 = ((0,), (0,), 0)


def weyl_multiply(t1, t2, ring, n, jmax=None):
    """Reference: operator product of two normal-ordered symbols.  Moving
    each derivative block of the left factor past the z block of the right
    one contracts any subset of slots, with falling-factorial
    multiplicities."""
    out: dict = {}
    for (g1, d1, j1), v1 in t1.items():
        for (g2, d2, j2), v2 in t2.items():
            j = j1 + j2
            if jmax is not None and j > jmax:
                continue
            v = ring.mul(v1, v2)
            if not v:
                continue
            ranges = [range(min(da, ga) + 1) for da, ga in zip(d1, g2)]
            for kappa in itertools.product(*ranges):
                mult = 1
                for da, ga, ka in zip(d1, g2, kappa):
                    mult *= comb(da, ka) * comb(ga, ka) * factorial(ka)
                key = (
                    tuple(a + b - k for a, b, k in zip(g1, g2, kappa)),
                    tuple(a + b - k for a, b, k in zip(d1, d2, kappa)),
                    j,
                )
                _add_term(out, key, ring.scale(v, mult), ring)
    return out


def neumann_invert(terms, ring, n, jmax):
    """Full inverse of an identity-plus-lower-t-order symbol as a finite
    geometric sum.  Reference for the coefficient extractor, which only
    tracks states that can return to z-degree zero."""
    ident = _zero_key(n)
    E = dict(terms)
    lead = E.pop(ident, ring.zero)
    if lead != ring.one:
        raise ValueError("inversion needs an identity leading term")
    for (g, d, j) in E:
        if j < 1:
            raise ArithmeticError(
                "adjoint term at nonnegative t-order; inversion would not close"
            )
    out = {ident: ring.one}
    power = {ident: ring.one}
    while power:
        power = weyl_multiply(power, E, ring, n, jmax)
        power = {k: ring.scale(v, -1) for k, v in power.items()}
        for key, v in power.items():
            _add_term(out, key, v, ring)
    return out


def graded_total(x):
    total = GaussRat(0)
    for v in x.values():
        total = total + v
    return total


def test_sign_calibration_is_all_plus():
    # each case flips under a sign on one of |g|, |d|, |k| or j'
    ring, one = GaussRing(), GaussRat(1)
    cases = [
        ({((1,), (0,), 0): one}, {((0,), (1,), 1): one}),
        ({((0,), (1,), 0): one}, {((1,), (0,), -1): one}),
        ({((1,), (1,), 0): one}, {((1,), (1,), 0): one, ((0,), (0,), 0): one}),
    ]
    for terms, want in cases:
        assert adjoint(terms, ring) == want


def test_flat_potential_has_trivial_expansion():
    pot = Potential.graded_numeric(1, {}, 2)
    coeffs = bergman_coefficients(pot, 2)
    assert coeffs[0] == pot.ring.one
    assert coeffs[1] == pot.ring.zero
    assert coeffs[2] == pot.ring.zero


def test_first_coefficient_hand_case():
    # H = 3 z^2 zbar^2 gives scalar curvature -12 at the center
    pot = Potential.graded_numeric(1, {((2,), (2,)): Fraction(3)}, 1)
    a1 = bergman_coefficients(pot, 1)[1]
    assert graded_total(a1) == GaussRat(-6)
    assert a1 == kernel_coefficient_reference(pot, 1)


def test_fubini_study_chains():
    for n, want in ((1, (1, 1, 0, 0)), (2, (1, 3, 2, 0))):
        pot = Potential.graded_numeric(n, fubini_study_jets(n, 8), 3)
        coeffs = bergman_coefficients(pot, 3)
        assert tuple(graded_total(c) for c in coeffs) == tuple(
            GaussRat(v) for v in want
        )


def test_first_coefficient_symbolic():
    pot = Potential.symbolic(1, 1)
    a1 = bergman_coefficients(pot, 1)[1]
    assert a1 == kernel_coefficient_reference(pot, 1)


def test_second_coefficient_symbolic():
    pot = Potential.symbolic(1, 2)
    a2 = bergman_coefficients(pot, 2)[2]
    assert a2 == kernel_coefficient_reference(pot, 2)


def test_third_coefficient_symbolic():
    """a_3 of every n = 2 potential through weight 3 is the closed form."""
    pot = Potential.symbolic(2, 3)
    assert bergman_coefficients(pot, 3)[3] == kernel_coefficient_reference(pot, 3)


def test_third_coefficient_random_jets():
    rng = random.Random(2)
    jets = random_hermitian_jets(2, 3, rng)
    pot = Potential.graded_numeric(2, jets, 3)
    a3 = bergman_coefficients(pot, 3)[3]
    assert a3 == kernel_coefficient_reference(pot, 3)


def test_linearized_coefficients_are_iterated_laplacians():
    pot = Potential.symbolic(1, 3, linear=True)
    ring = pot.ring
    coeffs = bergman_coefficients(pot, 3)
    names = ("S", "lap_S", "lap2_S")
    for j, name in zip((1, 2, 3), names):
        want = ring.scale(
            named_scalar(pot, name), Fraction(j, _factorial(j + 1))
        )
        assert coeffs[j] == want


def _factorial(k):
    out = 1
    for m in range(2, k + 1):
        out *= m
    return out


def test_linear_part_of_A_matches_trace_minus_multiplication():
    # linear terms: one Laplacian trace per jet, minus multiplication by H*t
    pot = Potential.symbolic(1, 2, linear=True)
    ring = pot.ring
    terms = build_A(pot, 4)
    expected: dict = {}

    def add(key, val):
        s = ring.add(expected.get(key, ring.zero), val)
        if not s:
            expected.pop(key, None)
        else:
            expected[key] = s

    for (alpha, beta) in pot.jets:
        h = ring.symbol((alpha, beta))
        add((alpha, beta, sum(beta) - 1), ring.scale(h, -1))
        if alpha[0] and beta[0]:
            add(
                ((alpha[0] - 1,), (beta[0] - 1,), beta[0] - 1),
                ring.scale(h, alpha[0] * beta[0]),
            )
    got = {}
    for key, v in terms.items():
        lin = {m: c for m, c in v.items() if m}
        if lin:
            got[key] = lin
    assert got == expected


def test_multiplication_terms_layout():
    pot = Potential.graded_numeric(1, {((2,), (3,)): 1, ((3,), (2,)): 1}, 2)
    mult = multiplication_terms(pot)
    assert set(mult) == {((2,), (3,), 2), ((3,), (2,), 1)}


def test_adjoint_fixes_identity_and_pure_blocks():
    ring = Potential.graded_numeric(1, {}, 3).ring
    one = {IDENT1: ring.one}
    assert adjoint(one, ring) == one
    z2 = {((2,), (0,), 2): ring.one}
    assert adjoint(adjoint(z2, ring), ring) == z2


def test_adjoint_not_involutive_on_mixed_terms():
    ring = Potential.graded_numeric(1, {}, 3).ring
    zd = {((1,), (1,), 0): ring.one}
    once = adjoint(zd, ring)
    assert once == {((1,), (1,), 0): ring.one, IDENT1: ring.one}
    twice = adjoint(once, ring)
    assert twice[IDENT1] == ring.scale(ring.one, 2)


def test_weyl_product_commutation_rule():
    ring = GaussRing()
    d = {((0,), (1,), 0): ring.one}
    z = {((1,), (0,), 0): ring.one}
    assert weyl_multiply(d, z, ring, 1) == {
        ((1,), (1,), 0): ring.one,
        IDENT1: ring.one,
    }
    assert weyl_multiply(z, d, ring, 1) == {((1,), (1,), 0): ring.one}


def test_weyl_product_is_associative():
    ring = GaussRing()
    rng = random.Random(17)

    def sample():
        out = {}
        for _ in range(3):
            key = (
                (rng.randint(0, 2),),
                (rng.randint(0, 2),),
                rng.randint(0, 2),
            )
            out[key] = GaussRat(rng.randint(-3, 3), rng.randint(-2, 2))
        return {k: v for k, v in out.items() if v}

    for _ in range(5):
        a, b, c = sample(), sample(), sample()
        left = weyl_multiply(weyl_multiply(a, b, ring, 1), c, ring, 1)
        right = weyl_multiply(a, weyl_multiply(b, c, ring, 1), ring, 1)
        assert left == right


def test_convolve_is_commutative():
    ring = GaussRing()
    a = {((1,), (2,), 1): GaussRat(2), ((0,), (1,), 0): GaussRat(1, 1)}
    b = {((2,), (0,), 1): GaussRat(-1), IDENT1: GaussRat(3)}
    assert convolve(a, b, ring, 9) == convolve(b, a, ring, 9)


def test_neumann_invert_matches_coefficient_extractor():
    pot = Potential.graded_numeric(1, fubini_study_jets(1, 8), 3)
    ring = pot.ring
    astar = adjoint(build_A(pot, 3), ring)
    inv = neumann_invert(astar, ring, 1, 3)
    coeffs = bergman_coefficients(pot, 3)
    for j in range(4):
        got = inv.get(((0,), (0,), j), ring.zero)
        assert graded_total(got) == graded_total(coeffs[j])


def test_neumann_invert_validation():
    ring = Potential.graded_numeric(1, {}, 2).ring
    with pytest.raises(ValueError):
        neumann_invert({((1,), (0,), 1): ring.one}, ring, 1, 2)
    bad = {IDENT1: ring.one, ((1,), (1,), 0): ring.one}
    with pytest.raises(ArithmeticError):
        neumann_invert(bad, ring, 1, 2)


def test_order_reversed_adjoint_yields_nothing():
    # composing the block adjoints in reversed order leaves every term with
    # a bare z block, so no scalar part ever forms and all coefficients die
    pot = Potential.graded_numeric(1, fubini_study_jets(1, 8), 3)
    ring = pot.ring
    A = build_A(pot, 3)
    swapped = {}
    for (g, d, j), v in A.items():
        key = (d, g, j + sum(g) - sum(d))
        s = ring.add(swapped.get(key, ring.zero), ring.conj(v))
        swapped[key] = s
    assert all(sum(g) >= 1 for (g, d, j) in swapped if (g, d, j) != IDENT1)
    inv = neumann_invert(swapped, ring, 1, 3)
    for j in range(1, 4):
        assert inv.get(((0,), (0,), j), ring.zero) == ring.zero
    # the calibrated rule on the same data is alive
    live = bergman_coefficients(pot, 1)[1]
    assert graded_total(live) == GaussRat(1)


def test_truncation_stability():
    """a_0..a_j read no jet above weight j: one more weight on the potential
    moves no value."""
    jets = random_hermitian_jets(1, 3, random.Random(21))
    lo = Potential.graded_numeric(1, jets, 2)
    hi = Potential.graded_numeric(1, jets, 3)
    a_lo = bergman_coefficients(lo, 2)
    a_hi = bergman_coefficients(hi, 2)
    for x, y in zip(a_lo, a_hi):
        assert graded_total(x) == graded_total(y)
    for n in (1, 2):
        lo, hi = Potential.symbolic(n, 2), Potential.symbolic(n, 3)
        assert bergman_coefficients(lo, 2) == bergman_coefficients(hi, 2), n
    for order in (2, 3):
        lo, hi = (
            Potential.graded_numeric(2, fubini_study_jets(2, 2 * w + 2), w)
            for w in (order, order + 1)
        )
        assert bergman_coefficients(lo, order) == bergman_coefficients(hi, order), order


def test_numeric_ring_is_rejected():
    pot = Potential.numeric(1, {((2,), (2,)): 1})
    with pytest.raises(ValueError):
        bergman_coefficients(pot, 1)


def test_weights_above_the_grade_cap_are_refused():
    """Above the ring's grade cap every product is dropped, so a_2 and P2
    of a weight-1 potential would read as an empty element."""
    graded = Potential.graded_numeric(2, fubini_study_jets(2, 8), 1)
    symbolic = Potential.symbolic(1, 1)
    for pot in (graded, symbolic):
        with pytest.raises(ValueError, match=r"a2 has doubled weight 4, .* grade cap 2"):
            bergman_coefficients(pot, 2)
        with pytest.raises(ValueError, match=r"P2 has doubled weight 4, .* grade cap 2"):
            named_scalar(pot, "P2")
        with pytest.raises(ValueError, match=r"P2 has doubled weight 4, .* grade cap 2"):
            todd_polynomial(pot, 2)
        with pytest.raises(ValueError, match=r"P3 has doubled weight 6"):
            kernel_coefficient_reference(pot, 3)
    full = Potential.graded_numeric(2, fubini_study_jets(2, 8), 3)
    assert bergman_coefficients(full, 3)[2] == {4: GaussRat(2)}


def test_a_coefficient_off_its_weight_is_refused():
    """A jet tagged with the wrong grade leaves a_1 with no term at grade 2,
    and the extractor names the stray grades rather than dropping them."""
    ring = GradedRing(6)
    graded = Potential(1, ring, {((2,), (2,)): ring.graded(4, 1)})
    ring = SymbolicRing(6)
    symbolic = Potential(1, ring, {((2,), (2,)): ring.symbol(((3,), (2,)))})
    for pot, grades in ((graded, "[4]"), (symbolic, "[3]")):
        with pytest.raises(ArithmeticError) as err:
            bergman_coefficients(pot, 1)
        assert str(err.value) == f"coefficient 1 is not weight-homogeneous: grades {grades}"


def reference_build_A(pot, jmax):
    """A with no t-order cut: the products are pruned by the defect j' alone."""
    n, ring = pot.n, pot.ring
    one = {_zero_key(n): ring.one}
    entries = [[dict() for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == b:
                entries[a][b][_zero_key(n)] = ring.one
            for (alpha, beta), v in pot.jets.items():
                if alpha[a] and beta[b]:
                    db = tuple(x - (i == b) for i, x in enumerate(beta))
                    da = tuple(x - (i == a) for i, x in enumerate(alpha))
                    _add_term(entries[a][b], (da, db, sum(db)), ring.scale(v, alpha[a] * beta[b]), ring)
    det = {}
    for sigma in itertools.permutations(range(n)):
        product = one
        for a in range(n):
            product = reference_convolve(product, entries[a][sigma[a]], ring, jmax)
        inversions = sum(x > y for x, y in itertools.combinations(sigma, 2))
        for key, v in product.items():
            _add_term(det, key, ring.scale(v, -1) if inversions % 2 else v, ring)
    expo, power, k = dict(one), dict(one), 0
    while power:
        k += 1
        power = reference_convolve(power, multiplication_terms(pot), ring, jmax)
        power = {key: ring.scale(v, Fraction(-1, k)) for key, v in power.items()}
        for key, v in power.items():
            _add_term(expo, key, v, ring)
    return reference_convolve(det, expo, ring, jmax)


def reference_bergman_coefficients(pot, jmax):
    """The extractor before the readability filter: the full A, the adjoint
    of every term and the same walk over states (z-degree, t-order)."""
    n, ring = pot.n, pot.ring
    ident, zero = _zero_key(n), (0,) * n
    E = adjoint(reference_build_A(pot, jmax), ring)
    _add_term(E, ident, ring.scale(ring.one, -1), ring)
    if any(jp < 1 for (_, _, jp) in E):
        raise ArithmeticError("adjoint term at nonnegative t-order")
    X, Q = {(zero, 0): ring.one}, {0: ring.one}
    for _ in range(jmax):
        Xn: dict = {}
        for (b, j), xv in X.items():
            for (cz, dd, j2), ev in E.items():
                mult = prod(map(perm, b, cz))
                if j + j2 > jmax or not mult:
                    continue
                nb = tuple(bi - ci + di for bi, ci, di in zip(b, cz, dd))
                contrib = ring.scale(ring.mul(xv, ev), -mult)
                if contrib:
                    _add_term(Xn, (nb, j + j2), contrib, ring)
        X = Xn
        for (b, j), xv in X.items():
            if b == zero:
                Q[j] = ring.add(Q.get(j, ring.zero), xv)
    return [
        {k: c for k, c in Q.get(j, ring.zero).items() if ring.grade(k) == 2 * j}
        for j in range(jmax + 1)
    ]


def _parity_cases():
    for n in (1, 2, 3):
        for jmax in range(1, 5):
            for seed in range(3):
                jets = random_hermitian_jets(n, jmax, random.Random(10 * n + seed))
                yield Potential.graded_numeric(n, jets, jmax), jmax
        for jmax in range(4):
            yield Potential.graded_numeric(n, fubini_study_jets(n, 2 * jmax + 2), max(jmax, 1)), jmax
    for n, top in ((1, 3), (2, 3)):
        for j in range(top + 1):
            yield Potential.symbolic(n, max(j, 1)), j
    for j in range(6):
        yield Potential.symbolic(1, max(j, 1), linear=True), j


def test_extractor_matches_the_unfiltered_reference_in_order():
    """Cutting A at t-order jmax and adjointing only readable terms leaves
    every coefficient equal, item order included."""
    for pot, jmax in _parity_cases():
        got = bergman_coefficients(pot, jmax)
        want = reference_bergman_coefficients(pot, jmax)
        assert [list(c.items()) for c in got] == [list(c.items()) for c in want], (pot.n, jmax)


def test_every_A_term_is_homogeneous_of_grade_j_plus_jprime():
    """A jet h[alpha|beta] sits at (alpha, beta, |beta| - 1), where j + j' is
    its grade, and j, j' and the grade all add under products: so no pair
    of A terms within the caps passes the grade cap, and a grade prune
    before a graded ring product could never fire.  Every term also has
    j <= jmax and j' <= jmax, so adjoint needs no cap of its own."""
    for pot, jmax in _parity_cases():
        for key, v in build_A(pot, jmax).items():
            assert set(map(pot.ring.grade, v)) == {key[2] + _defect(key)}, (pot.n, jmax, key)
            assert key[2] <= jmax and _defect(key) <= jmax, (pot.n, jmax, key)


def _walk_keys(E, n, jmax):
    """Adjoint keys read on some walk from z-degree zero back to zero,
    found from keys alone: states reachable from (0, 0) that step, through
    the key, to a state that can reach z-degree zero."""
    zero = (0,) * n

    def steps(state):
        b, j = state
        for key in E:
            cz, dd, jp = key
            if j + jp <= jmax and all(x >= c for x, c in zip(b, cz)):
                yield key, (tuple(x - c + e for x, c, e in zip(b, cz, dd)), j + jp)

    reach, todo = {(zero, 0)}, [(zero, 0)]
    while todo:
        for _, nxt in steps(todo.pop()):
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    back = {s for s in reach if s[0] == zero}
    for s in sorted(reach, key=lambda s: -s[1]):
        if any(nxt in back for _, nxt in steps(s)):
            back.add(s)
    return {key for s in reach for key, nxt in steps(s) if nxt in back}


def _soundness_cases():
    for n, jmax in ((1, 2), (1, 4), (2, 3), (2, 4), (3, 3), (3, 4)):
        for seed in range(4):
            jets = random_hermitian_jets(n, jmax, random.Random(seed))
            yield Potential.graded_numeric(n, jets, jmax), jmax
    yield Potential.symbolic(1, 4), 4
    yield Potential.symbolic(2, 3), 3


def test_every_read_adjoint_term_comes_from_a_readable_A_term():
    """Soundness of the filter, checked on keys with no values: every key
    of the full adjoint that a walk from zero back to zero reads passes the
    bound, every A term that adjoints onto it is readable, and every
    non-identity A term has j >= 1 and j' >= 1."""
    reads = 0
    for pot, jmax in _soundness_cases():
        ring, ident = pot.ring, _zero_key(pot.n)
        A = reference_build_A(pot, jmax)
        E = adjoint(A, ring)
        E.pop(ident)
        read = _walk_keys(E, pot.n, jmax)
        reads += len(read)
        for cz, dd, jp in read:
            assert sum(cz) <= max(0, jmax - 1 - jp) and sum(dd) <= max(0, jmax - 2)
        for key in A:
            if key == ident:
                continue
            g, d, j = key
            assert j >= 1 and _defect(key) >= 1
            ranges = [range(min(x, y) + 1) for x, y in zip(g, d)]
            images = {
                (tuple(map(sub, d, k)), tuple(map(sub, g, k)), _defect(key))
                for k in itertools.product(*ranges)
            }
            if images & read:
                assert _readable(key, jmax)
            if _readable(key, jmax) and _defect(key) <= jmax:
                assert j <= jmax
        # build_A is the reference cut at t-order jmax, in the same order
        cut = [(k, v) for k, v in A.items() if k[2] <= jmax]
        assert list(build_A(pot, jmax).items()) == cut
    assert reads == 73


def test_adjoint_gets_only_the_readable_terms(monkeypatch):
    """The terms adjoint receives inside the extractor.  A Fubini-Study
    potential is diagonal (g = d on every term), so all 40 terms of A are
    readable; a seeded and a symbolic potential keep 13 of 47 and 90 of
    396."""
    sizes = []
    full = bergman.adjoint
    monkeypatch.setattr(bergman, "adjoint", lambda t, r: sizes.append(len(t)) or full(t, r))
    bergman_coefficients(Potential.graded_numeric(2, fubini_study_jets(2, 8), 3), 3)
    bergman_coefficients(Potential.graded_numeric(2, random_hermitian_jets(2, 3, random.Random(2)), 3), 3)
    bergman_coefficients(Potential.symbolic(2, 3), 3)
    assert sizes == [40, 13, 90]


def test_t_order_check_sees_terms_the_filter_drops(monkeypatch):
    """A term the readability bound drops still fails the t-order check,
    as does an identity coefficient other than one."""
    pot = Potential.graded_numeric(1, {}, 1)
    one = pot.ring.one
    unreadable = ((0,), (5,), 2)
    assert _defect(unreadable) == -3 and not _readable(unreadable, 1)
    for A in ({IDENT1: one, unreadable: one}, {IDENT1: pot.ring.scale(one, 2)}):
        monkeypatch.setattr(bergman, "build_A", lambda pot, jmax, A=A: dict(A))
        with pytest.raises(ArithmeticError, match="nonnegative t-order"):
            bergman_coefficients(pot, 1)

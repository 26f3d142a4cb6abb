"""Divergences, local divergences, and the formal integral test."""

import random
from fractions import Fraction
from math import isqrt

import pytest

from invar import calculus, solver
from invar.calculus import (
    divergence,
    first_slot_residue,
    integrates_to_zero,
    local_divergence,
)
from invar.chern import chern_invariant, partitions_of
from invar.invariants import Invariant, monomial_invariant
from invar.monomials import PHI, PSI, ContractionMonomial
from invar.solver import (
    NotCoexactError,
    decompose,
    enumerate_monomials,
    random_coexact_invariant,
    verify_decomposition,
)


def one_form():
    # T_a with both derivative blocks of the second factor fully contracted
    return monomial_invariant(
        ContractionMonomial(PHI, ((0, 2), (2, 0)), (1, 0), (0, 0))
    )


def test_divergence_two_term_leibniz():
    div = divergence(one_form())
    assert div.valence == (0, 0)
    assert div.coefficient(ContractionMonomial(PHI, ((1, 2), (2, 0)))) == 1
    assert div.coefficient(ContractionMonomial(PHI, ((0, 3), (2, 0)))) == 1
    assert sum(div.terms.values()) == 2


def test_divergence_bookkeeping():
    t = one_form()
    div = divergence(t)
    assert {m.weight for m in div.terms} == {m.weight + 1 for m in t.terms}
    assert div.degrees() == t.degrees()


def test_divergence_is_linear():
    t = one_form()
    u = monomial_invariant(ContractionMonomial(PHI, ((2, 1), (1, 0)), (1, 0), (0, 0)))
    lhs = divergence(t.scale(3) + u.scale(Fraction(-1, 2)))
    assert lhs == divergence(t).scale(3) + divergence(u).scale(Fraction(-1, 2))


def test_divergence_commutes_with_conjugation():
    t = one_form()
    assert divergence(t.conjugate()) == divergence(t).conjugate()


def test_divergence_requires_one_form():
    with pytest.raises(ValueError):
        divergence(monomial_invariant(ContractionMonomial(PHI, ((2,),))))


def test_divergence_of_several_one_forms_is_the_sum_of_their_divergences():
    t = one_form()
    u = monomial_invariant(ContractionMonomial(PHI, ((2, 1), (1, 0)), (1, 0), (0, 0)))
    v = u.conjugate().scale(Fraction(-3, 2))
    zero = Invariant(PHI, (0, 1), [])
    for forms in ((t, u), (t, v), (v, t, u), (t, t.scale(-1)), (t, zero), (zero, v)):
        want = divergence(forms[0])
        for form in forms[1:]:
            want = want + divergence(form)
        assert divergence(*forms) == want
    psi = (t + u).polarize(), v.polarize()
    assert divergence(*psi) == divergence(psi[0]) + divergence(psi[1])


def test_divergence_refuses_mixed_kinds_and_scalars_in_any_place():
    t, scalar = one_form(), monomial_invariant(ContractionMonomial(PHI, ((2,),)))
    with pytest.raises(ValueError, match="one-forms of one kind"):
        divergence(t, t.polarize())
    with pytest.raises(ValueError, match="one-forms of one kind"):
        divergence(t.polarize(), t)
    for forms in ((scalar,), (t, scalar), (scalar, t)):
        with pytest.raises(ValueError, match=r"^divergence expects valence \(1,0\) or \(0,1\)$"):
            divergence(*forms)


def test_local_divergence_trace_factor():
    # lap psi^1 lap^2 psi^2, integrating off psi^1
    inv = monomial_invariant(ContractionMonomial(PSI, ((1, 0), (0, 2))))
    out = local_divergence(inv, 1)
    assert out == monomial_invariant(ContractionMonomial(PSI, ((3,),)))


def test_local_divergence_cross_contraction():
    inv = monomial_invariant(ContractionMonomial(PSI, ((0, 2), (2, 0))))
    out = local_divergence(inv, 1)
    assert out == monomial_invariant(ContractionMonomial(PSI, ((4,),)))


def test_local_divergence_single_edge_sign():
    # psi^1_a psi^2_abar picks up one integration by parts
    inv = monomial_invariant(ContractionMonomial(PSI, ((0, 1), (0, 0))))
    out = local_divergence(inv, 1)
    assert out == monomial_invariant(ContractionMonomial(PSI, ((1,),)), -1)


def test_local_divergence_bookkeeping():
    inv = monomial_invariant(ContractionMonomial(PSI, ((1, 1), (1, 1))))
    out = local_divergence(inv, 2)
    assert {m.weight for m in out.terms} == {4}
    assert out.degrees() == {1}


def test_local_divergence_validation():
    phi_inv = monomial_invariant(ContractionMonomial(PHI, ((0, 2), (2, 0))))
    with pytest.raises(ValueError):
        local_divergence(phi_inv, 1)
    psi_inv = phi_inv.polarize()
    with pytest.raises(ValueError):
        local_divergence(psi_inv, 0)
    with pytest.raises(ValueError):
        local_divergence(psi_inv, 3)
    with pytest.raises(ValueError):
        local_divergence(monomial_invariant(ContractionMonomial(PSI, ((2,),))), 1)


def test_integrates_to_zero_single_factor():
    assert integrates_to_zero(monomial_invariant(ContractionMonomial(PHI, ((2,),))))
    assert not integrates_to_zero(monomial_invariant(ContractionMonomial(PHI, ((0,),))))


def test_integrates_to_zero_squared_trace_fails():
    sq = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))
    assert not integrates_to_zero(sq)


def test_integrates_to_zero_on_divergences():
    assert integrates_to_zero(divergence(one_form()))
    t_anti = monomial_invariant(
        ContractionMonomial(PHI, ((1, 1), (1, 0)), (0, 0), (0, 1))
    )
    assert integrates_to_zero(divergence(t_anti))


def test_integrates_to_zero_requires_scalar():
    with pytest.raises(ValueError):
        integrates_to_zero(one_form())


def test_local_divergence_vanishes_at_every_slot_on_coexact_input():
    rng = random.Random(7)
    for _ in range(6):
        sigma = rng.choice([2, 3])
        inv = random_coexact_invariant(rng.randint(max(2, sigma), 5), sigma, rng)
        if not inv:
            continue
        pol = inv.polarize()
        for k in range(1, sigma + 1):
            assert not local_divergence(pol, k)


def test_nonzero_integral_leaves_residue():
    sq = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))
    assert local_divergence(sq.polarize(), 1)
    assert first_slot_residue(sq) == local_divergence(sq.polarize(), 1)
    # one factor: the residue is the terms without a derivative
    bare = monomial_invariant(ContractionMonomial(PHI, ((0,),)))
    traced = monomial_invariant(ContractionMonomial(PHI, ((1,),)))
    assert first_slot_residue(bare + traced) == bare


def test_integrates_to_zero_tests_each_degree_block():
    c1, c2 = chern_invariant((1,)), chern_invariant((2,))
    sq = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))
    bare = monomial_invariant(ContractionMonomial(PHI, ((0,),)))
    assert integrates_to_zero(c1 + c2)
    assert integrates_to_zero(c1.polarize() + c2.polarize())
    assert not integrates_to_zero(c1 + sq)
    assert not integrates_to_zero(bare + c2)
    # the residue itself stays defined on one degree only
    with pytest.raises(ValueError, match="homogeneous"):
        first_slot_residue(c1 + c2)


# -- reference parity: one monomial per Leibniz placement, nothing collected --


def reference_divergence(inv):
    hol_free = inv.valence == (1, 0)
    terms = []
    for mono, coeff in inv.terms.items():
        free = mono.free_hol if hol_free else mono.free_anti
        i = next(k for k in range(mono.sigma) if free[k])
        new_free = tuple(f - (k == i) for k, f in enumerate(free))
        for m in range(mono.sigma):
            edges = [list(row) for row in mono.edges]
            if hol_free:
                edges[i][m] += 1
                out = ContractionMonomial(mono.kind, edges, new_free, mono.free_anti)
            else:
                edges[m][i] += 1
                out = ContractionMonomial(mono.kind, edges, mono.free_hol, new_free)
            terms.append((out, coeff))
    return Invariant(inv.kind, (0, 0), terms)


def reference_local_divergence(inv, k):
    k -= 1
    terms = []
    for mono, coeff in inv.terms.items():
        survivors = [i for i in range(mono.sigma) if i != k]
        sign = -1 if sum(mono.signatures[k]) % 2 else 1
        edges = [[mono.edges[i][j] for j in survivors] for i in survivors]
        pending = []
        for c, j in enumerate(survivors):
            pending += [("hol", c)] * mono.edges[k][j]
        for r, i in enumerate(survivors):
            pending += [("anti", r)] * mono.edges[i][k]
        pending += [("pair", None)] * mono.edges[k][k]
        rng = range(len(survivors))
        cells = {
            "hol": lambda c: [(m, c) for m in rng],
            "anti": lambda r: [(r, m) for m in rng],
            "pair": lambda _: [(m, mp) for m in rng for mp in rng],
        }

        def place(idx):
            if idx == len(pending):
                terms.append((ContractionMonomial(PSI, edges), coeff * sign))
                return
            what, at = pending[idx]
            for r, c in cells[what](at):
                edges[r][c] += 1
                place(idx + 1)
                edges[r][c] -= 1

        place(0)
    return Invariant(PSI, (0, 0), terms)


def random_scalar_invariant(rng, sigma, weight):
    terms = []
    for _ in range(3):
        edges = [[0] * sigma for _ in range(sigma)]
        for _ in range(weight):
            edges[rng.randrange(sigma)][rng.randrange(sigma)] += 1
        coeff = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
        terms.append((ContractionMonomial(PHI, edges), coeff))
    return Invariant(PHI, (0, 0), terms)


def test_local_divergence_matches_the_per_placement_reference():
    rng = random.Random(3)
    traced = repeated = 0
    for sigma in (2, 3, 4):
        for weight in range(sigma, 6):
            for _ in range(3):
                pol = random_scalar_invariant(rng, sigma, weight).polarize()
                for k in range(1, sigma + 1):
                    for mono in pol.terms:
                        traced += mono.edges[k - 1][k - 1] > 0
                        repeated += any(x > 1 for x in mono.edges[k - 1])
                    assert local_divergence(pol, k) == reference_local_divergence(pol, k)
    assert traced and repeated


def test_divergence_matches_the_per_placement_reference():
    for valence in ((1, 0), (0, 1)):
        for sigma in (1, 2, 3):
            for w in range(6):
                monos = enumerate_monomials(w, sigma, [(0, 0)] * sigma, valence)
                for mono in monos:
                    t = monomial_invariant(mono)
                    assert divergence(t) == reference_divergence(t)
                if monos:
                    t = Invariant(PHI, valence, [(m, i - 2) for i, m in enumerate(monos)])
                    assert divergence(t) == reference_divergence(t)
                    assert divergence(t.polarize()) == reference_divergence(t.polarize())


# -- reference parity: the residue of the polarized form, sigma! relabelings --


def reference_first_slot_residue(inv):
    """Polarize over every factor relabeling, then integrate off slot 1 one
    placement at a time, not through invar's local_divergence."""
    if inv.valence != (0, 0):
        raise ValueError("the integral test expects a scalar invariant")
    if not inv.terms or inv.homogeneous_degree() == 1:
        return inv.filter(lambda m: m.weight < 1)
    return reference_local_divergence(inv.polarize() if inv.kind == PHI else inv, 1)


def reference_integrates_to_zero(inv):
    blocks = [inv.filter(lambda m, s=s: m.sigma == s) for s in sorted(inv.degrees())]
    return not any(reference_first_slot_residue(b) for b in blocks or [inv])


def assert_residue_parity(inv):
    """The residue and the integral test agree with the reference; returns
    the residue."""
    want = reference_first_slot_residue(inv)
    assert first_slot_residue(inv) == want
    assert integrates_to_zero(inv) == (not want)
    return want


# the bench's decompose blocks: (sigma, w, restriction floor or None)
_BENCH_BLOCKS = [(s, w, None) for s in (1, 2, 3) for w in range(2 * s, 2 * s + 3)]
_BENCH_BLOCKS += [(3, 5, (1, 1)), (4, 5, (1, 1))]


@pytest.mark.parametrize(
    "sigma, w, floor",
    _BENCH_BLOCKS,
    ids=[f"s{s}-w{w}" + ("-r11" if f else "") for s, w, f in _BENCH_BLOCKS],
)
def test_residue_parity_on_coexact_draws(sigma, w, floor):
    rng = random.Random(f"residue:{sigma}:{w}:{floor}")
    restriction = (floor,) * sigma if floor else None
    drawn = 0
    for _ in range(3):
        inv = random_coexact_invariant(w, sigma, rng, restriction)
        drawn += bool(inv)
        assert not assert_residue_parity(inv)
    assert drawn


@pytest.mark.parametrize(
    "sigma, w, floor",
    _BENCH_BLOCKS,
    ids=[f"s{s}-w{w}" + ("-r11" if f else "") for s, w, f in _BENCH_BLOCKS],
)
def test_every_generator_column_integrates_to_zero(sigma, w, floor):
    """A witness proves a block co-exact only because each column does."""
    entry = solver._column_space(w, sigma, (floor or (2, 2),) * sigma)
    rows = list(entry["rows"])
    assert entry["columns"]
    for col in entry["columns"]:
        assert integrates_to_zero(Invariant(PHI, (0, 0), [(rows[r], c) for r, c in col.items()]))


def test_residue_parity_on_chern_invariants():
    for sigma in (1, 2, 3, 4):
        for p in partitions_of(sigma):
            assert not assert_residue_parity(chern_invariant(p))


def test_residue_parity_on_non_coexact_combinations():
    rng = random.Random(18)
    nonzero = 0
    for sigma in (2, 3, 4):
        for weight in range(sigma - 1, min(2 * sigma, 6) + 1):
            for _ in range(2):
                inv = random_scalar_invariant(rng, sigma, weight)
                nonzero += bool(assert_residue_parity(inv))
    assert nonzero >= 20


def test_residue_parity_on_psi_single_factor_and_mixed_input():
    rng = random.Random(4)
    for sigma in (2, 3):
        pol = random_scalar_invariant(rng, sigma, sigma + 2).polarize()
        assert assert_residue_parity(pol)
        assert not assert_residue_parity(chern_invariant((sigma,)).polarize())
    single = Invariant(PHI, (0, 0), [(ContractionMonomial(PHI, ((w,),)), w + 1) for w in range(4)])
    assert assert_residue_parity(single) == single.filter(lambda m: m.weight == 0)
    assert not assert_residue_parity(single.filter(lambda m: m.weight > 0))
    sq = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))
    for mixed in (
        chern_invariant((1,)) + chern_invariant((2, 1)),
        chern_invariant((1,)) + chern_invariant((3,)) + sq,
        single + chern_invariant((2,)),
    ):
        assert integrates_to_zero(mixed) == reference_integrates_to_zero(mixed)
        with pytest.raises(ValueError, match="homogeneous"):
            first_slot_residue(mixed)
    assert integrates_to_zero(chern_invariant((1,)) + chern_invariant((2, 1)))
    assert not integrates_to_zero(chern_invariant((3,)) + sq)


def test_no_hot_path_polarizes(monkeypatch):
    """decompose and the integral test expand once per factor; polarize
    stays public but nothing on their path calls it."""
    rng = random.Random(11)
    inputs = [random_coexact_invariant(6, 3, rng), random_coexact_invariant(7, 3, rng)]
    inputs.append(chern_invariant((4,)) - chern_invariant((2, 1, 1)).scale(Fraction(1, 2)))
    inputs.append(random_coexact_invariant(5, 4, rng, ((1, 1),) * 4))

    def refuse(self):
        raise AssertionError("polarize was called")

    monkeypatch.setattr(Invariant, "polarize", refuse)
    for inv, restriction in zip(inputs, (None, None, None, ((1, 1),) * 4)):
        assert inv.degrees() in ({3}, {4})
        assert integrates_to_zero(inv)
        assert verify_decomposition(inv, decompose(inv, restriction))


def test_only_the_residue_polarizes(monkeypatch):
    """The integral test never polarizes; the residue, alone or built by a
    refused decompose, polarizes its input once."""
    rng = random.Random(35)
    inputs = [random_scalar_invariant(rng, 3, 5), random_scalar_invariant(rng, 4, 6)]
    calls = []
    polarize = Invariant.polarize

    def counted(self):
        calls.append(self)
        return polarize(self)

    monkeypatch.setattr(Invariant, "polarize", counted)
    for inv in inputs:
        assert len({(m.weight, m.sigma) for m in inv.terms}) == 1
        assert not integrates_to_zero(inv)
        assert calls == []
        residue = first_slot_residue(inv)
        assert residue and calls == [inv]
        calls.clear()
        with pytest.raises(NotCoexactError) as refused:
            decompose(inv)
        assert refused.value.residue == residue and calls == [inv]
        calls.clear()


# -- reference parity: one monomial per nonzero matrix, collected by Invariant --


def reference_collect(kind, acc, q):
    terms = []
    for flat, num in acc.items():
        if num:
            s = isqrt(len(flat))
            rows = tuple(flat[r : r + s] for r in range(0, s * s, s))
            terms.append((ContractionMonomial(kind, rows), Fraction(num, q)))
    return Invariant(kind, (0, 0), terms)


def assert_collect_parity(kind, acc, q, got):
    want = reference_collect(kind, acc, q)
    assert (got.kind, got.valence) == (want.kind, want.valence)
    # insertion order included
    assert list(got.terms.items()) == list(want.terms.items())


def test_collect_matches_the_constructor_in_order(monkeypatch):
    calls = []
    original = calculus._collect

    def recorded(kind, acc, q):
        out = original(kind, acc, q)
        calls.append((kind, acc, q, out))
        return out

    monkeypatch.setattr(calculus, "_collect", recorded)
    rng = random.Random(26)
    for sigma in (1, 2, 3, 4):
        for w in range(sigma + 1, sigma + 3):
            for valence in ((1, 0), (0, 1)):
                monos = enumerate_monomials(w - 1, sigma, [(1, 1)] * sigma, valence)
                t = Invariant(PHI, valence, [(m, rng.randint(-3, 3)) for m in monos])
                divergence(t)
                divergence(t.polarize())
            if sigma > 1:
                pol = random_scalar_invariant(rng, sigma, w).polarize()
                for k in range(1, sigma + 1):
                    local_divergence(pol, k)
    assert {kind for kind, *_ in calls} == {PHI, PSI}
    for call in calls:
        assert_collect_parity(*call)
    # one orbit's relabelings cancel, and the orbit comes back after another
    orbit = [(2, 0, 0, 0, 1, 0, 0, 0, 1), (1, 0, 0, 0, 2, 0, 0, 0, 1), (1, 0, 0, 0, 1, 0, 0, 0, 2)]
    other = (1, 1, 0, 0, 1, 1, 1, 0, 1)
    acc = {orbit[0]: 1, other: 3, orbit[1]: -1, orbit[2]: 2}
    got = original(PHI, acc, 5)
    assert_collect_parity(PHI, acc, 5, got)
    assert list(got.terms.values()) == [Fraction(3, 5), Fraction(2, 5)]


# -- reference parity: the integral test as one joint expansion per block --


def reference_joint_integrates_to_zero(inv):
    """The integral test with each phi block of degree >= 2 collected from one
    joint Leibniz expansion over every placement of every term, nothing
    memoized."""
    for s in sorted(inv.degrees()):
        block = inv.filter(lambda m, s=s: m.sigma == s)
        if inv.kind == PSI or s < 2:
            if first_slot_residue(block):
                return False
            continue
        placements = [
            calculus._off_factor(m, c, k) for m, c in block.terms.items() for k in range(s)
        ]
        if calculus._collect(PHI, *calculus._leibniz(placements)):
            return False
    return True


def cold_memo(monkeypatch):
    monkeypatch.setattr(calculus, "_Y_MEMO", {})
    monkeypatch.setattr(calculus, "_y_memo_size", 0)


def assert_memo_parity(monkeypatch, inv):
    """The integral test agrees with the joint expansion with the memo cold,
    then warm; returns the answer."""
    want = reference_joint_integrates_to_zero(inv)
    cold_memo(monkeypatch)
    assert integrates_to_zero(inv) == want
    if want:
        # every block was tested, so every monomial of sigma >= 2 expanded
        assert set(calculus._Y_MEMO) == {m.edges for m in inv.terms if m.sigma > 1}
    assert integrates_to_zero(inv) == want
    return want


def cancelling_pair():
    """Two sigma = 3 monomials whose Y's cancel at coefficients 1 and 1/2,
    though neither integrates to zero alone."""
    a = ContractionMonomial(PHI, ((0, 0, 2), (0, 2, 0), (2, 1, 0)))
    b = ContractionMonomial(PHI, ((0, 2, 0), (2, 0, 0), (0, 0, 3)))
    return monomial_invariant(a), monomial_invariant(b)


def test_memoized_integral_test_matches_the_joint_expansion_on_coexact_draws(monkeypatch):
    rng = random.Random(39)
    drawn = 0
    for w, sigma, restriction in [
        (4, 2, None), (5, 2, None), (6, 3, None), (7, 3, None),
        (5, 4, ((1, 1),) * 4), (8, 4, None),
    ]:
        for _ in range(2):
            inv = random_coexact_invariant(w, sigma, rng, restriction)
            drawn += len(inv.terms) > 1
            assert assert_memo_parity(monkeypatch, inv)
            assert assert_memo_parity(monkeypatch, inv.scale(Fraction(13, 21)))
            if sigma == 3:
                assert not assert_memo_parity(monkeypatch, inv + cancelling_pair()[0])
    assert drawn >= 10


def test_memoized_integral_test_matches_the_joint_expansion_on_basis_combinations(monkeypatch):
    """Combinations of a whole monomial basis, with coefficients over
    distinct denominators, that are not co-exact."""
    rng = random.Random(139)
    refused = 0
    for w, sigma, floor in [
        (4, 2, None), (5, 2, None), (6, 2, None), (6, 3, None), (7, 3, None),
        (8, 4, None), (5, 3, (1, 1)), (5, 4, (1, 1)),
    ]:
        monos = enumerate_monomials(w, sigma, floor and [floor] * sigma)
        for _ in range(2):
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7))) for _ in monos]
            inv = Invariant(PHI, (0, 0), list(zip(monos, coeffs)))
            refused += not assert_memo_parity(monkeypatch, inv)
    assert refused >= 14


def test_memoized_integral_test_on_mixed_degree_input(monkeypatch):
    rng = random.Random(239)
    c2 = random_coexact_invariant(5, 2, rng)
    c3 = random_coexact_invariant(7, 3, rng)
    single = monomial_invariant(ContractionMonomial(PHI, ((2,),)))
    bare = monomial_invariant(ContractionMonomial(PHI, ((0,),)))
    a, _ = cancelling_pair()
    assert assert_memo_parity(monkeypatch, c2 + c3 + single)
    assert assert_memo_parity(monkeypatch, c2 + c3 + chern_invariant((2, 1, 1)))
    assert not assert_memo_parity(monkeypatch, c2 + c3 + bare)
    assert not assert_memo_parity(monkeypatch, c2 + c3 + a)
    # warm from the blocks above, then cold again
    assert not integrates_to_zero(c2 + a)
    assert not assert_memo_parity(monkeypatch, c2 + a)


def test_memoized_integral_test_when_two_monomials_cancel(monkeypatch):
    a, b = cancelling_pair()
    assert not assert_memo_parity(monkeypatch, a)
    assert not assert_memo_parity(monkeypatch, b)
    assert assert_memo_parity(monkeypatch, a + b.scale(Fraction(1, 2)))
    # distinct denominators, 3 and 6
    pair = a.scale(Fraction(1, 3)) + b.scale(Fraction(1, 6))
    assert sorted(c.denominator for c in pair.terms.values()) == [3, 6]
    assert assert_memo_parity(monkeypatch, pair)
    assert not assert_memo_parity(monkeypatch, a.scale(Fraction(1, 3)) + b.scale(Fraction(1, 5)))


def _counted_leibniz(monkeypatch):
    calls = []
    original = calculus._leibniz

    def counted(placements):
        calls.append(len(placements))
        return original(placements)

    monkeypatch.setattr(calculus, "_leibniz", counted)
    return calls


def test_a_warm_integral_test_expands_nothing(monkeypatch):
    """Each monomial is expanded once, alone; an invariant whose monomials
    are all memoized is tested without one Leibniz expansion."""
    rng = random.Random(339)
    a, b = cancelling_pair()
    inv = random_coexact_invariant(7, 3, rng) + random_coexact_invariant(5, 2, rng)
    inv += a + b.scale(Fraction(1, 2))
    cold_memo(monkeypatch)
    calls = _counted_leibniz(monkeypatch)
    assert integrates_to_zero(inv)
    assert sorted(calls) == sorted(m.sigma for m in inv.terms)
    assert set(calculus._Y_MEMO) == {m.edges for m in inv.terms}
    calls.clear()
    assert integrates_to_zero(inv)
    assert not integrates_to_zero(inv + a.scale(3))
    assert integrates_to_zero(inv.scale(Fraction(-5, 3)))
    assert calls == []


def test_the_memo_clears_past_its_limit_and_keeps_no_oversized_expansion(monkeypatch):
    a, b = (next(iter(m.terms)) for m in cancelling_pair())
    big = next(iter(chern_invariant((4,)).terms))
    sizes = {m: len(calculus._bare_y(m)[0]) for m in (a, b, big)}
    limit = max(sizes[a], sizes[b])
    assert sizes[a] + sizes[b] > limit and sizes[big] > limit
    want = {m: reference_joint_integrates_to_zero(monomial_invariant(m)) for m in (a, b, big)}
    cold_memo(monkeypatch)
    monkeypatch.setattr(calculus, "_Y_MEMO_LIMIT", limit)
    calls = _counted_leibniz(monkeypatch)
    for mono, stored in ((a, [a]), (b, [b]), (big, [b]), (b, [b])):
        assert integrates_to_zero(monomial_invariant(mono)) == want[mono]
        assert list(calculus._Y_MEMO) == [m.edges for m in stored]
        assert calculus._y_memo_size == sizes[stored[0]]
    # a, b and big were each expanded once, and the last b was memoized
    assert calls == [3, 3, 4]

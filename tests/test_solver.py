"""Witness search: enumeration, decomposition, verification."""

import random
from fractions import Fraction

import pytest

from invar import monomials, solver
from invar.calculus import divergence, integrates_to_zero
from invar.chern import chern_invariant, chern_reduce, partitions_of
from invar.invariants import Invariant, monomial_invariant, zero_invariant
from invar.linalg import LinearSystem
from invar.monomials import PHI, PSI, ContractionMonomial, _meets_floors
from invar.solver import (
    _SYSTEM_CACHE,
    Decomposition,
    InfeasibleError,
    NotCoexactError,
    decompose,
    enumerate_monomials,
    random_coexact_invariant,
    verify_decomposition,
)


def test_enumerate_small_scalar_cases():
    assert enumerate_monomials(2, 1) == [ContractionMonomial(PHI, ((2,),))]
    assert enumerate_monomials(3, 1) == [ContractionMonomial(PHI, ((3,),))]
    four_two = enumerate_monomials(4, 2)
    assert len(four_two) == 3
    assert ContractionMonomial(PHI, ((1, 1), (1, 1))).canonical() in four_two


def test_enumerate_is_sorted_and_deterministic():
    a = enumerate_monomials(5, 2)
    b = enumerate_monomials(5, 2)
    assert a == b
    assert a == sorted(a, key=lambda m: m.sort_key())
    assert all(m == m.canonical() for m in a)


def test_enumerate_with_valence_and_restriction():
    one_forms = enumerate_monomials(2, 1, valence=(1, 0))
    assert one_forms == [ContractionMonomial(PHI, ((2,),), (1,), (0,))]
    loose = enumerate_monomials(1, 1, restriction=((1, 1),))
    assert loose == [ContractionMonomial(PHI, ((1,),))]
    assert enumerate_monomials(1, 1) == []


@pytest.mark.parametrize("sigma", [0, -1, 1.0, True])
def test_enumeration_refuses_a_sigma_below_one_or_not_an_integer(sigma):
    # sigma = 0 used to recurse without end through compositions(p, 0)
    with pytest.raises(ValueError, match="^sigma must be"):
        enumerate_monomials(2, sigma)
    for weight in (0, 4):
        with pytest.raises(ValueError, match="^sigma must be"):
            random_coexact_invariant(weight, sigma, random.Random(0))


def test_enumeration_of_a_negative_weight_is_empty_and_checks_its_input():
    for sigma in (1, 2, 3):
        assert enumerate_monomials(-1, sigma) == []
        assert enumerate_monomials(-2, sigma, [(0, 0)] * sigma, (1, 0)) == []
    with pytest.raises(ValueError, match="^w must be an integer"):
        enumerate_monomials(2.0, 1)
    with pytest.raises(ValueError, match="^valence must be non-negative"):
        enumerate_monomials(2, 2, valence=(0, -1))
    with pytest.raises(ValueError, match="^restriction list length"):
        enumerate_monomials(-1, 2, restriction=[(2, 2)])


def test_decompose_requires_scalar_phi():
    with pytest.raises(ValueError):
        decompose(monomial_invariant(ContractionMonomial(PSI, ((2,),))))
    with pytest.raises(ValueError):
        decompose(monomial_invariant(ContractionMonomial(PHI, ((2,),), (1,), (0,))))


def test_infeasible_block_leaves_the_cached_system_alone():
    # the (3, 3) cap admits no one-form of weight 2, so no column reaches
    # the single target monomial
    inv = divergence(monomial_invariant(ContractionMonomial(PHI, [[2]], [1], [0])))
    key = (3, 1, ((3, 3),))
    _SYSTEM_CACHE.pop(key, None)
    with pytest.raises(InfeasibleError):
        decompose(inv, ((3, 3),))
    assert _SYSTEM_CACHE[key]["rows"] == {}
    assert _SYSTEM_CACHE[key]["system"] is None


def test_restriction_orders_share_one_cached_system():
    # the list is matched to factors up to relabeling, so both orders name
    # one (5, 2) block: one enumeration, one factorization
    rl = ((2, 1), (1, 2))
    inv = random_coexact_invariant(5, 2, random.Random(0), rl)
    for key in [k for k in _SYSTEM_CACHE if k[:2] == (5, 2)]:
        del _SYSTEM_CACHE[key]
    first = decompose(inv, rl)
    second = decompose(inv, rl[::-1])
    assert verify_decomposition(inv, first)
    assert first.to_json_dict() == second.to_json_dict()
    assert [k for k in _SYSTEM_CACHE if k[:2] == (5, 2)] == [(5, 2, ((1, 2), (2, 1)))]


def test_decompose_zero_input():
    dec = decompose(zero_invariant())
    assert not dec.chern and not dec.t_hol and not dec.t_anti
    assert verify_decomposition(zero_invariant(), dec)


def test_decompose_rejects_squared_trace_with_residue():
    sq = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))
    with pytest.raises(NotCoexactError) as exc:
        decompose(sq)
    assert exc.value.residue == monomial_invariant(ContractionMonomial(PSI, ((4,),)))


def test_decompose_single_trace_power():
    inv = monomial_invariant(ContractionMonomial(PHI, ((3,),)), Fraction(5, 2))
    dec = decompose(inv)
    assert verify_decomposition(inv, dec)
    assert {m.weight for t in (dec.t_hol, dec.t_anti) for m in t.terms} <= {2}


def test_decompose_chern_combination_uses_no_divergence():
    inv = chern_invariant((2,)).scale(2) - chern_invariant((1, 1)).scale(3)
    dec = decompose(inv)
    assert verify_decomposition(inv, dec)
    assert not dec.t_hol and not dec.t_anti
    assert dec.chern == {(2,): Fraction(2), (1, 1): Fraction(-3)}


def test_decompose_matches_chern_reduce_on_coexact_order_zero():
    rng = random.Random(23)
    for sigma in (2, 3):
        for _ in range(3):
            inv = zero_invariant()
            for p in partitions_of(sigma):
                inv = inv + chern_invariant(p).scale(rng.randint(-3, 3))
            if not inv:
                continue
            dec = decompose(inv)
            assert verify_decomposition(inv, dec)
            assert not dec.t_hol and not dec.t_anti
            assert dec.chern == chern_reduce(inv)[0]


def test_decompose_inhomogeneous_blocks():
    t = monomial_invariant(ContractionMonomial(PHI, ((2,),), (1,), (0,)))
    inv = chern_invariant((1,)).scale(2) + divergence(t)
    dec = decompose(inv)
    assert verify_decomposition(inv, dec)


def test_decompose_random_round_trips():
    rng = random.Random(5)
    done = 0
    while done < 12:
        sigma = rng.choice([1, 2, 3])
        w = rng.randint(max(2, sigma), 6)
        inv = random_coexact_invariant(w, sigma, rng)
        if not inv:
            continue
        dec = decompose(inv)
        assert verify_decomposition(inv, dec)
        for t, valence in ((dec.t_hol, (1, 0)), (dec.t_anti, (0, 1))):
            if t:
                assert t.valence == valence
                assert all(_meets_floors(m.signatures, ((2, 2),) * sigma) for m in t.terms)
                assert t.degrees() <= {sigma}
        done += 1


def test_decompose_a_weight_nine_degree_three_block():
    """(w, sigma) = (9, 3) has 1550 generator columns of rank 582."""
    inv = random_coexact_invariant(9, 3, random.Random(9))
    assert inv
    assert verify_decomposition(inv, decompose(inv))


def test_verify_rejects_perturbation():
    inv = chern_invariant((2,))
    dec = decompose(inv)
    bumped = inv + monomial_invariant(ContractionMonomial(PHI, ((1, 1), (1, 1))))
    assert not verify_decomposition(bumped, dec)


def test_random_coexact_samples_integrate_to_zero():
    rng = random.Random(99)
    seen_nonzero = False
    for _ in range(10):
        inv = random_coexact_invariant(rng.randint(2, 6), rng.randint(1, 3), rng)
        assert integrates_to_zero(inv) or not inv
        seen_nonzero = seen_nonzero or bool(inv)
    assert seen_nonzero


@pytest.mark.parametrize("weight, sigma", [(3, 2), (3, 3), (4, 3), (5, 3)])
def test_a_block_without_one_forms_draws_empty_every_time(weight, sigma):
    # w != 2 sigma, so no cycle invariants either: redrawing here never ends
    for valence in ((1, 0), (0, 1)):
        assert enumerate_monomials(weight - 1, sigma, None, valence) == []
    for seed in range(50):
        rng = random.Random(seed)
        state = rng.getstate()
        assert not random_coexact_invariant(weight, sigma, rng)
        assert rng.getstate() == state


def test_decomposition_json_round_trip():
    rng = random.Random(31)
    inv = zero_invariant()
    while not inv:
        inv = random_coexact_invariant(4, 2, rng)
    dec = decompose(inv)
    blob = dec.to_json_dict()
    back = Decomposition.from_json_dict(blob)
    assert back.chern == dec.chern
    assert back.t_hol == dec.t_hol
    assert back.t_anti == dec.t_anti
    assert back.reconstruct() == inv


def reference_reconstruct(dec):
    """The reconstruction one divergence at a time: zero + the sum of the
    scaled Chern invariants + div(t_hol) + div(t_anti)."""
    total = zero_invariant(PHI, (0, 0))
    for p, c in dec.chern.items():
        total = total + chern_invariant(p).scale(c)
    if dec.t_hol:
        total = total + divergence(dec.t_hol)
    if dec.t_anti:
        total = total + divergence(dec.t_anti)
    return total


# every block shape of the decompose benchmark: (sigma, w, (1,1)-restricted)
BENCH_BLOCKS = [
    (1, 2, False), (1, 3, False), (1, 4, False), (2, 4, False), (2, 5, False),
    (2, 6, False), (3, 6, False), (3, 7, False), (3, 5, True), (3, 8, False),
    (4, 5, True),
]


def test_the_one_pass_reconstruction_matches_the_reference():
    witnesses = set()
    for sigma, w, restricted in BENCH_BLOCKS:
        rl = ((1, 1),) * sigma if restricted else None
        rng = random.Random(10 * sigma + w)
        for _ in range(3):
            inv = zero_invariant()
            while not inv:
                inv = random_coexact_invariant(w, sigma, rng, rl)
            dec = decompose(inv, rl)
            assert dec.reconstruct() == reference_reconstruct(dec) == inv, (sigma, w)
            witnesses.add((bool(dec.chern), bool(dec.t_hol), bool(dec.t_anti)))
    # Chern-only, t_hol-only and two-divergence decompositions all occur
    assert {(True, False, False), (False, True, False), (False, True, True)} <= witnesses
    # a mixed-weight input, and witnesses with one divergence part alone
    inv = chern_invariant((2, 1)).scale(Fraction(2, 3)) + random_coexact_invariant(
        7, 3, random.Random(4)
    )
    dec = decompose(inv)
    assert dec.t_anti and dec.reconstruct() == reference_reconstruct(dec) == inv
    for only in (Decomposition(t_hol=dec.t_hol), Decomposition(t_anti=dec.t_anti)):
        assert only.reconstruct() == reference_reconstruct(only)
        assert only.reconstruct()


def test_a_witness_is_acceptable_under_every_order_of_its_list():
    # the floors are matched to factors up to relabeling, so a witness meets
    # the list in either order
    rl = ((3, 2), (2, 2))
    inv = random_coexact_invariant(5, 2, random.Random(1), rl)
    dec = decompose(inv, rl)
    assert dec.t_hol and verify_decomposition(inv, dec)
    for order in (rl, rl[::-1]):
        for t in (dec.t_hol, dec.t_anti):
            assert all(_meets_floors(m.signatures, order) for m in t.terms)


@pytest.fixture
def enumerations(monkeypatch):
    """The enumerate_monomials calls of the solver, from an empty cache."""
    calls = []
    original = solver.enumerate_monomials

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, "enumerate_monomials", counted)
    monkeypatch.setattr(solver, "_SYSTEM_CACHE", {})
    return calls


def test_a_draw_and_its_decompose_enumerate_the_block_once(enumerations):
    # the default list is its own transpose: one (1,0) walk serves both
    # valences, and the decompose reads the draw's block
    inv = random_coexact_invariant(8, 3, random.Random(0))
    assert enumerations == [(7, 3, ((2, 2),) * 3, (1, 0))]
    assert verify_decomposition(inv, decompose(inv))
    assert len(enumerations) == 1


def test_an_asymmetric_list_walks_its_transpose_for_the_conjugates(enumerations):
    restriction = ((2, 1),) * 3
    walks = [(7, 3, restriction, (1, 0)), (7, 3, ((1, 2),) * 3, (1, 0))]
    inv = random_coexact_invariant(8, 3, random.Random(0), restriction)
    assert enumerations == walks
    assert verify_decomposition(inv, decompose(inv, restriction))
    assert enumerations == walks


def _reference_column_space(w, sigma, restriction):
    """(chern, tmonos, columns as {monomial: coeff}) with both valences
    walked and one divergence per generator: the build the conjugate half
    must reproduce."""
    chern = list(partitions_of(sigma)) if w == 2 * sigma else []
    columns = [chern_invariant(p).terms for p in chern]
    tmonos = []
    for valence in ((1, 0), (0, 1)):
        for mono in enumerate_monomials(w - 1, sigma, restriction, valence):
            tmonos.append(mono)
            columns.append(divergence(monomial_invariant(mono)).terms)
    return chern, tmonos, columns


def _indexed(columns):
    rows = {}
    return [{rows.setdefault(m, len(rows)): c for m, c in col.items()} for col in columns]


_PARITY_LISTS = {
    "default": lambda s: None,
    "r11": lambda s: ((1, 1),) * s,
    "r21": lambda s: ((2, 1),) * s,
    "r12-22": lambda s: ((1, 2),) + ((2, 2),) * (s - 1),
    "r32-11": lambda s: ((3, 2),) + ((1, 1),) * (s - 1),
    "r00": lambda s: ((0, 0),) * s,
}


@pytest.mark.parametrize("name", list(_PARITY_LISTS))
def test_the_conjugate_half_matches_the_two_walk_reference(monkeypatch, name):
    monkeypatch.setattr(solver, "_SYSTEM_CACHE", {})
    for sigma in (1, 2, 3):
        restriction = _PARITY_LISTS[name](sigma)
        for w in range(max(2 * sigma - 2, 0), 2 * sigma + 3):
            chern, tmonos, columns = _reference_column_space(w, sigma, restriction)
            entry = solver._column_space(w, sigma, restriction)
            rows = list(entry["rows"])
            assert entry["chern"] == chern
            assert [m._key for m in entry["tmonos"]] == [m._key for m in tmonos], (w, sigma)
            assert entry["nhol"] == sum(m.valence == (1, 0) for m in tmonos)
            got = [{rows[r]: c for r, c in col.items()} for col in entry["columns"]]
            assert got == columns, (w, sigma)
            rank = LinearSystem(_indexed(columns)).rank
            assert LinearSystem(entry["columns"]).rank == rank


def test_a_draw_refuses_a_non_integer_weight_after_a_cached_block():
    # (6.0, 3, ...) hashes like the cached (6, 3, ...) key
    rng = random.Random(4)
    random_coexact_invariant(6, 3, rng)
    with pytest.raises(ValueError, match="^weight must be an integer"):
        random_coexact_invariant(6.0, 3, rng)


# -- the integral test runs only where it decides something --

SQ = monomial_invariant(ContractionMonomial(PHI, ((2, 0), (0, 2))))
SQ_KEY = (4, 2, ((2, 2), (2, 2)))
SQ_RESIDUE = monomial_invariant(ContractionMonomial(PSI, ((4,),)))


@pytest.fixture
def integral_tests(monkeypatch):
    """The blocks decompose runs the integral test on, from an empty cache."""
    calls = []
    original = solver.integrates_to_zero

    def counted(inv):
        calls.append(inv)
        return original(inv)

    monkeypatch.setattr(solver, "integrates_to_zero", counted)
    monkeypatch.setattr(solver, "_SYSTEM_CACHE", {})
    return calls


def test_a_witness_on_a_warm_block_skips_the_integral_test(integral_tests):
    inv = random_coexact_invariant(8, 3, random.Random(0))
    assert verify_decomposition(inv, decompose(inv))
    assert integral_tests == []


def test_a_cold_block_is_tested_once_before_its_columns_are_built(integral_tests):
    inv = random_coexact_invariant(8, 3, random.Random(0))
    solver._SYSTEM_CACHE.clear()
    assert verify_decomposition(inv, decompose(inv))
    assert integral_tests == [inv]
    with pytest.raises(NotCoexactError) as exc:
        decompose(SQ)
    assert exc.value.residue == SQ_RESIDUE
    assert SQ_KEY not in solver._SYSTEM_CACHE
    # a large block raises before its column space would be enumerated
    diag = monomial_invariant(
        ContractionMonomial(PHI, [[3, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    )
    with pytest.raises(NotCoexactError, match="weight 10, degree 4"):
        decompose(diag)
    assert list(solver._SYSTEM_CACHE) == [(8, 3, ((2, 2),) * 3)]
    assert len(integral_tests) == 3


def test_a_non_coexact_block_raises_the_same_error_warm(integral_tests):
    with pytest.raises(NotCoexactError) as cold:
        decompose(SQ)
    decompose(chern_invariant((2,)))
    assert SQ_KEY in solver._SYSTEM_CACHE
    with pytest.raises(NotCoexactError) as warm:
        decompose(SQ)
    assert str(warm.value) == str(cold.value)
    assert warm.value.residue == cold.value.residue == SQ_RESIDUE
    assert integral_tests == [SQ, chern_invariant((2,)), SQ]


def test_an_unreachable_block_is_infeasible_cold_and_warm(integral_tests):
    inv = divergence(monomial_invariant(ContractionMonomial(PHI, [[2]], [1], [0])))
    for _ in range(2):
        with pytest.raises(InfeasibleError):
            decompose(inv, ((3, 3),))
    # once before the cold build, once after the warm solve finds nothing
    assert integral_tests == [inv, inv]
    assert solver._SYSTEM_CACHE[(3, 1, ((3, 3),))]["system"] is None


def test_a_wrong_length_list_is_refused_before_the_integral_test(integral_tests):
    with pytest.raises(ValueError, match="^restriction list length must equal the factor count$"):
        decompose(SQ, [(2, 2)])
    assert integral_tests == []


# -- both caches are bounded --


class _Watched(dict):
    """A cache that records its largest size and how often it was cleared."""

    peak = clears = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))

    def clear(self):
        self.clears += 1
        super().clear()


def _draws_and_witnesses(blocks):
    rng = random.Random(7)
    out = []
    for w, sigma in blocks:
        inv = random_coexact_invariant(w, sigma, rng)
        out.append((inv.to_json_dict(), decompose(inv).to_json_dict()))
    return out


def test_a_cache_over_its_bound_clears_and_the_results_stay(monkeypatch):
    blocks = [(4, 2), (5, 2), (6, 2), (6, 3), (7, 3), (4, 2), (6, 3), (8, 3)]
    monkeypatch.setattr(monomials, "_CANONICAL_CACHE", {})
    monkeypatch.setattr(solver, "_SYSTEM_CACHE", {})
    want = _draws_and_witnesses(blocks)
    canonical, systems = _Watched(), _Watched()
    monkeypatch.setattr(monomials, "_CANONICAL_CACHE", canonical)
    monkeypatch.setattr(monomials, "_CANONICAL_LIMIT", 50)
    monkeypatch.setattr(solver, "_SYSTEM_CACHE", systems)
    monkeypatch.setattr(solver, "_SYSTEM_LIMIT", 2)
    assert _draws_and_witnesses(blocks) == want
    assert canonical.clears and canonical.peak <= 50
    assert systems.clears and systems.peak <= 2

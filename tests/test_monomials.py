"""Canonical forms and counts for contraction monomials."""

import ast
import itertools
import random
from pathlib import Path

import pytest

from invar.chern import chern_invariant, height
from invar.combinat import compositions, cycle_successor
from invar.fourier import FourierFunction
from invar.invariants import Invariant
from invar.jets import Potential
from invar.monomials import (
    _CANONICAL_CACHE,
    PHI,
    PSI,
    ContractionMonomial,
    _check_restriction,
    _meets_floors,
    _scalar_canonical,
)
from invar.solver import decompose, enumerate_monomials


def test_factor_swap_gives_same_canonical_phi():
    m = ContractionMonomial(PHI, ((2, 0), (1, 1)))
    swapped = m.apply_permutation((1, 0))
    assert swapped != m
    assert swapped.canonical() == m.canonical()


def test_psi_factor_order_is_fixed():
    a = ContractionMonomial(PSI, ((1, 1), (0, 1)))
    b = a.apply_permutation((1, 0))
    assert a.canonical() == a
    assert b.canonical() == b
    assert a != b


def test_canonical_idempotent_and_relabeling_invariant():
    mono = ContractionMonomial(PHI, ((1, 1, 0), (0, 1, 1), (1, 0, 1)))
    canon = mono.canonical()
    assert canon.canonical() == canon
    for perm in itertools.permutations(range(3)):
        assert mono.apply_permutation(perm).canonical() == canon


def test_compositions_match_the_product_reference_in_order():
    # seeded jet draws and the enumeration index into this order
    for parts in range(1, 6):
        for total in range(7):
            want = [c for c in itertools.product(range(total + 1), repeat=parts) if sum(c) == total]
            assert list(compositions(total, parts)) == want
    assert list(compositions(-1, 2)) == []
    with pytest.raises(ValueError, match="at least one part"):
        list(compositions(2, 0))


def test_signature_and_count_bookkeeping():
    # factor signatures (3,2) and (2,3)
    m = ContractionMonomial(PHI, ((1, 2), (1, 1)))
    assert m.signatures == ((3, 2), (2, 3))
    assert m.weight == 5


def test_single_factor_counts():
    m = ContractionMonomial(PHI, ((3,),))
    assert m.weight == 3


def test_signatures_recomputed_from_edges_and_free_slots():
    m = ContractionMonomial(PHI, ((1, 1), (0, 2)), (1, 0), (0, 1))
    for i in range(2):
        assert m.A(i) == sum(m.edges[i]) + m.free_hol[i]
        assert m.B(i) == sum(row[i] for row in m.edges) + m.free_anti[i]
    assert m.valence == (1, 1)


def test_acceptability_floor():
    assert _meets_floors(ContractionMonomial(PHI, ((2,),)).signatures, ((2, 2),))
    bad = ContractionMonomial(PHI, ((1, 1), (0, 1)), (0, 0), (0, 1))
    assert (2, 1) in bad.signatures or (1, 2) in bad.signatures
    assert not _meets_floors(bad.signatures, ((2, 2),) * 2)
    # a looser restriction can admit it
    assert _meets_floors(bad.signatures, ((1, 2), (2, 1)))


def test_phi_floors_match_up_to_relabeling():
    # signatures (2, 1) and (1, 2)
    phi = ContractionMonomial(PHI, ((1, 1), (0, 1)))
    assert phi.signatures == ((2, 1), (1, 2))
    as_given, swapped = ((2, 1), (1, 2)), ((1, 2), (2, 1))
    assert _meets_floors(phi.signatures, as_given)
    assert _meets_floors(phi.signatures, swapped)
    # one factor must take each entry: two (2, 1) floors do not fit
    assert not _meets_floors(phi.signatures, ((2, 1), (2, 1)))


def test_the_restriction_list_is_checked_into_sorted_order():
    # floors are matched up to relabeling, so one sorted list serves every order
    assert _check_restriction(((3, 2), (2, 2)), 2) == ((2, 2), (3, 2))
    assert _check_restriction([[2, 2], [3, 2]], 2) == ((2, 2), (3, 2))
    assert _check_restriction(None, 3) == ((2, 2),) * 3


def _some_assignment_meets_floors(sigs, restriction):
    """Reference: try every assignment of the restriction's entries to factors."""
    return any(
        all(A >= a and B >= b for (A, B), (a, b) in zip(perm, restriction))
        for perm in itertools.permutations(sigs)
    )


def test_the_sorted_floor_scan_matches_a_search_over_every_assignment():
    """Every case with sigma <= 2 and entries 0..3, then 3000 seeded draws
    each at sigma = 3, 4 and 5.  A scan that skips the sort by B, or takes
    the entries in increasing order, disagrees on hundreds of them."""
    pairs = list(itertools.product(range(4), repeat=2))
    cases = [
        (sigs, restriction)
        for sigma in (1, 2)
        for sigs in itertools.product(pairs, repeat=sigma)
        for restriction in itertools.product(pairs, repeat=sigma)
    ]
    rng = random.Random(5)
    for sigma in (3, 4, 5):
        for _ in range(3000):
            sigs, restriction = (
                tuple((rng.randint(0, 3), rng.randint(0, 3)) for _ in range(sigma))
                for _ in range(2)
            )
            cases.append((sigs, restriction))
    for sigs, restriction in cases:
        want = _some_assignment_meets_floors(sigs, restriction)
        assert _meets_floors(sigs, restriction) == want, (sigs, restriction)


def test_trace_count():
    m = ContractionMonomial(PHI, ((2, 1), (0, 1)), (0, 1), (1, 0))
    assert height(m) == 3


def test_conjugate_transposes_and_swaps_free_slots():
    m = ContractionMonomial(PHI, ((1, 2), (0, 1)), (1, 0), (0, 2))
    c = m.conjugate()
    assert c.edges == ((1, 0), (2, 1))
    assert c.free_hol == (0, 2)
    assert c.free_anti == (1, 0)
    assert c.conjugate() == m


def test_validation_errors():
    with pytest.raises(ValueError):
        ContractionMonomial("chi", ((1,),))
    with pytest.raises(ValueError):
        ContractionMonomial(PHI, ((1, 0),))
    with pytest.raises(ValueError):
        ContractionMonomial(PHI, ((-1,),))
    with pytest.raises(ValueError):
        ContractionMonomial(PHI, ((1,),), (1, 2))


@pytest.mark.parametrize(
    "build, field",
    [
        (lambda: ContractionMonomial(PHI, [[2.7]]), "edges"),
        (lambda: ContractionMonomial(PHI, [[2]], [0.0]), "free_hol"),
        (lambda: decompose(chern_invariant((1,)), [(2.9, 2)]), "restriction"),
        (lambda: chern_invariant((2.5,)), "partition"),
        (lambda: Invariant(PHI, (0.0, 0), []), "valence"),
        (lambda: Potential.numeric(1.0, {}), "n"),
        (lambda: FourierFunction(1, {(0.5, 1): 1}), "mode"),
    ],
    ids=["edges", "free-slots", "restriction", "partition", "valence", "dim", "mode"],
)
def test_constructors_refuse_non_integers(build, field):
    # a truncating int() would accept each of these as a nearby integer
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        build()


def test_immutability():
    m = ContractionMonomial(PHI, ((2,),))
    with pytest.raises(AttributeError):
        m.sigma = 3


# -- brute-force references: every candidate monomial is built before the ---
# -- acceptability test, and every relabeled monomial before the comparison --


def _reference_canonical(mono, memo):
    """Min over every relabeled monomial, each built through apply_permutation."""
    if mono not in memo:
        relabeled = (
            mono.apply_permutation(perm)
            for perm in itertools.permutations(range(mono.sigma))
        )
        memo[mono] = min(
            relabeled, key=lambda m: (m.signatures, m.edges, m.free_hol, m.free_anti)
        )
    return memo[mono]


def _reference_edge_matrices(w, sigma):
    cells = sigma * sigma
    mat = [0] * cells

    def rec(idx, rest):
        if idx == cells - 1:
            mat[idx] = rest
            yield tuple(tuple(mat[i * sigma : (i + 1) * sigma]) for i in range(sigma))
            return
        for v in range(rest + 1):
            mat[idx] = v
            yield from rec(idx + 1, rest - v)

    yield from rec(0, w)


def _reference_enumerate(w, sigma, restriction, valence, memo):
    """Build every candidate monomial, then keep the acceptable ones.  Each
    floor is tested at its own position, not through _meets_floors, so a
    class is kept when one of its labelings meets the list as given."""
    floors = restriction or ((2, 2),) * sigma
    out = set()
    for free_hol in compositions(valence[0], sigma):
        for free_anti in compositions(valence[1], sigma):
            for edges in _reference_edge_matrices(w, sigma):
                mono = ContractionMonomial(PHI, edges, free_hol, free_anti)
                if all(mono.A(i) >= a and mono.B(i) >= b for i, (a, b) in enumerate(floors)):
                    out.add(_reference_canonical(mono, memo))
    return sorted(out, key=lambda m: m.sort_key())


# (sigma, highest w under the default restriction, highest w under the
# others): the reference builds every candidate, so the loose restrictions
# stop short of w = 2*sigma + 2 at sigma = 3 and 4.  (2, 1) is not symmetric
# under conjugation, so a swap of the row and column tests shows at every
# valence.  For sigma <= 3 under the default and (1,1) restrictions, w runs
# from where enumerate_monomials returns [] by counting (w + p or w + q below
# the floors' sum) to where it walks, so an off-by-one in that check shows.
_ENUMERATION_GRID = ((1, 4, 4), (2, 6, 6), (3, 8, 5), (4, 4, 2))

# non-uniform lists, walked for w = 0..5: the reference tests each floor at
# its own position, so it keeps a class when some labeling meets the list,
# which the enumeration's assignment of entries to factors must reproduce
_MIXED_RESTRICTIONS = (
    ((2, 2), (1, 1)),
    ((2, 1), (0, 2)),
    ((2, 2), (1, 1), (0, 0)),
    ((2, 1), (0, 2), (1, 1)),
)


@pytest.mark.parametrize("valence", [(0, 0), (1, 0), (0, 1)])
def test_enumeration_matches_the_build_then_filter_reference(valence):
    memo = {}
    cases = [
        (w, sigma, restriction)
        for sigma, default_max, loose_max in _ENUMERATION_GRID
        for restriction, w_max in (
            (None, default_max),
            (((1, 1),) * sigma, loose_max),
            (((0, 0),) * sigma, loose_max),
            (((2, 1),) * sigma, loose_max),
        )
        for w in range(w_max + 1)
    ]
    cases += [
        (w, len(restriction), restriction)
        for restriction in _MIXED_RESTRICTIONS
        for w in range(6)
    ]
    for w, sigma, restriction in cases:
        got = enumerate_monomials(w, sigma, restriction, valence)
        want = _reference_enumerate(w, sigma, restriction, valence, memo)
        assert got == want, (w, sigma, restriction)
        assert [m._key for m in got] == [m._key for m in want]


def test_canonical_matches_the_relabel_every_monomial_reference():
    rng = random.Random(2024)
    memo = {}
    for _ in range(400):
        sigma = rng.randint(2, 5)
        edges = [[rng.choice((0, 0, 1, 2)) for _ in range(sigma)] for _ in range(sigma)]
        free_hol = [rng.choice((0, 0, 1)) for _ in range(sigma)]
        free_anti = [rng.choice((0, 0, 1)) for _ in range(sigma)]
        free_hol[rng.randrange(sigma)] += 1
        mono = ContractionMonomial(PHI, edges, free_hol, free_anti)
        _CANONICAL_CACHE.pop(mono._key, None)
        assert mono.canonical()._key == _reference_canonical(mono, memo)._key


@pytest.mark.parametrize("restriction", _MIXED_RESTRICTIONS[2:])
def test_enumeration_ignores_the_order_of_the_restriction_list(restriction):
    for valence in ((0, 0), (1, 0), (0, 1)):
        for w in range(3, 7):
            want = enumerate_monomials(w, 3, restriction, valence)
            for perm in itertools.permutations(restriction):
                assert enumerate_monomials(w, 3, perm, valence) == want, (w, perm)


def _tied_monomials():
    """Phi-monomials whose signatures tie in whole blocks, each relabeled."""
    rng = random.Random(19)

    def relabeled(edges, free_hol=None, free_anti=None):
        mono = ContractionMonomial(PHI, edges, free_hol, free_anti)
        perm = list(range(mono.sigma))
        rng.shuffle(perm)
        return mono.apply_permutation(perm)

    def permutation_matrix(sigma):
        perm = list(range(sigma))
        rng.shuffle(perm)
        return [[int(j == perm[i]) for j in range(sigma)] for i in range(sigma)]

    out = []
    # every signature equal: Chern cycle monomials I + P ...
    partitions = ((3,), (2, 1), (4, 2), (3, 3), (2, 2, 1, 1), (7,), (4, 3), (3, 2, 2))
    for partition in partitions:
        succ = cycle_successor(partition)
        factors = range(sum(partition))
        edges = [[int(i == j) + int(succ[i] == j) for j in factors] for i in factors]
        out.append(relabeled(edges))
    # ... and permutation matrices plus k * I
    for sigma in (4, 5, 6, 7):
        for k in (0, 1, 2):
            edges = permutation_matrix(sigma)
            for i in range(sigma):
                edges[i][i] += k
            out.append(relabeled(edges))
    # sums of permutation matrices tie every edge signature; free slots on
    # some factors split the factors into two or three tied groups
    for sigma in (5, 5, 6, 6, 6, 6, 7, 7):
        edges = [[0] * sigma for _ in range(sigma)]
        for _ in range(rng.randint(1, 3)):
            for i, row in enumerate(permutation_matrix(sigma)):
                edges[i] = [x + y for x, y in zip(edges[i], row)]
        groups = [rng.randrange(3) for _ in range(sigma)]
        free_hol = [int(g > 0) for g in groups]
        free_anti = [int(g > 1) for g in groups]
        out.append(relabeled(edges, free_hol, free_anti))
    return out


def test_canonical_matches_the_reference_on_tied_signatures():
    memo = {}
    for mono in _tied_monomials():
        assert len(set(mono.signatures)) < mono.sigma
        _CANONICAL_CACHE.pop(mono._key, None)
        assert mono.canonical()._key == _reference_canonical(mono, memo)._key, mono


def test_enumeration_builds_only_signature_sorted_matrices(monkeypatch):
    # one canonical call per kept matrix with sorted signatures, 252 and 60
    # here; canonicalizing every acceptable matrix would make 1134 and 240
    calls = []
    canonical = ContractionMonomial.canonical
    monkeypatch.setattr(
        ContractionMonomial, "canonical", lambda m: calls.append(1) or canonical(m)
    )
    enumerate_monomials(7, 3, valence=(1, 0))
    assert len(calls) <= 252
    calls.clear()
    enumerate_monomials(4, 4, ((1, 1),) * 4, (1, 0))
    assert len(calls) <= 60


def test_monomials_wrapped_raw_equal_the_validated_ones():
    """enumerate_monomials, canonical(), conjugate(), apply_permutation() and
    _scalar_canonical skip the constructor's checks: each result must be the
    monomial the validating constructor makes of the same tuples."""
    scalars = enumerate_monomials(6, 3)
    monos = enumerate_monomials(7, 3, valence=(1, 0))
    monos += enumerate_monomials(7, 3, valence=(0, 1)) + scalars
    built = list(monos)
    for mono in monos:
        for perm in itertools.permutations(range(3)):
            relabeled = mono.apply_permutation(perm)
            conjugate = relabeled.conjugate()
            for m in (relabeled, conjugate):
                _CANONICAL_CACHE.pop(m._key, None)
            built += [relabeled, conjugate, relabeled.canonical(), conjugate.canonical()]
    for mono in scalars:
        for kind in (PHI, PSI):
            _CANONICAL_CACHE.pop((kind, mono.edges, (0,) * 3, (0,) * 3), None)
            built.append(_scalar_canonical(kind, mono.edges))
    for m in built:
        valid = ContractionMonomial(m.kind, m.edges, m.free_hol, m.free_anti)
        assert m == valid and hash(m) == hash(valid), m
        assert m.sigma == valid.sigma and m._key == valid._key


def test_only_monomials_names_the_canonical_memo():
    """The memo's key layout is read in one module: every other module goes
    through canonical() or monomials' own lookup."""
    src = Path(__file__).resolve().parent.parent / "src" / "invar"
    paths = sorted(src.glob("*.py"))
    names = {
        path.name: {
            getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        }
        for path in paths
    }
    assert "_CANONICAL_CACHE" in names["monomials.py"]
    assert [name for name, found in names.items() if "_CANONICAL_CACHE" in found] == ["monomials.py"]

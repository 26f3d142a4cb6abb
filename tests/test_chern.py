"""Cycle invariants of the curvature variation and the all-trace reduction."""

import random
import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from invar import chern
from invar.calculus import integrates_to_zero
from invar.chern import (
    _read_partition,
    chern_invariant,
    chern_reduce,
    height,
    partitions_of,
)
from invar.invariants import Invariant, monomial_invariant
from invar.combinat import cycle_successor, perm_sign
from invar.monomials import PHI, ContractionMonomial
from invar.solver import enumerate_monomials

LAP2 = ContractionMonomial(PHI, ((2,),))
CROSS = ContractionMonomial(PHI, ((1, 1), (1, 1)))
FULL = ContractionMonomial(PHI, ((0, 2), (2, 0)))
SQ = ContractionMonomial(PHI, ((2, 0), (0, 2)))


def test_partitions_enumeration():
    assert partitions_of(1) == [(1,)]
    assert partitions_of(2) == [(2,), (1, 1)]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(4)) == 5


def test_closed_forms_small_partitions():
    assert chern_invariant((1,)) == monomial_invariant(LAP2)
    assert chern_invariant((2,)) == Invariant(
        PHI, (0, 0), [(CROSS, 1), (FULL, -1)]
    )
    assert chern_invariant((1, 1)) == Invariant(
        PHI, (0, 0), [(SQ, 1), (CROSS, -1)]
    )


def test_partition_argument_is_normalized():
    assert chern_invariant((1, 2)) == chern_invariant((2, 1))
    with pytest.raises(ValueError):
        chern_invariant((0,))
    with pytest.raises(ValueError):
        chern_invariant(())


def test_basis_sizes_and_homogeneity():
    for sigma in (1, 2, 3):
        basis = [chern_invariant(p) for p in partitions_of(sigma)]
        assert len(basis) == len(partitions_of(sigma))
        for inv in basis:
            assert {m.weight for m in inv.terms} == {2 * sigma}
            assert inv.degrees() == {sigma}
            assert all(
                s == (2, 2) for m in inv.terms for s in m.signatures
            )


def test_cycle_invariants_integrate_to_zero():
    for sigma in (1, 2, 3, 4):
        for p in partitions_of(sigma):
            assert integrates_to_zero(chern_invariant(p))


def test_heights():
    assert height(SQ) == 4
    assert height(CROSS) == 2
    assert height(FULL) == 0


def test_reduce_recognizes_cycle_invariants():
    for sigma in (1, 2, 3):
        for p in partitions_of(sigma):
            chern, rest = chern_reduce(chern_invariant(p))
            assert chern == {p: Fraction(1)}
            assert not rest


def test_reduce_cross_trace_term():
    chern, rest = chern_reduce(monomial_invariant(CROSS))
    assert chern == {(2,): Fraction(1)}
    assert rest == monomial_invariant(FULL)


def test_reduce_squared_trace():
    chern, rest = chern_reduce(monomial_invariant(SQ))
    assert chern == {(1, 1): Fraction(1), (2,): Fraction(1)}
    assert rest == monomial_invariant(FULL)


def test_reduce_rejects_wrong_type():
    with pytest.raises(ValueError):
        chern_reduce(monomial_invariant(ContractionMonomial(PHI, ((3,),))))


def test_reduce_reconstruction_and_trace_free_remainder():
    rng = random.Random(11)
    for sigma in (2, 3):
        basis = enumerate_monomials(2 * sigma, sigma)
        for _ in range(6):
            inv = Invariant(
                PHI,
                (0, 0),
                [(m, Fraction(rng.randint(-4, 4))) for m in basis],
            )
            chern, rest = chern_reduce(inv)
            total = rest
            for p, c in chern.items():
                total = total + chern_invariant(p).scale(c)
            assert total == inv
            for m in rest.terms:
                assert any(m.edges[i][i] == 0 for i in range(m.sigma))


def test_reduce_refuses_psi_and_non_scalar_invariants():
    vector = monomial_invariant(ContractionMonomial(PHI, [[1]], [1], [1]))
    assert [m.signatures for m in vector.terms] == [((2, 2),)]
    for inv in (chern_invariant((2,)).polarize(), vector):
        with pytest.raises(ValueError, match="scalar phi-invariant"):
            chern_reduce(inv)


def reference_read_partition(mono):
    """The partition parser walking the double traces and the off-diagonal
    out-edges separately, kept to check the cycle-type reading."""
    parts = []
    rest = []
    for i in range(mono.sigma):
        d = mono.edges[i][i]
        if d == 2:
            parts.append(1)
        elif d == 1:
            rest.append(i)
        else:
            raise ValueError("not an all-trace monomial of type (2,2)")
    nxt = {}
    for i in rest:
        outs = [
            j
            for j in range(mono.sigma)
            for _ in range(mono.edges[i][j])
            if j != i
        ]
        if len(outs) != 1:
            raise ValueError("factor is not of type (2,2)")
        nxt[i] = outs[0]
    seen = set()
    for i in rest:
        if i in seen:
            continue
        length = 0
        j = i
        while j not in seen:
            seen.add(j)
            j = nxt[j]
            length += 1
        parts.append(length)
    return tuple(sorted(parts, reverse=True))


def test_read_partition_is_the_cycle_type_of_edges_minus_identity():
    rng = random.Random(23)
    for sigma in range(1, 9):
        factors = range(sigma)
        for p in partitions_of(sigma):
            succ = cycle_successor(p)
            lead = ContractionMonomial(
                PHI, [[int(i == j) + int(succ[i] == j) for j in factors] for i in factors]
            )
            relabeled = []
            for _ in range(3):
                perm = list(factors)
                rng.shuffle(perm)
                relabeled.append(lead.apply_permutation(perm))
            for mono in [lead, *relabeled]:
                assert _read_partition(mono) == reference_read_partition(mono) == p


# -- the process-wide memo ------------------------------------------------------


def test_a_second_chern_invariant_builds_no_monomial(monkeypatch):
    first = chern_invariant((2, 1))
    built = []
    original = chern.ContractionMonomial

    def counted(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(chern, "ContractionMonomial", counted)
    for spelling in ((2, 1), (1, 2), [1, 2]):
        assert chern_invariant(spelling) is first
    assert built == []


def test_the_memo_stores_every_partition_it_builds(monkeypatch):
    want = Invariant(PHI, (0, 0), list(chern_invariant((2, 2)).terms.items()))
    monkeypatch.setattr(chern, "_CHERN_MEMO", {})
    got = chern_invariant((2, 2))
    assert got == want
    assert chern_invariant((2, 2)) is got
    assert chern_invariant((2, 1)) is chern_invariant((1, 2))
    assert list(chern._CHERN_MEMO) == [(2, 2), (2, 1)]


def test_a_degree_seven_partition_is_refused_before_any_monomial(monkeypatch):
    # its 5040 tied terms would take over a minute to canonicalize
    built = []
    monkeypatch.setattr(chern, "ContractionMonomial", lambda *args: built.append(args))
    stored = dict(chern._CHERN_MEMO)
    for partition in ((4, 3), (3, 4), (7,), (1,) * 7, (8, -1)):
        with pytest.raises(ValueError, match=r"^degree 7 is above the limit 6$"):
            chern_invariant(partition)
    assert built == []
    assert chern._CHERN_MEMO == stored


def test_each_term_is_the_cycle_matrix_plus_a_signed_permutation(monkeypatch):
    # the terms are caught as they reach the Invariant constructor, before
    # canonicalization merges them
    built = []

    def record(kind, valence, terms):
        built.append(terms)
        return terms

    monkeypatch.setattr(chern, "Invariant", record)
    monkeypatch.setattr(chern, "_CHERN_MEMO", {})
    assert chern_invariant((2, 4)) is chern_invariant((4, 2))
    assert len(built) == 1
    succ = cycle_successor((4, 2))
    for (mono, sign), tau in zip(built[0], permutations(range(6)), strict=True):
        assert sign == perm_sign(tau)
        assert mono.edges == tuple(
            tuple((j == succ[i]) + (j == tau[i]) for j in range(6)) for i in range(6)
        )


# a subscript assignment, an augmented one, or a mutating dict method
_MUTATES_TERMS = re.compile(
    r"\.terms(\[[^\]]*\]\s*([-+*/]?=(?!=))|\.(pop|popitem|update|clear|setdefault)\()"
    r"|del\s+[\w.]*\.terms\["
)


def test_nothing_in_src_mutates_the_terms_the_memo_shares():
    src = Path(chern.__file__).parent
    sites = [
        f"{path.name}:{n}"
        for path in sorted(src.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _MUTATES_TERMS.search(line)
    ]
    assert sites == []
    assert _MUTATES_TERMS.search("inv.terms[m] = c")
    assert _MUTATES_TERMS.search("inv.terms[m] += c")
    assert _MUTATES_TERMS.search("inv.terms.pop(m)")
    assert _MUTATES_TERMS.search("del inv.terms[m]")
    assert not _MUTATES_TERMS.search("inv.terms[m] == c")

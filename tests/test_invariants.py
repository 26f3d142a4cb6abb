"""Formal sums of monomials: algebra, polarization, serialization."""

from fractions import Fraction

import pytest

from invar.calculus import first_slot_residue, local_divergence
from invar.chern import height
from invar.invariants import Invariant, monomial_invariant, zero_invariant
from invar.monomials import PHI, PSI, ContractionMonomial


def lap2_phi():
    return monomial_invariant(ContractionMonomial(PHI, ((2,),)))


def test_terms_collect_under_canonicalization():
    a = ContractionMonomial(PHI, ((2, 0), (1, 1)))
    b = a.apply_permutation((1, 0))
    inv = Invariant(PHI, (0, 0), [(a, 1), (b, 1)])
    assert len(inv) == 1
    assert inv.coefficient(a) == 2
    assert inv.coefficient(b) == 2


def test_zero_coefficients_dropped():
    inv = lap2_phi() - lap2_phi()
    assert not inv
    assert len(inv) == 0
    assert inv == zero_invariant()


def test_kind_and_valence_validation():
    psi = ContractionMonomial(PSI, ((2,),))
    with pytest.raises(ValueError):
        Invariant(PHI, (0, 0), [(psi, 1)])
    open_mono = ContractionMonomial(PHI, ((1,),), (1,), (0,))
    with pytest.raises(ValueError):
        Invariant(PHI, (0, 0), [(open_mono, 1)])
    with pytest.raises(ValueError):
        lap2_phi() + monomial_invariant(psi)
    with pytest.raises(ValueError, match="valence"):
        Invariant(PHI, (-1, 0), [])
    # refused with the message a JSON file gets, not a failed unpacking
    for valence in (5, [0, 0, 0], None):
        with pytest.raises(ValueError, match=r"^valence must be a two-element list, got "):
            Invariant(PHI, valence, [])
    assert Invariant(PHI, [0, 0], []) == zero_invariant()


def test_arithmetic_and_scaling():
    inv = lap2_phi()
    assert (inv + inv) == inv.scale(2)
    assert (-inv) == inv.scale(-1)
    assert inv.scale(Fraction(1, 3)) == Fraction(1, 3) * inv
    assert inv.scale(Fraction(1, 3)).coefficient(ContractionMonomial(PHI, ((2,),))) == Fraction(1, 3)


def test_homogeneity_queries():
    prod = lap2_phi().multiply(lap2_phi())
    assert prod.homogeneous_degree() == 2
    assert {m.weight for m in prod.terms} == {4}
    mixed = prod + lap2_phi()
    with pytest.raises(ValueError):
        mixed.homogeneous_degree()


def test_polarize_single_factor():
    pol = lap2_phi().polarize()
    assert pol.kind == PSI
    assert pol.coefficient(ContractionMonomial(PSI, ((2,),))) == 1


def test_polarize_averages_over_labelings():
    inv = monomial_invariant(ContractionMonomial(PHI, ((1, 0), (0, 2))))
    pol = inv.polarize()
    assert pol.coefficient(ContractionMonomial(PSI, ((1, 0), (0, 2)))) == Fraction(1, 2)
    assert pol.coefficient(ContractionMonomial(PSI, ((2, 0), (0, 1)))) == Fraction(1, 2)


def test_polarize_requires_phi():
    with pytest.raises(ValueError):
        lap2_phi().polarize().polarize()


def test_multiply_merges_factor_lists():
    prod = lap2_phi().multiply(lap2_phi())
    assert prod.coefficient(ContractionMonomial(PHI, ((2, 0), (0, 2)))) == 1
    cube = prod.multiply(monomial_invariant(ContractionMonomial(PHI, ((3,),)), 2))
    assert {m.weight for m in cube.terms} == {7}
    assert cube.degrees() == {3}
    assert next(iter(cube.terms.values())) == 2


def test_multiply_rejects_free_slots():
    open_inv = monomial_invariant(ContractionMonomial(PHI, ((1,),), (1,), (0,)))
    with pytest.raises(ValueError):
        open_inv.multiply(lap2_phi())


def test_filter_by_trace_count():
    i2 = Invariant(
        PHI,
        (0, 0),
        [
            (ContractionMonomial(PHI, ((1, 1), (1, 1))), Fraction(1)),
            (ContractionMonomial(PHI, ((0, 2), (2, 0))), Fraction(-1)),
        ],
    )
    traced = i2.filter(lambda m: height(m) > 0)
    tracefree = i2.filter(lambda m: height(m) == 0)
    assert len(traced) == 1 and len(tracefree) == 1
    assert traced + tracefree == i2


def test_conjugate_is_linear_involution():
    inv = Invariant(
        PHI,
        (1, 2),
        [
            (ContractionMonomial(PHI, ((1, 2), (0, 1)), (1, 0), (0, 2)), Fraction(5, 3)),
            (ContractionMonomial(PHI, ((2, 1), (0, 1)), (0, 1), (2, 0)), Fraction(-1)),
        ],
    )
    conj = inv.conjugate()
    assert conj.valence == (2, 1)
    assert conj.conjugate() == inv


def test_json_round_trip_and_stability():
    inv = Invariant(
        PSI,
        (0, 0),
        [
            (ContractionMonomial(PSI, ((1, 1), (1, 1))), Fraction(-7, 2)),
            (ContractionMonomial(PSI, ((0, 2), (2, 0))), Fraction(1)),
        ],
    )
    blob = inv.to_json_dict()
    assert blob["valence"] == [0, 0]
    assert Invariant.from_json_dict(blob) == inv
    assert inv.to_json_dict() == blob


def test_from_json_rejects_garbage():
    with pytest.raises((ValueError, KeyError, TypeError)):
        Invariant.from_json_dict({"valence": [0, 0]})
    with pytest.raises((ValueError, KeyError, TypeError)):
        Invariant.from_json_dict({"valence": [0, 0], "terms": [{"coeff": "1"}]})


def _term(kind):
    return {"monomial": ContractionMonomial(kind, ((2,),)).to_json_dict(), "coeff": "1"}


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: local_divergence(
                monomial_invariant(ContractionMonomial(PSI, ((1, 1), (1, 1)), (1, 0), (0, 0))), 1
            ),
            "local_divergence expects a scalar invariant",
        ),
        (
            lambda: first_slot_residue(
                monomial_invariant(ContractionMonomial(PHI, ((1,),), (1,), (0,)))
            ),
            "the integral test expects a scalar invariant",
        ),
        (
            lambda: ContractionMonomial.from_json_dict({"kind": PHI, "edges": [[2]], "sigma": 2}),
            "sigma does not match edge matrix size",
        ),
        (
            lambda: lap2_phi().multiply(monomial_invariant(ContractionMonomial(PSI, ((2,),)))),
            "cannot multiply invariants of different kind",
        ),
        (
            lambda: Invariant.from_json_dict({"terms": [_term(PHI), _term(PSI)]}),
            "mixed monomial kinds in invariant",
        ),
    ],
    ids=[
        "local-divergence-one-form",
        "residue-one-form",
        "monomial-sigma-mismatch",
        "multiply-across-kinds",
        "json-mixed-kinds",
    ],
)
def test_malformed_inputs_are_refused_by_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()

"""GaussRat against the Fraction-pair reference it replaced.

The production class keeps three ints ``(p + q*i)/d`` in canonical form; the
reference below is the earlier class that kept ``re`` and ``im`` as two
Fractions and validated every result.  Every public behaviour must agree.
"""

import ast
import copy
import operator
import pickle
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from invar.bergman import build_A
from invar.calculus import local_divergence
from invar.chern import partitions_of
from invar.combinat import compositions
from invar.fourier import random_phi
from invar.invariants import monomial_invariant
from invar.jets import Potential
from invar.monomials import PSI, ContractionMonomial
from invar.rationals import GR_ONE, GR_ZERO, GaussRat, as_fraction, as_gauss
from invar.rings import GaussRing, GradedRing, SymbolicRing
from invar.series import ScalarSeries


class FractionPairGaussRat:
    """The earlier GaussRat: a pair of Fractions, each result validated."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRat is immutable")

    def __add__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussRat(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussRat(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return FractionPairGaussRat(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return FractionPairGaussRat(-self.re, -self.im)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = FractionPairGaussRat(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return FractionPairGaussRat(self.re, -self.im)

    def __eq__(self, other):
        other = _ref_coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        if not self.im:
            return f"GaussRat({self.re})"
        return f"GaussRat({self.re}, {self.im})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _ref_coerce(x):
    if isinstance(x, FractionPairGaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return FractionPairGaussRat(x)
    return NotImplemented


# -- seeded operands ---------------------------------------------------------

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv, operator.eq, operator.ne]


def _rational(rng):
    scale = rng.choice((3, 50, 10**6))
    num = rng.randint(-scale, scale) if rng.random() > 0.15 else 0
    return Fraction(num, rng.randint(1, scale))


def _operand(rng):
    """("gauss", re, im), ("int", n) or ("fraction", x), zero included."""
    kind = rng.random()
    if kind < 0.6:
        return ("gauss", _rational(rng), _rational(rng))
    if kind < 0.8:
        return ("int", rng.choice((0, 1, -1, rng.randint(-10**6, 10**6))))
    return ("fraction", _rational(rng))


def _pair(spec):
    """The operand as the production value and as the reference value."""
    if spec[0] == "gauss":
        return GaussRat(spec[1], spec[2]), FractionPairGaussRat(spec[1], spec[2])
    return spec[1], spec[1]


SPECIAL = [
    ("gauss", Fraction(0), Fraction(0)),
    ("gauss", Fraction(0), Fraction(-7, 3)),
    ("gauss", Fraction(-5, 2), Fraction(0)),
    ("gauss", Fraction(999983, 10**6), Fraction(-(10**6), 999979)),
    ("int", 0),
    ("fraction", Fraction(0)),
]


def _operands(seed, count):
    rng = random.Random(seed)
    return SPECIAL + [_operand(rng) for _ in range(count)]


def _check_canonical(x):
    assert type(x) is GaussRat
    assert x._d > 0
    assert gcd(x._p, x._q, x._d) == 1


def _same(new, ref):
    """Production result and reference result describe the same outcome."""
    if isinstance(ref, FractionPairGaussRat):
        _check_canonical(new)
        assert (new.re, new.im) == (ref.re, ref.im)
        assert type(new.re) is Fraction and type(new.im) is Fraction
        assert str(new) == str(ref)
        assert repr(new) == repr(ref)
        assert bool(new) == bool(ref)
    else:
        assert type(new) is type(ref)
        assert new == ref


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception itself is what is compared
        message = str(exc).replace("FractionPairGaussRat", "GaussRat")
        return "raise", (type(exc), message)


def _agree(fn, new_args, ref_args):
    new, ref = _outcome(fn, *new_args), _outcome(fn, *ref_args)
    assert new[0] == ref[0], (new, ref)
    if new[0] == "raise":
        assert new[1] == ref[1]
    else:
        _same(new[1], ref[1])


# -- parity ------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_operators_match_the_fraction_pair_reference(seed):
    operands = _operands(seed, 40)
    gauss = [s for s in operands if s[0] == "gauss"]
    for left in gauss:
        x_new, x_ref = _pair(left)
        for right in operands:
            y_new, y_ref = _pair(right)
            for op in BINARY:
                _agree(op, (x_new, y_new), (x_ref, y_ref))
                _agree(op, (y_new, x_new), (y_ref, x_ref))


@pytest.mark.parametrize("seed", range(3))
def test_unary_operations_and_powers_match_the_reference(seed):
    for spec in _operands(seed, 60):
        if spec[0] != "gauss":
            continue
        x_new, x_ref = _pair(spec)
        _same(x_new, x_ref)
        _agree(operator.neg, (x_new,), (x_ref,))
        _agree(lambda x: x.conjugate(), (x_new,), (x_ref,))
        for k in range(6):
            _agree(operator.pow, (x_new, k), (x_ref, k))


def test_division_by_zero_is_refused_in_every_form():
    x = GaussRat(Fraction(3, 4), -2)
    for zero in (GR_ZERO, GaussRat(0, 0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="division by zero GaussRat"):
            x / zero
    for numerator in (1, Fraction(1, 2), x):
        with pytest.raises(ZeroDivisionError, match="division by zero GaussRat"):
            numerator / GR_ZERO


def test_constructor_accepts_exact_rationals_and_strings():
    _same(GaussRat("1/2", "-3/4"), FractionPairGaussRat("1/2", "-3/4"))
    assert GaussRat(Fraction(2, 4)).re == Fraction(1, 2)
    assert GaussRat() == 0 and GR_ONE == 1
    assert GaussRat(0, Fraction(6, 4)).im == Fraction(3, 2)
    for x in (GaussRat(Fraction(2, 6), Fraction(5, 10)), GaussRat(-4, 0), GaussRat(0, 0)):
        _check_canonical(x)


def test_rational_strings_are_sign_digits_and_an_optional_denominator():
    for text, want in (("1/2", Fraction(1, 2)), ("-3", -3), ("+4/6", Fraction(2, 3))):
        assert as_fraction(text) == want
        assert GaussRat(text, text) == GaussRat(want, want)
    with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
        as_fraction("1/0")
    for bad in ("0.5", "1e5", "1e200000", " 1/2 ", "1/-2", "1/2/3", "", "inf", "½"):
        with pytest.raises(ValueError, match=r"^not a rational 'p' or 'p/q' string"):
            as_fraction(bad)
        with pytest.raises(ValueError):
            GaussRat(0, bad)


def _ring_elements():
    """A GaussRing value and dict-ring elements with several terms each."""
    values = [GaussRat(Fraction(3, 4), -2), GaussRat(Fraction(-5, 6)), GaussRat(0, 7)]
    keys = [((((2,), (2,)), 1),), ((((2,), (3,)), 2),), ()]
    return [
        (GaussRing(), values[0]),
        (GradedRing(8), dict(enumerate(values))),
        (SymbolicRing(8), dict(zip(keys, values))),
    ]


def test_ring_scale_matches_the_gauss_factor_for_exact_factors():
    factors = [0, 1, -3, 10**20, Fraction(0), Fraction(-7, 9), GR_ZERO, GaussRat(2, -1)]
    for ring, x in _ring_elements():
        for c in factors:
            # the factor as one GaussRat, the way scale took every factor
            g = as_gauss(c)
            got = ring.scale(x, c)
            if isinstance(ring, GaussRing):
                assert got == x * g, c
                _check_canonical(got)
            else:
                assert got == {k: v * g for k, v in x.items() if g}, (ring, c)
                for v in got.values():
                    _check_canonical(v)


@pytest.mark.parametrize("bad", [1.5, 0.0, True, False])
def test_ring_scale_refuses_floats_and_bools(bad):
    for ring, x in _ring_elements():
        with pytest.raises(TypeError, match=f"^not an exact rational: {bad!r}$"):
            ring.scale(x, bad)


@pytest.mark.parametrize("bad", [1.5, 0.0, True, False, None])
def test_inexact_inputs_are_refused_with_the_same_messages(bad):
    for args in ((bad,), (0, bad)):
        with pytest.raises(TypeError) as new:
            GaussRat(*args)
        with pytest.raises(TypeError) as ref:
            FractionPairGaussRat(*args)
        assert str(new.value) == str(ref.value) == f"not an exact rational: {bad!r}"
    x_new, x_ref = _pair(("gauss", Fraction(1, 3), Fraction(2)))
    for op in BINARY:
        _agree(op, (x_new, bad), (x_ref, bad))
        _agree(op, (bad, x_new), (bad, x_ref))


def test_gauss_rat_is_immutable():
    x = GaussRat(1, 2)
    for name in ("re", "im", "_p", "_q", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, 5)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x == GaussRat(1, 2) and str(x) == "1+2i"
    with pytest.raises(AttributeError, match="GaussRat is immutable"):
        x._d = 7
    with pytest.raises(AttributeError, match="GaussRat is immutable"):
        del x._d


def test_gauss_rat_copies_and_pickles_to_an_equal_value():
    for x in (GaussRat(1, 2), GaussRat(Fraction(-3, 4), Fraction(5, 6)), GaussRat(0)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is GaussRat and y == x
            assert (y._p, y._q, y._d) == (x._p, x._q, x._d)


def test_powers_refuse_bools_and_negative_exponents():
    two = GaussRat(2)
    assert two**0 == 1 and two**3 == 8
    for bad in (True, False, -1, 1.0, Fraction(2)):
        with pytest.raises(ValueError, match="exponent must be"):
            two**bad


@pytest.mark.parametrize("seed", range(2))
def test_equal_values_hash_alike(seed):
    values = []
    for spec in _operands(seed, 60):
        if spec[0] == "gauss":
            values += [GaussRat(spec[1], spec[2]), GaussRat(spec[1]), spec[1], spec[2]]
        else:
            values += [spec[1], GaussRat(spec[1])]
    values += [1, Fraction(1), GaussRat(1), GaussRat(Fraction(-1, 2)), Fraction(-1, 2)]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y), (x, y)
    assert 1 in {GaussRat(1)}
    assert GaussRat(Fraction(1, 2)) in {Fraction(1, 2)}
    assert len({GaussRat(1, 1), GaussRat(Fraction(2, 2), 1)}) == 1


_TWO_FACTORS = monomial_invariant(ContractionMonomial(PSI, ((1, 1), (1, 1))))
_GRADED = Potential.graded_numeric(1, {((2,), (2,)): 1}, 2)


def _series_with_key(key):
    return ScalarSeries(GaussRing(), 1, 2, {key: GaussRat(1)})


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partitions_of(2.5), "n must be an integer"),
        (lambda: partitions_of(True), "n must be an integer"),
        (lambda: local_divergence(_TWO_FACTORS, 1.5), "k must be an integer"),
        (lambda: local_divergence(_TWO_FACTORS, True), "k must be an integer"),
        (lambda: next(compositions(2.5, 2)), "total must be an integer"),
        (lambda: next(compositions(True, 2)), "total must be an integer"),
        (lambda: next(compositions(2, 1.5)), "parts must be an integer"),
        (lambda: build_A(_GRADED, 1.5), "jmax must be an integer"),
        (lambda: build_A(_GRADED, True), "jmax must be an integer"),
        (lambda: ScalarSeries(GaussRing(), 1, (2.5, 2.5)), "cap must be an integer"),
        (lambda: ScalarSeries(GaussRing(), 1.5, 2), "n must be an integer"),
        (lambda: ScalarSeries.one(GaussRing(), 1.5, 2), "n must be an integer"),
        (lambda: ScalarSeries.one(GaussRing(), "2", 2), "n must be an integer"),
        (lambda: _GRADED.series(2.5), "cap must be a count or a pair of counts"),
        (lambda: random_phi(0), "need at least one complex dimension"),
        (lambda: _series_with_key(((1.5,), (0,))), "alpha must be an integer"),
        (lambda: _series_with_key(((True,), (0,))), "alpha must be an integer"),
        (lambda: _series_with_key(((1, 1), (0,))), "jet index .* does not match dimension 1"),
        (lambda: _series_with_key(((-1,), (0,))), "negative jet index"),
        (lambda: _series_with_key((1, (0,))), "jet index .* is not a pair of index tuples"),
    ],
    ids=[
        "partitions-float",
        "partitions-bool",
        "local-divergence-float",
        "local-divergence-bool",
        "compositions-total-float",
        "compositions-total-bool",
        "compositions-parts-float",
        "build-A-float",
        "build-A-bool",
        "series-cap-floats",
        "series-n-float",
        "series-one-n-float",
        "series-one-n-string",
        "potential-series-float",
        "random-phi-zero",
        "series-key-float",
        "series-key-bool",
        "series-key-length",
        "series-key-negative",
        "series-key-not-a-pair",
    ],
)
def test_integer_arguments_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        call()


def test_a_graded_or_symbolic_ring_is_equal_only_to_itself():
    for make in (lambda: GradedRing(4), lambda: SymbolicRing(4, linear=True)):
        ring, twin = make(), make()
        assert ring == ring and ring != twin
        x, y = ScalarSeries.one(ring, 1, 2), ScalarSeries.one(twin, 1, 2)
        assert x == ScalarSeries.one(ring, 1, 2) and x != y
        for combine in (x.add, x.mul):
            with pytest.raises(ValueError, match="^series mismatch$"):
                combine(y)
    assert GaussRing() == GaussRing()


_FLOAT_NAMES = {"float", "inf", "nan"}


def _float_hits(tree):
    """Float literals, the names float, inf and nan, and imports of inf or
    nan, each as a line number."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno
        elif isinstance(node, ast.Name) and node.id in _FLOAT_NAMES:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in _FLOAT_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and _FLOAT_NAMES & {a.name for a in node.names}:
            yield node.lineno


def test_no_float_enters_the_package_source():
    """The engine is exact: no float literal, float() call or inf/nan
    sentinel appears anywhere in the package source."""
    src = Path(__file__).resolve().parent.parent / "src" / "invar"
    paths = sorted(src.glob("*.py"))
    assert paths
    hits = [
        f"{path.name}:{line}"
        for path in paths
        for line in sorted(set(_float_hits(ast.parse(path.read_text(encoding="utf-8")))))
    ]
    assert hits == []

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qmodw.algebra import (
    AlgebraicNumber, BASIS_MUL, BASIS_NAMES, I, OMEGA, ONE, SQRT2, SQRT3,
    SQRT6, ZERO,
)
from qmodw.fixtures import STAGES, _load


# A field element is drawn the way AlgebraicNumber stores it: eight
# integer numerators over one denominator.  Denominators up to
# lcm(1..6) = 60 and numerators up to 5 times the denominator cover every
# coordinate tuple in [-5, 5] with denominators up to 6, and more.
DEN_MAX = 60


def over_one_denominator(numerator):
    """Eight Fractions p_i / d: one d drawn, each p_i from ``numerator(d)``."""
    return st.integers(1, DEN_MAX).flatmap(
        lambda d: st.tuples(*[numerator(d)] * 8).map(
            lambda num: tuple(Fraction(p, d) for p in num)))


def small_numerator(d):
    return st.integers(-5 * d, 5 * d)


small_fractions = st.integers(1, DEN_MAX).flatmap(
    lambda d: small_numerator(d).map(lambda p: Fraction(p, d)))
coordinate_tuples = over_one_denominator(small_numerator)
field_elements = coordinate_tuples.map(AlgebraicNumber)
nonzero_elements = field_elements.filter(lambda a: not a.is_zero())


# ---------------------------------------------------------
# Pinned arithmetic facts
# ---------------------------------------------------------

def test_sqrt2_plus_sqrt2():
    assert SQRT2 + SQRT2 == AlgebraicNumber((0, 2, 0, 0, 0, 0, 0, 0))


def test_add_identity():
    a = SQRT3 + I
    assert a + ZERO == a


def test_omega_plus_conj_is_minus_one():
    assert OMEGA + OMEGA.conj() == AlgebraicNumber.from_rational(-1)


def test_sqrt2_times_sqrt3():
    assert SQRT2 * SQRT3 == SQRT6


def test_i_squared():
    assert I * I == AlgebraicNumber.from_rational(-1)


def test_omega_cubed():
    assert OMEGA * OMEGA * OMEGA == ONE


def test_conj_i():
    assert I.conj() == -I


def test_conj_real():
    assert SQRT2.conj() == SQRT2


def test_conj_omega_is_omega_squared():
    assert OMEGA.conj() == OMEGA * OMEGA


def test_inv_sqrt2():
    assert SQRT2.inv() == AlgebraicNumber((0, Fraction(1, 2), 0, 0, 0, 0, 0, 0))


def test_inv_omega():
    assert OMEGA.inv() == OMEGA * OMEGA


def test_inv_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inv()


def test_approx_sqrt2():
    assert abs(SQRT2.approx() - 1.4142135623730951) < 1e-12


def test_approx_omega():
    z = OMEGA.approx()
    assert abs(z.real + 0.5) < 1e-12
    assert abs(z.imag - 0.8660254037844386) < 1e-12


def test_approx_zero():
    assert ZERO.approx() == 0


# ---------------------------------------------------------
# Field axioms on randomized elements
# ---------------------------------------------------------

@given(field_elements, field_elements, field_elements)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(field_elements, field_elements)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(field_elements, field_elements)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(field_elements, field_elements, field_elements)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(deadline=1000)
@given(nonzero_elements)
def test_inverse(a):
    assert a * a.inv() == ONE


@given(field_elements, field_elements)
def test_conj_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@given(field_elements)
def test_conj_involution(a):
    assert a.conj().conj() == a


@given(field_elements)
def test_abs_sq_real_and_definite(a):
    sq = a.abs_sq()
    assert all(c == 0 for c in sq.coeffs[4:])
    assert sq.is_zero() == a.is_zero()


def test_basis_closure():
    # products of basis elements land on a single basis element with an
    # integer coefficient
    for a in range(8):
        for b in range(8):
            idx, coef = BASIS_MUL[a][b]
            assert 0 <= idx < 8
            assert coef in (-6, -3, -2, -1, 1, 2, 3, 6)


# ---------------------------------------------------------
# Representation, rendering, encoding
# ---------------------------------------------------------

def test_unique_representation_equality():
    a = AlgebraicNumber((Fraction(1, 2), 1, 0, 0, 0, 0, Fraction(-1, 3), 0))
    b = AlgebraicNumber((Fraction(2, 4), 1, 0, 0, 0, 0, Fraction(-2, 6), 0))
    assert a == b
    assert hash(a) == hash(b)


def test_rational_comparison():
    assert AlgebraicNumber.from_rational(Fraction(3, 2)) == Fraction(3, 2)
    assert ONE == 1
    assert SQRT2 != 1


@given(field_elements)
def test_json_roundtrip(a):
    assert AlgebraicNumber.from_json(a.to_json()) == a


def test_str_rendering():
    a = AlgebraicNumber((Fraction(1, 2), -1, 0, 0, 0, 0, Fraction(1, 3), 0))
    assert str(a) == "1/2 - √2 + 1/3·i√3"
    assert str(ZERO) == "0"
    assert str(-I) == "-i"


def test_approx_matches_exact_on_random(
        sample=((1, 2, 3, 4, 5, 6, 7, 8),
                (0, -1, 2, 0, 1, 0, 0, -3))):
    import math
    for coeffs in sample:
        a = AlgebraicNumber(coeffs)
        c = [float(x) for x in coeffs]
        expected = complex(
            c[0] + c[1] * math.sqrt(2) + c[2] * math.sqrt(3) + c[3] * math.sqrt(6),
            c[4] + c[5] * math.sqrt(2) + c[6] * math.sqrt(3) + c[7] * math.sqrt(6))
        assert abs(a.approx() - expected) < 1e-9


# ---------------------------------------------------------
# The integer representation against a Fraction-tuple reference
# ---------------------------------------------------------

class FractionReference:
    """The field stored as 8 Fractions, one per basis coordinate.

    The representation the integer one replaced, kept as an independent
    reference: every operation here works coordinate by coordinate on
    ``fractions.Fraction`` and shares no code with ``AlgebraicNumber``
    beyond the basis product table.
    """

    def __init__(self, coeffs):
        self.c = tuple(Fraction(x) for x in coeffs)

    def __add__(self, other):
        return FractionReference(a + b for a, b in zip(self.c, other.c))

    def __sub__(self, other):
        return FractionReference(a - b for a, b in zip(self.c, other.c))

    def __neg__(self):
        return FractionReference(-a for a in self.c)

    def __mul__(self, other):
        out = [Fraction(0)] * 8
        for a, ca in enumerate(self.c):
            for b, cb in enumerate(other.c):
                idx, coef = BASIS_MUL[a][b]
                out[idx] += ca * cb * coef
        return FractionReference(out)

    def __truediv__(self, other):
        return self * other.inv()

    def conj(self):
        return FractionReference(self.c[:4] + tuple(-x for x in self.c[4:]))

    def abs_sq(self):
        return self * self.conj()

    def inv(self):
        r = self.abs_sq().c
        s2 = FractionReference((r[0], -r[1], r[2], -r[3], 0, 0, 0, 0))
        s3 = FractionReference((r[0], r[1], -r[2], -r[3], 0, 0, 0, 0))
        s23 = FractionReference((r[0], -r[1], -r[2], r[3], 0, 0, 0, 0))
        prod = s2 * s3 * s23
        norm = (self.abs_sq() * prod).c[0]
        return self.conj() * prod * FractionReference((1 / norm,) + (0,) * 7)

    def approx(self):
        c = [float(x) for x in self.c]
        re = c[0] + c[1] * math.sqrt(2) + c[2] * math.sqrt(3) + c[3] * math.sqrt(6)
        im = c[4] + c[5] * math.sqrt(2) + c[6] * math.sqrt(3) + c[7] * math.sqrt(6)
        return complex(re, im)

    def to_json(self):
        return [[f.numerator, f.denominator] for f in self.c]

    def __str__(self):
        terms = []
        for f, name in zip(self.c, BASIS_NAMES):
            if not f:
                continue
            if name == "1":
                terms.append(str(f))
            elif f == 1:
                terms.append(name)
            elif f == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{f}·{name}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


sparse_tuples = over_one_denominator(
    lambda d: st.just(0) | small_numerator(d))
any_tuples = st.one_of(coordinate_tuples, sparse_tuples)


def assert_canonical(z):
    """Python ints over a positive denominator, gcd 1, zero as 0/1."""
    assert type(z._den) is int and z._den > 0
    assert len(z._num) == 8 and all(type(x) is int for x in z._num)
    assert math.gcd(z._den, *z._num) == 1
    if z.is_zero():
        assert z._den == 1


def assert_agrees(z, ref):
    assert_canonical(z)
    assert z.coeffs == ref.c
    assert all(type(f) is Fraction for f in z.coeffs)


@given(any_tuples, any_tuples)
def test_binary_ops_match_reference(x, y):
    a, b = AlgebraicNumber(x), AlgebraicNumber(y)
    ra, rb = FractionReference(x), FractionReference(y)
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(a * b, ra * rb)
    if not b.is_zero():
        assert_agrees(a / b, ra / rb)


@settings(deadline=1000)
@given(any_tuples)
def test_unary_ops_match_reference(x):
    a, ra = AlgebraicNumber(x), FractionReference(x)
    assert_agrees(-a, -ra)
    assert_agrees(a.conj(), ra.conj())
    assert_agrees(a.abs_sq(), ra.abs_sq())
    if not a.is_zero():
        assert_agrees(a.inv(), ra.inv())
    assert a.to_json() == ra.to_json()
    assert str(a) == str(ra)
    assert a.approx() == ra.approx()
    assert a.rational_part() == ra.c[0]


def test_canonical_form_of_zero_results():
    half = AlgebraicNumber.from_rational(Fraction(1, 2))
    for z in (half - half, ZERO * half, OMEGA + -OMEGA, ZERO.conj(),
              AlgebraicNumber((Fraction(0, 7),) * 8)):
        assert_canonical(z)
        assert z == ZERO and z._num == (0,) * 8


def test_equal_values_built_differently():
    forms = [AlgebraicNumber.from_rational(Fraction(2, 4)),
             AlgebraicNumber.from_rational(Fraction(1, 2)),
             AlgebraicNumber((Fraction(3, 6), 0, 0, 0, 0, 0, 0, 0)),
             AlgebraicNumber.from_json([[2, 4]] + [[0, 3]] * 7),
             ONE / 2, ONE - AlgebraicNumber.from_rational(Fraction(1, 2)),
             SQRT2 * SQRT2 / 4, I * I / -2]
    for z in forms:
        assert_canonical(z)
        assert z == forms[0] and hash(z) == hash(forms[0])
        assert z == Fraction(1, 2) and hash(z) == hash(Fraction(1, 2))
    assert len(set(forms)) == 1


# ---------------------------------------------------------
# Hash contract across field elements, ints and Fractions
# ---------------------------------------------------------

def _rational_forms(r):
    forms = [r, AlgebraicNumber.from_rational(r),
             AlgebraicNumber((r,) + (0,) * 7) + ZERO]
    if r.denominator == 1:
        forms += [int(r), np.int64(int(r))]
    return st.sampled_from(forms)


field_or_rational = st.one_of(
    field_elements, small_fractions.flatmap(_rational_forms))


@given(field_or_rational, field_or_rational)
def test_equal_implies_equal_hash(a, b):
    if a == b:
        assert hash(a) == hash(b)


def test_rational_values_hash_like_python_numbers():
    assert hash(ONE) == hash(1)
    assert len({ONE, 1}) == 1
    assert ONE in {1: 0}
    assert {Fraction(-3, 2): "x"}[AlgebraicNumber.from_rational(Fraction(-3, 2))] == "x"
    assert ZERO in {0}


# ---------------------------------------------------------
# Only exact rationals enter the field
# ---------------------------------------------------------

NOT_RATIONAL = [0.1, 1.0, 1 + 0j, "1/3", Decimal("0.1")]


@pytest.mark.parametrize("value", NOT_RATIONAL, ids=repr)
def test_constructor_rejects_non_rationals(value):
    with pytest.raises(TypeError):
        AlgebraicNumber([value, 0, 0, 0, 0, 0, 0, 0])
    with pytest.raises(TypeError):
        AlgebraicNumber([0, 0, 0, 0, 0, 0, 0, value])


@pytest.mark.parametrize("value", NOT_RATIONAL, ids=repr)
def test_from_rational_rejects_non_rationals(value):
    with pytest.raises(TypeError):
        AlgebraicNumber.from_rational(value)


@pytest.mark.parametrize("value", NOT_RATIONAL, ids=repr)
def test_arithmetic_rejects_non_rationals(value):
    for op in (lambda: ONE + value, lambda: value + ONE, lambda: ONE - value,
               lambda: ONE * value, lambda: value * ONE, lambda: ONE / value):
        with pytest.raises(TypeError):
            op()
    assert ONE != value


def test_numpy_integers_are_exact_rationals():
    big = np.int64(2 ** 62)
    a = AlgebraicNumber([big, 0, 0, 0, 0, 0, 0, np.int32(-3)])
    assert_canonical(a)
    # Stored as Python ints, so squaring does not wrap at 64 bits.
    assert (a * a).rational_part() == 2 ** 124 - 6 * 9
    assert AlgebraicNumber.from_rational(np.int64(5)) == 5
    assert ONE + np.int64(1) == 2


# ---------------------------------------------------------
# The frozen fixtures re-encode to their stored pairs
# ---------------------------------------------------------

def test_gram_fixture_reencodes_exactly():
    for row in _load("gram.json")["entries"]:
        for p, q in row:
            z = AlgebraicNumber.from_rational(Fraction(p, q))
            assert z.to_json() == [[p, q]] + [[0, 1]] * 7


def test_state_table_fixture_reencodes_exactly():
    raw = _load("state_table.json")
    for stage in STAGES:
        for bits in raw["order"]:
            for entry in raw[stage][bits]:
                assert AlgebraicNumber.from_json(entry).to_json() == entry

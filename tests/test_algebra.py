import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from qmodw.algebra import (
    AlgebraicNumber, BASIS_MUL, BASIS_NAMES, I, OMEGA, ONE, SQRT2, SQRT3,
    SQRT6, ZERO,
)
from qmodw.fixtures import STAGES, _load
from qmodw.linalg import StateVector, inner

# A wrong entry of the multiplication table fails the tests that multiply
# on almost every example, and shrinking such a failure takes minutes.
# Those tests skip the shrink phase and report the first failing example.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


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


# ---------------------------------------------------------
# Field axioms on randomized elements
# ---------------------------------------------------------

@settings(phases=NO_SHRINK)
@given(field_elements, field_elements, field_elements)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(phases=NO_SHRINK)
@given(field_elements, field_elements)
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(field_elements, field_elements)
def test_add_commutative(a, b):
    assert a + b == b + a


@given(field_elements, field_elements, field_elements)
def test_distributive(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(field_elements, field_elements)
def test_conj_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


@given(field_elements)
def test_conj_involution(a):
    assert a.conj().conj() == a


@given(field_elements)
def test_abs_sq_real_and_definite(a):
    # |a|^2 is <v|v> of the one-entry state v = (a).
    v = StateVector([a])
    sq = inner(v, v)
    assert sq == a * a.conj()
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

    def conj(self):
        return FractionReference(self.c[:4] + tuple(-x for x in self.c[4:]))

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


@settings(phases=NO_SHRINK)
@given(any_tuples, any_tuples)
def test_binary_ops_match_reference(x, y):
    a, b = AlgebraicNumber(x), AlgebraicNumber(y)
    ra, rb = FractionReference(x), FractionReference(y)
    assert_agrees(a, ra)
    assert_agrees(a + b, ra + rb)
    assert_agrees(a - b, ra - rb)
    assert_agrees(a * b, ra * rb)


@settings(deadline=1000, phases=NO_SHRINK)
@given(any_tuples)
def test_unary_ops_match_reference(x):
    a, ra = AlgebraicNumber(x), FractionReference(x)
    assert_agrees(-a, -ra)
    assert_agrees(a.conj(), ra.conj())
    assert a.to_json() == ra.to_json()
    assert str(a) == str(ra)
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
             ONE * Fraction(1, 2),
             ONE - AlgebraicNumber.from_rational(Fraction(1, 2)),
             SQRT2 * SQRT2 * Fraction(1, 4), I * I * Fraction(-1, 2)]
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

NOT_RATIONAL = [0.1, 1.0, 1 + 0j, "1/3", Decimal("0.1"), True, False]


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
               lambda: value - ONE, lambda: ONE * value, lambda: value * ONE):
        with pytest.raises(TypeError):
            op()
    # Comparing never raises; a bool equals no number, though True == 1.
    assert ONE != value and ZERO != value


def test_reflected_subtraction():
    # int - number and Fraction - number go through __rsub__.
    for left in (3, Fraction(-5, 7)):
        got = left - SQRT2
        assert_canonical(got)
        assert got == -(SQRT2 - left)
        assert got + SQRT2 == left
    assert (1 - ONE).is_zero()


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


# ---------------------------------------------------------
# An independent reference: the cyclotomic ring Z[x]/(x^8 - x^4 + 1)
# ---------------------------------------------------------
#
# Q(i, sqrt2, sqrt3) is Q(zeta24), and x^8 - x^4 + 1 is the minimal
# polynomial of x = zeta24.  With i = x^6, sqrt2 = x^3 + x^21 (zeta8 plus
# its inverse), sqrt3 = x^2 + x^22 (zeta12 plus its inverse),
# omega = x^8 and complex conjugation x -> x^23 = 1/x, the arithmetic
# below is polynomial arithmetic alone: it shares nothing with
# BASIS_MUL, and the tests check the table against it.

def cyc_power(k):
    """x^k reduced mod x^8 - x^4 + 1: eight Fraction coefficients."""
    coeffs = [Fraction(0)] * (k + 1)
    coeffs[k] = Fraction(1)
    return cyc_reduce(coeffs)


def cyc_reduce(coeffs):
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, 7, -1):   # x^k = x^(k-4) - x^(k-8)
        c, coeffs[k] = coeffs[k], 0
        coeffs[k - 4] += c
        coeffs[k - 8] -= c
    return tuple(coeffs[:8]) + (Fraction(0),) * (8 - len(coeffs))


def cyc_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


def cyc_scale(c, p):
    return tuple(c * a for a in p)


def cyc_mul(p, q):
    out = [Fraction(0)] * 15
    for j, a in enumerate(p):
        for k, b in enumerate(q):
            out[j + k] += a * b
    return cyc_reduce(out)


def cyc_conj(p):
    """x -> x^23, the automorphism that is complex conjugation."""
    out = (Fraction(0),) * 8
    for k, a in enumerate(p):
        out = cyc_add(out, cyc_scale(a, cyc_power(23 * k % 24)))
    return out


CYC_ONE = cyc_power(0)
CYC_I = cyc_power(6)
CYC_SQRT2 = cyc_add(cyc_power(3), cyc_power(21))
CYC_SQRT3 = cyc_add(cyc_power(2), cyc_power(22))
# The images of 1, sqrt2, sqrt3, sqrt6, i, i sqrt2, i sqrt3, i sqrt6.
CYC_BASIS = [cyc_mul(imag, real)
             for imag in (CYC_ONE, CYC_I)
             for real in (CYC_ONE, CYC_SQRT2, CYC_SQRT3,
                          cyc_mul(CYC_SQRT2, CYC_SQRT3))]


def cyc(a):
    """The image of a field element: its coordinates on CYC_BASIS."""
    out = (Fraction(0),) * 8
    for c, image in zip(a.coeffs, CYC_BASIS):
        out = cyc_add(out, cyc_scale(c, image))
    return out


def rank(rows):
    """Rank over Q, by Gaussian elimination on Fractions."""
    rows = [list(r) for r in rows]
    found = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(found, len(rows)) if rows[r][col]),
                     None)
        if pivot is None:
            continue
        rows[found], rows[pivot] = rows[pivot], rows[found]
        for r in range(len(rows)):
            if r != found and rows[r][col]:
                f = rows[r][col] / rows[found][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[found])]
        found += 1
    return found


def test_reference_constants_are_what_they_stand_for():
    minus_one = cyc_scale(-1, CYC_ONE)
    assert cyc_mul(CYC_I, CYC_I) == minus_one
    assert cyc_mul(CYC_SQRT2, CYC_SQRT2) == cyc_scale(2, CYC_ONE)
    assert cyc_mul(CYC_SQRT3, CYC_SQRT3) == cyc_scale(3, CYC_ONE)
    assert cyc_power(12) == minus_one          # x has order 24
    assert cyc_power(8) != CYC_ONE and cyc_power(24) == CYC_ONE
    assert cyc_conj(CYC_SQRT2) == CYC_SQRT2
    assert cyc_conj(CYC_SQRT3) == CYC_SQRT3
    assert cyc_conj(CYC_I) == cyc_scale(-1, CYC_I)


def test_the_map_into_the_reference_is_injective():
    # The images of the eight basis elements are linearly independent.
    assert rank(CYC_BASIS) == 8


def test_basis_mul_matches_the_reference():
    for a in range(8):
        for b in range(8):
            idx, coef = BASIS_MUL[a][b]
            assert (cyc_mul(CYC_BASIS[a], CYC_BASIS[b])
                    == cyc_scale(coef, CYC_BASIS[idx])), (a, b)


def test_omega_is_x_to_the_eighth():
    assert cyc(OMEGA) == cyc_power(8)
    assert cyc(ONE) == CYC_ONE and cyc(I) == CYC_I
    assert cyc(SQRT2) == CYC_SQRT2 and cyc(SQRT3) == CYC_SQRT3
    assert cyc(SQRT6) == cyc_mul(CYC_SQRT2, CYC_SQRT3)


@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(field_elements, field_elements)
def test_the_map_into_the_reference_is_a_ring_homomorphism(a, b):
    assert cyc(a + b) == cyc_add(cyc(a), cyc(b))
    assert cyc(a * b) == cyc_mul(cyc(a), cyc(b))
    assert cyc(-a) == cyc_scale(-1, cyc(a))
    assert cyc(a.conj()) == cyc_conj(cyc(a))

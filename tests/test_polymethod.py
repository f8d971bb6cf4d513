import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qmodw.algebra import AlgebraicNumber, I, ONE, SQRT2, ZERO
from qmodw.hamming_mod import query_bound
from qmodw.polymethod import (
    DomainError, HypothesisViolated, MultilinearPolynomial,
    SymmetricFunctionSpec, UnivariatePolynomial, certificate_roundtrip,
    is_nondeterministic_poly, mod_m_spec, ndeg_lower_bound, symmetrize,
    symmetrize_bruteforce, weight_certificate,
)


def poly(n, **terms):
    """terms like p_12=1 meaning coefficient on x1*x2."""
    coeffs = {}
    for key, value in terms.items():
        digits = key.split("_")[1] if "_" in key else ""
        subset = frozenset(int(c) for c in digits)
        coeffs[subset] = value
    return MultilinearPolynomial(n, coeffs)


def random_polynomial(rng, n, max_terms=12):
    all_vars = list(range(1, n + 1))
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        size = rng.randint(0, n)
        subset = frozenset(rng.sample(all_vars, size))
        coeffs[subset] = AlgebraicNumber(
            [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for _ in range(8)])
    return MultilinearPolynomial(n, coeffs)


def reference_is_nondeterministic_poly(p, f):
    """The per-point definition: p.eval on every input of the cube."""
    if isinstance(f, SymmetricFunctionSpec):
        truth = f.eval
    else:
        table = list(f)
        truth = lambda bits: table[int("".join(map(str, bits)), 2) if bits else 0]
    for bits in itertools.product((0, 1), repeat=p.n):
        if p.eval(bits).is_zero() != (truth(bits) == 0):
            return False
    return True


def sparse_field_element(rng):
    """Small coordinates, about half of them zero, so that sums cancel."""
    return AlgebraicNumber(
        [Fraction(rng.randint(-2, 2), rng.randint(1, 2))
         if rng.random() < 0.5 else 0 for _ in range(8)])


# ---------------------------------------------------------
# Evaluation
# ---------------------------------------------------------

def test_eval_top_monomial():
    p = poly(2, p_12=1)
    assert p.eval("11") == ONE
    assert p.eval("10").is_zero()


def test_eval_negated_variable():
    p = poly(3, p_=1, p_1=-1)  # 1 - x1
    assert p.eval("011") == ONE
    assert p.eval("100").is_zero()


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        poly(2, p_1=1).eval("101")


def test_coefficients_merge_and_drop_zeros():
    p = MultilinearPolynomial(2, {(1,): ONE, frozenset({1}): -ONE})
    assert p.coeffs == {}
    assert p.degree == 0


@pytest.mark.parametrize("value", [0.1, 1.0, 1 + 0j, "1/3", Decimal("0.1")],
                         ids=repr)
def test_polynomials_reject_non_rationals(value):
    with pytest.raises(TypeError):
        UnivariatePolynomial([1, 2]).eval(value)
    with pytest.raises(TypeError):
        UnivariatePolynomial([1, value])
    with pytest.raises(TypeError):
        MultilinearPolynomial(2, {(1,): value})


def test_univariate_eval_at_exact_rationals():
    q = UnivariatePolynomial([1, 2, 3])
    assert q.eval(Fraction(1, 3)) == Fraction(2)
    assert q.eval(np.int64(2)) == 17
    assert q.eval(-1) == 2


# ---------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------

def test_symmetrize_single_variable():
    q = symmetrize(poly(2, p_1=1))
    assert q == UnivariatePolynomial([0, Fraction(1, 2)])
    assert q.eval(0).is_zero()
    assert q.eval(1) == AlgebraicNumber.from_rational(Fraction(1, 2))
    assert q.eval(2) == ONE


def test_symmetrize_top_monomial():
    # t(t-1)/2
    q = symmetrize(poly(2, p_12=1))
    assert q == UnivariatePolynomial(
        [0, Fraction(-1, 2), Fraction(1, 2)])


def test_symmetrize_constant():
    q = symmetrize(poly(3, p_=SQRT2))
    assert q == UnivariatePolynomial([SQRT2])


def test_symmetrize_matches_bruteforce_randomized():
    rng = random.Random(20240824)
    for _ in range(25):
        n = rng.randint(1, 6)
        p = random_polynomial(rng, n)
        q = symmetrize(p)
        assert q.degree <= p.degree
        for k in range(n + 1):
            assert q.eval(k) == symmetrize_bruteforce(p, k), (n, k)


def test_bruteforce_is_the_literal_average():
    third = Fraction(1, 3)
    x1 = poly(3, p_1=1)
    assert symmetrize_bruteforce(x1, 0) == ZERO
    assert symmetrize_bruteforce(x1, 1) == AlgebraicNumber.from_rational(third)
    assert symmetrize_bruteforce(x1, 2) == AlgebraicNumber.from_rational(2 * third)
    assert symmetrize_bruteforce(x1, 3) == ONE
    # x1 x2 + i x3 at weight 2: 1 on 110, i on 101 and on 011
    p = MultilinearPolynomial(3, {(1, 2): ONE, (3,): I})
    assert symmetrize_bruteforce(p, 2) == (ONE + I + I) * third
    # sqrt2 - x1 x2 x3 + x4/2 on 4 bits.  Of the six weight-2 points, x4
    # is set on three and x1 x2 x3 on none; of the four weight-3 points,
    # x1 x2 x3 is set on 1110 and x4 on the other three.
    p = MultilinearPolynomial(4, {(): SQRT2, (1, 2, 3): -ONE,
                                  (4,): Fraction(1, 2)})
    assert symmetrize_bruteforce(p, 2) == SQRT2 + 3 * Fraction(1, 2) / 6
    assert symmetrize_bruteforce(p, 3) == SQRT2 + (-1 + 3 * Fraction(1, 2)) / 4
    assert symmetrize_bruteforce(MultilinearPolynomial(2, {}), 1) == ZERO
    assert symmetrize_bruteforce(poly(0, p_=I), 0) == I


@pytest.mark.parametrize("k", [4, -1])
def test_bruteforce_rejects_weight_outside_0_to_n(k):
    with pytest.raises(DomainError, match=f"k={k}"):
        symmetrize_bruteforce(poly(3, p_1=1), k)


def test_symmetrize_degree_never_grows():
    rng = random.Random(7)
    for _ in range(10):
        p = random_polynomial(rng, 5)
        assert symmetrize(p).degree <= p.degree


# ---------------------------------------------------------
# Support certificates
# ---------------------------------------------------------

def test_and_certificate():
    assert is_nondeterministic_poly(poly(2, p_12=1), [0, 0, 0, 1])


def test_or_certificate_with_sum():
    # x1 + x2 never vanishes on 01, 10, 11
    assert is_nondeterministic_poly(poly(2, p_1=1, p_2=1), [0, 1, 1, 1])


def test_or_non_certificate_with_difference():
    # x1 - x2 vanishes on 11 although OR(11) = 1
    assert not is_nondeterministic_poly(poly(2, p_1=1, p_2=-1), [0, 1, 1, 1])


def test_certificate_against_symmetric_spec():
    nor = SymmetricFunctionSpec(2, (1, 0, 0))
    p = poly(2, p_=1, p_1=-1, p_2=-1, p_12=1)  # (1-x1)(1-x2)
    assert is_nondeterministic_poly(p, nor)


def test_certificate_size_mismatch():
    with pytest.raises(ValueError):
        is_nondeterministic_poly(poly(2, p_1=1), [0, 1])
    with pytest.raises(ValueError):
        is_nondeterministic_poly(poly(2, p_1=1), SymmetricFunctionSpec(3, (1, 0, 0, 0)))


def test_truth_table_bit_order():
    # x_1 is the most significant bit of the truth-table index
    x1 = poly(3, p_1=1)
    assert is_nondeterministic_poly(x1, [0, 0, 0, 0, 1, 1, 1, 1])
    assert not is_nondeterministic_poly(x1, [1, 1, 1, 1, 0, 0, 0, 0])
    assert not is_nondeterministic_poly(x1, [0, 1, 0, 1, 0, 1, 0, 1])


@pytest.mark.parametrize("table, bad", [
    ("0001", "entry 0 is '0'"),
    (["0", "0", "0", "1"], "entry 0 is '0'"),
    ([0, 0, 0, 2], "entry 3 is 2"),
])
def test_truth_table_entries_must_be_bits(table, bad):
    with pytest.raises(ValueError, match=bad):
        is_nondeterministic_poly(poly(2, p_12=1), table)


def test_support_check_matches_reference_randomized():
    rng = random.Random(20261018)
    # the certificates have symmetric supports with zeros at some weights
    cases = [MultilinearPolynomial(0, {}), MultilinearPolynomial(3, {}),
             poly(0, p_=SQRT2), weight_certificate(5, 2),
             weight_certificate(6, 3)]
    for _ in range(120):
        n = rng.randint(0, 7)
        coeffs = {}
        for _ in range(rng.randint(0, 10)):
            subset = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            coeffs[subset] = sparse_field_element(rng)
        cases.append(MultilinearPolynomial(n, coeffs))
    for p in cases:
        n = p.n
        table = [0 if p.eval(bits).is_zero() else 1
                 for bits in itertools.product((0, 1), repeat=n)]
        # the support at 1^t 0^(n-t), read as a symmetric function
        spec = SymmetricFunctionSpec(
            n, tuple(table[(1 << n) - (1 << (n - t))] for t in range(n + 1)))
        flipped = list(table)
        flipped[rng.randrange(len(table))] ^= 1
        assert is_nondeterministic_poly(p, table)
        assert not is_nondeterministic_poly(p, flipped)
        for f in (table, flipped, spec):
            assert (is_nondeterministic_poly(p, f)
                    == reference_is_nondeterministic_poly(p, f)), (p, f)
        for k in range(n + 1):
            assert symmetrize_bruteforce(p, k) == sum(
                (p.eval(bits) for bits in itertools.product((0, 1), repeat=n)
                 if sum(bits) == k), ZERO) * Fraction(1, math.comb(n, k))


def test_weight_certificate_small_cases():
    # n = 3, m = 2: zero weights 1 and 3, so p = (t - 1)(t - 3), t = |x|
    p = weight_certificate(3, 2)
    assert p.degree == 2
    for bits in itertools.product((0, 1), repeat=3):
        t = sum(bits)
        assert p.eval(bits) == (t - 1) * (t - 3)
    assert is_nondeterministic_poly(p, mod_m_spec(3, 2))
    with pytest.raises(DomainError):
        weight_certificate(3, 4)


def test_complex_coefficients_allowed():
    p = MultilinearPolynomial(1, {frozenset(): I, frozenset({1}): SQRT2})
    assert is_nondeterministic_poly(p, [1, 1])


# ---------------------------------------------------------
# The zero-weight count bound
# ---------------------------------------------------------

def test_mod_spec_values():
    assert mod_m_spec(4, 2).values == (1, 0, 1, 0, 1)
    assert mod_m_spec(6, 3).values == (1, 0, 0, 1, 0, 0, 1)


def test_mod_spec_domain():
    with pytest.raises(DomainError):
        mod_m_spec(4, 5)
    with pytest.raises(DomainError):
        mod_m_spec(4, 1)


def test_zero_weight_counts():
    assert ndeg_lower_bound(mod_m_spec(6, 3)) == 4
    assert ndeg_lower_bound(mod_m_spec(4, 2)) == 2


def test_all_ones_function_has_no_zero_weights():
    f = SymmetricFunctionSpec(5, (1,) * 6)
    assert ndeg_lower_bound(f) == 0


def test_hypothesis_requires_one_at_weight_zero():
    f = SymmetricFunctionSpec(3, (0, 1, 1, 1))
    with pytest.raises(HypothesisViolated):
        ndeg_lower_bound(f)


def test_bound_table_matches_query_bound():
    for n in range(2, 21):
        for m in range(2, n + 1):
            zeros = ndeg_lower_bound(mod_m_spec(n, m))
            assert zeros == query_bound(n, m), (n, m)


def test_mod_m_ones_count():
    # value 1 on exactly 1 + floor(n/m) of the n+1 weights
    for n in range(2, 21):
        for m in range(2, n + 1):
            spec = mod_m_spec(n, m)
            assert sum(spec.values) == 1 + n // m


# ---------------------------------------------------------
# Certificate roundtrip
# ---------------------------------------------------------

def test_roundtrip_nor():
    nor = SymmetricFunctionSpec(2, (1, 0, 0))
    p = poly(2, p_=1, p_1=-1, p_2=-1, p_12=1)
    assert certificate_roundtrip(p, nor) == (True, 2)


def test_roundtrip_constant_one():
    f = SymmetricFunctionSpec(2, (1, 1, 1))
    assert certificate_roundtrip(poly(2, p_=1), f) == (True, 0)


def test_roundtrip_rejects_wrong_support():
    f = SymmetricFunctionSpec(2, (1, 0, 0))
    with pytest.raises(ValueError):
        certificate_roundtrip(poly(2, p_=1), f)


def test_roundtrip_mod2_certificate():
    # (1 - x1)(1 - x2)(1 - x3)(1 - x4) + x1 x2 x3 x4 ... too blunt; use the
    # parity-like product certificate for the weight-0-mod-2 function on 2 bits
    f = SymmetricFunctionSpec(2, (1, 0, 1))
    # p = 1 - x1 - x2 + 2 x1 x2 is 1 on 00 and 11, 0 on 01 and 10
    p = poly(2, p_=1, p_1=-1, p_2=-1, p_12=2)
    ok, roots = certificate_roundtrip(p, f)
    assert ok and roots == 1

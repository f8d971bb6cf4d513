import copy
import itertools
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from qmodw import polymethod
from qmodw.algebra import AlgebraicNumber, I, ONE, SQRT2, ZERO
from qmodw.hamming_mod import query_bound
from qmodw.linalg import _pack
from qmodw.polymethod import (
    DomainError, HypothesisViolated, MultilinearPolynomial,
    SymmetricFunctionSpec, UnivariatePolynomial, _cube_values,
    certificate_roundtrip, exact_degree, is_nondeterministic_poly,
    mod_m_spec, ndeg_lower_bound, symmetrize, symmetrize_bruteforce,
    weight_certificate,
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
        truth = list(f).__getitem__
    for x in range(2 ** p.n):
        if p.eval(x).is_zero() != (truth(x) == 0):
            return False
    return True


def reference_symmetrize(p):
    """The per-term formula in field arithmetic: level k's sum over C(n, k),
    times t(t-1)...(t-k+1)/k!, added one coefficient at a time."""
    out = [ZERO] * (p.degree + 1)
    for k in {len(s) for s in p.coeffs}:
        c_k = sum((a for s, a in p.coeffs.items() if len(s) == k), ZERO)
        c_k = c_k * Fraction(1, math.comb(p.n, k) * math.factorial(k))
        falling = [1]
        for j in range(k):
            falling = ([-j * falling[0]]
                       + [a - j * b for a, b in zip(falling, falling[1:])]
                       + [1])
        for d, coef in enumerate(falling):
            out[d] = out[d] + c_k * AlgebraicNumber.from_rational(coef)
    return UnivariatePolynomial(out)


def reference_eval(q, t):
    """sum_d c_d t^d, one field product and sum per term."""
    total = ZERO
    power = Fraction(1)
    for c in q.coeffs:
        total = total + c * AlgebraicNumber.from_rational(power)
        power *= Fraction(t)
    return total


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
    assert p.eval(0b11) == ONE
    assert p.eval(0b10).is_zero()


def test_eval_negated_variable():
    p = poly(3, p_=1, p_1=-1)  # 1 - x1
    assert p.eval(0b011) == ONE
    assert p.eval(0b100).is_zero()


def test_eval_length_mismatch():
    with pytest.raises(ValueError):
        poly(2, p_1=1).eval(0b101)


@pytest.mark.parametrize("evaluate, x, bad", [
    (mod_m_spec(3, 2).eval, 0b11000, "24 is not a point of 3 bits"),
    (mod_m_spec(3, 2).eval, 2 ** 7 - 1, "127 is not a point of 3 bits"),
    (MultilinearPolynomial(2, {(1,): ONE}).eval, 0b100,
     "4 is not a point of 2 bits"),
    (MultilinearPolynomial(2, {(1,): ONE}).eval, 0.5,
     "0.5 is not a point of 2 bits"),
], ids=["weight-read-as-2", "index-error", "multilinear-2", "half-read-as-0"])
def test_eval_rejects_entries_that_are_not_bits(evaluate, x, bad):
    # A point is the int int(x_1...x_n, 2); set bits above bit n - 1 would
    # be read as extra weight (24 as weight 2, 127 past the last value), or
    # miss every monomial mask (4), and a float has no bits at all.
    with pytest.raises(ValueError, match=bad):
        evaluate(x)


@pytest.mark.parametrize("index", [1.5, 0, 3, -1, 1.0, True, "1"])
def test_variables_must_be_integers_from_1_to_n(index):
    with pytest.raises(ValueError, match="variable out of range"):
        MultilinearPolynomial(2, {(1, index): ONE})
    with pytest.raises(ValueError, match="variable out of range"):
        MultilinearPolynomial(2, {(index,): 0})


def point_bits(x, n):
    """The bits x_1 ... x_n of the point x: x_i is bit n - i."""
    return tuple(x >> (n - i) & 1 for i in range(1, n + 1))


def reference_multilinear_eval(p, bits):
    """sum of a_S over the monomials S set at the point, one field + each."""
    ones = {i + 1 for i, b in enumerate(bits) if b}
    return sum((a for s, a in p.coeffs.items() if s <= ones), ZERO)


def test_multilinear_eval_matches_per_term_reference():
    rng = random.Random(20261020)
    for n in range(9):
        for _ in range(6):
            coeffs = {}
            for _ in range(rng.randint(0, 12)):
                subset = rng.sample(range(1, n + 1), rng.randint(0, n))
                coeffs[frozenset(subset)] = sparse_field_element(rng)
            p = MultilinearPolynomial(n, coeffs)
            for x in rng.sample(range(2 ** n), min(2 ** n, 24)):
                got = p.eval(x)
                assert type(got) is AlgebraicNumber
                assert got == reference_multilinear_eval(
                    p, point_bits(x, n)), (p, x)


def test_coefficients_merge_and_drop_zeros():
    p = MultilinearPolynomial(2, {(1,): ONE, frozenset({1}): -ONE})
    assert p.coeffs == {}
    assert p.degree == 0


def test_multilinear_equality():
    merged = MultilinearPolynomial(2, {(1, 2): 1, (2, 1): SQRT2})
    assert merged == MultilinearPolynomial(2, {(2, 1): 1 + SQRT2})
    assert merged != MultilinearPolynomial(3, {(1, 2): 1 + SQRT2})
    assert merged != MultilinearPolynomial(2, {(1, 2): SQRT2})
    assert merged.__eq__(merged.coeffs) is NotImplemented
    assert merged != 0


def test_univariate_is_zero():
    assert UnivariatePolynomial([]).is_zero()
    assert UnivariatePolynomial([0, ZERO]).is_zero()
    assert not UnivariatePolynomial([0, 1]).is_zero()
    assert not UnivariatePolynomial([SQRT2]).is_zero()


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


EVAL_POINTS = [0, -3, 10**12 + 1, np.int64(5), Fraction(-5, 7),
               Fraction(11, 3 ** 20)]


def test_univariate_eval_matches_per_term_reference():
    rng = random.Random(20261019)
    polys = [UnivariatePolynomial([]), UnivariatePolynomial([SQRT2]),
             UnivariatePolynomial([1, 2, 3])]
    for _ in range(40):
        polys.append(UnivariatePolynomial(
            [sparse_field_element(rng) for _ in range(rng.randint(1, 9))]))
    for q in polys:
        for t in EVAL_POINTS:
            got = q.eval(t)
            assert type(got) is AlgebraicNumber
            assert got == reference_eval(q, t), (q.coeffs, t)


def test_zero_polynomial_evaluates_to_canonical_zero():
    got = UnivariatePolynomial([0, ZERO]).eval(Fraction(1, 3))
    assert got == ZERO
    assert (got._num, got._den) == ((0,) * 8, 1)


# ---------------------------------------------------------
# The packed form
# ---------------------------------------------------------

def assert_packed_form(p):
    """The stored masks, levels and columns equal a fresh pack of coeffs."""
    n = p.n
    by_mask = {sum(1 << (n - i) for i in s): s for s in p.coeffs}
    assert sorted(p._masks) == sorted(by_mask)
    monomials = [by_mask[mask] for mask in p._masks]
    sizes = [len(s) for s in monomials]
    assert sizes == sorted(sizes)
    assert p._levels == {
        k: (sizes.index(k), len(sizes) - sizes[::-1].index(k))
        for k in sorted(set(sizes))}
    assert list(p._levels) == sorted(p._levels)
    rows, den = _pack([p.coeffs[s] for s in monomials])
    assert p._den == den
    assert [(c, tuple(col)) for c, col in p._cols] == [
        (c, col) for c, col in enumerate(zip(*rows)) if any(col)]
    assert p.degree == max(sizes, default=0)


def test_packed_form_matches_a_fresh_pack():
    rng = random.Random(20261021)
    cases = [MultilinearPolynomial(0, {}), poly(0, p_=I),
             MultilinearPolynomial(3, {(1, 2): ONE, (2, 1): SQRT2,
                                       (): Fraction(1, 6)}),
             MultilinearPolynomial(2, {(1, 2): ONE, (2, 1): -ONE}),
             weight_certificate(6, 3)]
    for n in range(9):
        for _ in range(6):
            cases.append(random_polynomial(rng, n))
    for p in cases:
        assert_packed_form(p)
    merged, cancelled = cases[2], cases[3]
    assert merged.coeffs[frozenset({1, 2})] == ONE + SQRT2
    assert cancelled.coeffs == {}
    assert cancelled._cols == [] and cancelled._levels == {}


def test_bruteforce_does_not_read_the_packed_form():
    # n = 5, m = 2: zero weights 1, 3, 5, so p is 0 at 11111.  Adding 1 to
    # the numerator of x1...x5, the last monomial in degree order, moves
    # the top coefficient of symmetrize and the value at 11111.
    p = weight_certificate(5, 2)
    f = mod_m_spec(5, 2)
    (c, col), = p._cols
    changed = copy.copy(p)
    changed._cols = [(c, tuple(col[:-1]) + (col[-1] + 1,))]
    assert symmetrize(changed) != symmetrize(p)
    assert _cube_values(changed) != _cube_values(p)
    assert is_nondeterministic_poly(p, f)
    assert not is_nondeterministic_poly(changed, f)
    assert not changed.eval(0b11111).is_zero()
    for k in range(6):
        assert symmetrize_bruteforce(changed, k) == symmetrize_bruteforce(p, k)


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


def test_symmetrize_matches_per_term_reference():
    rng = random.Random(20261019)
    cases = [MultilinearPolynomial(0, {}), MultilinearPolynomial(4, {}),
             poly(3, p_=Fraction(-2, 3)), poly(0, p_=I)]
    for n in range(9):
        for _ in range(12):
            cases.append(random_polynomial(rng, n))
    for p in cases:
        assert symmetrize(p).coeffs == reference_symmetrize(p).coeffs, p


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
        table = [0 if p.eval(x).is_zero() else 1 for x in range(2 ** n)]
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
                (p.eval(x) for x in range(2 ** n) if x.bit_count() == k),
                ZERO) * Fraction(1, math.comb(n, k))


def test_weight_certificate_small_cases():
    # n = 3, m = 2: zero weights 1 and 3, so p = (t - 1)(t - 3), t = |x|
    p = weight_certificate(3, 2)
    assert p.degree == 2
    for x in range(2 ** 3):
        t = x.bit_count()
        assert p.eval(x) == (t - 1) * (t - 3)
    assert is_nondeterministic_poly(p, mod_m_spec(3, 2))
    with pytest.raises(DomainError):
        weight_certificate(3, 4)


def symmetric_polynomial(n, level_values):
    """The sum over k of level_values[k] times every k-variable monomial."""
    return MultilinearPolynomial(n, {
        s: c for k, c in enumerate(level_values) if c
        for s in itertools.combinations(range(1, n + 1), k)})


def cube_table(spec):
    """The truth table of a symmetric spec, which the cube path checks."""
    return [spec.values[x.bit_count()] for x in range(1 << spec.n)]


def no_cube(monkeypatch):
    """Make the cube path raise, so a check that returns took the weights."""
    def refuse(*args):
        raise AssertionError("the cube path ran")
    monkeypatch.setattr(polymethod, "_weights", refuse)
    monkeypatch.setattr(polymethod, "_cube_values", refuse)


def test_weight_level_check_agrees_with_the_cube_on_every_certificate(
        monkeypatch):
    # Every certificate with 2 <= m <= n <= 12 is symmetric.  The cube
    # check accepts it for its own spec and rejects it for the spec of
    # another modulus (whose zero weights differ); the weight-level check
    # gives the same answers without building the weights or the cube.
    cases = []
    for n in range(2, 13):
        for m in range(2, n + 1):
            p = weight_certificate(n, m)
            others = [m + 1] if m < n else [m - 1] if m > 2 else []
            for spec, certifies in [(mod_m_spec(n, m), True)] + [
                    (mod_m_spec(n, other), False) for other in others]:
                assert is_nondeterministic_poly(
                    p, cube_table(spec)) is certifies, (n, m, spec)
                cases.append((p, spec, certifies))
    assert len(cases) == 66 + 65
    no_cube(monkeypatch)
    for p, spec, certifies in cases:
        assert is_nondeterministic_poly(p, spec) is certifies, (p.n, spec)


def test_a_non_symmetric_certificate_takes_the_cube_path(monkeypatch):
    # cert * (1 + x_1) has the support of the certificate, since 1 + x_1
    # is 1 or 2, but its monomials with x_1 have twice the value of the
    # others.  Dropping one top monomial keeps one value per level but
    # leaves a level short.  Both go through the cube, and agree with
    # the per-point definition.
    n, m = 6, 3
    spec = mod_m_spec(n, m)
    cert = weight_certificate(n, m)
    doubled = {}
    for subset, a in cert.coeffs.items():
        for s in (subset, subset | {1}):
            doubled[s] = doubled.get(s, ZERO) + a
    short = dict(cert.coeffs)
    del short[frozenset({1, 2, 3, 4})]
    real = polymethod._cube_values
    calls = []

    def cube_values(p):
        calls.append(p)
        return real(p)
    monkeypatch.setattr(polymethod, "_cube_values", cube_values)
    for p, certifies in ((MultilinearPolynomial(n, doubled), True),
                         (MultilinearPolynomial(n, short), False)):
        assert polymethod._weight_support(p) is None
        calls.clear()
        assert is_nondeterministic_poly(p, spec) is certifies
        assert reference_is_nondeterministic_poly(p, spec) is certifies
        assert calls == [p]


def test_a_symmetric_polynomial_that_vanishes_where_f_is_one_is_rejected(
        monkeypatch):
    # P(t) = (t - 3) * prod (t - w) over the zero weights of n = 6, m = 3
    # vanishes at every zero weight and also at 3, where f = 1.
    n, m = 6, 3
    spec = mod_m_spec(n, m)
    values = [math.prod(t - w for w in spec.zero_weights() + (3,))
              for t in range(n + 1)]
    p = symmetric_polynomial(n, polymethod._forward_differences(values))
    assert polymethod._weight_support(p) == [v != 0 for v in values]
    assert not is_nondeterministic_poly(p, cube_table(spec))
    assert not reference_is_nondeterministic_poly(p, spec)
    no_cube(monkeypatch)
    assert not is_nondeterministic_poly(p, spec)
    assert is_nondeterministic_poly(weight_certificate(n, m), spec)


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


@pytest.mark.parametrize("call, error", [
    (lambda: mod_m_spec(4, 2.0), "defined for ints"),
    (lambda: mod_m_spec(4.0, 2), "defined for ints"),
    (lambda: mod_m_spec(4, True), "defined for ints"),
    (lambda: SymmetricFunctionSpec(2, (1.0, 0, True)), "ints 0 and 1"),
    (lambda: SymmetricFunctionSpec(2.0, (1, 0, 1)), "need an int n"),
    (lambda: SymmetricFunctionSpec(-1, ()), "need an int n >= 0"),
    (lambda: is_nondeterministic_poly(poly(2, p_12=1), [1.0, 0, 0, True]),
     "entry 0 is 1.0"),
    (lambda: is_nondeterministic_poly(poly(2, p_12=1), [0, 0, 0, True]),
     "entry 3 is True"),
    (lambda: mod_m_spec(2, 2).eval(1.0), "1.0 is not a point of 2 bits"),
    (lambda: poly(2, p_1=1).eval(True), "True is not a point of 2 bits"),
    (lambda: mod_m_spec(2, 2).eval(-1), "-1 is not a point of 2 bits"),
    (lambda: poly(2, p_1=1).eval(-1), "-1 is not a point of 2 bits"),
    (lambda: mod_m_spec(2, 2).eval(4), "4 is not a point of 2 bits"),
    (lambda: poly(2, p_1=1).eval(4), "4 is not a point of 2 bits"),
], ids=["m-float", "n-float", "m-bool", "spec-values", "spec-n",
        "spec-negative-n", "table-float", "table-bool", "bits-float",
        "bits-bool", "spec-point-negative", "poly-point-negative",
        "spec-point-2^n", "poly-point-2^n"])
def test_specs_tables_and_points_take_exact_ints(call, error):
    # 1.0 and True equal 1, so a check by value alone accepts them.
    with pytest.raises(ValueError, match=error):
        call()


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


def test_exact_degree_of_known_functions():
    n = 6
    assert exact_degree(SymmetricFunctionSpec(n, (1,) * 7)) == 0
    assert exact_degree(SymmetricFunctionSpec(n, (0,) * 7)) == 0
    and_ = SymmetricFunctionSpec(n, (0,) * 6 + (1,))
    or_ = SymmetricFunctionSpec(n, (0,) + (1,) * 6)
    threshold = SymmetricFunctionSpec(n, (0, 0, 0, 1, 1, 1, 1))
    assert exact_degree(and_) == exact_degree(or_) == n
    assert exact_degree(threshold) == n
    assert exact_degree(mod_m_spec(n, 2)) == n
    assert exact_degree(SymmetricFunctionSpec(1, (0, 1))) == 1
    assert exact_degree(SymmetricFunctionSpec(0, (1,))) == 0


def test_exact_degree_is_the_degree_of_the_multilinear_form():
    # Every symmetric f on n <= 6 bits: the polynomial with coefficient
    # sum_j (-1)^(k-j) C(k, j) f(j) on each k-subset equals f on the cube,
    # so it is f's multilinear form, and its degree is exact_degree.
    for n in range(1, 7):
        for values in itertools.product((0, 1), repeat=n + 1):
            f = SymmetricFunctionSpec(n, values)
            diffs = [sum((-1) ** (k - j) * math.comb(k, j) * values[j]
                         for j in range(k + 1)) for k in range(n + 1)]
            p = MultilinearPolynomial(n, {
                s: diffs[k] for k in range(n + 1)
                for s in itertools.combinations(range(1, n + 1), k)})
            assert p.degree == exact_degree(f), values
            assert all(p.eval(x) == f.eval(x) for x in range(2 ** n))


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


def _product_of_roots(roots, times_t=False):
    """The univariate prod over ``roots`` of (t - w), times t if asked."""
    coeffs = [0, 1] if times_t else [1]
    for w in roots:
        coeffs = [a - w * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return UnivariatePolynomial(coeffs)


@pytest.mark.parametrize("n, m", [(6, 3), (7, 2), (8, 4)])
def test_roundtrip_fails_a_symmetrization_that_misses_a_check(monkeypatch,
                                                               n, m):
    # The true certificate passes.  With symmetrize replaced, a q that
    # misses one zero weight, or that vanishes at 0, fails: the support
    # check on p still passes, so only the root checks can tell.
    p, f = weight_certificate(n, m), mod_m_spec(n, m)
    zeros = f.zero_weights()
    assert certificate_roundtrip(p, f) == (True, len(zeros))
    for missed in zeros:
        q = _product_of_roots([w for w in zeros if w != missed])
        assert not q.eval(0).is_zero() and not q.eval(missed).is_zero()
        monkeypatch.setattr(polymethod, "symmetrize", lambda p: q)
        assert certificate_roundtrip(p, f) == (False, len(zeros) - 1)
    vanishing = _product_of_roots(zeros, times_t=True)
    monkeypatch.setattr(polymethod, "symmetrize", lambda p: vanishing)
    assert certificate_roundtrip(p, f) == (False, len(zeros))

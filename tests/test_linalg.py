import copy
import gc
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings, strategies as st

from qmodw.algebra import AlgebraicNumber, ONE, SQRT2, SQRT3, ZERO
from qmodw.fixtures import load_state_table
from qmodw import linalg
from qmodw.linalg import (
    _APPLY_MEMO_CAP, Projector, SquareMatrix, StateVector, inner,
)
from qmodw.subroutines import H, QFT, U, V

# As in test_algebra.py: a wrong multiplication table fails these on
# almost every example, so they report the first one without shrinking.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def over_one_denominator(den_max, numerator):
    """Field elements as AlgebraicNumber stores them: eight integer
    numerators over one denominator d <= ``den_max``, each drawn from
    ``numerator(d)``."""
    return st.integers(1, den_max).flatmap(
        lambda d: st.tuples(*[numerator(d)] * 8).map(
            lambda num: AlgebraicNumber(Fraction(p, d) for p in num)))


# Denominators up to lcm(1..4) = 12 cover every coordinate tuple in
# [-3, 3] with denominators up to 4.
field_elements = over_one_denominator(12, lambda d: st.integers(-3 * d, 3 * d))


def vectors(dim):
    return st.builds(StateVector, st.tuples(*[field_elements] * dim))


# Coefficients from the whole field, mixing small values with numerators
# above 2**62 in magnitude.  Over d <= lcm(1..6) = 60 these cover every
# tuple of p / q with q <= 6 and p in [-3, 3] or 2**62 <= |p| <= 2**70.
def wide_numerator(d):
    big = 2 ** 70 * d
    return (st.integers(-3 * d, 3 * d) | st.integers(2 ** 62, big)
            | st.integers(-big, -2 ** 62))


wide_elements = over_one_denominator(60, wide_numerator)


def wide_rows(dim):
    return st.tuples(*[st.tuples(*[wide_elements] * dim)] * dim)


# The references work on AlgebraicNumber rows and never pack, so a fault
# in the packed form cannot cancel out on both sides of a comparison.
def reference_matmul(a, b):
    """The product of two matrices given as rows, entry by entry."""
    rows = []
    for i in range(len(a)):
        row = []
        for k in range(len(a)):
            acc = AlgebraicNumber.from_rational(0)
            for j in range(len(a)):
                if a[i][j].is_zero() or b[j][k].is_zero():
                    continue
                acc = acc + a[i][j] * b[j][k]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


def reference_apply(a, v):
    """The product of a matrix given as rows and a vector, entry by entry."""
    out = []
    for row in a:
        acc = AlgebraicNumber.from_rational(0)
        for x, y in zip(row, v):
            acc = acc + x * y
        out.append(acc)
    return tuple(out)


@pytest.fixture(scope="module")
def psi4():
    return load_state_table()["psi4"]


def test_apply_identity():
    v = StateVector([ONE, SQRT2, -SQRT3])
    assert SquareMatrix.identity(3).apply(v) == v


def test_hadamard_on_ket0():
    got = H.apply(StateVector.basis_state(2, 0))
    half_sqrt2 = SQRT2 * AlgebraicNumber.from_rational(Fraction(1, 2))
    assert got == StateVector([half_sqrt2, half_sqrt2])


def test_qft_on_ket0():
    got = QFT.apply(StateVector.basis_state(5, 0))
    third_sqrt3 = SQRT3 * AlgebraicNumber.from_rational(Fraction(1, 3))
    assert got == StateVector([third_sqrt3] * 3 + [ZERO, ZERO])


def test_apply_dimension_mismatch(fresh_tables):
    # The memo stores no exception, so the check fails on every call.
    for _ in range(2):
        with pytest.raises(ValueError):
            H.apply(StateVector.basis_state(5, 0))
    assert SquareMatrix.apply.cache_info().currsize == 0


def test_matmul_identity():
    assert QFT.matmul(SquareMatrix.identity(5)) == QFT


def test_qft_dagger_qft_is_identity():
    assert QFT.dagger().matmul(QFT) == SquareMatrix.identity(5)


def test_hadamard_involution():
    assert H.matmul(H) == SquareMatrix.identity(2)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        H.matmul(QFT)


def test_is_unitary_constants():
    assert U.is_unitary()
    assert V.is_unitary()


def test_is_unitary_rejects_scaling():
    two = AlgebraicNumber.from_rational(2)
    m = SquareMatrix([[two, ZERO], [ZERO, ONE]])
    assert not m.is_unitary()


def test_project_mass_basis_state():
    p = Projector(3, frozenset({0}))
    assert p.mass(StateVector.basis_state(3, 0)) == 1


def test_project_mass_on_final_states(psi4):
    pi1 = Projector(5, frozenset({1, 2}))
    pi2 = Projector(5, frozenset({3, 4}))
    assert pi1.mass(psi4["100"]) == 1
    assert pi2.mass(psi4["100"]) == 0


def test_projector_validation():
    with pytest.raises(IndexError):
        Projector(3, frozenset({3}))
    with pytest.raises(ValueError):
        Projector(3, frozenset())


def test_inner_unit():
    v = StateVector.basis_state(4, 2)
    assert inner(v, v) == ONE


def test_inner_corner_final_states(psi4):
    assert inner(psi4["000"], psi4["111"]) == ONE


def test_inner_disjoint_supports(psi4):
    assert inner(psi4["100"], psi4["011"]).is_zero()


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(StateVector.basis_state(2, 0), StateVector.basis_state(3, 0))


@settings(deadline=2000, max_examples=40, phases=NO_SHRINK)
@given(vectors(3), vectors(3))
def test_inner_conjugate_symmetry(u, v):
    assert inner(u, v) == inner(v, u).conj()


@settings(deadline=2000, max_examples=30, phases=NO_SHRINK)
@given(vectors(5))
def test_unitary_preserves_norm_sq(v):
    for m in (QFT, U, V):
        w = m.apply(v)
        assert inner(w, w) == inner(v, v)


@settings(deadline=2000, max_examples=25)
@given(vectors(2), st.sampled_from(range(4)))
def test_apply_is_entrywise_product(v, seed):
    # cross-check the packed kernel against naive entry arithmetic
    got = H.apply(v)
    rows = H.entries
    for i in range(2):
        expected = rows[i][0] * v[0] + rows[i][1] * v[1]
        assert got[i] == expected


@settings(deadline=None, max_examples=30)
@given(wide_rows(3), wide_rows(3), st.tuples(*[wide_elements] * 3))
def test_kernel_matches_entrywise_reference(a, b, v):
    # apply and matmul share one kernel; check both against plain entry
    # arithmetic on values that do not fit in 64 bits
    ab = reference_matmul(a, b)
    m = SquareMatrix(a)
    assert m.matmul(SquareMatrix(b)).entries == ab
    assert (m @ SquareMatrix(b) @ SquareMatrix(b)).entries == \
        reference_matmul(ab, b)
    assert m.apply(StateVector(v)).entries == reference_apply(a, v)


def test_entries_roundtrip():
    v = StateVector([ONE, SQRT2 + SQRT3, ZERO])
    assert StateVector(v.entries) == v
    m = SquareMatrix([[ONE, SQRT2], [ZERO, -ONE]])
    assert SquareMatrix(m.entries) == m


def test_entries_follow_the_field_rule():
    # Exact rationals are accepted; a float raises TypeError, as it does
    # in the field itself.
    assert StateVector([1, 0]) == StateVector.basis_state(2, 0)
    assert StateVector([ONE, Fraction(1, 2)])[1] == \
        AlgebraicNumber.from_rational(Fraction(1, 2))
    assert SquareMatrix([[1, 0], [0, 1]]) == SquareMatrix.identity(2)
    with pytest.raises(TypeError):
        StateVector([ONE, 0.5])
    with pytest.raises(TypeError):
        SquareMatrix([[1.0]])


def test_json_roundtrip():
    v = QFT.apply(StateVector.basis_state(5, 1))
    assert StateVector.from_json(v.to_json()) == v
    assert SquareMatrix.from_json(U.to_json()) == U


def test_norm_sq_can_be_irrational():
    v = StateVector([SQRT2 + SQRT3])
    assert inner(v, v) == AlgebraicNumber((5, 0, 0, 2, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        Projector(1, frozenset({0})).mass(v)


def _product(m, v):
    """``m`` times ``v`` computed afresh, bypassing the apply memo."""
    return SquareMatrix.apply.__wrapped__(m, v)


def test_apply_memo_keys_big_values_by_value(fresh_tables):
    # States are keyed by the values of their Python ints: two separately
    # built equal states are one object and share one memo entry, while
    # 10**40 + 1 in place of 10**40 is another object with its own.
    big = AlgebraicNumber.from_rational(10 ** 40)
    u = StateVector([big, ONE])
    w = StateVector([big, SQRT2 * SQRT2 - ONE])
    assert all(type(x) is int for row in u._num for x in row)
    assert w is u
    cold = H.apply(u)
    assert H.apply(w) is cold
    assert SquareMatrix.apply.cache_info().currsize == 1
    assert _product(H, u) is cold
    other = StateVector([big + ONE, ONE])
    assert other is not u and other != u
    assert H.apply(other) is not cold
    assert SquareMatrix.apply.cache_info().currsize == 2
    # H u = (10**40 + 1, 10**40 - 1) / sqrt2, exactly.
    p = Projector(2, frozenset({0}))
    assert p.mass(cold) == Fraction((10 ** 40 + 1) ** 2, 2)


def test_apply_memo_is_capped(fresh_tables):
    n_inputs = _APPLY_MEMO_CAP + 10
    for k in range(n_inputs):
        v = StateVector([AlgebraicNumber.from_rational(k), ONE, ZERO, ZERO, ZERO])
        got = QFT.apply(v)
        assert got == _product(QFT, v)
        assert QFT.apply(v) is got
        assert SquareMatrix.apply.cache_info().currsize <= _APPLY_MEMO_CAP
    info = SquareMatrix.apply.cache_info()
    assert info.currsize == _APPLY_MEMO_CAP
    assert info.misses == info.hits == n_inputs


def test_apply_memo_keys_on_the_matrix_value(fresh_tables):
    # An equal matrix built elsewhere shares the entry; an unequal one,
    # such as a corrupted circuit matrix, never reads it.
    v = StateVector([ONE, SQRT3])
    out = H.apply(v)
    assert SquareMatrix(H.entries).apply(v) is out
    swapped = SquareMatrix(H.entries[::-1])
    assert swapped.apply(v) == _product(swapped, v) != out
    info = SquareMatrix.apply.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 2, 2)


def test_equal_matrices_are_one_object():
    # == and hash are object identity; a matrix built again from H's
    # entries is H, and one sign flipped is another object.
    assert SquareMatrix.__eq__ is object.__eq__
    assert SquareMatrix.__hash__ is object.__hash__
    assert SquareMatrix(H.entries) is H
    rows = [list(r) for r in H.entries]
    rows[1][1] = -rows[1][1]
    flipped = SquareMatrix(rows)
    assert flipped is not H and flipped != H


def test_shared_states_are_read_only():
    v = H.apply(StateVector.basis_state(2, 0))
    assert H.apply(StateVector.basis_state(2, 0)) is v
    with pytest.raises(TypeError):
        v._num[0][0] = 0
    with pytest.raises(TypeError):
        v._num[0] = (0,) * 8
    with pytest.raises(TypeError):
        v._abs_sq_rows()[0][0][0] = 0


def test_big_values_stay_exact():
    # values far beyond 64 bits round-trip through H exactly
    big = AlgebraicNumber.from_rational(10 ** 40)
    v = StateVector([big, ONE])
    w = H.apply(H.apply(v))
    assert w == v
    assert inner(v, v) == AlgebraicNumber.from_rational(10 ** 80 + 1)


def test_equal_states_are_one_object():
    assert StateVector.__eq__ is object.__eq__
    assert StateVector.__hash__ is object.__hash__
    big = AlgebraicNumber.from_rational(10 ** 40)
    u = StateVector([big, ONE])
    assert StateVector([big, SQRT2 * SQRT2 - ONE]) is u
    assert StateVector([big, -ONE]) is not u
    assert StateVector([big + ONE, ONE]) is not u
    assert StateVector([big + ONE, ONE]) != u


def test_apply_memo_finds_its_own_states_by_identity(fresh_tables,
                                                     monkeypatch):
    # A memo hit never compares values, whether the state came out of the
    # memo or was built again elsewhere: both are the one object.
    v = StateVector([ONE, SQRT3])
    out = H.apply(v)
    assert SquareMatrix.apply.cache_info().currsize == 1
    compared = []
    monkeypatch.setattr(StateVector, "__eq__",
                        lambda a, b: compared.append(1) or a is b)
    assert H.apply(v) is out
    assert H.apply(StateVector([ONE, SQRT3])) is out
    assert compared == []
    assert SquareMatrix.apply.cache_info().hits == 2


def test_every_constructor_returns_the_one_object_of_its_value(fresh_tables):
    e0 = StateVector.basis_state(3, 0)
    assert StateVector([ONE, ZERO, ZERO]) is e0
    assert StateVector._new(((1,) + (0,) * 7, (0,) * 8, (0,) * 8), 1) is e0
    assert StateVector.from_json(e0.to_json()) is e0
    minus = StateVector([-ONE, ZERO, ZERO])
    assert e0._negated((0,)) is minus
    assert minus._negated((0,)) is e0
    e1 = StateVector.basis_state(2, 1)
    assert H.apply(H.apply(e1)) is e1
    assert _product(H, e1) is H.apply(e1)
    eye = SquareMatrix.identity(5)
    assert SquareMatrix([[ONE if i == j else ZERO for j in range(5)]
                         for i in range(5)]) is eye
    assert SquareMatrix._new(eye._num, 1) is eye
    assert QFT.dagger().matmul(QFT) is eye
    assert U @ eye is U
    assert QFT.dagger() is SquareMatrix([[QFT[j, i].conj() for j in range(5)]
                                         for i in range(5)])
    assert QFT.dagger().dagger() is QFT
    assert SquareMatrix.from_json(U.to_json()) is U
    for obj in (e0, U):
        assert pickle.loads(pickle.dumps(obj)) is obj
        assert copy.copy(obj) is obj and copy.deepcopy(obj) is obj


def test_a_subclass_value_is_its_own_object():
    class Sub(StateVector):
        __slots__ = ()
    s = Sub([ONE, ZERO])
    assert type(s) is Sub and type(Sub([ONE, ZERO])) is Sub
    assert Sub([ONE, ZERO]) is s is not StateVector.basis_state(2, 0)


def test_intern_table_drops_what_nothing_holds():
    # The table holds its objects weakly: 1 000 random states add one
    # entry each while they live and none once they are dropped.
    gc.collect()
    size = len(linalg._INTERNED)
    rng = random.Random(16)
    states = [StateVector(AlgebraicNumber.from_rational(
                  Fraction(rng.randrange(-10 ** 40, 10 ** 40),
                           rng.randrange(1, 10 ** 6)))
                          for _ in range(3))
              for _ in range(1000)]
    assert len(linalg._INTERNED) == size + len(set(states))
    del states
    gc.collect()
    assert len(linalg._INTERNED) == size


def _random_field_matrix(rng, dim):
    """Rows of field elements with all eight coordinates drawn, small
    and above 2**62 in magnitude, over denominators up to 60."""
    def coordinate():
        bound = rng.choice((3, 2 ** 70))
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 60))
    return [[AlgebraicNumber(coordinate() for _ in range(8))
             for _ in range(dim)] for _ in range(dim)]


def test_negated_rows_is_the_diagonal_sign_product():
    # O · M for the sign matrix O that is -1 on the subset, built as an
    # explicit diagonal and multiplied entry by entry, for every subset.
    rng = random.Random(23)
    for dim in range(1, 6):
        for _ in range(3):
            rows = _random_field_matrix(rng, dim)
            m = SquareMatrix(rows)
            for subset in range(1 << dim):
                negated = [i for i in range(dim) if subset >> i & 1]
                sign = [[(-ONE if i in negated else ONE) if i == j else ZERO
                         for j in range(dim)] for i in range(dim)]
                expected = SquareMatrix(reference_matmul(sign, rows))
                assert m._negated_rows(negated) is expected
                assert SquareMatrix(sign).matmul(m) is expected


def test_negated_rows_edge_cases():
    assert QFT._negated_rows(()) is QFT
    assert QFT._negated_rows([0, 2])._negated_rows((2, 0)) is QFT
    assert QFT._negated_rows((1, 1)) is QFT._negated_rows((1,))
    for row in (5, -1):
        with pytest.raises(IndexError):
            QFT._negated_rows((0, row))


def test_negated_state_edge_cases():
    # The state counterpart of _negated_rows: the empty tuple returns the
    # state itself, a repeated row is negated once, and a row outside
    # [0, dim) raises instead of wrapping round.
    v = StateVector([ONE, SQRT2])
    assert v._negated(()) is v
    assert v._negated((0, 0)) is StateVector([-ONE, SQRT2])
    assert v._negated((1, 0, 1)) is StateVector([-ONE, -SQRT2])
    for row in (2, -1):
        with pytest.raises(IndexError):
            v._negated((0, row))

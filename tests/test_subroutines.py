from fractions import Fraction

import pytest

from qmodw.algebra import AlgebraicNumber, ONE, SQRT2, ZERO
from qmodw.fixtures import STAGES, STATE_TABLE_ORDER, load_gram, load_state_table
from qmodw.linalg import SquareMatrix, StateVector, inner
from qmodw.oracle import BlockView, CountingOracle
from qmodw import subroutines
from qmodw.sweep import verify_cell
from qmodw.subroutines import (
    ALL_3BIT, H, MOD3_PADDING, PI0, PI1, PI2, QFT, U, V, InvariantViolation,
    deutsch, fourier_oracle, gram_closed_form, gram_closed_form_mismatches,
    gram_matrix, mod3, mod3_final_state, signs_of, trace_mod3,
)


def weight(bits):
    return bits.count("1")


def support(state):
    """The indices of the nonzero entries of ``state``."""
    return {i for i, e in enumerate(state.entries) if not e.is_zero()}


def pair(i, j):
    """The view ``deutsch`` measures the bits i and j through."""
    return BlockView((i, j))


def triple(i, j, k):
    """The view ``mod3`` measures the bits i, j and k through."""
    return BlockView((i, j, k), MOD3_PADDING)


# ---------------------------------------------------------
# Constants
# ---------------------------------------------------------

def test_constants_unitary():
    for m in (H, QFT, U, V):
        assert m.is_unitary()


def test_u_and_v_are_the_papers_matrices_over_the_field_basis():
    # The paper's entries, written over the basis (1, √2, √3, √6, i,
    # i√2, i√3, i√6) and not through OMEGA: U = (1/4)(... ±1/2 ± (3/2) i√3
    # ...) and V = (1/√2)(... ±1/2 ± (1/2) i√3 ...).
    half = Fraction(1, 2)

    def c(re, i3):
        return AlgebraicNumber((re, 0, 0, 0, 0, 0, i3, 0))

    def scaled(factor, rows):
        return SquareMatrix([[factor * x for x in row] for row in rows])

    assert scaled(Fraction(1, 4), [
        [4, 0, 0, 0, 0],
        [0, c(-half, 3 * half), 0, 3, 0],
        [0, 0, c(-half, -3 * half), 0, 3],
        [0, 3, 0, c(half, 3 * half), 0],
        [0, 0, 3, 0, c(half, -3 * half)],
    ]) is subroutines.U
    assert scaled(SQRT2 * half, [
        [SQRT2, 0, 0, 0, 0],
        [0, c(half, -half), 0, 1, 0],
        [0, 0, c(half, half), 0, 1],
        [0, 1, 0, c(-half, -half), 0],
        [0, 0, 1, 0, c(-half, half)],
    ]) is subroutines.V


def test_fourier_oracle_unitary_all_inputs():
    for bits in ALL_3BIT:
        assert fourier_oracle(bits).is_unitary()


def test_projectors_sum_to_identity():
    assert PI0.indices | PI1.indices | PI2.indices == frozenset(range(5))
    assert not PI0.indices & PI1.indices
    assert not PI1.indices & PI2.indices


def sign_oracle(bits):
    """O_x on 5 dimensions as an explicit diagonal: -1 on the 1-bits."""
    return SquareMatrix([[(-ONE if i < 3 and bits[i] == "1" else ONE)
                          if i == j else ZERO for j in range(5)]
                         for i in range(5)])


def test_sign_oracle_diagonal():
    m = sign_oracle("101")
    assert [m[i, i] for i in range(5)] == [-ONE, ONE, -ONE, ONE, ONE]
    assert all(m[i, j] == ZERO for i in range(5) for j in range(5) if i != j)


def test_fourier_oracle_is_the_two_product_form():
    for bits in ALL_3BIT:
        reference = subroutines._QFT_DAG.matmul(sign_oracle(bits)).matmul(QFT)
        assert fourier_oracle(bits) is reference


@pytest.mark.parametrize("bits", ["10", "1010", "10a", "abc"])
def test_fourier_oracle_needs_three_bits(bits):
    with pytest.raises(ValueError):
        fourier_oracle(bits)


# ---------------------------------------------------------
# Deutsch (parity) subroutine
# ---------------------------------------------------------

@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_deutsch_outputs_parity(bits):
    o = CountingOracle(int(bits, 2), len(bits))
    assert deutsch(o, pair(1, 2)) == weight(bits) % 2
    assert o.query_count == 1


def test_deutsch_arbitrary_pair():
    o = CountingOracle(0b01101, 5)
    assert deutsch(o, pair(2, 5)) == 0
    assert deutsch(o, pair(3, 4)) == 1


def test_deutsch_rejects_equal_indices():
    # A repeated index is no view at all, and a view of the wrong
    # dimension raises in the query before it is logged: three indices,
    # one, or two with padding.
    with pytest.raises(ValueError, match="duplicate indices"):
        BlockView((1, 1))
    o = CountingOracle(0b111, 3)
    for view in [BlockView((1, 2, 3)), BlockView((1,)),
                 BlockView((1, 2), 1), triple(1, 2, 3)]:
        with pytest.raises(ValueError, match="state dim 2 != view dim"):
            deutsch(o, view)
    assert o.query_count == 0


# ---------------------------------------------------------
# Mod-3 subroutine
# ---------------------------------------------------------

@pytest.mark.parametrize("bits", ALL_3BIT)
def test_mod3_outputs_weight_mod_3(bits):
    o = CountingOracle(int(bits, 2), len(bits))
    assert mod3(o, triple(1, 2, 3)) == weight(bits) % 3
    assert o.query_count == 2


def test_mod3_on_subset_of_longer_input():
    # x = 110101: indices (2, 4, 6) carry 1, 1, 1; indices (1, 3, 5) carry 1, 0, 0
    assert mod3(CountingOracle(0b110101, 6), triple(2, 4, 6)) == 0
    assert mod3(CountingOracle(0b110101, 6), triple(1, 3, 5)) == 1


def test_mod3_deterministic_measurement():
    for bits in ALL_3BIT:
        o = CountingOracle(int(bits, 2), len(bits))
        state = mod3_final_state(o, triple(1, 2, 3))
        masses = [p.mass(state) for p in (PI0, PI1, PI2)]
        assert sorted(masses) == [0, 0, 1]
        assert masses[weight(bits) % 3] == 1


def test_mod3_rejects_repeated_indices():
    # As for deutsch: a repeated index is no view, and a view of the
    # wrong dimension raises before its first query, the unpadded triple
    # and the padded pair or quadruple included.
    for repeated in [(1, 2, 2), (1, 1, 2), (3, 2, 3)]:
        with pytest.raises(ValueError, match="duplicate indices"):
            BlockView(repeated, MOD3_PADDING)
    o = CountingOracle(0b1111, 4)
    for view in [BlockView((1, 2, 3)), pair(1, 2),
                 BlockView((1, 2), MOD3_PADDING),
                 BlockView((1, 2, 3, 4), MOD3_PADDING)]:
        with pytest.raises(ValueError, match="state dim 5 != view dim"):
            mod3(o, view)
    assert o.query_count == 0


# ---------------------------------------------------------
# Intermediate-state trace against the frozen table
# ---------------------------------------------------------

def test_trace_spot_values():
    third = Fraction(1, 3)
    tr = trace_mod3("100")
    assert tr.psi1 == StateVector([
        AlgebraicNumber.from_rational(third),
        AlgebraicNumber.from_rational(-2 * third),
        AlgebraicNumber.from_rational(-2 * third),
        AlgebraicNumber.from_rational(0),
        AlgebraicNumber.from_rational(0),
    ])
    assert trace_mod3("000").psi2 == StateVector.basis_state(5, 0)
    assert trace_mod3("111").psi3 == StateVector.basis_state(5, 0)


def test_trace_matches_frozen_table_exactly():
    frozen = load_state_table()
    for bits in STATE_TABLE_ORDER:
        tr = trace_mod3(bits).as_list()
        for stage, state in zip(STAGES, tr):
            assert state == frozen[stage][bits], (stage, bits)


def test_trace_states_are_unit():
    for bits in ALL_3BIT:
        for state in trace_mod3(bits).as_list():
            assert inner(state, state) == ONE


def test_fused_run_equals_unfused_final_state():
    for bits in ALL_3BIT:
        o = CountingOracle(int(bits, 2), len(bits))
        assert mod3_final_state(o, triple(1, 2, 3)) == trace_mod3(bits).psi4


# ---------------------------------------------------------
# Gram matrix and closed forms
# ---------------------------------------------------------

@pytest.fixture(scope="module")
def gram():
    return gram_matrix()


def test_gram_corner(gram):
    assert gram[0][7] == ONE


def test_gram_unit_diagonal(gram):
    for i in range(8):
        assert gram[i][i] == ONE


def test_gram_001_010_entry(gram):
    # lexicographic indices 1 and 2
    assert gram[1][2] == AlgebraicNumber.from_rational(Fraction(-1, 2))


def test_gram_matches_frozen_matrix(gram):
    frozen = load_gram()
    for i in range(8):
        for j in range(8):
            assert gram[i][j] == frozen[i][j], (i, j)


def test_gram_hermitian(gram):
    for i in range(8):
        for j in range(8):
            assert gram[i][j] == gram[j][i].conj()


def test_final_states_orthogonal_across_residues():
    finals = {bits: trace_mod3(bits).psi4 for bits in ALL_3BIT}
    for x, u in finals.items():
        for y, v in finals.items():
            if weight(x) % 3 != weight(y) % 3:
                assert inner(u, v).is_zero(), (x, y)


def test_closed_form_diagonal():
    assert gram_closed_form((1, 1, 1), (1, 1, 1), "48") == ONE
    assert gram_closed_form((1, 1, 1), (1, 1, 1), "16") == ONE


def test_closed_form_opposite_corners():
    assert gram_closed_form((1, 1, 1), (-1, -1, -1), "48") == ONE
    assert gram_closed_form((1, 1, 1), (-1, -1, -1), "16") == ONE


def test_closed_forms_match_states_on_all_64_pairs(gram):
    for xi, x in enumerate(ALL_3BIT):
        for yi, y in enumerate(ALL_3BIT):
            a, b = signs_of(x), signs_of(y)
            for variant in ("48", "16"):
                assert gram_closed_form(a, b, variant) == gram[xi][yi], \
                    (x, y, variant)
    assert gram_closed_form_mismatches(gram) == []


def test_closed_form_mismatches_name_a_corrupted_entry(gram):
    corrupted = [list(row) for row in gram]
    corrupted[1][2] = corrupted[1][2] + ONE
    assert gram_closed_form_mismatches(corrupted) == [
        ("001", "010", "48"), ("001", "010", "16")]


def test_closed_form_rejects_bad_signs():
    with pytest.raises(ValueError):
        gram_closed_form((1, 1, 0), (1, 1, 1))
    with pytest.raises(ValueError):
        gram_closed_form((1, 1, 1), (1, 2, 1), "48")
    with pytest.raises(ValueError):
        gram_closed_form((1, 1, 1), (1, 1, 1), "32")


# ---------------------------------------------------------
# Memoised apply/mass against products computed afresh
# ---------------------------------------------------------

def _memo_matches_fresh(matrix, v):
    """Cold and warm memo results, and an equal matrix's, equal a fresh product."""
    cold = matrix.apply(v)
    warm = matrix.apply(v)
    assert warm is cold
    ref = SquareMatrix.apply.__wrapped__(matrix, v)
    for got in (cold, warm, SquareMatrix(matrix.entries).apply(v)):
        assert got == ref
    return cold


def _masses_match_fresh(state):
    ref = [p.mass(StateVector(state.entries))
           for p in (PI0, PI1, PI2)]
    cold = [p.mass(state) for p in (PI0, PI1, PI2)]
    warm = [p.mass(state) for p in (PI0, PI1, PI2)]
    assert cold == warm == ref
    return ref


@pytest.mark.parametrize("bits", ALL_3BIT)
def test_mod3_memo_matches_fresh_matrices(bits):
    o = CountingOracle(int(bits, 2), len(bits))
    view = BlockView((1, 2, 3), padding=2)
    mid = _memo_matches_fresh(subroutines._MID,
                              o.phase_apply(view, subroutines._QFT_KET0))
    second = o.phase_apply(view, mid)
    masses = _masses_match_fresh(_memo_matches_fresh(subroutines._FIN, second))
    assert masses[weight(bits) % 3] == 1


@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_deutsch_memo_matches_fresh_matrix(bits):
    o = CountingOracle(int(bits, 2), len(bits))
    state = _memo_matches_fresh(
        H, o.phase_apply(BlockView((1, 2)), subroutines._H_KET0))
    assert support(state) == {weight(bits) % 2}


def test_memo_hits_still_make_every_query(fresh_tables):
    # Warm every memo on these local patterns, then repeat them: each call
    # must still make, count and log its queries.
    first, second = triple(1, 2, 3), pair(4, 5)
    mod3(CountingOracle(0b110, 3), first)
    deutsch(CountingOracle(0b00010, 5), second)
    warmed = [f.cache_info() for f in fresh_tables]
    o = CountingOracle(0b11010, 5)
    expected = []
    for call in range(3):
        assert mod3(o, first) == 2
        assert deutsch(o, second) == 1
        assert o.query_count == 3 * (call + 1)
        base = 3 * call
        expected += [
            {"kind": "phase", "indices": [1, 2, 3], "padding": 2,
             "count": base + 1},
            {"kind": "phase", "indices": [1, 2, 3], "padding": 2,
             "count": base + 2},
            {"kind": "phase", "indices": [4, 5], "padding": 0,
             "count": base + 3},
        ]
    assert o.transcript == expected
    for f, info in zip(fresh_tables, warmed):
        after = f.cache_info()
        assert (after.misses, after.currsize) == (info.misses, info.currsize)
    assert SquareMatrix.apply.cache_info().hits > 0


# ---------------------------------------------------------
# The outcome memo of deutsch and mod3
# ---------------------------------------------------------

def _fresh_outcome(state):
    masses = _masses_match_fresh(state)
    assert sorted(masses) == [0, 0, 1]
    return masses.index(1)


def test_deutsch_outcome_memo_matches_fresh_measurement(fresh_tables):
    # Cold, then warm: the 4 patterns leave 4 distinct states after the
    # query, ±|+> and ±|->, each measured once through H into ±|0> or ±|1>.
    memo = subroutines._measure
    states = {}
    for warm in (False, True):
        for bits in ("00", "01", "10", "11"):
            state = CountingOracle(int(bits, 2), 2).phase_apply(
                pair(1, 2), subroutines._H_KET0)
            states[bits] = state
            got = deutsch(CountingOracle(int(bits, 2), 2), pair(1, 2))
            fresh = SquareMatrix.apply.__wrapped__(H, state)
            assert support(fresh) == {weight(bits) % 2}
            assert got == memo.__wrapped__(H, state) == weight(bits) % 2
        info = memo.cache_info()
        assert info.misses == info.currsize == 4
        assert info.hits == 4 * warm
    # The key is (matrix, state): an equal H built elsewhere shares H's
    # entries, and H with its rows swapped gets its own, inverted ones.
    copy = SquareMatrix(H.entries)
    swapped = SquareMatrix(H.entries[::-1])
    for bits, state in states.items():
        assert memo(copy, state) == weight(bits) % 2
        assert memo(swapped, state) == 1 - weight(bits) % 2
        assert memo(H, state) == weight(bits) % 2
    info = memo.cache_info()
    assert info.misses == info.currsize == 8
    assert info.hits == 4 + 4 + 4


def test_mod3_outcome_memo_matches_fresh_measurement(fresh_tables):
    # Cold, then warm: 000 and 111 share the state before _FIN (both end
    # in |0>), so the 8 patterns leave 7 entries.
    memo = subroutines._measure
    fin = subroutines._FIN
    states = {}
    for warm in (False, True):
        for bits in ALL_3BIT:
            o = CountingOracle(int(bits, 2), 3)
            state = subroutines._state_before_fin(o, triple(1, 2, 3))
            states[bits] = state
            got = mod3(CountingOracle(int(bits, 2), 3), triple(1, 2, 3))
            fresh = SquareMatrix.apply.__wrapped__(fin, state)
            assert fresh == mod3_final_state(CountingOracle(int(bits, 2), 3),
                                             triple(1, 2, 3))
            assert got == memo.__wrapped__(fin, state) \
                == _fresh_outcome(fresh) == weight(bits) % 3
        info = memo.cache_info()
        assert info.misses == info.currsize == 7
        assert info.hits == 1 + 8 * warm
    # _FIN with the rows of PI1 and PI2 swapped reads residue 3 - r for r:
    # it gets its own entries and never the true _FIN's outcomes.
    swapped = SquareMatrix([fin.entries[r] for r in (0, 3, 4, 1, 2)])
    for bits, state in states.items():
        assert memo(swapped, state) == -weight(bits) % 3
        assert memo(fin, state) == weight(bits) % 3
    info = memo.cache_info()
    assert info.misses == info.currsize == 14
    # A state of neither circuit's dimension has no measurement.
    with pytest.raises(InvariantViolation, match="no measurement of a 3-dim"):
        memo(SquareMatrix.identity(3), StateVector.basis_state(3, 0))
    assert memo.cache_info().currsize == 14


def test_non_basis_parity_state_is_an_invariant_violation(fresh_tables,
                                                          monkeypatch):
    # Without the final H the state is ±|+> or ±|->, with mass 1/2 on
    # each outcome: deutsch raises on every call and stores nothing.
    monkeypatch.setattr(subroutines, "H", SquareMatrix.identity(2))
    o = CountingOracle(0b01, 2)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="not deterministic"):
            deutsch(o, pair(1, 2))
    assert o.query_count == 2
    assert subroutines._measure.cache_info().currsize == 0
    row = verify_cell(2, 2)
    assert row.failures == row.inputs == 4
    for _, reasons in row.first_failures:
        assert len(reasons) == 1
        assert reasons[0].startswith("InvariantViolation: projector masses")
    assert subroutines._measure.cache_info().currsize == 0


def test_irrational_mass_is_an_invariant_violation(fresh_tables, monkeypatch):
    # |1 + sqrt2|^2 = 3 + 2 sqrt2: Projector.mass raises ValueError, and
    # mod3 reports it as an impossible outcome, storing nothing.  _FIN is
    # unitary, so its adjoint gives the state before it exactly.
    final = StateVector([ONE + SQRT2] + [ZERO] * 4)
    before = subroutines._FIN.dagger().apply(final)
    assert subroutines._FIN.apply(before) == final
    monkeypatch.setattr(subroutines, "_state_before_fin",
                        lambda o, t: before)
    o = CountingOracle(0b000, 3)
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="not rational"):
            mod3(o, triple(1, 2, 3))
    info = subroutines._measure.cache_info()
    assert info.misses == 2 and info.currsize == 0
    # The sweep counts each such input as a failure and goes on.
    row = verify_cell(3, 3)
    assert row.failures == row.inputs == 8
    assert [bits for bits, _ in row.first_failures] == ["000", "001", "010"]
    for _, reasons in row.first_failures:
        assert len(reasons) == 1
        assert reasons[0].startswith("InvariantViolation: projected mass")

from fractions import Fraction

import pytest

from qmodw.algebra import AlgebraicNumber, ONE, SQRT2, ZERO
from qmodw.fixtures import STAGES, STATE_TABLE_ORDER, load_gram, load_state_table
from qmodw.linalg import SquareMatrix, StateVector, inner
from qmodw.oracle import BlockView, CountingOracle
from qmodw import subroutines
from qmodw.sweep import verify_cell
from qmodw.subroutines import (
    ALL_3BIT, H, PI0, PI1, PI2, QFT, U, V, InvariantViolation,
    deutsch, fourier_oracle, gram_closed_form, gram_closed_form_mismatches,
    gram_matrix, mod3, mod3_final_state, oracle_matrix, signs_of, trace_mod3,
)


def weight(bits):
    return bits.count("1")


# ---------------------------------------------------------
# Constants
# ---------------------------------------------------------

def test_constants_unitary():
    for m in (H, QFT, U, V):
        assert m.is_unitary()


def test_fourier_oracle_unitary_all_inputs():
    for bits in ALL_3BIT:
        assert fourier_oracle(bits).is_unitary()


def test_projectors_sum_to_identity():
    assert PI0.indices | PI1.indices | PI2.indices == frozenset(range(5))
    assert not PI0.indices & PI1.indices
    assert not PI1.indices & PI2.indices


def test_oracle_matrix_signs():
    m = oracle_matrix("101", padding=2)
    diag = [m[i, i] for i in range(5)]
    assert diag == [-ONE, ONE, -ONE, ONE, ONE]


# ---------------------------------------------------------
# Deutsch (parity) subroutine
# ---------------------------------------------------------

@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_deutsch_outputs_parity(bits):
    o = CountingOracle(bits)
    assert deutsch(o, (1, 2)) == weight(bits) % 2
    assert o.query_count == 1


def test_deutsch_arbitrary_pair():
    o = CountingOracle("01101")
    assert deutsch(o, (2, 5)) == 0
    assert deutsch(o, (3, 4)) == 1


def test_deutsch_rejects_equal_indices():
    # A repeated index and a wrong arity both raise before any query.
    o = CountingOracle("111")
    for pair in [(1, 1), (1, 2, 3)]:
        with pytest.raises(ValueError):
            deutsch(o, pair)
    assert o.query_count == 0


# ---------------------------------------------------------
# Mod-3 subroutine
# ---------------------------------------------------------

@pytest.mark.parametrize("bits", ALL_3BIT)
def test_mod3_outputs_weight_mod_3(bits):
    o = CountingOracle(bits)
    assert mod3(o, (1, 2, 3)) == weight(bits) % 3
    assert o.query_count == 2


def test_mod3_on_subset_of_longer_input():
    # x = 110101: indices (2, 4, 6) carry 1, 1, 1; indices (1, 3, 5) carry 1, 0, 0
    assert mod3(CountingOracle("110101"), (2, 4, 6)) == 0
    assert mod3(CountingOracle("110101"), (1, 3, 5)) == 1


def test_mod3_deterministic_measurement():
    for bits in ALL_3BIT:
        o = CountingOracle(bits)
        state = mod3_final_state(o, (1, 2, 3))
        masses = [p.mass(state) for p in (PI0, PI1, PI2)]
        assert sorted(masses) == [0, 0, 1]
        assert masses[weight(bits) % 3] == 1


def test_mod3_rejects_repeated_indices():
    o = CountingOracle("111")
    for triple in [(1, 2, 2), (1, 1, 2), (3, 2, 3), (1, 2)]:
        with pytest.raises(ValueError):
            mod3(o, triple)
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
            assert state.norm_sq() == ONE


def test_fused_run_equals_unfused_final_state():
    for bits in ALL_3BIT:
        o = CountingOracle(bits)
        assert mod3_final_state(o, (1, 2, 3)) == trace_mod3(bits).psi4


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
    o = CountingOracle(bits)
    view = BlockView((1, 2, 3), padding=2)
    mid = _memo_matches_fresh(subroutines._MID,
                              o.phase_apply(view, subroutines._QFT_KET0))
    second = o.phase_apply(view, mid)
    masses = _masses_match_fresh(_memo_matches_fresh(subroutines._FIN, second))
    assert masses[weight(bits) % 3] == 1


@pytest.mark.parametrize("bits", ["00", "01", "10", "11"])
def test_deutsch_memo_matches_fresh_matrix(bits):
    o = CountingOracle(bits)
    state = _memo_matches_fresh(
        H, o.phase_apply(BlockView((1, 2)), subroutines._H_KET0))
    assert state.support() == {weight(bits) % 2}


def test_memo_hits_still_make_every_query(fresh_tables):
    # Warm every memo on these local patterns, then repeat them: each call
    # must still make, count and log its queries.
    mod3(CountingOracle("110"), (1, 2, 3))
    deutsch(CountingOracle("00010"), (4, 5))
    warmed = [f.cache_info() for f in fresh_tables]
    o = CountingOracle("11010")
    expected = []
    for call in range(3):
        assert mod3(o, (1, 2, 3)) == 2
        assert deutsch(o, (4, 5)) == 1
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
# The outcome memos of deutsch and mod3
# ---------------------------------------------------------

def test_deutsch_outcome_memo_matches_fresh_measurement(fresh_tables):
    # Cold, then warm: the 4 patterns end in 4 distinct final states,
    # +|0>, -|0>, +|1> and -|1>, measured once each.
    memo = subroutines._measure_parity
    for warm in (False, True):
        for bits in ("00", "01", "10", "11"):
            state = H.apply(CountingOracle(bits).phase_apply(
                BlockView((1, 2)), subroutines._H_KET0))
            got = deutsch(CountingOracle(bits), (1, 2))
            assert got == memo.__wrapped__(state) == weight(bits) % 2
        info = memo.cache_info()
        assert info.misses == info.currsize == 4
        assert info.hits == 4 * warm


def test_non_basis_parity_state_is_an_invariant_violation(fresh_tables,
                                                          monkeypatch):
    # Without the final H the state is ±|+> or ±|->, supported on both
    # indices: deutsch raises on every call and stores nothing.
    monkeypatch.setattr(subroutines, "H", SquareMatrix.identity(2))
    o = CountingOracle("01")
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="not a basis state"):
            deutsch(o, (1, 2))
    assert o.query_count == 2
    assert subroutines._measure_parity.cache_info().currsize == 0
    row = verify_cell(2, 2)
    assert row.failures == row.inputs == 4
    for _, reasons in row.first_failures:
        assert len(reasons) == 1
        assert reasons[0].startswith("InvariantViolation: parity state")
    assert subroutines._measure_parity.cache_info().currsize == 0


def _fresh_outcome(state):
    masses = _masses_match_fresh(state)
    assert sorted(masses) == [0, 0, 1]
    return masses.index(1)


def test_mod3_outcome_memo_matches_fresh_measurement(fresh_tables):
    # Cold, then warm: 000 and 111 share the final state |0>, so the
    # 8 patterns leave 7 entries.
    memo = subroutines._measure_mod3
    for warm in (False, True):
        for bits in ALL_3BIT:
            state = mod3_final_state(CountingOracle(bits), (1, 2, 3))
            got = mod3(CountingOracle(bits), (1, 2, 3))
            assert got == memo.__wrapped__(state) == _fresh_outcome(state) \
                == weight(bits) % 3
        info = memo.cache_info()
        assert info.misses == info.currsize == 7
        assert info.hits == 1 + 8 * warm


def test_irrational_mass_is_an_invariant_violation(fresh_tables, monkeypatch):
    # |1 + sqrt2|^2 = 3 + 2 sqrt2: Projector.mass raises ValueError, and
    # mod3 reports it as an impossible outcome, storing nothing.
    state = StateVector([ONE + SQRT2] + [ZERO] * 4)
    monkeypatch.setattr(subroutines, "mod3_final_state", lambda o, t: state)
    o = CountingOracle("000")
    for _ in range(2):
        with pytest.raises(InvariantViolation, match="not rational"):
            mod3(o, (1, 2, 3))
    info = subroutines._measure_mod3.cache_info()
    assert info.misses == 2 and info.currsize == 0
    # The sweep counts each such input as a failure and goes on.
    row = verify_cell(3, 3)
    assert row.failures == row.inputs == 8
    assert [bits for bits, _ in row.first_failures] == ["000", "001", "010"]
    for _, reasons in row.first_failures:
        assert len(reasons) == 1
        assert reasons[0].startswith("InvariantViolation: projected mass")

"""Injected faults must fail the sweep, with the circuit tables cold or warm.

Each fault makes ``verify_cell`` report failing inputs with reasons and
``qmodw sweep --n-max 4`` exit 3.  A warm run first fills every memo
(the oracle's views and flips, the outcomes of ``deutsch`` and ``mod3``
keyed on their final matrix, the index checks with the prime factors
of each modulus, the audit's shapes and the ``apply`` products) with a
correct sweep, so a fault that a stored entry could hide would
show up as a passing warm run.  The ``fresh_tables`` fixture empties
those memos before and after the test.

The last test injects a fault the sweep cannot see, a sign flip on the
wrong row of the Fourier-basis oracle Ox~, which the sweep never builds:
only the frozen state table and the Gram matrix fail on it.
"""

import re

import pytest

from qmodw import hamming_mod, oracle, subroutines, sweep
from qmodw.cli import main
from qmodw.linalg import SquareMatrix
from qmodw.sweep import DEFAULT_MODULI, FAILURES_KEPT, verify_cell
from qmodw.oracle import CountingOracle
from qmodw.sweep import _run_problems, audit_partition

N_MAX = 4


def _cells():
    return [verify_cell(n, m) for n in range(1, N_MAX + 1)
            for m in DEFAULT_MODULI]


def corrupt_u(monkeypatch):
    # Negating U[0][0] breaks the mod-3 circuit on every non-constant
    # triple: the final masses are no longer 0/1, an InvariantViolation.
    # (Corrupting U[1][3] instead goes unseen by the sweep: the states that
    # reach U have zero amplitude on dimensions 3 and 4, so columns 3-4 of
    # U never act.  test_constants_unitary guards those entries.)
    rows = [list(r) for r in subroutines.U.entries]
    rows[0][0] = -rows[0][0]
    mid = (subroutines.QFT.matmul(SquareMatrix(rows))
           .matmul(subroutines._QFT_DAG))
    monkeypatch.setattr(subroutines, "_MID", mid)


def corrupt_v(monkeypatch):
    # Negating V[1][1] splits the weight-1 outcome's mass.  (Negating
    # V[0][0] goes unseen by the sweep: it only flips the phase of the
    # final state |0> of the constant triples.  V stays unitary; the frozen
    # state table guards that entry.)
    rows = [list(r) for r in subroutines.V.entries]
    rows[1][1] = -rows[1][1]
    monkeypatch.setattr(subroutines, "_FIN",
                        SquareMatrix(rows).matmul(subroutines._QFT_DAG))


def corrupt_h(monkeypatch):
    # H with its rows swapped sends the even-parity state to |1> and the
    # odd one to |0>: every parity comes out inverted, and each final state
    # is one that the correct H gives for the other parity, so the warm
    # outcome memo holds an entry for it.
    monkeypatch.setattr(subroutines, "H",
                        SquareMatrix(subroutines.H.entries[::-1]))


def drop_flip(monkeypatch):
    # phase_apply still counts and logs the query but leaves the first
    # flipped row unflipped.
    real = oracle._flipped
    monkeypatch.setattr(oracle, "_flipped",
                        lambda v, rows: real(v, rows[1:]))


def skip_query(monkeypatch):
    # The last leftover index is put in s2 without being read.
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        if len(indices) % m == 0:
            return real(o, indices, m)
        blocks, s2, w2 = real(o, indices[:-1], m)
        return blocks, s2 + [indices[-1]], w2
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)


def w2_off_by_one(monkeypatch):
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        blocks, s2, w2 = real(o, indices, m)
        return blocks, s2, w2 + 1
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)


def mid_wrong_dimension(monkeypatch):
    # A 4 x 4 _MID cannot act on the 5-dim mod-3 state: apply raises a
    # ValueError on every call, so no product or outcome is ever stored.
    monkeypatch.setattr(subroutines, "_MID", SquareMatrix.identity(4))


def extra_leftover_read(monkeypatch):
    # The last leftover bit is read a second time: the answer and the
    # partition stay right, and a run that used its whole budget goes
    # one query over it.
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        found = real(o, indices, m)
        if len(indices) % m:
            o.query_bit(indices[-1])
        return found
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)


def misreported_queries(monkeypatch):
    # The run reports one query fewer than the oracle counted.
    real = sweep.partition_weight

    def partition_weight(o, indices, m):
        result = real(o, indices, m)
        return result._replace(queries=result.queries - 1)
    monkeypatch.setattr(sweep, "partition_weight", partition_weight)


def block_with_a_non_index(monkeypatch):
    # Each base-case block gains a None: at a prime m the run ends with
    # a right answer and the audit raises reading the block; at a
    # composite m the next level raises taking its representative.
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        blocks, s2, w2 = real(o, indices, m)
        return [block + (None,) for block in blocks], s2, w2
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)


FAULTS = [corrupt_u, corrupt_v, corrupt_h, drop_flip, skip_query,
          w2_off_by_one, mid_wrong_dimension, extra_leftover_read,
          misreported_queries, block_with_a_non_index]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
def test_fault_fails_the_sweep(fresh_tables, monkeypatch, capsys, fault,
                               warm):
    if warm:
        assert all(row.failures == 0 for row in _cells())
        assert all(f.cache_info().currsize for f in fresh_tables)
    fault(monkeypatch)
    failing = [row for row in _cells() if row.failures]
    assert failing
    for row in failing:
        assert 0 < len(row.first_failures) <= min(FAILURES_KEPT, row.failures)
        for bits, reasons in row.first_failures:
            assert len(bits) == row.n and reasons
    assert main(["sweep", "--n-max", str(N_MAX), "--threads", "1"]) == 3
    err = capsys.readouterr().err
    row = failing[0]
    bits, reasons = row.first_failures[0]
    assert f"FAIL: n={row.n} m={row.m}: {row.failures} of {row.inputs}" in err
    assert f"  x={bits}: " + "; ".join(reasons) in err


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("fault, reason", [
    (extra_leftover_read, r"used \d+ queries, bound \d+"),
    (misreported_queries,
     r"oracle counted \d+ queries, result reports \d+"),
    (block_with_a_non_index, r"TypeError: .+"),
], ids=["extra_leftover_read", "misreported_queries",
        "block_with_a_non_index"])
def test_run_reports_the_reason_the_sweep_keeps(fresh_tables, monkeypatch,
                                                capsys, fault, reason, warm):
    # Only the budget reason, only the count reason, or an exception in
    # the judgement sees these faults; `qmodw run` on each kept input
    # prints the kept reason.
    if warm:
        assert all(row.failures == 0 for row in _cells())
    fault(monkeypatch)
    failing = [row for row in _cells() if row.failures]
    assert failing
    for row in failing:
        for bits, reasons in row.first_failures:
            [kept] = reasons
            assert re.fullmatch(reason, kept)
            assert main(["run", "--x", bits, "--m", str(row.m)]) == 3
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {kept}\n"


def test_an_exception_fails_its_inputs_not_the_sweep(fresh_tables,
                                                     monkeypatch):
    # Every n = 3 input runs mod3 on (1, 2, 3) at m = 3 and none does at
    # m = 2: the error is each m = 3 input's reason, and m = 2 passes.
    mid_wrong_dimension(monkeypatch)
    row = verify_cell(3, 3)
    assert (row.failures, row.max_queries, row.zero_input_queries) == (8, 0, -1)
    assert row.first_failures == tuple(
        (bits, ("ValueError: dimension mismatch: 4 != 5",))
        for bits in ("000", "001", "010"))
    assert verify_cell(3, 2).failures == 0


def test_a_block_with_a_non_index_is_audited_once(fresh_tables,
                                                  monkeypatch):
    # The result's blocks are tuples, so the TypeError is the audit's
    # own: the shape is computed once and the error chains to nothing.
    block_with_a_non_index(monkeypatch)
    result = hamming_mod.partition_weight(CountingOracle.from_int(0, 2),
                                          (1, 2), 2)
    assert result.blocks == ((1, 2, None),)
    with pytest.raises(TypeError) as caught:
        audit_partition(result, 0, 2, (1, 2))
    assert caught.value.__context__ is None
    assert sweep._audit_shape.cache_info().misses == 1
    _, result, reasons = sweep.judge_run(0, 2, 2, (1, 2), 1)
    assert result is None
    assert reasons == ["TypeError: '<' not supported between instances "
                       "of 'int' and 'NoneType'"]
    assert sweep._audit_shape.cache_info().misses == 2


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_group_the_glue_plan_does_not_hold_fails_its_input(
        fresh_tables, monkeypatch, warm):
    # Each base case hands its groups back reversed.  The first level's
    # blocks stay constant and a partition, so m = 2 passes; a constant
    # group of representatives, (3, 1) at m = 4, is not one the glue
    # plan holds, so its input fails with a KeyError instead of being
    # glued.
    if warm:
        assert verify_cell(4, 4).failures == 0
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        blocks, s2, w2 = real(o, indices, m)
        return [block[::-1] for block in blocks], s2, w2
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)
    assert verify_cell(4, 2).failures == 0
    row = verify_cell(4, 4)
    assert row.failures == 2
    assert row.first_failures == tuple(
        (bits, ("KeyError: (3, 1)",)) for bits in ("0000", "1111"))


# ---------------------------------------------------------
# Faults that keep the residue and the query budget right
# ---------------------------------------------------------

def glue_next_block(monkeypatch):
    # Each representative brings the block of the representative after it
    # (the last one brings its own), so a glued block can mix blocks of
    # different values or repeat one while another goes missing.  s2 and
    # the level weight stay exact, so only the audit can tell.
    def glue(o, blocks, p, s2):
        rep_block = {min(b): b for b in blocks}
        reps = list(rep_block)
        rep_groups, rep_s2, level_w2 = hamming_mod._base_case(
            o, tuple(reps), p)
        glued = dict(zip(reps, reps[1:] + reps[-1:]))
        new_blocks = [tuple(sorted(i for rep in group
                                   for i in rep_block[glued[rep]]))
                      for group in rep_groups]
        for rep in rep_s2:
            s2.extend(rep_block[rep])
        return new_blocks, level_w2
    monkeypatch.setattr(hamming_mod, "_glue", glue)


def leftover_read_not_in_s2(monkeypatch):
    # The last leftover bit is read and counted into w2, but its index is
    # left out of s2.
    real = hamming_mod._base_case

    def base_case(o, indices, m):
        blocks, s2, w2 = real(o, indices, m)
        if len(indices) % m:
            s2 = s2[:-1]
        return blocks, s2, w2
    monkeypatch.setattr(hamming_mod, "_base_case", base_case)


AUDIT_ONLY_FAULTS = [glue_next_block, leftover_read_not_in_s2]


def _audit_failures(n, m, bound):
    """(bits, reasons) of every input the audit fails, in sweep order.

    Checks on the way that no input has a residue or budget mismatch.
    """
    indices = range(1, n + 1)
    failures = []
    for hidden in range(2 ** n):
        bits = format(hidden, f"0{n}b")
        o = CountingOracle.from_int(hidden, n)
        result = hamming_mod.partition_weight(o, indices, m)
        assert _run_problems(result, hidden, m, bound, o) == []
        reasons = audit_partition(result, hidden, n, indices)
        if reasons:
            failures.append((bits, tuple(reasons)))
    return failures


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("fault", AUDIT_ONLY_FAULTS, ids=lambda f: f.__name__)
def test_only_the_audit_catches_fault(fresh_tables, monkeypatch, capsys,
                                      fault, warm):
    if warm:
        assert all(row.failures == 0 for row in _cells())
        assert all(f.cache_info().currsize for f in fresh_tables)
    fault(monkeypatch)
    rows = _cells()
    assert any(row.failures for row in rows)
    for row in rows:
        failures = _audit_failures(row.n, row.m, row.bound)
        assert row.failures == len(failures)
        assert row.first_failures == tuple(failures[:FAILURES_KEPT])
    assert main(["sweep", "--n-max", str(N_MAX), "--threads", "1"]) == 3
    err = capsys.readouterr().err
    row = next(row for row in rows if row.failures)
    bits, reasons = row.first_failures[0]
    assert f"FAIL: n={row.n} m={row.m}: {row.failures} of {row.inputs}" in err
    assert f"  x={bits}: " + "; ".join(reasons) in err


# ---------------------------------------------------------
# A fault that only the state table and the Gram matrix see
# ---------------------------------------------------------

def test_only_the_state_table_and_gram_see_a_shifted_oracle_flip(
        fresh_tables, monkeypatch, capsys):
    # Ox~ negates row (i + 1) % dim of QFT for each 1-bit i in place of
    # row i.  A sign flip is unitary, and the sweep applies O_x through
    # phase_apply and never builds Ox~, so only the checks that run the
    # circuit through Ox~ fail.
    negated_rows = SquareMatrix._negated_rows
    monkeypatch.setattr(
        SquareMatrix, "_negated_rows",
        lambda m, rows: negated_rows(m, [(i + 1) % m.dim for i in rows]))
    assert all(subroutines.fourier_oracle(bits).is_unitary()
               for bits in subroutines.ALL_3BIT)
    assert main(["verify-states"]) == 3
    assert main(["gram"]) == 3
    assert main(["gram", "--format", "json"]) == 3
    assert "MISMATCH: G[" in capsys.readouterr().err
    assert all(verify_cell(6, m).all_correct for m in DEFAULT_MODULI)

"""Injected faults must fail the sweep, with the circuit tables cold or warm.

Each fault makes ``verify_cell`` report failing inputs with reasons and
``qmodw sweep --n-max 4`` exit 3.  A warm run first fills every memo
(the oracle's flips, the one outcome memo of ``deutsch`` and ``mod3``
keyed on their final matrix, the plan trees of ``partition_weight``
with their views, the audit's shapes and the ``apply`` products) with a
correct sweep, so a fault that a stored entry could hide would show up
as a passing warm run.  The ``fresh_tables`` fixture empties those memos
before and after the test.

The faults of a run's measurements go through the per-level function
``hamming_mod._measure_level``, which runs on every call.  Blocks and s2
come from the plan tree, built once per mask path, so a fault in them
has two forms: one in the child builder ``hamming_mod._child``, which
only a cold tree runs, and one that rewrites each result on its way to
the sweep, cold or warm.

The last test injects a fault the sweep cannot see, a sign flip on the
wrong row of the Fourier-basis oracle Ox~, which the sweep never builds:
only the frozen state table and the Gram matrix fail on it.
"""

import re

import pytest

from qmodw import hamming_mod, oracle, subroutines, sweep
from qmodw.cli import main
from qmodw.hamming_mod import PartitionResult, factor_split
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


def scaled_h(monkeypatch):
    # 2 H sends each parity state to 2 |0> or 2 |1>: the support is still
    # one index, but the outcome's mass is 4, not 1.
    two = subroutines._rat(2)
    monkeypatch.setattr(subroutines, "H", SquareMatrix(
        [[two * e for e in row] for row in subroutines.H.entries]))


def drop_flip(monkeypatch):
    # phase_apply still counts and logs the query but leaves the first
    # flipped row unflipped.
    real = oracle._flipped
    monkeypatch.setattr(oracle, "_flipped",
                        lambda v, rows: real(v, rows[1:]))


def skip_query(monkeypatch):
    # The last leftover index of a level stays in s2 but is not read.
    real = hamming_mod._measure_level

    def measure_level(o, groups, rest, p):
        return real(o, groups, rest[:-1], p)
    monkeypatch.setattr(hamming_mod, "_measure_level", measure_level)


def w2_off_by_one(monkeypatch):
    real = hamming_mod._measure_level

    def measure_level(o, groups, rest, p):
        mask, w = real(o, groups, rest, p)
        return mask, w + 1
    monkeypatch.setattr(hamming_mod, "_measure_level", measure_level)


def mid_wrong_dimension(monkeypatch):
    # A 4 x 4 _MID cannot act on the 5-dim mod-3 state: apply raises a
    # ValueError on every call, so no product or outcome is ever stored.
    monkeypatch.setattr(subroutines, "_MID", SquareMatrix.identity(4))


def extra_leftover_read(monkeypatch):
    # The last leftover bit is read a second time: the answer and the
    # partition stay right, and a run that used its whole budget goes
    # one query over it.
    real = hamming_mod._measure_level

    def measure_level(o, groups, rest, p):
        found = real(o, groups, rest, p)
        if rest:
            o.query_bit(rest[-1])
        return found
    monkeypatch.setattr(hamming_mod, "_measure_level", measure_level)


def misreported_queries(monkeypatch):
    # The run reports one query fewer than the oracle counted.
    real = sweep.partition_weight

    def partition_weight(o, m):
        result = real(o, m)
        return result._replace(queries=result.queries - 1)
    monkeypatch.setattr(sweep, "partition_weight", partition_weight)


def block_with_a_non_index(monkeypatch):
    # Each level's mask also marks constant a group after its last one,
    # whose block would hold indices the level does not have: the child
    # lookup raises, cold or warm, and stores nothing.
    real = hamming_mod._measure_level

    def measure_level(o, groups, rest, p):
        mask, w = real(o, groups, rest, p)
        return mask | 1 << len(groups), w
    monkeypatch.setattr(hamming_mod, "_measure_level", measure_level)


FAULTS = [corrupt_u, corrupt_v, corrupt_h, scaled_h, drop_flip,
          skip_query, w2_off_by_one, mid_wrong_dimension,
          extra_leftover_read, misreported_queries, block_with_a_non_index]


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
    (block_with_a_non_index,
     r"ValueError: mask 0b1[01]* marks a group beyond the \d+ of its level"),
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
    # The TypeError is the audit's own: the shape is computed once per
    # call, not retried, and the error chains to nothing.
    # The run that judge_run replays makes its one query and returns it.
    result = PartitionResult(2, ((1, 2, None),), (), 0, 1)

    def partition_weight(o, m):
        o.query_bit(1)
        return result
    monkeypatch.setattr(sweep, "partition_weight", partition_weight)
    with pytest.raises(TypeError) as caught:
        audit_partition(result, 0, 2)
    assert caught.value.__context__ is None
    assert sweep._audit_shape.cache_info().misses == 1
    _, result, reasons = sweep.judge_run(0, 2, 2, 1)
    assert result is None
    assert reasons == ["TypeError: '<' not supported between instances "
                       "of 'int' and 'NoneType'"]
    assert sweep._audit_shape.cache_info().misses == 2


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_a_group_the_glue_plan_does_not_hold_fails_its_input(
        fresh_tables, monkeypatch, warm):
    # A mask that marks a group the level does not hold: every input
    # fails with the ValueError of the child lookup, a warm tree gains no
    # child, and once the level function is restored the cell passes.
    if warm:
        assert verify_cell(4, 4).failures == 0
    root = hamming_mod._plan(4, 4)
    children = dict(root.children)
    block_with_a_non_index(monkeypatch)
    row = verify_cell(4, 4)
    assert row.failures == 16
    assert row.first_failures == tuple(
        (bits, (f"ValueError: mask {mask:#b} marks a group beyond the 2 "
                "of its level",))
        for bits, mask in (("0000", 0b111), ("0001", 0b101),
                           ("0010", 0b101)))
    assert root.children == children
    assert len(children) == (4 if warm else 0)
    monkeypatch.undo()
    assert verify_cell(4, 4).failures == 0


# ---------------------------------------------------------
# Faults that keep the residue and the query budget right
# ---------------------------------------------------------

def glue_next_block(monkeypatch):
    # Each block of the result is replaced by the block after it (the
    # last one stays), so a block repeats while another goes missing.
    # s2, w2 and the queries stay exact, so only the audit can tell.
    real = sweep.partition_weight

    def partition_weight(o, m):
        result = real(o, m)
        blocks = result.blocks
        return result._replace(blocks=blocks[1:] + blocks[-1:])
    monkeypatch.setattr(sweep, "partition_weight", partition_weight)


def leftover_read_not_in_s2(monkeypatch):
    # The last index n, a leftover of the first level when the first
    # prime does not divide n, is read and counted into w2 but left out
    # of s2.
    real = sweep.partition_weight

    def partition_weight(o, m):
        result = real(o, m)
        if o.n % factor_split(m)[0]:
            result = result._replace(
                s2=tuple(i for i in result.s2 if i != o.n))
        return result
    monkeypatch.setattr(sweep, "partition_weight", partition_weight)


AUDIT_ONLY_FAULTS = [glue_next_block, leftover_read_not_in_s2]


def glue_next_block_in_the_plan(monkeypatch):
    # At each glue level a representative brings the block of the
    # representative after it (the last one brings its own), so a glued
    # block can mix blocks of different values or repeat one while
    # another goes missing.  s2 and the level weight stay exact.
    real = hamming_mod._child

    def child(node, mask):
        found = real(node, mask)
        rep_block = node.rep_block
        if rep_block is None:
            return found
        reps = list(rep_block)
        brought = dict(zip(reps, reps[1:] + reps[-1:]))
        blocks = tuple(
            tuple(sorted(i for rep in group.map
                         for i in rep_block[brought[rep]]))
            for j, group in enumerate(node.groups) if mask >> j & 1)
        if found.p:
            glued = {min(b): b for b in blocks}
            found = hamming_mod._Level(node.primes, found.size, tuple(glued),
                                       glued, found.s2)
        else:
            found = found._replace(blocks=blocks)
        node.children[mask] = found
        return found
    monkeypatch.setattr(hamming_mod, "_child", child)


def leftover_read_not_in_s2_in_the_plan(monkeypatch):
    # The indices of each level's last leftover are read and counted
    # into w2, but left out of s2.
    real = hamming_mod._child

    def child(node, mask):
        found = real(node, mask)
        if not node.rest:
            return found
        last = node.rest[-1]
        dropped = ((last,) if node.rep_block is None
                   else node.rep_block[last])
        s2 = tuple(i for i in found.s2 if i not in dropped)
        if found.p:
            found.s2 = s2
        else:
            found = node.children[mask] = found._replace(s2=s2)
        return found
    monkeypatch.setattr(hamming_mod, "_child", child)


PLAN_FAULTS = [glue_next_block_in_the_plan,
               leftover_read_not_in_s2_in_the_plan]


def _audit_failures(n, m, bound):
    """(bits, reasons) of every input the audit fails, in sweep order.

    Checks on the way that no input has a residue or budget mismatch.
    """
    failures = []
    for hidden in range(2 ** n):
        bits = format(hidden, f"0{n}b")
        o = CountingOracle(hidden, n)
        result = sweep.partition_weight(o, m)
        assert _run_problems(result, hidden, m, bound, o) == []
        reasons = audit_partition(result, hidden, n)
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
    _only_the_audit_fails(capsys)


@pytest.mark.parametrize("fault", PLAN_FAULTS, ids=lambda f: f.__name__)
def test_only_the_audit_catches_a_cold_plan_fault(fresh_tables, monkeypatch,
                                                  capsys, fault):
    # The child builder runs only on a cold tree, and every later run of
    # a path takes its faulty node, so the audit fails the same inputs.
    fault(monkeypatch)
    _only_the_audit_fails(capsys)


def _only_the_audit_fails(capsys):
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
    # circuit through Ox~ fail.  Both pass again once Ox~ is restored.
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
    monkeypatch.undo()
    assert main(["verify-states"]) == 0
    assert main(["gram"]) == 0

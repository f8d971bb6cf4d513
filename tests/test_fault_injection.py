"""Injected faults must fail the sweep, with the circuit tables cold or warm.

Each fault makes ``verify_cell`` report failing inputs with reasons and
``qmodw sweep --n-max 4`` exit 3.  A warm run first fills every memo
(the oracle's views and flips, the measured outcomes of ``deutsch`` and
``mod3``, the modulus splits and the ``apply`` products) with a
correct sweep, so a fault that a stored entry could hide would show up as
a passing warm run.  The ``fresh_tables`` fixture empties those memos
before and after the test.
"""

import pytest

from qmodw import hamming_mod, oracle, subroutines
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


FAULTS = [corrupt_u, corrupt_v, corrupt_h, drop_flip, skip_query,
          w2_off_by_one]


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


# ---------------------------------------------------------
# Faults that keep the residue and the query budget right
# ---------------------------------------------------------

def glue_next_block(monkeypatch):
    # Each representative brings the m1-block of the representative after
    # it (the last one brings its own), so a glued block can mix blocks
    # of different values or repeat one while another goes missing.  s2
    # and w2 stay exact, so only the audit can tell.
    def composite_case(o, indices, split):
        m1, m2 = split
        inner = hamming_mod.partition_weight(o, indices, m1)
        rep_block = {min(b): b for b in inner.blocks}
        reps = list(rep_block)
        outer = hamming_mod.partition_weight(o, reps, m2)
        glued = dict(zip(reps, reps[1:] + reps[-1:]))
        blocks = [tuple(sorted(i for rep in group
                               for i in rep_block[glued[rep]]))
                  for group in outer.blocks]
        s2 = list(inner.s2) + [i for rep in outer.s2 for i in rep_block[rep]]
        return blocks, s2, inner.w2 + m1 * outer.w2
    monkeypatch.setattr(hamming_mod, "_composite_case", composite_case)


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
    for value in range(2 ** n):
        bits = format(value, f"0{n}b")
        o = CountingOracle(bits)
        result = hamming_mod.partition_weight(o, indices, m)
        assert _run_problems(result, bits, m, bound, o) == []
        reasons = audit_partition(result, bits, indices)
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

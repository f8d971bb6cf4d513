"""The bitmask audit against the list-based reference; sweep input checks;
the memo counters over a cold sweep; the benchmark tracer's targets."""

import concurrent.futures
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qmodw import cli, hamming_mod, oracle, subroutines, sweep
from qmodw.hamming_mod import (PartitionResult, UnsupportedModulus,
                               partition_weight)
from qmodw.linalg import _APPLY_MEMO_CAP, SquareMatrix
from qmodw.oracle import CountingOracle
from qmodw.sweep import DEFAULT_MODULI, audit_partition, run_sweep, verify_cell


def ones(bits):
    """The int an oracle holds for ``bits``: bit n - i is x_i."""
    return int(bits, 2) if bits else 0


def audit(result, bits):
    """``audit_partition`` on the input ``bits``."""
    return audit_partition(result, ones(bits), len(bits))


def reference_audit(result, bits):
    """The list-based audit that ``audit_partition`` replaced; it reads
    the bit string and shares no code with the audit."""
    problems = []
    seen = []
    for block in result.blocks:
        if len(block) != result.m:
            problems.append(f"block {block} has size != {result.m}")
        vals = {bits[i - 1] for i in block}
        if len(vals) != 1:
            problems.append(f"block {block} not constant on input {bits}")
        seen.extend(block)
    seen.extend(result.s2)
    if sorted(seen) != list(range(1, len(bits) + 1)):
        problems.append("blocks and s2 do not partition the queried indices")
    true_w2 = sum(int(bits[i - 1]) for i in result.s2)
    if result.w2 != true_w2:
        problems.append(f"w2={result.w2} but |x_S2|={true_w2}")
    return problems


@pytest.mark.parametrize("m", DEFAULT_MODULI)
def test_audit_matches_reference_on_every_sweep_result(m):
    for n in range(1, 9):
        for hidden in range(2 ** n):
            result = partition_weight(CountingOracle(hidden, n), m)
            assert audit_partition(result, hidden, n) == []
            bits = format(hidden, f"0{n}b")
            assert reference_audit(result, bits) == []


BITS = "00001111"


def bad(blocks, s2, w2, m=4):
    return PartitionResult(m, blocks, s2, w2, 0)


BAD_RESULTS = {
    "wrong-size": bad(((1, 2, 3), (5, 6, 7, 8)), (4,), 0),
    "non-constant": bad(((1, 2, 3, 5), (4, 6, 7, 8)), (), 0),
    "overlap": bad(((1, 2, 3, 4), (4, 5, 6, 7)), (8,), 1),
    "repeat-in-s2": bad(((1, 2, 3, 4),), (5, 5, 6, 7, 8), 5),
    "missing": bad(((1, 2, 3, 4),), (5, 6, 7), 3),
    "extra": bad(((1, 2, 3, 4), (5, 6, 7, 8)), (8,), 1),
    "wrong-w2": bad(((1, 2, 3, 4),), (5, 6, 7, 8), 3),
    "empty-block": bad(((), (1, 2, 3, 4)), (5, 6, 7, 8), 4),
    "repeat-in-block": bad(((1, 1, 2, 3), (5, 6, 7, 8)), (4,), 0),
    "everything": bad(((1, 2, 5), (2, 6, 7, 8)), (3, 3), 2),
}


@pytest.mark.parametrize("case", BAD_RESULTS)
def test_audit_matches_reference_on_bad_results(case):
    result = BAD_RESULTS[case]
    got = audit(result, BITS)
    assert got
    assert got == reference_audit(result, BITS)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
    st.text("01", min_size=n, max_size=n),
    st.sampled_from(DEFAULT_MODULI),
    st.lists(st.lists(st.integers(1, n), max_size=4).map(tuple),
             max_size=4).map(tuple),
    st.lists(st.integers(1, n), max_size=n).map(tuple),
    st.integers(0, n))))
def test_audit_matches_reference_on_random_results(case):
    bits, m, blocks, s2, w2 = case
    result = PartitionResult(m, blocks, s2, w2, 0)
    assert audit(result, bits) == reference_audit(result, bits)


@pytest.mark.parametrize("blocks, s2, outside", [
    (((1, 2), (3, 9)), (4, 5, 6, 7, 8), [9]),
    (((0, 1),), (2, 3, 4, 5, 6, 7, 8), [0]),
    (((1, 2),), (3, 4, 5, 6, 7, 8, -2), [-2]),
])
def test_audit_reports_an_index_outside_the_input(blocks, s2, outside):
    # The reference raised IndexError past n and read a wrapped bit below 1.
    result = PartitionResult(2, blocks, s2, 0, 0)
    problems = audit(result, "0" * 8)
    assert "blocks and s2 do not partition the queried indices" in problems
    assert problems[-1] == f"indices {outside} out of range [1, 8]"


@pytest.mark.parametrize("w2", range(6))
def test_audit_counts_a_repeat_in_s2_beside_an_outside_index(w2):
    # s2 holds 5 twice and 0 once.  The reference reads index 0 as
    # bits[-1], which is 0 here, so it differs from the audit only by the
    # out-of-range reason.  w2 = 4 counts x_5 twice, as the reference does.
    bits = "00001110"
    result = bad(((1, 2, 3, 4),), (5, 5, 6, 7, 8, 0), w2)
    expected = reference_audit(result, bits)
    assert ("blocks and s2 do not partition the queried indices"
            in expected)
    assert (f"w2={w2} but |x_S2|=4" in expected) == (w2 != 4)
    assert audit(result, bits) == expected + [
        "indices [0] out of range [1, 8]"]


def test_mask_memo_keys_on_the_tuple_and_n(fresh_tables):
    # The masks are memoised with the rest of a result's shape.  The
    # same result under a smaller n puts its last index outside.
    shape = sweep._audit_shape
    assert shape(2, ((1, 3),), (2,), 3) == (
        (((1, 3), 0b101, (0, 0b101), ""),), (0b010,), "", "")
    assert shape(2, ((1, 3),), (2,), 2) == (
        (((1, 3), 0b10, (0, 0b10), ""),), (0b01,),
        "blocks and s2 do not partition the queried indices",
        "indices [3] out of range [1, 2]")
    assert shape(2, ((0, 2),), (-1, 2, 2), 4) == (
        (((0, 2), 0b0100, (0, 0b0100), ""),), (0b0100, 0b0100),
        "blocks and s2 do not partition the queried indices",
        "indices [0, -1] out of range [1, 4]")
    result = PartitionResult(2, ((1, 3),), (2,), 1, 0)
    assert audit_partition(result, 0b111, 3) == []
    assert audit_partition(result, 0b010, 3) == []
    info = shape.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 3, 3)


def test_an_altered_block_gets_its_own_shape_and_fails(fresh_tables):
    # After a warm cell, a result with one block altered must not find a
    # stored shape: it gets its own entry, and the audit fails it.
    assert verify_cell(6, 2).failures == 0
    shapes = sweep._audit_shape.cache_info().currsize
    assert shapes == 2 ** 3    # each of the 3 pairs constant or not
    result = partition_weight(CountingOracle(0, 6), 2)
    assert result.blocks == ((1, 2), (3, 4), (5, 6))
    assert audit_partition(result, 0, 6) == []
    assert sweep._audit_shape.cache_info().currsize == shapes
    moved = result._replace(blocks=((1, 2), (3, 4), (5, 7)))
    assert audit_partition(moved, 0, 6) == [
        "blocks and s2 do not partition the queried indices",
        "indices [7] out of range [1, 6]"]
    assert sweep._audit_shape.cache_info().currsize == shapes + 1
    crossed = result._replace(blocks=((1, 2), (3, 5), (4, 6)))
    assert audit_partition(crossed, 0b000010, 6) == [
        "block (3, 5) not constant on input 000010"]
    assert sweep._audit_shape.cache_info().currsize == shapes + 2


def test_blocks_given_as_lists_fail_their_input_as_unhashable(
        monkeypatch):
    # partition_weight returns tuples, which the shape memo keys on; a
    # result holding lists gets past the run checks and fails its input
    # with the memo's TypeError.
    def partition_weight(o, m):
        return PartitionResult(2, ([1, 2], [3, 4]), [5], o.query_bit(5), 1)
    monkeypatch.setattr(sweep, "partition_weight", partition_weight)
    for hidden in (0b00000, 0b11111):
        _, result, reasons = sweep.judge_run(hidden, 5, 2, 3)
        assert result is None
        assert reasons == ["TypeError: unhashable type: 'list'"]


@pytest.mark.parametrize("moduli, error", [
    ((2, 1), ValueError), ((0,), ValueError), ((-6, 3), ValueError),
    ((2, 5), UnsupportedModulus), ((2.0,), UnsupportedModulus),
    ((2, 2.0), UnsupportedModulus), ((3, True), UnsupportedModulus),
])
def test_run_sweep_rejects_moduli_before_any_cell(monkeypatch, moduli,
                                                  error):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell was run")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        no_pool)
    monkeypatch.setattr(sweep, "verify_cell", no_cell)
    for threads in (1, 2):
        with pytest.raises(error):
            run_sweep(3, moduli, threads=threads)


@pytest.mark.parametrize("m, error", [
    (1, ValueError), (0, ValueError), (5, UnsupportedModulus),
    (10, UnsupportedModulus), (4.0, UnsupportedModulus),
    (True, UnsupportedModulus),
])
def test_verify_cell_rejects_a_modulus_before_any_input(monkeypatch, m,
                                                         error):
    # A bad modulus raises; it is not counted as a failure of each input.
    def no_run(*args, **kwargs):
        raise AssertionError("an input was run")
    monkeypatch.setattr(sweep, "partition_weight", no_run)
    with pytest.raises(error):
        verify_cell(3, m)


@pytest.mark.parametrize("audit", [False, None, 0, 1, "yes"])
def test_the_audit_cannot_be_switched_off(monkeypatch, audit):
    # Only audit=True is accepted, and anything else raises before an
    # input runs or a worker starts.
    def no_run(*args, **kwargs):
        raise AssertionError("an input was run or a pool was started")
    monkeypatch.setattr(sweep, "judge_run", no_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    with pytest.raises(ValueError, match="audit cannot be switched off"):
        verify_cell(3, 2, audit=audit)
    for threads in (1, 2):
        with pytest.raises(ValueError, match="audit cannot be switched off"):
            run_sweep(3, audit=audit, threads=threads)


def test_run_sweep_rejects_n_max_below_one():
    for n_max in (0, -1):
        with pytest.raises(ValueError, match="n_max must be a positive "
                           "integer"):
            run_sweep(n_max)


@pytest.mark.parametrize("n_max, threads, message", [
    (2.0, 1, "n_max must be a positive integer, got 2.0"),
    (2.5, 1, "n_max must be a positive integer, got 2.5"),
    (True, 1, "n_max must be a positive integer, got True"),
    ("3", 1, "n_max must be a positive integer, got '3'"),
    (2, 0, "threads must be a positive integer, got 0"),
    (2, -2, "threads must be a positive integer, got -2"),
    (2, 1.5, "threads must be a positive integer, got 1.5"),
    (2, 2.0, "threads must be a positive integer, got 2.0"),
    (2, True, "threads must be a positive integer, got True"),
    (2, "2", "threads must be a positive integer, got '2'"),
])
def test_run_sweep_checks_n_max_and_threads_before_any_cell(
        monkeypatch, n_max, threads, message):
    # A float or bool n_max used to reach range() or run as n_max = 1;
    # threads below 1 used to run serially and a float one reached the
    # pool.  Each now raises ValueError before a cell runs or a worker
    # starts.
    def no_run(*args, **kwargs):
        raise AssertionError("a cell was run or a pool was started")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    monkeypatch.setattr(sweep, "verify_cell", no_run)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_sweep(n_max, [2], threads=threads)


def test_the_cli_and_the_sweep_share_one_judgement(monkeypatch, capsys):
    # verify_cell and `qmodw run` both judge each input through judge_run.
    calls = []
    real = sweep.judge_run

    def judge_run(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(sweep, "judge_run", judge_run)
    assert verify_cell(3, 2).failures == 0
    assert [args[0] for args in calls] == list(range(2 ** 3))
    calls.clear()
    monkeypatch.setattr(cli, "judge_run", judge_run)
    assert cli.main(["run", "--x", "110", "--m", "2"]) == 0
    assert calls == [(0b110, 3, 2, 2)]
    capsys.readouterr()


class InProcessPool:
    """Stands in for ProcessPoolExecutor: records its size and the items
    given to ``map``, runs in-process."""

    sizes = []
    items = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.items.append(items)
        return map(fn, items)


@pytest.mark.parametrize("threads, workers", [(64, 14), (14, 14), (3, 3)])
def test_run_sweep_starts_no_more_workers_than_cells(monkeypatch, threads,
                                                     workers):
    # n <= 2 over the seven default moduli is 14 cells.
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(InProcessPool, "items", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    rows = run_sweep(2, DEFAULT_MODULI, threads=threads)
    assert InProcessPool.sizes == [workers]
    assert rows == run_sweep(2, DEFAULT_MODULI, threads=1)


def test_run_sweep_hands_the_pool_its_largest_cells_first(monkeypatch):
    monkeypatch.setattr(InProcessPool, "items", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        InProcessPool)
    rows = run_sweep(4, (3, 2, 12, 6), threads=2)
    [items] = InProcessPool.items
    cells = [(n, m) for n, m, _ in items]
    assert cells == sorted(cells, reverse=True)
    assert cells[0] == (4, 12) and len(cells) == 16
    assert [(r.n, r.m) for r in rows] == sorted(cells)
    assert rows == run_sweep(4, (3, 2, 12, 6), threads=1)


def test_verify_cell_calls_partition_and_audit_once_per_input(monkeypatch):
    # The tracer's sweep.partition_weight and sweep.audit_partition spans,
    # and the audit-only fault tests, rely on one call of each per input.
    calls = {"partition_weight": 0, "audit_partition": 0}

    def counted(name):
        real = getattr(sweep, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(sweep, name, counted(name))
    for n, m in [(0, 2), (5, 3), (7, 12), (8, 8)]:
        calls.update(dict.fromkeys(calls, 0))
        assert verify_cell(n, m).failures == 0
        assert calls == dict.fromkeys(calls, 2 ** n), (n, m)


def recorded_inputs(monkeypatch, n, m=2):
    """The (hidden, n) of every oracle ``verify_cell(n, m)`` builds, and
    its row."""
    seen = []

    class Recorder(CountingOracle):
        __slots__ = ()

        def __init__(self, hidden, n):
            seen.append((hidden, n))
            super().__init__(hidden, n)
    monkeypatch.setattr(sweep, "CountingOracle", Recorder)
    return seen, sweep.verify_cell(n, m)


def test_verify_cell_zero_checks_the_empty_input(monkeypatch):
    # format(0, "00b") is "0", a 1-bit input; n = 0 has one input, the
    # empty string, held as 0.
    seen, row = recorded_inputs(monkeypatch, 0)
    assert seen == [(0, 0)]
    assert row.inputs == 1 and row.failures == 0
    assert row.max_queries == row.zero_input_queries == 0


@pytest.mark.parametrize("n", range(13))
def test_verify_cell_runs_the_inputs_in_string_order(monkeypatch, n):
    # The hidden ints come in the lexicographic order of the strings
    # x_1 ... x_n, which keeps first_failures and the rows unchanged.
    seen, row = recorded_inputs(monkeypatch, n)
    assert seen == [(hidden, n) for hidden in range(2 ** n)]
    assert row.failures == 0


# ---------------------------------------------------------
# Memo counters
# ---------------------------------------------------------

def test_every_memo_is_capped(fresh_tables):
    # The fixture finds each memo by its cache_clear, so a memo added
    # later is cleared by the fault tests and must be bounded like these.
    assert {f.__name__ for f in fresh_tables} >= {
        "_flipped", "_measure", "apply", "_plan", "_audit_shape"}
    for f in fresh_tables:
        assert f.cache_info().maxsize == _APPLY_MEMO_CAP, f.__name__


def test_cold_sweep_counters_match_memo_sizes(fresh_tables, monkeypatch):
    # Every miss is stored and nothing is dropped, far below the cap: 19
    # local flip patterns, 4 parity and 7 mod-3 states before the final
    # matrix, 19 products (8 of _MID, and the 4 of H and 7 of _FIN that
    # the outcome memo makes on its misses), one plan root per cell and
    # 245 audit shapes.
    # The trees below the roots have no counter of their own: their nodes
    # are counted in test_the_plan_memo_is_transparent_and_as_large_as_
    # the_mask_paths, 1,609 over the 70 cells.
    # The shapes are the distinct (blocks, s2) results of each cell; m
    # and n are in the key, so no two cells share one.  For a prime m
    # each of the n // m groups of the first level is constant or not,
    # so a cell has 2^(n // m) shapes: 93 over n <= 10 for m = 2 and 36
    # for m = 3.  The composite moduli give 47 (m = 4), 30 (6), 17 (8),
    # 12 (9) and 10 (12): 93 + 36 + 47 + 30 + 17 + 12 + 10 = 245.
    mod3_calls = []

    def mod3(o, view):
        mod3_calls.append(view)
        return subroutines.mod3(o, view)
    monkeypatch.setattr(hamming_mod, "mod3", mod3)
    for n in range(1, 11):
        for m in DEFAULT_MODULI:
            assert verify_cell(n, m).failures == 0
    for f in fresh_tables:
        info = f.cache_info()
        assert info.misses == info.currsize < info.maxsize, f.__name__
        assert info.hits > 0, f.__name__
    assert oracle._flipped.cache_info().currsize == 19
    assert subroutines._measure.cache_info().currsize == 4 + 7
    assert SquareMatrix.apply.cache_info().currsize == 19
    assert hamming_mod._plan.cache_info().currsize == 70
    assert sweep._audit_shape.cache_info().currsize == 245
    # One root lookup per input.
    inputs = len(DEFAULT_MODULI) * sum(2 ** n for n in range(1, 11))
    info = hamming_mod._plan.cache_info()
    assert info.hits + info.misses == inputs
    # apply runs for _MID once per mod3 call, and for H and _FIN only on
    # the 4 + 7 outcome misses.
    apply = SquareMatrix.apply.cache_info()
    assert apply.hits + apply.misses == len(mod3_calls) + 4 + 7


def test_import_loads_no_process_pool():
    # run_sweep imports the pool only when it starts one.
    src = Path(sweep.__file__).resolve().parents[1]
    check = ("import sys, qmodw\n"
             "assert 'concurrent.futures.process' not in sys.modules\n"
             "assert 'multiprocessing' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", check],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------
# The benchmark tracer's targets
# ---------------------------------------------------------

def test_benchmark_tracer_finds_every_target():
    # perfbench/tracer.py wraps functions by name; a renamed or deleted
    # one would only show as a KeyError in a traced benchmark run.  The
    # file is compiled from its text, so nothing is written beside it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    spans = tracer.Tracer()
    try:
        spans.install()
    finally:
        left = spans.remove()
    assert left == []

"""The bitmask audit against the list-based reference; sweep input checks;
the memo counters over a cold sweep."""

import pytest
from hypothesis import given, settings, strategies as st

from qmodw import oracle, subroutines, sweep
from qmodw.hamming_mod import (PartitionResult, UnsupportedModulus,
                               partition_weight)
from qmodw.linalg import _APPLY_MEMO_CAP, SquareMatrix
from qmodw.oracle import CountingOracle
from qmodw.sweep import DEFAULT_MODULI, audit_partition, run_sweep, verify_cell


def reference_audit(result, bits, indices):
    """The list-based audit that ``audit_partition`` replaced."""
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
    if sorted(seen) != sorted(indices):
        problems.append("blocks and s2 do not partition the queried indices")
    true_w2 = sum(int(bits[i - 1]) for i in result.s2)
    if result.w2 != true_w2:
        problems.append(f"w2={result.w2} but |x_S2|={true_w2}")
    return problems


@pytest.mark.parametrize("m", DEFAULT_MODULI)
def test_audit_matches_reference_on_every_sweep_result(m):
    for n in range(1, 9):
        indices = range(1, n + 1)
        for value in range(2 ** n):
            bits = format(value, f"0{n}b")
            result = partition_weight(CountingOracle(bits), indices, m)
            assert audit_partition(result, bits, indices) == []
            assert reference_audit(result, bits, indices) == []


BITS = "00001111"


def bad(blocks, s2, w2, m=4):
    return PartitionResult(m, blocks, s2, w2, 0)


BAD_RESULTS = {
    "wrong-size": (bad(((1, 2, 3), (5, 6, 7, 8)), (4,), 0), range(1, 9)),
    "non-constant": (bad(((1, 2, 3, 5), (4, 6, 7, 8)), (), 0), range(1, 9)),
    "overlap": (bad(((1, 2, 3, 4), (4, 5, 6, 7)), (8,), 1), range(1, 9)),
    "repeat-in-s2": (bad(((1, 2, 3, 4),), (5, 5, 6, 7, 8), 5), range(1, 9)),
    "missing": (bad(((1, 2, 3, 4),), (5, 6, 7), 3), range(1, 9)),
    "extra": (bad(((1, 2, 3, 4),), (5, 6, 7, 8), 4), range(1, 8)),
    "wrong-w2": (bad(((1, 2, 3, 4),), (5, 6, 7, 8), 3), range(1, 9)),
    "empty-block": (bad(((), (1, 2, 3, 4)), (5, 6, 7, 8), 4), range(1, 9)),
    "repeat-in-block": (bad(((1, 1, 2, 3), (5, 6, 7, 8)), (4,), 0),
                        [1, 2, 3, 4, 5, 6, 7, 8]),
    "everything": (bad(((1, 2, 5), (2, 6, 7, 8)), (3, 3), 2), range(1, 9)),
}


@pytest.mark.parametrize("case", BAD_RESULTS)
def test_audit_matches_reference_on_bad_results(case):
    result, indices = BAD_RESULTS[case]
    got = audit_partition(result, BITS, indices)
    assert got
    assert got == reference_audit(result, BITS, indices)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=9).flatmap(lambda n: st.tuples(
    st.text("01", min_size=n, max_size=n),
    st.sampled_from(DEFAULT_MODULI),
    st.lists(st.lists(st.integers(1, n), max_size=4).map(tuple),
             max_size=4).map(tuple),
    st.lists(st.integers(1, n), max_size=n).map(tuple),
    st.integers(0, n),
    st.lists(st.integers(1, n), unique=True).map(tuple))))
def test_audit_matches_reference_on_random_results(case):
    bits, m, blocks, s2, w2, indices = case
    result = PartitionResult(m, blocks, s2, w2, 0)
    assert (audit_partition(result, bits, indices)
            == reference_audit(result, bits, indices))


@pytest.mark.parametrize("blocks, s2, outside", [
    (((1, 2), (3, 9)), (4, 5, 6, 7, 8), [9]),
    (((0, 1),), (2, 3, 4, 5, 6, 7, 8), [0]),
    (((1, 2),), (3, 4, 5, 6, 7, 8, -2), [-2]),
])
def test_audit_reports_an_index_outside_the_input(blocks, s2, outside):
    # The reference raised IndexError past n and read a wrapped bit below 1.
    result = PartitionResult(2, blocks, s2, 0, 0)
    problems = audit_partition(result, "0" * 8, range(1, 9))
    assert "blocks and s2 do not partition the queried indices" in problems
    assert problems[-1] == f"indices {outside} out of range [1, 8]"


def test_audit_rejects_queried_indices_that_repeat():
    # Same union and the same count as the queried indices, but 1 and 2
    # swap which one repeats.
    result = PartitionResult(2, ((1, 2),), (1,), 0, 0)
    expected = ["blocks and s2 do not partition the queried indices"]
    assert reference_audit(result, "00", (1, 2, 2)) == expected
    assert audit_partition(result, "00", (1, 2, 2)) == expected


@pytest.mark.parametrize("moduli, error", [
    ((2, 1), ValueError), ((0,), ValueError), ((-6, 3), ValueError),
    ((2, 5), UnsupportedModulus),
])
def test_run_sweep_rejects_moduli_before_any_cell(monkeypatch, moduli,
                                                  error):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    def no_cell(*args, **kwargs):
        raise AssertionError("a cell was run")
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(sweep, "verify_cell", no_cell)
    for threads in (1, 2):
        with pytest.raises(error):
            run_sweep(3, moduli, threads=threads)


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
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
    rows = run_sweep(2, DEFAULT_MODULI, threads=threads)
    assert InProcessPool.sizes == [workers]
    assert rows == run_sweep(2, DEFAULT_MODULI, threads=1)


def test_run_sweep_hands_the_pool_its_largest_cells_first(monkeypatch):
    monkeypatch.setattr(InProcessPool, "items", [])
    monkeypatch.setattr(sweep, "ProcessPoolExecutor", InProcessPool)
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


def test_verify_cell_zero_checks_the_empty_input(monkeypatch):
    # format(0, "00b") is "0", a 1-bit input; n = 0 has one input, "".
    seen = []

    def recorder(bits):
        seen.append(bits)
        return CountingOracle(bits)
    monkeypatch.setattr(sweep, "CountingOracle", recorder)
    row = sweep.verify_cell(0, 2)
    assert seen == [""]
    assert row.inputs == 1 and row.failures == 0
    assert row.max_queries == row.zero_input_queries == 0


# ---------------------------------------------------------
# Memo counters
# ---------------------------------------------------------

def test_every_memo_is_capped(fresh_tables):
    # The fixture finds each memo by its cache_clear, so a memo added
    # later is cleared by the fault tests and must be bounded like these.
    assert {f.__name__ for f in fresh_tables} >= {
        "_flipped", "block_view", "_measure_parity", "_measure_mod3",
        "factor_split", "apply"}
    for f in fresh_tables:
        assert f.cache_info().maxsize == _APPLY_MEMO_CAP, f.__name__


def test_cold_sweep_counters_match_memo_sizes(fresh_tables):
    # Every miss is stored and nothing is dropped, far below the cap: 19
    # local flip patterns, 4 parity and 7 mod-3 final states, 19 products.
    for n in range(1, 11):
        for m in DEFAULT_MODULI:
            assert verify_cell(n, m).failures == 0
    for f in fresh_tables:
        info = f.cache_info()
        assert info.misses == info.currsize < info.maxsize, f.__name__
        assert info.hits > 0, f.__name__
    assert oracle._flipped.cache_info().currsize == 19
    assert subroutines._measure_parity.cache_info().currsize == 4
    assert subroutines._measure_mod3.cache_info().currsize == 7
    assert SquareMatrix.apply.cache_info().currsize == 19

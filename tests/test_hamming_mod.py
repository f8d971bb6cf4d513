import pytest
from hypothesis import given, settings, strategies as st

from qmodw import hamming_mod
from qmodw.hamming_mod import (
    ModulusSchedule, UnsupportedModulus,
    factor_split, partition_weight, query_bound, weight_mod,
)
from qmodw.oracle import CountingOracle
from qmodw.sweep import audit_partition, verify_cell


def run(bits, m, indices=None):
    o = CountingOracle(bits)
    result = partition_weight(o, indices or range(1, len(bits) + 1), m)
    return o, result


# ---------------------------------------------------------
# query_bound
# ---------------------------------------------------------

@pytest.mark.parametrize("n,m,expected", [
    (2, 2, 1),
    (3, 3, 2),
    (7, 6, 6),
    (14, 12, 13),
    (1, 2, 1),
    (9, 3, 6),
])
def test_query_bound(n, m, expected):
    assert query_bound(n, m) == expected


def test_query_bound_rejects_small_modulus():
    with pytest.raises(ValueError):
        query_bound(5, 1)


@given(st.integers(min_value=0, max_value=10 ** 6),
       st.integers(min_value=2, max_value=1000))
def test_query_bound_is_ceiling(n, m):
    import math
    assert query_bound(n, m) == math.ceil(n * (m - 1) / m)


# ---------------------------------------------------------
# factor_split
# ---------------------------------------------------------

def test_factor_split_composite():
    assert factor_split(6) == ModulusSchedule(6, (2, 3))
    assert factor_split(9) == ModulusSchedule(9, (3, 3))
    assert factor_split(12) == ModulusSchedule(12, (2, 6))
    assert factor_split(8) == ModulusSchedule(8, (2, 4))


def test_factor_split_base_cases():
    assert factor_split(2) == ModulusSchedule(2)
    assert factor_split(3) == ModulusSchedule(3)


@pytest.mark.parametrize("m", [5, 7, 10, 15, 35])
def test_factor_split_rejects_other_primes(m):
    with pytest.raises(UnsupportedModulus):
        factor_split(m)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 36])
def test_factor_split_is_memoised(m):
    first = factor_split(m)
    assert all(factor_split(m) is first for _ in range(3))


def test_factor_split_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(UnsupportedModulus, match="prime factor"):
            factor_split(5)
        with pytest.raises(UnsupportedModulus, match="at least 2"):
            factor_split(1)


def test_factor_split_rejects_tiny():
    with pytest.raises(UnsupportedModulus):
        factor_split(1)
    with pytest.raises(UnsupportedModulus):
        factor_split(0)


# ---------------------------------------------------------
# partition_weight examples
# ---------------------------------------------------------

def test_nonconstant_triple_goes_to_remainder():
    o, r = run("110", 3)
    assert r.blocks == ()
    assert r.s2 == (1, 2, 3)
    assert r.w2 == 2
    assert r.queries == 2
    assert o.query_count == 2


def test_all_zero_pairs_become_blocks():
    _, r = run("0000", 2)
    assert r.blocks == ((1, 2), (3, 4))
    assert r.s2 == ()
    assert r.w2 == 0
    assert r.queries == 2


def test_all_ones_block_of_six():
    _, r = run("111111", 6)
    assert r.blocks == ((1, 2, 3, 4, 5, 6),)
    assert r.s2 == ()
    assert r.w2 == 0
    assert r.queries == 5
    assert query_bound(6, 6) == 5


def test_odd_length_mod2_queries_leftover_bit():
    o, r = run("001", 2)
    assert r.blocks == ((1, 2),)
    assert r.s2 == (3,)
    assert r.w2 == 1
    assert r.queries == 2  # one parity + one classical read


def test_partition_reports_only_its_own_queries():
    o = CountingOracle("0011")
    o.query_bit(1)
    r = partition_weight(o, (2, 3, 4), 3)
    assert r.queries == 2
    assert o.query_count == 3


def test_rejects_duplicate_indices():
    o = CountingOracle("111")
    with pytest.raises(ValueError):
        partition_weight(o, (1, 1, 2), 3)


def test_rejects_out_of_range_indices():
    o = CountingOracle("111")
    with pytest.raises(IndexError):
        partition_weight(o, (1, 2, 4), 3)


@pytest.mark.parametrize("indices, bad", [((1, 2, 4), 4), ((3, 0, 1), 0),
                                          ((5, 2, -1), 5)])
def test_out_of_range_error_names_the_first_bad_index(indices, bad):
    o = CountingOracle("111")
    with pytest.raises(IndexError, match=rf"^index {bad} out of oracle"):
        partition_weight(o, indices, 3)
    assert o.query_count == 0


def test_unsupported_modulus_propagates():
    o = CountingOracle("11111")
    with pytest.raises(UnsupportedModulus):
        partition_weight(o, range(1, 6), 5)


# ---------------------------------------------------------
# The private recursion against the level-by-level reference
# ---------------------------------------------------------

def reference_composite_case(o, indices, split):
    """The composite level as it was: each level goes through the public
    ``partition_weight`` and reads the fields of its ``PartitionResult``."""
    m1, m2 = split
    inner = hamming_mod.partition_weight(o, indices, m1)
    rep_block = {min(b): b for b in inner.blocks}
    reps = list(rep_block)
    outer = hamming_mod.partition_weight(o, reps, m2)
    blocks = []
    for rep_group in outer.blocks:
        merged = []
        for rep in rep_group:
            merged.extend(rep_block[rep])
        blocks.append(tuple(sorted(merged)))
    s2 = list(inner.s2)
    for rep in outer.s2:
        s2.extend(rep_block[rep])
    return blocks, s2, inner.w2 + m1 * outer.w2


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 16, 18])
def test_recursion_matches_level_by_level_reference(monkeypatch, m):
    # Same result, same queries in the same order, on every input n <= 8.
    inputs = [format(v, f"0{n}b") if n else ""
              for n in range(9) for v in range(2 ** n)]
    new = [run(bits, m) for bits in inputs]
    monkeypatch.setattr(hamming_mod, "_composite_case",
                        reference_composite_case)
    for bits, (o, result) in zip(inputs, new):
        ref_o, ref_result = run(bits, m)
        assert result == ref_result, bits
        assert o.transcript == ref_o.transcript, bits


# ---------------------------------------------------------
# weight_mod
# ---------------------------------------------------------

def test_all_zeros_any_modulus():
    for m in (2, 3, 4, 6, 8, 9, 12):
        assert weight_mod(CountingOracle("0" * 10), m) == 0


def test_all_ones_weight_nine_mod_nine():
    assert weight_mod(CountingOracle("1" * 9), 9) == 0


def test_example_weight_three_mod_four():
    assert weight_mod(CountingOracle("10110"), 4) == 3


def test_modulus_larger_than_input():
    # n = 2, m = 12: still answers |x| mod 12 within the bound
    for bits in ("00", "01", "10", "11"):
        o = CountingOracle(bits)
        assert weight_mod(o, 12) == bits.count("1")
        assert o.query_count <= query_bound(2, 12)


# ---------------------------------------------------------
# Exhaustive checks at small sizes (the big sweep runs in acceptance)
# ---------------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_exhaustive_small(m):
    for n in range(1, 8):
        row = verify_cell(n, m)
        assert row.failures == 0, row


@pytest.mark.parametrize("n,m", [(6, 2), (6, 3), (8, 4), (7, 6)])
def test_tightness_small(n, m):
    row = verify_cell(n, m)
    assert row.max_queries == row.bound
    assert row.zero_input_queries == row.bound


def test_audit_catches_wrong_w2():
    o, r = run("110", 3)
    broken = type(r)(m=r.m, blocks=r.blocks, s2=r.s2, w2=r.w2 + 1,
                     queries=r.queries)
    assert audit_partition(broken, "110", (1, 2, 3))


def test_algorithm_never_touches_hidden_string_directly():
    # every query must appear in the oracle transcript, and the partition's
    # query count must equal the transcript length
    o = CountingOracle("1011010")
    r = partition_weight(o, range(1, 8), 6)
    assert len(o.transcript) == o.query_count == r.queries


# ---------------------------------------------------------
# Random long inputs
# ---------------------------------------------------------

@settings(deadline=None)
@given(st.sampled_from((2, 3, 4, 6, 8, 9, 12, 16, 18, 24, 36)),
       st.integers(min_value=1, max_value=80).flatmap(
           lambda n: st.text("01", min_size=n, max_size=n)))
def test_partition_weight_on_random_inputs(m, bits):
    n = len(bits)
    o, result = run(bits, m)
    assert result.w2 % m == bits.count("1") % m
    assert result.queries == o.query_count <= query_bound(n, m)
    assert audit_partition(result, bits, range(1, n + 1)) == []

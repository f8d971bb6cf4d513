import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from qmodw import hamming_mod
from qmodw.hamming_mod import (
    PartitionResult, UnsupportedModulus,
    factor_split, partition_weight, query_bound, weight_mod,
)
from qmodw.oracle import CountingOracle
from qmodw.sweep import DEFAULT_MODULI, audit_partition, verify_cell


def run(bits, m, indices=None):
    o = CountingOracle(bits)
    result = partition_weight(
        o, range(1, len(bits) + 1) if indices is None else indices, m)
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
    assert factor_split(6) == (2, 3)
    assert factor_split(9) == (3, 3)
    assert factor_split(12) == (2, 2, 3)
    assert factor_split(8) == (2, 2, 2)
    assert factor_split(18) == (2, 3, 3)
    assert factor_split(72) == (2, 2, 2, 3, 3)


def test_factor_split_base_cases():
    assert factor_split(2) == (2,)
    assert factor_split(3) == (3,)


@pytest.mark.parametrize("m", [5, 7, 10, 15, 35])
def test_factor_split_rejects_other_primes(m):
    with pytest.raises(UnsupportedModulus):
        factor_split(m)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 36])
def test_factor_split_is_memoised(fresh_tables, m):
    # The factors are memoised with the index check, one lookup per run:
    # factor_split itself has no memo of its own.
    assert not hasattr(factor_split, "cache_info")
    indices = tuple(range(1, 7))
    first = hamming_mod._check_indices(indices, m, 6)
    assert first == factor_split(m)
    assert all(hamming_mod._check_indices(indices, m, 6) is first
               for _ in range(3))
    info = hamming_mod._check_indices.cache_info()
    assert (info.hits, info.misses) == (3, 1)


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


@pytest.mark.parametrize("m", [2, 3, 12])
def test_empty_index_list_makes_no_query(m):
    o, r = run("1011", m, ())
    assert (r.blocks, r.s2, r.w2, r.queries) == ((), (), 0, 0)
    assert o.query_count == 0


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


def test_index_check_is_memoised_and_raises_on_every_call(fresh_tables):
    # lru_cache stores no exception, so a bad tuple raises every time, and
    # a tuple checked for one n does not pass for a smaller one.
    o = CountingOracle("111")
    for _ in range(3):
        with pytest.raises(IndexError):
            partition_weight(o, (1, 2, 4), 3)
        with pytest.raises(ValueError, match="duplicate"):
            partition_weight(o, [1, 1, 2], 3)
        partition_weight(o, [1, 2, 3], 3)
    with pytest.raises(IndexError, match="index 3"):
        partition_weight(CountingOracle("11"), (1, 2, 3), 3)
    assert o.query_count == 3 * 2
    info = hamming_mod._check_indices.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 8, 1)


def test_partition_result_is_an_immutable_tuple_of_five_fields():
    _, result = run("110100", 6)
    assert PartitionResult._fields == ("m", "blocks", "s2", "w2", "queries")
    for field in PartitionResult._fields:
        with pytest.raises(AttributeError):
            setattr(result, field, 0)
    assert type(result) is PartitionResult
    assert result == (6, result.blocks, result.s2, result.w2, result.queries)


@pytest.mark.parametrize("indices, m, groups, rest", [
    ((), 2, (), ()),
    ((), 3, (), ()),
    ((4,), 2, (), (4,)),
    ((5, 1, 3), 2, ((5, 1),), (3,)),
    ((7, 2, 6, 1, 3), 3, ((7, 2, 6),), (1, 3)),
    ((2, 4, 6, 8, 1, 3, 5), 3, ((2, 4, 6), (8, 1, 3)), (5,)),
    ((1, 2, 3, 4, 5, 6), 3, ((1, 2, 3), (4, 5, 6)), ()),
])
def test_layout_cuts_consecutive_groups_and_keeps_the_rest(fresh_tables,
                                                           indices, m,
                                                           groups, rest):
    for _ in range(2):
        assert hamming_mod._layout(indices, m) == (groups, rest)
    info = hamming_mod._layout.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_unsupported_modulus_propagates():
    o = CountingOracle("11111")
    with pytest.raises(UnsupportedModulus):
        partition_weight(o, range(1, 6), 5)


# ---------------------------------------------------------
# The level loop against the recursion it replaced
# ---------------------------------------------------------

def reference_partition(o, indices, m):
    """(blocks, s2, w2) by the smallest-prime-first recursion: the base
    case for a prime m, else the base case with the smallest prime m1,
    then the same recursion with m // m1 on one representative per
    constant block."""
    if m in (2, 3):
        return hamming_mod._base_case(o, indices, m)
    m1 = 2 if m % 2 == 0 else 3
    inner_blocks, s2, inner_w2 = reference_partition(o, indices, m1)
    rep_block = {min(b): b for b in inner_blocks}
    outer_blocks, outer_s2, outer_w2 = reference_partition(
        o, tuple(rep_block), m // m1)
    blocks = []
    for rep_group in outer_blocks:
        merged = []
        for rep in rep_group:
            merged.extend(rep_block[rep])
        blocks.append(tuple(sorted(merged)))
    for rep in outer_s2:
        s2.extend(rep_block[rep])
    return blocks, s2, inner_w2 + m1 * outer_w2


def reference_run(bits, m, indices):
    o = CountingOracle(bits)
    blocks, s2, w2 = reference_partition(o, tuple(indices), m)
    return o, PartitionResult(m, tuple(blocks), tuple(sorted(s2)), w2,
                              o.query_count)


def shuffled_subsets(m):
    """Seeded (bits, indices) cases whose indices are a shuffled subset,
    so a block's first index is not always its smallest."""
    rng = random.Random(m)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 12)
        bits = "".join(rng.choice("01") for _ in range(n))
        indices = rng.sample(range(1, n + 1), rng.randint(0, n))
        cases.append((bits, indices))
    return cases


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 16, 18])
def test_recursion_matches_level_by_level_reference(m):
    # Same result, same queries in the same order, on every input n <= 8
    # over all its indices and on shuffled index subsets.
    cases = [(format(v, f"0{n}b") if n else "", range(1, n + 1))
             for n in range(9) for v in range(2 ** n)]
    cases += shuffled_subsets(m)
    for bits, indices in cases:
        o = CountingOracle(bits)
        result = partition_weight(o, indices, m)
        ref_o, ref_result = reference_run(bits, m, indices)
        assert result == ref_result, (bits, indices)
        assert o.transcript == ref_o.transcript, (bits, indices)


# ---------------------------------------------------------
# The glue plan against the glue it replaced
# ---------------------------------------------------------

def reference_glue(o, blocks, p, s2):
    """One glue level built afresh on every call: the map from each
    block's smallest index to the block, and each constant group's
    blocks merged and sorted."""
    rep_block = {min(b): b for b in blocks}
    rep_groups, rep_s2, level_w2 = hamming_mod._base_case(
        o, tuple(rep_block), p)
    glued = []
    for group in rep_groups:
        merged = []
        for rep in group:
            merged.extend(rep_block[rep])
        glued.append(tuple(sorted(merged)))
    for rep in rep_s2:
        s2.extend(rep_block[rep])
    return glued, level_w2


def index_orders(n):
    """1..n and three seeded permutations of it."""
    rng = random.Random(n)
    return [tuple(range(1, n + 1))] + [
        tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
def test_glue_plan_matches_the_per_call_glue(fresh_tables, monkeypatch, m):
    # Same result and same queries on every input n <= 8.  The
    # representative is a block's smallest index, not its first, so the
    # permuted orders give blocks whose first index is not the smallest.
    cases = [(hidden, n, indices) for n in range(9)
             for indices in index_orders(n) for hidden in range(2 ** n)]
    planned = []
    for hidden, n, indices in cases:
        o = CountingOracle.from_int(hidden, n)
        planned.append((partition_weight(o, indices, m), o.transcript))
    monkeypatch.setattr(hamming_mod, "_glue", reference_glue)
    for (hidden, n, indices), expected in zip(cases, planned):
        o = CountingOracle.from_int(hidden, n)
        assert (partition_weight(o, indices, m), o.transcript) == expected, (
            hidden, indices)


def test_glue_plan_holds_the_representatives_and_merged_groups(
        fresh_tables):
    blocks = ((4, 3), (1, 2), (6, 5), (8, 7), (9, 10))
    for _ in range(2):
        reps, rep_block, merged = hamming_mod._glue_plan(blocks, 2)
        assert reps == (3, 1, 5, 7, 9)
        assert rep_block == dict(zip(reps, blocks))
        assert merged == {(3, 1): (1, 2, 3, 4), (5, 7): (5, 6, 7, 8)}
    info = hamming_mod._glue_plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_glue_plan_stores_nothing_for_a_block_with_a_non_index(
        fresh_tables):
    for _ in range(2):
        with pytest.raises(TypeError):
            hamming_mod._glue_plan(((1, 2), (3, None)), 2)
    assert hamming_mod._glue_plan.cache_info().currsize == 0


PARTITION_DIGEST = (
    "936c5d2730e1e2eb744cabe51568c62c8f1c6899ff9f1878c3d413ba871864bf")


def test_every_partition_result_up_to_n_10_is_pinned():
    # The repr of every result of the sweep's cells with n <= 10, in
    # sweep order, pins the block order, the s2 order, w2 and the query
    # count of each run; the digest is that of the per-call glue above.
    digest = hashlib.sha256()
    for n in range(1, 11):
        indices = tuple(range(1, n + 1))
        for m in DEFAULT_MODULI:
            for hidden in range(2 ** n):
                result = partition_weight(
                    CountingOracle.from_int(hidden, n), indices, m)
                digest.update(repr(tuple(result)).encode())
    assert digest.hexdigest() == PARTITION_DIGEST


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
    assert audit_partition(broken, 0b110, 3, (1, 2, 3))


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
    assert audit_partition(result, int(bits, 2), n,
                           range(1, n + 1)) == []

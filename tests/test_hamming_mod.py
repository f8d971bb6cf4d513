import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from qmodw import hamming_mod, sweep
from qmodw.hamming_mod import (
    PartitionResult, UnsupportedModulus,
    factor_split, partition_weight, query_bound,
)
from qmodw.oracle import BlockView, CountingOracle
from qmodw.subroutines import MOD3_PADDING, deutsch, mod3
from qmodw.sweep import DEFAULT_MODULI, audit_partition, verify_cell


def run(bits, m):
    o = CountingOracle(int(bits or "0", 2), len(bits))
    return o, partition_weight(o, m)


def padding_of(p):
    """The padding of the oracle view that the circuit of prime p takes."""
    return 0 if p == 2 else MOD3_PADDING


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
    # The factors are memoised in the root of the plan, one lookup per
    # run: factor_split has no memo of its own.
    assert not hasattr(factor_split, "cache_info")
    first = hamming_mod._plan(m, 6)
    assert (first.p,) + first.primes == factor_split(m)
    assert all(hamming_mod._plan(m, 6) is first for _ in range(3))
    info = hamming_mod._plan.cache_info()
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
    # The empty input has no index to query.
    o, r = run("", m)
    assert (r.blocks, r.s2, r.w2, r.queries) == ((), (), 0, 0)
    assert o.query_count == 0


def test_partition_reports_only_its_own_queries():
    o = CountingOracle(0b0011, 4)
    o.query_bit(1)
    r = partition_weight(o, 3)
    assert r.queries == 3    # the triple (1, 2, 3), then x_4
    assert o.query_count == 4


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
    ((1,), 2, (), (1,)),
    ((1, 2, 3), 2, ((1, 2),), (3,)),
    ((1, 2, 3, 4, 5), 3, ((1, 2, 3),), (4, 5)),
    ((1, 2, 3, 4, 5, 6, 7), 3, ((1, 2, 3), (4, 5, 6)), (7,)),
    ((1, 2, 3, 4, 5, 6), 3, ((1, 2, 3), (4, 5, 6)), ()),
])
def test_layout_cuts_consecutive_groups_and_keeps_the_rest(fresh_tables,
                                                           indices, m,
                                                           groups, rest):
    # The root cuts the indices 1..n into groups of m and leftovers, and
    # holds each group as its view with the circuit's padding.
    for _ in range(2):
        root = hamming_mod._plan(m, len(indices))
        assert ([g.map for g in root.groups], root.rest) == (list(groups),
                                                             rest)
        for group, view in zip(groups, root.groups):
            assert view == BlockView(group, padding_of(m))
    info = hamming_mod._plan.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_unsupported_modulus_propagates():
    o = CountingOracle(0b11111, 5)
    with pytest.raises(UnsupportedModulus):
        partition_weight(o, 5)


@pytest.mark.parametrize("value", [2.0, 4.0, 12.0, True])
def test_factor_split_and_query_bound_take_ints_only(value):
    # A float or a bool is never a modulus or a length, even when it
    # equals an int.
    with pytest.raises(UnsupportedModulus, match="must be an int"):
        factor_split(value)
    for n, m in ((10, value), (value, 3)):
        with pytest.raises(ValueError, match="must be ints"):
            query_bound(n, m)


@pytest.mark.parametrize("m", [2.0, 3.0, 4.0, 12.0])
def test_a_float_modulus_raises_with_the_plan_memo_cold_and_warm(
        fresh_tables, m):
    # m == int(m) with the same hash, so a memo keyed on values alone
    # would hand the float the root stored for the int.
    for _ in range(2):
        o = CountingOracle(0b1011, 4)
        with pytest.raises(UnsupportedModulus, match="must be an int"):
            partition_weight(o, m)
        assert o.query_count == 0
        assert partition_weight(o, int(m)).m == int(m)
    assert hamming_mod._plan.cache_info().currsize == 1


# ---------------------------------------------------------
# The plan tree against the recursion it replaced
# ---------------------------------------------------------

def reference_base_case(o, indices, m):
    """(blocks, s2, w2) of ``indices`` for a prime m, s2 unsorted: each
    consecutive m-tuple measured, a constant one kept as a block, and
    each leftover index read."""
    measure = deutsch if m == 2 else mod3
    full = len(indices) - len(indices) % m
    blocks, s2, w2 = [], [], 0
    for start in range(0, full, m):
        group = indices[start:start + m]
        outcome = measure(o, BlockView(group, padding_of(m)))
        if outcome == 0:
            blocks.append(group)
        else:
            s2.extend(group)
            w2 += outcome
    for i in indices[full:]:
        s2.append(i)
        w2 += o.query_bit(i)
    return blocks, s2, w2


def reference_partition(o, indices, m):
    """(blocks, s2, w2) by the smallest-prime-first recursion: the base
    case for a prime m, else the base case with the smallest prime m1,
    then the same recursion with m // m1 on one representative per
    constant block."""
    if m in (2, 3):
        return reference_base_case(o, indices, m)
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


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 16, 18])
def test_recursion_matches_level_by_level_reference(fresh_tables, m):
    # Same result, same queries in the same order, on every input n <= 8,
    # with each n's plan tree cold for its first input and warm after.
    for n in range(9):
        for hidden in range(2 ** n):
            o = CountingOracle(hidden, n)
            result = partition_weight(o, m)
            ref_o = CountingOracle(hidden, n)
            blocks, s2, w2 = reference_partition(
                ref_o, tuple(range(1, n + 1)), m)
            assert (result, o.transcript) == (
                (m, tuple(blocks), tuple(sorted(s2)), w2, ref_o.query_count),
                ref_o.transcript), (hidden, n)
    info = hamming_mod._plan.cache_info()
    assert (info.misses, info.hits) == (9, 2 ** 9 - 1 - 9)


# ---------------------------------------------------------
# The plan tree against the level loop it replaced
# ---------------------------------------------------------

def reference_glue(o, blocks, p, s2):
    """One glue level built afresh on every call: the map from each
    block's smallest index to the block, and each constant group's
    blocks merged and sorted."""
    rep_block = {min(b): b for b in blocks}
    rep_groups, rep_s2, level_w2 = reference_base_case(
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


def reference_levels(o, n, m):
    """PartitionResult by the level loop over 1..n, everything built per
    call: the base case with the first prime, then one glue level per
    further prime, each adding its weight times the block size so far."""
    primes = factor_split(m)
    start = o.query_count
    size = primes[0]
    blocks, s2, w2 = reference_base_case(o, tuple(range(1, n + 1)), size)
    for p in primes[1:]:
        blocks, level_w2 = reference_glue(o, blocks, p, s2)
        w2 += size * level_w2
        size *= p
    return PartitionResult(m, tuple(blocks), tuple(sorted(s2)), w2,
                           o.query_count - start)


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12])
def test_glue_plan_matches_the_per_call_glue(fresh_tables, m):
    # Same result and same queries on every input n <= 8, with each n's
    # plan tree cold for its first input and warm after.
    for n in range(9):
        for hidden in range(2 ** n):
            o = CountingOracle(hidden, n)
            ref_o = CountingOracle(hidden, n)
            assert (partition_weight(o, m), o.transcript) == (
                reference_levels(ref_o, n, m), ref_o.transcript), (hidden, n)
    info = hamming_mod._plan.cache_info()
    assert (info.misses, info.hits) == (9, 2 ** 9 - 1 - 9)


def test_glue_plan_holds_the_representatives_and_merged_groups(
        fresh_tables):
    # An all-zeros input takes the path of all-constant masks: five
    # constant pairs, then two constant pairs of representatives and the
    # leftover representative 9, read, whose block goes to s2.
    root = hamming_mod._plan(4, 10)
    blocks = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10))
    assert (root.p, root.size, root.rest) == (2, 1, ())
    assert tuple(g.map for g in root.groups) == blocks
    for _ in range(2):
        result = partition_weight(CountingOracle(0, 10), 4)
        glue = root.children[0b11111]
        assert list(root.children) == [0b11111]
        reps = (1, 3, 5, 7, 9)
        assert glue.rep_block == dict(zip(reps, blocks))
        assert (glue.p, glue.size, glue.rest, glue.s2) == (2, 2, (9,), ())
        assert [g.map for g in glue.groups] == [(1, 3), (5, 7)]
        assert list(glue.children) == [0b11]
        leaf = glue.children[0b11]
        assert (leaf.blocks, leaf.s2) == (((1, 2, 3, 4), (5, 6, 7, 8)),
                                          (9, 10))
        assert (result.blocks, result.s2) == (leaf.blocks, leaf.s2)
    info = hamming_mod._plan.cache_info()
    assert (info.hits, info.misses) == (2, 1)


def levels(node):
    """Every level node of a plan tree, ``node`` first."""
    if not node.p:
        return []
    return [node] + [level for child in node.children.values()
                     for level in levels(child)]


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 9, 12, 18])
def test_each_level_holds_the_interned_views_of_its_groups(fresh_tables, m):
    # At the first level and at every level of representatives, each
    # group is held as BlockView(indices, padding) of its p units, with
    # padding 0 for a pair and MOD3_PADDING for a triple; the groups'
    # units, then the leftovers, are the level's units in order.
    for n in range(1, 11):
        assert verify_cell(n, m).failures == 0
        for node in levels(hamming_mod._plan(m, n)):
            units = (tuple(range(1, n + 1)) if node.rep_block is None
                     else tuple(node.rep_block))
            cut = tuple(i for view in node.groups for i in view.map)
            assert cut + node.rest == units
            for view in node.groups:
                assert len(view.map) == node.p
                assert view == BlockView(view.map, padding_of(node.p))


@pytest.mark.parametrize("m", [2, 3, 12])
def test_a_warm_cell_looks_up_no_view(fresh_tables, monkeypatch, m):
    # The views are built with the plan's nodes: a cold cell builds
    # views, and a warm one, whose every node is built, builds none, so
    # no query builds or looks up its view.
    built = []
    check = BlockView.__post_init__

    def counted(view):
        built.append(view)
        check(view)
    monkeypatch.setattr(BlockView, "__post_init__", counted)
    assert verify_cell(10, m).failures == 0
    assert built
    built.clear()
    assert verify_cell(10, m).failures == 0
    assert built == []


def test_glue_plan_stores_nothing_for_a_block_with_a_non_index(
        fresh_tables):
    # A mask that marks a group beyond its level's groups constant would
    # make a block of indices the level does not hold: the child lookup
    # raises on every call and stores nothing.
    root = hamming_mod._plan(2, 3)
    for mask in (0b10, 0b11, 0b100):
        with pytest.raises(ValueError, match=rf"^mask {mask:#b} marks a "
                           r"group beyond the 1 of its level$"):
            hamming_mod._child(root, mask)
    assert root.children == {}
    assert hamming_mod._child(root, 0b1).s2 == (3,)


def tree_size(node):
    """The nodes of a plan tree: ``node`` and every node below it."""
    return 1 + sum(map(tree_size, node.children.values())) if node.p else 1


def test_the_plan_memo_is_transparent_and_as_large_as_the_mask_paths(
        fresh_tables, monkeypatch):
    # Each input's masks, one per level, are recorded through the level
    # function.  After a cold cell the tree has one node per distinct
    # prefix of those sequences, the empty one being the root; a warm
    # cell builds none, and clearing the memo drops the trees.  Paths,
    # not results, count: at n = 4, m = 4 the masks 00 and 01 of the
    # first level both end with no block and s2 = (1, 2, 3, 4).
    real = hamming_mod._measure_level
    paths = []

    def measure_level(o, groups, rest, p):
        found = real(o, groups, rest, p)
        paths[-1] += (found[0],)
        return found

    def run_with_path(o, m):
        paths.append(())
        return partition_weight(o, m)
    monkeypatch.setattr(hamming_mod, "_measure_level", measure_level)
    monkeypatch.setattr(sweep, "partition_weight", run_with_path)
    nodes = 0
    for n in range(1, 11):
        for m in DEFAULT_MODULI:
            paths.clear()
            cold = verify_cell(n, m)
            assert cold.failures == 0 and len(paths) == 2 ** n
            prefixes = {path[:k] for path in paths
                        for k in range(len(path) + 1)}
            root = hamming_mod._plan(m, n)
            assert tree_size(root) == len(prefixes)
            assert verify_cell(n, m) == cold
            assert hamming_mod._plan(m, n) is root
            assert tree_size(root) == len(prefixes)
            nodes += len(prefixes)
    assert nodes == 1609
    leaves = {}
    collect_leaves(hamming_mod._plan(4, 4), (), leaves)
    assert leaves[(0b00, 0)] == leaves[(0b01, 0)] == ((), (1, 2, 3, 4))
    assert hamming_mod._plan.cache_info().currsize == 70
    hamming_mod._plan.cache_clear()
    assert hamming_mod._plan.cache_info().currsize == 0
    fresh = hamming_mod._plan(4, 4)
    assert fresh.children == {}


def collect_leaves(node, path, leaves):
    """(blocks, s2) of each leaf below ``node``, by its mask path."""
    if not node.p:
        leaves[path] = (node.blocks, node.s2)
        return
    for mask, child in node.children.items():
        collect_leaves(child, path + (mask,), leaves)


PARTITION_DIGEST = (
    "936c5d2730e1e2eb744cabe51568c62c8f1c6899ff9f1878c3d413ba871864bf")


def test_every_partition_result_up_to_n_10_is_pinned():
    # The repr of every result of the sweep's cells with n <= 10, in
    # sweep order, pins the block order, the s2 order, w2 and the query
    # count of each run.
    digest = hashlib.sha256()
    for n in range(1, 11):
        for m in DEFAULT_MODULI:
            for hidden in range(2 ** n):
                result = partition_weight(
                    CountingOracle(hidden, n), m)
                digest.update(repr(tuple(result)).encode())
    assert digest.hexdigest() == PARTITION_DIGEST


# ---------------------------------------------------------
# |x| mod m, read as w2 mod m
# ---------------------------------------------------------

def test_all_zeros_any_modulus():
    for m in (2, 3, 4, 6, 8, 9, 12):
        assert partition_weight(CountingOracle(0, 10), m).w2 % m == 0


def test_all_ones_weight_nine_mod_nine():
    assert partition_weight(CountingOracle(2 ** 9 - 1, 9), 9).w2 % 9 == 0


def test_example_weight_three_mod_four():
    assert partition_weight(CountingOracle(0b10110, 5), 4).w2 % 4 == 3


def test_modulus_larger_than_input():
    # n = 2, m = 12: still answers |x| mod 12 within the bound
    for hidden in range(4):
        o = CountingOracle(hidden, 2)
        assert partition_weight(o, 12).w2 % 12 == hidden.bit_count()
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
    assert audit_partition(broken, 0b110, 3)


def test_algorithm_never_touches_hidden_string_directly():
    # every query must appear in the oracle transcript, and the partition's
    # query count must equal the transcript length
    o = CountingOracle(0b1011010, 7)
    r = partition_weight(o, 6)
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
    assert audit_partition(result, int(bits, 2), n) == []

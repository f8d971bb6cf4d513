import itertools
import json
import random
from fractions import Fraction

import pytest

from qmodw import cli, oracle, subroutines, sweep
from qmodw.algebra import AlgebraicNumber, SQRT3
from qmodw.linalg import _APPLY_MEMO_CAP, StateVector
from qmodw.oracle import BlockView, CountingOracle
from qmodw.polymethod import MultilinearPolynomial, is_nondeterministic_poly


def uniform5():
    # 1/sqrt5 is outside the field; an unnormalized uniform vector tests the
    # phase action just as well
    return StateVector([AlgebraicNumber.from_rational(1)] * 5)


def test_phase_apply_flips_mapped_entries():
    o = CountingOracle(0b101, 3)
    view = BlockView((1, 2, 3), padding=2)
    got = o.phase_apply(view, uniform5())
    expected = StateVector([AlgebraicNumber.from_rational(v)
                            for v in (-1, 1, -1, 1, 1)])
    assert got == expected
    assert o.query_count == 1


def test_padding_state_unchanged_but_counted():
    o = CountingOracle(0b11, 2)
    view = BlockView((1, 2), padding=1)
    v = StateVector.basis_state(3, 2)
    assert o.phase_apply(view, v) == v
    assert o.query_count == 1


def test_view_index_out_of_range():
    o = CountingOracle(0b11, 2)
    view = BlockView((1, 3))
    with pytest.raises(IndexError):
        o.phase_apply(view, StateVector.basis_state(2, 0))


def test_view_dimension_mismatch():
    o = CountingOracle(0b111, 3)
    with pytest.raises(ValueError):
        o.phase_apply(BlockView((1, 2), padding=1),
                      StateVector.basis_state(2, 0))


def test_view_rejects_duplicates_and_negative_padding():
    with pytest.raises(ValueError):
        BlockView((1, 1))
    with pytest.raises(ValueError):
        BlockView((1,), padding=-1)


def test_query_bit():
    o = CountingOracle(0b10, 2)
    assert o.query_bit(1) == 1
    assert o.query_count == 1
    assert o.query_bit(2) == 0
    assert o.query_count == 2


def test_query_bit_out_of_range():
    o = CountingOracle(0b10, 2)
    with pytest.raises(IndexError):
        o.query_bit(3)
    with pytest.raises(IndexError):
        o.query_bit(0)


def test_fresh_oracle_has_zero_count():
    assert CountingOracle(0b0101, 4).query_count == 0


def test_phase_apply_is_involution_but_still_counts():
    o = CountingOracle(0b0110, 4)
    view = BlockView((2, 3, 4))
    v = StateVector([SQRT3, AlgebraicNumber.from_rational(Fraction(1, 2)),
                     -SQRT3])
    assert o.phase_apply(view, o.phase_apply(view, v)) == v
    assert o.query_count == 2


def test_transcript_structure():
    o = CountingOracle(0b101, 3)
    o.phase_apply(BlockView((1, 2, 3), padding=2), uniform5())
    o.query_bit(2)
    transcript = o.transcript
    assert transcript == [
        {"kind": "phase", "indices": [1, 2, 3], "padding": 2, "count": 1},
        {"kind": "bit", "indices": [2], "count": 2},
    ]
    json.dumps(transcript)  # exportable


def test_bad_bit_string_rejected():
    # The oracle takes no string; `qmodw run` is the one place a bit
    # string becomes an input, and it refuses a character other than 0, 1.
    with pytest.raises(ValueError):
        CountingOracle("10a", 3)
    assert cli.main(["run", "--x", "10a", "--m", "2"]) == cli.EXIT_USAGE


def test_hidden_string_not_on_public_surface():
    o = CountingOracle(0b1101, 4)
    public = [name for name in dir(o) if not name.startswith("_")]
    assert sorted(public) == ["n", "phase_apply", "query_bit",
                              "query_count", "transcript"]


@pytest.mark.parametrize("hidden, n", [(-1, 3), (8, 3), (1, 0), (0, -1),
                                       (-1, -1)])
def test_from_int_rejects_a_value_outside_n_bits(hidden, n):
    with pytest.raises(ValueError):
        CountingOracle(hidden, n)


@pytest.mark.parametrize("hidden, n", [(1.0, 2), (1.5, 2), (True, 1),
                                       (1, 2.0)])
def test_from_int_rejects_a_non_int(hidden, n):
    # 1.0 and True pass the range check, and 2.0 would fail only at the
    # first query; each is refused when the oracle is built.
    with pytest.raises(ValueError):
        CountingOracle(hidden, n)


def test_one_int_format_across_modules():
    # x_i is bit n - i of the int: the oracle, a polynomial's point and
    # truth table, and the sweep's bit string all read the input h as
    # format(h, f"0{n}b").  At n = 0 the format gives "0", so the empty
    # input is checked on its own.
    assert sweep._bit_string(0, 0) == ""
    for n in range(1, 9):
        for i in range(1, n + 1):
            x_i = MultilinearPolynomial(n, {(i,): 1})
            table = []
            for h in range(2 ** n):
                bit = int(format(h, f"0{n}b")[i - 1])
                assert CountingOracle(h, n).query_bit(i) == bit
                assert x_i.eval(h) == bit
                table.append(bit)
            assert is_nondeterministic_poly(x_i, table)
        for h in range(2 ** n):
            assert sweep._bit_string(h, n) == format(h, f"0{n}b")


# ---------------------------------------------------------
# The flip memo
# ---------------------------------------------------------

def fresh_negation(v, rows):
    """``v`` with ``rows`` negated, rebuilt from signed entries."""
    return StateVector([-e if j in rows else e
                        for j, e in enumerate(v.entries)])


def assert_interned_flip(v, got, rows):
    assert fresh_negation(v, rows) is got
    assert oracle._flipped(v, rows) is got


def deutsch_flips():
    """The flipped state of each of the 4 Deutsch local patterns."""
    out = {}
    for bits in ("00", "01", "10", "11"):
        o = CountingOracle(int(bits, 2), 2)
        got = o.phase_apply(BlockView((1, 2)), subroutines._H_KET0)
        rows = tuple(j for j, c in enumerate(bits) if c == "1")
        assert_interned_flip(subroutines._H_KET0, got, rows)
        out[bits] = got
    return out


def mod3_flips():
    """Both flipped states of each of the 8 mod-3 local patterns."""
    out = {}
    view = BlockView((1, 2, 3), padding=2)
    for bits in subroutines.ALL_3BIT:
        o = CountingOracle(int(bits, 2), 3)
        rows = tuple(j for j, c in enumerate(bits) if c == "1")
        first = o.phase_apply(view, subroutines._QFT_KET0)
        assert_interned_flip(subroutines._QFT_KET0, first, rows)
        mid = subroutines._MID.apply(first)
        second = o.phase_apply(view, mid)
        assert_interned_flip(mid, second, rows)
        out[bits] = first, second
    return out


def test_flip_table_interns_every_local_pattern(fresh_tables):
    cold = deutsch_flips(), mod3_flips()
    # 4 Deutsch keys and 15 mod-3 keys: on 000 the mid state is the start
    # state QFT|0>, so the second query's key is the first query's.
    info = oracle._flipped.cache_info()
    assert info.misses == info.currsize == 19
    warm = deutsch_flips(), mod3_flips()
    # A warm query returns the very state the cold one stored.
    for bits, state in cold[0].items():
        assert warm[0][bits] is state
    for bits, states in cold[1].items():
        assert all(w is c for w, c in zip(warm[1][bits], states))
    info = oracle._flipped.cache_info()
    assert info.misses == info.currsize == 19


def test_flip_table_hits_an_equal_state_built_elsewhere(fresh_tables):
    o = CountingOracle(0b10, 2)
    view = BlockView((1, 2))
    got = o.phase_apply(view, subroutines._H_KET0)
    copy = StateVector(subroutines._H_KET0.entries)
    assert copy is subroutines._H_KET0
    assert o.phase_apply(view, copy) is got
    assert o.query_count == 2
    info = oracle._flipped.cache_info()
    assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("view, state", [
    (BlockView((0, 1)), StateVector([AlgebraicNumber.from_rational(7),
                                     AlgebraicNumber.from_rational(5)])),
    (BlockView((2, 3)), StateVector([AlgebraicNumber.from_rational(7),
                                     AlgebraicNumber.from_rational(5)])),
    (BlockView((1, 2), padding=1),
     StateVector([AlgebraicNumber.from_rational(7),
                  AlgebraicNumber.from_rational(5)])),
], ids=["index-0", "index-past-n", "dim-mismatch"])
def test_failed_query_leaves_count_transcript_and_table(fresh_tables, view,
                                                        state):
    # Index 0 would read the last hidden bit if the rows were computed
    # before the check; the dim-mismatched view maps two valid indices.
    o = CountingOracle(0b11, 2)
    o.phase_apply(BlockView((1, 2)), subroutines._H_KET0)
    info = oracle._flipped.cache_info()
    transcript = o.transcript
    with pytest.raises((IndexError, ValueError)):
        o.phase_apply(view, state)
    assert o.query_count == 1
    assert o.transcript == transcript
    assert oracle._flipped.cache_info() == info


def test_flip_table_stays_capped_and_exact(fresh_tables):
    # 10 000 phase queries alternate over random oracles on one 12-dim
    # state the caller holds and feeds back: the memo fills up to its
    # cap, then drops its least recently used entry, and every state
    # stays exactly the caller's signed copy of the start.
    rng = random.Random(5)
    dim = 12
    start = StateVector([AlgebraicNumber.from_rational(k + 1)
                         for k in range(dim)])
    strings = ["".join(rng.choice("01") for _ in range(dim))
               for _ in range(64)]
    oracles = [CountingOracle(int(bits, 2), dim) for bits in strings]
    view = BlockView(tuple(range(1, dim + 1)))
    signs = [1] * dim
    state = start
    for q in range(10_000):
        k = q % 2 * 32 + rng.randrange(32)
        previous, state = state, oracles[k].phase_apply(view, state)
        signs = [-s if b == "1" else s for s, b in zip(signs, strings[k])]
        assert state == fresh_negation(
            start, [j for j, s in enumerate(signs) if s < 0])
        assert oracle._flipped.cache_info().currsize <= _APPLY_MEMO_CAP
    info = oracle._flipped.cache_info()
    assert info.currsize == _APPLY_MEMO_CAP < info.misses
    # The most recently used entry is never the one dropped.
    assert oracles[k].phase_apply(view, previous) is state
    assert sum(o.query_count for o in oracles) == 10_001


# ---------------------------------------------------------
# Views, the bitmask input and the compact log
# ---------------------------------------------------------

@pytest.mark.parametrize("map, padding", [((1, 1), 0), ((2, 3, 2), 2),
                                          ((1,), -1)],
                         ids=["duplicate", "duplicate-padded", "negative"])
def test_bad_view_raises_and_is_not_stored(fresh_tables, map, padding):
    # A view is checked each time it is made, and no memo keeps it.
    for _ in range(2):
        with pytest.raises(ValueError):
            BlockView(map, padding)
    assert all(f.cache_info().currsize == 0 for f in fresh_tables)


def test_view_precomputes_range_and_dim():
    view = BlockView([4, 2, 7], padding=2)
    assert view.map == (4, 2, 7)
    assert (view.lo, view.hi, view.dim) == (2, 7, 5)
    assert view == BlockView((4, 2, 7), 2)
    assert hash(view) == hash(BlockView((4, 2, 7), 2))
    # An empty map has no range to break, even on an empty input.
    empty = BlockView((), padding=1)
    o = CountingOracle(0, 0)
    state = StateVector.basis_state(1, 0)
    assert o.phase_apply(empty, state) == state
    assert o.query_count == 1


def test_logged_view_does_not_follow_a_mutated_list():
    indices = [1, 2]
    view = BlockView(indices)
    o = CountingOracle(0b10, 2)
    o.phase_apply(view, subroutines._H_KET0)
    indices[0] = 9
    indices.append(5)
    assert view.map == (1, 2)
    assert o.transcript == [
        {"kind": "phase", "indices": [1, 2], "padding": 0, "count": 1}]


def test_transcript_is_fresh_on_every_read():
    o = CountingOracle(0b101, 3)
    o.phase_apply(BlockView((1, 2, 3), padding=2), uniform5())
    o.query_bit(2)
    first = o.transcript
    first[0]["indices"].append(99)
    first[1]["count"] = 0
    first.append({"kind": "bit"})
    second = o.transcript
    assert second == [
        {"kind": "phase", "indices": [1, 2, 3], "padding": 2, "count": 1},
        {"kind": "bit", "indices": [2], "count": 2},
    ]
    assert all(a is not b for a, b in zip(first, second))
    assert first[0]["indices"] is not second[0]["indices"]


@pytest.mark.parametrize("index", [0, 4])
def test_count_matches_transcript_after_failed_bit_read(index):
    # test_failed_query_leaves_count_transcript_and_table covers phase_apply.
    o = CountingOracle(0b011, 3)
    o.query_bit(3)
    with pytest.raises(IndexError):
        o.query_bit(index)
    assert o.query_count == len(o.transcript) == 1


def test_queries_agree_with_the_bit_string_on_every_6bit_input():
    n = 6
    rows_view = BlockView(tuple(range(1, n + 1)))
    start = StateVector([AlgebraicNumber.from_rational(k + 1)
                         for k in range(n)])
    for value in range(2 ** n):
        bits = format(value, f"0{n}b")
        o = CountingOracle(value, n)
        assert [o.query_bit(i) for i in range(1, n + 1)] == [
            int(c) for c in bits]
        assert o.phase_apply(rows_view, start) == fresh_negation(
            start, [j for j, c in enumerate(bits) if c == "1"])
        # Each single index, and each index in a reversed view.
        for i in range(1, n + 1):
            got = o.phase_apply(BlockView((i,), padding=1),
                                StateVector.basis_state(2, 0))
            sign = -1 if bits[i - 1] == "1" else 1
            assert got == StateVector([AlgebraicNumber.from_rational(sign),
                                       AlgebraicNumber.from_rational(0)])
        reversed_view = BlockView(tuple(range(n, 0, -1)))
        assert o.phase_apply(reversed_view, start) == fresh_negation(
            start, [j for j, c in enumerate(reversed(bits)) if c == "1"])
        assert o.query_count == len(o.transcript) == 2 * n + 2


def test_sign_table_matches_the_bit_string_reference():
    # Every map of 0..4 distinct indices in 1..6, on every 6-bit input: the
    # table's rows are the local rows whose index carries a 1, in order,
    # and the query returns the start state with exactly those negated.
    n = 6
    for k in range(5):
        start = StateVector([AlgebraicNumber.from_rational(j + 1)
                             for j in range(k + 1)])
        for map in itertools.permutations(range(1, n + 1), k):
            view = BlockView(map, padding=1)
            assert view.mask == sum(1 << (max(map) - i) for i in map)
            assert len(view._flips) == 2 ** k
            for value in range(2 ** n):
                bits = format(value, f"0{n}b")
                o = CountingOracle(value, n)
                rows = tuple([j for j, i in enumerate(map)
                              if bits[i - 1] == "1"])
                assert view._flips[o._hidden >> (n - view.hi)
                                   & view.mask] == rows
                got = o.phase_apply(view, start)
                assert got is oracle._flipped(start, rows)
                assert got == fresh_negation(start, rows)


def test_view_with_an_index_below_one_has_no_table():
    view = BlockView((2, 0, 1))
    assert view.mask == 0 and view._flips == {}
    with pytest.raises(IndexError, match="index 0"):
        CountingOracle(0b11, 2).phase_apply(view,
                                            StateVector.basis_state(3, 0))


@pytest.mark.parametrize("bits", [" 01", "1 0", "01\n", "1_0", "0b1"])
def test_bit_string_that_int_would_parse_is_rejected(bits):
    # int(bits, 2) takes each of these; neither the oracle nor the bit
    # string parser of `qmodw run` does.
    with pytest.raises(ValueError):
        CountingOracle(bits, 3)
    assert cli.main(["run", "--x", bits, "--m", "2"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("make", [
    lambda o: o.query_bit(2.0),
    lambda o: o.query_bit(True),
    lambda o: o.query_bit("1"),
    lambda o: BlockView((True, 2)),
    lambda o: BlockView((1.0, 2)),
    lambda o: BlockView((1, 2), 1.5),
    lambda o: BlockView((1, 2), padding=True),
], ids=["bit-float", "bit-bool", "bit-str", "view-bool", "view-float",
        "padding-float", "padding-bool"])
def test_a_non_int_index_is_rejected_before_any_query(make):
    # True and 2.0 equal valid indices; a rejected call logs no query.
    o = CountingOracle(0b101, 3)
    with pytest.raises(ValueError):
        make(o)
    assert o.query_count == 0 and o.transcript == []

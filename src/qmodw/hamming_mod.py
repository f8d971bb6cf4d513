"""Hamming weight modulo m for m with prime factors 2 and 3 only.

The algorithm partitions the queried indices into constant blocks of
size m (contributing 0 to the weight mod m) plus a remainder set whose
exact weight is known, using at most n - floor(n/m) queries:

* m = 2: pair the indices and learn each pair's parity with one query;
  parity-0 pairs are constant blocks, parity-1 pairs contribute weight 1.
* m = 3: same with triples and the 2-query mod-3 subroutine; outcome 0
  means a constant triple, outcomes 1 and 2 are the triple's exact weight
  (weights 0 and 3 are the constant cases, so the residue determines it).
* composite m = p1 * p2 * ... * pk (primes, 2s first): one level per
  prime.  The first level runs the base case with p1 on the indices.
  Each further level measures one representative index per constant
  block, p at a time, through the same base case: a constant group
  glues its p blocks into one, and the blocks of a non-constant group go
  to the remainder, their weight being the group's weight times the
  block size.

Leftover indices that do not fill a group are read individually.  All
choices the underlying math leaves free (prime order, block grouping,
representatives) are fixed deterministically so runs are replayable.

:func:`partition_weight` is the only public entry and the only place
that checks: once per call it makes one lookup in :func:`_check_indices`,
which checks the modulus with :func:`factor_split` and then the range
and duplicates of the indices, and returns the prime factors.  It is
memoised per (index tuple, m, n), so a sweep runs the checks once per
cell, and a bad modulus or tuple raises on every call.  The levels pass
on only indices derived from these and check nothing again; they keep
plain lists, and only the end sorts s2 in place and builds the
immutable ``NamedTuple`` :class:`PartitionResult` with
``tuple.__new__``, as its ``_make`` does, past the generated Python
``__new__``.
Every level measures through :func:`_base_case` (the first directly,
the others through :func:`_glue`), and the base case calls
:func:`deutsch` and :func:`mod3`, all through this module's globals, so
code that replaces one of them there sees every level.  The base case
takes its groups and leftovers from :func:`_layout`, memoised per
(index tuple, prime), and :func:`_glue` takes the representatives, the
map from each to its block and each representative group's merged,
sorted block from :func:`_glue_plan`, memoised per (blocks, prime).  So
the 2^n inputs of a sweep cell share one cutting of each index tuple
and one plan of each glue level; the measurements and reads are still
made on every call.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .linalg import _APPLY_MEMO_CAP
from .oracle import CountingOracle
from .subroutines import deutsch, mod3


class UnsupportedModulus(ValueError):
    """Modulus with a prime factor other than 2 or 3 (or m < 2)."""


def query_bound(n: int, m: int) -> int:
    """ceil(n * (1 - 1/m)), computed exactly as n - floor(n/m)."""
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    if n < 0:
        raise ValueError(f"negative n: {n}")
    return n - n // m


def factor_split(m: int) -> tuple:
    """Validate m and return its prime factors, 2s first."""
    if m < 2:
        raise UnsupportedModulus(f"modulus must be at least 2, got {m}")
    primes = []
    rest = m
    for p in (2, 3):
        while rest % p == 0:
            rest //= p
            primes.append(p)
    if rest != 1:
        raise UnsupportedModulus(
            f"modulus {m} has a prime factor other than 2 and 3")
    return tuple(primes)


class PartitionResult(NamedTuple):
    """Constant blocks of size m, plus a remainder of exactly-known weight."""

    m: int
    blocks: tuple          # disjoint index tuples, each of length m, x constant on each
    s2: tuple              # remaining indices, sorted
    w2: int                # exact Hamming weight on s2
    queries: int           # queries consumed by this run


def partition_weight(o: CountingOracle, indices: Sequence[int],
                     m: int) -> PartitionResult:
    """Partition ``indices`` into constant m-blocks and a known remainder.

    One level per prime factor of m: the base case with the first prime
    on ``indices``, then :func:`_glue` with each further prime on the
    blocks so far, adding each level's weight times the block size it
    started from.

    Raises ``UnsupportedModulus`` for a bad ``m``, ``IndexError`` naming
    the first index outside [1, n] and ``ValueError`` for a repeated
    index, all before any query.  These are the only checks of the run:
    the levels trust the indices they derive from these.
    """
    indices = tuple(indices)
    primes = _check_indices(indices, m, o.n)
    start = o.query_count
    size = primes[0]
    blocks, s2, w2 = _base_case(o, indices, size)
    for p in primes[1:]:
        blocks, level_w2 = _glue(o, blocks, p, s2)
        w2 += size * level_w2
        size *= p
    s2.sort()
    return tuple.__new__(PartitionResult, (m, tuple(blocks), tuple(s2), w2,
                                           o.query_count - start))


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _check_indices(indices: tuple, m: int, n: int) -> tuple:
    """The prime factors of m, from :func:`factor_split`, which raises
    for a bad m; then IndexError naming the first index outside [1, n],
    else ValueError if an index repeats."""
    primes = factor_split(m)
    if indices and (min(indices) < 1 or max(indices) > n):
        bad = next(i for i in indices if not 1 <= i <= n)
        raise IndexError(f"index {bad} out of oracle range [1, {n}]")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate indices")
    return primes


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _layout(indices: tuple, m: int) -> tuple:
    """(groups, rest): ``indices`` cut into consecutive m-tuples, and the
    leftover indices that do not fill one."""
    full = len(indices) - len(indices) % m
    return (tuple(indices[start:start + m] for start in range(0, full, m)),
            indices[full:])


def _base_case(o: CountingOracle, indices: tuple, m: int):
    """(blocks, s2, w2) of ``indices`` for a prime m; s2 unsorted.

    The groups and leftovers come from :func:`_layout`, so a sweep cuts
    each index tuple once, not once per input.  Each group is still
    measured, and each leftover read, on every call.
    """
    blocks = []
    s2 = []
    w2 = 0
    groups, rest = _layout(indices, m)
    measure = deutsch if m == 2 else mod3
    for group in groups:
        outcome = measure(o, group)
        if outcome == 0:
            blocks.append(group)
        else:
            # Weights 0 and m are the constant cases, so for a non-constant
            # group the residue is the weight itself.
            s2.extend(group)
            w2 += outcome
    for i in rest:
        s2.append(i)
        w2 += o.query_bit(i)
    return blocks, s2, w2


def _glue(o: CountingOracle, blocks: list, p: int, s2: list):
    """One level for the prime p over constant, equal-sized ``blocks``.

    x is constant on each block, so its smallest index stands for all of
    it.  The representatives go through the base case p at a time, on
    every call; each constant group becomes its merged, sorted block, and
    the blocks of the rest are appended to ``s2``.  Everything but the
    measurements comes from :func:`_glue_plan`, so a group the plan does
    not hold raises ``KeyError``.  Returns the new blocks and the weight
    of the representatives put in s2, which the caller scales by the
    block size.
    """
    reps, rep_block, merged = _glue_plan(tuple(blocks), p)
    rep_groups, rep_s2, level_w2 = _base_case(o, reps, p)
    for rep in rep_s2:
        s2.extend(rep_block[rep])
    return [merged[group] for group in rep_groups], level_w2


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _glue_plan(blocks: tuple, p: int) -> tuple:
    """(reps, rep_block, merged): the part of a :func:`_glue` level that
    holds for every input.

    ``reps`` are the blocks' smallest indices in block order,
    ``rep_block`` maps each to its block, and ``merged`` maps each group
    of ``_layout(reps, p)`` to the sorted union of its blocks.  The maps
    are shared by every caller and only read.
    """
    rep_block = {min(b): b for b in blocks}
    reps = tuple(rep_block)
    merged = {group: tuple(sorted(i for rep in group for i in rep_block[rep]))
              for group in _layout(reps, p)[0]}
    return reps, rep_block, merged


def weight_mod(o: CountingOracle, m: int) -> int:
    """|x| mod m for the oracle's full input, with certainty."""
    result = partition_weight(o, range(1, o.n + 1), m)
    return result.w2 % m

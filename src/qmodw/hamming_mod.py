"""Hamming weight modulo m for m with prime factors 2 and 3 only.

The algorithm recursively partitions the queried indices into constant
blocks of size m (contributing 0 to the weight mod m) plus a remainder
set whose exact weight is known, using at most n - floor(n/m) queries:

* m = 2: pair the indices and learn each pair's parity with one query;
  parity-0 pairs are constant blocks, parity-1 pairs contribute weight 1.
* m = 3: same with triples and the 2-query mod-3 subroutine; outcome 0
  means a constant triple, outcomes 1 and 2 are the triple's exact weight
  (weights 0 and 3 are the constant cases, so the residue determines it).
* composite m = m1 * m2: recurse with m1, keep one representative index
  per constant block, recurse with m2 on the representatives, and glue
  m2 representative-blocks into size-m blocks.

Leftover indices that do not fill a block are read individually.  All
choices the underlying math leaves free (factor order, block grouping,
representatives) are fixed deterministically so runs are replayable.

The split of each modulus is computed once and memoised (an unsupported
modulus raises on every call).  :func:`partition_weight` is the only
public entry and the only place that checks.  Once per call it checks the
modulus with :func:`factor_split`, the index range with one ``min`` and
one ``max`` and duplicates with one set, and records the start query
count.  The private recursion :func:`_partition` gets the indices as a
tuple and only passes on indices derived from them, so it checks nothing
again.  Its levels pass each other index tuples and return ``(blocks,
s2, w2)`` with plain lists; only the top level sorts s2 and builds a
:class:`PartitionResult`.  ``_partition`` calls :func:`_base_case` and
:func:`_composite_case`, and the base case calls :func:`deutsch` and
:func:`mod3`, through this module's globals, so code that replaces one
of them there sees every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

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


@dataclass(frozen=True)
class ModulusSchedule:
    """How a modulus is handled: base case, or a fixed split m = m1 * m2."""

    m: int
    split: Optional[tuple] = None


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def factor_split(m: int) -> ModulusSchedule:
    """Validate m and fix the recursion split (smallest prime factor first)."""
    if m < 2:
        raise UnsupportedModulus(f"modulus must be at least 2, got {m}")
    rest = m
    for p in (2, 3):
        while rest % p == 0:
            rest //= p
    if rest != 1:
        raise UnsupportedModulus(
            f"modulus {m} has a prime factor other than 2 and 3")
    if m in (2, 3):
        return ModulusSchedule(m)
    m1 = 2 if m % 2 == 0 else 3
    return ModulusSchedule(m, (m1, m // m1))


@dataclass(frozen=True)
class PartitionResult:
    """Constant blocks of size m, plus a remainder of exactly-known weight."""

    m: int
    blocks: tuple          # disjoint index tuples, each of length m, x constant on each
    s2: tuple              # remaining indices, sorted
    w2: int                # exact Hamming weight on s2
    queries: int           # queries consumed by this run


def partition_weight(o: CountingOracle, indices: Sequence[int],
                     m: int) -> PartitionResult:
    """Partition ``indices`` into constant m-blocks and a known remainder.

    Raises ``UnsupportedModulus`` for a bad ``m``, ``IndexError`` naming
    the first index outside [1, n] and ``ValueError`` for a repeated
    index, all before any query.  These are the only checks of the run:
    the recursion below trusts the indices it derives from these.
    """
    factor_split(m)
    indices = tuple(indices)
    n = o.n
    if indices and (min(indices) < 1 or max(indices) > n):
        bad = next(i for i in indices if not 1 <= i <= n)
        raise IndexError(f"index {bad} out of oracle range [1, {n}]")
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate indices")
    start = o.query_count
    blocks, s2, w2 = _partition(o, indices, m)
    return PartitionResult(m, tuple(blocks), tuple(sorted(s2)), w2,
                           o.query_count - start)


def _partition(o: CountingOracle, indices: tuple, m: int):
    """(blocks, s2, w2) of checked, distinct ``indices``; s2 unsorted."""
    split = factor_split(m).split
    if split is None:
        return _base_case(o, indices, m)
    return _composite_case(o, indices, split)


def _base_case(o: CountingOracle, indices: tuple, m: int):
    blocks = []
    s2 = []
    w2 = 0
    full = len(indices) - len(indices) % m
    measure = deutsch if m == 2 else mod3
    for start in range(0, full, m):
        group = indices[start:start + m]
        outcome = measure(o, group)
        if outcome == 0:
            blocks.append(group)
        else:
            # Weights 0 and m are the constant cases, so for a non-constant
            # group the residue is the weight itself.
            s2.extend(group)
            w2 += outcome
    for i in indices[full:]:
        s2.append(i)
        w2 += o.query_bit(i)
    return blocks, s2, w2


def _composite_case(o: CountingOracle, indices: tuple, split):
    m1, m2 = split
    inner_blocks, s2, inner_w2 = _partition(o, indices, m1)
    # One representative per constant m1-block; x is constant on the block,
    # so the representative's bit stands for all m1 of them.
    rep_block = {min(b): b for b in inner_blocks}
    outer_blocks, outer_s2, outer_w2 = _partition(o, tuple(rep_block), m2)

    blocks = []
    for rep_group in outer_blocks:
        merged = []
        for rep in rep_group:
            merged.extend(rep_block[rep])
        blocks.append(tuple(sorted(merged)))
    # The inner level's s2 is a fresh list that only this level holds.
    for rep in outer_s2:
        s2.extend(rep_block[rep])
    return blocks, s2, inner_w2 + m1 * outer_w2


def weight_mod(o: CountingOracle, m: int) -> int:
    """|x| mod m for the oracle's full input, with certainty."""
    result = partition_weight(o, range(1, o.n + 1), m)
    return result.w2 % m

"""Hamming weight modulo m for m with prime factors 2 and 3 only.

The algorithm partitions the indices 1..n into constant blocks of
size m (contributing 0 to the weight mod m) plus a remainder set whose
exact weight is known, using at most n - floor(n/m) queries:

* m = 2: pair the indices and learn each pair's parity with one query;
  parity-0 pairs are constant blocks, parity-1 pairs contribute weight 1.
* m = 3: same with triples and the 2-query mod-3 subroutine; outcome 0
  means a constant triple, outcomes 1 and 2 are the triple's exact weight
  (weights 0 and 3 are the constant cases, so the residue determines it).
* composite m = p1 * p2 * ... * pk (primes, 2s first): one level per
  prime.  A level's units are the blocks of the level before (the first
  level's are the single indices), measured p at a time through their
  first indices: a constant group glues its p units into one block, and
  the units of a non-constant group go to the remainder, their weight
  being the group's weight times the unit size.

Leftover units that do not fill a group are read at their first index.
s2 is every index in no final block.  All choices the underlying math
leaves free (prime order, grouping) are fixed, so runs are replayable.

:func:`partition_weight` is the only public entry; a run covers the
indices 1..n of its oracle.  What a run does besides measuring (which
units glue, what the next level measures) depends on the input only
through which groups of each level came out constant.  So it is one
tree per (m, n), keyed by one int mask per level.  :func:`_plan`
memoises the root under the shared cap; on a miss it checks the modulus
with :func:`factor_split`, and it stores nothing for a bad one, so it
raises on every call.  The memo keys on the types too, so a float or
bool equal to a stored int modulus still raises.  A level node holds
its prime, unit size, units, groups, leftovers, n and ``children`` by
mask, built by :func:`_child` on a miss (a mask with a bit beyond the
level's groups raises); a leaf holds the final blocks and s2.  Each
group is held as its oracle view, a :class:`~qmodw.oracle.BlockView` of
its units' first indices with the circuit's padding (0 for a pair,
``MOD3_PADDING`` for a triple), built once with its node, so a query
builds no view and looks none up.  A tree holds at most one node per
mask path of the inputs run on it, and goes with its root from the
capped memo.  Per level, :func:`_measure_level` measures every group
and reads every leftover on every call, handing each group's view to
:func:`deutsch` or :func:`mod3` looked up in this module's globals, so
code that replaces one of them, or the level function itself, there
sees every level.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .linalg import _APPLY_MEMO_CAP
from .oracle import BlockView, CountingOracle
from .subroutines import MOD3_PADDING, deutsch, mod3


class UnsupportedModulus(ValueError):
    """Modulus with a prime factor other than 2 or 3 (or m < 2, or not an
    int)."""


def query_bound(n: int, m: int) -> int:
    """ceil(n * (1 - 1/m)), computed exactly as n - floor(n/m).  Raises
    ValueError unless n and m are ints (a bool is not)."""
    if type(n) is not int or type(m) is not int:
        raise ValueError(f"n and m must be ints, got {n!r} and {m!r}")
    if m < 2:
        raise ValueError(f"modulus must be at least 2, got {m}")
    if n < 0:
        raise ValueError(f"negative n: {n}")
    return n - n // m


def factor_split(m: int) -> tuple:
    """Validate m and return its prime factors, 2s first.  A float or a
    bool is an ``UnsupportedModulus``, even when it equals an int."""
    if type(m) is not int:
        raise UnsupportedModulus(f"modulus must be an int, got {m!r}")
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


def partition_weight(o: CountingOracle, m: int) -> PartitionResult:
    """Partition the indices 1..n of ``o`` into constant m-blocks and a
    known remainder, one level per prime factor of m down the tree of
    :func:`_plan`, adding each level's weight times its unit size to w2.

    Raises ``UnsupportedModulus`` for a bad ``m`` before any query.
    """
    node = _plan(m, o.n)
    start = o.query_count
    w2 = 0
    while node.p:
        mask, w = _measure_level(o, node.groups, node.rest, node.p)
        w2 += node.size * w
        try:
            node = node.children[mask]
        except KeyError:
            node = _child(node, mask)
    return tuple.__new__(PartitionResult, (m, node.blocks, node.s2, w2,
                                           o.query_count - start))


def _measure_level(o: CountingOracle, groups: tuple, rest: tuple,
                   p: int) -> tuple:
    """(mask, w) of one level for the prime p: bit j of mask is set when
    the group of view ``groups[j]`` came out constant, and w is the
    weight of the other groups plus the bits of ``rest``, each read
    once."""
    measure = deutsch if p == 2 else mod3
    mask = 0
    w = 0
    for j, view in enumerate(groups):
        outcome = measure(o, view)
        if outcome:
            # Weights 0 and p are the constant cases, so for a
            # non-constant group the residue is the weight itself.
            w += outcome
        else:
            mask |= 1 << j
    for i in rest:
        w += o.query_bit(i)
    return mask, w


class _Level:
    """A level: its ``units``, the blocks of ``size`` indices of the
    level before (the root's are the single indices); the oracle view of
    the first indices of each group of p units, in ``groups``; and the
    first indices of the leftover units, in ``rest``."""

    __slots__ = ("p", "size", "groups", "rest", "units", "n", "primes",
                 "children")

    def __init__(self, primes, size, units, n):
        p = self.p = primes[0]
        full = len(units) - len(units) % p
        firsts = tuple([unit[0] for unit in units])
        padding = 0 if p == 2 else MOD3_PADDING
        self.groups = tuple(BlockView(firsts[start:start + p], padding)
                            for start in range(0, full, p))
        self.rest = firsts[full:]
        self.primes = primes[1:]
        self.size = size
        self.units = units
        self.n = n
        self.children = {}


class _Leaf(NamedTuple):
    """The end of a mask path: the run's blocks and s2, in increasing
    order."""

    blocks: tuple
    s2: tuple
    p: int = 0    # ends the level loop


@lru_cache(maxsize=_APPLY_MEMO_CAP, typed=True)
def _plan(m: int, n: int) -> _Level:
    """The root of the plan tree of (m, n) on the indices 1..n, with no
    children yet; :func:`factor_split` raises for a bad m."""
    return _Level(factor_split(m), 1, tuple((i,) for i in range(1, n + 1)),
                  n)


def _child(node: _Level, mask: int):
    """The child of ``node`` for ``mask``, stored in its children: the
    block of a group marked constant is its p units concatenated, in
    order, as the units of a level are.  A child level takes these
    blocks as its units; a leaf's s2 is every index of 1..n in no block,
    in increasing order."""
    units, p = node.units, node.p
    if mask >> len(node.groups):
        raise ValueError(f"mask {mask:#b} marks a group beyond the "
                         f"{len(node.groups)} of its level")
    blocks = tuple([sum(units[j * p:j * p + p], ())
                    for j in range(len(node.groups)) if mask >> j & 1])
    if node.primes:
        child = _Level(node.primes, node.size * p, blocks, node.n)
    else:
        done = set().union(*blocks)
        child = _Leaf(blocks, tuple([i for i in range(1, node.n + 1)
                                     if i not in done]))
    node.children[mask] = child
    return child

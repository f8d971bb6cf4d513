"""Exhaustive verification sweeps over all inputs of each length.

:func:`judge_run` judges one run, for each input of a sweep and for
``qmodw run``: it replays the partition algorithm against a fresh
counting oracle, checks the residue, the query budget and the oracle's
count, then audits the partition contract (disjoint constant blocks of
size m whose union with the remainder is 1..n, with the remainder
weight exact).  The audit has no switch.  Each input is one int,
``int(x_1...x_n, 2)`` as the oracle holds it (x_i is bit n - i), through
the enumeration, the :class:`CountingOracle` constructor, the run check
and the audit, so ``range(2**n)`` runs the inputs in the lexicographic
order of x_1 ... x_n.  A bit string is built only for a failing input
that a row keeps.

The audit runs on every input, over bitmasks: each block and the
remainder s2 become ints with bit n - i for index i, so a block is
constant when its mask meets the input in nothing or in all of it.
Everything else the audit checks (the masks, the block sizes, whether
blocks and s2 partition 1..n, and indices outside [1, n]) holds for
every input, so it is memoised per (m, blocks, s2, n): a cell has at
most 128 distinct results at n = 15.  A result whose blocks or s2 are
not tuples cannot key the memo: its ``TypeError`` fails its input.  Per
input there remain the constant test of each block and the popcount of
s2 for its weight.  A repeated index of s2, which no correct run gives,
counts on every occurrence.

Any exception raised while running or judging one input, such as an
``InvariantViolation`` (an impossible measurement outcome) or the
dimension mismatch of a corrupted circuit matrix, is that input's one
reason, with its type and message; the sweep goes on.  The modulus is
checked before the first input, so a bad one raises.  Each row keeps
the first ``FAILURES_KEPT`` failing inputs with their reasons.

Cells (one per (n, m) pair) can fan out across worker processes; the
QMODW_THREADS environment variable bounds the pool.  The pool is
imported only when one is started, so ``import qmodw`` loads neither
``concurrent.futures.process`` nor ``multiprocessing``.  Every modulus is
checked before any cell runs, so a bad one raises before a worker
starts.  Cells are handed out in descending (n, m) order, so the largest
start first and the last to finish is a small one.  Aggregation is
deterministic: rows come back sorted by (n, m).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from .hamming_mod import factor_split, partition_weight, query_bound
from .linalg import _APPLY_MEMO_CAP
from .oracle import CountingOracle

DEFAULT_MODULI = (2, 3, 4, 6, 8, 9, 12)

# Failing inputs kept per row, with their reasons.
FAILURES_KEPT = 3


@dataclass(frozen=True)
class SweepRow:
    n: int
    m: int
    inputs: int
    failures: int
    max_queries: int
    bound: int
    zero_input_queries: int
    # The first FAILURES_KEPT failing inputs: (bit string, reasons) pairs.
    first_failures: tuple = ()

    @property
    def all_correct(self) -> bool:
        return self.failures == 0

    @property
    def tight(self) -> bool:
        """Worst case matches the bound and the all-zeros input attains it."""
        return (self.max_queries == self.bound
                and self.zero_input_queries == self.bound)


def audit_partition(result, ones: int, n: int) -> list:
    """Check a PartitionResult against the hidden input, post hoc.

    ``ones`` is the input of ``n`` bits as the oracle holds it: bit n - i
    is x_i.  The reasons, in order: each block of the wrong size or not
    constant on the input, then blocks and s2 that are not a partition
    of 1..n (an index missing, extra or repeated), then a wrong ``w2``,
    then any index of the result outside [1, n].  Everything but the
    constant blocks and ``w2`` depends on the input only through n, so
    it comes from :func:`_audit_shape`.
    """
    checks, s2_masks, partition, outside = _audit_shape(
        result.m, result.blocks, result.s2, n)
    problems = []
    for block, mask, constant, size in checks:
        if size:
            problems.append(size)
        if ones & mask not in constant:
            problems.append(f"block {block} not constant on input "
                            f"{_bit_string(ones, n)}")
    if partition:
        problems.append(partition)
    true_w2 = 0
    for mask in s2_masks:
        true_w2 += (ones & mask).bit_count()
    if result.w2 != true_w2:
        problems.append(f"w2={result.w2} but |x_S2|={true_w2}")
    if outside:
        problems.append(outside)
    return problems


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _audit_shape(m: int, blocks: tuple, s2: tuple, n: int) -> tuple:
    """(checks, s2_masks, partition, outside): the part of the audit of a
    result that holds for every input of n bits.

    ``checks`` has one (block, mask, constant, size) per block: the mask
    has bit n - i set for each index i of the block in [1, n], the block
    is constant on an input whose AND with the mask is in ``constant``
    ((0, mask), or nothing for an empty block), and ``size`` is its size
    reason or "".  ``s2_masks[j]`` holds the indices of s2 that occur
    more than j times, so the weight on s2, which counts a repeated
    index on every occurrence, is the sum of their popcounts; a correct
    run gives one mask.  ``partition`` and ``outside`` are the partition
    and range reasons, or "".
    """
    checks = []
    outside = []
    covered = 0    # union of the blocks and s2
    seen = 0       # their total length, repeats included
    for block in blocks:
        mask = _bitmask(block, n, outside)
        size = f"block {block} has size != {m}" if len(block) != m else ""
        checks.append((block, mask, (0, mask) if block else (), size))
        covered |= mask
        seen += len(block)
    s2_masks = []
    for i in s2:
        if 0 < i <= n:
            bit = 1 << (n - i)
            level = 0
            while level < len(s2_masks) and s2_masks[level] & bit:
                level += 1
            if level == len(s2_masks):
                s2_masks.append(0)
            s2_masks[level] |= bit
        else:
            outside.append(i)
    covered |= s2_masks[0] if s2_masks else 0
    seen += len(s2)
    partition = ""
    if not (covered == (1 << n) - 1 and seen == n):
        partition = "blocks and s2 do not partition the queried indices"
    return (tuple(checks), tuple(s2_masks), partition,
            f"indices {outside} out of range [1, {n}]" if outside else "")


def _bitmask(block: tuple, n: int, outside: list) -> int:
    """The mask with bit n - i set for each i of ``block`` in [1, n];
    the other indices are appended to ``outside`` in order."""
    mask = 0
    for i in block:
        if 0 < i <= n:
            mask |= 1 << (n - i)
        else:
            outside.append(i)
    return mask


def _bit_string(ones: int, n: int) -> str:
    """x_1 ... x_n of the input ``ones``."""
    return format(ones, f"0{n}b") if n else ""


def verify_cell(n: int, m: int, audit: bool = True) -> SweepRow:
    """Judge all 2^n inputs for one modulus with :func:`judge_run`. The
    audit always runs; ``audit`` other than True raises ValueError."""
    if audit is not True:
        raise ValueError(f"the audit cannot be switched off, got {audit!r}")
    # A bad modulus raises here, not as a failure of every input below.
    factor_split(m)
    bound = query_bound(n, m)
    failures = 0
    first_failures = []
    max_queries = 0
    zero_queries = -1
    for hidden in range(1 << n):
        _, result, reasons = judge_run(hidden, n, m, bound)
        if result is not None:
            max_queries = max(max_queries, result.queries)
            if hidden == 0:
                zero_queries = result.queries
        if reasons:
            failures += 1
            if len(first_failures) < FAILURES_KEPT:
                first_failures.append((_bit_string(hidden, n),
                                       tuple(reasons)))
    return SweepRow(n=n, m=m, inputs=2 ** n, failures=failures,
                    max_queries=max_queries, bound=bound,
                    zero_input_queries=zero_queries,
                    first_failures=tuple(first_failures))


def judge_run(hidden: int, n: int, m: int, bound: int) -> tuple:
    """(oracle, result, reasons) of one run on the n-bit input ``hidden``.
    An exception in the run or its checks is the one reason, with result
    None; else :func:`_run_problems`, or if none, :func:`audit_partition`."""
    oracle = CountingOracle(hidden, n)
    try:
        result = partition_weight(oracle, m)
        reasons = (_run_problems(result, hidden, m, bound, oracle)
                   or audit_partition(result, hidden, n))
    except Exception as exc:
        return oracle, None, [f"{type(exc).__name__}: {exc}"]
    return oracle, result, reasons


def _run_problems(result, ones: int, m: int, bound: int, oracle) -> list:
    """Residue, budget and query-count mismatches of one run on the input
    ``ones`` (bit n - i is x_i)."""
    problems = []
    residue = result.w2 % m
    expected = ones.bit_count() % m
    if residue != expected:
        problems.append(f"residue {residue} but |x| mod {m} = {expected}")
    if result.queries > bound:
        problems.append(f"used {result.queries} queries, bound {bound}")
    if oracle.query_count != result.queries:
        problems.append(f"oracle counted {oracle.query_count} queries, "
                        f"result reports {result.queries}")
    return problems


def _cell_args(args):
    return verify_cell(*args)


def parse_threads(text: str, source: str) -> int:
    """A worker count read from ``source``; ValueError unless positive."""
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{source} must be a positive integer, got {text!r}")
    return threads


def default_threads() -> int:
    """QMODW_THREADS if set, else the CPU count."""
    env = os.environ.get("QMODW_THREADS")
    if env:
        return parse_threads(env, "QMODW_THREADS")
    return os.cpu_count() or 1


def run_sweep(n_max: int, moduli: Sequence[int] = DEFAULT_MODULI,
              threads: Optional[int] = None, audit: bool = True) -> list:
    """Verify every (n, m) cell with n <= n_max; rows sorted by (n, m).

    Raises ValueError (``UnsupportedModulus`` for a bad modulus), for
    ``audit`` other than True, unless ``n_max`` is an int >= 1, and unless
    ``threads`` is None or an int >= 1 (a bool is neither), before any
    cell runs or any worker starts.
    """
    if audit is not True:
        raise ValueError(f"the audit cannot be switched off, got {audit!r}")
    if type(n_max) is not int or n_max < 1:
        raise ValueError(f"n_max must be a positive integer, got {n_max!r}")
    if threads is not None and (type(threads) is not int or threads < 1):
        raise ValueError(
            f"threads must be a positive integer, got {threads!r}")
    for m in moduli:
        factor_split(m)
    # Largest first: a pool then ends on small cells, not a 2^n_max one.
    cells = sorted(((n, m) for n in range(1, n_max + 1) for m in set(moduli)),
                   reverse=True)
    if threads is None:
        threads = default_threads()
    if threads > 1 and len(cells) > 1:
        # Imported here: the pool's modules are a quarter of the
        # package's import time, and a serial sweep needs none of them.
        # A fork pool starts all its workers at the first submit.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(threads, len(cells))) as pool:
            rows = list(pool.map(_cell_args,
                                 [(n, m, audit) for n, m in cells]))
    else:
        rows = [verify_cell(n, m, audit) for n, m in cells]
    return sorted(rows, key=lambda r: (r.n, r.m))

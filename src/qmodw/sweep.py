"""Exhaustive verification sweeps over all inputs of each length.

For every input the harness replays the partition algorithm against a
fresh counting oracle and then audits the result against the hidden
string it chose itself: residue correctness, the query budget, and the
partition contract (disjoint constant blocks of size m whose union with
the remainder is everything, with the remainder weight exact).  The
audit runs on every input, over bitmasks: the input and each block and
the remainder become ints with bit i - 1 for index i, so a block is
constant when its mask meets the input's in nothing or in all of it.  An
``InvariantViolation`` raised while running one input (an impossible
measurement outcome) counts as that input's failure; the sweep goes on.
Each row keeps the first ``FAILURES_KEPT`` failing inputs with their
reasons.

Cells (one per (n, m) pair) can fan out across worker processes; the
QMODW_THREADS environment variable bounds the pool.  Every modulus is
checked before any cell runs, so a bad one raises before a worker
starts.  Cells are handed out in descending (n, m) order, so the largest
start first and the last to finish is a small one.  Aggregation is
deterministic: rows come back sorted by (n, m).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .hamming_mod import factor_split, partition_weight, query_bound
from .oracle import CountingOracle
from .subroutines import InvariantViolation

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


def audit_partition(result, bits: str, indices: Sequence[int]) -> list:
    """Check a PartitionResult against the hidden input, post hoc.

    The reasons, in order: each block of the wrong size or not constant
    on ``bits``, then blocks and s2 that are not a partition of
    ``indices`` (an index missing, extra or repeated), then a wrong
    ``w2``, then any index of the result outside [1, n].  Queried
    ``indices`` that repeat or fall outside [1, n] fail the partition
    check.
    """
    problems = []
    n = len(bits)
    ones = int(bits[::-1], 2) if bits else 0    # bit i - 1 is x_i
    m = result.m
    outside = []
    covered = 0    # union of the blocks and s2
    seen = 0       # their total length, repeats included
    for block in result.blocks:
        if len(block) != m:
            problems.append(f"block {block} has size != {m}")
        mask = _bitmask(block, n, outside)
        if not block or (ones & mask) not in (0, mask):
            problems.append(f"block {block} not constant on input {bits}")
        covered |= mask
        seen += len(block)
    true_w2 = 0
    for i in result.s2:
        if 0 < i <= n:
            covered |= 1 << (i - 1)
            true_w2 += ones >> (i - 1) & 1
        else:
            outside.append(i)
    seen += len(result.s2)
    queried = _bitmask(indices, n, [])
    if not (covered == queried
            and seen == len(indices) == queried.bit_count()):
        problems.append("blocks and s2 do not partition the queried indices")
    if result.w2 != true_w2:
        problems.append(f"w2={result.w2} but |x_S2|={true_w2}")
    if outside:
        problems.append(f"indices {outside} out of range [1, {n}]")
    return problems


def _bitmask(indices, n: int, outside: list) -> int:
    """Bit i - 1 set for each i of ``indices`` in [1, n]; the rest go to
    ``outside``."""
    mask = 0
    for i in indices:
        if 0 < i <= n:
            mask |= 1 << (i - 1)
        else:
            outside.append(i)
    return mask


def verify_cell(n: int, m: int, audit: bool = True) -> SweepRow:
    """Run the algorithm on all 2^n inputs for one modulus."""
    bound = query_bound(n, m)
    failures = 0
    first_failures = []
    max_queries = 0
    zero_queries = -1
    indices = range(1, n + 1)
    spec = f"0{n}b"
    for value in range(2 ** n):
        bits = format(value, spec) if n else ""
        oracle = CountingOracle(bits)
        try:
            result = partition_weight(oracle, indices, m)
        except InvariantViolation as exc:
            reasons = [f"InvariantViolation: {exc}"]
        else:
            reasons = _run_problems(result, bits, m, bound, oracle)
            if not reasons and audit:
                reasons = audit_partition(result, bits, indices)
            max_queries = max(max_queries, result.queries)
            if value == 0:
                zero_queries = result.queries
        if reasons:
            failures += 1
            if len(first_failures) < FAILURES_KEPT:
                first_failures.append((bits, tuple(reasons)))
    return SweepRow(n=n, m=m, inputs=2 ** n, failures=failures,
                    max_queries=max_queries, bound=bound,
                    zero_input_queries=zero_queries,
                    first_failures=tuple(first_failures))


def _run_problems(result, bits: str, m: int, bound: int, oracle) -> list:
    """Residue and query-budget mismatches of one run."""
    problems = []
    residue = result.w2 % m
    expected = bits.count("1") % m
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

    Raises ValueError (``UnsupportedModulus`` for a bad modulus) before
    any cell runs or any worker starts.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be positive, got {n_max}")
    for m in set(moduli):
        factor_split(m)
    # Largest first: a pool then ends on small cells, not a 2^n_max one.
    cells = sorted(((n, m) for n in range(1, n_max + 1) for m in set(moduli)),
                   reverse=True)
    if threads is None:
        threads = default_threads()
    if threads > 1 and len(cells) > 1:
        # A fork pool starts all its workers at the first submit.
        with ProcessPoolExecutor(max_workers=min(threads, len(cells))) as pool:
            rows = list(pool.map(_cell_args,
                                 [(n, m, audit) for n, m in cells]))
    else:
        rows = [verify_cell(n, m, audit) for n, m in cells]
    return sorted(rows, key=lambda r: (r.n, r.m))

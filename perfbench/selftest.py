"""Self-test of the correctness gate.

Feeds the gate one correct and one corrupted result of each kind, a sweep
row with a failing input and a Gram entry off by one, and requires the
correct ones to pass and each corruption to count as exactly one failure.
``run.py`` runs it before every measurement; to run it alone, from the
repository root:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path


def _expect_one_failure(kind, check, good, bad):
    problems = []
    _, clean = check(good)
    if clean:
        problems.append(f"gate rejects a correct {kind}: {clean}")
    _, corrupted = check(bad)
    if len(corrupted) != 1:
        problems.append(f"gate counts {len(corrupted)} failures for one "
                        f"corrupted {kind}, expected 1")
    return problems


def self_test():
    """Return a list of problems; empty when the gate works."""
    import workloads

    sweep = workloads.SweepWorkload((2, 3), seed=0, n_max=4)
    rows, _ = sweep.run()
    bad_rows = [replace(rows[0], failures=1)] + rows[1:]
    problems = _expect_one_failure("sweep row", sweep.check, rows, bad_rows)

    algebra = workloads.ExactAlgebraWorkload(seed=0, cert_n_max=3, polys=1)
    out, _ = algebra.run()
    gram = [list(row) for row in out["gram"]]
    gram[2][5] = gram[2][5] + 1
    problems += _expect_one_failure("Gram entry", algebra.check, out,
                                    dict(out, gram=gram))
    return problems


if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))
    found = self_test()
    for problem in found:
        print(f"FAIL: {problem}", file=sys.stderr)
    print("gate self-test:", "FAIL" if found else "PASS")
    sys.exit(1 if found else 0)

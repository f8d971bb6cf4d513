"""Correctness gate: every pass's outputs are checked exactly.

Each function returns ``(attempted, failures)``, where ``failures`` holds
one message per failed check.  The expected values come from the frozen
fixtures and from n - floor(n/m) computed here, never from the code
under test.
"""

from __future__ import annotations


def check_rows(rows, cells):
    """Sweep rows: all inputs correct, within and attaining the bound."""
    failures = []
    if sorted((r.n, r.m) for r in rows) != sorted(cells):
        failures.append(f"rows cover {sorted((r.n, r.m) for r in rows)}, "
                        f"expected {sorted(cells)}")
    for r in rows:
        bound = r.n - r.n // r.m
        problems = []
        if r.failures != 0:
            problems.append(f"{r.failures} failing inputs")
        if r.inputs != 2 ** r.n:
            problems.append(f"{r.inputs} inputs, expected {2 ** r.n}")
        if r.bound != bound:
            problems.append(f"bound {r.bound}, expected {bound}")
        if r.max_queries > bound:
            problems.append(f"max_queries {r.max_queries} > bound {bound}")
        if r.m <= r.n and not (r.max_queries == bound
                               and r.zero_input_queries == bound):
            problems.append(f"not tight: max {r.max_queries}, all-zeros "
                            f"{r.zero_input_queries}, bound {bound}")
        if problems:
            failures.append(f"cell ({r.n}, {r.m}): " + "; ".join(problems))
    return 1 + len(rows), failures


def check_algebra(out, frozen_gram, frozen_states):
    """exact-algebra outputs against the frozen Gram matrix and state table."""
    failures = []
    attempted = 0

    def expect(ok, message):
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(message)

    for i in range(8):
        for j in range(8):
            expect(out["gram"][i][j] == frozen_gram[i][j],
                   f"Gram entry ({i}, {j}) differs from the frozen matrix")
    for (i, j, variant), value in out["closed"].items():
        expect(value == frozen_gram[i][j],
               f"closed form {variant} differs at ({i}, {j})")
    for name, ok in out["unitary"].items():
        expect(ok, f"{name} is not unitary")
    for bits, trace in out["states"].items():
        for stage, state in trace.items():
            expect(state == frozen_states[stage][bits],
                   f"{stage}({bits}) differs from the frozen table")
    for (n, m), result in out["certificates"].items():
        expect(result == (True, n - n // m),
               f"certificate_roundtrip({n}, {m}) = {result}, "
               f"expected (True, {n - n // m})")
    for k, (fast, brute, q_degree, p_degree) in enumerate(out["symmetrized"]):
        expect(fast == brute and q_degree <= p_degree,
               f"symmetrize differs from the brute force on polynomial {k}")
    return attempted, failures

"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL line for its criterion (visible with
``pytest -s`` or in the captured output of a failing run).  The full
input sweep is computed once and shared between the correctness and
tightness criteria.
"""

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qmodw
from qmodw.algebra import AlgebraicNumber
from qmodw.fixtures import STAGES, STATE_TABLE_ORDER, load_gram, load_state_table
from qmodw.hamming_mod import partition_weight, query_bound
from qmodw.oracle import CountingOracle
from qmodw.polymethod import (
    MultilinearPolynomial, certificate_roundtrip, exact_degree,
    is_nondeterministic_poly, mod_m_spec, ndeg_lower_bound, symmetrize,
    symmetrize_bruteforce, weight_certificate,
)
from qmodw.subroutines import (
    ALL_3BIT, H, PI0, PI1, PI2, QFT, U, V,
    fourier_oracle, gram_closed_form_mismatches, gram_matrix,
    mod3_final_state, trace_mod3,
)
from qmodw.sweep import run_sweep

SWEEP_N_MAX = 15
SWEEP_MODULI = (2, 3, 4, 6, 8, 9, 12)
CERT_N_MAX = 12


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


@pytest.fixture(scope="session")
def sweep_rows():
    return run_sweep(SWEEP_N_MAX, SWEEP_MODULI, audit=True)


def test_exhaustive_correctness_within_query_budget(sweep_rows):
    ok = (len(sweep_rows) == SWEEP_N_MAX * len(SWEEP_MODULI)
          and all(row.failures == 0 for row in sweep_rows)
          and all(row.max_queries <= row.bound for row in sweep_rows))
    report(f"all inputs correct within n - floor(n/m) queries, "
           f"n <= {SWEEP_N_MAX}, m in {SWEEP_MODULI}", ok)


def test_query_bound_is_tight(sweep_rows):
    applicable = [row for row in sweep_rows if row.m <= row.n]
    ok = bool(applicable) and all(
        row.max_queries == row.bound
        and row.zero_input_queries == row.bound
        for row in applicable)
    report("worst case attains the bound (at the all-zeros input) "
           "whenever m <= n", ok)


def test_intermediate_states_match_frozen_table():
    frozen = load_state_table()
    ok = all(
        trace_mod3(bits).as_list()[i] == frozen[stage][bits]
        for i, stage in enumerate(STAGES)
        for bits in STATE_TABLE_ORDER)
    report("all 32 intermediate circuit states equal the frozen table", ok)


def test_gram_matrix_and_closed_forms():
    gram = gram_matrix()
    frozen = load_gram()
    ok = (all(gram[i][j] == frozen[i][j]
              for i in range(8) for j in range(8))
          and not gram_closed_form_mismatches(gram))
    report("final-state Gram matrix matches the frozen matrix and both "
           "sign-vector closed forms on all 64 pairs", ok)


def test_unitarity_and_deterministic_measurement():
    ok = all(m.is_unitary() for m in (H, QFT, U, V))
    ok = ok and all(fourier_oracle(bits).is_unitary() for bits in ALL_3BIT)
    for bits in ALL_3BIT:
        state = mod3_final_state(CountingOracle(bits), (1, 2, 3))
        masses = [p.mass(state) for p in (PI0, PI1, PI2)]
        ok = (ok and sorted(masses) == [0, 0, 1]
              and masses[bits.count("1") % 3] == 1)
    report("H, QFT, U, V and every phase oracle are unitary; the mod-3 "
           "measurement is deterministic with the right outcome", ok)


def test_symmetrization_against_bruteforce_average():
    rng = random.Random(0xC0FFEE)
    checked = 0
    ok = True
    while checked < 100:
        n = rng.randint(1, 8)
        coeffs = {}
        for _ in range(rng.randint(1, 10)):
            subset = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
            coeffs[subset] = AlgebraicNumber(
                [Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                 for _ in range(8)])
        p = MultilinearPolynomial(n, coeffs)
        q = symmetrize(p)
        ok = ok and q.degree <= p.degree
        ok = ok and all(q.eval(k) == symmetrize_bruteforce(p, k)
                        for k in range(n + 1))
        checked += 1
    report(f"symmetrization matches the brute-force average on {checked} "
           "random polynomials without raising the degree", ok)


def test_zero_weight_count_equals_query_bound():
    ok = all(
        ndeg_lower_bound(mod_m_spec(n, m)) == query_bound(n, m)
        for n in range(2, 21) for m in range(2, n + 1))
    report("zero-weight count of |x| mod m equals n - floor(n/m) for all "
           "2 <= m <= n <= 20", ok)


def test_weight_certificate_pins_ndeg():
    # Lower bound: the zero-weight count.  Upper bound: an explicit
    # certificate of that degree.  Together with the query algorithm,
    # ndeg = n - floor(n/m) = the query count.
    ok = True
    for n in range(2, CERT_N_MAX + 1):
        for m in range(2, n + 1):
            f = mod_m_spec(n, m)
            p = weight_certificate(n, m)
            bound = query_bound(n, m)
            ok = (ok and is_nondeterministic_poly(p, f)
                  and p.degree == bound == ndeg_lower_bound(f)
                  and certificate_roundtrip(p, f) == (True, bound))
    report(f"prod over zero weights w of (x_1 + ... + x_n - w) certifies "
           f"|x| mod m with degree n - floor(n/m), 2 <= m <= n <= "
           f"{CERT_N_MAX}", ok)


def test_query_bound_beats_the_general_polynomial_method():
    # Beals et al. (quant-ph/9802049, Thm 4.3): any exact algorithm makes
    # at least deg(f)/2 queries, and deg(f) <= n.  For m > 2 the bound
    # n - floor(n/m) exceeds both n/2 and ceil(deg(f)/2), so the
    # nondeterministic bound is the stronger one; for m = 2 they agree.
    bad = []
    for n in range(2, 61):
        for m in range(2, n + 1):
            bound = query_bound(n, m)
            half_deg = math.ceil(exact_degree(mod_m_spec(n, m)) / 2)
            if m == 2:
                ok = bound == half_deg
            else:
                ok = 2 * bound > n and bound > half_deg
            if not ok:
                bad.append((n, m))
    report(f"n - floor(n/m) > n/2 and > ceil(deg(f)/2) for 3 <= m <= n <= 60, "
           f"and equals ceil(deg(f)/2) for m = 2 (failures: {bad[:5]})",
           not bad)


def test_composite_query_count_at_all_zeros():
    # The all-zeros input is the worst case: every block is constant, so
    # each recursion level keeps floor(count/m_i) representatives and the
    # total reaches n - floor(n/m) only if the nested floors compose.
    composite = (4, 6, 8, 9, 12, 16, 18, 24, 36)
    ok = all(
        partition_weight(CountingOracle("0" * n), range(1, n + 1), m).queries
        == query_bound(n, m)
        for m in composite for n in range(1, 61))
    report(f"the all-zeros input uses exactly n - floor(n/m) queries for "
           f"m in {composite}, n <= 60", ok)


# Blocks numpy (any import of it raises ImportError), then runs a sweep
# cell, the Gram check and a certificate round trip.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
from qmodw import (certificate_roundtrip, gram_matrix, mod_m_spec,
                   verify_cell, weight_certificate)
from qmodw.fixtures import load_gram
loaded = [name for name, module in sys.modules.items()
          if name.split(".")[0] == "numpy" and module is not None]
assert not loaded, loaded
assert verify_cell(6, 6).failures == 0
assert gram_matrix() == load_gram()
assert certificate_roundtrip(weight_certificate(6, 3),
                             mod_m_spec(6, 3)) == (True, 4)
print("ok")
"""


def test_runs_without_numpy():
    src = Path(qmodw.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", WITHOUT_NUMPY],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=120)
    print(done.stderr)
    report("qmodw imports, verifies a sweep cell, the Gram matrix and a "
           "certificate with numpy blocked",
           done.returncode == 0 and done.stdout.split() == ["ok"])

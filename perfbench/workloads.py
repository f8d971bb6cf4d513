"""The four benchmark workloads.

A workload is built from a seed, runs one pass of fixed work through the
public qmodw API, and hands the pass's outputs to the gate.  The program
sees only the generated inputs; the seed never reaches it.

* ``sweep-mod3`` / ``sweep-mod2``: serial ``verify_cell(n, m, audit=True)``
  for every n <= SWEEP_N_MAX and m in {3, 9} / {2, 4, 8}; the seed fixes
  the order in which the cells are visited.
* ``sweep-pool``: ``run_sweep(SWEEP_N_MAX, POOL_MODULI, threads=2)``.
  ``run_sweep`` orders its own cells, so here the seed only orders the
  serial cell timing of the traced run.
* ``exact-algebra``: the Gram matrix and its closed forms, unitarity,
  the state table, support certificates and symmetrization; the seed
  draws the random polynomials.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from time import perf_counter

from qmodw import polymethod, subroutines, sweep
from qmodw.algebra import AlgebraicNumber
from qmodw.fixtures import (
    STAGES, STATE_TABLE_ORDER, load_gram, load_state_table,
)

import gate

SWEEP_N_MAX = 10
POOL_MODULI = (2, 3, 4, 6, 8, 9, 12)
POOL_THREADS = 2
CERT_N_MAX = 8
SYM_POLYS = 8
SYM_TERMS = 6


class SweepWorkload:
    """Exhaustive verification of every input of a set of (n, m) cells."""

    def __init__(self, moduli, seed: int, pooled: bool = False,
                 n_max: int = SWEEP_N_MAX):
        self.cells = [(n, m) for n in range(1, n_max + 1) for m in moduli]
        random.Random(seed).shuffle(self.cells)
        self.moduli = tuple(moduli)
        self.n_max = n_max
        self.pooled = pooled
        self.workers = POOL_THREADS if pooled else 0
        self.inputs = sum(2 ** n for n, _ in self.cells)

    def run(self):
        """One pass; returns (rows, {cell: seconds} or None when pooled)."""
        if self.pooled:
            rows = sweep.run_sweep(self.n_max, self.moduli,
                                   threads=POOL_THREADS, audit=True)
            return rows, None
        return self.run_serial()

    def run_serial(self):
        """Verify the cells one by one in seed order, timing each call."""
        rows = []
        times = {}
        for n, m in self.cells:
            start = perf_counter()
            rows.append(sweep.verify_cell(n, m, audit=True))
            times[(n, m)] = perf_counter() - start
        return rows, times

    def check(self, rows):
        return gate.check_rows(rows, self.cells)


def certificate(n: int, m: int) -> polymethod.MultilinearPolynomial:
    """p(x) = prod over zero weights w of (x_1 + ... + x_n - w), multilinear.

    On the cube p depends only on t = |x|, so its coefficient on every
    k-variable monomial is the k-th forward difference of
    P(t) = prod (t - w) at 0.
    """
    zeros = [w for w in range(1, n + 1) if w % m]

    def big_p(t):
        return math.prod(t - w for w in zeros)

    level = [sum((-1) ** (k - j) * math.comb(k, j) * big_p(j)
                 for j in range(k + 1)) for k in range(n + 1)]
    coeffs = {frozenset(s): level[k]
              for k in range(n + 1) if level[k]
              for s in itertools.combinations(range(1, n + 1), k)}
    return polymethod.MultilinearPolynomial(n, coeffs)


def random_polynomial(rng: random.Random, n: int, terms: int):
    """A multilinear polynomial with coefficients in the whole field."""
    coeffs = {}
    for _ in range(terms):
        subset = frozenset(rng.sample(range(1, n + 1), rng.randint(0, n)))
        coeffs[subset] = AlgebraicNumber(
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(8)])
    return polymethod.MultilinearPolynomial(n, coeffs)


class ExactAlgebraWorkload:
    """Checks that make no oracle query: field, matrix and polynomial work."""

    workers = 0

    def __init__(self, seed: int, cert_n_max: int = CERT_N_MAX,
                 polys: int = SYM_POLYS):
        self.certificates = [(n, m, certificate(n, m))
                             for n in range(2, cert_n_max + 1)
                             for m in range(2, n + 1)]
        rng = random.Random(seed)
        self.polys = [random_polynomial(rng, 4 + i % 4, SYM_TERMS)
                      for i in range(polys)]
        # Boolean inputs on which a certificate's support is checked.
        self.inputs = sum(2 ** n for n, _, _ in self.certificates)
        self.frozen_gram = load_gram()
        self.frozen_states = load_state_table()

    def run(self):
        """One pass; returns (outputs for the gate, None)."""
        bits3 = [format(x, "03b") for x in range(8)]
        gram = subroutines.gram_matrix()
        closed = {(i, j, variant): subroutines.gram_closed_form(
                      subroutines.signs_of(x), subroutines.signs_of(y),
                      variant)
                  for i, x in enumerate(bits3)
                  for j, y in enumerate(bits3)
                  for variant in ("48", "16")}
        matrices = {"H": subroutines.H, "QFT": subroutines.QFT,
                    "U": subroutines.U, "V": subroutines.V}
        matrices.update((f"Ox~{bits}", subroutines.fourier_oracle(bits))
                        for bits in bits3)
        unitary = {name: mat.is_unitary() for name, mat in matrices.items()}
        states = {bits: dict(zip(STAGES,
                                 subroutines.trace_mod3(bits).as_list()))
                  for bits in STATE_TABLE_ORDER}
        certificates = {
            (n, m): polymethod.certificate_roundtrip(
                p, polymethod.mod_m_spec(n, m))
            for n, m, p in self.certificates}
        symmetrized = []
        for p in self.polys:
            q = polymethod.symmetrize(p)
            symmetrized.append((
                [q.eval(k) for k in range(p.n + 1)],
                [polymethod.symmetrize_bruteforce(p, k)
                 for k in range(p.n + 1)],
                q.degree, p.degree))
        return {"gram": gram, "closed": closed, "unitary": unitary,
                "states": states, "certificates": certificates,
                "symmetrized": symmetrized}, None

    def check(self, out):
        return gate.check_algebra(out, self.frozen_gram, self.frozen_states)


def make(name: str, seed: int):
    if name == "sweep-mod3":
        return SweepWorkload((3, 9), seed)
    if name == "sweep-mod2":
        return SweepWorkload((2, 4, 8), seed)
    if name == "sweep-pool":
        return SweepWorkload(POOL_MODULI, seed, pooled=True)
    if name == "exact-algebra":
        return ExactAlgebraWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")

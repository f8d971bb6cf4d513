"""Exactly-verified quantum query algorithms for Hamming weight modulo m
(m with prime factors 2 and 3), plus the polynomial-method machinery that
certifies the matching ceil(n(1 - 1/m)) lower bound."""

from .algebra import AlgebraicNumber, I, OMEGA, ONE, SQRT2, SQRT3, SQRT6, ZERO
from .linalg import Projector, SquareMatrix, StateVector, inner
from .oracle import BlockView, CountingOracle
from .subroutines import (
    H, QFT, U, V, PI0, PI1, PI2, InvariantViolation,
    deutsch, gram_closed_form, gram_closed_form_mismatches, gram_matrix,
    mod3, trace_mod3,
)
from .hamming_mod import (
    PartitionResult, UnsupportedModulus,
    factor_split, partition_weight, query_bound, weight_mod,
)
from .polymethod import (
    DomainError, HypothesisViolated, MultilinearPolynomial,
    SymmetricFunctionSpec, UnivariatePolynomial, certificate_roundtrip,
    exact_degree, is_nondeterministic_poly, mod_m_spec, ndeg_lower_bound,
    symmetrize, symmetrize_bruteforce, weight_certificate,
)
from .sweep import SweepRow, run_sweep, verify_cell

__all__ = [
    "AlgebraicNumber", "I", "OMEGA", "ONE", "SQRT2", "SQRT3", "SQRT6", "ZERO",
    "Projector", "SquareMatrix", "StateVector", "inner",
    "BlockView", "CountingOracle",
    "H", "QFT", "U", "V", "PI0", "PI1", "PI2", "InvariantViolation",
    "deutsch", "gram_closed_form", "gram_closed_form_mismatches",
    "gram_matrix", "mod3", "trace_mod3",
    "PartitionResult", "UnsupportedModulus",
    "factor_split", "partition_weight", "query_bound", "weight_mod",
    "DomainError", "HypothesisViolated", "MultilinearPolynomial",
    "SymmetricFunctionSpec", "UnivariatePolynomial", "certificate_roundtrip",
    "exact_degree", "is_nondeterministic_poly", "mod_m_spec", "ndeg_lower_bound",
    "symmetrize", "symmetrize_bruteforce", "weight_certificate",
    "SweepRow", "run_sweep", "verify_cell",
]

__version__ = "0.1.0"

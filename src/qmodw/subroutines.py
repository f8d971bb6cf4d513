"""The two base quantum subroutines and their verification artifacts.

* a 1-query circuit computing the parity of two input bits
  (H . O_x . H applied to |0>), and
* a 2-query, 5-dimensional circuit computing the Hamming weight of three
  input bits modulo 3 (V . Ox~ . U . Ox~ applied to |0>, with the oracle
  conjugated into the Fourier basis, Ox~ = QFT† O_x QFT).  Ox~ is built
  as QFT with the rows of the 1-bits negated, then one product with QFT†:
  O_x is the same sign flip :meth:`CountingOracle.phase_apply` makes on a
  state.

All matrices are built exactly from the field basis, never from decimal
literals.  The mod-3 run is fused into two constant matrices around the
two oracle calls, which is exactly equal (associativity in exact
arithmetic) to the step-by-step product; :func:`trace_mod3` exposes the
unfused intermediate states for table verification.

Each circuit ends in its last constant matrix (``H`` or ``_FIN``) and one
exact measurement.  Both are memoised together with ``functools.lru_cache``
(at most ``_APPLY_MEMO_CAP`` entries, least recently used dropped first),
keyed on (final matrix, state before it): the matrix is applied inside,
on a miss only, so a warm circuit makes one lookup after its last query.
The matrix is part of the key, so a replaced ``H`` or ``_FIN`` never
reads the true matrix's outcomes.  The queries are made before the memo
is read, and a state that fails its check raises and is never stored, so
it fails again on every call.

Also here: the 8x8 Gram matrix of the final states over all 3-bit inputs
(lexicographic input order) and its two closed-form sign-vector
polynomials, one scaled by 48 and one by 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import OMEGA, SQRT2, SQRT3, AlgebraicNumber, ONE, ZERO
from .linalg import _APPLY_MEMO_CAP, Projector, SquareMatrix, StateVector, inner
from .oracle import CountingOracle, block_view


class InvariantViolation(RuntimeError):
    """An exactly-impossible measurement outcome; a construction bug."""


def _rat(p, q=1) -> AlgebraicNumber:
    return AlgebraicNumber.from_rational(Fraction(p, q))


_HALF = Fraction(1, 2)

# H = (1/sqrt2) [[1, 1], [1, -1]]
_INV_SQRT2 = SQRT2 * _rat(1, 2)
H = SquareMatrix([
    [_INV_SQRT2, _INV_SQRT2],
    [_INV_SQRT2, -_INV_SQRT2],
])

# 3-point Fourier transform on the first three of five dimensions.
_INV_SQRT3 = SQRT3 * _rat(1, 3)
_W = OMEGA
_W2 = OMEGA * OMEGA
QFT = SquareMatrix([
    [_INV_SQRT3, _INV_SQRT3, _INV_SQRT3, ZERO, ZERO],
    [_INV_SQRT3, _INV_SQRT3 * _W, _INV_SQRT3 * _W2, ZERO, ZERO],
    [_INV_SQRT3, _INV_SQRT3 * _W2, _INV_SQRT3 * _W, ZERO, ZERO],
    [ZERO, ZERO, ZERO, ONE, ZERO],
    [ZERO, ZERO, ZERO, ZERO, ONE],
])

# U = (1/4) scaled, with diagonal entries -1/2 ± i 3sqrt3/2 (top block),
# 1/2 ± i 3sqrt3/2 (bottom block) and off-diagonal 3s; V = (1/sqrt2)
# scaled with entries 1/2 ∓ i sqrt3/2, -1/2 ∓ i sqrt3/2 and 1s.
def _quarter(re, i3):
    """(1/4) * (re + i3 * i*sqrt3) with rational re, i3."""
    return AlgebraicNumber((Fraction(re) / 4, 0, 0, 0, 0, 0, Fraction(i3) / 4, 0))


U = SquareMatrix([
    [ONE, ZERO, ZERO, ZERO, ZERO],
    [ZERO, _quarter(-_HALF, Fraction(3, 2)), ZERO, _rat(3, 4), ZERO],
    [ZERO, ZERO, _quarter(-_HALF, -Fraction(3, 2)), ZERO, _rat(3, 4)],
    [ZERO, _rat(3, 4), ZERO, _quarter(_HALF, Fraction(3, 2)), ZERO],
    [ZERO, ZERO, _rat(3, 4), ZERO, _quarter(_HALF, -Fraction(3, 2))],
])


def _over_sqrt2(re, i3):
    """(1/sqrt2) * (re + i3 * i*sqrt3) with rational re, i3."""
    return _INV_SQRT2 * AlgebraicNumber((Fraction(re), 0, 0, 0, 0, 0, Fraction(i3), 0))


V = SquareMatrix([
    [ONE, ZERO, ZERO, ZERO, ZERO],
    [ZERO, _over_sqrt2(_HALF, -_HALF), ZERO, _INV_SQRT2, ZERO],
    [ZERO, ZERO, _over_sqrt2(_HALF, _HALF), ZERO, _INV_SQRT2],
    [ZERO, _INV_SQRT2, ZERO, _over_sqrt2(-_HALF, -_HALF), ZERO],
    [ZERO, ZERO, _INV_SQRT2, ZERO, _over_sqrt2(-_HALF, _HALF)],
])

PI0 = Projector(5, frozenset({0}))
PI1 = Projector(5, frozenset({1, 2}))
PI2 = Projector(5, frozenset({3, 4}))


# Fused constants for the 2-query run: the state between the two oracle
# calls is (QFT U QFT†) applied to the post-oracle state, and the final
# state is (V QFT†) applied to the second post-oracle state.
_QFT_DAG = QFT.dagger()
_MID = QFT.matmul(U).matmul(_QFT_DAG)
_FIN = V.matmul(_QFT_DAG)
_QFT_KET0 = QFT.apply(StateVector.basis_state(5, 0))
_H_KET0 = H.apply(StateVector.basis_state(2, 0))


def deutsch(o: CountingOracle, pair) -> int:
    """Parity of two input bits with one query: measure H O_x H |0>.

    The outcome is memoised per (H, state after the query); the query is
    made on every call.
    """
    i, j = pair
    return _measure_parity(H, o.phase_apply(block_view((i, j)), _H_KET0))


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _measure_parity(matrix: SquareMatrix, state: StateVector) -> int:
    """The one index ``matrix`` applied to ``state`` is supported on;
    else InvariantViolation."""
    final = matrix.apply(state)
    support = final.support()
    if len(support) != 1:
        raise InvariantViolation(f"parity state not a basis state: {final!r}")
    return min(support)


def _state_before_fin(o: CountingOracle, triple) -> StateVector:
    """Both queries of the mod-3 circuit: the state that ``_FIN`` ends."""
    i, j, k = triple
    view = block_view((i, j, k), 2)
    v = o.phase_apply(view, _QFT_KET0)
    v = _MID.apply(v)
    return o.phase_apply(view, v)


def mod3_final_state(o: CountingOracle, triple) -> StateVector:
    """The final 5-dim state of the 2-query mod-3 circuit."""
    return _FIN.apply(_state_before_fin(o, triple))


def mod3(o: CountingOracle, triple) -> int:
    """Hamming weight of three input bits modulo 3, with two queries.

    Measures the final state against the three weight-residue projectors;
    in exact arithmetic exactly one mass is 1 and the others are 0.  The
    outcome is memoised per (_FIN, state before it); both queries are
    made on every call.
    """
    return _measure_mod3(_FIN, _state_before_fin(o, triple))


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _measure_mod3(matrix: SquareMatrix, state: StateVector) -> int:
    """The residue whose projector has mass 1 on ``matrix`` applied to
    ``state``; InvariantViolation otherwise."""
    final = matrix.apply(state)
    try:
        masses = [p.mass(final) for p in (PI0, PI1, PI2)]
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc
    hits = [r for r, m in enumerate(masses) if m == 1]
    if len(hits) != 1 or any(m not in (0, 1) for m in masses):
        raise InvariantViolation(f"projector masses {masses} not deterministic")
    return hits[0]


@dataclass(frozen=True)
class IntermediateTrace:
    """The four intermediate states of the mod-3 circuit on one input."""

    psi1: StateVector
    psi2: StateVector
    psi3: StateVector
    psi4: StateVector

    def as_list(self):
        return [self.psi1, self.psi2, self.psi3, self.psi4]


def fourier_oracle(bits: str) -> SquareMatrix:
    """Ox~ = QFT† O_x QFT for a 3-bit input, on 5 dimensions.

    O_x QFT is QFT with the rows of the 1-bits negated, the same sign flip
    :meth:`CountingOracle.phase_apply` makes on a state, so Ox~ is one
    product with QFT†.
    """
    if len(bits) != 3 or any(c not in "01" for c in bits):
        raise ValueError(f"need a 3-bit string, got {bits!r}")
    return _QFT_DAG.matmul(
        QFT._negated_rows(i for i, c in enumerate(bits) if c == "1"))


def trace_mod3(bits: str) -> IntermediateTrace:
    """Step-by-step (unfused) states psi1..psi4 for one explicit 3-bit input."""
    ox = fourier_oracle(bits)
    psi1 = ox.apply(StateVector.basis_state(5, 0))
    psi2 = U.apply(psi1)
    psi3 = ox.apply(psi2)
    psi4 = V.apply(psi3)
    return IntermediateTrace(psi1, psi2, psi3, psi4)


ALL_3BIT = tuple(format(x, "03b") for x in range(8))


def gram_matrix() -> tuple:
    """G[x][y] = <psi4(x)|psi4(y)>, inputs in lexicographic order 000..111."""
    finals = [trace_mod3(b).psi4 for b in ALL_3BIT]
    return tuple(tuple(inner(u, v) for v in finals) for u in finals)


def _check_signs(vec):
    if len(vec) != 3 or any(s not in (-1, 1) for s in vec):
        raise ValueError(f"sign vector must have three entries in {{-1, 1}}: {vec}")


def gram_closed_form(a, b, variant: str = "16") -> AlgebraicNumber:
    """The Gram entry as a polynomial in the sign vectors a_i = (-1)^{x_i}.

    variant "48": the raw degree-4 expansion, divided by 48.
    variant "16": the simplification using a_i^2 = b_i^2 = 1, divided by 16.
    """
    _check_signs(a)
    _check_signs(b)
    a1, a2, a3 = a
    b1, b2, b3 = b
    if variant == "48":
        val = (
            6 * (a1 * b1 + a2 * b2 + a3 * b3)
            + (a1 ** 2 * b1 ** 2 + a2 ** 2 * b2 ** 2 + a3 ** 2 * b3 ** 2)
            - 3 * (a1 * b2 + a1 * b3 + a2 * b1 + a2 * b3 + a3 * b1 + a3 * b2)
            + 3 * (a1 ** 2 * b1 * b2 + a2 ** 2 * b2 * b3 + a3 ** 2 * b1 * b3
                   + a1 * a2 * b1 ** 2 + a2 * a3 * b2 ** 2 + a1 * a3 * b3 ** 2)
            + 9 * (a1 * a2 * b1 * b2 + a2 * a3 * b2 * b3 + a1 * a3 * b1 * b3)
        )
        return _rat(val, 48)
    if variant == "16":
        val = (
            1
            + (a1 * a2 + a1 * a3 + a2 * a3)
            + (b1 * b2 + b1 * b3 + b2 * b3)
            + 2 * (a1 * b1 + a2 * b2 + a3 * b3)
            + 3 * (a1 * a2 * b1 * b2 + a1 * a3 * b1 * b3 + a2 * a3 * b3 * b2)
            - (a1 * b2 + a1 * b3 + a2 * b1 + a2 * b3 + a3 * b1 + a3 * b2)
        )
        return _rat(val, 16)
    raise ValueError(f"unknown variant {variant!r}; expected '48' or '16'")


def signs_of(bits: str) -> tuple:
    """a_i = (-1)^{x_i} for a bit string."""
    return tuple(-1 if c == "1" else 1 for c in bits)


def gram_closed_form_mismatches(gram) -> list:
    """(x, y, variant) for every closed form that differs from ``gram``.

    ``gram`` is indexed like :func:`gram_matrix`; both variants are checked
    on all 64 input pairs, so an empty list means every evaluation agrees.
    """
    return [(x, y, variant)
            for xi, x in enumerate(ALL_3BIT)
            for yi, y in enumerate(ALL_3BIT)
            for variant in ("48", "16")
            if gram_closed_form(signs_of(x), signs_of(y), variant)
            != gram[xi][yi]]

"""The two base quantum subroutines and their verification artifacts.

* a 1-query circuit computing the parity of two input bits
  (H . O_x . H applied to |0>), and
* a 2-query, 5-dimensional circuit computing the Hamming weight of three
  input bits modulo 3 (V . Ox~ . U . Ox~ applied to |0>, with the oracle
  conjugated into the Fourier basis, Ox~ = QFT† O_x QFT).  Ox~ is built
  as QFT with the rows of the 1-bits negated, then one product with QFT†:
  O_x is the same sign flip :meth:`CountingOracle.phase_apply` makes on a
  state.

All matrices are built exactly from rationals, sqrt2, sqrt3 and the cube
root of unity w (``OMEGA``), never from decimal literals or field
coordinates.  The mod-3 run is fused into two constant matrices around the
two oracle calls, which is exactly equal (associativity in exact
arithmetic) to the step-by-step product; :func:`trace_mod3` exposes the
unfused intermediate states for table verification.

Each circuit takes the :class:`BlockView` of its bits, built once by its
caller (the plan of :mod:`qmodw.hamming_mod` holds one per group), and
builds no view per call: :func:`deutsch` takes a view of two indices,
:func:`mod3` one of three indices with ``MOD3_PADDING`` ancilla
dimensions.  :meth:`CountingOracle.phase_apply` checks each view's range
and dimension on every query, so a view of the wrong dimension raises
``ValueError`` before any query.

Each circuit ends in its last constant matrix (``H`` or ``_FIN``) and
:func:`_measure`, one exact measurement with the projectors of the final
state's dimension (onto |0> and |1>, or PI0, PI1 and PI2): one outcome
must have mass 1 and the others 0.  Both are one ``functools.lru_cache``
memo (at most ``_APPLY_MEMO_CAP`` entries, least recently used dropped
first), keyed on (final matrix, state before it): the matrix is applied
inside, on a miss only, so a warm circuit makes one lookup after its
last query.
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

from .algebra import OMEGA, SQRT2, SQRT3, AlgebraicNumber
from .linalg import _APPLY_MEMO_CAP, Projector, SquareMatrix, StateVector, inner
from .oracle import BlockView, CountingOracle


class InvariantViolation(RuntimeError):
    """An exactly-impossible measurement outcome; a construction bug."""


def _rat(p, q=1) -> AlgebraicNumber:
    return AlgebraicNumber.from_rational(Fraction(p, q))


def _scaled(c: AlgebraicNumber, rows) -> SquareMatrix:
    """The matrix c * rows, for rows of numbers and ints."""
    return SquareMatrix([[c * x for x in row] for row in rows])


_INV_SQRT2 = SQRT2 * _rat(1, 2)
H = _scaled(_INV_SQRT2, [[1, 1], [1, -1]])

# QFT is the 3-point Fourier transform on the first three of five
# dimensions and the identity on the last two.  U and V are written as the
# paper writes them, in w = OMEGA (i*sqrt3 = 1 + 2w).
_W = OMEGA
_W2 = OMEGA * OMEGA
QFT = _scaled(SQRT3 * _rat(1, 3), [
    [1, 1, 1, 0, 0],
    [1, _W, _W2, 0, 0],
    [1, _W2, _W, 0, 0],
    [0, 0, 0, SQRT3, 0],
    [0, 0, 0, 0, SQRT3],
])

U = _scaled(_rat(1, 4), [
    [4, 0, 0, 0, 0],
    [0, 1 + 3 * _W, 0, 3, 0],
    [0, 0, 1 + 3 * _W2, 0, 3],
    [0, 3, 0, 2 + 3 * _W, 0],
    [0, 0, 3, 0, 2 + 3 * _W2],
])

V = _scaled(_INV_SQRT2, [
    [SQRT2, 0, 0, 0, 0],
    [0, -_W, 0, 1, 0],
    [0, 0, -_W2, 0, 1],
    [0, 1, 0, _W2, 0],
    [0, 0, 1, 0, _W],
])

PI0 = Projector(5, frozenset({0}))
PI1 = Projector(5, frozenset({1, 2}))
PI2 = Projector(5, frozenset({3, 4}))

# The outcome projectors of each circuit's final state, by its dimension.
_PROJECTORS = {2: tuple(Projector(2, frozenset({i})) for i in (0, 1)),
               5: (PI0, PI1, PI2)}


# Fused constants for the 2-query run: the state between the two oracle
# calls is (QFT U QFT†) applied to the post-oracle state, and the final
# state is (V QFT†) applied to the second post-oracle state.
_QFT_DAG = QFT.dagger()
_MID = QFT.matmul(U).matmul(_QFT_DAG)
_FIN = V.matmul(_QFT_DAG)
_QFT_KET0 = QFT.apply(StateVector.basis_state(5, 0))
_H_KET0 = H.apply(StateVector.basis_state(2, 0))

# The mod-3 circuit's view: its three indices, then the two dimensions
# of the 5-dim state that the oracle leaves alone.
MOD3_PADDING = 2


def deutsch(o: CountingOracle, view: BlockView) -> int:
    """Parity of the two input bits of ``view`` with one query: measure
    H O_x H |0>.

    The outcome is memoised per (H, state after the query); the query is
    made on every call.  A view of the wrong dimension (not two indices
    with no padding) is rejected by :meth:`CountingOracle.phase_apply`
    before it logs a query.
    """
    return _measure(H, o.phase_apply(view, _H_KET0))


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _measure(matrix: SquareMatrix, state: StateVector) -> int:
    """The outcome whose projector has mass 1 on ``matrix`` applied to
    ``state``, every other mass being 0; InvariantViolation otherwise,
    and for a state of neither circuit's dimension."""
    projectors = _PROJECTORS.get(state.dim)
    if projectors is None:
        raise InvariantViolation(f"no measurement of a {state.dim}-dim state")
    final = matrix.apply(state)
    try:
        masses = [p.mass(final) for p in projectors]
    except ValueError as exc:
        raise InvariantViolation(str(exc)) from exc
    if sorted(masses) != [0] * (len(masses) - 1) + [1]:
        raise InvariantViolation(f"projector masses {masses} not deterministic")
    return masses.index(1)


def _state_before_fin(o: CountingOracle, view: BlockView) -> StateVector:
    """Both queries of the mod-3 circuit: the state that ``_FIN`` ends.

    As in :func:`deutsch`, a view of the wrong dimension (not three
    indices with ``MOD3_PADDING``) raises ``ValueError`` before the first
    query."""
    v = o.phase_apply(view, _QFT_KET0)
    v = _MID.apply(v)
    return o.phase_apply(view, v)


def mod3_final_state(o: CountingOracle, view: BlockView) -> StateVector:
    """The final 5-dim state of the 2-query mod-3 circuit."""
    return _FIN.apply(_state_before_fin(o, view))


def mod3(o: CountingOracle, view: BlockView) -> int:
    """Hamming weight of the three input bits of ``view`` modulo 3, with
    two queries.

    Measures the final state against the three weight-residue projectors;
    in exact arithmetic exactly one mass is 1 and the others are 0.  The
    outcome is memoised per (_FIN, state before it); both queries are
    made on every call.
    """
    return _measure(_FIN, _state_before_fin(o, view))


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
        QFT._negated(i for i, c in enumerate(bits) if c == "1"))


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

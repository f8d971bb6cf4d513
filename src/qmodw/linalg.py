"""Exact dense vectors and matrices over Q(i, sqrt2, sqrt3).

Internally a vector is stored "packed": an array of shape (dim, 8) of
Python integers (object dtype) holding the coefficients over the field
basis, together with a single positive common denominator, always reduced
so the gcd of all numerators and the denominator is 1.  A row and an
:class:`AlgebraicNumber` share this canonical form (8 int numerators over
one denominator, reduced by the same gcd rule), so packing scales each
number's int row to the common denominator and reading an entry builds
the number from its row with one reduction; no ``Fraction`` is made
either way.  Python integers never overflow, so there is one exact
integer representation whatever the size of the values.  Each matrix
carries a lazily-built kernel with the basis multiplication tensor
pre-contracted into its entries, so a matrix-vector product is one
integer matmul and a matrix product is the same kernel applied to every
column of the other matrix.

Packed arrays are never written after construction (they are marked
read-only), so a state can be shared and its derived values cached on it:

* its exact key, ``(den, tuple of the numerators)``; equal states have
  equal keys because the canonical form is unique, so ``__eq__`` compares
  keys;
* the hash of that key, which ``__hash__`` returns, so a state is hashed
  once however many tables it is looked up in;
* its support, its per-entry ``|z|^2`` rows, and the mass of each
  projector.

Each :class:`SquareMatrix` memoises :meth:`SquareMatrix.apply` on the
input state itself, mapped to the result state, filled lazily and capped
at ``_APPLY_MEMO_CAP`` entries per matrix (once full, further inputs are
computed but not stored).  A state that came out of a memo or the
oracle's flip table is found by identity; an equal state built elsewhere
is found through ``__hash__`` and ``__eq__``, which compare exact values.
The memo sits below the oracle: the keys are only states the caller
already holds, so a phase query is made, counted and logged before any
state it produced can be looked up, and a memo hit saves arithmetic,
never a query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .algebra import BASIS_MUL, AlgebraicNumber

# Structure tensor of the basis: _T[a, b, c] = coefficient of basis c in
# (basis a * basis b).
_T = np.zeros((8, 8, 8), dtype=object)
for _a in range(8):
    for _b in range(8):
        _idx, _coef = BASIS_MUL[_a][_b]
        _T[_a, _b, _idx] = _coef

# Distinct inputs stored per matrix.  The circuits see a handful of states
# (19 distinct apply results over all 4096 inputs at n = 12); the cap only
# bounds memory when a matrix is applied to arbitrary vectors.
_APPLY_MEMO_CAP = 256


def _pack(entries: Sequence[AlgebraicNumber]):
    """Stack AlgebraicNumbers as (int array of shape (len, 8), common den).

    Each entry's int row is scaled to the lcm of the denominators.
    """
    den = math.lcm(*(e._den for e in entries))
    num = [[x * (den // e._den) for x in e._num] for e in entries]
    return _canonical(np.array(num, dtype=object).reshape(-1, 8), den)


def _canonical(num: np.ndarray, den: int):
    """Reduce to lowest terms as a read-only array of Python ints.

    The rule is :func:`algebra._lowest_terms`'s: divide out the gcd of every
    numerator and the denominator.  ``num`` must not be written by the
    caller afterwards.
    """
    num = np.asarray(num, dtype=object)
    g = math.gcd(den, *num.flat)
    if g > 1:
        num = num // g
        den //= g
    num.flags.writeable = False
    return num, den


def _packed_key(num: np.ndarray, den: int):
    """A hashable key equal for equal canonical packed values."""
    return den, tuple(num.flat)


class StateVector:
    """An exact vector over Q(i, sqrt2, sqrt3)."""

    __slots__ = ("dim", "_num", "_den", "_key", "_hash", "_support",
                 "_abs_sq", "_masses")

    def __init__(self, entries: Iterable[AlgebraicNumber]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty state vector")
        self._init(*_pack(entries))

    def _init(self, num: np.ndarray, den: int):
        self.dim = num.shape[0]
        self._num, self._den = num, den
        self._key = self._hash = None
        self._support = self._abs_sq = self._masses = None

    @classmethod
    def _from_packed(cls, num: np.ndarray, den: int) -> "StateVector":
        v = object.__new__(cls)
        v._init(*_canonical(num, den))
        return v

    def _negated(self, rows) -> "StateVector":
        """This state with the given entries negated.

        Negation keeps the gcd, so the result is already canonical and
        skips :func:`_canonical`.
        """
        num = self._num.copy()
        for j in rows:
            num[j] = -num[j]
        num.flags.writeable = False
        v = object.__new__(type(self))
        v._init(num, self._den)
        return v

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        num = np.zeros((dim, 8), dtype=object)
        num[index, 0] = 1
        return cls._from_packed(num, 1)

    @property
    def entries(self) -> tuple:
        return tuple(self[i] for i in range(self.dim))

    def __getitem__(self, i: int) -> AlgebraicNumber:
        return AlgebraicNumber._from_row(self._num[i], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return (self.dim == other.dim
                and self._exact_key() == other._exact_key())

    def _exact_key(self):
        if self._key is None:
            self._key = _packed_key(self._num, self._den)
        return self._key

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._exact_key())
        return self._hash

    def support(self) -> frozenset:
        """Indices with a nonzero amplitude."""
        if self._support is None:
            self._support = frozenset(
                i for i in range(self.dim) if self._num[i].any())
        return self._support

    def _abs_sq_rows(self):
        """Per-entry |z|^2 in packed form: (int array (dim, 8), den)."""
        if self._abs_sq is None:
            rows = self._compute_abs_sq_rows()
            rows.flags.writeable = False
            self._abs_sq = rows, self._den * self._den
        return self._abs_sq

    def _compute_abs_sq_rows(self):
        conj = self._num.copy()
        conj[:, 4:] = -conj[:, 4:]
        return np.einsum("ja,jb,abc->jc", conj, self._num, _T)

    def norm_sq(self) -> AlgebraicNumber:
        """Sum of |entry|^2; a real field element."""
        rows, den_sq = self._abs_sq_rows()
        return AlgebraicNumber._from_row(rows.sum(axis=0), den_sq)

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]

    @classmethod
    def from_json(cls, data) -> "StateVector":
        return cls(AlgebraicNumber.from_json(e) for e in data)

    def __repr__(self):
        return "StateVector([" + ", ".join(str(e) for e in self.entries) + "])"


def inner(u: StateVector, v: StateVector) -> AlgebraicNumber:
    """<u|v> = sum_j conj(u_j) * v_j, exactly."""
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    total = AlgebraicNumber.from_rational(0)
    for i in range(u.dim):
        total = total + u[i].conj() * v[i]
    return total


class SquareMatrix:
    """An exact square matrix over Q(i, sqrt2, sqrt3)."""

    __slots__ = ("dim", "_num", "_den", "_kernel", "_memo")

    def __init__(self, rows: Iterable[Iterable[AlgebraicNumber]]):
        rows = [tuple(r) for r in rows]
        self.dim = len(rows)
        if any(len(r) != self.dim for r in rows):
            raise ValueError("matrix is not square")
        flat = [e for r in rows for e in r]
        num, self._den = _pack(flat)
        self._num = num.reshape(self.dim, self.dim, 8)
        self._kernel = None
        self._memo = {}

    @classmethod
    def _from_packed(cls, num: np.ndarray, den: int) -> "SquareMatrix":
        m = object.__new__(cls)
        m.dim = num.shape[0]
        flat, m._den = _canonical(num.reshape(-1, 8), den)
        m._num = flat.reshape(num.shape)
        m._kernel = None
        m._memo = {}
        return m

    @classmethod
    def identity(cls, dim: int) -> "SquareMatrix":
        num = np.zeros((dim, dim, 8), dtype=object)
        for i in range(dim):
            num[i, i, 0] = 1
        return cls._from_packed(num, 1)

    @property
    def entries(self) -> tuple:
        return tuple(tuple(self[i, j] for j in range(self.dim))
                     for i in range(self.dim))

    def __getitem__(self, ij) -> AlgebraicNumber:
        i, j = ij
        return AlgebraicNumber._from_row(self._num[i, j], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return (self.dim == other.dim and self._den == other._den
                and np.array_equal(self._num, other._num))

    def __hash__(self):
        return hash((self.dim,) + _packed_key(self._num, self._den))

    def dagger(self) -> "SquareMatrix":
        num = self._num.transpose(1, 0, 2).copy()
        num[:, :, 4:] = -num[:, :, 4:]
        return SquareMatrix._from_packed(num, self._den)

    def _get_kernel(self):
        # K[i, c, j, b] = sum_a num[i, j, a] * T[a, b, c], flattened to a
        # (dim*8) x (dim*8) integer matrix so apply() is a single matmul.
        if self._kernel is None:
            d8 = self.dim * 8
            k = np.tensordot(self._num, _T, axes=([2], [0]))  # (i, j, b, c)
            self._kernel = k.transpose(0, 3, 1, 2).reshape(d8, d8)
        return self._kernel

    def apply(self, v: StateVector) -> StateVector:
        """Exact matrix-vector product (memoised on the input state)."""
        if self.dim != v.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {v.dim}")
        out = self._memo.get(v)
        if out is None:
            out = self._product(v)
            if len(self._memo) < _APPLY_MEMO_CAP:
                self._memo[v] = out
        return out

    def _product(self, v: StateVector) -> StateVector:
        out = self._get_kernel() @ v._num.reshape(-1)
        return StateVector._from_packed(out.reshape(self.dim, 8),
                                        self._den * v._den)

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        """Exact matrix product: the kernel applied to each column of other."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        d = self.dim
        cols = other._num.transpose(0, 2, 1).reshape(d * 8, d)  # (j, b), k
        out = self._get_kernel() @ cols                          # (i, c), k
        return SquareMatrix._from_packed(
            out.reshape(d, 8, d).transpose(0, 2, 1), self._den * other._den)

    __matmul__ = matmul

    def is_unitary(self) -> bool:
        """True iff M† M equals the identity exactly."""
        return self.dagger().matmul(self) == SquareMatrix.identity(self.dim)

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.entries]

    @classmethod
    def from_json(cls, data) -> "SquareMatrix":
        return cls([AlgebraicNumber.from_json(e) for e in row] for row in data)

    def __repr__(self):
        return f"SquareMatrix(dim={self.dim})"


@dataclass(frozen=True)
class Projector:
    """Diagonal 0/1 projector onto a set of computational basis indices."""

    dim: int
    indices: frozenset

    def __post_init__(self):
        if not self.indices:
            raise ValueError("empty projector")
        if any(i < 0 or i >= self.dim for i in self.indices):
            raise IndexError(f"projector indices out of range for dim {self.dim}")

    def mass(self, v: StateVector) -> Fraction:
        """Exact squared norm of the projected component of a unit vector.

        The result is cached on ``v``, keyed by the projected indices.
        """
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {v.dim}")
        if v._masses is None:
            v._masses = {}
        mass = v._masses.get(self.indices)
        if mass is None:
            mass = v._masses[self.indices] = self._mass(v)
        return mass

    def _mass(self, v: StateVector) -> Fraction:
        rows, den_sq = v._abs_sq_rows()
        total = [0] * 8
        for i in self.indices:
            for c in range(8):
                total[c] += int(rows[i, c])
        if any(total[1:]):
            value = AlgebraicNumber._from_row(total, den_sq)
            raise ValueError(f"projected mass {value} is not rational")
        return Fraction(total[0], den_sq)


def format_state_table(columns: "dict[str, list[StateVector]]",
                       row_labels: Sequence[str]) -> str:
    """Render states in the row-per-stage, column-per-input table layout."""
    headers = list(columns)
    cells = {}
    for name, states in columns.items():
        for r, s in enumerate(states):
            cells[(r, name)] = "(" + ", ".join(str(e) for e in s.entries) + ")"
    widths = {h: max(len(h), *(len(cells[(r, h)]) for r in range(len(row_labels))))
              for h in headers}
    label_w = max(len(l) for l in row_labels)
    lines = [" " * label_w + " | " +
             " | ".join(h.center(widths[h]) for h in headers)]
    lines.append("-" * len(lines[0]))
    for r, label in enumerate(row_labels):
        lines.append(label.rjust(label_w) + " | " +
                     " | ".join(cells[(r, h)].ljust(widths[h]) for h in headers))
    return "\n".join(lines)

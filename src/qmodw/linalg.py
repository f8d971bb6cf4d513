"""Exact dense vectors and matrices over Q(i, sqrt2, sqrt3).

Internally a vector is stored "packed": a tuple of ``dim`` rows, each a
tuple of the 8 Python-int coefficients of one entry over the field basis,
together with a single positive common denominator, always reduced so the
gcd of all numerators and the denominator is 1.  A matrix holds a tuple of
such row tuples per matrix row, over one denominator.  A row and an
:class:`AlgebraicNumber` share this canonical form (8 int numerators over
one denominator, reduced by the same gcd rule), so packing scales each
number's int row to the common denominator and reading an entry builds
the number from its row with one reduction; no ``Fraction`` is made
either way.  Python integers never overflow, so there is one exact
integer representation whatever the size of the values.

Each matrix carries a lazily-built sparse kernel with the basis
multiplication table folded into its entries: for every input coordinate
(entry j, basis b) the (output coordinate, integer coefficient) pairs it
feeds, zeros dropped.  A matrix-vector product walks the nonzero
coordinates of the vector through it, and a matrix product applies the
same kernel to every column of the other matrix.

Tuples cannot be written, so a state can be shared and caches one derived
value: the hash of ``(den, rows)``.  Equal states have equal rows and
denominators because the canonical form is unique, so ``__eq__`` compares
them and ``__hash__`` hashes a state once however many memos it is looked
up in.  Its support, its per-entry ``|z|^2`` rows and its projector
masses are computed on each call; the circuits memoise their measured
outcome per final state instead.

``_APPLY_MEMO_CAP`` bounds every memo of the package, and every memo
has one policy: each is a ``functools.lru_cache`` table that drops its
least recently used entry once full, and ``cache_info()`` reports its
hits and misses.  :meth:`SquareMatrix.apply` is one of them, keyed on the
(matrix, state) pair.  A key that came out of a memo is found by
identity; an equal one built elsewhere is found through ``__hash__`` and
``__eq__``, which compare exact values.  The memos sit below the oracle:
the keys are only states the caller already holds, so a phase query is
made, counted and logged before any state it produced can be looked up,
and a memo hit saves arithmetic, never a query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

from .algebra import (BASIS_MUL, AlgebraicNumber, _conj_row, _lowest_terms,
                       _mul_into)

# Entries stored per memo.  The circuits see a handful of states (19
# distinct apply results over all 4096 inputs at n = 12); the cap only
# bounds memory when a matrix is applied to arbitrary vectors.
_APPLY_MEMO_CAP = 256

_ZERO_ROW = (0,) * 8
_ONE_ROW = (1,) + (0,) * 7


def _rows(flat: list, width: int = 8) -> tuple:
    """``flat`` cut into consecutive tuples of ``width`` items."""
    return tuple(zip(*[iter(flat)] * width))


def _canonical(flat: list, den: int):
    """Reduce int numerators, 8 per row, to lowest terms: (rows, den).

    The rule is :func:`algebra._lowest_terms`'s, applied to all the rows.
    """
    flat, den = _lowest_terms(flat, den)
    return _rows(flat), den


def _pack(entries: Sequence[AlgebraicNumber]):
    """Stack AlgebraicNumbers as (tuple of int rows, common den).

    Each entry's int row is scaled to the lcm of the denominators.  Other
    entries go through the field's rule: an exact rational is accepted,
    anything else raises ``TypeError``.
    """
    entries = [e if isinstance(e, AlgebraicNumber)
               else AlgebraicNumber.from_rational(e) for e in entries]
    den = math.lcm(*(e._den for e in entries))
    return _canonical([x * (den // e._den) for e in entries for x in e._num],
                      den)


class StateVector:
    """An exact vector over Q(i, sqrt2, sqrt3)."""

    __slots__ = ("dim", "_num", "_den", "_hash")

    def __init__(self, entries: Iterable[AlgebraicNumber]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty state vector")
        self._init(*_pack(entries))

    def _init(self, num: tuple, den: int):
        self.dim = len(num)
        self._num, self._den = num, den
        self._hash = None

    @classmethod
    def _new(cls, num: tuple, den: int) -> "StateVector":
        """A state from rows of Python ints already in canonical form."""
        v = object.__new__(cls)
        v._init(num, den)
        return v

    def _negated(self, rows) -> "StateVector":
        """This state with the given entries negated.

        Negation keeps the gcd, so the result is already canonical and
        skips :func:`_canonical`.
        """
        num = list(self._num)
        for j in rows:
            num[j] = tuple([-x for x in num[j]])
        return self._new(tuple(num), self._den)

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        return cls._new(tuple(_ONE_ROW if i == index else _ZERO_ROW
                              for i in range(dim)), 1)

    @property
    def entries(self) -> tuple:
        return tuple(self[i] for i in range(self.dim))

    def __getitem__(self, i: int) -> AlgebraicNumber:
        return AlgebraicNumber._from_row(self._num[i], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateVector):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, self._num))
        return self._hash

    def support(self) -> frozenset:
        """Indices with a nonzero amplitude."""
        return frozenset(i for i, row in enumerate(self._num) if any(row))

    def _abs_sq_rows(self):
        """Per-entry |z|^2 in packed form: (tuple of int rows, den)."""
        return (tuple(tuple(_mul_into([0] * 8, _conj_row(row), row))
                      for row in self._num),
                self._den * self._den)

    def norm_sq(self) -> AlgebraicNumber:
        """Sum of |entry|^2; a real field element."""
        rows, den_sq = self._abs_sq_rows()
        return AlgebraicNumber._from_row(map(sum, zip(*rows)), den_sq)

    def to_json(self) -> list:
        return [e.to_json() for e in self.entries]

    @classmethod
    def from_json(cls, data) -> "StateVector":
        return cls(AlgebraicNumber.from_json(e) for e in data)

    def __repr__(self):
        return "StateVector([" + ", ".join(str(e) for e in self.entries) + "])"


def inner(u: StateVector, v: StateVector) -> AlgebraicNumber:
    """<u|v> = sum_j conj(u_j) * v_j, exactly.

    The row products are summed over den_u * den_v and reduced once.
    """
    if u.dim != v.dim:
        raise ValueError(f"dimension mismatch: {u.dim} != {v.dim}")
    total = [0] * 8
    for x, y in zip(u._num, v._num):
        _mul_into(total, _conj_row(x), y)
    return AlgebraicNumber._from_row(total, u._den * v._den)


def _kernel(num: tuple) -> tuple:
    """The sparse kernel of matrix rows ``num``.

    Entry ``8 * j + b`` lists, for the input coordinate b of entry j, the
    pairs (``8 * i + c``, coefficient of basis c in num[i][j] * basis b).
    Basis b times a basis element is one basis element times an int, so
    each nonzero numerator of num[i][j] yields one pair per b.
    """
    cols = [[] for _ in range(8 * len(num))]
    for i, row in enumerate(num):
        for j, entry in enumerate(row):
            for a, x in enumerate(entry):
                if x:
                    for b, (c, coef) in enumerate(BASIS_MUL[a]):
                        cols[8 * j + b].append((8 * i + c, coef * x))
    return tuple(map(tuple, cols))


class SquareMatrix:
    """An exact square matrix over Q(i, sqrt2, sqrt3)."""

    __slots__ = ("dim", "_num", "_den", "_kernel", "_hash")

    def __init__(self, rows: Iterable[Iterable[AlgebraicNumber]]):
        rows = [tuple(r) for r in rows]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix is not square")
        num, den = _pack([e for r in rows for e in r])
        self._init(_rows(num, dim), den)

    def _init(self, num: tuple, den: int):
        self.dim = len(num)
        self._num, self._den = num, den
        self._kernel = None
        self._hash = None

    @classmethod
    def _new(cls, num: tuple, den: int) -> "SquareMatrix":
        """A matrix from rows of Python ints already in canonical form."""
        m = object.__new__(cls)
        m._init(num, den)
        return m

    @classmethod
    def identity(cls, dim: int) -> "SquareMatrix":
        return cls._new(tuple(tuple(_ONE_ROW if i == j else _ZERO_ROW
                                    for j in range(dim))
                              for i in range(dim)), 1)

    @property
    def entries(self) -> tuple:
        return tuple(tuple(self[i, j] for j in range(self.dim))
                     for i in range(self.dim))

    def __getitem__(self, ij) -> AlgebraicNumber:
        i, j = ij
        return AlgebraicNumber._from_row(self._num[i][j], self._den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, self._num))
        return self._hash

    def dagger(self) -> "SquareMatrix":
        # Conjugation keeps the gcd, so the result is already canonical.
        return self._new(tuple(map(tuple, zip(*(map(_conj_row, row)
                                                 for row in self._num)))),
                         self._den)

    def _get_kernel(self) -> tuple:
        if self._kernel is None:
            self._kernel = _kernel(self._num)
        return self._kernel

    @lru_cache(maxsize=_APPLY_MEMO_CAP)
    def apply(self, v: StateVector) -> StateVector:
        """Exact matrix-vector product, memoised on (matrix, state).

        One bounded cache serves all matrices: it holds at most
        ``_APPLY_MEMO_CAP`` (256) keys, so it keeps at most 256 matrices
        alive.  A matrix unequal by value to another never reads its
        entries.  A mismatched state raises on every call: no exception is
        stored.
        """
        if self.dim != v.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {v.dim}")
        out = self._times(chain.from_iterable(v._num))
        return StateVector._new(*_canonical(out, self._den * v._den))

    def _times(self, flat: Iterable[int]) -> list:
        """The kernel applied to one column of 8 * dim numerators."""
        kernel = self._get_kernel()
        out = [0] * (8 * self.dim)
        for p, x in enumerate(flat):
            if x:
                for o, k in kernel[p]:
                    out[o] += k * x
        return out

    def matmul(self, other: "SquareMatrix") -> "SquareMatrix":
        """Exact matrix product: the kernel applied to each column of other."""
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {other.dim}")
        cols = [self._times(chain.from_iterable(col))
                for col in zip(*other._num)]
        # cols[k][8 * i + c] is coordinate c of entry (i, k).
        flat = [x for i in range(0, 8 * self.dim, 8)
                for col in cols for x in col[i:i + 8]]
        rows, den = _canonical(flat, self._den * other._den)
        return self._new(_rows(rows, self.dim), den)

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
        """Exact squared norm of the projected component of a unit vector."""
        if v.dim != self.dim:
            raise ValueError(f"dimension mismatch: {self.dim} != {v.dim}")
        rows, den_sq = v._abs_sq_rows()
        total = [0] * 8
        for i in self.indices:
            for c, x in enumerate(rows[i]):
                total[c] += x
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

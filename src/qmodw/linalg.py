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

Tuples cannot be written and the canonical form is unique, so a state
or matrix is fixed by its class, denominator and rows.  Every one is
made through one intern table, a ``weakref.WeakValueDictionary`` keyed
on that triple, which returns the live object of that value if there
is one.  There is one live object per exact value, so ``==`` and
``hash`` are identity.  The table holds its objects weakly: a value
nothing else holds is dropped from it, while a bound that evicted a live
object would let a second, equal one be made that compares unequal.
Pickling and copying go through the table too.  A matrix builds its
kernel on first use; a state's per-entry ``|z|^2`` rows and its
projector masses are computed on each call, and the circuits memoise
their measured outcome per final state instead.

``_APPLY_MEMO_CAP`` bounds every memo of the package, and every memo
has one policy: each is a ``functools.lru_cache`` table that drops its
least recently used entry once full, and ``cache_info()`` reports its
hits and misses.  :meth:`SquareMatrix.apply` is one of them, keyed on the
(matrix, state) pair, so an equal pair built anywhere finds the same
entry and an unequal matrix, such as a corrupted circuit matrix, never
reads it.  The memos sit below the oracle:
the keys are only states the caller already holds, so a phase query is
made, counted and logged before any state it produced can be looked up,
and a memo hit saves arithmetic, never a query.
"""

from __future__ import annotations

import math
import weakref
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

    The rows are those of :func:`_pack_flat`, cut 8 numerators per entry.
    """
    flat, den = _pack_flat(entries)
    return _rows(flat), den


def _pack_flat(entries: Sequence[AlgebraicNumber]):
    """AlgebraicNumbers as (8 int numerators per entry in one flat
    sequence, common den), in lowest terms.

    Each entry's int row is scaled to the lcm of the denominators; a row
    already over that denominator is copied as it is.  Other entries go
    through the field's rule: an exact rational is accepted, anything
    else raises ``TypeError``.
    """
    entries = [e if isinstance(e, AlgebraicNumber)
               else AlgebraicNumber.from_rational(e) for e in entries]
    den = math.lcm(*(e._den for e in entries))
    flat = []
    for e in entries:
        flat += (e._num if e._den == den
                 else [x * (den // e._den) for x in e._num])
    return _lowest_terms(flat, den)


# The one live object of each (class, den, rows), held weakly.  It is
# not locked: the package makes states and matrices on one thread per
# process.
_INTERNED = weakref.WeakValueDictionary()


class _Interned:
    """Rows of Python ints over one denominator, one object per value."""

    __slots__ = ("dim", "_num", "_den", "__weakref__")

    @classmethod
    def _new(cls, num: tuple, den: int):
        """The live object of rows of Python ints in canonical form."""
        key = (cls, den, num)
        obj = _INTERNED.get(key)
        if obj is None:
            obj = object.__new__(cls)
            obj.dim = len(num)
            obj._num, obj._den = num, den
            _INTERNED[key] = obj
        return obj

    def __reduce__(self):
        return self._new, (self._num, self._den)


class StateVector(_Interned):
    """An exact vector over Q(i, sqrt2, sqrt3)."""

    __slots__ = ()

    def __new__(cls, entries: Iterable[AlgebraicNumber]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty state vector")
        return cls._new(*_pack(entries))

    def _negated(self, rows) -> "StateVector":
        """This state with the given entries negated.

        Negation keeps the gcd, so the result is already canonical and
        skips :func:`_canonical`.  As in
        :meth:`SquareMatrix._negated_rows`, a repeated row is negated
        once and one outside [0, dim) raises ``IndexError``.
        """
        num = list(self._num)
        for j in set(rows):
            if not 0 <= j < self.dim:
                raise IndexError(f"row {j} out of range for dim {self.dim}")
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

    def _abs_sq_rows(self):
        """Per-entry |z|^2 in packed form: (tuple of int rows, den)."""
        return (tuple(tuple(_mul_into([0] * 8, _conj_row(row), row))
                      for row in self._num),
                self._den * self._den)

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


class SquareMatrix(_Interned):
    """An exact square matrix over Q(i, sqrt2, sqrt3)."""

    __slots__ = ("_kernel",)

    def __new__(cls, rows: Iterable[Iterable[AlgebraicNumber]]):
        rows = [tuple(r) for r in rows]
        dim = len(rows)
        if any(len(r) != dim for r in rows):
            raise ValueError("matrix is not square")
        num, den = _pack([e for r in rows for e in r])
        return cls._new(_rows(num, dim), den)

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

    def dagger(self) -> "SquareMatrix":
        # Conjugation keeps the gcd, so the result is already canonical.
        return self._new(tuple(map(tuple, zip(*(map(_conj_row, row)
                                                 for row in self._num)))),
                         self._den)

    def _get_kernel(self) -> tuple:
        try:
            return self._kernel
        except AttributeError:
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

    def _negated_rows(self, rows) -> "SquareMatrix":
        """O · this matrix, for the diagonal sign matrix O that is -1
        exactly on ``rows``: the given rows negated.

        The matrix counterpart of :meth:`StateVector._negated`, the sign
        flip a phase query makes on a state.  Negation keeps the gcd, so
        the result is already canonical and skips :func:`_canonical`.  A
        row repeated in ``rows`` is negated once; one outside
        [0, dim) raises ``IndexError``.
        """
        num = list(self._num)
        for i in set(rows):
            if not 0 <= i < self.dim:
                raise IndexError(f"row {i} out of range for dim {self.dim}")
            num[i] = tuple([tuple([-x for x in entry]) for entry in num[i]])
        return self._new(tuple(num), self._den)

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

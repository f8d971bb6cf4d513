"""Exact arithmetic in the number field Q(i, sqrt2, sqrt3).

Every amplitude and matrix entry used by the mod-2 and mod-3 circuits lives
in this degree-8 field.  An element is stored by its coordinates over the
fixed basis

    (1, sqrt2, sqrt3, sqrt6, i, i*sqrt2, i*sqrt3, i*sqrt6)

as eight Python-int numerators over one positive common denominator, in
lowest terms: the gcd of the numerators and the denominator is 1, so zero
is ``(0,)*8 / 1``.  This is the canonical form of a row in ``linalg``, so
a number moves between the two as a tuple of ints and no ``Fraction`` is
built on the way.  The basis is linearly independent over Q and the form
is unique, so structural equality coincides with mathematical equality and
zero-testing is a plain all-zero check.  Only exact rationals
(``numbers.Rational``: ints, ``Fraction``, and the integer types other
libraries register there, stored as Python ints) are accepted; a float,
complex, string or Decimal raises ``TypeError``.  ``Fraction``
appears only where a coordinate is handed out (``coeffs``,
``rational_part``).  The field operations are ``+``, ``-``, ``*`` and
the complex conjugate; no amplitude needs a division, so there is none.
All values are immutable; nothing here ever rounds.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]

BASIS_NAMES = ("1", "√2", "√3", "√6",
               "i", "i√2", "i√3", "i√6")

# Product of the four real basis elements 1, sqrt2, sqrt3, sqrt6:
# _REAL_MUL[a][b] = (index, integer coefficient).
_REAL_MUL = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 1): (0, 2), (1, 2): (3, 1), (1, 3): (2, 2),
    (2, 2): (0, 3), (2, 3): (1, 3),
    (3, 3): (0, 6),
}
for (_a, _b), _v in list(_REAL_MUL.items()):
    _REAL_MUL[(_b, _a)] = _v

# Full 8x8 basis product: BASIS_MUL[a][b] = (index, integer coefficient),
# folding in i*i = -1.
BASIS_MUL = [[None] * 8 for _ in range(8)]
for _a in range(8):
    for _b in range(8):
        _ia, _ra = divmod(_a, 4)
        _ib, _rb = divmod(_b, 4)
        _t, _c = _REAL_MUL[(_ra, _rb)]
        BASIS_MUL[_a][_b] = (_t + 4 * ((_ia + _ib) % 2),
                             -_c if (_ia and _ib) else _c)

def _ratio(value) -> tuple:
    """(numerator, denominator) of an exact rational, as Python ints.

    Raises TypeError for anything that is not a ``numbers.Rational``, so
    no float, complex, string or Decimal enters the field.
    """
    if type(value) is int:
        return value, 1
    if isinstance(value, numbers.Rational):
        return int(value.numerator), int(value.denominator)
    raise TypeError(
        f"expected an exact rational, got {type(value).__name__} {value!r}")


def _lowest_terms(num: Sequence[int], den: int) -> tuple:
    """Canonical form of int numerators over a positive denominator.

    Divides out the gcd of every numerator and the denominator, so equal
    values get equal ``(num, den)`` and zero is ``(0, ..., 0), 1``.  The
    rows of ``linalg`` are reduced by the same rule.
    """
    g = math.gcd(den, *num)
    if g == 1:
        return num, den
    return tuple(x // g for x in num), den // g


def _conj_row(row: tuple) -> tuple:
    """Complex conjugate of a coordinate row: the imaginary four negated."""
    return row[:4] + tuple([-x for x in row[4:]])


def _mul_into(out: list, x: Sequence[int], y: Sequence[int]) -> list:
    """Add the product of the coordinate rows ``x`` and ``y`` into ``out``.

    Zero coordinates are skipped, so a sparse row costs only its nonzero
    pairs.  Returns ``out``.
    """
    right = [(b, q) for b, q in enumerate(y) if q]
    for a, p in enumerate(x):
        if p:
            row = BASIS_MUL[a]
            for b, q in right:
                idx, coef = row[b]
                out[idx] += coef * p * q
    return out


def _make(num: tuple, den: int) -> "AlgebraicNumber":
    """An AlgebraicNumber from a numerator tuple and den already canonical."""
    out = object.__new__(AlgebraicNumber)
    out._num = num
    out._den = den
    return out


class AlgebraicNumber:
    """An exact element of Q(i, sqrt2, sqrt3)."""

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs: Iterable[Scalar]):
        pairs = [_ratio(x) for x in coeffs]
        if len(pairs) != 8:
            raise ValueError(f"need 8 basis coordinates, got {len(pairs)}")
        den = math.lcm(*(q for _, q in pairs))
        self._num, self._den = _lowest_terms(
            tuple(p * (den // q) for p, q in pairs), den)

    @classmethod
    def _from_row(cls, row: Iterable[int], den: int) -> "AlgebraicNumber":
        """The number ``row / den`` for 8 Python-int numerators, den > 0."""
        return _make(*_lowest_terms(tuple(row), den))

    @property
    def coeffs(self) -> tuple:
        """The 8 coordinates as Fractions in lowest terms."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._num)

    @classmethod
    def from_rational(cls, value: Scalar) -> "AlgebraicNumber":
        p, q = _ratio(value)
        return _make(*_lowest_terms((p, 0, 0, 0, 0, 0, 0, 0), q))

    def __bool__(self) -> bool:
        return any(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def rational_part(self) -> Fraction:
        """The coordinate on basis element 1."""
        return Fraction(self._num[0], self._den)

    def __eq__(self, other) -> bool:
        if type(other) is AlgebraicNumber:
            return self._num == other._num and self._den == other._den
        if isinstance(other, numbers.Rational):
            p, q = _ratio(other)
            return self.is_rational() and self._num[0] * q == p * self._den
        return NotImplemented

    def __hash__(self) -> int:
        # A rational value hashes like the equal int or Fraction.
        if self.is_rational():
            if self._den == 1:
                return hash(self._num[0])
            return hash(Fraction(self._num[0], self._den))
        return hash((self._num, self._den))

    def __add__(self, other) -> "AlgebraicNumber":
        if type(other) is not AlgebraicNumber:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        return _add(self, other)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicNumber":
        return _make(tuple([-x for x in self._num]), self._den)

    def __sub__(self, other) -> "AlgebraicNumber":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(self, -other)

    def __rsub__(self, other) -> "AlgebraicNumber":
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return _add(other, -self)

    def __mul__(self, other) -> "AlgebraicNumber":
        if type(other) is not AlgebraicNumber:
            other = _coerce(other)
            if other is None:
                return NotImplemented
        out = _mul_into([0] * 8, self._num, other._num)
        return _make(*_lowest_terms(tuple(out), self._den * other._den))

    __rmul__ = __mul__

    def conj(self) -> "AlgebraicNumber":
        """Complex conjugate: negates the four imaginary coordinates."""
        return _make(_conj_row(self._num), self._den)

    def to_json(self) -> list:
        """Exact encoding: 8 [numerator, denominator] pairs."""
        return [[f.numerator, f.denominator] for f in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[int]]) -> "AlgebraicNumber":
        return cls(Fraction(p, q) for p, q in data)

    def __str__(self) -> str:
        terms = []
        for f, name in zip(self.coeffs, BASIS_NAMES):
            if not f:
                continue
            if name == "1":
                terms.append(str(f))
            elif f == 1:
                terms.append(name)
            elif f == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{f}·{name}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self})"


def _add(a: AlgebraicNumber, b: AlgebraicNumber) -> AlgebraicNumber:
    x, dx = a._num, a._den
    y, dy = b._num, b._den
    if dx == dy:
        num = tuple([p + q for p, q in zip(x, y)])
    else:
        num = tuple([p * dy + q * dx for p, q in zip(x, y)])
        dx *= dy
    return _make(*_lowest_terms(num, dx))


def _coerce(value) -> "AlgebraicNumber | None":
    if isinstance(value, AlgebraicNumber):
        return value
    if isinstance(value, numbers.Rational):
        return AlgebraicNumber.from_rational(value)
    return None


ZERO = AlgebraicNumber.from_rational(0)
ONE = AlgebraicNumber.from_rational(1)
SQRT2 = AlgebraicNumber((0, 1, 0, 0, 0, 0, 0, 0))
SQRT3 = AlgebraicNumber((0, 0, 1, 0, 0, 0, 0, 0))
SQRT6 = AlgebraicNumber((0, 0, 0, 1, 0, 0, 0, 0))
I = AlgebraicNumber((0, 0, 0, 0, 1, 0, 0, 0))

# Primitive cube root of unity: -1/2 + (sqrt3/2) i.
OMEGA = AlgebraicNumber((Fraction(-1, 2), 0, 0, 0, 0, 0, Fraction(1, 2), 0))

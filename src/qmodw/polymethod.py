"""Polynomial-method lower bounds for symmetric Boolean functions.

Multilinear polynomials with coefficients in Q(i, sqrt2, sqrt3),
symmetrization to a univariate polynomial in the Hamming weight, support
certificates, and the root-counting lower bound: a symmetric function
with value 1 at weight 0 needs a certifying polynomial of degree at least
the number of Hamming weights on which it vanishes.  For the weight-
divisibility function this count equals ceil(n(1 - 1/m)), matching the
query algorithm's cost exactly.

Coefficients are handled as packed int rows, the canonical form that
``AlgebraicNumber`` and ``linalg`` share (8 Python-int numerators over
one common denominator), and no field ``*`` or ``+`` runs in a loop.
A ``MultilinearPolynomial`` is packed once, when it is made: its
monomials in order of degree, each as its truth-table mask, and the
coordinate columns that are nonzero in some coefficient, as numerators
in that order over one denominator.  Every fast path reads this form.
``symmetrize`` sums each degree's contiguous slice of each column,
scales the sum by an integer, adds it into one int row per output
coefficient and reduces each coefficient once.  A point of the cube is
one int, its truth-table index ``int(x_1...x_n, 2)`` (x_i is bit n - i),
in the tables, the transform and both ``eval``s, which reject anything
else.  ``MultilinearPolynomial.eval`` sums the numerators of the
monomials whose masks lie inside the point and reduces once.  A
``UnivariatePolynomial`` is packed the same way when it is made, and its
``eval`` runs Horner's rule on the integer columns: at t = p/q it sums
c_d p^d q^(D-d) and reduces once over den * q^D.

Values on the whole Boolean cube come from one subset-sum (zeta)
transform per packed column: the column's numerators are placed at
their monomials' masks in a list of 2^n ints, and for each variable
every point with that bit set adds the point without it, a slice at a
time.  That is n * 2^(n-1) integer additions per column (the
certificates are rational, so one column of eight), in place of
evaluating every monomial at every point (O(4^n) field additions).  The
support check reads these columns; it is exact and no float enters.
The brute-force symmetrization packs the coefficients and builds the
masks itself and walks the weight-k points one at a time, so it shares
nothing with the packed form or the transform.
``weight_certificate`` builds the matching upper-bound certificate, so
the certifying degree of |x| mod m is pinned from both sides.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping, Sequence, Union

from .algebra import AlgebraicNumber, _ratio
from .linalg import _pack, _pack_flat


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class HypothesisViolated(ValueError):
    """A theorem hypothesis does not hold for the given function."""


def _is_bit(v) -> bool:
    """True iff v is the int 0 or 1; 1.0 and True equal 1 but are not."""
    return type(v) is int and v in (0, 1)


def _point(x, n: int) -> int:
    """x, checked to be a point of {0,1}^n as its truth-table index: the
    int ``int(x_1...x_n, 2)``, so x_i is bit n - i."""
    if type(x) is not int or not 0 <= x < 1 << n:
        raise ValueError(f"{x!r} is not a point of {n} bits")
    return x


def _columns(entries: Sequence):
    """The packed coordinate columns of ``entries`` that are not all zero.

    Returns ([(coordinate, numerators in entry order)], common den), in
    lowest terms over all the entries.
    """
    flat, den = _pack_flat(entries)
    return [(c, col) for c in range(8) if any(col := flat[c::8])], den


class MultilinearPolynomial:
    """sum over S of a_S * prod_{i in S} x_i, variables indexed 1..n.

    ``coeffs`` maps each monomial's frozenset of variables to its nonzero
    coefficient.  The polynomial is also packed once, when it is made:
    the monomials in order of degree, each as its truth-table mask
    (variable i sets ``1 << (n - i)``), and the coordinate columns that
    are nonzero in some coefficient, as numerators over one common
    denominator in the same order.  The monomials of degree k are the
    slice ``lo:hi`` of each column, for ``_levels[k] == (lo, hi)``.
    """

    def __init__(self, n: int, coeffs: Mapping):
        if n < 0:
            raise ValueError(f"negative variable count: {n}")
        self.n = n
        # 1.0 and True equal the variable 1, and would pass the lookup.
        variables = itertools.chain.from_iterable(coeffs)
        if not {int}.issuperset(map(type, variables)):
            raise ValueError(f"variable out of range: not an int in 1..{n}")
        bit_of = {i: 1 << (n - i) for i in range(1, n + 1)}.__getitem__
        masks = {}
        clean = {}
        for subset, a in coeffs.items():
            s = frozenset(subset)
            try:
                masks[s] = sum(map(bit_of, s))
            except KeyError:
                raise ValueError(
                    f"variable out of range in {sorted(s)}") from None
            if not isinstance(a, AlgebraicNumber):
                a = AlgebraicNumber.from_rational(a)
            if s in clean:
                a = clean.pop(s) + a
            if not a.is_zero():
                clean[s] = a
        self.coeffs = clean
        order = sorted(self.coeffs, key=len)
        self._masks = tuple([masks[s] for s in order])
        self._cols, self._den = _columns([self.coeffs[s] for s in order])
        self._levels = {}
        lo = 0
        for k, group in itertools.groupby(order, len):
            hi = lo + len(list(group))
            self._levels[k] = (lo, hi)
            lo = hi

    @property
    def degree(self) -> int:
        """Degree of the zero polynomial is 0 here (it has no monomials)."""
        return max(self._levels, default=0)

    def eval(self, x: int) -> AlgebraicNumber:
        """The value at the point of {0,1}^n whose truth-table index is x,
        reduced once.

        Sums, per packed column, the numerators of the monomials whose
        mask lies inside the point's mask.
        """
        point = _point(x, self.n)
        inside = [mask & point == mask for mask in self._masks]
        out = [0] * 8
        for c, col in self._cols:
            out[c] = sum(itertools.compress(col, inside))
        return AlgebraicNumber._from_row(out, self._den)

    def __eq__(self, other):
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"MultilinearPolynomial(n={self.n}, terms={len(self.coeffs)})"


class UnivariatePolynomial:
    """Polynomial over Q(i, sqrt2, sqrt3); trailing zero coefficients dropped.

    ``coeffs`` holds the coefficients, constant term first.  They are
    also kept packed over one denominator, as the coordinate columns that
    are nonzero in some coefficient.
    """

    def __init__(self, coeffs: Sequence):
        cs = [c if isinstance(c, AlgebraicNumber)
              else AlgebraicNumber.from_rational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self._cols, self._den = _columns(cs)

    @property
    def degree(self) -> int:
        """Degree of the zero polynomial is taken as 0."""
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, t: Union[int, Fraction]) -> AlgebraicNumber:
        """The value at an exact rational t = p/q, reduced once.

        Horner's rule on each integer column gives sum_d c_d p^d q^(D-d),
        which is over den * q^D.
        """
        p, q = _ratio(t)
        out = [0] * 8
        for c, col in self._cols:
            acc = 0
            power = 1
            for x in reversed(col):
                acc = acc * p + x * power
                power *= q
            out[c] = acc
        return AlgebraicNumber._from_row(out, self._den * q ** self.degree)

    def __eq__(self, other):
        if not isinstance(other, UnivariatePolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self):
        return f"UnivariatePolynomial(degree={self.degree})"


def symmetrize(p: MultilinearPolynomial) -> UnivariatePolynomial:
    """The univariate q with q(k) = mean of p over weight-k inputs.

    Averaging over all variable permutations gives every degree-k monomial
    the same coefficient c_k = (sum of a_S over |S| = k) / C(n, k), and on
    0/1 inputs the degree-k part sums to C(|x|, k), so

        q(t) = sum_k c_k * t (t-1) ... (t-k+1) / k!.

    The weight 1/C(n, k) * 1/k! is (n-k)!/n!, so the sum of level k's
    slice of each packed column is scaled by the integer (n-k)! and every
    coefficient is over den * n!.
    """
    n = p.n
    out = [[0] * 8 for _ in range(p.degree + 1)]
    falling = [1]  # t(t-1)...(t-k+1) in the monomial basis
    for k in range(p.degree + 1):
        if k in p._levels:
            lo, hi = p._levels[k]
            scale = math.factorial(n - k)
            for c, col in p._cols:
                level = scale * sum(col[lo:hi])
                for row, f in zip(out, falling):
                    row[c] += f * level
        falling = _shift_mul(falling, -k)
    den = p._den * math.factorial(n)
    return UnivariatePolynomial(
        [AlgebraicNumber._from_row(row, den) for row in out])


def _shift_mul(poly, root):
    """Multiply an integer-coefficient polynomial by (t + root)."""
    out = [0] * (len(poly) + 1)
    for d, c in enumerate(poly):
        out[d] += c * root
        out[d + 1] += c
    return out


def _cube_values(p: MultilinearPolynomial):
    """p at every point of {0,1}^n: ({coordinate: 2^n numerators}, den).

    Item ``mask`` of a column is the point whose bit string, read with x_1
    as the most significant bit, is ``mask`` -- the truth-table order.
    Each packed column's numerators start at their monomials' masks and
    the subset-sum transform adds each into every point above it.  A
    coordinate that is zero in every coefficient is zero at every point
    and has no column.
    """
    cols = {}
    for c, nums in p._cols:
        col = [0] * (1 << p.n)
        for mask, x in zip(p._masks, nums):
            col[mask] = x
        _subset_sums(col)
        cols[c] = col
    return cols, p._den


def _subset_sums(col: list) -> None:
    """In place, ``col[mask]`` becomes the sum of col over submasks of mask.

    For each bit, every point with the bit set adds the point without it.
    The points with bit value s set are s strided slices (one per offset
    below s) or size / 2s contiguous blocks of s; the shorter list of
    slices is used, so no bit costs more than sqrt(size) slice steps.
    """
    size = len(col)
    s = 1
    while s < size:
        if 2 * s * s < size:
            for t in range(s):
                col[s + t::2 * s] = map(add, col[s + t::2 * s], col[t::2 * s])
        else:
            for lo in range(s, size, 2 * s):
                col[lo:lo + s] = map(add, col[lo:lo + s], col[lo - s:lo])
        s *= 2


def _weights(n: int) -> list:
    """Hamming weight of every point of {0,1}^n, in truth-table order."""
    return [x.bit_count() for x in range(1 << n)]


def symmetrize_bruteforce(p: MultilinearPolynomial, k: int) -> AlgebraicNumber:
    """Independent oracle: the literal average of p over all weight-k inputs.

    At each weight-k point, adds the row of every monomial whose variables
    are all set there, and reduces once over den * C(n, k); shares nothing
    with :func:`symmetrize` or the cube transform.  Raises DomainError for
    k outside 0..n, where there is no point to average over.
    """
    if not 0 <= k <= p.n:
        raise DomainError(f"weight k={k} outside 0..{p.n}")
    rows, den = _pack(list(p.coeffs.values()))
    masks = [sum(1 << i for i in s) for s in p.coeffs]
    total = [0] * 8
    for point in itertools.combinations(range(1, p.n + 1), k):
        ones = sum(1 << i for i in point)
        for mask, row in zip(masks, rows):
            if mask & ones == mask:
                total = list(map(add, total, row))
    return AlgebraicNumber._from_row(total, den * math.comb(p.n, k))


@dataclass(frozen=True)
class SymmetricFunctionSpec:
    """A symmetric Boolean function, given by its value at each weight 0..n."""

    n: int
    values: tuple

    def __post_init__(self):
        if (type(self.n) is not int or self.n < 0
                or len(self.values) != self.n + 1):
            raise ValueError(f"need an int n >= 0 and n + 1 weight values, "
                             f"got n={self.n!r} and {len(self.values)} values")
        if not all(map(_is_bit, self.values)):
            raise ValueError("weight values must be the ints 0 and 1")

    def eval(self, x: int) -> int:
        """The value at the point of {0,1}^n whose truth-table index is x."""
        return self.values[_point(x, self.n).bit_count()]

    def zero_weights(self) -> tuple:
        """Weights in 1..n at which the function vanishes."""
        return tuple(i for i in range(1, self.n + 1) if self.values[i] == 0)


def mod_m_spec(n: int, m: int) -> SymmetricFunctionSpec:
    """The n-bit function that is 1 iff the Hamming weight is 0 mod m."""
    if type(n) is not int or type(m) is not int or not 2 <= m <= n:
        raise DomainError(
            f"defined for ints 2 <= m <= n, got m={m!r}, n={n!r}")
    return SymmetricFunctionSpec(
        n, tuple(1 if w % m == 0 else 0 for w in range(n + 1)))


def weight_certificate(n: int, m: int) -> MultilinearPolynomial:
    """p(x) = prod over the zero weights w of |x| mod m of (x_1+...+x_n - w).

    Reduced with x_i^2 = x_i.  On the cube p depends only on t = |x|, and
    Newton's forward-difference formula P(t) = sum_k D^k P(0) C(t, k) for
    P(t) = prod (t - w) gives the coefficient D^k P(0) on every k-subset.
    Its degree is the number of zero weights, the lower bound itself.
    Each difference is made an AlgebraicNumber once and shared by all
    the subsets of its size.
    """
    zeros = mod_m_spec(n, m).zero_weights()
    level = [AlgebraicNumber.from_rational(d) for d in _forward_differences(
        [math.prod(t - w for w in zeros) for t in range(n + 1)])]
    return MultilinearPolynomial(n, {
        s: level[k] for k in range(n + 1) if level[k]
        for s in itertools.combinations(range(1, n + 1), k)})


def _forward_differences(values: Sequence[int]) -> list:
    """D^k P(0) for k = 0 .. len(values) - 1, where P(t) = values[t]."""
    diffs = list(values)
    out = []
    while diffs:
        out.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return out


def exact_degree(f: SymmetricFunctionSpec) -> int:
    """deg(f): the degree of f's multilinear representation; 0 if constant.

    A symmetric f is sum_k D^k F(0) * (sum of the k-variable monomials),
    where F(w) is f's value at weight w, as in :func:`weight_certificate`.
    So deg(f) is the index of the last nonzero forward difference, which
    is also the degree of the interpolant F(t) = sum_k D^k F(0) C(t, k).
    """
    diffs = _forward_differences(f.values)
    return max((k for k, d in enumerate(diffs) if d), default=0)


def is_nondeterministic_poly(p: MultilinearPolynomial, f) -> bool:
    """True iff p and f have the same support on the Boolean cube.

    ``f`` is a :class:`SymmetricFunctionSpec` or a truth table of 0/1
    entries whose index is ``int(x_1...x_n, 2)``, the same int the
    oracle holds for the input x.  A symmetric spec and a symmetric p
    are compared weight by weight (:func:`_weight_support`); any other
    p goes through the cube transform.
    """
    if isinstance(f, SymmetricFunctionSpec):
        if f.n != p.n:
            raise ValueError(f"size mismatch: {f.n} != {p.n}")
        support = _weight_support(p)
        if support is not None:
            return support == [v == 1 for v in f.values]
        table = [f.values[w] for w in _weights(p.n)]
    else:
        table = list(f)
        if len(table) != 2 ** p.n:
            raise ValueError(
                f"truth table size {len(table)} != 2^{p.n}")
        for i, v in enumerate(table):
            if not _is_bit(v):
                raise ValueError(f"truth table entry {i} is {v!r}, not 0 or 1")
    cols, _ = _cube_values(p)
    if not cols:
        return not any(table)
    return list(map(any, zip(*cols.values()))) == [v == 1 for v in table]


def _weight_support(p: MultilinearPolynomial):
    """[P(w) != 0 for w = 0..n] if p is symmetric, else None.

    p is symmetric when each of its levels k holds all C(n, k) monomials
    with one value per packed column, c_k.  Then p(x) = P(|x|) with
    P(w) = sum_k C(w, k) c_k, so P at the n + 1 weights is p's support
    on the whole cube.  The columns are the coordinates of one basis
    over Q, so P(w) is zero exactly when each column's sum is.
    """
    n = p.n
    levels = []
    for k, (lo, hi) in p._levels.items():
        row = [col[lo] for _, col in p._cols]
        if hi - lo != math.comb(n, k) or any(
                col[lo:hi].count(x) != hi - lo
                for (_, col), x in zip(p._cols, row)):
            return None
        levels.append((k, row))
    return [any(sum(math.comb(w, k) * row[j] for k, row in levels)
                for j in range(len(p._cols)))
            for w in range(n + 1)]


def ndeg_lower_bound(f: SymmetricFunctionSpec) -> int:
    """Number of vanishing weights: a lower bound on the certifying degree.

    Requires f to take value 1 on the all-zeros input.
    """
    if f.values[0] != 1:
        raise HypothesisViolated("requires value 1 at weight 0")
    return len(f.zero_weights())


def certificate_roundtrip(p: MultilinearPolynomial,
                          f: SymmetricFunctionSpec):
    """Symmetrize a support certificate and count the roots it certifies.

    Checks q = symmetrize(p) is nonzero at 0 and zero at every weight
    where f vanishes; returns (all checks passed, number of certified
    roots).  The root count never exceeds deg(p).
    """
    if f.values[0] != 1:
        raise HypothesisViolated("requires value 1 at weight 0")
    if not is_nondeterministic_poly(p, f):
        raise ValueError("polynomial support does not match the function")
    q = symmetrize(p)
    ok = not q.eval(0).is_zero()
    roots = 0
    for w in f.zero_weights():
        if q.eval(w).is_zero():
            roots += 1
        else:
            ok = False
    ok = ok and roots <= p.degree
    return ok, roots

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
one common denominator).  ``symmetrize`` sums each degree level's rows in
a plain loop and scales each level once.

Values on the whole Boolean cube come from one subset-sum (zeta)
transform per coordinate column that is nonzero in some coefficient: the
column's numerators are placed into a list of 2^n ints indexed by
bitmask, and for each variable every point with that bit set adds the
point without it, a slice at a time.  That is n * 2^(n-1) integer
additions per column (the certificates are rational, so one column of
eight), in place of evaluating every monomial at every point (O(4^n)
field additions).  The support check reads these columns; it is exact and
no float enters.  The brute-force symmetrization walks the weight-k
points one at a time instead, so it shares no code with the transform.
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

from .algebra import AlgebraicNumber, ZERO, _ratio
from .linalg import _pack


class DomainError(ValueError):
    """Argument outside the mathematical domain of the operation."""


class HypothesisViolated(ValueError):
    """A theorem hypothesis does not hold for the given function."""


def _as_bits(x) -> tuple:
    if isinstance(x, str):
        if any(c not in "01" for c in x):
            raise ValueError(f"not a bit string: {x!r}")
        return tuple(int(c) for c in x)
    return tuple(int(b) for b in x)


class MultilinearPolynomial:
    """sum over S of a_S * prod_{i in S} x_i, variables indexed 1..n."""

    def __init__(self, n: int, coeffs: Mapping):
        if n < 0:
            raise ValueError(f"negative variable count: {n}")
        self.n = n
        clean = {}
        for subset, a in coeffs.items():
            s = frozenset(subset)
            if any(not 1 <= i <= n for i in s):
                raise ValueError(f"variable out of range in {sorted(s)}")
            if not isinstance(a, AlgebraicNumber):
                a = AlgebraicNumber.from_rational(a)
            if not a.is_zero():
                clean[s] = clean[s] + a if s in clean else a
        self.coeffs = {s: a for s, a in clean.items() if not a.is_zero()}

    @property
    def degree(self) -> int:
        """Degree of the zero polynomial is 0 here (it has no monomials)."""
        return max((len(s) for s in self.coeffs), default=0)

    def eval(self, x) -> AlgebraicNumber:
        bits = _as_bits(x)
        if len(bits) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(bits)}")
        ones = {i + 1 for i, b in enumerate(bits) if b}
        total = ZERO
        for s, a in self.coeffs.items():
            if s <= ones:
                total = total + a
        return total

    def __eq__(self, other):
        if not isinstance(other, MultilinearPolynomial):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __repr__(self):
        return f"MultilinearPolynomial(n={self.n}, terms={len(self.coeffs)})"


class UnivariatePolynomial:
    """Polynomial over Q(i, sqrt2, sqrt3); trailing zero coefficients dropped."""

    def __init__(self, coeffs: Sequence):
        cs = [c if isinstance(c, AlgebraicNumber)
              else AlgebraicNumber.from_rational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree of the zero polynomial is taken as 0."""
        return max(len(self.coeffs) - 1, 0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval(self, t: Union[int, Fraction]) -> AlgebraicNumber:
        p, q = _ratio(t)
        t = p if q == 1 else Fraction(p, q)
        total = ZERO
        power = 1
        for c in self.coeffs:
            total = total + c * AlgebraicNumber.from_rational(power)
            power *= t
        return total

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
    """
    n = p.n
    out = [ZERO] * (p.degree + 1)
    rows, den = _pack(list(p.coeffs.values()))
    sizes = [len(s) for s in p.coeffs]
    level_sums = [[0] * 8 for _ in out]
    for k, row in zip(sizes, rows):
        level = level_sums[k]
        for c, x in enumerate(row):
            level[c] += x
    for k in set(sizes):
        # 1/C(n, k) for the average and 1/k! for the falling factorial.
        c_k = (AlgebraicNumber._from_row(level_sums[k], den)
               * AlgebraicNumber.from_rational(Fraction(1, math.perm(n, k))))
        # t(t-1)...(t-k+1) expanded in the monomial basis
        falling = [1]
        for j in range(k):
            falling = _shift_mul(falling, -j)
        for d, coef in enumerate(falling):
            out[d] = out[d] + c_k * AlgebraicNumber.from_rational(coef)
    return UnivariatePolynomial(out)


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
    as the most significant bit, is ``mask`` -- the truth-table order --
    so variable i sets bit ``1 << (n - i)``.  Each monomial's coefficient
    starts at its own mask and the subset-sum transform adds it into every
    point above it.  A coordinate that is zero in every coefficient is
    zero at every point and gets no column.
    """
    n = p.n
    masks = [sum(1 << (n - i) for i in s) for s in p.coeffs]
    rows, den = _pack(list(p.coeffs.values()))
    cols = {}
    for c, coords in enumerate(zip(*rows)):
        if any(coords):
            col = [0] * (1 << n)
            for mask, x in zip(masks, coords):
                col[mask] = x
            _subset_sums(col)
            cols[c] = col
    return cols, den


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
        if len(self.values) != self.n + 1:
            raise ValueError(
                f"need {self.n + 1} weight values, got {len(self.values)}")
        if any(v not in (0, 1) for v in self.values):
            raise ValueError("weight values must be bits")

    def eval(self, x) -> int:
        bits = _as_bits(x)
        if len(bits) != self.n:
            raise ValueError(f"expected {self.n} bits, got {len(bits)}")
        return self.values[sum(bits)]

    def zero_weights(self) -> tuple:
        """Weights in 1..n at which the function vanishes."""
        return tuple(i for i in range(1, self.n + 1) if self.values[i] == 0)


def mod_m_spec(n: int, m: int) -> SymmetricFunctionSpec:
    """The n-bit function that is 1 iff the Hamming weight is 0 mod m."""
    if not 2 <= m <= n:
        raise DomainError(
            f"defined for 2 <= m <= n, got m={m}, n={n}")
    return SymmetricFunctionSpec(
        n, tuple(1 if w % m == 0 else 0 for w in range(n + 1)))


def weight_certificate(n: int, m: int) -> MultilinearPolynomial:
    """p(x) = prod over the zero weights w of |x| mod m of (x_1+...+x_n - w).

    Reduced with x_i^2 = x_i.  On the cube p depends only on t = |x|, and
    Newton's forward-difference formula P(t) = sum_k D^k P(0) C(t, k) for
    P(t) = prod (t - w) gives the coefficient D^k P(0) on every k-subset.
    Its degree is the number of zero weights, the lower bound itself.
    """
    zeros = mod_m_spec(n, m).zero_weights()
    diffs = [math.prod(t - w for w in zeros) for t in range(n + 1)]
    level = []
    while diffs:
        level.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    return MultilinearPolynomial(n, {
        s: level[k] for k in range(n + 1) if level[k]
        for s in itertools.combinations(range(1, n + 1), k)})


def is_nondeterministic_poly(p: MultilinearPolynomial, f) -> bool:
    """True iff p and f have the same support on the Boolean cube.

    ``f`` is a :class:`SymmetricFunctionSpec` or a truth table of 0/1
    entries indexed by the input read as a binary number, x_1 first.
    """
    if isinstance(f, SymmetricFunctionSpec):
        if f.n != p.n:
            raise ValueError(f"size mismatch: {f.n} != {p.n}")
        table = [f.values[w] for w in _weights(p.n)]
    else:
        table = list(f)
        if len(table) != 2 ** p.n:
            raise ValueError(
                f"truth table size {len(table)} != 2^{p.n}")
        for i, v in enumerate(table):
            if v not in (0, 1):
                raise ValueError(f"truth table entry {i} is {v!r}, not 0 or 1")
    cols, _ = _cube_values(p)
    if not cols:
        return not any(table)
    return list(map(any, zip(*cols.values()))) == [v == 1 for v in table]


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

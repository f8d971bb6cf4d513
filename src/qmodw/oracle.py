"""Phase-oracle access to a hidden bit string, with query counting.

The hidden input is written once at construction and is reachable only
through :func:`phase_apply` (a block-restricted phase query) and
:func:`query_bit` (a classical single-bit read).  Both cost exactly one
query.  The oracle may act on extra trailing "padding" dimensions where it
is the identity; such queries still count.

Indices are 1-based, matching the convention x = x_1 x_2 ... x_n.  The
oracle keeps the string as the int ``int(x_1...x_n, 2)``, so x_i is bit
n - i: the one format of an input throughout the package, and the index
of x in a truth table.  It is built from the string, which
``CountingOracle(bits)`` checks is a ``str`` of 0s and 1s and parses
once, or from that int and n,
which :meth:`CountingOracle.from_int` checks are ints with the value in
[0, 2^n): the sweep carries its inputs as these ints and never builds a
string for a passing one.  No method hands the int back.  Each query is
logged compactly, as the view itself or the index read;
:attr:`CountingOracle.transcript` expands the log into fresh dicts on
every read, and the query count is the log's length.

A :class:`BlockView` is immutable and holds no hidden data, so
:func:`block_view` interns views by ``(map, padding)``: its duplicate
check, its index range and its sign table are built once per distinct
view, not once per query.  A view does not depend on n: the sign table
maps each of the 2^k values of ``hidden >> (n - view.hi) & view.mask``
for a view of k indices to the local rows that value flips, so a query
finds its rows with one shift, one AND and one lookup.

The sign-flipped states are memoised by ``(input state, flipped local
rows)``: the rows are the local sign pattern, never global indices, so
the memo says nothing about which input it was filled from.
:meth:`CountingOracle.phase_apply` reads and fills it only after the
query has been counted and logged, so a repeated query still costs a
query and returns the stored state without negating again.  A state is
the one live object of its value (see :mod:`qmodw.linalg`), so an equal
state built elsewhere finds the same entry.

Both memos are ``functools.lru_cache`` tables of at most
``linalg._APPLY_MEMO_CAP`` entries (a full one drops its least recently
used entry), and ``cache_info()`` reports their hits and misses.  A view
that fails its check raises and is never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .linalg import _APPLY_MEMO_CAP, StateVector


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def _flipped(v: StateVector, rows: tuple) -> StateVector:
    """``v`` with ``rows`` negated, memoised."""
    return v._negated(rows)


@dataclass(frozen=True)
class BlockView:
    """Maps local state dimensions to global input indices.

    Local dimension j (0-based, j < len(map)) carries the phase of input
    bit ``map[j]``; the last ``padding`` dimensions are untouched.  The
    map is stored as a tuple; ``lo`` and ``hi`` are its least and greatest
    index (1 and 0 for an empty map), so a query checks the range with two
    comparisons.  ``mask`` has bit ``hi - i`` set for each index i, which
    is where x_i lands once the input is shifted right by ``n - hi``, and
    ``_flips`` maps each value of the shifted input AND ``mask`` to the
    tuple of local rows whose bits it sets, in increasing order.  The
    table has 2^k entries for k indices, so views are meant to be small:
    the circuits use two and three.
    """

    map: tuple
    padding: int = 0
    lo: int = field(init=False, repr=False, compare=False)
    hi: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    mask: int = field(init=False, repr=False, compare=False)
    _flips: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        indices = tuple(self.map)
        if len(set(indices)) != len(indices):
            raise ValueError(f"duplicate indices in view: {indices}")
        if self.padding < 0:
            raise ValueError("negative padding")
        put = object.__setattr__
        put(self, "map", indices)
        put(self, "lo", min(indices, default=1))
        put(self, "hi", max(indices, default=0))
        put(self, "dim", len(indices) + self.padding)
        # A view with an index below 1 gets no bits and an empty table:
        # phase_apply rejects it before the lookup.
        mask = 0
        flips = {}
        if self.lo >= 1:
            flips[0] = ()
            for j, i in enumerate(indices):
                bit = 1 << (self.hi - i)
                mask |= bit
                flips.update([(key | bit, rows + (j,))
                              for key, rows in flips.items()])
        put(self, "mask", mask)
        put(self, "_flips", flips)


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def block_view(map: tuple, padding: int = 0) -> BlockView:
    """The interned view of the tuple ``map`` with ``padding``."""
    return BlockView(map, padding)


class CountingOracle:
    """The only channel to the hidden input string."""

    __slots__ = ("_n", "_hidden", "_log")

    def __init__(self, bits: str):
        if type(bits) is not str or bits.strip("01"):
            raise ValueError(f"not a bit string: {bits!r}")
        self._n = len(bits)
        self._hidden = int(bits, 2) if bits else 0
        # One entry per query: the BlockView of a phase query, the index
        # of a bit read.
        self._log = []

    @classmethod
    def from_int(cls, hidden: int, n: int) -> "CountingOracle":
        """The oracle of the n-bit input ``hidden == int(x_1...x_n, 2)``,
        so x_i is bit n - i; ValueError unless both are ints, n >= 0 and
        0 <= hidden < 2^n."""
        if type(n) is not int or n < 0:
            raise ValueError(f"not a length: {n!r}")
        if type(hidden) is not int or not 0 <= hidden < 1 << n:
            raise ValueError(f"{hidden!r} is not an input of {n} bits")
        oracle = object.__new__(cls)
        oracle._n = n
        oracle._hidden = hidden
        oracle._log = []
        return oracle

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        return len(self._log)

    @property
    def transcript(self) -> list:
        """Ordered query log: fresh dicts with kind, indices, running count."""
        out = []
        for count, entry in enumerate(self._log, 1):
            if isinstance(entry, BlockView):
                out.append({"kind": "phase", "indices": list(entry.map),
                            "padding": entry.padding, "count": count})
            else:
                out.append({"kind": "bit", "indices": [entry],
                            "count": count})
        return out

    def _index_error(self, i: int) -> IndexError:
        return IndexError(f"index {i} out of range [1, {self._n}]")

    def phase_apply(self, view: BlockView, v: StateVector) -> StateVector:
        """One phase query: entry j picks up (-1)^{x_map[j]}; padding is untouched."""
        n = self._n
        if view.lo < 1 or view.hi > n:
            raise self._index_error(
                next(i for i in view.map if not 1 <= i <= n))
        if v.dim != view.dim:
            raise ValueError(
                f"state dim {v.dim} != view dim {view.dim}")
        self._log.append(view)
        return _flipped(v, view._flips[self._hidden >> (n - view.hi)
                                       & view.mask])

    def query_bit(self, i: int) -> int:
        """Classical read of bit x_i; costs one query."""
        if not 1 <= i <= self._n:
            raise self._index_error(i)
        self._log.append(i)
        return self._hidden >> (self._n - i) & 1

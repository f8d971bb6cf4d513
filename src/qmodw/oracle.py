"""Phase-oracle access to a hidden bit string, with query counting.

The hidden input is written once at construction and is reachable only
through :func:`phase_apply` (a block-restricted phase query) and
:func:`query_bit` (a classical single-bit read).  Both cost exactly one
query.  The oracle may act on extra trailing "padding" dimensions where it
is the identity; such queries still count.

Indices are 1-based, matching the convention x = x_1 x_2 ... x_n.  The
oracle keeps the string as an int whose bit i - 1 is x_i, so the rows a
query flips come from bit tests.  Each query is logged compactly, as the
view itself or the index read; :attr:`CountingOracle.transcript` expands
the log into fresh dicts on every read, and the query count is the log's
length.

A :class:`BlockView` is immutable and holds no hidden data, so
:func:`block_view` interns views by ``(map, padding)``: its duplicate
check and its index range run once per distinct view, not once per
query.

The sign-flipped states are interned by ``(input state, flipped local
rows)``: the rows are the local sign pattern, never global indices, so
the memo says nothing about which input it was filled from.
:meth:`CountingOracle.phase_apply` reads and fills it only after the
query has been counted and logged, so a repeated query still costs a
query and returns the stored state, on which the circuit memos then hit
by identity.

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
    """``v`` with ``rows`` negated, interned."""
    return v._negated(rows)


@dataclass(frozen=True)
class BlockView:
    """Maps local state dimensions to global input indices.

    Local dimension j (0-based, j < len(map)) carries the phase of input
    bit ``map[j]``; the last ``padding`` dimensions are untouched.  The
    map is stored as a tuple; ``lo`` and ``hi`` are its least and greatest
    index (1 and 0 for an empty map), so a query checks the range with two
    comparisons, and ``masks`` pairs each local row with the bit of its
    index, so the rows a query flips come from one AND each.
    """

    map: tuple
    padding: int = 0
    lo: int = field(init=False, repr=False, compare=False)
    hi: int = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    masks: tuple = field(init=False, repr=False, compare=False)

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
        # An index below 1 gets no bit: phase_apply rejects the view first.
        put(self, "masks", tuple((j, 1 << (i - 1) if i > 0 else 0)
                                 for j, i in enumerate(indices)))


@lru_cache(maxsize=_APPLY_MEMO_CAP)
def block_view(map: tuple, padding: int = 0) -> BlockView:
    """The interned view of the tuple ``map`` with ``padding``."""
    return BlockView(map, padding)


class CountingOracle:
    """The only channel to the hidden input string."""

    def __init__(self, bits: str):
        if bits.strip("01"):
            raise ValueError(f"not a bit string: {bits!r}")
        self._n = len(bits)
        # Bit i - 1 holds x_i.
        self._hidden = int(bits[::-1], 2) if bits else 0
        # One entry per query: the BlockView of a phase query, the index
        # of a bit read.
        self._log = []

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
        hidden = self._hidden
        return _flipped(v, tuple([j for j, bit in view.masks if hidden & bit]))

    def query_bit(self, i: int) -> int:
        """Classical read of bit x_i; costs one query."""
        if not 1 <= i <= self._n:
            raise self._index_error(i)
        self._log.append(i)
        return self._hidden >> (i - 1) & 1

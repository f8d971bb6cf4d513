"""Phase-oracle access to a hidden bit string, with query counting.

The hidden input is written once at construction and is reachable only
through :func:`phase_apply` (a block-restricted phase query) and
:func:`query_bit` (a classical single-bit read).  Both cost exactly one
query.  The oracle may act on extra trailing "padding" dimensions where it
is the identity; such queries still count.

Indices are 1-based, matching the convention x = x_1 x_2 ... x_n.

The sign-flipped states are interned in one module-private table keyed on
``(input state, flipped local rows)``: the rows are the local sign
pattern, never global indices, so the table says nothing about which
input it was filled from.  :meth:`CountingOracle.phase_apply` reads and
fills it only after the query has been counted and logged, so a repeated
query still costs a query and returns the stored state, on which the
circuit memos then hit by identity.  The table holds at most
``linalg._APPLY_MEMO_CAP`` entries; once full, further flips are built
with ``StateVector._negated`` and not stored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import _APPLY_MEMO_CAP, StateVector

# (input state, tuple of flipped local rows) -> the flipped state.
_FLIPS = {}


def _flipped(v: StateVector, rows: tuple) -> StateVector:
    """``v`` with ``rows`` negated, interned in the flip table."""
    key = v, rows
    out = _FLIPS.get(key)
    if out is None:
        out = v._negated(rows)
        if len(_FLIPS) < _APPLY_MEMO_CAP:
            _FLIPS[key] = out
    return out


@dataclass(frozen=True)
class BlockView:
    """Maps local state dimensions to global input indices.

    Local dimension j (0-based, j < len(map)) carries the phase of input
    bit ``map[j]``; the last ``padding`` dimensions are untouched.
    """

    map: tuple
    padding: int = 0

    def __post_init__(self):
        if len(set(self.map)) != len(self.map):
            raise ValueError(f"duplicate indices in view: {self.map}")
        if self.padding < 0:
            raise ValueError("negative padding")

    @property
    def dim(self) -> int:
        return len(self.map) + self.padding


class CountingOracle:
    """The only channel to the hidden input string."""

    def __init__(self, bits: str):
        if not all(c in "01" for c in bits):
            raise ValueError(f"not a bit string: {bits!r}")
        self._hidden = tuple(int(c) for c in bits)
        self._n = len(self._hidden)
        self._queries = 0
        self._transcript = []

    @property
    def n(self) -> int:
        return self._n

    @property
    def query_count(self) -> int:
        return self._queries

    @property
    def transcript(self) -> list:
        """Ordered query log: dicts with kind, indices, running count."""
        return list(self._transcript)

    def _check_index(self, i: int):
        if not 1 <= i <= self._n:
            raise IndexError(f"index {i} out of range [1, {self._n}]")

    def phase_apply(self, view: BlockView, v: StateVector) -> StateVector:
        """One phase query: entry j picks up (-1)^{x_map[j]}; padding is untouched."""
        n = self._n
        for i in view.map:
            if not 1 <= i <= n:
                raise IndexError(f"index {i} out of range [1, {n}]")
        if v.dim != view.dim:
            raise ValueError(
                f"state dim {v.dim} != view dim {view.dim}")
        hidden = self._hidden
        flipped = tuple([j for j, i in enumerate(view.map) if hidden[i - 1]])
        self._queries += 1
        self._transcript.append(
            {"kind": "phase", "indices": list(view.map),
             "padding": view.padding, "count": self._queries})
        return _flipped(v, flipped)

    def query_bit(self, i: int) -> int:
        """Classical read of bit x_i; costs one query."""
        self._check_index(i)
        self._queries += 1
        self._transcript.append(
            {"kind": "bit", "indices": [i], "count": self._queries})
        return self._hidden[i - 1]

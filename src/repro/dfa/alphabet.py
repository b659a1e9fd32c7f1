"""Input-alphabet data reduction (paper §4).

The paper shrinks the state-transition table by folding the 256-value byte
range onto a 32-symbol alphabet — "e.g. the 32 values from 0x40 to 0x5F,
which comprise the uppercase Latin alphabet plus other 6 characters" — since
most security filters are case-insensitive anyway.  Folding happens *before*
the DFA: both the dictionary and the input stream pass through the same
fold, so matching is exact in folded space (collisions introduced by the
fold are a property of the filter, not of the engine).

:class:`FoldMap` is the general mechanism; :func:`case_fold_32` builds the
paper's example fold, and :func:`identity_fold` the trivial full-byte one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

__all__ = ["FoldMap", "case_fold_32", "identity_fold", "fold_from_classes"]


@dataclass(frozen=True)
class FoldMap:
    """A byte → symbol reduction: 256-entry table onto ``width`` symbols."""

    table: Tuple[int, ...]
    width: int

    def __post_init__(self) -> None:
        if len(self.table) != 256:
            raise ValueError("fold table must have 256 entries")
        if self.width <= 0 or self.width > 256:
            raise ValueError("fold width must be in 1..256")
        bad = [s for s in self.table if not 0 <= s < self.width]
        if bad:
            raise ValueError(
                f"fold table maps outside [0, {self.width}): {bad[:4]}...")
        # The table as ``bytes.translate``'s argument: the fold of a
        # packet-sized input is one C call, no array round trip.
        object.__setattr__(self, "_translate", bytes(self.table))

    # -- application -----------------------------------------------------------

    def fold_byte(self, b: int) -> int:
        return self.table[b]

    def fold_bytes(self, data: bytes) -> bytes:
        """Fold an input stream; result bytes are symbol ids < width."""
        return bytes(data).translate(self._translate)

    def fold_symbols(self, data: bytes) -> np.ndarray:
        """Fold to a numpy array of symbol ids (for the numpy engine)."""
        arr = np.frombuffer(data, dtype=np.uint8)
        return self.np_table[arr]

    @property
    def np_table(self) -> np.ndarray:
        # Frozen dataclass: stash the computed array on the instance via
        # object.__setattr__ (an id()-keyed cache would go stale when ids
        # are recycled after garbage collection).
        cached = getattr(self, "_np_table", None)
        if cached is None:
            cached = np.asarray(self.table, dtype=np.uint8)
            object.__setattr__(self, "_np_table", cached)
        return cached

    # -- analysis ----------------------------------------------------------------

    def preimage(self, symbol: int) -> Tuple[int, ...]:
        """All byte values folding onto ``symbol``."""
        return tuple(b for b in range(256) if self.table[b] == symbol)

    def collision_count(self) -> int:
        """Number of byte values sharing a symbol with another byte."""
        from collections import Counter
        counts = Counter(self.table)
        return sum(c for c in counts.values() if c > 1)

    def is_identity(self) -> bool:
        return self.width == 256 and all(
            self.table[b] == b for b in range(256))


def case_fold_32() -> FoldMap:
    """The paper's 32-symbol case-insensitive fold.

    Bytes 0x40–0x5F (``@``, ``A``–``Z``, ``[``, ``\\``, ``]``, ``^``, ``_``)
    map to symbols 0–31 directly; lowercase letters fold onto their
    uppercase symbol; every other byte maps to symbol 0 (the ``@`` bucket).
    """
    table = [0] * 256
    for b in range(0x40, 0x60):
        table[b] = b - 0x40
    for b in range(ord("a"), ord("z") + 1):
        table[b] = (b - 0x20) - 0x40
    return FoldMap(tuple(table), 32)


def identity_fold(width: int = 256) -> FoldMap:
    """No reduction: byte b maps to symbol b (bytes >= width map to 0).

    With ``width=256`` this is the unfolded full-byte alphabet; smaller
    widths keep the low byte values and bucket the rest, which is handy for
    alphabet-width ablations.
    """
    table = [b if b < width else 0 for b in range(256)]
    return FoldMap(tuple(table), width)


def fold_from_classes(classes: Sequence[Iterable[int]],
                      default: int = 0) -> FoldMap:
    """Build a fold from explicit byte classes.

    ``classes[i]`` lists the byte values mapping to symbol ``i``; bytes in
    no class map to ``default``.  Raises if a byte appears in two classes.
    """
    width = len(classes)
    if width == 0:
        raise ValueError("at least one class required")
    if not 0 <= default < width:
        raise ValueError("default symbol outside alphabet")
    table = [default] * 256
    seen: Dict[int, int] = {}
    for sym, members in enumerate(classes):
        for b in members:
            if not 0 <= b < 256:
                raise ValueError(f"byte value {b} out of range")
            if b in seen:
                raise ValueError(
                    f"byte {b} assigned to classes {seen[b]} and {sym}")
            seen[b] = sym
            table[b] = sym
    return FoldMap(tuple(table), width)

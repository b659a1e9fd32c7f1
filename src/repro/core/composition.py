"""Tile composition: "in series", "in parallel", and mixed (paper §5).

A single DFA tile gives 5.11 Gbps and ~1500 states.  Applications that need
more combine tiles:

* **parallel** — identical tiles (same STT) on disjoint slices of the
  input; throughput multiplies (Figure 6a).  Slices overlap by the longest
  pattern minus one byte so matches crossing a boundary are still seen;
  matches are deduplicated by end position so nothing is counted twice.
* **series** — tiles with *different* STTs (dictionary slices) all scanning
  the same input; dictionary size multiplies, throughput is unchanged
  (Figure 6b).
* **mixed** — parallel groups of series chains: both at once (Figure 7).

:class:`TileComposition` is both a *model* (SPE budget, aggregate Gbps,
dictionary capacity — the numbers of Figures 6/7 and the 40.88 Gbps
8-SPE headline) and a *functional matcher* (scans real input through every
series slice with exact boundary handling, validated against a monolithic
DFA over the whole dictionary).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cell.processor import NUM_SPES
from ..dfa.automaton import DFA, DFAError, MatchEvent
from ..dfa.partition import PartitionedDictionary, partition_patterns
from .scan.driver import VectorDFAEngine

__all__ = ["TileComposition", "CompositionError", "CompositionReport",
           "parallel", "series", "mixed"]


class CompositionError(Exception):
    """Raised for infeasible compositions (SPE budget, empty groups)."""


@dataclass
class CompositionReport:
    """Result of scanning a block through a composition."""

    total_matches: int
    matches_per_slice: List[int]
    ways: int
    slices: int

    @property
    def spes_used(self) -> int:
        return self.ways * self.slices


class TileComposition:
    """``ways`` parallel groups × ``len(dfas)`` series tiles per group.

    ``ways=1, len(dfas)=1`` is a single tile; ``ways=k`` multiplies
    throughput; multiple ``dfas`` multiply dictionary size.
    """

    def __init__(self, dfas: Sequence[DFA], ways: int = 1,
                 overlap: Optional[int] = None,
                 max_spes: int = NUM_SPES) -> None:
        if not dfas:
            raise CompositionError("at least one series slice required")
        if ways < 1:
            raise CompositionError("ways must be >= 1")
        widths = {d.alphabet_size for d in dfas}
        if len(widths) != 1:
            raise CompositionError(
                f"series slices disagree on alphabet width: {widths}")
        self.dfas = list(dfas)
        self.ways = ways
        self.max_spes = max_spes
        if self.spes_used > max_spes:
            raise CompositionError(
                f"{self.spes_used} tiles needed but only {max_spes} SPEs "
                f"available (ways={ways} × slices={len(dfas)})")
        self._engines = [VectorDFAEngine(d) for d in self.dfas]
        if overlap is None:
            overlap = self._default_overlap()
        if overlap < 0:
            raise CompositionError("overlap must be non-negative")
        self.overlap = overlap

    @classmethod
    def from_compiled(cls, compiled, ways: int = 1,
                      overlap: Optional[int] = None,
                      max_spes: int = NUM_SPES) -> "TileComposition":
        """Deploy a :class:`~repro.core.compiled.CompiledDictionary`'s
        slices as series tiles (× ``ways`` parallel groups)."""
        return cls(list(compiled.dfas), ways=ways, overlap=overlap,
                   max_spes=max_spes)

    def _default_overlap(self) -> int:
        """Longest pattern length − 1: the minimal overlap that catches
        every boundary-crossing match.  Derived from the deepest final
        state (= length of the longest dictionary entry for Aho–Corasick
        automata); regex slices should pass ``overlap`` explicitly."""
        deepest = 0
        for dfa in self.dfas:
            # Depth of a state = shortest path from start; for a trie-based
            # automaton the deepest final state equals the longest pattern.
            depth = _max_final_depth(dfa)
            deepest = max(deepest, depth)
        return max(0, deepest - 1)

    # -- model ----------------------------------------------------------------

    @property
    def spes_used(self) -> int:
        return self.ways * len(self.dfas)

    @property
    def total_states(self) -> int:
        return sum(d.num_states for d in self.dfas)

    def throughput_gbps(self, per_tile_gbps: float) -> float:
        """Aggregate filtered bitrate: parallel ways multiply; series
        slices scan the same bytes concurrently and do not reduce it."""
        if per_tile_gbps <= 0:
            raise CompositionError("per-tile throughput must be positive")
        return self.ways * per_tile_gbps

    def describe(self, per_tile_gbps: float = 5.11) -> str:
        return (f"{self.ways} parallel group(s) × {len(self.dfas)} series "
                f"tile(s) = {self.spes_used} SPEs; "
                f"{self.total_states} total states; "
                f"{self.throughput_gbps(per_tile_gbps):.2f} Gbps")

    # -- functional matching -----------------------------------------------------

    def scan_block(self, block: bytes) -> CompositionReport:
        """Match ``block`` against the full (union) dictionary.

        The block is sliced ``ways`` ways with ``overlap`` bytes of lead-in
        (paper §5); each slice is scanned by every series engine.  Matches
        are attributed by end position to exactly one slice, so the result
        equals a monolithic scan.
        """
        per_slice = [0] * len(self.dfas)
        n = len(block)
        if n == 0:
            return CompositionReport(0, per_slice, self.ways, len(self.dfas))
        base = -(-n // self.ways)
        for w in range(self.ways):
            lo = w * base
            hi = min(n, lo + base)
            if lo >= n:
                break
            lead = min(self.overlap, lo)
            piece = block[lo - lead:hi]
            for si, engine in enumerate(self._engines):
                per_slice[si] += _count_with_leadin(engine, piece, lead)
        return CompositionReport(sum(per_slice), per_slice, self.ways,
                                 len(self.dfas))

    def scan_streams(self, streams: Sequence[bytes]) -> CompositionReport:
        """Match independent streams (each scanned whole; parallel ways
        model throughput only, no slicing needed)."""
        per_slice = [0] * len(self.dfas)
        for si, engine in enumerate(self._engines):
            res = engine.run_streams(streams)
            per_slice[si] += res.total
        return CompositionReport(sum(per_slice), per_slice, self.ways,
                                 len(self.dfas))


def _count_with_leadin(engine: VectorDFAEngine, piece: bytes,
                       lead: int) -> int:
    """Count matches in ``piece`` whose end position falls after the
    ``lead`` overlap bytes (events ending inside the lead-in belong to the
    previous slice)."""
    if not piece:
        return 0
    total = engine.count_block(piece)
    if lead == 0:
        return total
    # Matches ending within the lead-in are exactly the matches of the
    # lead-in prefix scanned alone.
    prefix = engine.count_block(piece[:lead])
    return total - prefix


def _max_final_depth(dfa: DFA) -> int:
    """Shortest-path depth of the deepest final state (BFS)."""
    from collections import deque
    dist = {dfa.start: 0}
    queue = deque([dfa.start])
    deepest = 0
    while queue:
        s = queue.popleft()
        for t in np.unique(dfa.transitions[s]):
            t = int(t)
            if t not in dist:
                dist[t] = dist[s] + 1
                queue.append(t)
    for f in dfa.finals:
        if f in dist:
            deepest = max(deepest, dist[f])
    return deepest


# -- convenience constructors ------------------------------------------------------


def parallel(dfa: DFA, ways: int, overlap: Optional[int] = None,
             max_spes: int = NUM_SPES) -> TileComposition:
    """Figure 6(a): identical tiles on disjoint input slices."""
    return TileComposition([dfa], ways=ways, overlap=overlap,
                           max_spes=max_spes)


def series(dfas: Sequence[DFA], overlap: Optional[int] = None,
           max_spes: int = NUM_SPES) -> TileComposition:
    """Figure 6(b): distinct dictionary slices over the same input."""
    return TileComposition(dfas, ways=1, overlap=overlap, max_spes=max_spes)


def mixed(dfas: Sequence[DFA], ways: int, overlap: Optional[int] = None,
          max_spes: int = NUM_SPES) -> TileComposition:
    """Figure 7: parallel groups of series chains."""
    return TileComposition(dfas, ways=ways, overlap=overlap,
                           max_spes=max_spes)

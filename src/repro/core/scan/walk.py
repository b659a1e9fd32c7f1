"""The scalar walk: one stream, one pointer chase per symbol.

The paper runs a single stream as ``state = STT[state][symbol]`` with
the final flag in the pointer's low bits (§4, Figure 4; Table 1
version 1); lockstep SIMD pays off only across independent streams.
On the host that loop is fastest over Python row lists: every cell
holds the destination's pointer, and a pointer is the state id, minus
the state count when the state is final.  Python's negative indexing
lands on the same row, so the final flag rides in the sign bit and a
non-final step costs two subscripts and a compare.

Every single-stream path runs this walk over a compiled dictionary's
slice DFAs (:meth:`~repro.core.compiled.CompiledDictionary.walks`):
flow sessions, the ``serial`` backend and the policy layer's
attribution replay.  Inputs are *folded* symbols.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ...dfa.automaton import DFA

__all__ = ["SliceWalk"]


class SliceWalk:
    """One slice DFA laid out for the scalar walk.

    ``rows[p][symbol]`` is the next pointer.  The per-state pointer is
    one shared int object, so the rows cost one list of references per
    state.  ``weights[p]`` is the number of dictionary entries
    recognized on entering a final pointer's state (``len(outputs)``,
    or 1 for a final state without outputs) — the block kernels' count.
    """

    __slots__ = ("rows", "weights", "outputs", "num_states", "start")

    def __init__(self, dfa: DFA) -> None:
        size = dfa.num_states
        pointers = np.arange(size, dtype=np.int64)
        pointers[dfa.final_mask] -= size
        self.rows: List[List[int]] = \
            pointers.astype(object)[dfa.transitions].tolist()
        weights = [0] * size
        for state in np.flatnonzero(dfa.final_mask).tolist():
            weights[state] = len(dfa.outputs.get(state, ())) or 1
        self.weights = weights
        self.outputs = dfa.outputs
        self.num_states = size
        self.start = dfa.start

    def count(self, state: int, folded: bytes) -> Tuple[int, int]:
        """Walk ``folded`` from ``state``; returns ``(exit state,
        weighted match count)``."""
        rows = self.rows
        weights = self.weights
        p = state
        matches = 0
        for symbol in folded:
            p = rows[p][symbol]
            if p < 0:
                matches += weights[p]
        return p % self.num_states, matches

    def events(self, state: int, folded: bytes) -> List[Tuple[int, int]]:
        """Walk ``folded`` from ``state``; returns ``(end, local
        pattern)`` per recognized entry, ``end`` one past its last
        symbol."""
        rows = self.rows
        outputs = self.outputs
        size = self.num_states
        p = state
        found: List[Tuple[int, int]] = []
        for end, symbol in enumerate(folded, 1):
            p = rows[p][symbol]
            if p < 0:
                for local in outputs.get(p + size, ()):
                    found.append((end, local))
        return found

"""Hot/cold split of the union automaton (the union kernel's base layer).

One union AC automaton advances every dictionary slice at once; its
states are ranked hottest-first, the frequently-visited rows are packed
into a compact hot table and the rest spill to a
:class:`~repro.core.compressed.ColdRowStore`.  The pair-symbol scan in
:mod:`.hotcold2` — the one union kernel — is layered on this table: it
reads the visit order, the weight layout and the per-slice projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...dfa.automaton import DFAError
from ..compressed import ColdRowStore
from .base import HOT_BUDGET_BYTES


def visit_order(transitions: np.ndarray, start: int,
                fold_table: Optional[np.ndarray] = None,
                iters: int = 12, damping: float = 0.15
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic hotness ranking of DFA states.

    Runs a damped power iteration of the DFA's transition graph under
    the per-symbol probabilities implied by the fold (a symbol's weight
    is the number of byte values folding to it, i.e. the stationary
    distribution of a uniformly random *byte* stream).  Inputs are not
    uniform, but what the ranking must get right is only the split into
    "visited constantly" (the failure-closed neighborhood of the start
    state) versus "visited while matching" — and that split is a
    structural property of security DFAs, not of the corpus.  Being
    input-free keeps the ranking a pure function of the compiled
    dictionary, so it can be persisted in the artifact cache.

    Returns ``(order, mass)``: states sorted hottest-first with
    ``start`` forced to the front, and the stationary mass per state.
    """
    trans = np.asarray(transitions, dtype=np.int64)
    n, width = trans.shape
    if fold_table is not None:
        probs = np.bincount(np.asarray(fold_table, dtype=np.int64),
                            minlength=width).astype(np.float64)
        probs /= max(probs.sum(), 1.0)
    else:
        probs = np.full(width, 1.0 / width)
    restart = np.zeros(n, dtype=np.float64)
    restart[int(start)] = 1.0
    v = restart.copy()
    targets = trans.reshape(-1)
    for _ in range(int(iters)):
        contrib = (v[:, None] * probs[None, :]).reshape(-1)
        v = np.bincount(targets, weights=contrib, minlength=n)
        v = (1.0 - damping) * v + damping * restart
    order = np.argsort(-v, kind="stable").astype(np.int64)
    order = np.concatenate(([int(start)], order[order != int(start)]))
    return order, v


def project_states(union_trans: np.ndarray, union_start: int,
                   slice_trans: np.ndarray, slice_start: int) -> np.ndarray:
    """Map every union-automaton state to its image in one slice DFA.

    For Aho–Corasick automata the state reached by a string is its
    longest suffix that is a pattern prefix.  A suffix of a union
    state's canonical string that is a *slice* prefix is also a union
    prefix, hence itself a suffix of the union state's canonical string
    — so the slice state reached by *any* string arriving at union
    state ``s`` is the same, and the map ``img`` is well defined.  It
    satisfies ``img[union_trans[s, c]] == slice_trans[img[s], c]``,
    which is exactly the BFS recurrence used here.
    """
    union_trans = np.asarray(union_trans, dtype=np.int64)
    slice_trans = np.asarray(slice_trans, dtype=np.int64)
    n = union_trans.shape[0]
    img = np.full(n, -1, dtype=np.int64)
    img[int(union_start)] = int(slice_start)
    frontier = np.asarray([int(union_start)], dtype=np.int64)
    while frontier.size:
        targets = union_trans[frontier].reshape(-1)
        cand = slice_trans[img[frontier]].reshape(-1)
        fresh = np.nonzero(img[targets] < 0)[0]
        if fresh.size == 0:
            break
        t, first = np.unique(targets[fresh], return_index=True)
        img[t] = cand[fresh][first]
        frontier = t
    # Unreachable union states have no canonical string; any image is
    # consistent (they never occur in a scan).
    img[img < 0] = int(slice_start)
    return img


@dataclass
class HotColdFusedTable:
    """Hot/cold split of the union automaton's flag-encoded table.

    The paper's §4 answer to "the STT must fit local store" is to refuse
    dictionaries whose table does not.  The hot/cold split keeps the
    discipline but only demands residency of the *frequently visited*
    states: the hottest ``H`` states (by :func:`visit_order`) are
    renumbered onto one compact contiguous table of ``H`` rows over the
    **folded** alphabet — typically ~8× narrower than the fold-composed
    fused rows — and every other state collapses to a two-cell *escape
    encoding* resolved by a :class:`~repro.core.compressed.ColdRowStore`
    (default-transition compressed against the start state's row).

    Cell encodings (``stride = 2 × symbol_width``, bit 0 = is-final):

    * hot state ``h``:   ``h·stride | flag`` — the §4 tagged pointer,
      gathered with the usual no-masking trick;
    * cold state ``j``:  ``escape_base + 2 + 2·j | flag`` where
      ``escape_base = H·stride``.  These point into a *parking zone*
      appended to the hot table whose every cell holds ``escape_base``,
      so a lane that goes cold parks itself (self-loop, flag 0,
      weight 0).

    The pair scan does not walk these cells (it replays escapes
    through its own rank-space matrix); they are the footprint the hot
    budget is measured against, and the weight layout below is where
    the pair table reads per-state multiplicities.

    The weight table is addressed by ``cell >> 1`` like the fused one:
    hot states land on ``h·symbol_width``, the parking cell on a
    dedicated zero slot, cold states on compact trailing slots.

    One union automaton replaces the D stacked slice tables, so the
    per-byte transition work is one gather regardless of the partition
    count; per-slice counts are recovered through ``slice_maps`` (see
    :func:`project_states`) and per-slice weight layouts.  The scan
    itself runs at pair stride over a
    :class:`~repro.core.scan.hotcold2.HotCold2Table` built on top of
    this one.
    """

    hot_flat: np.ndarray            # int32, hot rows + parking zone
    weights: np.ndarray             # int32, indexed by cell >> 1
    cold: ColdRowStore              # cold rows, shared-default compressed
    fold_table: np.ndarray          # 256-entry byte → symbol map
    hot_states: np.ndarray          # int64 (H,): hot id → union state
    cold_states: np.ndarray         # int64 (n-H,): cold id → union state
    entry_cells: np.ndarray         # int32 (n,): state → untagged cell
    start: int
    num_states: int
    symbol_width: int
    slice_maps: Optional[np.ndarray] = None      # int32 (D, n)
    slice_weights: Optional[np.ndarray] = None   # int32 (D, len(weights))
    slice_flags: Optional[np.ndarray] = None     # int32 (D, len(weights))
    hot_mass: Optional[float] = None             # predicted hot-visit share

    @property
    def num_hot(self) -> int:
        return len(self.hot_states)

    @property
    def num_cold(self) -> int:
        return len(self.cold_states)

    @property
    def stride(self) -> int:
        return 2 * self.symbol_width

    @property
    def escape_base(self) -> int:
        return self.num_hot * self.stride

    @property
    def num_dfas(self) -> int:
        return 1 if self.slice_maps is None else len(self.slice_maps)

    @property
    def hot_bytes(self) -> int:
        """Footprint of the always-resident part (hot rows + weights)."""
        return int(self.hot_flat.nbytes + self.weights.nbytes)

    @property
    def table_bytes(self) -> int:
        """Total footprint of everything a scan can touch."""
        return int(self.hot_flat.nbytes + self.weights.nbytes
                   + self.cold.nbytes + self.entry_cells.nbytes
                   + 4 * 256)


def build_hot_cold_table(transitions: np.ndarray, final_mask: np.ndarray,
                         start: int, fold_table: np.ndarray,
                         state_weights: Optional[np.ndarray] = None,
                         budget_bytes: int = HOT_BUDGET_BYTES,
                         order: Optional[np.ndarray] = None,
                         mass: Optional[np.ndarray] = None,
                         slice_maps: Optional[np.ndarray] = None,
                         slice_state_weights: Optional[np.ndarray] = None,
                         slice_state_flags: Optional[np.ndarray] = None
                         ) -> HotColdFusedTable:
    """Build a :class:`HotColdFusedTable` from a (union) DFA.

    ``transitions`` is over the *folded* alphabet; ``fold_table`` maps
    raw bytes to it at scan time (the fold is **not** composed into the
    rows — narrow rows are the point).  ``budget_bytes`` caps the hot
    partition: ``H = budget // (stride × 4)`` rows, at least 1 and at
    most all states; ``order`` (from :func:`visit_order`, possibly
    loaded from an artifact) overrides the profiling pass.  The
    optional ``slice_*`` arrays are per-slice per-*union-state* weight
    and final-flag vectors plus the :func:`project_states` maps, laid
    out into per-slice weight tables for exact per-DFA counting.
    """
    trans = np.asarray(transitions, dtype=np.int64)
    n, width = trans.shape
    final = np.asarray(final_mask, dtype=np.int64)
    fold = np.asarray(fold_table, dtype=np.int64)
    if fold.shape != (256,):
        raise DFAError("fold table must map all 256 byte values")
    if fold.size and int(fold.max()) >= width:
        raise DFAError("fold table maps outside the DFA alphabet")
    stride = 2 * width
    if order is None:
        order, mass = visit_order(trans, start, fold)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (n,):
            raise DFAError("visit order must rank every state")
        if int(order[0]) != int(start):
            order = np.concatenate(([int(start)],
                                    order[order != int(start)]))
    num_hot = max(1, min(n, int(budget_bytes) // (stride * 4)))
    num_cold = n - num_hot
    hot_states = order[:num_hot]
    cold_states = order[num_hot:]
    escape_base = num_hot * stride
    park = 2 * num_cold + stride + 2
    if escape_base + park > np.iinfo(np.int32).max:
        raise DFAError(
            f"hot/cold STT needs offsets up to {escape_base + park}, "
            f"beyond int32; {n} states × {width} symbols is too large")

    code = np.empty(n, dtype=np.int64)
    code[hot_states] = np.arange(num_hot, dtype=np.int64) * stride
    code[cold_states] = escape_base + 2 \
        + 2 * np.arange(num_cold, dtype=np.int64)
    enc = code[trans] + final[trans]

    hot_flat = np.full(escape_base + park, escape_base, dtype=np.int32)
    hot_rows = hot_flat[:escape_base].reshape(num_hot, stride)
    hot_rows[:, 0::2] = enc[hot_states]
    hot_rows[:, 1::2] = enc[hot_states]
    cold = ColdRowStore.from_rows(enc[cold_states], enc[int(start)])

    wsize = num_hot * width + num_cold + 1

    def layout(per_state: np.ndarray) -> np.ndarray:
        w = np.zeros(wsize, dtype=np.int32)
        w[np.arange(num_hot) * width] = per_state[hot_states]
        w[num_hot * width + 1 + np.arange(num_cold)] = \
            per_state[cold_states]
        return w

    if state_weights is None:
        state_weights = final
    weights = layout(np.asarray(state_weights))

    sw = sf = None
    if slice_maps is not None:
        slice_maps = np.ascontiguousarray(slice_maps, dtype=np.int32)
        if slice_state_weights is None or slice_state_flags is None:
            raise DFAError("slice maps need per-slice weights and flags")
        sw = np.stack([layout(np.asarray(row))
                       for row in slice_state_weights])
        sf = np.stack([layout(np.asarray(row))
                       for row in slice_state_flags])

    hot_mass = None
    if mass is not None:
        total = float(mass.sum())
        if total > 0:
            hot_mass = float(mass[hot_states].sum()) / total

    return HotColdFusedTable(
        hot_flat=hot_flat, weights=weights, cold=cold,
        fold_table=np.ascontiguousarray(fold, dtype=np.int64),
        hot_states=np.ascontiguousarray(hot_states),
        cold_states=np.ascontiguousarray(cold_states),
        entry_cells=code.astype(np.int32), start=int(start),
        num_states=n, symbol_width=width, slice_maps=slice_maps,
        slice_weights=sw, slice_flags=sf, hot_mass=hot_mass)

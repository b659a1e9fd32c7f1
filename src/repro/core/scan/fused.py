"""Stacked multi-DFA fused table and its lockstep grid scanner.

The paper's §6 "tiles in series": D distinct STTs over the same
input, one pass, with per-DFA base offsets rebased into one array.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...dfa.automaton import DFA, DFAError
from .base import (FUSED_LANES_TARGET, FUSED_STRIP_ELEMS, LANES_TARGET,
                   MIN_PIECE, SPECULATION_WARMUP, STRIP, _ragged_segments)
from .driver import ScanDetail, _chunked_scan, count_arr, repair_detail
from .flat import FlatScanner


@dataclass
class FusedTable:
    """D flag-encoded flat tables stacked into one contiguous array.

    The paper's §6 "tiles in series" runs D distinct STTs over the same
    input on D SPEs.  On the host the SIMD lane dimension can absorb the
    DFA dimension instead: every DFA's rows live in one ``int32`` array
    and each DFA's cells are *rebased* by that DFA's cell offset, so a
    tagged pointer is absolute in the stacked space and one gather per
    input position advances lanes of *different* DFAs at once.  Bases
    are even multiples of the (even) row stride, so bit 0 stays the
    final flag and the §4 no-masking trick survives fusion untouched.

    ``weights`` is the matching stacked multiplicity table: because a
    stacked pointer's high bits are ``cell_base/2 + state × width``, the
    per-DFA weight tables concatenate in the same order and absolute
    ``ptr >> 1`` indexing keeps working.
    """

    flat: np.ndarray          # int32, all tables, cells rebased
    weights: np.ndarray       # int32, stacked multiplicities (+1 slack)
    cell_base: np.ndarray     # int64 per DFA, first cell of its table
    starts: np.ndarray        # int64 per DFA, local start state
    num_states: np.ndarray    # int64 per DFA
    symbol_width: int         # columns per row (256 when fold-composed)

    @property
    def num_dfas(self) -> int:
        return len(self.cell_base)

    @property
    def stride(self) -> int:
        return 2 * self.symbol_width

    def scanner(self) -> "FusedScanner":
        """A fresh interpreter over this table — the sanctioned route
        for call sites outside ``core/scan`` (scanner classes are
        import-banned there; see the ruff ``banned-api`` rule)."""
        return FusedScanner(self)


def fuse_tables(tables: Sequence[Tuple[np.ndarray, np.ndarray]],
                starts: Sequence[int],
                num_states: Sequence[int],
                symbol_width: int) -> FusedTable:
    """Stack per-DFA ``(flat, weights)`` pairs into one :class:`FusedTable`.

    Each flat table's cells are shifted by the table's base offset in
    the stacked array (bases are even, so the flag bit is preserved);
    weight tables are concatenated minus their one-cell slack, with a
    single shared slack cell at the very end.
    """
    if not tables:
        raise DFAError("at least one table required")
    if not (len(tables) == len(starts) == len(num_states)):
        raise DFAError("tables/starts/num_states must align")
    stride = 2 * int(symbol_width)
    sizes = []
    for d, (flat, _) in enumerate(tables):
        if flat.size != int(num_states[d]) * stride:
            raise DFAError(
                f"table {d} has {flat.size} cells, expected "
                f"{int(num_states[d]) * stride} for {num_states[d]} "
                f"states × {symbol_width} symbols")
        sizes.append(int(flat.size))
    cell_base = np.zeros(len(tables), dtype=np.int64)
    cell_base[1:] = np.cumsum(sizes[:-1])
    total = int(cell_base[-1]) + sizes[-1]
    if total > np.iinfo(np.int32).max:
        raise DFAError(
            f"fused STT needs {total} cells, beyond int32; partition "
            f"the dictionary into fewer/smaller slices or scan per-DFA")
    if len(tables) == 1:
        flat0, weights0 = tables[0]
        fused_flat = np.ascontiguousarray(flat0, dtype=np.int32)
        fused_weights = np.ascontiguousarray(weights0, dtype=np.int32)
    else:
        fused_flat = np.empty(total, dtype=np.int32)
        for d, (flat, _) in enumerate(tables):
            lo = int(cell_base[d])
            np.add(flat, np.int32(lo), out=fused_flat[lo:lo + flat.size])
        fused_weights = np.concatenate(
            [np.asarray(w[:-1], dtype=np.int32) for _, w in tables]
            + [np.zeros(1, dtype=np.int32)])
    return FusedTable(
        flat=fused_flat, weights=fused_weights, cell_base=cell_base,
        starts=np.asarray(starts, dtype=np.int64),
        num_states=np.asarray(num_states, dtype=np.int64),
        symbol_width=int(symbol_width))


class _FusedSliceScanner(FlatScanner):
    """One DFA's view of a stacked table: the inherited hot loop runs on
    absolute pointers, only the state↔pointer conversions are rebased.
    This is what lets :func:`count_arr` / :func:`repair_detail` run
    per-DFA over the fused table with zero new scan code."""

    def __init__(self, flat: np.ndarray, symbol_width: int, start: int,
                 num_states: int, cell_base: int) -> None:
        super().__init__(flat, symbol_width, start, num_states)
        self.cell_base = int(cell_base)

    def pointer(self, state: int) -> int:
        return self.cell_base + int(state) * self.stride

    def state_of(self, ptrs):
        return ((ptrs - self.cell_base) >> 1) // self.alphabet_size


class FusedScanner:
    """Lockstep interpreter over a stacked multi-DFA table.

    Lanes form a ``D × L`` grid: axis 0 is the DFA dimension, axis 1
    the chunk/stream dimension.  One strip-mined gather per input
    position advances the whole grid, and the input symbols are read
    *once* and broadcast across the DFA axis — O(n) input traffic no
    matter how many DFAs the dictionary was partitioned into.
    """

    def __init__(self, table: FusedTable) -> None:
        self.table = table
        self.flat = table.flat
        self.weights = table.weights
        self.symbol_width = table.symbol_width
        self.stride = table.stride
        self.cell_base = np.asarray(table.cell_base, dtype=np.int64)
        self.starts = np.asarray(table.starts, dtype=np.int64)
        self.num_states = np.asarray(table.num_states, dtype=np.int64)
        #: Absolute tagged start pointer per DFA.
        self.start_ptrs = (self.cell_base
                           + self.starts * self.stride).astype(np.int32)

    @property
    def num_dfas(self) -> int:
        return len(self.cell_base)

    # -- views & conversions -----------------------------------------------------

    def slice_view(self, d: int) -> FlatScanner:
        """A per-DFA :class:`FlatScanner` over the stacked table (for
        scalar remainders, ledger repair and anything else that wants
        one DFA at a time)."""
        return _FusedSliceScanner(
            self.flat, self.symbol_width, int(self.starts[d]),
            int(self.num_states[d]), int(self.cell_base[d]))

    def entry_ptrs(self, states: Optional[Sequence[int]]) -> np.ndarray:
        """Per-DFA local entry states → absolute tagged pointers."""
        if states is None:
            return self.start_ptrs.copy()
        states = np.asarray(states, dtype=np.int64)
        if states.shape != (self.num_dfas,):
            raise DFAError(
                f"need one entry state per DFA ({self.num_dfas}), got "
                f"shape {states.shape}")
        if states.size and (states.min() < 0
                            or (states >= self.num_states).any()):
            raise DFAError("entry state out of range")
        return (self.cell_base + states * self.stride).astype(np.int32)

    def states_of(self, ptrs: np.ndarray) -> np.ndarray:
        """Absolute tagged pointers (first axis = DFA) → local states."""
        base = self.cell_base.reshape(
            (self.num_dfas,) + (1,) * (ptrs.ndim - 1))
        return ((ptrs - base) >> 1) // self.symbol_width

    # -- the fused hot loop --------------------------------------------------------

    def scan_grid(self, cols: np.ndarray, ptrs: np.ndarray,
                  counts: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Lockstep scan of a ``D × lanes`` pointer grid.

        ``cols`` has shape ``(length, lanes)`` and is shared by every
        DFA: each position's symbol row is doubled once and *broadcast*
        across the DFA axis, so the input is touched once regardless of
        ``D``.  ``ptrs`` has shape ``(D, lanes)``; ``counts`` is an
        ``int64`` ``(D, lanes)`` accumulator updated in place.  Returns
        the tagged exit pointers, shape ``(D, lanes)``.
        """
        length, lanes = cols.shape
        ndfa = ptrs.shape[0]
        if length == 0:
            return ptrs.astype(np.int32).copy()
        take = self.flat.take
        add = np.add
        strip_len = min(STRIP, length,
                        max(8, FUSED_STRIP_ELEMS // max(1, ndfa * lanes)))
        strip = np.empty((strip_len, ndfa, lanes), dtype=np.int32)
        doubled = np.empty((strip_len, 1, lanes), dtype=np.int32)
        scratch = np.empty((strip_len, ndfa, lanes), dtype=np.int32)
        idx = np.empty((ndfa, lanes), dtype=np.int32)
        strip_rows = list(strip)
        doubled_rows = list(doubled)
        cur = np.ascontiguousarray(ptrs, dtype=np.int32)
        for t0 in range(0, length, strip_len):
            b = min(strip_len, length - t0)
            doubled[:b, 0, :] = cols[t0:t0 + b]
            np.left_shift(doubled[:b], 1, out=doubled[:b])
            for i in range(b):
                row = strip_rows[i]
                add(cur, doubled_rows[i], out=idx)
                take(idx, out=row)
                cur = row
            if weights is None:
                np.bitwise_and(strip[:b], 1, out=scratch[:b])
            else:
                np.right_shift(strip[:b], 1, out=scratch[:b])
                weights.take(scratch[:b], out=scratch[:b])
            counts += scratch[:b].sum(axis=0)
        return cur.copy()

    # -- fused block scanning ------------------------------------------------------

    def _fused_chunked_scan(self, arr: np.ndarray, chunks: int,
                            entry_states: Optional[Sequence[int]],
                            weights: Optional[np.ndarray]):
        """Shared core of the fused block scans.  Requires
        ``arr.size > 0``.  Returns ``(remainder, head_counts, head_ptrs,
        piece_counts, piece_exit_ptrs)`` — the multi-DFA analogue of
        :func:`_chunked_scan`, same speculation/repair semantics applied
        per DFA, one pass over the input for all of them."""
        if chunks < 1:
            raise DFAError("chunks must be >= 1")
        n = int(arr.size)
        ndfa = self.num_dfas
        lane_target = max(LANES_TARGET,
                          FUSED_LANES_TARGET // max(1, ndfa))
        chunks = min(n, max(int(chunks),
                            min(lane_target, n // MIN_PIECE)))
        piece_len = n // chunks
        remainder = n - piece_len * chunks

        entry_abs = self.entry_ptrs(entry_states)
        head_counts = np.zeros(ndfa, dtype=np.int64)
        head_ptrs = entry_abs.astype(np.int32)
        if remainder:
            # Scalar per-DFA walk: the remainder is bounded by the chunk
            # count, and D short Python loops beat per-byte numpy
            # dispatch on a D-vector.
            head_syms = arr[:remainder].tolist()
            flat = self.flat
            for d in range(ndfa):
                ptr = int(entry_abs[d])
                cnt = 0
                if weights is None:
                    for sym in head_syms:
                        ptr = int(flat[ptr + (sym << 1)])
                        cnt += ptr & 1
                else:
                    for sym in head_syms:
                        ptr = int(flat[ptr + (sym << 1)])
                        cnt += int(weights[ptr >> 1])
                head_counts[d] = cnt
                head_ptrs[d] = ptr

        cols = np.ascontiguousarray(
            arr[remainder:].reshape(chunks, piece_len).T)

        entry = np.empty((ndfa, chunks), dtype=np.int32)
        entry[:] = self.start_ptrs[:, None]
        entry[:, 0] = head_ptrs          # chunk 0's entries are exact
        if chunks > 1 and piece_len >= 8 * SPECULATION_WARMUP:
            # Warm-start the entry guesses from each predecessor's tail
            # (see SPECULATION_WARMUP); counts are discarded.
            sink = np.zeros((ndfa, chunks - 1), dtype=np.int64)
            entry[:, 1:] = self.scan_grid(
                np.ascontiguousarray(
                    cols[piece_len - SPECULATION_WARMUP:, :-1]),
                entry[:, 1:], sink)
        exits = np.empty((ndfa, chunks), dtype=np.int32)
        counts = np.zeros((ndfa, chunks), dtype=np.int64)
        todo = np.arange(chunks)
        for _ in range(chunks + 1):
            sub = cols if todo.size == chunks else cols[:, todo]
            part = np.zeros((ndfa, todo.size), dtype=np.int64)
            fin = self.scan_grid(sub, entry[:, todo], part,
                                 weights=weights)
            counts[:, todo] = part
            exits[:, todo] = fin
            # A chunk is rescanned when *any* DFA's entry guess proved
            # wrong; lanes whose guess was right recompute identical
            # counts (determinism), so the union repair stays exact.
            wrong_mask = (exits[:, :-1] >> 1) != (entry[:, 1:] >> 1)
            wrong = np.nonzero(wrong_mask.any(axis=0))[0] + 1
            if wrong.size == 0:
                break
            entry[:, wrong] = exits[:, wrong - 1]
            todo = wrong
        else:
            raise DFAError("fused chunk fixpoint failed to converge; "
                           "this indicates a bug, not an input property")
        return remainder, head_counts, head_ptrs, counts, exits

    def count_arr_per_dfa(self, arr: np.ndarray, chunks: int,
                          entry_states: Optional[Sequence[int]] = None,
                          weights: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-DFA ``(counts, exit_states)`` over one symbol
        array, every DFA advanced in the same pass.  Bit-identical to
        running :func:`count_arr` once per DFA (exactness is invariant
        under chunking), but the input is traversed once and the chunk
        count is widened toward ``FUSED_LANES_TARGET`` total lanes so
        the grid keeps full gather width at any partition count."""
        if arr.size == 0:
            states = self.starts.copy() if entry_states is None else \
                np.asarray(entry_states, dtype=np.int64)
            return np.zeros(self.num_dfas, dtype=np.int64), states
        _, head, _, counts, exits = self._fused_chunked_scan(
            arr, chunks, entry_states, weights)
        totals = head + counts.sum(axis=1)
        return totals, self.states_of(exits[:, -1]).astype(np.int64)

    def count_arr_detail_per_dfa(self, arr: np.ndarray, chunks: int,
                                 entry_states: Optional[Sequence[int]]
                                 = None,
                                 weights: Optional[np.ndarray] = None
                                 ) -> List["ScanDetail"]:
        """Per-DFA :class:`ScanDetail` ledgers from one fused pass —
        what a pooled worker returns so the host can repair each DFA's
        chain independently."""
        states = self.starts if entry_states is None else \
            np.asarray(entry_states, dtype=np.int64)
        if arr.size == 0:
            return [ScanDetail(int(states[d]),
                               np.zeros(1, dtype=np.int64),
                               np.zeros(0, dtype=np.int64),
                               np.zeros(0, dtype=np.int32))
                    for d in range(self.num_dfas)]
        remainder, head, head_ptrs, counts, exits = \
            self._fused_chunked_scan(arr, chunks, entry_states, weights)
        pieces = counts.shape[1]
        piece_len = (int(arr.size) - remainder) // pieces
        bounds = np.empty(pieces + 2, dtype=np.int64)
        bounds[0] = 0
        bounds[1:] = remainder + piece_len * np.arange(pieces + 1,
                                                       dtype=np.int64)
        head_states = self.states_of(head_ptrs)
        exit_states = self.states_of(exits)
        details = []
        for d in range(self.num_dfas):
            seg_counts = np.concatenate(
                ([head[d]], counts[d])).astype(np.int64)
            seg_exits = np.concatenate(
                ([head_states[d]], exit_states[d])).astype(np.int32)
            details.append(ScanDetail(int(states[d]), bounds,
                                      seg_counts, seg_exits))
        return details

    # -- fused multi-stream scanning -----------------------------------------------

    def run_streams(self, streams: Sequence[bytes],
                    start_states: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan independent (possibly ragged) streams, all DFAs at once.

        Returns ``(counts, final_states)``, both shaped
        ``(num_dfas, num_streams)``.  Streams may have different
        lengths: lanes are sorted by length and retired as their
        streams end, so a zero-length stream simply keeps its entry
        state.  ``start_states`` is per-DFA (shape ``(D,)``) — every
        stream of DFA ``d`` enters at that DFA's state.  This is the
        paper's 16-interleaved-streams idea with the DFA dimension
        fused in.
        """
        nstreams = len(streams)
        if not nstreams:
            raise DFAError("at least one stream required")
        lens = np.asarray([len(s) for s in streams], dtype=np.int64)
        order = np.argsort(-lens, kind="stable")
        sorted_lens = lens[order]
        maxlen = int(sorted_lens[0])
        ndfa = self.num_dfas

        entry = self.entry_ptrs(start_states)
        ptrs = np.empty((ndfa, nstreams), dtype=np.int32)
        ptrs[:] = entry[:, None]
        counts = np.zeros((ndfa, nstreams), dtype=np.int64)
        if maxlen:
            cols = np.zeros((maxlen, nstreams), dtype=np.uint8)
            for k, oi in enumerate(order):
                s = streams[oi]
                if len(s):
                    cols[:len(s), k] = np.frombuffer(s, dtype=np.uint8)
            for lo, hi, active in _ragged_segments(sorted_lens):
                fin = self.scan_grid(cols[lo:hi, :active],
                                     ptrs[:, :active],
                                     counts[:, :active],
                                     weights=weights)
                ptrs[:, :active] = fin
        out_counts = np.empty_like(counts)
        out_ptrs = np.empty_like(ptrs)
        out_counts[:, order] = counts
        out_ptrs[:, order] = ptrs
        return out_counts, self.states_of(out_ptrs).astype(np.int32)


# ---------------------------------------------------------------------------
# Hot/cold split of the union automaton (cache-resident fused scanning)
# ---------------------------------------------------------------------------

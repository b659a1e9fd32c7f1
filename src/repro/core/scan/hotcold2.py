"""The union kernel: pair-symbol (two-byte stride) scan of the union
automaton.

Squares the folded alphabet on the hottest union states so the hot
loop consumes an input *pair* per gather; escapes replay bytes through
the rank-space one-byte matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ...dfa.automaton import DFAError
from .base import (HOT_BUDGET_BYTES, MIN_PIECE, SPECULATION_WARMUP,
                   _ragged_segments, hotcold_lanes_target,
                   hotcold_strip_elems)


@dataclass
class HotCold2Table:
    """Pair-symbol (two-byte stride) table of the union automaton.

    The §4 inner loop pays one gather per input *byte*; squaring the
    folded alphabet on the hottest states halves that: the ``H2``
    hottest union states get one row of ``width²`` cells each, indexed
    by a *pair* of folded symbols, so the lockstep loop consumes two
    bytes per gather — the paper's unrolling discussion taken one level
    up, and the Hyperflex observation that a compacted hot set makes
    the squared table affordable.  Here the squared rows *are* the hot
    set: nothing else is budgeted.

    States are renumbered by *hotness rank* (the hottest-first
    :func:`~repro.core.scan.visit_order`), and a pair cell simply
    stores the destination's rank — as an ``int16`` while the state
    count allows (:func:`rank_dtype`), so a full pair row costs
    ``2·width²`` bytes; larger automata widen to ``int32`` ranks and
    half as many pair-hot rows.  Whether a destination is pair-hot is
    one compare (``rank < H2``).  The gather index is
    ``rank·width² + psym``; a lane whose rank is not pair-hot
    overshoots the table and is clamped by the gather's clip mode onto
    the final *parking cell* (value ``num_states``), where it stays for
    the rest of the strip.

    Final flags and multiplicities live in two aux tables addressed by
    the *gather index* rather than the result — so they see the pair's
    source state and both symbols, and can account the *middle* state
    of the pair (the one crossed after the first byte) with no escape:

    * ``fflat``: bit 0 = destination is final, bit 1 = middle state is
      final;
    * ``wflat``: middle multiplicity + destination multiplicity.

    Both are zero on the parking cell, so parked lanes accumulate
    nothing and the strip replay owes exactly the post-escape bytes.

    Per-slice exactness: ``slice_maps[d]`` projects every union state
    onto slice ``d`` (:func:`~repro.core.scan.project_states`), and
    ``slice_weights``/``slice_flags`` hold each slice's multiplicity
    and final flag by *rank*, with a zero parking column, so one union
    pass accumulates every slice at once.
    """

    hot2_flat: np.ndarray        # rank dtype (H2·W² + 1,): ranks + park
    wflat: np.ndarray            # uint8/uint16/int32, same indexing
    fflat: np.ndarray            # uint8, same indexing (2 bits)
    foldpair: np.ndarray         # uint16 (65536,): psym per LE byte pair
    fold_table: np.ndarray       # int32 (256,): byte → folded symbol
    utr: np.ndarray              # rank dtype (NS·W,): rank transitions
    order: np.ndarray            # int32 (NS,): rank → union state id
    rank_of: np.ndarray          # int32 (NS,): union state id → rank
    wstate: np.ndarray           # int32 (NS + 1,): multiplicity by rank
    fstate: np.ndarray           # int32 (NS + 1,): final flag by rank
    slice_maps: np.ndarray       # int32 (D, NS): union → slice state
    slice_weights: np.ndarray    # int32 (D, NS + 1): by rank, park = 0
    slice_flags: np.ndarray      # int32 (D, NS + 1): by rank, park = 0
    start: int
    symbol_width: int
    pair_budget_bytes: int

    #: Every array field, in bundle-manifest order.
    ARRAYS = ("hot2_flat", "wflat", "fflat", "foldpair", "fold_table",
              "utr", "order", "rank_of", "wstate", "fstate",
              "slice_maps", "slice_weights", "slice_flags")

    @property
    def num_hot2(self) -> int:
        w2 = self.symbol_width * self.symbol_width
        return (len(self.hot2_flat) - 1) // w2

    @property
    def num_states(self) -> int:
        return len(self.order)

    @property
    def num_dfas(self) -> int:
        return len(self.slice_maps)

    @property
    def hot2_bytes(self) -> int:
        """Footprint of the pair transition rows (the budgeted part —
        the aux flag/weight tables ride along)."""
        return int(self.hot2_flat.nbytes)

    @property
    def table_bytes(self) -> int:
        """Total footprint of everything a pair scan can touch."""
        return sum(int(getattr(self, name).nbytes) for name in self.ARRAYS)

    def scanner(self) -> "HotCold2Scanner":
        """A fresh interpreter over this table — the sanctioned route
        for call sites outside ``core/scan`` (scanner classes are
        import-banned there; see the ruff ``banned-api`` rule)."""
        return HotCold2Scanner(self)


def rank_dtype(num_states: int) -> np.dtype:
    """Storage type of a pair table's state ranks: ``int16`` while every
    rank plus the parking value (``num_states``) fits, else ``int32``."""
    if num_states + 1 <= np.iinfo(np.int16).max:
        return np.dtype(np.int16)
    return np.dtype(np.int32)


def pair_symbol_table(fold_table: np.ndarray, width: int) -> np.ndarray:
    """``foldpair``: folded pair symbol per little-endian byte pair.

    The staged scan path reads input byte pairs through a native
    ``uint16`` view, so the *first* input byte is the low half on
    little-endian hosts (and the high half otherwise)."""
    fold = np.asarray(fold_table, dtype=np.int64)
    pair16 = np.arange(65536, dtype=np.int64)
    first, second = ((pair16 & 255, pair16 >> 8) if np.little_endian
                     else (pair16 >> 8, pair16 & 255))
    return (fold[first] * width + fold[second]).astype(np.uint16)


def build_hot_cold2_table(transitions: np.ndarray, final_mask: np.ndarray,
                          start: int, fold_table: np.ndarray,
                          foldpair: np.ndarray, order: np.ndarray,
                          state_weights: np.ndarray,
                          slice_maps: np.ndarray,
                          slice_state_weights: np.ndarray,
                          slice_state_flags: np.ndarray,
                          budget_bytes: int = HOT_BUDGET_BYTES
                          ) -> HotCold2Table:
    """Square the folded alphabet on the hottest union states.

    ``transitions``/``final_mask``/``start`` are the union automaton
    over the *folded* alphabet; ``fold_table`` maps raw bytes onto it
    and ``foldpair`` is its :func:`pair_symbol_table`.  ``order`` is
    the :func:`~repro.core.scan.visit_order` ranking (possibly loaded
    from an artifact).  The pair-hot set is the hottest prefix of that
    order that fits ``budget_bytes`` at ``width²`` ranks per row (2 or
    4 bytes each, see :func:`rank_dtype`).  ``state_weights`` is the
    union multiplicity per state; ``slice_maps`` are the
    :func:`~repro.core.scan.project_states` maps and
    ``slice_state_weights``/``slice_state_flags`` each slice's
    multiplicity and final flag per *union* state, shape ``(D, NS)``.
    """
    trans = np.asarray(transitions, dtype=np.int64)
    n, width = trans.shape
    fold = np.asarray(fold_table, dtype=np.int64)
    if fold.shape != (256,):
        raise DFAError("fold table must map all 256 byte values")
    if int(fold.max()) >= width:
        raise DFAError("fold table maps outside the DFA alphabet")
    foldpair = np.ascontiguousarray(foldpair, dtype=np.uint16)
    if foldpair.shape != (65536,):
        raise DFAError("foldpair table must have 65536 entries")
    order = np.asarray(order, dtype=np.int32)
    if order.shape != (n,):
        raise DFAError("visit order must rank every state")
    if int(order[0]) != int(start):
        order = np.concatenate(([int(start)], order[order != int(start)]),
                               dtype=np.int32)
    slice_maps = np.ascontiguousarray(slice_maps, dtype=np.int32)
    if slice_maps.ndim != 2 or slice_maps.shape[1] != n:
        raise DFAError("slice maps must project every union state")
    rdt = rank_dtype(n)
    w2 = width * width
    rank_of = np.empty(n, dtype=np.int32)
    rank_of[order] = np.arange(n, dtype=np.int32)
    num_hot2 = max(1, min(n, int(budget_bytes) // (w2 * rdt.itemsize)))

    def by_rank(per_state) -> np.ndarray:
        """Per-state rows re-indexed by rank, plus a zero park column."""
        per_state = np.asarray(per_state)
        out = np.zeros(per_state.shape[:-1] + (n + 1,), dtype=np.int32)
        out[..., :n] = per_state[..., order]
        return out

    wstate = by_rank(state_weights)
    fstate = by_rank(np.asarray(final_mask) != 0)

    # Rank-space transition matrix: row r is the hotness-rank image of
    # union state order[r]'s row.
    tr_rank = rank_of[trans[order]]                  # (NS, W)
    utr = tr_rank.astype(rdt).ravel()
    f_rank = fstate[:n]
    w_rank = wstate[:n].astype(np.int64)

    mid = tr_rank[:num_hot2]                         # (H2, W)
    dest = tr_rank[mid]                              # (H2, W, W)
    hot2_flat = np.empty(num_hot2 * w2 + 1, dtype=rdt)
    hot2_flat[:-1] = dest.reshape(num_hot2 * w2)
    hot2_flat[-1] = n                                # parking cell

    fpair = (f_rank[dest] | (f_rank[mid][:, :, None] << 1))
    fflat = np.zeros(num_hot2 * w2 + 1, dtype=np.uint8)
    fflat[:-1] = fpair.reshape(num_hot2 * w2)

    wpair = (w_rank[mid][:, :, None] + w_rank[dest]).reshape(num_hot2 * w2)
    wmax = int(wpair.max()) if wpair.size else 0
    wdtype = (np.uint8 if wmax <= np.iinfo(np.uint8).max else
              np.uint16 if wmax <= np.iinfo(np.uint16).max else np.int32)
    wflat = np.zeros(num_hot2 * w2 + 1, dtype=wdtype)
    wflat[:-1] = wpair

    return HotCold2Table(
        hot2_flat=hot2_flat, wflat=wflat, fflat=fflat, foldpair=foldpair,
        fold_table=fold.astype(np.int32), utr=utr, order=order,
        rank_of=rank_of, wstate=wstate, fstate=fstate,
        slice_maps=slice_maps, slice_weights=by_rank(slice_state_weights),
        slice_flags=by_rank(slice_state_flags), start=int(start),
        symbol_width=width, pair_budget_bytes=int(budget_bytes))


class _StagedLanes:
    """Staging for a pair-stride scan: the lane-major raw byte matrix
    (kept for the byte-granular replay path) plus its pair-symbol
    matrix in *position-major* layout ``(pairs, lanes)`` — one
    ``foldpair`` gather per two bytes, transposed in cache-resident
    lane blocks on the way out so the lockstep loop reads contiguous
    rows with no per-strip copies."""

    __slots__ = ("mat", "psym", "lanes", "piece", "pairs")

    def __init__(self, mat: np.ndarray, psym: Optional[np.ndarray]):
        self.mat = mat
        self.psym = psym                  # (pairs, lanes) uint16
        self.lanes, self.piece = mat.shape
        self.pairs = self.piece // 2


class HotCold2Scanner:
    """Two-byte stride lockstep interpreter over a :class:`HotCold2Table`.

    Implements the scanner protocol of :func:`count_arr` / the chunk
    fixpoint / ``run_streams``: pointer, state_of, scan_cols and
    step_scalar all speak union states, with
    ``rank·2 | is_final`` as the pointer representation.  The hot loop
    gathers once per input *pair*; destinations outside the pair-hot
    set park the lane (via the gather's clip mode) and the strip is
    replayed byte-by-byte through the rank-space transition matrix.
    Odd strip tails and odd-length inputs take single rank-space steps,
    so chunk pieces and ragged stream segments of any parity compose
    exactly.  Matches landing on the *middle* byte of a pair are
    counted by the gather-indexed flag/weight tables — no escape.

    ``weights`` arguments are a mode switch: ``None`` counts
    final-state entries, any array selects the table's own multiplicity
    layout
    (:attr:`weights`, indexed by ``pointer >> 1``).

    For large scans, :func:`_chunked_scan` uses the
    :meth:`stage_lanes` / :meth:`scan_lanes` protocol instead of
    transposing the input to position-major byte columns: the pair
    symbols are staged lane-major in one contiguous gather and each
    strip transposes only a cache-resident slab.
    """

    def __init__(self, table: HotCold2Table) -> None:
        self.table = table
        self.symbol_width = int(table.symbol_width)
        self.alphabet_size = int(table.symbol_width)
        self.start = int(table.start)
        self.num_states = int(table.num_states)
        self.num_hot2 = int(table.num_hot2)
        self._w = self.symbol_width
        self._w2 = self._w * self._w
        self.flat2 = table.hot2_flat
        self._rank = table.hot2_flat.dtype
        # Gather indices reach (num_states + 1)·W² - 1 on parked lanes.
        self._idx = (np.dtype(np.int32)
                     if (self.num_states + 1) * self._w2
                     <= np.iinfo(np.int32).max else np.dtype(np.int64))
        self.wflat = table.wflat
        self.fflat = table.fflat
        self.foldpair = table.foldpair
        self.utr = table.utr
        self.order = table.order
        self.rank_of = table.rank_of
        self.wstate = table.wstate
        self.fstate = table.fstate
        self.weights = table.wstate            # indexed by pointer >> 1
        self.foldv = np.asarray(table.fold_table, dtype=np.int32)
        self.foldw = (self.foldv * self._w).astype(np.int32)
        self.reset_stats()

    @property
    def num_dfas(self) -> int:
        return self.table.num_dfas

    # -- instrumentation ---------------------------------------------------------

    def reset_stats(self) -> None:
        #: steps = raw-byte transitions covered by the scan; cold_steps
        #: = bytes replayed outside the pair table; escapes =
        #: lane×strip replay activations.
        self.stats = {"steps": 0, "cold_steps": 0, "escapes": 0}

    @property
    def hot_hit_rate(self) -> float:
        steps = self.stats["steps"]
        if steps <= 0:
            return 1.0
        return 1.0 - self.stats["cold_steps"] / steps

    # -- pointer/state conversions ----------------------------------------------

    def pointer(self, state: int) -> int:
        r = int(self.rank_of[int(state)])
        return r * 2 + int(self.fstate[r])

    def state_of(self, ptrs):
        p = np.asarray(ptrs, dtype=np.int64)
        out = self.order[p >> 1]
        if p.ndim == 0:
            return int(out)
        return out

    # -- scalar path -------------------------------------------------------------

    def step_scalar(self, ptr: int, symbol: int) -> int:
        r = int(ptr) >> 1
        nr = int(self.utr[r * self._w + int(self.foldv[int(symbol)])])
        return nr * 2 + int(self.fstate[nr])

    # -- staging -----------------------------------------------------------------

    def stage_lanes(self, mat: np.ndarray) -> _StagedLanes:
        """Stage a lane-major byte matrix for :meth:`scan_lanes`."""
        lanes, piece = mat.shape
        pairs = piece // 2
        psym = None
        if pairs:
            u16 = None
            if piece == 2 * pairs:
                try:
                    # One gather per byte pair on a uint16 view
                    # (little-endian: first byte low).  The view can
                    # fail for odd row strides; fall back below.
                    u16 = mat.view(np.uint16)
                except ValueError:
                    u16 = None
            psym = np.empty((pairs, lanes), dtype=np.uint16)
            step = 256
            if u16 is not None:
                # Fused gather+transpose per lane block: each block's
                # symbols are produced and flipped while still hot.
                for j in range(0, lanes, step):
                    psym[:, j:j + step] = self.foldpair.take(
                        u16[j:j + step]).T
            else:
                body = mat[:, :2 * pairs]
                for j in range(0, lanes, step):
                    lo = np.asarray(body[j:j + step, 0::2],
                                    dtype=np.int64)
                    hi = np.asarray(body[j:j + step, 1::2],
                                    dtype=np.int64)
                    psym[:, j:j + step] = (
                        self.foldw.take(lo)
                        + self.foldv.take(hi)).astype(np.uint16).T
        return _StagedLanes(mat, psym)

    def scan_lanes(self, staged: _StagedLanes, sel, t0: int, t1: int,
                   ptrs: np.ndarray, counts: np.ndarray,
                   weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Scan bytes ``[t0, t1)`` of the selected staged lanes.

        ``sel`` is ``None`` (all lanes), a slice, or an index array.
        Pair phase is anchored at byte 0 of the staged matrix, so any
        ``[t0, t1)`` window — including odd boundaries — scans exactly:
        unaligned edge bytes take single rank-space steps.
        """
        return self._scan_span(staged, sel, int(t0), int(t1), ptrs,
                               ((counts, weights),), None)

    def scan_lanes_slices(self, staged: _StagedLanes, sel, t0: int,
                          t1: int, ptrs: np.ndarray,
                          counts2d: np.ndarray,
                          weight_rows: np.ndarray) -> np.ndarray:
        """:meth:`scan_lanes` accumulating every slice at once,
        D-invariantly (sparse scatter at union-final hits).
        ``weight_rows`` are rank-indexed (the table's ``slice_weights``
        or ``slice_flags``)."""
        return self._scan_span(staged, sel, int(t0), int(t1), ptrs, (),
                               (counts2d, weight_rows))

    # -- position-major compatibility --------------------------------------------

    def scan_cols(self, cols: np.ndarray, ptrs: np.ndarray,
                  counts: np.ndarray,
                  weights: Optional[np.ndarray] = None) -> np.ndarray:
        """Scan position-major byte columns ``(length, lanes)`` at two
        bytes per gather, accumulating flag counts (``weights=None``)
        or multiplicities into ``counts``; any input length (an odd
        tail takes one rank step).  Transposes the window; the
        big-block path stages lanes through :meth:`stage_lanes`."""
        staged = self.stage_lanes(np.ascontiguousarray(cols.T))
        return self._scan_span(staged, None, 0, cols.shape[0], ptrs,
                               ((counts, weights),), None)

    # -- core --------------------------------------------------------------------

    def _scan_span(self, staged: _StagedLanes, sel, t0: int, t1: int,
                   ptrs: np.ndarray, accs, slice_accs) -> np.ndarray:
        if sel is None:
            sel = slice(0, staged.lanes)
        mat = staged.mat[sel]
        lanes = mat.shape[0]
        cur64 = np.asarray(ptrs, dtype=np.int64) >> 1
        cur = cur64.astype(self._rank)
        if t1 <= t0 or not lanes:
            return self._encode(cur)
        self.stats["steps"] += (t1 - t0) * lanes
        if t0 & 1:
            cur = self._single_steps(mat, cur, t0, t0 + 1, accs,
                                     slice_accs)
            t0 += 1
        p_lo, p_hi = t0 // 2, t1 // 2
        if p_hi > p_lo:
            psym = staged.psym[:, sel]   # slice sel: zero-copy view
            cur = self._scan_pairs(mat, psym, p_lo, p_hi, cur, accs,
                                   slice_accs)
        if t1 & 1 and t1 > t0:
            cur = self._single_steps(mat, cur, t1 - 1, t1, accs,
                                     slice_accs)
        return self._encode(cur)

    def _encode(self, cur: np.ndarray) -> np.ndarray:
        r = cur.astype(np.int64)
        return (r * 2 + self.fstate[r]).astype(np.int32)

    def _scan_pairs(self, mat: np.ndarray, psym: np.ndarray,
                    p_lo: int, p_hi: int, cur: np.ndarray,
                    accs, slice_accs) -> np.ndarray:
        lanes = mat.shape[0]
        w2 = self._w2
        h2 = self.num_hot2
        take = self.flat2.take
        mul = np.multiply
        add = np.add
        strip_len = min(p_hi - p_lo,
                        max(8, hotcold_strip_elems() // max(1, lanes)))
        idxs = np.empty((strip_len, lanes), dtype=self._idx)
        ids = np.empty((strip_len, lanes), dtype=self._rank)
        idx_rows = list(idxs)
        ids_rows = list(ids)
        cur = cur.copy()
        for p0 in range(p_lo, p_hi, strip_len):
            b = min(strip_len, p_hi - p0)
            pre = cur
            c = cur
            for i in range(b):
                row = idx_rows[i]
                mul(c, w2, out=row, dtype=self._idx, casting="unsafe")
                add(row, psym[p0 + i], out=row)
                c = ids_rows[i]
                take(row, mode="clip", out=c)
            cur = c.copy()
            self._accumulate(idxs, ids, b, lanes, accs, slice_accs)
            if int(cur.max()) >= h2:
                esc = np.nonzero(cur >= h2)[0]
                self._fix_lanes2(mat, ids, b, 2 * p0, pre, cur, esc,
                                 accs, slice_accs)
        return cur

    def _accumulate(self, idxs: np.ndarray, ids: np.ndarray, b: int,
                    lanes: int, accs, slice_accs) -> None:
        fl = None
        for acc, w in accs:
            if w is None:
                fl = self.fflat.take(idxs[:b], mode="clip")
                np.bitwise_and(fl, 1, out=fl)
                acc += fl.sum(axis=0, dtype=np.int64)
                fl = self.fflat.take(idxs[:b], mode="clip")
                np.right_shift(fl, 1, out=fl)
                acc += fl.sum(axis=0, dtype=np.int64)
            else:
                wv = self.wflat.take(idxs[:b], mode="clip")
                acc += wv.sum(axis=0, dtype=np.int64)
        if slice_accs is None:
            return
        counts2d, rows = slice_accs
        fl = self.fflat.take(idxs[:b], mode="clip")
        tt, ll = np.nonzero(fl)
        if not tt.size:
            return
        fv = fl[tt, ll]
        lanes_idx = []
        ranks = []
        dhit = (fv & 1) != 0
        if dhit.any():
            lanes_idx.append(ll[dhit])
            ranks.append(ids[tt[dhit], ll[dhit]].astype(np.int64))
        mhit = (fv & 2) != 0
        if mhit.any():
            iv = idxs[tt[mhit], ll[mhit]].astype(np.int64)
            lanes_idx.append(ll[mhit])
            ranks.append(self.utr[iv // self._w].astype(np.int64))
        ll_all = np.concatenate(lanes_idx)
        rk_all = np.concatenate(ranks)
        for d in range(len(rows)):
            counts2d[d] += np.bincount(
                ll_all, weights=rows[d, rk_all],
                minlength=lanes).astype(np.int64)

    def _fix_lanes2(self, mat: np.ndarray, ids: np.ndarray, b: int,
                    byte0: int, pre: np.ndarray, cur: np.ndarray,
                    esc: np.ndarray, accs, slice_accs) -> None:
        """Replay escaped lanes byte-by-byte in rank space.

        A lane escapes when a pair's destination leaves the pair-hot
        set (the stored cell is the destination's rank, ``>= H2``) or
        when it entered the strip already cold.  The escape pair itself
        was fully accounted by the gather-indexed aux tables, so the
        replay owes exactly the bytes after it.

        Lanes are sorted by replay start, so the lanes replaying at any
        byte are a prefix and each step is three whole-slice ufunc
        calls.  The trajectory is pre-filled with the parking rank
        (zero flag, zero weight), so cells of lanes that have not
        started yet count nothing when it is accumulated afterwards.
        """
        h2 = self.num_hot2
        col = ids[:b, esc]
        first = np.argmax(col >= h2, axis=0)
        ranks = col[first, np.arange(esc.size)]
        t_start = 2 * (first + 1)
        precold = pre[esc] >= h2
        ranks[precold] = pre[esc[precold]]
        t_start[precold] = 0
        order = np.argsort(t_start, kind="stable")
        esc, ranks, t_start = esc[order], ranks[order], t_start[order]
        self.stats["escapes"] += int(esc.size)
        lo, hi = int(t_start[0]), 2 * b
        if hi > lo:
            syms = np.ascontiguousarray(
                self.foldv.take(mat[esc, byte0 + lo:byte0 + hi]).T)
            active = np.searchsorted(t_start, np.arange(lo, hi),
                                     side="right").tolist()
            traj = np.full((hi - lo, esc.size), self.num_states,
                           dtype=self._rank)
            idx = np.empty(esc.size, dtype=self._idx)
            take = self.utr.take
            w = self._w
            for j, a in enumerate(active):
                ia, row = idx[:a], traj[j, :a]
                np.multiply(ranks[:a], w, out=ia, dtype=self._idx,
                            casting="unsafe")
                np.add(ia, syms[j, :a], out=ia)
                take(ia, mode="clip", out=row)
                ranks[:a] = row
            self.stats["cold_steps"] += int((hi - t_start).sum())
            self._accumulate_ranks(traj, esc, accs, slice_accs)
        cur[esc] = ranks

    def _accumulate_ranks(self, traj: np.ndarray, lanes: np.ndarray,
                          accs, slice_accs) -> None:
        """Add a rank trajectory ``(steps, len(lanes))`` into the
        accumulators of ``lanes`` (parking cells count nothing)."""
        for acc, wts in accs:
            table = self.fstate if wts is None else self.wstate
            acc[lanes] += table.take(traj).sum(axis=0, dtype=np.int64)
        if slice_accs is None:
            return
        counts2d, rows = slice_accs
        tt, ll = np.nonzero(self.fstate.take(traj))
        if not tt.size:
            return
        rk = traj[tt, ll]
        for d in range(len(rows)):
            counts2d[d, lanes] += np.bincount(
                ll, weights=rows[d, rk],
                minlength=lanes.size).astype(np.int64)

    def _single_steps(self, mat: np.ndarray, cur: np.ndarray,
                      t0: int, t1: int, accs,
                      slice_accs) -> np.ndarray:
        """One-byte rank-space steps (edge bytes of unaligned spans
        and odd tails), vectorized across lanes — exact at any rank,
        hot or cold."""
        rows = None
        if slice_accs is not None:
            counts2d, rows = slice_accs
        w = self._w
        r = cur.astype(np.int64)
        for t in range(t0, t1):
            syms = self.foldv[mat[:, t].astype(np.int64)]
            r = self.utr[r * w + syms].astype(np.int64)
            for acc, wts in accs:
                if wts is None:
                    acc += self.fstate[r]
                else:
                    acc += self.wstate[r]
            if rows is not None:
                counts2d += rows[:, r]
        return r.astype(self._rank)

    # -- block scanning ----------------------------------------------------------

    def count_arr_per_dfa(self, arr: np.ndarray, chunks: int,
                          entry_states=None,
                          weights: Optional[np.ndarray] = None
                          ) -> Tuple[np.ndarray, np.ndarray]:
        """Exact per-slice ``(counts, exit_states)`` from one pair-
        stride union pass; same contract as the fused scanner's.  The
        per-slice accumulation is D-invariant: one flag gather per
        strip plus a sparse scatter at union-final hits."""
        t = self.table
        ndfa = t.num_dfas
        start_imgs = t.slice_maps[:, self.start].astype(np.int64)
        if entry_states is not None:
            states = np.asarray(entry_states, dtype=np.int64)
            if not np.array_equal(states, start_imgs):
                raise DFAError(
                    "hot/cold per-DFA scans enter at the union start "
                    "state; arbitrary per-DFA entry states are not "
                    "realizable in the union state space")
        if arr.size == 0:
            return np.zeros(ndfa, dtype=np.int64), start_imgs
        rows = t.slice_flags if weights is None else t.slice_weights
        totals, exit_state = self._chunked_multi(arr, chunks, rows)
        return totals, t.slice_maps[:, exit_state].astype(np.int64)

    def _chunked_multi(self, arr: np.ndarray, chunks: int,
                       rows: np.ndarray) -> Tuple[np.ndarray, int]:
        if chunks < 1:
            raise DFAError("chunks must be >= 1")
        n = int(arr.size)
        ndfa = len(rows)
        chunks = min(n, max(int(chunks),
                            min(hotcold_lanes_target(), n // MIN_PIECE)))
        piece_len = n // chunks
        remainder = n - piece_len * chunks
        head = np.zeros(ndfa, dtype=np.int64)
        ptr = self.pointer(self.start)
        for sym in arr[:remainder].tolist():
            ptr = self.step_scalar(ptr, sym)
            head += rows[:, ptr >> 1]
        staged = self.stage_lanes(
            arr[remainder:].reshape(chunks, piece_len))
        entry = np.full(chunks, self.pointer(self.start), dtype=np.int32)
        entry[0] = ptr
        if chunks > 1 and piece_len >= 8 * SPECULATION_WARMUP:
            sink = np.zeros(chunks - 1, dtype=np.int64)
            entry[1:] = self.scan_lanes(
                staged, slice(0, chunks - 1),
                piece_len - SPECULATION_WARMUP, piece_len,
                entry[1:].copy(), sink)
        exits = np.empty(chunks, dtype=np.int32)
        counts = np.zeros((ndfa, chunks), dtype=np.int64)
        todo = np.arange(chunks)
        for _ in range(chunks + 1):
            sel = None if todo.size == chunks else todo
            part = np.zeros((ndfa, todo.size), dtype=np.int64)
            fin = self.scan_lanes_slices(staged, sel, 0, piece_len,
                                         entry[todo], part, rows)
            counts[:, todo] = part
            exits[todo] = fin
            wrong = np.nonzero((exits[:-1] >> 1)
                               != (entry[1:] >> 1))[0] + 1
            if wrong.size == 0:
                break
            entry[wrong] = exits[wrong - 1]
            todo = wrong
        else:
            raise DFAError("pair chunk fixpoint failed to converge; "
                           "this indicates a bug, not an input property")
        return head + counts.sum(axis=1), int(self.state_of(exits[-1]))

    # -- multi-stream scanning ---------------------------------------------------

    def run_streams(self, streams: Sequence[bytes],
                    start_states: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scan independent ragged streams over the union automaton.

        Returns ``(counts, final_states)``, both shaped
        ``(num_streams,)`` — the whole dictionary's totals per stream in
        one pass.  States are union states; streams are raw bytes.

        Ragged segment boundaries and zero/odd-length streams are
        exact: each lockstep segment re-aligns its own pair phase and
        takes single rank steps at unaligned edges, and resumed
        streams re-enter through canonical rank pointers.
        """
        nstreams = len(streams)
        if not nstreams:
            raise DFAError("at least one stream required")
        lens = np.asarray([len(s) for s in streams], dtype=np.int64)
        order = np.argsort(-lens, kind="stable")
        sorted_lens = lens[order]
        maxlen = int(sorted_lens[0])
        if start_states is not None:
            states = np.asarray(start_states, dtype=np.int64)
            if states.size and (states.min() < 0
                                or states.max() >= self.num_states):
                raise DFAError("start state out of range")
            ranks = self.rank_of[states[order]]
            ptrs = (ranks * 2 + self.fstate[ranks]).astype(np.int32)
        else:
            ptrs = np.full(nstreams, self.pointer(self.start),
                           dtype=np.int32)
        counts = np.zeros(nstreams, dtype=np.int64)
        if maxlen:
            pad = maxlen + (maxlen & 1)
            mat = np.zeros((nstreams, pad), dtype=np.uint8)
            for k, oi in enumerate(order):
                s = streams[oi]
                if len(s):
                    mat[k, :len(s)] = np.frombuffer(s, dtype=np.uint8)
            staged = self.stage_lanes(mat)
            for lo, hi, active in _ragged_segments(sorted_lens):
                fin = self.scan_lanes(staged, slice(0, active), lo, hi,
                                      ptrs[:active], counts[:active],
                                      weights=weights)
                ptrs[:active] = fin
        out_counts = np.empty_like(counts)
        out_ptrs = np.empty_like(ptrs)
        out_counts[order] = counts
        out_ptrs[order] = ptrs
        return out_counts, np.asarray(self.state_of(out_ptrs),
                                      dtype=np.int64)

"""Chunked speculative block scanning and the reference engine.

``_chunked_scan`` is the speculative fixpoint every kernel's block scan
rides on: split the input into chunks, scan all of them in lockstep
from guessed entry states, then rescan the chunks whose guess proved
wrong.  ``ScanDetail`` is the exactness ledger the sharded pool uses to
repair cross-shard guesses incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ...dfa.automaton import DFA, DFAError
from .base import LANES_TARGET, MIN_PIECE, SPECULATION_WARMUP, \
    _ragged_segments
from .flat import FlatScanner


def _transpose_cols(mat: np.ndarray) -> np.ndarray:
    """Lane-major ``(chunks, piece)`` → contiguous position-major
    ``(piece, chunks)``, transposed in column blocks so each block's
    working set stays cache-resident (~3x faster than one
    ``ascontiguousarray`` of the full transpose at 8 MB inputs)."""
    lanes, piece = mat.shape
    out = np.empty((piece, lanes), dtype=mat.dtype)
    step = 512
    for j in range(0, lanes, step):
        out[:, j:j + step] = mat[j:j + step].T
    return out


def _chunked_scan(scanner: FlatScanner, arr: np.ndarray, chunks: int,
                  entry_state: int, max_passes: Optional[int] = None,
                  weights: Optional[np.ndarray] = None,
                  lanes_target: Optional[int] = None):
    """Shared core of :func:`count_arr` / :func:`count_arr_detail`.

    Requires ``arr.size > 0``.  Returns ``(remainder, head_count,
    head_exit_ptr, piece_counts, piece_exit_ptrs)`` where the scalar head
    covers ``arr[:remainder]`` and the pieces tile the rest equally.
    """
    if chunks < 1:
        # Guard here, not only in the public wrappers: a zero floor used
        # to fall through to ``n // 0`` on inputs shorter than MIN_PIECE.
        raise DFAError("chunks must be >= 1")
    lane_floor = LANES_TARGET if lanes_target is None else int(lanes_target)
    n = int(arr.size)
    chunks = min(n, max(int(chunks), min(lane_floor, n // MIN_PIECE)))
    piece_len = n // chunks
    remainder = n - piece_len * chunks

    head_count = 0
    ptr = scanner.pointer(entry_state)
    for sym in arr[:remainder]:
        ptr = scanner.step_scalar(ptr, sym)
        if weights is None:
            head_count += ptr & 1
        else:
            head_count += int(weights[ptr >> 1])

    mat = arr[remainder:].reshape(chunks, piece_len)
    if hasattr(scanner, "stage_lanes"):
        # Pair-stride scanners stage symbols lane-major once; every
        # pass (and the warmup) scans windows of the staged block.
        staged = scanner.stage_lanes(mat)

        def scan_span(sel, t0, entries, sink, wts):
            return scanner.scan_lanes(staged, sel, t0, piece_len,
                                      entries, sink, weights=wts)
    else:
        # One position-major matrix, built once, indexed per pass.
        cols = _transpose_cols(mat)

        def scan_span(sel, t0, entries, sink, wts):
            sub = cols[t0:]
            if sel is not None:
                sub = sub[:, sel]
            if t0 or sel is not None:
                sub = np.ascontiguousarray(sub)
            return scanner.scan_cols(sub, entries, sink, weights=wts)

    entry = np.full(chunks, scanner.pointer(scanner.start), dtype=np.int32)
    entry[0] = ptr                       # chunk 0's entry is exact
    if chunks > 1 and piece_len >= 8 * SPECULATION_WARMUP:
        # Warm the guesses: chunk k+1's entry is approximated by scanning
        # the last SPECULATION_WARMUP symbols of chunk k from the start
        # state.  Counts from this scan are discarded.
        sink = np.zeros(chunks - 1, dtype=np.int64)
        entry[1:] = scan_span(slice(0, chunks - 1),
                              piece_len - SPECULATION_WARMUP,
                              entry[1:].copy(), sink, None)
    exits = np.empty(chunks, dtype=np.int32)
    counts = np.zeros(chunks, dtype=np.int64)
    todo = np.arange(chunks)
    passes = max_passes if max_passes is not None else chunks + 1

    for _ in range(passes):
        sel = None if todo.size == chunks else todo
        part = np.zeros(todo.size, dtype=np.int64)
        fin = scan_span(sel, 0, entry[todo], part, weights)
        counts[todo] = part
        exits[todo] = fin
        # Propagate corrected entries (compare modulo the flag bit: two
        # pointers to the same row scan identically).
        wrong = np.nonzero((exits[:-1] >> 1) != (entry[1:] >> 1))[0] + 1
        if wrong.size == 0:
            break
        entry[wrong] = exits[wrong - 1]
        todo = wrong
    else:
        raise DFAError("chunk fixpoint failed to converge; this "
                       "indicates a bug, not an input property")
    return remainder, head_count, ptr, counts, exits


def count_arr(scanner: FlatScanner, arr: np.ndarray, chunks: int,
              entry_state: int, max_passes: Optional[int] = None,
              weights: Optional[np.ndarray] = None,
              lanes_target: Optional[int] = None) -> Tuple[int, int]:
    """Exact speculative count over one folded symbol array.

    The array is cut into *equal* pieces (a scalar head scan absorbs the
    division remainder, so the lockstep matrix needs no padding and
    rebuilds never happen); pieces are scanned in lockstep from guessed
    entry states and the guesses are repaired to a fixpoint.  Only the
    mis-guessed columns are re-scanned on later passes — they are
    *indexed out* of the one position-major matrix built up front.

    ``chunks`` is a floor, not an exact count: large inputs are widened
    to ``LANES_TARGET`` lanes (see the constant above) because lane width
    sets the gather width and thus the dispatch overhead per byte, while
    the count is semantically only a speculation granularity.

    Returns ``(count, exit_state)``.
    """
    if arr.size == 0:
        return 0, int(entry_state)
    _, head, _, counts, exits = _chunked_scan(
        scanner, arr, chunks, entry_state, max_passes, weights,
        lanes_target)
    return head + int(counts.sum()), int(scanner.state_of(exits[-1]))


@dataclass
class ScanDetail:
    """A chunked scan's per-segment ledger, for cheap entry repair.

    Segment 0 is the scalar head (possibly empty), segments 1.. are the
    equal lockstep pieces.  ``seg_exits[k]`` is the DFA *state* at
    ``seg_bounds[k + 1]`` given ``entry_state`` at position 0.  Whoever
    later learns the true entry state can call :func:`repair_detail`
    instead of rescanning the whole array: rescan leading segments until
    the state trajectory rejoins the recorded one, then splice.
    """

    entry_state: int
    seg_bounds: np.ndarray    # int64, len = segments + 1, [0 .. arr.size]
    seg_counts: np.ndarray    # int64 per segment
    seg_exits: np.ndarray     # int32 exit state per segment

    @property
    def total(self) -> int:
        return int(self.seg_counts.sum())

    @property
    def exit_state(self) -> int:
        if self.seg_exits.size == 0:
            return int(self.entry_state)
        return int(self.seg_exits[-1])


def count_arr_detail(scanner: FlatScanner, arr: np.ndarray, chunks: int,
                     entry_state: int,
                     weights: Optional[np.ndarray] = None,
                     lanes_target: Optional[int] = None) -> ScanDetail:
    """:func:`count_arr`, but returning the per-segment ledger."""
    if arr.size == 0:
        return ScanDetail(int(entry_state),
                          np.zeros(1, dtype=np.int64),
                          np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.int32))
    remainder, head, head_ptr, counts, exits = _chunked_scan(
        scanner, arr, chunks, entry_state, None, weights, lanes_target)
    pieces = counts.size
    piece_len = (int(arr.size) - remainder) // pieces
    bounds = np.empty(pieces + 2, dtype=np.int64)
    bounds[0] = 0
    bounds[1:] = remainder + piece_len * np.arange(pieces + 1,
                                                   dtype=np.int64)
    seg_counts = np.concatenate(([head], counts)).astype(np.int64)
    seg_exits = np.concatenate(
        ([int(scanner.state_of(head_ptr))],
         np.asarray(scanner.state_of(exits)))).astype(np.int32)
    return ScanDetail(int(entry_state), bounds, seg_counts, seg_exits)


def repair_detail(scanner: FlatScanner, arr: np.ndarray, detail: ScanDetail,
                  entry_state: int, chunks: int,
                  weights: Optional[np.ndarray] = None) -> Tuple[int, int]:
    """Exact ``(count, exit_state)`` of ``arr`` from ``entry_state``,
    reusing a previous scan's :class:`ScanDetail`.

    If the entry matches the recorded one, the recorded totals stand.
    Otherwise leading segments are rescanned from the corrected state
    until the trajectory hits a recorded segment-boundary state — from
    there on determinism makes the recorded counts exact — so a wrong
    speculative entry typically costs one segment, not the whole array
    (Ko et al.'s speculative-repair argument applied at the ledger's
    granularity).  Degenerates to a full rescan only when the trajectory
    never rejoins.

    ``chunks`` deliberately has no default: repair rescans must use the
    caller's chunking policy, not a magic constant that would silently
    override the lane floor.
    """
    if int(entry_state) == detail.entry_state:
        return detail.total, detail.exit_state
    state = int(entry_state)
    total = 0
    for k in range(detail.seg_counts.size):
        lo = int(detail.seg_bounds[k])
        hi = int(detail.seg_bounds[k + 1])
        cnt, state = count_arr(scanner, arr[lo:hi], chunks, state,
                               weights=weights)
        total += cnt
        if state == int(detail.seg_exits[k]):
            return (total + int(detail.seg_counts[k + 1:].sum()),
                    detail.exit_state)
    return total, state


@dataclass
class StreamResult:
    """Outcome of a lockstep multi-stream scan."""

    counts: np.ndarray         # matches per stream
    final_states: np.ndarray   # DFA state per stream after the scan

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class VectorDFAEngine:
    """Lockstep vectorized interpreter for a dense DFA."""

    def __init__(self, dfa: DFA) -> None:
        self.dfa = dfa
        # Contiguous copies kept for introspection and the Cell encoders;
        # the hot loop runs on the flag-encoded flat table below.
        self.table = np.ascontiguousarray(dfa.transitions, dtype=np.int32)
        self.final = np.ascontiguousarray(dfa.final_mask)
        self.start = dfa.start
        self.scanner = FlatScanner.from_dfa(dfa)

    # -- lockstep streams ---------------------------------------------------------

    def run_streams(self, streams: Sequence[bytes],
                    start_states: Optional[np.ndarray] = None,
                    weights: Optional[np.ndarray] = None) -> StreamResult:
        """Scan independent streams in lockstep (one gather per position).

        Streams may have different lengths: lanes are sorted by length
        and retired as their streams end, so each lane advances exactly
        ``len(stream)`` steps and a zero-length stream keeps its entry
        state.  With ``weights`` (see :func:`build_weight_table`) counts
        are per-dictionary-entry multiplicities; without, +1 per
        final-state entry (the paper's kernel semantics).
        """
        if not len(streams):
            raise DFAError("at least one stream required")
        n = len(streams)
        lens = np.asarray([len(s) for s in streams], dtype=np.int64)
        length = int(lens.max())
        if start_states is not None:
            states = np.asarray(start_states, dtype=np.int64)
            if states.size and (states.min() < 0
                                or states.max() >= self.dfa.num_states):
                raise DFAError("start state out of range")
        if length == 0:
            states = np.full(n, self.start, dtype=np.int32) \
                if start_states is None else start_states.astype(np.int32)
            return StreamResult(np.zeros(n, dtype=np.int64), states)

        equal = bool((lens == length).all())
        order = np.arange(n) if equal else np.argsort(-lens,
                                                      kind="stable")
        # Fill the position-major matrix directly — no row-major staging
        # copy followed by a transposed second copy.  Ragged lanes are
        # laid out longest-first so the live lanes form a prefix.
        cols = np.zeros((length, n), dtype=np.uint8)
        for k, oi in enumerate(order):
            s = streams[oi]
            arr = np.frombuffer(s, dtype=np.uint8)
            if arr.size and int(arr.max()) >= self.dfa.alphabet_size:
                raise DFAError(
                    f"stream {oi} contains symbols outside the "
                    f"{self.dfa.alphabet_size}-symbol alphabet; fold first")
            cols[:arr.size, k] = arr
        scanner = self.scanner
        if start_states is None:
            ptrs = np.full(n, scanner.pointer(self.start), dtype=np.int32)
        else:
            ptrs = (states[order] * scanner.stride).astype(np.int32)
        counts = np.zeros(n, dtype=np.int64)
        if equal:
            fin = scanner.scan_cols(cols, ptrs, counts, weights=weights)
            ptrs = np.asarray(fin, dtype=np.int32)
        else:
            for lo, hi, active in _ragged_segments(lens[order]):
                fin = scanner.scan_cols(cols[lo:hi, :active],
                                        ptrs[:active], counts[:active],
                                        weights=weights)
                ptrs[:active] = fin
        out_counts = np.empty_like(counts)
        out_states = np.empty(n, dtype=np.int32)
        out_counts[order] = counts
        out_states[order] = scanner.state_of(ptrs).astype(np.int32)
        return StreamResult(out_counts, out_states)

    # -- exact single-stream scan ------------------------------------------------

    def _folded_view(self, block: bytes) -> np.ndarray:
        arr = np.frombuffer(block, dtype=np.uint8)
        if arr.size and int(arr.max()) >= self.dfa.alphabet_size:
            raise DFAError("block contains symbols outside the alphabet; "
                           "fold first")
        return arr

    def count_block(self, block: bytes, chunks: int = 256,
                    max_passes: Optional[int] = None) -> int:
        """Exact match count over one contiguous stream.

        Splits the stream into ``chunks`` pieces scanned in lockstep; entry
        states are guessed (start state), then corrected iteratively: after
        each pass, any chunk whose actual entry state (the exit state of
        its predecessor) differs from its guess is rescanned.  Guaranteed
        to terminate in at most ``chunks`` passes (``max_passes`` defaults
        to that bound); security-style DFAs almost always converge in two.
        More chunks means wider gathers and fewer numpy dispatches per
        byte, which is why the default is generous.
        """
        if chunks <= 0:
            raise DFAError("chunks must be positive")
        arr = self._folded_view(block)
        if arr.size == 0:
            return 0
        count, _ = count_arr(self.scanner, arr, chunks, self.start,
                             max_passes=max_passes)
        return count

    def count_block_reference(self, block: bytes) -> int:
        """Unchunked scan (for cross-validation in tests)."""
        return self.dfa.count_matches(block)

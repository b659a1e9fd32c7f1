"""Packed multi-byte fingerprint prefilter — the pipeline's screening stage.

The exact kernels pay one gather (or one pair-gather) per input byte no
matter what the input looks like.  But most real traffic is *clean*:
long stretches containing no dictionary substring at all.  This stage
screens those stretches out with pure numpy-wide arithmetic — far
cheaper per byte than a DFA step — and hands only the surviving
candidate windows to the exact kernel.

The fingerprint is a folded **trigram membership mask**: a ``width³``
byte table marking every 3-symbol window that occurs anywhere in any
dictionary pattern.  Screening computes each input trigram's code with
three gathers through pre-shifted fold tables and one mask ``take`` —
no data-dependent loop — and any position whose trigram is *not* in
the mask provably cannot lie at that offset inside a match.  A pattern
of ``minlen`` bytes covers ``minlen − 2`` *consecutive* trigram start
positions, so screening samples only every ``(minlen − 2)``-th
position — the classic q-gram sampling bound — and its per-byte cost
shrinks linearly with the dictionary's shortest pattern.

Hit positions are grown into candidate windows conservatively (a hit at
``i`` can only belong to a match spanning ``[i - (maxlen-3),
i + maxlen - 1]``), runs of nearby hits are merged with a ``2×maxlen``
gap rule, which makes the resulting segments **provably disjoint** and
guarantees every true match lies wholly inside exactly one segment:
verification then counts each segment from the DFA start state with no
double counting and no misses.  Exactness is differential-tested in
``tests/core/test_differential_fuzz.py``.

On adversarial high-match-density input the mask stops rejecting and
screening would only add overhead — :meth:`PackedPrefilter.screen`
reports that as ``fall_through`` and the pipeline runs the bare kernel
instead, so the worst case costs one cheap vector pass, never a slower
scan.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...dfa.automaton import DFAError
from .base import _env_int

__all__ = ["PackedPrefilter", "ScreenResult", "count_segments",
           "MASK_CEILING_BYTES", "MIN_PATTERN_LEN"]

#: Largest trigram mask we are willing to build (width³ bytes); beyond
#: this the mask itself stops being cache-resident and screening loses.
MASK_CEILING_BYTES = 1 << 20
#: Trigram screening needs at least 3 bytes of every pattern.
MIN_PATTERN_LEN = 3
#: Candidate fraction above which screening is declared useless and the
#: pipeline falls through to the bare kernel (percent).
DENSITY_CEILING_PCT = 50
#: Dense-padding budget for grouped segment verification (bytes).
GROUP_BUDGET_BYTES = 8 << 20
#: Trigram samples screened per strip.  Every temporary of
#: :meth:`PackedPrefilter.screen` is sized by the strip, not the block,
#: so a 4 MiB block reuses the same few small heap buffers as a 64 KiB
#: one instead of asking the allocator for fresh block-sized pages.
SCREEN_STRIP = 1 << 14


def _density_ceiling() -> float:
    return _env_int("REPRO_PREFILTER_DENSITY_PCT", DENSITY_CEILING_PCT) / 100.0


@dataclass
class ScreenResult:
    """Outcome of screening one block."""

    #: ``(k, 2)`` int64 half-open candidate windows, disjoint, ascending.
    segments: np.ndarray
    #: Trigram positions sampled / positions whose trigram was in the mask.
    positions: int
    hits: int
    #: Total bytes inside candidate windows.
    candidate_bytes: int
    #: True when screening rejected too little to be worth it.
    fall_through: bool

    @property
    def density(self) -> float:
        return self.candidate_bytes / self.positions if self.positions else 0.0


class PackedPrefilter:
    """Folded trigram membership mask over a compiled exact dictionary.

    Parameters
    ----------
    mask:
        ``width³`` uint8 membership table.
    fold_table:
        256-entry byte→symbol map (the dictionary's fold).
    width:
        Folded alphabet size.
    minlen / maxlen:
        Length extremes of the dictionary's patterns, in bytes.
    """

    def __init__(self, mask: np.ndarray, fold_table: np.ndarray,
                 width: int, minlen: int, maxlen: int) -> None:
        self.mask = np.ascontiguousarray(mask, dtype=np.uint8)
        self.fold_table = np.ascontiguousarray(fold_table, dtype=np.int32)
        self.width = int(width)
        self.minlen = int(minlen)
        self.maxlen = int(maxlen)
        if self.mask.size != self.width ** 3:
            raise DFAError(
                f"trigram mask has {self.mask.size} cells, expected "
                f"{self.width ** 3}")
        #: A minlen-byte match covers ``minlen - 2`` consecutive trigram
        #: start positions, so sampling every ``minlen - 2``-th position
        #: still lands at least one probe inside every match (the q-gram
        #: sampling bound).
        self.stride = max(1, self.minlen - (MIN_PATTERN_LEN - 1))
        # Fold composed with the code shifts, one gather table per
        # trigram byte: code = t0[b0] + t1[b1] + t2[b2].
        fold32 = self.fold_table.astype(np.int32)
        self._t0 = np.ascontiguousarray(fold32 * (self.width ** 2))
        self._t1 = np.ascontiguousarray(fold32 * self.width)
        self._t2 = np.ascontiguousarray(fold32)
        # With an even stride every sampled trigram starts on an even
        # byte, so its first two bytes are one aligned uint16 — fold
        # both through a single 64 K-entry table and save a gather per
        # sample.  Built via the view round-trip, so the table indexes
        # exactly how this host's uint16 view orders the bytes.
        pair = np.arange(65536, dtype=np.uint16).view(np.uint8)
        pair = pair.reshape(-1, 2)
        self._pair01 = np.ascontiguousarray(
            self._t0[pair[:, 0]] + self._t1[pair[:, 1]])
        self.stats = {"blocks": 0, "fall_throughs": 0, "clean_blocks": 0,
                      "bytes_screened": 0, "bytes_verified": 0}

    # -- construction -------------------------------------------------------------

    @classmethod
    def supports(cls, patterns: Sequence[bytes], width: int) -> bool:
        """Whether a mask can serve this dictionary: non-empty, every
        pattern long enough for trigram screening, mask cache-resident."""
        if not patterns or width < 2:
            return False
        if min(len(p) for p in patterns) < MIN_PATTERN_LEN:
            return False
        return width ** 3 <= _env_int("REPRO_PREFILTER_MASK_CEILING",
                                      MASK_CEILING_BYTES)

    @classmethod
    def build(cls, patterns: Sequence[bytes],
              fold_table: np.ndarray, width: int
              ) -> Optional["PackedPrefilter"]:
        """Build the mask, or ``None`` when the dictionary is not
        screenable (short patterns, regex handled by the caller, or a
        mask too large to stay cache-resident)."""
        if not cls.supports(patterns, width):
            return None
        fold = np.ascontiguousarray(fold_table, dtype=np.int64)
        w = int(width)
        mask = np.zeros(w ** 3, dtype=np.uint8)
        lens = [len(p) for p in patterns]
        for p in patterns:
            sym = fold[np.frombuffer(p, dtype=np.uint8)]
            codes = (sym[:-2] * w + sym[1:-1]) * w + sym[2:]
            mask[codes] = 1
        return cls(mask, fold_table, w, min(lens), max(lens))

    @property
    def mask_bytes(self) -> int:
        return int(self.mask.nbytes)

    @property
    def selectivity(self) -> float:
        """Fraction of possible trigrams the mask admits."""
        return float(self.mask.mean())

    # -- screening ----------------------------------------------------------------

    def screen(self, arr: np.ndarray) -> ScreenResult:
        """Screen one block; returns disjoint candidate windows.

        Exactness contract: every occurrence of a dictionary pattern in
        ``arr`` lies wholly inside exactly one returned segment (unless
        ``fall_through`` is set, in which case the caller must scan the
        whole block).
        """
        n = int(arr.size)
        self.stats["blocks"] += 1
        self.stats["bytes_screened"] += n
        if n < MIN_PATTERN_LEN:
            self.stats["clean_blocks"] += 1
            return ScreenResult(np.empty((0, 2), dtype=np.int64),
                                0, 0, 0, False)
        # Sample first, fold second: only every stride-th trigram is
        # ever touched, so the screen's cost scales with n / stride.
        # Sample k is the trigram starting at byte k·step.
        step = self.stride
        positions = len(range(2, n, step))
        pairs = arr[:n & ~1].view(np.uint16) if step % 2 == 0 else None
        hits = []
        for k0 in range(0, positions, SCREEN_STRIP):
            k1 = min(k0 + SCREEN_STRIP, positions)
            lo, hi = k0 * step, (k1 - 1) * step + 1
            if pairs is not None:
                codes = self._pair01.take(pairs[lo // 2:hi // 2 + 1:step // 2])
            else:
                codes = self._t0.take(arr[lo:hi:step])
                codes += self._t1.take(arr[lo + 1:hi + 1:step])
            codes += self._t2.take(arr[lo + 2:hi + 2:step])
            hit = np.flatnonzero(self.mask.take(codes))
            if hit.size:
                hits.append(hit + k0)
        pos = (np.concatenate(hits).astype(np.int64) * step if hits
               else np.empty(0, dtype=np.int64))
        if pos.size == 0:
            self.stats["clean_blocks"] += 1
            return ScreenResult(np.empty((0, 2), dtype=np.int64),
                                positions, 0, 0, False)
        # Merge hits into runs: gaps above 2×maxlen guarantee the grown
        # windows of different runs cannot overlap, so the segments are
        # disjoint and a match (whose own hit positions are at most
        # ``stride`` apart) lands in exactly one of them.
        brk = np.flatnonzero(np.diff(pos) > 2 * self.maxlen)
        run_lo = pos[np.concatenate(([0], brk + 1))]
        run_hi = pos[np.concatenate((brk, [pos.size - 1]))]
        seg_lo = np.maximum(run_lo - (self.maxlen - MIN_PATTERN_LEN), 0)
        seg_hi = np.minimum(run_hi + self.maxlen, n)
        segments = np.stack([seg_lo, seg_hi], axis=1)
        candidate = int((seg_hi - seg_lo).sum())
        self.stats["bytes_verified"] += candidate
        fall_through = candidate > n * _density_ceiling()
        if fall_through:
            self.stats["fall_throughs"] += 1
        return ScreenResult(segments, positions, int(pos.size),
                            candidate, fall_through)


def count_segments(kernel, arr: np.ndarray, segments: np.ndarray) -> int:
    """Exact weighted total over candidate windows, one kernel at work.

    Small windows are batched into ragged ``run_streams`` calls (grouped
    so the dense ``maxlen × streams`` padding stays under
    :data:`GROUP_BUDGET_BYTES`); windows too large to batch are scanned
    with the kernel's chunked block path.  Results are identical to
    scanning each window from the start state individually.
    """
    total = 0
    group: List[bytes] = []
    group_max = 0
    for lo, hi in segments.tolist():
        seg_len = hi - lo
        new_max = max(group_max, seg_len)
        if group and new_max * (len(group) + 1) > GROUP_BUDGET_BYTES:
            total += _flush(kernel, group)
            group, group_max = [], 0
            new_max = seg_len
        if seg_len > GROUP_BUDGET_BYTES:
            total += kernel.count_total(arr[lo:hi])
            group_max = group_max if group else 0
            continue
        group.append(arr[lo:hi].tobytes())
        group_max = new_max
    if group:
        total += _flush(kernel, group)
    return int(total)


def _flush(kernel, group: List[bytes]) -> int:
    totals, _ = kernel.run_streams(group)
    return int(totals.sum())

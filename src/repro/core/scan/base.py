"""Shared constants and strip-loop helpers for the scan kernels.

Every tuning knob that more than one kernel reads lives here so the
kernel modules stay dependency-light.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ...dfa.automaton import DFA, DFAError


STRIP = 128

#: Lane floor for the chunked block scan.  ``chunks`` controls the
#: speculation granularity *requested* by the caller, but it also sets
#: the lockstep lane count, and few lanes means more numpy dispatches
#: per byte.  When the input is large enough, the effective chunk count
#: is raised to ``LANES_TARGET`` (never lowered): exactness is invariant
#: under chunking, so callers asking for coarse speculation still get
#: full-width gathers.  Inputs shorter than ``LANES_TARGET × MIN_PIECE``
#: keep the requested count — tiny pieces would waste the strip loop.
LANES_TARGET = 256
MIN_PIECE = 1024

#: Total lane budget of the fused D × chunks grid.  The DFA axis
#: multiplies into the gather width, so the fused chunk widening
#: targets ``FUSED_LANES_TARGET // num_dfas`` lanes per DFA — the
#: *grid* stays at full width however the dictionary was partitioned,
#: and per-step dispatch overhead is amortized over ~32× more lanes
#: than the single-DFA scan needs.  Exactness is invariant under
#: chunking, so this is pure tuning, not semantics.
FUSED_LANES_TARGET = 8192

#: int32 elements per fused strip matrix (~256 KB).  The strip and its
#: scratch double with the DFA axis, so the strip *length* shrinks as
#: ``D × lanes`` grows to keep both matrices cache-resident — at
#: D=1 × 256 lanes this reproduces ``STRIP``.
FUSED_STRIP_ELEMS = 64 * 1024

#: Warm-start window of the chunk-entry speculation.  Before the first
#: lockstep pass, every chunk's entry guess is refined by scanning the
#: *tail* of its predecessor (one extra lockstep scan over
#: ``SPECULATION_WARMUP`` positions): security DFAs synchronize within a
#: pattern length, so the tail exit almost always *is* the true entry
#: and the fixpoint converges on the first full pass instead of
#: rescanning the mis-guessed majority.  Exactness is untouched — the
#: warm guesses are still verified and repaired by the fixpoint.  The
#: warm-up is skipped for pieces shorter than ``8 ×`` the window, where
#: its relative cost stops being negligible.
SPECULATION_WARMUP = 32

#: Default byte budget for the hot partition of a
#: :class:`HotColdFusedTable` — sized for comfortable L2 residency
#: (the host analogue of the paper's 256 KB local store ceiling;
#: §4 sizes dictionaries so the *whole* STT fits local store, the
#: hot/cold split only demands it of the frequently-visited part).
HOT_BUDGET_BYTES = 512 * 1024

#: Lane budget of the hot/cold union scan.  Unlike the fused grid there
#: is no DFA axis multiplying into the gather width — one union table
#: serves every slice — so the optimum sits far below
#: ``FUSED_LANES_TARGET``: past ~2 K lanes the strip matrices outgrow
#: L2 and throughput collapses rather than climbs (measured knee on an
#: 8 MB corpus: 2048 lanes ≈ 114 MB/s vs 62 MB/s at 8192).
HOTCOLD_LANES_TARGET = 2048

#: int32 elements per hot/cold strip matrix (~1 MB).  The hot table is
#: budgeted to stay cache-resident no matter the dictionary, which
#: frees cache headroom for longer strips than the fused scan can
#: afford — and longer strips amortize the per-strip escape scan and
#: fold gather.  Measured: 256 K elems beats the fused 64 K setting by
#: ~25% at the lane target above.
HOTCOLD_STRIP_ELEMS = 256 * 1024


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def hotcold_lanes_target() -> int:
    """Effective hot/cold lane budget: :data:`HOTCOLD_LANES_TARGET`,
    overridable per process via ``REPRO_HOTCOLD_LANES`` (mirroring
    ``REPRO_HOT_BUDGET_KB``).  Read per call so tests and deployments
    can retune without reimporting."""
    return _env_int("REPRO_HOTCOLD_LANES", HOTCOLD_LANES_TARGET)


def hotcold_strip_elems() -> int:
    """Effective hot/cold strip size in int32 elements:
    :data:`HOTCOLD_STRIP_ELEMS`, overridable via
    ``REPRO_HOTCOLD_STRIP_ELEMS``."""
    return _env_int("REPRO_HOTCOLD_STRIP_ELEMS", HOTCOLD_STRIP_ELEMS)


def _ragged_segments(sorted_lens: Sequence[int]):
    """Yield ``(lo, hi, active)`` scan segments for lanes sorted by
    length descending: rows ``lo:hi`` are scanned with the first
    ``active`` lanes (exactly those longer than ``lo``)."""
    active = len(sorted_lens)
    pos = 0
    while True:
        while active > 0 and int(sorted_lens[active - 1]) <= pos:
            active -= 1
        if active == 0:
            return
        nxt = int(sorted_lens[active - 1])
        yield pos, nxt, active
        pos = nxt

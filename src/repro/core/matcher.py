"""High-level public API: build a dictionary, plan a Cell configuration,
scan traffic.

:class:`CellStringMatcher` is what a downstream user touches first.  It
is a thin shell over the compile/execute split: the dictionary compiles
once into a :class:`~repro.core.compiled.CompiledDictionary` (optionally
via the on-disk artifact cache, so repeated service starts skip
Aho–Corasick/determinize entirely), deployment is sized against the tile
budget exactly as before, and every scan — block, stream or file — is a
:class:`~repro.core.backends.ScanRequest` executed by a registered
:class:`~repro.core.backends.ScanBackend`.  The deployment shapes follow
the paper:

* fits one tile → parallel tiles for throughput (Figure 6a);
* needs several tiles → series / mixed composition (Figures 6b, 7);
* exceeds eight tiles → dynamic STT replacement (§6).

Scanning is exact (counts and match events agree with a monolithic
reference scan); the report also carries the *modelled* Cell throughput of
the chosen configuration, so experiments can ask "what would this
dictionary cost on the machine the paper used?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

from ..cell.processor import NUM_SPES
from ..dfa.alphabet import FoldMap, case_fold_32
from ..dfa.automaton import MatchEvent
from .backends import ScanContext, ScanOutcome, ScanRequest, execute
from .compiled import ArtifactCache, CompileError, compile_dictionary
from .composition import TileComposition
from .planner import TilePlan, plan_tile
from .replacement import HALF_TILE_STATES, ReplacementMatcher, effective_gbps

__all__ = ["CellStringMatcher", "ScanReport", "MatcherError",
           "PAPER_TILE_GBPS"]

#: The paper's peak single-tile throughput (Table 1, version 4).
PAPER_TILE_GBPS = 5.11

Pattern = Union[str, bytes]


class MatcherError(Exception):
    """Raised for unusable dictionaries or configurations."""


@dataclass
class ScanReport:
    """Outcome of one scan, wrapping the executing backend's
    :class:`~repro.core.backends.ScanOutcome` with the matcher's
    modelled-Cell deployment numbers."""

    total_matches: int
    events: Optional[List[MatchEvent]]     # end positions + pattern ids
    bytes_scanned: int
    configuration: str
    spes_used: int
    modelled_gbps: float
    #: Occurrences per (global) pattern id; patterns with zero hits are
    #: omitted.  Only the event-reporting (serial) backend fills this.
    pattern_counts: Optional[Dict[int, int]] = None
    #: Measured wall-clock of this scan on the host, and how many worker
    #: processes ran it — the *real* numbers reported next to the
    #: modelled-Cell ones.
    host_seconds: float = 0.0
    workers: int = 1
    #: Registry name of the backend that executed the scan.
    backend: str = ""

    def modelled_seconds(self) -> float:
        """Time the modelled Cell configuration would need for this scan."""
        if self.modelled_gbps <= 0:
            return float("inf")
        return self.bytes_scanned * 8 / (self.modelled_gbps * 1e9)

    @property
    def host_gbps(self) -> float:
        """Measured host bitrate of this scan."""
        if self.host_seconds <= 0:
            return 0.0
        return self.bytes_scanned * 8 / self.host_seconds / 1e9

    def summary(self) -> str:
        """Modelled-Cell and measured-host numbers, side by side."""
        backend = f" [{self.backend}]" if self.backend else ""
        return (f"{self.total_matches} matches in {self.bytes_scanned} B | "
                f"modelled Cell: {self.modelled_gbps:.2f} Gbps on "
                f"{self.spes_used} SPE(s) ({self.configuration}) | "
                f"host: {self.host_gbps:.4f} Gbps on {self.workers} "
                f"worker(s){backend}")


class CellStringMatcher:
    """Multi-pattern scanner with automatic Cell-BE deployment planning.

    ``cache`` (an :class:`~repro.core.compiled.ArtifactCache`, a cache
    directory path, or ``True`` for the default location) loads/stores
    the compiled dictionary on disk, keyed by content fingerprint.
    """

    def __init__(self, patterns: Sequence[Pattern],
                 fold: Optional[FoldMap] = None,
                 regex: bool = False,
                 target_gbps: float = PAPER_TILE_GBPS,
                 per_tile_gbps: float = PAPER_TILE_GBPS,
                 max_spes: int = NUM_SPES,
                 plan: Optional[TilePlan] = None,
                 cache: Union[ArtifactCache, str, bool, None] = None) -> None:
        if not patterns:
            raise MatcherError("dictionary must contain at least one "
                               "pattern")
        self.fold = fold if fold is not None else case_fold_32()
        self.regex = regex
        self.per_tile_gbps = per_tile_gbps
        self.max_spes = max_spes
        self.plan = plan if plan is not None \
            else plan_tile(alphabet_size=self.fold.width)
        if self.plan.alphabet_size != self.fold.width:
            raise MatcherError(
                f"tile plan alphabet {self.plan.alphabet_size} != fold "
                f"width {self.fold.width}")

        self._raw_patterns = [p.encode() if isinstance(p, str) else bytes(p)
                              for p in patterns]
        self._cache = ArtifactCache() if cache is True else cache
        self.compiled = self._compile(self.plan.max_states)
        self._ctx = ScanContext(self.compiled)

        if regex:
            self._plan_regex()
        else:
            self._plan_exact(target_gbps)

    # -- construction ------------------------------------------------------------

    def _compile(self, max_states: int):
        try:
            return compile_dictionary(self._raw_patterns, fold=self.fold,
                                      regex=self.regex,
                                      max_states=max_states,
                                      cache=self._cache)
        except CompileError as exc:
            raise MatcherError(str(exc)) from exc

    def _plan_exact(self, target_gbps: float) -> None:
        slices = self.compiled.num_slices
        if slices <= self.max_spes:
            import math
            ways_needed = max(1, math.ceil(target_gbps
                                           / self.per_tile_gbps))
            ways = max(1, min(self.max_spes // slices, ways_needed))
            self.composition: Optional[TileComposition] = \
                TileComposition.from_compiled(self.compiled, ways=ways,
                                              max_spes=self.max_spes)
            self.replacement: Optional[ReplacementMatcher] = None
            kind = "parallel" if slices == 1 and ways > 1 else \
                ("series" if ways == 1 and slices > 1 else
                 ("mixed" if slices > 1 else "single tile"))
            self.configuration = (
                f"{kind}: {ways} way(s) × {slices} slice(s) "
                f"({self.composition.spes_used} SPEs)")
            self.spes_used = self.composition.spes_used
            self.modelled_gbps = self.composition.throughput_gbps(
                self.per_tile_gbps)
        else:
            # Too many slices for resident tiles: dynamic STT replacement
            # with half-size slots.  Recompile against the half budget
            # (its own fingerprint, so both artifacts cache cleanly).
            half_budget = min(HALF_TILE_STATES, self.plan.max_states)
            self.compiled = self._compile(half_budget)
            self._ctx = ScanContext(self.compiled)
            self.composition = None
            self.replacement = ReplacementMatcher(self.compiled.partition)
            self.spes_used = self.max_spes
            self.modelled_gbps = effective_gbps(
                self.compiled.num_slices, self.per_tile_gbps, self.max_spes)
            self.configuration = (
                f"dynamic STT replacement: {self.compiled.num_slices} "
                f"slices cycling on {self.max_spes} SPE(s)")

    def _plan_regex(self) -> None:
        """Deploy the bin-packed regex slices: series tiles while they
        fit the SPE budget, dynamic STT replacement beyond that."""
        self.replacement = None
        num_slices = self.compiled.num_slices
        if num_slices <= self.max_spes:
            self.composition = TileComposition.from_compiled(
                self.compiled, ways=1, overlap=0, max_spes=self.max_spes)
            self.spes_used = num_slices
            self.modelled_gbps = self.per_tile_gbps
            kind = "single regex tile" if num_slices == 1 \
                else f"{num_slices} series regex tiles"
            self.configuration = \
                f"{kind} ({self.compiled.total_states} states)"
        else:
            self.composition = None
            self.spes_used = self.max_spes
            self.modelled_gbps = effective_gbps(
                num_slices, self.per_tile_gbps, self.max_spes)
            self.configuration = (
                f"dynamic STT replacement: {num_slices} regex slices "
                f"cycling on {self.max_spes} SPE(s)")

    # -- scanning -----------------------------------------------------------------

    def _execute(self, request: ScanRequest,
                 backend: Optional[str]) -> ScanOutcome:
        from .backends import BackendError

        try:
            return execute(self._ctx, request, backend=backend)
        except BackendError as exc:
            raise MatcherError(str(exc)) from exc

    def scan(self, data: Union[str, bytes],
             with_events: bool = False, workers: int = 1,
             backend: Optional[str] = None,
             fuse: bool = True,
             prefilter: Optional[bool] = None) -> ScanReport:
        """Scan one contiguous buffer; returns counts (and, optionally,
        the full list of match events with end positions).

        ``backend`` names a registry entry (``serial``, ``chunked``,
        ``fused``, ``hotcold2``, ``pooled``, ``streaming``, ``cellsim``)
        and is the one way to force a kernel;
        ``None``/``"auto"`` lets the execution planner choose from the
        input size, ``workers`` and ``with_events`` — preferring one
        shared pass whenever the dictionary was partitioned into
        several slices (``fuse=False`` is the escape hatch back to one
        pass per slice; ``prefilter`` overrides the packed screening
        stage — ``False`` disables it, ``True`` demands it, honoured
        even for an explicitly named backend).  ``workers > 1`` routes
        through the host-parallel layer (one kernel shared with a
        persistent process pool, cross-shard fixpoint repair).  Only the
        serial reporting backend produces events and per-pattern
        attribution.
        """
        raw = data.encode() if isinstance(data, str) else bytes(data)
        if with_events and workers > 1:
            raise MatcherError(
                "match events need the serial path; use workers=1 "
                "with with_events=True")
        outcome = self._execute(
            ScanRequest(data=raw, workers=workers,
                        with_events=with_events, fuse=fuse,
                        prefilter=prefilter), backend)
        return self._report(outcome)

    def scan_iter(self, chunks: Iterable[Union[str, bytes]],
                  workers: int = 1) -> ScanReport:
        """Scan a stream of chunks as one contiguous input, without ever
        materializing it.

        The concatenation of ``chunks`` is scanned exactly as
        :meth:`scan` would scan it in one piece — chunk boundaries are
        invisible, matches straddling them are counted — but memory use
        is bounded by the staging ring, so multi-GB streams flow
        through.  Counts only (events need the serial block path).
        """
        outcome = self._execute(
            ScanRequest(chunks=(c.encode() if isinstance(c, str) else c
                                for c in chunks),
                        workers=workers), "streaming")
        return self._report(outcome)

    def scan_file(self, file, workers: int = 1) -> ScanReport:
        """Scan a binary file's bytes, streamed straight into the
        staging ring (never materialized).  ``file`` is a path or a
        binary file object; counts only."""
        outcome = self._execute(
            ScanRequest(file=file, workers=workers), "streaming")
        return self._report(outcome)

    def scan_streams(self, streams: Sequence[bytes],
                     workers: int = 1) -> ScanReport:
        """Scan independent streams (counts only)."""
        total = 0
        bytes_scanned = 0
        seconds = 0.0
        backend = ""
        for s in streams:
            raw = s.encode() if isinstance(s, str) else bytes(s)
            outcome = self._execute(
                ScanRequest(data=raw, workers=workers), None)
            total += outcome.total_matches
            bytes_scanned += outcome.bytes_scanned
            seconds += outcome.seconds
            backend = outcome.backend
        return self._report(ScanOutcome(
            total_matches=total, bytes_scanned=bytes_scanned,
            backend=backend, workers=workers, seconds=seconds))

    def close(self) -> None:
        """Release host-parallel pools and shared artifacts, if any."""
        self._ctx.close()

    def __enter__(self) -> "CellStringMatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def count(self, data: Union[str, bytes], workers: int = 1) -> int:
        """Shortcut: total dictionary occurrences in ``data``."""
        return self.scan(data, workers=workers).total_matches

    def _report(self, outcome: ScanOutcome) -> ScanReport:
        return ScanReport(
            total_matches=outcome.total_matches,
            events=outcome.events,
            bytes_scanned=outcome.bytes_scanned,
            configuration=self.configuration,
            spes_used=self.spes_used,
            modelled_gbps=self.modelled_gbps,
            pattern_counts=outcome.pattern_counts,
            host_seconds=outcome.seconds,
            workers=outcome.workers,
            backend=outcome.backend,
        )

    # -- introspection ---------------------------------------------------------------

    @property
    def partition(self):
        """The exact-dictionary partition (``None`` in regex mode)."""
        return self.compiled.partition

    @property
    def _regex_slices(self) -> List[Tuple[object, List[int]]]:
        return self.compiled.regex_slices

    @property
    def num_patterns(self) -> int:
        return len(self._raw_patterns)

    def __repr__(self) -> str:
        return (f"CellStringMatcher(patterns={self.num_patterns}, "
                f"config={self.configuration!r})")

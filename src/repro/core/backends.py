"""The execute phase: interchangeable scan backends behind one registry.

The compile phase (:mod:`repro.core.compiled`) produces one
:class:`CompiledDictionary`; this module holds every way to run input
through it.  A :class:`ScanBackend` consumes a :class:`ScanRequest`
(one contiguous buffer, a chunk iterator, or a file) plus a
:class:`ScanContext` (the per-dictionary execution state: cached worker
pools and shared tables) and returns a :class:`ScanOutcome` — the one
result shape the whole stack agrees on.  Counts are defined by the
dictionary's event semantics (one per dictionary entry recognized), so
every backend is bit-identical on the differential suite.

Registered backends, and the paper section each reproduces:

========== ======================================================== =======
name       strategy                                                 paper
========== ======================================================== =======
serial     scalar event walk over every slice DFA                   §3
chunked    in-process speculative fixpoint over the flat table      §4
fused      stacked multi-slice STT, one pass for every slice        §6
hotcold2   union table, pair-symbol hot rows, two bytes per gather  §4
pooled     sharded process pool over the shared batch kernel        §6a
streaming  double-buffered staging ring, bounded-memory streams     Fig. 5
cellsim    exact counts + cycle-accounted Cell model (Table 1 v4)   §4/T1
========== ======================================================== =======

New execution strategies (GPU, thread pools, network shards) are new
``@register_backend`` entries, not new forks of the matcher.  Backend
*selection* is the execution planner's job
(:func:`repro.core.planner.plan_backend`); :func:`execute` glues the
two together and stamps wall-clock timing onto the outcome.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import (IO, Dict, Iterable, List, Optional, Tuple, Type,
                    Union)

import numpy as np

from ..dfa.automaton import MatchEvent
from .compiled import CompiledDictionary
from .planner import batch_kernel, plan_backend

__all__ = [
    "ScanOutcome",
    "ScanRequest",
    "ScanContext",
    "ScanBackend",
    "BackendError",
    "register_backend",
    "get_backend",
    "backend_names",
    "backend_specs",
    "execute",
]


class BackendError(Exception):
    """Raised for unknown backends or unsupported request shapes."""


@dataclass
class ScanOutcome:
    """What every backend returns: one scan's complete result.

    ``total_matches`` follows the dictionary's event semantics (one per
    entry recognized) on every backend; ``events`` / ``pattern_counts``
    are populated only by backends that support reporting; ``stats``
    carries backend-specific metadata (ring buffers cycled, shards
    repaired, modelled Cell cycles, ...).
    """

    total_matches: int
    bytes_scanned: int
    backend: str
    workers: int = 1
    events: Optional[List[MatchEvent]] = None
    pattern_counts: Optional[Dict[int, int]] = None
    seconds: float = 0.0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def gbps(self) -> float:
        """Measured host bitrate of this scan."""
        if self.seconds <= 0:
            return 0.0
        return self.bytes_scanned * 8 / self.seconds / 1e9


@dataclass
class ScanRequest:
    """One scan's input: exactly one of ``data`` (contiguous bytes),
    ``chunks`` (an iterable of bytes-like pieces forming one logical
    stream) or ``file`` (a path or binary file object)."""

    data: Optional[bytes] = None
    chunks: Optional[Iterable] = None
    file: Optional[Union[str, os.PathLike, IO[bytes]]] = None
    workers: int = 1
    with_events: bool = False
    #: Allow the planner to pick the shared-pass kernels (fused or
    #: union; the ``--no-fuse`` escape hatch sets this to ``False``).
    #: Only consulted by auto-planning — an explicit backend name, the
    #: one way to force a kernel, wins.
    fuse: bool = True
    #: Packed-prefilter escape hatch: ``None`` lets the planner mount
    #: the screening stage on large screenable blocks, ``False``
    #: disables it (``repro scan --no-prefilter``), ``True`` demands it
    #: (block input and a screenable dictionary required).  Unlike
    #: ``fuse`` this one is honoured for explicitly named backends too —
    #: the stage sits in front of whichever kernel runs.
    prefilter: Optional[bool] = None

    def __post_init__(self) -> None:
        given = sum(x is not None
                    for x in (self.data, self.chunks, self.file))
        if given != 1:
            raise BackendError(
                "exactly one of data/chunks/file must be given")
        if self.workers < 1:
            raise BackendError("workers must be >= 1")

    @property
    def kind(self) -> str:
        if self.data is not None:
            return "block"
        if self.chunks is not None:
            return "stream"
        return "file"


class ScanContext:
    """Per-dictionary execution state shared by the backends.

    Owns the lazily built scan kernels (one per registered kernel name)
    and host-parallel scanners (one persistent pool per worker count).
    The matcher keeps one context for its lifetime; benchmarks and the
    CLI build their own.
    """

    def __init__(self, compiled: CompiledDictionary) -> None:
        self.compiled = compiled
        self._sharded: Dict[int, object] = {}
        self._kernels: Dict[str, object] = {}

    def kernel(self, name: str):
        """The named :class:`~repro.core.scan.kernels.ScanKernel` over
        this dictionary, built once and cached.  Raises
        :class:`BackendError` when the dictionary cannot serve it
        (the union kernel over a regex dictionary)."""
        from .scan.kernels import get_kernel

        kern = self._kernels.get(name)
        if kern is None:
            cls = get_kernel(name)
            if not cls.supports(self.compiled):
                raise BackendError(
                    f"kernel {name!r} needs the union automaton; regex "
                    f"dictionaries have none (use the fused kernel)")
            kern = cls.from_compiled(self.compiled)
            self._kernels[name] = kern
        return kern

    def batch_kernel_name(self) -> str:
        """The whole-dictionary kernel of the ``pooled`` and
        ``streaming`` backends, which also verifies the prefilter's
        candidate windows when the planned backend has no verify
        kernel of its own (``pooled``): the planner's
        :func:`~repro.core.planner.batch_kernel` rule."""
        c = self.compiled
        return batch_kernel(c.supports_hot_cold, c.num_slices,
                            c.fused_table_bytes)

    def sharded(self, workers: int):
        """Cached :class:`~repro.parallel.ShardedScanner` for a worker
        count (the pool and shared segments persist across scans).  It
        runs the :meth:`batch_kernel_name` kernel — the same object the
        prefilter verifier uses."""
        from ..parallel import ShardedScanner

        scanner = self._sharded.get(workers)
        if scanner is None:
            scanner = ShardedScanner(self.kernel(self.batch_kernel_name()),
                                     workers=workers)
            self._sharded[workers] = scanner
        return scanner

    def close(self) -> None:
        """Release pools and shared segments (idempotent)."""
        scanners, self._sharded = self._sharded, {}
        for scanner in scanners.values():
            scanner.close()

    def __enter__(self) -> "ScanContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the registry ------------------------------------------------------------------


class ScanBackend:
    """One execution strategy over a compiled dictionary."""

    #: Registry key and ``--backend`` value.
    name: str = ""
    #: Which request kinds this backend accepts.
    kinds: Tuple[str, ...] = ("block",)
    #: Whether it can return match events / per-pattern counts.
    supports_events: bool = False
    #: Paper section / figure this strategy reproduces.
    paper_section: str = ""
    description: str = ""

    def scan(self, ctx: ScanContext,
             request: ScanRequest) -> ScanOutcome:  # pragma: no cover
        raise NotImplementedError

    def _require_kind(self, request: ScanRequest) -> None:
        if request.kind not in self.kinds:
            raise BackendError(
                f"backend {self.name!r} accepts {self.kinds}, got a "
                f"{request.kind!r} request (route streams through the "
                f"'streaming' backend)")


_REGISTRY: Dict[str, ScanBackend] = {}


def register_backend(cls: Type[ScanBackend]) -> Type[ScanBackend]:
    """Class decorator: instantiate and register one backend."""
    if not cls.name:
        raise BackendError("backend must declare a name")
    if cls.name in _REGISTRY:
        raise BackendError(f"backend {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls()
    return cls


def get_backend(name: str) -> ScanBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown backend {name!r}; registered: "
            f"{', '.join(backend_names())}") from None


def backend_names() -> List[str]:
    return list(_REGISTRY)


def backend_specs() -> List[Tuple[str, str, str]]:
    """``(name, paper_section, description)`` rows for ``repro info``."""
    return [(b.name, b.paper_section, b.description)
            for b in _REGISTRY.values()]


# -- backends ----------------------------------------------------------------------


def _serial_scan(compiled: CompiledDictionary, data, windows,
                 backend: str, with_events: bool,
                 stats: Dict[str, object]) -> ScanOutcome:
    """Every slice's scalar walk from its start state over each window
    ``(lo, hi)`` of ``data``; events in block coordinates, sorted by
    ``(end, pattern)`` like :meth:`CompiledDictionary.match_events`."""
    found: List[Tuple[int, int]] = []
    for lo, hi in windows:
        folded = compiled.fold.fold_bytes(data[lo:hi])
        for walk, group in zip(compiled.walks(), compiled.groups):
            found.extend((lo + end, group[local])
                         for end, local in walk.events(walk.start, folded))
    found.sort()
    return ScanOutcome(
        total_matches=len(found),
        bytes_scanned=len(data),
        backend=backend,
        events=[MatchEvent(end, pat) for end, pat in found]
        if with_events else None,
        pattern_counts=dict(Counter(pat for _, pat in found)),
        stats=stats)


@register_backend
class SerialBackend(ScanBackend):
    """Reference event semantics on the scalar walk: every slice DFA
    walks the folded input from its start state, reporting per-state
    outputs — full reporting, one pointer chase per byte and slice."""

    name = "serial"
    kinds = ("block",)
    supports_events = True
    paper_section = "§3 (reference DFA semantics)"
    description = "event-reporting scalar walk over every slice"

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        self._require_kind(request)
        return _serial_scan(ctx.compiled, request.data,
                            [(0, len(request.data))], self.name,
                            request.with_events,
                            {"slices": ctx.compiled.num_slices})


@register_backend
class ChunkedBackend(ScanBackend):
    """In-process speculative fixpoint: the input is cut into lockstep
    pieces scanned from guessed entry states over the fold-composed
    flat table, wrong guesses repaired to convergence — the paper's §4
    inner loop at host speed, single process."""

    name = "chunked"
    kinds = ("block",)
    paper_section = "§4 (flag-encoded STT inner loop)"
    description = "single-process speculative fixpoint, counts only"

    #: Speculation granularity floor (widened to scan.base.LANES_TARGET on
    #: large inputs).
    chunks = 256

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        self._require_kind(request)
        arr = np.frombuffer(request.data, dtype=np.uint8)
        total = ctx.kernel("flat").count_total(arr, self.chunks)
        return ScanOutcome(
            total_matches=total,
            bytes_scanned=arr.size,
            backend=self.name,
            stats={"slices": ctx.compiled.num_slices,
                   "chunks": self.chunks})


@register_backend
class FusedBackend(ScanBackend):
    """Fused multi-slice fixpoint: every slice's flat table stacked into
    one contiguous array with per-DFA cell bases, lanes = slices ×
    chunks, one strip-mined gather per input position advancing all of
    them — O(n) input traffic however many DFAs the dictionary was
    partitioned into, where the chunked path pays O(D·n)."""

    name = "fused"
    kinds = ("block",)
    paper_section = "§6 (series tiles, fused onto host lanes)"
    description = "one pass over the input for every slice (stacked STT)"

    #: Per-DFA speculation granularity, same meaning as the chunked
    #: backend's (widened to scan.base.LANES_TARGET on large inputs).
    chunks = 256

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        self._require_kind(request)
        arr = np.frombuffer(request.data, dtype=np.uint8)
        kern = ctx.kernel("fused")
        total = kern.count_total(arr, self.chunks) if arr.size else 0
        return ScanOutcome(
            total_matches=total,
            bytes_scanned=arr.size,
            backend=self.name,
            stats={"slices": ctx.compiled.num_slices,
                   "chunks": self.chunks,
                   "fused_cells": int(kern.table.flat.size)})


@register_backend
class HotCold2Backend(ScanBackend):
    """Two-byte-stride union scan: the hot/cold union automaton's
    hottest states squared into a pair-symbol table (one gather
    advances two input bytes — the paper's §4 loop unrolling pushed
    into the table itself), escapes replayed one byte at a time, and
    per-slice counts recovered D-invariantly from union-state
    accounting."""

    name = "hotcold2"
    kinds = ("block",)
    paper_section = "§4 (unrolled inner loop as a pair-symbol table)"
    description = "pair-symbol hot table, two input bytes per gather"

    #: Speculation granularity floor, widened to
    #: scan.base.HOTCOLD_LANES_TARGET on large inputs.
    chunks = 256

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        self._require_kind(request)
        arr = np.frombuffer(request.data, dtype=np.uint8)
        kern = ctx.kernel("hotcold2")
        kern.reset_stats()
        total = kern.count_total(arr, self.chunks)
        t = kern.table
        kstats = kern.stats()
        return ScanOutcome(
            total_matches=total,
            bytes_scanned=arr.size,
            backend=self.name,
            stats={"slices": ctx.compiled.num_slices,
                   "chunks": self.chunks,
                   "union_states": t.num_states,
                   "hot2_states": t.num_hot2,
                   "hot2_bytes": t.hot2_bytes,
                   "table_bytes": t.table_bytes,
                   "hot_hit_rate": kstats["hot_hit_rate"],
                   "cold_steps": kstats["cold_steps"],
                   "escapes": kstats["escapes"]})


@register_backend
class PooledBackend(ScanBackend):
    """Sharded process pool: the batch kernel attached by every worker
    from shared memory, speculative shard scans, incremental
    cross-shard repair — exact counts at multicore speed."""

    name = "pooled"
    kinds = ("block",)
    paper_section = "Figure 6a (parallel tiles) on host cores"
    description = "process-pool sharded scan over the shared kernel"

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        self._require_kind(request)
        scanner = ctx.sharded(request.workers)
        total = scanner.count_block(request.data)
        return ScanOutcome(
            total_matches=total,
            bytes_scanned=len(request.data),
            backend=self.name,
            workers=request.workers,
            stats={**scanner.last_scan_stats,
                   "kernel": scanner.kernel.name})


@register_backend
class StreamingBackend(ScanBackend):
    """Double-buffered staging ring: blocks, chunk iterators and files
    of any size flow through a fixed shared-memory footprint while the
    pool scans the resident buffer (the paper's Figure 5 overlap)."""

    name = "streaming"
    kinds = ("block", "stream", "file")
    paper_section = "Figure 5 (double-buffered streaming)"
    description = "staging-ring pipeline for streams and files"

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        scanner = ctx.sharded(request.workers)
        if request.kind == "file":
            total = scanner.scan_file(request.file)
        elif request.kind == "stream":
            total = scanner.count_stream(request.chunks)
        else:
            total = scanner.count_stream([request.data])
        stats = {**scanner.last_scan_stats, "kernel": scanner.kernel.name}
        return ScanOutcome(
            total_matches=total,
            bytes_scanned=int(stats.get("bytes", 0)),
            backend=self.name,
            workers=request.workers,
            stats=stats)


@register_backend
class CellSimBackend(ScanBackend):
    """Cycle-accounted reference: exact counts via the in-process
    engine, plus the modelled cost of running the same scan on the
    paper's machine — Table-1 v4 cycles per transition, one SPE tile
    per dictionary slice — attached as metadata."""

    name = "cellsim"
    kinds = ("block",)
    paper_section = "§4 / Table 1 (modelled Cell execution)"
    description = "exact counts + modelled Cell cycle accounting"

    version = 4

    def scan(self, ctx: ScanContext, request: ScanRequest) -> ScanOutcome:
        from ..analysis.models import (PAPER_TABLE1,
                                       gbps_from_cycles_per_transition)
        from ..cell.spu import CLOCK_HZ

        self._require_kind(request)
        outcome = get_backend("chunked").scan(ctx, request)
        cpt = PAPER_TABLE1[self.version].cycles_per_transition
        # Series slices occupy separate SPEs and scan concurrently, so
        # the modelled makespan is one tile's pass over the input.
        per_tile_transitions = outcome.bytes_scanned
        transitions = per_tile_transitions * ctx.compiled.num_slices
        modelled_seconds = per_tile_transitions * cpt / CLOCK_HZ
        outcome.backend = self.name
        outcome.stats.update({
            "kernel_version": self.version,
            "cycles_per_transition": cpt,
            "transitions": transitions,
            "modelled_seconds": modelled_seconds,
            "modelled_gbps": gbps_from_cycles_per_transition(cpt),
            "spes_used": ctx.compiled.num_slices,
        })
        return outcome


# -- driver ------------------------------------------------------------------------

#: Exact-verification kernel behind each block backend — what the
#: prefilter stage counts candidate windows with, so the screened path
#: runs the same inner loop the bare backend would.
_VERIFY_KERNELS = {
    "chunked": "flat",
    "cellsim": "flat",
    "fused": "fused",
    "hotcold2": "hotcold2",
}


def _validate_request(ctx: ScanContext, request: ScanRequest) -> None:
    """Reject contradictory flag combinations with one error naming the
    conflict, before any planning or table building happens."""
    if request.prefilter is True:
        if request.kind != "block":
            raise BackendError(
                f"conflicting flags: prefilter=True screens one "
                f"in-memory block, but this is a {request.kind!r} "
                f"request; candidate windows cannot be carried across "
                f"staging-ring refills")
        if ctx.compiled.prefilter() is None:
            raise BackendError(
                "conflicting flags: prefilter=True, but this "
                "dictionary is not screenable (regex entries, a "
                "pattern shorter than 3 bytes, or a trigram mask over "
                "the cache ceiling)")


def _plan(ctx: ScanContext, request: ScanRequest,
          backend: Optional[str]):
    """Resolve one request to an :class:`ExecutionPlan`.  An explicit
    backend name wins outright; only the ``prefilter`` hatch is still
    honoured for it, because the screening stage sits *in front of*
    whichever kernel runs rather than replacing it."""
    name = backend or "auto"
    if name != "auto":
        from .planner import ExecutionPlan

        return ExecutionPlan(name, "explicitly requested",
                             prefilter=request.prefilter is True)
    nbytes = len(request.data) if request.data is not None else None
    screenable = (request.kind == "block"
                  and ctx.compiled.prefilter() is not None)
    return plan_backend(nbytes=nbytes,
                        streaming=request.kind != "block",
                        workers=request.workers,
                        with_events=request.with_events,
                        num_slices=ctx.compiled.num_slices,
                        fuse=request.fuse,
                        exact=ctx.compiled.supports_hot_cold,
                        fused_bytes=ctx.compiled.fused_table_bytes,
                        prefilter=request.prefilter,
                        screenable=screenable)


def _segment_runner(ctx: ScanContext, request: ScanRequest, plan):
    """The prefilter stage's verifier: run the disjoint candidate
    windows through the same kernel family the bare backend would use
    (or the serial backend's scalar walk per window, shifting event
    offsets back into block coordinates)."""
    from .scan.prefilter import count_segments

    def run_segments(arr: np.ndarray, segments: np.ndarray,
                     pstats: Dict) -> ScanOutcome:
        stats: Dict[str, object] = {"slices": ctx.compiled.num_slices,
                                    "prefilter": pstats}
        if plan.backend == "serial":
            return _serial_scan(ctx.compiled, arr, segments.tolist(),
                                plan.backend, request.with_events, stats)
        kname = _VERIFY_KERNELS.get(plan.backend,
                                    ctx.batch_kernel_name())
        kern = ctx.kernel(kname)
        kern.reset_stats()
        total = count_segments(kern, arr, segments)
        stats["kernel"] = kname
        return ScanOutcome(
            total_matches=total,
            bytes_scanned=arr.size,
            backend=plan.backend,
            workers=request.workers,
            stats=stats)

    return run_segments


def build_pipeline(ctx: ScanContext, request: ScanRequest, plan,
                   chosen: ScanBackend):
    """Assemble one request's explicit stage pipeline: the packed
    prefilter stage when the plan mounts it, then the terminal backend
    stage.  The returned pipeline is inspectable (``describe()``) — it
    *is* the execution strategy, not a trace of one."""
    from .scan.pipeline import (BackendStage, PrefilterStage,
                                ScanPipeline)

    stages: List = []
    if plan.prefilter and request.kind == "block":
        pf = ctx.compiled.prefilter()
        if pf is not None:
            arr = np.frombuffer(request.data, dtype=np.uint8)
            stages.append(PrefilterStage(
                pf, arr, _segment_runner(ctx, request, plan)))
    stages.append(BackendStage(plan.backend,
                               lambda: chosen.scan(ctx, request)))
    return ScanPipeline(stages)


def execute(ctx: ScanContext, request: ScanRequest,
            backend: Optional[str] = None) -> ScanOutcome:
    """Run one request: validate its flags, resolve a plan
    (``None``/``"auto"`` asks the execution planner), assemble the
    stage pipeline, run it, and stamp the measured wall-clock onto the
    outcome.  Notes left by declining stages (a fallen-through
    prefilter's screening stats) are merged into the outcome's stats."""
    _validate_request(ctx, request)
    plan = _plan(ctx, request, backend)
    chosen = get_backend(plan.backend)
    if request.with_events and not chosen.supports_events:
        raise BackendError(
            f"backend {chosen.name!r} cannot report match events; use "
            f"the serial backend (workers=1)")
    pipeline = build_pipeline(ctx, request, plan, chosen)
    t0 = time.perf_counter()
    outcome = pipeline.run()
    outcome.seconds = time.perf_counter() - t0
    for key, val in pipeline.notes.items():
        outcome.stats.setdefault(key, val)
    return outcome

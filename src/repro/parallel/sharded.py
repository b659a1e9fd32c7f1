"""Sharded, speculative, exact multicore scanning — pipelined.

:class:`ShardedScanner` is the paper's Figure 6a made host-parallel: one
kernel, many identical scan units, disjoint slices of the input.  The
scanner runs exactly one registered
:class:`~repro.core.scan.kernels.ScanKernel`; a persistent worker pool
attaches it once through the kernel's ``shared_export()`` /
``from_bundle()`` pair (zero-copy, the "load the local store once"
moment), together with a persistent :class:`StagingRing` of input
buffers (the Figure 5 double-buffering moment): the host fills the idle
ring buffer while the workers scan the resident one, so arbitrarily
large inputs — blocks, chunk iterators, files — stream through a fixed
shared-memory footprint.

Exactness is kept by speculation plus repair.  Every worker scans its
shard from *guessed* entry states (Ko et al.'s speculative DFA
membership idea) and returns one
:class:`~repro.core.scan.driver.ScanDetail` ledger per *chain* — one
independently carried automaton: a slice for the flat and fused
kernels, the union automaton for the hot/cold kernels.  The host chains
the true states across shards and ring buffers; a wrong guess is
repaired *incrementally* through the kernel's per-chain ``repair`` —
leading ledger segments are rescanned until the trajectory rejoins the
recorded one — so a mis-speculated shard costs about one sub-chunk, not
a full rescan.  The in-process path (``workers=1`` and small blocks)
carries the same per-chain ledgers from chunk to chunk.  Counts are
bit-identical to a serial scan by determinism.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from collections import deque
from typing import Dict, Iterable, IO, List, Optional, Sequence, Union

import numpy as np
from multiprocessing import shared_memory

from ..core.scan.bundle import SharedArrayBundle
from ..core.scan.driver import ScanDetail
from ..core.scan.kernels import ScanKernel, get_kernel
from .ring import StagingRing

__all__ = ["ShardedScanner", "ShardedScanError"]

#: Default staging-buffer capacity.  Two of these exist per scanner; the
#: value trades shared-memory footprint against dispatch rounds for huge
#: inputs.
DEFAULT_RING_BYTES = 1 << 24


class ShardedScanError(Exception):
    """Raised for invalid inputs or configurations of the sharded path."""


def _check_symbols(bound: Optional[int], raw: np.ndarray) -> None:
    if bound is not None and raw.size and int(raw.max()) >= bound:
        raise ShardedScanError(
            "input contains symbols outside the alphabet and the kernel "
            "was built without a fold map")


# -- worker side -------------------------------------------------------------------

_WORKER: Dict = {}


def _init_worker(kernel_name: str, bundle_meta: Dict,
                 ring_names: List[str]) -> None:
    """Pool initializer: attach the kernel's bundle and the staging
    ring exactly once."""
    bundle = SharedArrayBundle.attach(bundle_meta)
    _WORKER["bundle"] = bundle
    _WORKER["kernel"] = get_kernel(kernel_name).from_bundle(bundle)
    _WORKER["ring"] = [shared_memory.SharedMemory(name=n)
                       for n in ring_names]


def _scan_shard(seg_idx: int, lo: int, hi: int,
                entry_states: Optional[Sequence[int]],
                chunks: int) -> List[ScanDetail]:
    """One speculative shard scan over a staged ring buffer: every
    chain's ledger, from ``entry_states`` (``None`` = start states)."""
    kernel = _WORKER["kernel"]
    shm = _WORKER["ring"][seg_idx]
    raw = np.frombuffer(shm.buf, dtype=np.uint8, count=hi - lo, offset=lo)
    try:
        _check_symbols(kernel.input_bound, raw)
        return kernel.count_arr_detail(raw, chunks,
                                       entry_states=entry_states)
    finally:
        raw = None


# -- producers ---------------------------------------------------------------------


class _ChunkFeed:
    """Packs an iterator of bytes-like chunks into staging buffers.

    Chunk boundaries carry no meaning — a chunk may span two buffers —
    so arbitrary chunkings produce identical counts.
    """

    def __init__(self, chunks: Iterable) -> None:
        self._it = iter(chunks)
        self._pending: Optional[memoryview] = None

    def fill(self, window: memoryview) -> int:
        pos = 0
        cap = len(window)
        while pos < cap:
            if self._pending is None:
                nxt = next(self._it, None)
                if nxt is None:
                    break
                self._pending = memoryview(nxt)
                if self._pending.ndim != 1 or self._pending.itemsize != 1:
                    raise ShardedScanError(
                        "stream chunks must be 1-D bytes-like objects")
                if not len(self._pending):
                    self._pending = None
                    continue
            take = min(cap - pos, len(self._pending))
            window[pos:pos + take] = self._pending[:take]
            pos += take
            self._pending = self._pending[take:] if take < len(
                self._pending) else None
        return pos


class _FileFeed:
    """Stages a binary file with ``readinto`` — no intermediate copies."""

    def __init__(self, fileobj: IO[bytes]) -> None:
        self._f = fileobj

    def fill(self, window: memoryview) -> int:
        pos = 0
        cap = len(window)
        while pos < cap:
            got = self._f.readinto(window[pos:])
            if not got:
                break
            pos += got
        return pos


# -- host side ---------------------------------------------------------------------

class ShardedScanner:
    """Exact multicore scanning of one kernel over streamed input.

    Parameters
    ----------
    kernel:
        The :class:`~repro.core.scan.kernels.ScanKernel` every worker
        runs, e.g. ``ScanContext.kernel(name)`` over a compiled
        dictionary or :meth:`FlatKernel.from_dfas` over bare automata.
        Its tables decide what the scan counts (weighted or not) and
        whether inputs are raw bytes or pre-folded symbols.
    workers:
        Pool size; defaults to ``os.cpu_count()``.  ``workers=1`` runs
        fully in-process (no pool, no ring, no shared segment) with
        identical semantics.
    chunks:
        Lockstep chunk floor *inside* each shard scan (widened
        automatically on large shards, see ``scan.base.LANES_TARGET``).
    min_shard_bytes:
        Blocks smaller than ``workers × min_shard_bytes`` skip the pool.
    ring_bytes / ring_depth:
        Per-buffer capacity and buffer count of the staging ring.  The
        defaults (two 16 MB buffers) suit bulk scanning; tests shrink
        them to force many buffer boundaries.
    """

    def __init__(self, kernel: ScanKernel,
                 workers: Optional[int] = None,
                 chunks: int = 256,
                 min_shard_bytes: int = 1 << 16,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 ring_depth: int = 2,
                 start_method: Optional[str] = None) -> None:
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ShardedScanError("workers must be >= 1")
        if chunks < 1:
            raise ShardedScanError("chunks must be >= 1")
        if ring_bytes < 1:
            raise ShardedScanError("ring_bytes must be >= 1")
        self.kernel = kernel
        self.workers = int(workers)
        self.chunks = int(chunks)
        self.min_shard_bytes = int(min_shard_bytes)
        #: Bookkeeping of the most recent scan (bytes staged, ring
        #: buffers cycled, tasks dispatched, shards repaired) — used by
        #: the benchmarks and the streaming entry points.
        self.last_scan_stats: Dict[str, int] = {}
        # An empty scan's ledgers carry each chain's start state.
        self._starts = [d.entry_state for d in kernel.count_arr_detail(
            np.zeros(0, dtype=np.uint8))]
        self._bundle: Optional[SharedArrayBundle] = None
        self._ring: Optional[StagingRing] = None
        self._pool = None
        self._closed = False
        try:
            if self.workers > 1:
                self._bundle = kernel.shared_export()
                self._ring = StagingRing(int(ring_bytes), int(ring_depth))
                ctx = mp.get_context(start_method)
                self._pool = ctx.Pool(
                    self.workers, initializer=_init_worker,
                    initargs=(kernel.name, self._bundle.meta(),
                              self._ring.names))
        except BaseException:
            self.close()
            raise

    @property
    def num_chains(self) -> int:
        """Independently counted automata: one per slice for the flat
        and fused kernels, one for the union kernel."""
        return len(self._starts)

    # -- block scanning -----------------------------------------------------------

    def count_block(self, block: bytes) -> int:
        """Exact total count over one contiguous input (raw bytes when
        the kernel composes a fold, pre-folded symbols otherwise)."""
        return sum(self.count_per_chain(block))

    def count_per_chain(self, block) -> List[int]:
        """Per-chain exact counts over one contiguous input."""
        self._check_open()
        n = len(block)
        if n == 0:
            self.last_scan_stats = {"bytes": 0, "buffers": 0, "tasks": 0,
                                    "repaired_shards": 0}
            return [0] * self.num_chains
        if self._pool is None or n < self.workers * self.min_shard_bytes:
            return self._count_local([block])
        return self._pipeline(_ChunkFeed([block]))

    # -- streaming ----------------------------------------------------------------

    def count_stream(self, chunks: Iterable) -> int:
        """Exact total count over a stream of bytes-like chunks.

        The concatenation of the chunks is scanned as one contiguous
        input — chunk boundaries are invisible to the automata — without
        ever materializing it: chunks are packed into the staging ring
        (or, pool-less, scanned with carried chain states).
        """
        return sum(self.count_stream_per_chain(chunks))

    def count_stream_per_chain(self, chunks: Iterable) -> List[int]:
        """Per-chain exact counts over a stream of bytes-like chunks."""
        self._check_open()
        if self._pool is None:
            return self._count_local(chunks)
        return self._pipeline(_ChunkFeed(chunks))

    def scan_file(self, file: Union[str, os.PathLike, IO[bytes]]) -> int:
        """Exact total count over a file's bytes, streamed through the
        ring (``readinto`` straight into shared memory — the input is
        never materialized in one piece)."""
        self._check_open()
        if hasattr(file, "readinto"):
            return self._scan_fileobj(file)
        with open(file, "rb", buffering=0) as f:
            return self._scan_fileobj(f)

    def _scan_fileobj(self, f: IO[bytes]) -> int:
        if self._pool is None:
            cap = DEFAULT_RING_BYTES
            return sum(self._count_local(
                iter(lambda: f.read(cap), b"")))
        return sum(self._pipeline(_FileFeed(f)))

    # -- in-process path ----------------------------------------------------------

    def _count_local(self, chunks: Iterable) -> List[int]:
        """Serial scan with carried chain states — the workers=1 and
        small-input path, streaming-capable."""
        totals = [0] * self.num_chains
        carry = list(self._starts)
        nbytes = 0
        for chunk in chunks:
            arr = np.frombuffer(chunk, dtype=np.uint8)
            if arr.size == 0:
                continue
            _check_symbols(self.kernel.input_bound, arr)
            nbytes += arr.size
            details = self.kernel.count_arr_detail(arr, self.chunks,
                                                   entry_states=carry)
            for c, detail in enumerate(details):
                totals[c] += detail.total
                carry[c] = detail.exit_state
        self.last_scan_stats = {"bytes": nbytes, "buffers": 0, "tasks": 0,
                                "repaired_shards": 0}
        return totals

    # -- the pipelined pooled path -------------------------------------------------

    def _pipeline(self, feed) -> List[int]:
        """Double-buffered scan: fill ring buffer ``k+1`` while the pool
        scans buffer ``k``; repair speculative entries incrementally at
        collection time, carrying the true chain states across
        buffers."""
        ring = self._ring
        totals = [0] * self.num_chains
        carry = list(self._starts)
        pending: deque = deque()
        stats = {"bytes": 0, "buffers": 0, "tasks": 0,
                 "repaired_shards": 0}
        seg = 0
        while True:
            if len(pending) == ring.depth:
                # Oldest buffer must drain before its slot is refilled.
                self._collect(pending.popleft(), carry, totals, stats)
            n = ring.fill(seg, feed.fill)
            if n == 0:
                break
            jobs, bounds = self._dispatch(seg, n, carry)
            pending.append((seg, bounds, jobs))
            stats["bytes"] += n
            stats["buffers"] += 1
            stats["tasks"] += len(jobs)
            seg = (seg + 1) % ring.depth
        while pending:
            self._collect(pending.popleft(), carry, totals, stats)
        self.last_scan_stats = stats
        return totals

    def _dispatch(self, seg: int, n: int, carry: List[int]):
        """One task per worker per buffer, each scanning every chain.
        Shard 0 is entered from the latest *known* carry states (exact
        if this buffer was dispatched after its predecessor drained,
        speculative when the predecessor is still in flight); inner
        shards guess the start states, as convergent security DFAs
        overwhelmingly reach them."""
        shards = min(self.workers, n)
        bounds = np.linspace(0, n, shards + 1).astype(np.int64)
        jobs = [self._pool.apply_async(
                    _scan_shard,
                    (seg, int(bounds[i]), int(bounds[i + 1]),
                     list(carry) if i == 0 else None, self.chunks))
                for i in range(shards)]
        return jobs, bounds

    def _collect(self, staged, carry: List[int], totals: List[int],
                 stats: Dict[str, int]) -> None:
        """Drain one buffer's tasks; chain true states through its
        shards, repairing wrong speculative entries from the ledgers."""
        seg, bounds, jobs = staged
        # Drain every task before touching any shared view: a worker
        # exception propagates with this frame in its traceback, and a
        # bound ring view would then block the segment unmap in close().
        per_shard = [job.get() for job in jobs]
        for c in range(self.num_chains):
            state = carry[c]
            for i, ledgers in enumerate(per_shard):
                detail = ledgers[c]
                if state == detail.entry_state:
                    totals[c] += detail.total
                    state = detail.exit_state
                    continue
                lo, hi = int(bounds[i]), int(bounds[i + 1])
                arr = self._ring.array(seg, hi - lo, offset=lo)
                try:
                    cnt, state = self.kernel.repair(c, arr, detail, state,
                                                    self.chunks)
                finally:
                    arr = None
                totals[c] += cnt
                stats["repaired_shards"] += 1
            carry[c] = state

    # -- lifetime -----------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise ShardedScanError("scanner is closed")

    def close(self) -> None:
        """Shut the pool down gracefully and release every shared
        segment.  Idempotent; segments are unlinked even if the pool
        teardown raises, so nothing can leak."""
        self._closed = True
        pool, self._pool = self._pool, None
        try:
            if pool is not None:
                pool.close()
                pool.join()
        finally:
            bundle, self._bundle = self._bundle, None
            if bundle is not None:
                bundle.close()
            ring, self._ring = self._ring, None
            if ring is not None:
                ring.close()

    def __enter__(self) -> "ShardedScanner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (f"ShardedScanner(kernel={self.kernel.name!r}, "
                f"chains={self.num_chains}, workers={self.workers})")

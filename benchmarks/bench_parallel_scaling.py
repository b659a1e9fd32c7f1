"""Core-count scaling of the host-parallel sharded scanner.

The paper's Figure 7 story — identical tiles over disjoint slices,
throughput multiplying with the tile count — re-run on host cores:
:class:`repro.parallel.ShardedScanner` scans one large planted-traffic
block with 1, 2, 4, … workers and reports the scaling curve.  Counts are
cross-checked between every configuration, against the single-process
engine at a different chunking, and against the pure-Python reference
scan (on a prefix by default — the reference runs at ~1 MB/s — or on the
whole block with ``REPRO_BENCH_FULL_REF=1``).

Every configuration runs the same flat kernel
(:meth:`repro.core.scan.FlatKernel.from_dfas`), which workers attach
from its shared-memory bundle.

Setup cost (pool fork + shared-segment creation + first-scan warmup) is
measured separately from steady-state scanning and reported as
``setup_seconds``: the pool is persistent, so a long-lived service pays
it once, and folding it into the scan time (as the original bench did)
made the steady-state curve unreadable.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1``  — tiny block, workers {1, 2}: the CI smoke run.
* ``REPRO_BENCH_BLOCK_MB`` — block size in MB (default 64).
* ``REPRO_BENCH_WORKERS``  — comma-separated worker counts.
* ``REPRO_BENCH_REF_MB``   — reference-scan prefix in MB (default 2).
* ``REPRO_BENCH_FULL_REF`` — reference-scan the whole block.
* ``REPRO_BENCH_RING_MB``  — staging-ring buffer capacity in MB
  (default 16; CI sets 1 so the smoke block cycles several buffers).

Note: the speedup this bench can *show* is bounded by the cores of the
machine it runs on (``os.cpu_count()`` is recorded in the JSON payload);
on a single-core container the curve is flat and the exactness checks
are the meaningful output.
"""

import os
import time

import pytest

from repro.analysis import ascii_table
from repro.core.scan import FlatKernel, SharedArrayBundle, VectorDFAEngine
from repro.dfa import build_dfa
from repro.parallel import ShardedScanner
from repro.workloads import plant_matches, random_payload, \
    random_signatures

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
BLOCK_MB = float(os.environ.get("REPRO_BENCH_BLOCK_MB",
                                "4" if SMOKE else "64"))
REF_MB = float(os.environ.get("REPRO_BENCH_REF_MB", "2"))
FULL_REF = os.environ.get("REPRO_BENCH_FULL_REF") == "1"
RING_BYTES = int(float(os.environ.get("REPRO_BENCH_RING_MB", "16")) * 1e6)
REPS = 1 if SMOKE else 2


def _worker_counts():
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env:
        return [int(w) for w in env.split(",") if w.strip()]
    if SMOKE:
        return [1, 2]
    counts = [1, 2, 4]
    if (os.cpu_count() or 1) >= 8:
        counts.append(8)
    return counts


PATTERNS = random_signatures(25, 4, 10, seed=50)


def _build_block(nbytes: int) -> bytes:
    return plant_matches(random_payload(nbytes, seed=71), PATTERNS,
                         max(1, nbytes // 2000), seed=72)


def test_parallel_scaling_report(report, report_json):
    nbytes = int(BLOCK_MB * 1e6)
    block = _build_block(nbytes)
    dfa = build_dfa(PATTERNS, 32)
    engine = VectorDFAEngine(dfa)
    kernel = FlatKernel.from_dfas(dfa)

    results = {}
    rows = []
    for workers in _worker_counts():
        t0 = time.perf_counter()
        with ShardedScanner(kernel, workers=workers, chunks=1024,
                            min_shard_bytes=0,
                            ring_bytes=RING_BYTES) as scanner:
            scanner.count_block(block[:200_000])   # warm the pool
            setup = time.perf_counter() - t0
            dt = float("inf")
            for _ in range(REPS):
                t0 = time.perf_counter()
                count = scanner.count_block(block)
                dt = min(dt, time.perf_counter() - t0)
            stats = dict(scanner.last_scan_stats)
        results[workers] = {"seconds": dt, "count": count,
                            "setup_seconds": setup,
                            "buffers": stats.get("buffers", 1),
                            "repaired_shards": stats.get(
                                "repaired_shards", 0),
                            "mb_per_s": len(block) / dt / 1e6}
        rows.append([workers, round(setup, 3), round(dt, 3),
                     round(results[workers]["mb_per_s"], 1),
                     round(results[1]["seconds"] / dt, 2), count])

    counts = {r["count"] for r in results.values()}
    assert len(counts) == 1, f"configs disagree: {results}"
    count = counts.pop()

    # Independent single-process check at a different chunking.
    assert engine.count_block(block, chunks=333) == count

    # Ground-truth reference scan (pure Python, ~1 MB/s).
    ref_bytes = len(block) if FULL_REF else min(len(block),
                                                int(REF_MB * 1e6))
    ref_prefix = engine.count_block_reference(block[:ref_bytes])
    sharded_prefix = count if ref_bytes == len(block) else None
    if sharded_prefix is None:
        with ShardedScanner(kernel, workers=min(_worker_counts()[-1], 4),
                            chunks=1024, min_shard_bytes=0) as scanner:
            sharded_prefix = scanner.count_block(block[:ref_bytes])
    assert sharded_prefix == ref_prefix, \
        "sharded count disagrees with the reference scan"

    text = ascii_table(
        ["workers", "setup s", "scan s", "MB/s", "speedup", "matches"],
        rows,
        title=f"Sharded scan scaling, {len(block) / 1e6:.0f} MB planted "
              f"traffic ({os.cpu_count()} host core(s), "
              f"{RING_BYTES / 1e6:.0f} MB ring buffers)")
    report("parallel_scaling", text)
    report_json("parallel", {
        "block_bytes": len(block),
        "host_cores": os.cpu_count(),
        "patterns": len(PATTERNS),
        "count": count,
        "ring_bytes": RING_BYTES,
        "reference_checked_bytes": ref_bytes,
        "per_workers": {str(w): {"seconds": round(r["seconds"], 4),
                                 "setup_seconds": round(
                                     r["setup_seconds"], 4),
                                 "mb_per_s": round(r["mb_per_s"], 2),
                                 "buffers": r["buffers"],
                                 "repaired_shards": r["repaired_shards"],
                                 "speedup": round(
                                     results[1]["seconds"] / r["seconds"],
                                     3)}
                        for w, r in results.items()},
    })


def test_streaming_scan_file_report(report_json, tmp_path):
    """The pipelined ``scan_file`` path: fixed-footprint streaming of a
    file larger than one staging buffer, counts checked against the
    in-memory scan."""
    nbytes = int(min(BLOCK_MB, 8.0) * 1e6)
    block = _build_block(nbytes)
    dfa = build_dfa(PATTERNS, 32)
    expected = VectorDFAEngine(dfa).count_block(block, chunks=333)
    path = tmp_path / "stream.bin"
    path.write_bytes(block)

    ring = min(RING_BYTES, 1 << 20)     # force several buffer cycles
    workers = max(_worker_counts())
    with ShardedScanner(FlatKernel.from_dfas(dfa), workers=workers,
                        chunks=1024, min_shard_bytes=0,
                        ring_bytes=ring) as scanner:
        scanner.count_block(block[:200_000])   # warm the pool
        t0 = time.perf_counter()
        count = scanner.scan_file(path)
        dt = time.perf_counter() - t0
        stats = dict(scanner.last_scan_stats)

    assert count == expected
    assert stats["buffers"] > 1
    report_json("parallel_stream", {
        "file_bytes": len(block),
        "ring_bytes": ring,
        "workers": workers,
        "count": count,
        "buffers": stats["buffers"],
        "repaired_shards": stats["repaired_shards"],
        "mb_per_s": round(len(block) / dt / 1e6, 2),
    })


def test_kernel_bundle_attach_is_cheap(report_json):
    """Kernel build and export happen once; a worker's attach (segment
    map + ``from_bundle``) is microseconds — the 'load the local store
    once, stream input past it' property."""
    dfa = build_dfa(PATTERNS, 32)
    t0 = time.perf_counter()
    bundle = FlatKernel.from_dfas(dfa).shared_export()
    build_s = time.perf_counter() - t0
    try:
        meta = bundle.meta()
        t0 = time.perf_counter()
        n = 50
        for _ in range(n):
            peer = SharedArrayBundle.attach(meta)
            FlatKernel.from_bundle(peer)
            peer.close()
        attach_s = (time.perf_counter() - t0) / n
        size = bundle.size_bytes
    finally:
        bundle.close()
    report_json("kernel_bundle", {
        "bundle_bytes": size,
        "build_seconds": round(build_s, 6),
        "attach_seconds": round(attach_s, 6),
    })
    assert attach_s < build_s or attach_s < 1e-3

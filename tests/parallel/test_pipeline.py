"""The staging-ring scan pipeline: serial parity across buffer
boundaries, fold-composed raw-byte tables, streaming entry points
(``count_stream`` / ``scan_file`` / matcher ``scan_iter``), and
lifecycle hygiene (graceful close, no leaked segments).

Ring capacities here are tiny on purpose: every scan cycles many staged
buffers, so cross-buffer carry and incremental repair are exercised on
every assertion, not just on multi-GB inputs.
"""

import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.scan import FlatKernel, VectorDFAEngine
from repro.core.matcher import CellStringMatcher
from repro.dfa import build_dfa
from repro.dfa.alphabet import case_fold_32
from repro.parallel import ShardedScanner, StagingRing
from repro.workloads import plant_matches, random_payload, \
    random_signatures

PATTERNS = random_signatures(10, 3, 9, seed=17)
DFA = build_dfa(PATTERNS, 32)
ENGINE = VectorDFAEngine(DFA)


def planted(nbytes, seed):
    return plant_matches(random_payload(nbytes, seed=seed), PATTERNS,
                         max(1, nbytes // 300), seed=seed + 1)


def tiny_ring(workers, ring_bytes=4096, **kw):
    """A pooled scanner forced through many small staged buffers."""
    kw.setdefault("min_shard_bytes", 0)
    return ShardedScanner(FlatKernel.from_dfas(DFA), workers=workers,
                          ring_bytes=ring_bytes, **kw)


# -- pipelined block parity --------------------------------------------------------


@pytest.mark.parametrize("workers", [2, 3])
def test_pipelined_counts_match_serial_across_many_buffers(workers):
    block = planted(100_000, 91)
    expected = ENGINE.count_block_reference(block)
    with tiny_ring(workers) as scanner:
        assert scanner.count_block(block) == expected
        assert scanner.last_scan_stats["buffers"] >= 20
        assert scanner.last_scan_stats["bytes"] == len(block)


def test_matches_straddling_staged_buffer_boundaries():
    """A block that is one long pattern run, staged through a buffer
    whose size is coprime to the pattern length: every single buffer
    boundary (and shard boundary) falls inside a match, so the
    cross-buffer carry and the incremental repair must both be exact."""
    pattern = bytes([1, 2, 3, 4, 5, 6, 7])
    dfa = build_dfa([pattern], 32)
    block = pattern * 3000 + pattern[:4]
    expected = VectorDFAEngine(dfa).count_block_reference(block)
    assert expected == 3000
    for workers in (2, 4):
        with ShardedScanner(FlatKernel.from_dfas(dfa), workers=workers,
                            min_shard_bytes=0, ring_bytes=1000,
                            chunks=8) as scanner:
            assert scanner.count_block(block) == expected
            assert scanner.last_scan_stats["buffers"] == 22
            # Entry guesses cannot survive a pattern run; the repair
            # path must actually have fired.
            assert scanner.last_scan_stats["repaired_shards"] > 0


def test_multi_dfa_pipeline_counts_are_per_slice():
    a = build_dfa([bytes([1, 2, 3])], 32)
    b = build_dfa([bytes([4, 5])], 32)
    block = (bytes([1, 2, 3]) * 5 + bytes([4, 5]) * 7) * 700
    ea = VectorDFAEngine(a).count_block_reference(block)
    eb = VectorDFAEngine(b).count_block_reference(block)
    with ShardedScanner(FlatKernel.from_dfas([a, b]), workers=2,
                        min_shard_bytes=0, ring_bytes=2048) as scanner:
        assert scanner.count_per_chain(block) == [ea, eb]


# -- streaming entry points --------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_count_stream_chunk_boundaries_are_invisible(workers):
    block = planted(50_000, 23)
    expected = ENGINE.count_block_reference(block)
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.integers(0, len(block), 40))
    chunks = [block[lo:hi] for lo, hi in
              zip(np.r_[0, cuts], np.r_[cuts, len(block)])]
    assert b"".join(chunks) == block
    with tiny_ring(workers) as scanner:
        assert scanner.count_stream(iter(chunks)) == expected


def test_count_stream_handles_empty_and_tiny_chunks():
    block = planted(5_000, 29)
    expected = ENGINE.count_block_reference(block)
    chunks = [b"", block[:1], b"", block[1:7], block[7:]]
    for workers in (1, 2):
        with tiny_ring(workers, ring_bytes=512) as scanner:
            assert scanner.count_stream(chunks) == expected
    with tiny_ring(2) as scanner:
        assert scanner.count_stream([]) == 0


@pytest.mark.parametrize("workers", [1, 2])
def test_scan_file_larger_than_the_ring(tmp_path, workers):
    block = planted(60_000, 41)
    expected = ENGINE.count_block_reference(block)
    path = tmp_path / "traffic.bin"
    path.write_bytes(block)
    with tiny_ring(workers) as scanner:
        assert scanner.scan_file(path) == expected           # by path
        with open(path, "rb") as f:
            assert scanner.scan_file(f) == expected          # by object
        assert scanner.last_scan_stats["bytes"] == len(block)


# -- fold-composed raw-byte tables -------------------------------------------------


def test_fold_composed_table_matches_folded_reference():
    fold = case_fold_32()
    raw = (b"The Quick Brown Fox SELECTs a PASSWD file \xff\x80\x00. "
           * 400)
    patterns = [fold.fold_bytes(p) for p in (b"select", b"passwd")]
    dfa = build_dfa(patterns, 32)
    expected = VectorDFAEngine(dfa).count_block_reference(
        fold.fold_bytes(raw))
    assert expected > 0
    for workers in (1, 2):
        with ShardedScanner(FlatKernel.from_dfas(dfa, fold=fold),
                            workers=workers, min_shard_bytes=0,
                            ring_bytes=2048) as scanner:
            assert scanner.count_block(raw) == expected
            assert scanner.count_stream([raw[:5000], raw[5000:]]) \
                == expected


def test_fold_composed_weighted_counts_match_event_semantics():
    fold = case_fold_32()
    patterns = [fold.fold_bytes(p) for p in (b"select", b"elect")]
    dfa = build_dfa(patterns, 32)
    raw = b" SELECT " * 900
    for workers in (1, 2):
        kernel = FlatKernel.from_dfas(dfa, fold=fold, weighted=True)
        with ShardedScanner(kernel, workers=workers, min_shard_bytes=0,
                            ring_bytes=1536) as scanner:
            assert scanner.count_block(raw) == 1800   # 2 entries x 900


# -- matcher streaming API ---------------------------------------------------------


def test_matcher_scan_iter_matches_block_scan():
    raw = plant_matches(random_payload(40_000, 256, seed=61),
                        [b"select", b"passwd", b"elect"], 90, seed=62)
    with CellStringMatcher([b"select", b"passwd", b"elect"]) as matcher:
        serial = matcher.scan(raw).total_matches
        chunks = [raw[i:i + 1234] for i in range(0, len(raw), 1234)]
        for workers in (1, 2):
            rep = matcher.scan_iter(iter(chunks), workers=workers)
            assert rep.total_matches == serial
            assert rep.bytes_scanned == len(raw)
            assert rep.workers == workers


def test_matcher_scan_file_matches_block_scan(tmp_path):
    raw = plant_matches(random_payload(30_000, 256, seed=71),
                        [b"union", b"select"], 70, seed=72)
    path = tmp_path / "stream.bin"
    path.write_bytes(raw)
    with CellStringMatcher([b"union", b"select"]) as matcher:
        serial = matcher.scan(raw).total_matches
        for workers in (1, 2):
            rep = matcher.scan_file(path, workers=workers)
            assert rep.total_matches == serial
            assert rep.bytes_scanned == len(raw)


def test_matcher_scan_iter_accepts_str_chunks():
    with CellStringMatcher([b"select"]) as matcher:
        rep = matcher.scan_iter(["no hits here ", "SELECT one"])
        assert rep.total_matches == 1


# -- lifecycle ---------------------------------------------------------------------


def test_ring_validation_and_idempotent_close():
    with pytest.raises(ValueError):
        StagingRing(0)
    with pytest.raises(ValueError):
        StagingRing(1024, depth=1)
    ring = StagingRing(1024, depth=3)
    assert len(ring.names) == 3
    ring.close()
    ring.close()


def test_close_is_graceful_and_idempotent():
    scanner = tiny_ring(2)
    block = planted(20_000, 81)
    assert scanner.count_block(block) == \
        ENGINE.count_block_reference(block)
    workers = scanner._pool._pool        # the live worker processes
    scanner.close()
    assert scanner._pool is None and scanner._ring is None
    for p in workers:
        p.join(timeout=10)
        assert p.exitcode == 0           # graceful exit, not SIGTERM
    scanner.close()


def test_no_shared_memory_segments_leak(tmp_path):
    """A full pooled scan in a fresh interpreter must exit without any
    resource_tracker complaints — leaked segments are impossible."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    code = (
        "from repro.dfa import build_dfa\n"
        "from repro.core.scan import FlatKernel\n"
        "from repro.parallel import ShardedScanner\n"
        "dfa = build_dfa([bytes([1, 2, 3])], 32)\n"
        "with ShardedScanner(FlatKernel.from_dfas(dfa), workers=2,\n"
        "                    min_shard_bytes=0,\n"
        "                    ring_bytes=4096) as s:\n"
        "    print(s.count_block(bytes([1, 2, 3]) * 2000))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(src), "PATH": "/usr/bin"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2000"
    assert "leaked" not in proc.stderr
    assert "resource_tracker" not in proc.stderr

"""ShardedScanner: exactness against the reference scan, edge shapes,
weighted semantics, and the matcher's workers= path.

Blocks are kept small — the point here is bit-identical counts across
every sharding configuration, not throughput (see
benchmarks/bench_parallel_scaling.py for that).
"""

import pytest

from repro.core.scan import FlatKernel, VectorDFAEngine
from repro.core.matcher import CellStringMatcher, MatcherError
from repro.dfa import build_dfa
from repro.dfa.alphabet import case_fold_32
from repro.dfa.automaton import DFAError
from repro.parallel import ShardedScanner, ShardedScanError
from repro.workloads import plant_matches, random_payload, \
    random_signatures

PATTERNS = random_signatures(12, 3, 8, seed=7)
DFA = build_dfa(PATTERNS, 32)
ENGINE = VectorDFAEngine(DFA)


def planted(nbytes, seed):
    return plant_matches(random_payload(nbytes, seed=seed), PATTERNS,
                         max(1, nbytes // 400), seed=seed + 1)


def pooled(workers, **kw):
    """A scanner whose pool path is always taken (no small-input bypass)."""
    kw.setdefault("min_shard_bytes", 0)
    return ShardedScanner(FlatKernel.from_dfas(DFA), workers=workers,
                          **kw)


# -- exactness ---------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("seed", [11, 12, 13])
def test_counts_match_reference_on_random_corpora(workers, seed):
    block = planted(20_000 + 37 * seed, seed)
    expected = ENGINE.count_block_reference(block)
    with pooled(workers, chunks=17) as scanner:
        assert scanner.count_block(block) == expected


def test_matches_straddling_every_shard_boundary():
    """A block that is one long pattern run: any shard boundary falls
    inside a match, so every entry-state guess is wrong and the fixpoint
    must repair all of them."""
    pattern = bytes([1, 2, 3, 4, 5, 6, 7])
    dfa = build_dfa([pattern], 32)
    engine = VectorDFAEngine(dfa)
    block = pattern * 1000 + pattern[:3]     # 7003 bytes, 1000 matches
    expected = engine.count_block_reference(block)
    assert expected == 1000
    for workers in (2, 3, 4, 5):
        with ShardedScanner(FlatKernel.from_dfas(dfa), workers=workers,
                            chunks=7, min_shard_bytes=0) as scanner:
            assert scanner.count_block(block) == expected


@pytest.mark.parametrize("block", [b"", bytes([3])], ids=["empty", "1byte"])
def test_degenerate_blocks(block):
    expected = ENGINE.count_block_reference(block)
    with pooled(2) as scanner:
        assert scanner.count_block(block) == expected


def test_more_shards_than_bytes():
    block = bytes([1, 2, 3])
    with pooled(4) as scanner:
        assert scanner.count_block(block) == \
            ENGINE.count_block_reference(block)


def test_workers_1_is_the_in_process_path():
    block = planted(8_000, 21)
    with ShardedScanner(FlatKernel.from_dfas(DFA), workers=1) as scanner:
        assert scanner._pool is None
        assert scanner.count_block(block) == \
            ENGINE.count_block_reference(block)


def test_small_input_bypasses_the_pool():
    block = planted(1_000, 22)
    with ShardedScanner(FlatKernel.from_dfas(DFA), workers=2,
                        min_shard_bytes=1 << 16) as scanner:
        assert scanner._pool is not None
        assert scanner.count_block(block) == \
            ENGINE.count_block_reference(block)


# -- fold and validation -----------------------------------------------------------


def test_workers_fold_raw_traffic():
    fold = case_fold_32()
    raw = b"The Quick Brown Fox SELECTs a PASSWD file. " * 300
    patterns = [fold.fold_bytes(p) for p in (b"select", b"passwd")]
    dfa = build_dfa(patterns, 32)
    expected = VectorDFAEngine(dfa).count_block_reference(
        fold.fold_bytes(raw))
    assert expected > 0
    for workers in (1, 3):
        with ShardedScanner(FlatKernel.from_dfas(dfa, fold=fold),
                            workers=workers,
                            min_shard_bytes=0) as scanner:
            assert scanner.count_block(raw) == expected


@pytest.mark.parametrize("workers", [1, 2])
def test_out_of_alphabet_symbols_rejected_without_fold(workers):
    with pooled(workers) as scanner:
        with pytest.raises(ShardedScanError):
            scanner.count_block(bytes([1, 200, 3]) * 100)


def test_scan_after_close_raises():
    scanner = ShardedScanner(FlatKernel.from_dfas(DFA), workers=1)
    scanner.close()
    with pytest.raises(ShardedScanError):
        scanner.count_block(bytes([1, 2, 3]))
    with pytest.raises(ShardedScanError):
        scanner.count_per_chain(bytes([1]))
    with pytest.raises(ShardedScanError):
        scanner.count_stream([bytes([1])])
    scanner.close()     # close stays idempotent


def test_constructor_validation():
    kernel = FlatKernel.from_dfas(DFA)
    with pytest.raises(ShardedScanError):
        ShardedScanner(kernel, workers=0)
    with pytest.raises(ShardedScanError):
        ShardedScanner(kernel, chunks=0)
    with pytest.raises(ShardedScanError):
        ShardedScanner(kernel, ring_bytes=0)
    with pytest.raises(DFAError):
        FlatKernel.from_dfas([])
    with pytest.raises(DFAError):
        FlatKernel.from_dfas([DFA, build_dfa([b"\x01"], 16)])


# -- weighted counting and multi-DFA ------------------------------------------------


def test_weighted_counts_suffix_patterns_per_entry():
    """'elect' inside 'select': the weighted mode counts both dictionary
    entries at the shared final position, matching event semantics."""
    fold = case_fold_32()
    patterns = [fold.fold_bytes(p) for p in (b"select", b"elect")]
    dfa = build_dfa(patterns, 32)
    block = fold.fold_bytes(b" select " * 500)
    plain = VectorDFAEngine(dfa).count_block_reference(block)
    for workers in (1, 2):
        with ShardedScanner(FlatKernel.from_dfas(dfa, weighted=True),
                            workers=workers,
                            min_shard_bytes=0) as scanner:
            assert scanner.count_block(block) == 1000    # 2 entries x 500
        with ShardedScanner(FlatKernel.from_dfas(dfa), workers=workers,
                            min_shard_bytes=0) as scanner:
            assert scanner.count_block(block) == plain == 500


def test_multi_dfa_counts_are_per_slice():
    a = build_dfa([bytes([1, 2, 3])], 32)
    b = build_dfa([bytes([4, 5])], 32)
    block = (bytes([1, 2, 3]) * 5 + bytes([4, 5]) * 7) * 40
    ea = VectorDFAEngine(a).count_block_reference(block)
    eb = VectorDFAEngine(b).count_block_reference(block)
    with ShardedScanner(FlatKernel.from_dfas([a, b]), workers=2,
                        min_shard_bytes=0) as scanner:
        assert scanner.count_per_chain(block) == [ea, eb]
        assert scanner.count_block(block) == ea + eb


# -- matcher integration ------------------------------------------------------------


def test_matcher_parallel_scan_equals_serial():
    raw = plant_matches(random_payload(60_000, 256, seed=40),
                        [b"select", b"passwd", b"union"], 120, seed=41)
    with CellStringMatcher([b"select", b"passwd", b"union"]) as matcher:
        serial = matcher.scan(raw)
        par = matcher.scan(raw, workers=2)
        assert par.total_matches == serial.total_matches
        assert par.workers == 2 and serial.workers == 1
        assert par.host_seconds > 0
        assert "host:" in par.summary()
        assert matcher.count(raw, workers=2) == serial.total_matches


def test_matcher_parallel_refuses_events():
    with CellStringMatcher([b"abc"]) as matcher:
        with pytest.raises(MatcherError):
            matcher.scan(b"zabcz", with_events=True, workers=2)


def test_matcher_parallel_streams():
    streams = [plant_matches(random_payload(2_000, 256, seed=50 + i),
                             [b"select"], 4, seed=60 + i)
               for i in range(5)]
    with CellStringMatcher([b"select", b"elect"]) as matcher:
        serial = matcher.scan_streams(streams)
        par = matcher.scan_streams(streams, workers=2)
        assert par.total_matches == serial.total_matches

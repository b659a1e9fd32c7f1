"""Speculative-scan edge lengths: empty input, single bytes, and the
lane-floor boundary (len in {0, 1, chunk-1, chunk, chunk+1}) across the
in-process engine, the chunked fixpoint, incremental repair, and the
sharded/streaming paths."""

import numpy as np
import pytest

from repro.core.scan import (LANES_TARGET, MIN_PIECE, FlatKernel,
                             VectorDFAEngine, build_weight_table, count_arr,
                             count_arr_detail, repair_detail)
from repro.dfa.aho_corasick import AhoCorasick
from repro.dfa.alphabet import case_fold_32
from repro.dfa.automaton import DFAError
from repro.parallel import ShardedScanner

FOLD = case_fold_32()
PATTERNS = [b"abab", b"ba"]


def _dfa():
    return AhoCorasick([FOLD.fold_bytes(p) for p in PATTERNS], 32).to_dfa()


def _flat():
    """The fold-composed flat kernel over :func:`_dfa` (raw-byte input)."""
    return FlatKernel.from_dfas(_dfa(), fold=FOLD)


def _corpus(n: int) -> bytes:
    return (b"abAB" * (n // 4 + 1))[:n]


EDGE_LENGTHS = sorted({
    0, 1,
    MIN_PIECE - 1, MIN_PIECE, MIN_PIECE + 1,
    LANES_TARGET - 1, LANES_TARGET, LANES_TARGET + 1,
})


class TestEngineEdges:
    @pytest.mark.parametrize("n", EDGE_LENGTHS)
    def test_count_block_edge_lengths(self, n):
        eng = VectorDFAEngine(_dfa())
        data = FOLD.fold_bytes(_corpus(n))
        assert eng.count_block(data) == eng.count_block_reference(data)

    @pytest.mark.parametrize("chunks", [1, 2, 64, 256])
    def test_count_block_below_lane_floor(self, chunks):
        # Inputs shorter than MIN_PIECE used to divide by a zero lane
        # count for some chunk settings; every (len, chunks) pair must
        # now agree with the reference scan.
        eng = VectorDFAEngine(_dfa())
        for n in (0, 1, 2, 5, 63):
            data = FOLD.fold_bytes(_corpus(n))
            assert eng.count_block(data, chunks=chunks) == \
                eng.count_block_reference(data), (n, chunks)

    def test_count_arr_rejects_zero_chunks(self):
        eng = VectorDFAEngine(_dfa())
        arr = np.frombuffer(FOLD.fold_bytes(_corpus(10)), dtype=np.uint8)
        with pytest.raises(DFAError, match="chunks"):
            count_arr(eng.scanner, arr, 0, eng.dfa.start)
        with pytest.raises(DFAError, match="chunks"):
            count_arr(eng.scanner, arr, -3, eng.dfa.start)

    @pytest.mark.parametrize("n", [0, 1, MIN_PIECE - 1, MIN_PIECE + 1])
    def test_repair_detail_edge_lengths(self, n):
        # A deliberately wrong entry state forces the incremental repair
        # path; it must agree with a reference scan from that state.
        eng = VectorDFAEngine(_dfa())
        if n == 0:
            return
        arr = np.frombuffer(FOLD.fold_bytes(_corpus(n)), dtype=np.uint8)
        detail = count_arr_detail(eng.scanner, arr, 16, eng.dfa.start)
        wrong_entry = eng.dfa.num_states - 1
        cnt, exit_state = repair_detail(eng.scanner, arr, detail,
                                        wrong_entry, 16)
        ref_cnt, ref_exit = count_arr(eng.scanner, arr, 1, wrong_entry)
        assert (cnt, exit_state) == (ref_cnt, ref_exit)


class TestRunStreamsEdges:
    """Ragged multi-stream lockstep, locked against one-stream-at-a-
    time serial scans."""

    def _reference(self, eng, streams, start_states=None, weights=None):
        counts, finals = [], []
        for j, s in enumerate(streams):
            arr = np.frombuffer(s, dtype=np.uint8)
            entry = eng.start if start_states is None \
                else int(start_states[j])
            if arr.size == 0:
                counts.append(0)
                finals.append(entry)
                continue
            c, x = count_arr(eng.scanner, arr, 1, entry,
                             weights=weights)
            counts.append(c)
            finals.append(x)
        return counts, finals

    def test_empty_stream_list_rejected(self):
        eng = VectorDFAEngine(_dfa())
        with pytest.raises(DFAError, match="at least one"):
            eng.run_streams([])

    def test_zero_length_streams_mixed_with_long(self):
        eng = VectorDFAEngine(_dfa())
        streams = [b"", FOLD.fold_bytes(_corpus(997)), b"",
                   FOLD.fold_bytes(_corpus(3)), b"",
                   FOLD.fold_bytes(_corpus(4096))]
        result = eng.run_streams(streams)
        want_c, want_x = self._reference(eng, streams)
        assert list(result.counts) == want_c
        assert list(result.final_states) == want_x

    def test_all_zero_length_streams(self):
        eng = VectorDFAEngine(_dfa())
        result = eng.run_streams([b"", b"", b""])
        assert not result.counts.any()
        assert (result.final_states == eng.start).all()

    def test_weights_and_start_states_combined(self):
        eng = VectorDFAEngine(_dfa())
        weights = build_weight_table(eng.dfa)
        streams = [FOLD.fold_bytes(_corpus(n))
                   for n in (0, 5, 129, 64, 1023, 1)]
        starts = np.arange(len(streams)) % eng.dfa.num_states
        result = eng.run_streams(streams, start_states=starts,
                                 weights=weights)
        want_c, want_x = self._reference(eng, streams,
                                         start_states=starts,
                                         weights=weights)
        assert list(result.counts) == want_c
        assert list(result.final_states) == want_x

    def test_start_state_out_of_range_rejected(self):
        eng = VectorDFAEngine(_dfa())
        bad = np.array([0, eng.dfa.num_states])
        with pytest.raises(DFAError, match="range"):
            eng.run_streams([b"", b""], start_states=bad)


class TestShardedEdges:
    @pytest.mark.parametrize("n", [0, 1, MIN_PIECE - 1, MIN_PIECE,
                                   MIN_PIECE + 1])
    def test_tiny_blocks(self, n):
        eng = VectorDFAEngine(_dfa())
        raw = _corpus(n)
        expected = eng.count_block_reference(FOLD.fold_bytes(raw))
        with ShardedScanner(_flat(), workers=1) as scanner:
            assert scanner.count_block(raw) == expected

    def test_pooled_tiny_shards(self):
        # min_shard_bytes=1 forces the pool + ring even for inputs so
        # small every worker gets a near-empty shard.
        eng = VectorDFAEngine(_dfa())
        with ShardedScanner(_flat(), workers=2,
                            min_shard_bytes=1, ring_bytes=64) as scanner:
            for n in (1, 2, 63, 64, 65, 200):
                raw = _corpus(n)
                expected = eng.count_block_reference(FOLD.fold_bytes(raw))
                assert scanner.count_block(raw) == expected, n

    def test_stream_of_empty_and_single_byte_chunks(self):
        eng = VectorDFAEngine(_dfa())
        raw = _corpus(301)
        expected = eng.count_block_reference(FOLD.fold_bytes(raw))
        chunks = [b""] + [raw[i:i + 1] for i in range(150)] + [b""] \
            + [raw[150:]]
        with ShardedScanner(_flat(), workers=1) as scanner:
            assert scanner.count_stream(iter(chunks)) == expected
        with ShardedScanner(_flat(), workers=2,
                            min_shard_bytes=1, ring_bytes=32) as scanner:
            assert scanner.count_stream(iter(chunks)) == expected

    def test_empty_stream(self):
        with ShardedScanner(_flat(), workers=1) as scanner:
            assert scanner.count_stream(iter([])) == 0
            assert scanner.count_stream(iter([b"", b""])) == 0

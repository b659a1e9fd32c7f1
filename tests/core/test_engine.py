"""The vectorized numpy engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.scan import VectorDFAEngine
from repro.dfa import AhoCorasick, DFAError, build_dfa
from repro.workloads import plant_matches, random_payload

PATTERNS = [bytes([1, 2, 3]), bytes([4, 5]), bytes([1, 1])]


@pytest.fixture(scope="module")
def engine():
    return VectorDFAEngine(build_dfa(PATTERNS, 32))


class TestRunStreams:
    def test_counts_match_reference(self, engine):
        rng = np.random.default_rng(1)
        streams = [plant_matches(random_payload(200, seed=i), PATTERNS, 3,
                                 seed=i) for i in range(8)]
        res = engine.run_streams(streams)
        expected = [engine.dfa.count_matches(s) for s in streams]
        assert res.counts.tolist() == expected

    def test_final_states_reported(self, engine):
        streams = [bytes([1, 2, 3]), bytes([0, 0, 0])]
        res = engine.run_streams(streams)
        assert engine.dfa.final_mask[res.final_states[0]]
        assert res.final_states[1] == engine.dfa.start

    def test_custom_start_states(self, engine):
        # Starting mid-pattern: state after consuming [1, 2].
        mid = engine.dfa.run(bytes([1, 2]))
        res = engine.run_streams([bytes([3])],
                                 start_states=np.array([mid]))
        assert res.total == 1

    def test_empty_streams(self, engine):
        res = engine.run_streams([b"", b""])
        assert res.total == 0
        assert (res.final_states == engine.dfa.start).all()

    def test_ragged_streams_lockstep(self, engine):
        # Ragged lengths are legal: lanes retire as streams end.
        streams = [bytes([1]), bytes([1, 2, 3]), b"",
                   plant_matches(random_payload(97, seed=9), PATTERNS,
                                 4, seed=9)]
        res = engine.run_streams(streams)
        assert res.counts.tolist() == \
            [engine.dfa.count_matches(s) for s in streams]
        assert res.final_states[2] == engine.dfa.start

    def test_out_of_alphabet_rejected(self, engine):
        with pytest.raises(DFAError, match="fold"):
            engine.run_streams([bytes([99])])

    def test_no_streams_rejected(self, engine):
        with pytest.raises(DFAError):
            engine.run_streams([])


class TestCountBlock:
    def test_matches_reference_on_planted_data(self, engine):
        block = plant_matches(random_payload(10_000, seed=3), PATTERNS, 40,
                              seed=4)
        assert engine.count_block(block) == \
            engine.count_block_reference(block)

    def test_chunking_does_not_lose_boundary_matches(self, engine):
        """Force a match to straddle every chunk boundary."""
        block = bytes([1, 2, 3] * 400)  # matches everywhere
        for chunks in (1, 3, 7, 64):
            assert engine.count_block(block, chunks=chunks) == \
                engine.count_block_reference(block)

    def test_single_byte_block(self, engine):
        assert engine.count_block(bytes([4])) == 0
        assert engine.count_block(bytes([1])) == 0

    def test_empty_block(self, engine):
        assert engine.count_block(b"") == 0

    def test_more_chunks_than_bytes(self, engine):
        block = bytes([1, 2, 3])
        assert engine.count_block(block, chunks=64) == 1

    def test_invalid_args(self, engine):
        with pytest.raises(DFAError):
            engine.count_block(b"\x01", chunks=0)
        with pytest.raises(DFAError, match="fold"):
            engine.count_block(bytes([200]))

    @settings(max_examples=40, deadline=None)
    @given(st.binary(min_size=0, max_size=600).map(
        lambda b: bytes(x % 32 for x in b)),
        st.integers(min_value=1, max_value=32))
    def test_chunked_equals_reference_property(self, block, chunks):
        engine = VectorDFAEngine(build_dfa(PATTERNS, 32))
        assert engine.count_block(block, chunks=chunks) == \
            engine.count_block_reference(block)


class TestLockstepSemantics:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.binary(min_size=4, max_size=60).map(
        lambda b: bytes(x % 32 for x in b)),
        min_size=1, max_size=6))
    def test_streams_independent_property(self, raw_streams):
        # Pad to a common length.
        length = max(len(s) for s in raw_streams)
        streams = [s + bytes(length - len(s)) for s in raw_streams]
        engine = VectorDFAEngine(build_dfa(PATTERNS, 32))
        res = engine.run_streams(streams)
        for i, s in enumerate(streams):
            assert res.counts[i] == engine.dfa.count_matches(s)

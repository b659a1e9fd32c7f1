"""Cross-engine validation: every matching path in the repository must
agree on the same workload — the reproduction's master invariant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import NaiveMatcher, WuManberMatcher
from repro.core.composition import parallel, series
from repro.core.scan import VectorDFAEngine
from repro.core.matcher import CellStringMatcher
from repro.core.planner import plan_tile
from repro.core.replacement import ReplacementMatcher
from repro.core.tile import DFATile
from repro.dfa import AhoCorasick, build_dfa, case_fold_32, \
    partition_patterns
from repro.workloads import plant_matches, random_payload, \
    random_signatures, streams_for_tile


@pytest.fixture(scope="module")
def workload():
    patterns = random_signatures(10, 3, 7, seed=100)
    block = plant_matches(random_payload(4096, seed=101), patterns, 30,
                          seed=102)
    return patterns, block


class TestEventEquivalence:
    def test_ac_naive_wm_same_events(self, workload):
        patterns, block = workload
        ref = NaiveMatcher(patterns).find_all(block)
        assert AhoCorasick(patterns, 32).find_all(block) == ref
        assert WuManberMatcher(patterns).find_all(block) == ref


class TestCountEquivalence:
    def test_engine_equals_reference(self, workload):
        patterns, block = workload
        dfa = build_dfa(patterns, 32)
        assert VectorDFAEngine(dfa).count_block(block) == \
            dfa.count_matches(block)

    def test_composition_equals_engine(self, workload):
        patterns, block = workload
        dfa = build_dfa(patterns, 32)
        engine_count = VectorDFAEngine(dfa).count_block(block)
        assert parallel(dfa, 4).scan_block(block).total_matches == \
            engine_count
        slices = partition_patterns(patterns, 20).dfas
        assert series(slices).scan_block(block).total_matches == \
            engine_count

    def test_replacement_equals_engine(self, workload):
        patterns, block = workload
        dfa = build_dfa(patterns, 32)
        engine_count = VectorDFAEngine(dfa).count_block(block)
        rm = ReplacementMatcher.from_patterns(patterns,
                                              states_per_slice=25)
        assert rm.scan_block(block)[0] == engine_count


class TestSimulatorEquivalence:
    """The SPU-simulated kernels against the numpy engine and reference —
    the strongest end-to-end check in the repository."""

    def test_tile_simulation_matches_engine(self):
        patterns = random_signatures(6, 3, 6, seed=103)
        dfa = build_dfa(patterns, 32)
        tile = DFATile(dfa, plan=plan_tile(buffer_bytes=1024))
        engine = VectorDFAEngine(dfa)
        streams = streams_for_tile(96, patterns, seed=104)
        tile_result = tile.run_streams(streams)  # verify=True built in
        engine_result = engine.run_streams(streams)
        assert tile_result.counts == engine_result.counts.tolist()

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5])
    def test_all_kernel_versions_agree(self, version):
        patterns = random_signatures(5, 3, 5, seed=105)
        dfa = build_dfa(patterns, 32)
        tile = DFATile(dfa, plan=plan_tile(buffer_bytes=1024))
        if version == 1:
            streams = streams_for_tile(480, patterns, num_streams=1,
                                       seed=106)
        else:
            streams = streams_for_tile(96, patterns, seed=106)
        result = tile.run_streams(streams, version=version)
        assert result.counts == tile.reference_counts(streams)


class TestMatcherEndToEnd:
    def test_matcher_equals_naive_in_folded_space(self):
        fold = case_fold_32()
        words = [b"VIRUS", b"WORM", b"EXPLOIT", b"RUS"]
        matcher = CellStringMatcher(words)
        raw = (b"a Virus carrying a worm exploited the VIRUSWORM "
               b"and the wOrM laughed")
        folded = fold.fold_bytes(raw)
        naive = NaiveMatcher([fold.fold_bytes(w) for w in words])
        assert matcher.scan(raw).total_matches == naive.count(folded)

    @settings(max_examples=20, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_matcher_arbitrary_bytes_property(self, raw):
        fold = case_fold_32()
        words = [b"ABC", b"XYZ", b"AA"]
        matcher = CellStringMatcher(words)
        naive = NaiveMatcher([fold.fold_bytes(w) for w in words])
        assert matcher.scan(raw).total_matches == \
            naive.count(fold.fold_bytes(raw))

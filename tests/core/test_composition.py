"""Tile composition: series/parallel/mixed (Figures 6, 7)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.composition import (
    CompositionError,
    TileComposition,
    mixed,
    parallel,
    series,
)
from repro.core.scan import VectorDFAEngine
from repro.dfa import AhoCorasick, build_dfa, partition_patterns
from repro.workloads import plant_matches, random_payload

PATTERNS = [bytes([1, 2, 3]), bytes([4, 5]), bytes([6, 7, 8, 9]),
            bytes([2, 2])]


def split_dfas(max_states=8):
    return partition_patterns(PATTERNS, max_states).dfas


class TestModel:
    def test_parallel_multiplies_throughput(self):
        dfa = build_dfa(PATTERNS, 32)
        comp = parallel(dfa, ways=2)
        assert comp.throughput_gbps(5.11) == pytest.approx(10.22)
        assert comp.spes_used == 2

    def test_figure7_mixed_configuration(self):
        """2 parallel groups × 4 series tiles = 8 SPEs, 10.22 Gbps, ~4x
        dictionary."""
        dfas = [build_dfa([bytes([i, i])], 32) for i in range(1, 5)]
        comp = mixed(dfas, ways=2)
        assert comp.spes_used == 8
        assert comp.throughput_gbps(5.11) == pytest.approx(10.22)
        assert comp.total_states == sum(d.num_states for d in dfas)

    def test_series_keeps_throughput(self):
        comp = series(split_dfas())
        assert comp.throughput_gbps(5.11) == pytest.approx(5.11)

    def test_chip_budget_enforced(self):
        dfa = build_dfa(PATTERNS, 32)
        with pytest.raises(CompositionError, match="SPEs"):
            parallel(dfa, ways=9)
        dfas = [dfa] * 5
        with pytest.raises(CompositionError):
            mixed(dfas, ways=2)

    def test_eight_spe_headline(self):
        """8 parallel tiles -> 40.88 Gbps (paper §5)."""
        comp = parallel(build_dfa(PATTERNS, 32), ways=8)
        assert comp.throughput_gbps(5.11) == pytest.approx(40.88)

    def test_invalid_configurations(self):
        with pytest.raises(CompositionError):
            TileComposition([], ways=1)
        with pytest.raises(CompositionError):
            TileComposition([build_dfa(PATTERNS, 32)], ways=0)
        with pytest.raises(CompositionError, match="overlap"):
            TileComposition([build_dfa(PATTERNS, 32)], ways=1, overlap=-1)

    def test_alphabet_mismatch_rejected(self):
        a = build_dfa(PATTERNS, 32)
        b = build_dfa([bytes([1])], 16)
        with pytest.raises(CompositionError, match="alphabet"):
            series([a, b])

    def test_describe(self):
        comp = parallel(build_dfa(PATTERNS, 32), ways=2)
        text = comp.describe()
        assert "2 parallel" in text and "Gbps" in text


class TestDefaultOverlap:
    def test_overlap_is_longest_pattern_minus_one(self):
        comp = parallel(build_dfa(PATTERNS, 32), ways=2)
        assert comp.overlap == max(len(p) for p in PATTERNS) - 1

    def test_explicit_overlap_respected(self):
        comp = parallel(build_dfa(PATTERNS, 32), ways=2, overlap=10)
        assert comp.overlap == 10


class TestFunctionalEquivalence:
    def make_block(self, seed, n=3000):
        return plant_matches(random_payload(n, seed=seed), PATTERNS, 25,
                             seed=seed + 1)

    def reference(self, block):
        return VectorDFAEngine(build_dfa(PATTERNS, 32)).count_block(block)

    @pytest.mark.parametrize("ways", [1, 2, 4, 8])
    def test_parallel_slicing_exact(self, ways):
        block = self.make_block(ways)
        comp = parallel(build_dfa(PATTERNS, 32), ways=ways)
        assert comp.scan_block(block).total_matches == self.reference(block)

    def test_boundary_crossing_match_preserved(self):
        """Plant a match exactly across every slice boundary."""
        block = bytearray(random_payload(4000, seed=77))
        comp = parallel(build_dfa(PATTERNS, 32), ways=4)
        base = -(-len(block) // 4)
        for w in range(1, 4):
            pos = w * base - 2  # straddles the boundary
            block[pos:pos + 4] = PATTERNS[2]
        block = bytes(block)
        assert comp.scan_block(block).total_matches == self.reference(block)

    def test_series_union_equals_monolithic(self):
        block = self.make_block(9)
        comp = series(split_dfas())
        assert comp.scan_block(block).total_matches == self.reference(block)

    def test_mixed_equals_monolithic(self):
        block = self.make_block(10)
        comp = mixed(split_dfas(), ways=2)
        assert comp.scan_block(block).total_matches == self.reference(block)

    def test_scan_streams(self):
        streams = [self.make_block(s, 500) for s in range(4)]
        comp = series(split_dfas())
        expected = sum(self.reference(s) for s in streams)
        assert comp.scan_streams(streams).total_matches == expected

    def test_empty_block(self):
        comp = parallel(build_dfa(PATTERNS, 32), ways=2)
        assert comp.scan_block(b"").total_matches == 0

    @settings(max_examples=25, deadline=None)
    @given(st.binary(min_size=0, max_size=800).map(
        lambda b: bytes(x % 32 for x in b)),
        st.integers(min_value=1, max_value=8))
    def test_parallel_exactness_property(self, block, ways):
        comp = parallel(build_dfa(PATTERNS, 32), ways=ways)
        ref = build_dfa(PATTERNS, 32).count_matches(block)
        assert comp.scan_block(block).total_matches == ref

"""Dynamic STT replacement (paper §6, Figures 8 and 9)."""

import pytest

from repro.cell.memory import BandwidthModel
from repro.core.scan import VectorDFAEngine
from repro.core.replacement import (
    HALF_TILE_STT_BYTES,
    ReplacementError,
    ReplacementMatcher,
    effective_gbps,
    replacement_schedule,
)
from repro.core.schedule import ScheduleError
from repro.dfa import build_dfa, partition_patterns
from repro.workloads import plant_matches, random_payload, random_signatures


class TestEffectiveGbps:
    def test_single_slice_is_full_speed(self):
        assert effective_gbps(1) == pytest.approx(5.11)

    @pytest.mark.parametrize("n,expected", [
        (2, 5.11 / 2), (3, 5.11 / 4), (4, 5.11 / 6), (7, 5.11 / 12),
    ])
    def test_paper_law(self, n, expected):
        """T(n) = 5.11 / (2(n-1))."""
        assert effective_gbps(n) == pytest.approx(expected)

    def test_spes_multiply(self):
        assert effective_gbps(3, num_spes=8) == \
            pytest.approx(8 * 5.11 / 4)

    def test_monotone_decreasing_in_slices(self):
        values = [effective_gbps(n) for n in range(1, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid(self):
        with pytest.raises(ReplacementError):
            effective_gbps(0)
        with pytest.raises(ReplacementError):
            effective_gbps(2, num_spes=0)
        with pytest.raises(ReplacementError):
            effective_gbps(2, per_tile_gbps=0)


class TestSchedule:
    def test_figure8_schedule_verifies(self):
        sched = replacement_schedule(3, periods=8)
        sched.verify()

    def test_period_timing_matches_paper(self):
        """Periods of 25.64 us; STT chunks of ~17.8/17.5 us riding the
        DMA slack after the 5.94 us input load."""
        sched = replacement_schedule(2, periods=4)
        computes = sched.on("compute")
        period = computes[0].duration
        assert period == pytest.approx(25.64e-6, rel=0.01)
        dmas = sched.on("dma")
        stt_chunks = [iv for iv in dmas if "slice" in iv.label]
        assert stt_chunks[0].duration == pytest.approx(17.83e-6, rel=0.02)

    def test_slice_rotation(self):
        sched = replacement_schedule(3, periods=12)
        labels = [iv.label for iv in sched.on("compute")]
        assert any("slice 0" in lb for lb in labels)
        assert any("slice 1" in lb for lb in labels)
        assert any("slice 2" in lb for lb in labels)

    def test_infeasible_chunk_detected(self):
        """A chunk too large for the period's DMA slack must fail."""
        with pytest.raises(ScheduleError, match="infeasible"):
            replacement_schedule(2, periods=4,
                                 stt_bytes=HALF_TILE_STT_BYTES * 4)

    def test_single_slice_rejected(self):
        with pytest.raises(ReplacementError, match="two slices"):
            replacement_schedule(1)

    def test_invalid_periods(self):
        with pytest.raises(ReplacementError):
            replacement_schedule(2, periods=1)

    def test_zero_length_block_rejected(self):
        with pytest.raises(ReplacementError, match="positive"):
            replacement_schedule(2, block_bytes=0)

    def test_degenerate_stt_rejected(self):
        with pytest.raises(ReplacementError):
            replacement_schedule(2, stt_bytes=16)

    def test_slices_equal_spes_goes_resident(self):
        """With as many SPEs as slices nothing needs replacing: the
        planner pins one slice per SPE at full tile speed."""
        from repro.core.replacement import plan_topology
        plan = plan_topology(4, 4)
        assert plan.slices_per_spe == 1
        assert plan.gbps == pytest.approx(5.11)


class TestReplacementMatcher:
    @pytest.fixture(scope="class")
    def setup(self):
        patterns = random_signatures(30, 3, 8, seed=21)
        matcher = ReplacementMatcher.from_patterns(patterns,
                                                   states_per_slice=40)
        mono = VectorDFAEngine(build_dfa(patterns, 32))
        return patterns, matcher, mono

    def test_multiple_slices_created(self, setup):
        _, matcher, _ = setup
        assert matcher.num_slices > 1

    def test_scan_block_equals_monolithic(self, setup):
        patterns, matcher, mono = setup
        block = plant_matches(random_payload(5000, seed=2), patterns, 30,
                              seed=3)
        total, per_slice = matcher.scan_block(block)
        assert total == mono.count_block(block)
        assert sum(per_slice) == total

    def test_scan_streams_equals_monolithic(self, setup):
        patterns, matcher, mono = setup
        streams = [plant_matches(random_payload(300, seed=i), patterns, 4,
                                 seed=i) for i in range(5)]
        total, _ = matcher.scan_streams(streams)
        expected = sum(mono.run_streams([s]).total for s in streams)
        assert total == expected

    def test_modelled_gbps_uses_law(self, setup):
        _, matcher, _ = setup
        n = matcher.num_slices
        assert matcher.modelled_gbps() == pytest.approx(effective_gbps(n))

    def test_aggregate_stt_bytes(self, setup):
        _, matcher, _ = setup
        expected = sum(d.num_states * 128 for d in matcher.partition.dfas)
        assert matcher.aggregate_stt_bytes() == expected

    def test_empty_block(self, setup):
        _, matcher, _ = setup
        total, per_slice = matcher.scan_block(b"")
        assert total == 0


class TestDoubleBuffer:
    def test_initial_state(self):
        from repro.core.replacement import DoubleBuffer
        buf = DoubleBuffer("first")
        assert buf.active == "first"
        assert buf.standby is None
        assert not buf.has_staged
        assert buf.generation == 1

    def test_stage_then_promote_flips_roles(self):
        from repro.core.replacement import DoubleBuffer
        buf = DoubleBuffer("first")
        buf.stage("second")
        assert buf.active == "first"      # staging never disturbs active
        assert buf.standby == "second"
        retired = buf.promote()
        assert retired == "first"
        assert buf.active == "second"
        assert buf.generation == 2
        assert not buf.has_staged

    def test_promote_without_stage_rejected(self):
        from repro.core.replacement import DoubleBuffer
        with pytest.raises(ReplacementError, match="stage"):
            DoubleBuffer("first").promote()

    def test_generations_are_monotonic(self):
        from repro.core.replacement import DoubleBuffer
        buf = DoubleBuffer(0)
        for i in range(1, 5):
            buf.stage(i)
            assert buf.promote() == i - 1
        assert buf.generation == 5
        assert buf.active == 4


class TestSwapSlice:
    @pytest.fixture
    def matcher(self):
        patterns = random_signatures(30, 3, 8, seed=21)
        return ReplacementMatcher.from_patterns(patterns,
                                                states_per_slice=40)

    def test_swap_changes_one_slice_only(self, matcher):
        replacement = build_dfa([bytes([7, 7, 7])], 32)
        before = [matcher.slice_dfa(i) for i in range(matcher.num_slices)]
        gen = matcher.swap_slice(1, replacement)
        assert gen == 2
        assert matcher.slice_dfa(1) is replacement
        for i in range(matcher.num_slices):
            if i != 1:
                assert matcher.slice_dfa(i) is before[i]
                assert matcher.slice_generation(i) == 1

    def test_swapped_slice_matches_its_new_dictionary(self, matcher):
        replacement = build_dfa([bytes([7, 7, 7])], 32)
        matcher.swap_slice(0, replacement)
        block = bytes([7, 7, 7, 7])
        _, per_slice = matcher.scan_block(block)
        assert per_slice[0] == 2          # overlapping 7,7,7 twice

    def test_swap_updates_aggregate_stt_bytes(self, matcher):
        replacement = build_dfa([bytes([7, 7, 7])], 32)
        matcher.swap_slice(0, replacement)
        expected = sum(matcher.slice_dfa(i).memory_bytes()
                       for i in range(matcher.num_slices))
        assert matcher.aggregate_stt_bytes() == expected

    def test_out_of_range_rejected(self, matcher):
        replacement = build_dfa([bytes([7])], 32)
        with pytest.raises(ReplacementError, match="out of range"):
            matcher.swap_slice(matcher.num_slices, replacement)
        with pytest.raises(ReplacementError, match="out of range"):
            matcher.swap_slice(-1, replacement)

    def test_alphabet_mismatch_rejected(self, matcher):
        replacement = build_dfa([bytes([7])], 64)
        with pytest.raises(ReplacementError, match="alphabet"):
            matcher.swap_slice(0, replacement)


class TestTopologyPlanner:
    def test_paper_strategy_is_in_the_space(self):
        from repro.core.replacement import TopologyPlan, chain_gbps, \
            plan_topology
        plan = plan_topology(1, 8)
        assert plan.gbps == pytest.approx(8 * 5.11)
        assert plan.slices_per_spe == 1

    def test_chain_gbps_levels(self):
        from repro.core.replacement import chain_gbps
        assert chain_gbps(1) == pytest.approx(5.11)
        assert chain_gbps(2) == pytest.approx(5.11 / 2)
        assert chain_gbps(4) == pytest.approx(5.11 / 6)

    def test_chain_gbps_invalid(self):
        from repro.core.replacement import chain_gbps
        with pytest.raises(ReplacementError):
            chain_gbps(0)

    def test_never_worse_than_paper(self):
        from repro.core.replacement import plan_topology
        for n in range(2, 20):
            for p in (1, 2, 4, 8):
                best = plan_topology(n, p)
                paper = effective_gbps(n, num_spes=p)
                assert best.gbps >= paper - 1e-9

    def test_series_distribution_wins_at_scale(self):
        from repro.core.replacement import plan_topology
        best = plan_topology(8, 8)
        assert best.gbps == pytest.approx(5.11)      # 1 chain of 8 resident
        assert best.gbps > effective_gbps(8, num_spes=8)

    def test_single_spe_falls_back_to_cycling(self):
        from repro.core.replacement import plan_topology
        plan = plan_topology(5, 1)
        assert plan.chain_length == 1
        assert plan.slices_per_spe == 5
        assert plan.is_paper_strategy

    def test_describe_and_validation(self):
        from repro.core.replacement import plan_topology
        assert "chain" in plan_topology(4, 8).describe()
        with pytest.raises(ReplacementError):
            plan_topology(0, 8)
        with pytest.raises(ReplacementError):
            plan_topology(4, 0)

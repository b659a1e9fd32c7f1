"""Local-store planning: the Figure 3 layouts, and the rule that runs
packet-sized walks on the service's event loop."""

import pytest

from repro.cell.local_store import LocalStore
from repro.core.planner import (
    CODE_STACK_BYTES,
    FIGURE3_CASES,
    INLINE_WALK_STEPS,
    SERIAL_BYTE_CEILING,
    PlanError,
    plan_backend,
    plan_tile,
    runs_inline,
)


class TestFigure3:
    """The paper's three cases: buffers 2×16k/2×8k/2×4k give STTs of
    190/206/214 KB and 1520/1648/1712 states."""

    @pytest.mark.parametrize("case,buffer_kb,stt_kb,states", [
        (0, 16, 190, 1520),
        (1, 8, 206, 1648),
        (2, 4, 214, 1712),
    ])
    def test_paper_numbers_exact(self, case, buffer_kb, stt_kb, states):
        plan = FIGURE3_CASES[case]
        assert plan.buffer_bytes == buffer_kb * 1024
        assert plan.stt_capacity == stt_kb * 1024
        assert plan.max_states == states

    def test_code_stack_is_34k(self):
        assert CODE_STACK_BYTES == 34 * 1024
        for plan in FIGURE3_CASES:
            assert plan.code_stack_bytes == CODE_STACK_BYTES


class TestPlanTile:
    def test_everything_fits_256k(self):
        plan = plan_tile()
        total = plan.code_stack_bytes + plan.stt_capacity \
            + plan.num_buffers * plan.buffer_bytes
        assert total <= 256 * 1024

    def test_stt_base_aligned_to_stride(self):
        for width in (16, 32, 64, 128, 256):
            plan = plan_tile(alphabet_size=width)
            assert plan.stt_base % plan.stride == 0

    def test_wider_alphabet_fewer_states(self):
        narrow = plan_tile(alphabet_size=32)
        wide = plan_tile(alphabet_size=256)
        assert wide.max_states < narrow.max_states
        # 8x wider rows -> roughly 8x fewer states.
        assert narrow.max_states / wide.max_states == pytest.approx(8, rel=0.1)

    def test_counters_inside_code_stack(self):
        plan = plan_tile()
        assert plan.counters_base + 256 <= plan.code_stack_bytes

    def test_apply_reserves_regions(self):
        plan = plan_tile(buffer_bytes=4096)
        ls = LocalStore()
        plan.apply(ls)
        assert ls.region("stt").start == plan.stt_base
        assert ls.region("buffer0").start == plan.buffer_bases[0]
        assert ls.region("buffer1").start == plan.buffer_bases[1]

    def test_describe_mentions_states(self):
        text = plan_tile().describe()
        assert "1520" in text

    def test_errors(self):
        with pytest.raises(PlanError):
            plan_tile(buffer_bytes=0)
        with pytest.raises(PlanError):
            plan_tile(buffer_bytes=100)     # not multiple of 16
        with pytest.raises(PlanError):
            plan_tile(num_buffers=0)
        with pytest.raises(PlanError):
            plan_tile(buffer_bytes=128 * 1024)  # 2x128k leaves no STT room
        with pytest.raises(PlanError):
            plan_tile(code_stack_bytes=16)

    def test_single_buffer_mode(self):
        plan = plan_tile(buffer_bytes=16 * 1024, num_buffers=1)
        assert len(plan.buffer_bases) == 1
        assert plan.max_states > FIGURE3_CASES[0].max_states


class TestRunsInline:
    """Inline means a walk within ``INLINE_WALK_STEPS`` steps, counted
    as bytes × slices, with no forced backend and no events."""

    def test_walks_within_budget(self):
        assert runs_inline(INLINE_WALK_STEPS, 1, forced=False,
                           with_events=False)
        assert runs_inline(0, 7, forced=False, with_events=False)

    def test_budget_counts_slices(self):
        nbytes = INLINE_WALK_STEPS // 4 + 1
        assert runs_inline(nbytes, 1, forced=False, with_events=False)
        assert not runs_inline(nbytes, 4, forced=False, with_events=False)

    @pytest.mark.parametrize("forced, with_events",
                             [(True, False), (False, True)])
    def test_forced_or_events_keep_the_pool(self, forced, with_events):
        assert not runs_inline(64, 1, forced=forced,
                               with_events=with_events)

    def test_budget_stays_below_the_serial_ceiling(self):
        # Every auto SCAN within budget is one the planner gives the
        # serial walk.
        assert INLINE_WALK_STEPS <= SERIAL_BYTE_CEILING
        assert plan_backend(nbytes=INLINE_WALK_STEPS, num_slices=7,
                            screenable=True).backend == "serial"

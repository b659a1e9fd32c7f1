"""Figure 8: the dynamic STT-replacement schedule.

Each 25.64 µs period processes one input buffer against the resident STT
slot while the MFC refills the other input buffer (5.94 µs) and streams
one 47-48 KB chunk of the next dictionary slice into the shadow slot
(17.5-17.8 µs) — a complete 95 KB slice lands every two periods.  We
rebuild the timeline, verify the overlap invariants, and render the Gantt
chart next to the paper's numbers.
"""

import pytest

from repro.analysis import ascii_table
from repro.core import replacement_schedule
from repro.core.replacement import HALF_TILE_STT_BYTES, ReplacementMatcher
from repro.core.schedule import ScheduleError
from repro.workloads import plant_matches, random_payload, \
    random_signatures

PAPER_PERIOD_US = 25.64
PAPER_INPUT_US = 5.94
PAPER_CHUNK1_US = 17.83
PAPER_CHUNK2_US = 17.46


@pytest.fixture(scope="module")
def schedule():
    return replacement_schedule(3, periods=8)


def test_figure8_report(schedule, report):
    rows = [
        ["compute period", PAPER_PERIOD_US,
         round(schedule.on("compute")[0].duration * 1e6, 2)],
        ["input load", PAPER_INPUT_US,
         round([iv for iv in schedule.on("dma")
                if "input" in iv.label][0].duration * 1e6, 2)],
        ["STT chunk 1/2", PAPER_CHUNK1_US,
         round([iv for iv in schedule.on("dma")
                if "chunk 1/2" in iv.label][0].duration * 1e6, 2)],
        ["STT chunk 2/2", PAPER_CHUNK2_US,
         round([iv for iv in schedule.on("dma")
                if "chunk 2/2" in iv.label][0].duration * 1e6, 2)],
    ]
    table = ascii_table(["interval", "paper us", "measured us"], rows,
                        title="Figure 8 - dynamic STT replacement "
                              "schedule")
    report("fig8_replacement", table + "\n\n" + schedule.render())


def test_paper_interval_durations(schedule):
    period = schedule.on("compute")[0].duration * 1e6
    assert period == pytest.approx(PAPER_PERIOD_US, rel=0.01)
    chunks = [iv for iv in schedule.on("dma") if "chunk" in iv.label]
    assert chunks[0].duration * 1e6 == pytest.approx(PAPER_CHUNK1_US,
                                                     rel=0.02)
    assert chunks[1].duration * 1e6 == pytest.approx(PAPER_CHUNK2_US,
                                                     rel=0.02)


def test_slice_load_spans_two_periods(schedule):
    """One 95 KB slice needs two periods of DMA slack — the 2(n-1) term."""
    computes = schedule.on("compute")
    period = computes[0].duration
    chunks = [iv for iv in schedule.on("dma") if "chunk" in iv.label]
    slice_time = chunks[0].duration + chunks[1].duration
    assert period < slice_time < 2 * period


def test_dma_fits_inside_period(schedule):
    """input load + one chunk must fit one period (the paper's chunking
    exists precisely to satisfy this)."""
    period = schedule.on("compute")[0].duration
    input_t = [iv for iv in schedule.on("dma")
               if "input" in iv.label][0].duration
    chunk_t = max(iv.duration for iv in schedule.on("dma")
                  if "chunk" in iv.label)
    assert input_t + chunk_t < period


def test_oversized_slice_rejected():
    with pytest.raises(ScheduleError, match="infeasible"):
        replacement_schedule(2, periods=4,
                             stt_bytes=HALF_TILE_STT_BYTES * 4)


def test_schedule_invariants(schedule):
    schedule.verify()  # no double booking, no buffer conflicts


def test_functional_replacement_still_exact():
    """Time multiplexing the dictionary must not change the matches."""
    patterns = random_signatures(40, 3, 8, seed=31)
    matcher = ReplacementMatcher.from_patterns(patterns,
                                               states_per_slice=60)
    assert matcher.num_slices >= 3
    from repro.core.scan import VectorDFAEngine
    from repro.dfa import build_dfa
    block = plant_matches(random_payload(30_000, seed=1), patterns, 80,
                          seed=2)
    assert matcher.scan_block(block)[0] == \
        VectorDFAEngine(build_dfa(patterns, 32)).count_block(block)


def test_benchmark_schedule_construction(benchmark):
    def build():
        return replacement_schedule(5, periods=40)

    sched = benchmark(build)
    sched.verify()

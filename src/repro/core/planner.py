"""Local-store layout planner (paper Figure 3).

A DFA tile must fit everything into the SPE's 256 KB local store: code and
stack (the paper reserves 34 KB), two input buffers (double buffering), and
the state-transition table, which takes whatever is left.  The trade-off is
buffer size vs. dictionary size:

=======  ================  ==========  ===========
Case     input buffers     STT space   max states
=======  ================  ==========  ===========
1        2 × 16 KB         190 KB      1520
2        2 × 8 KB          206 KB      1648
3        2 × 4 KB          214 KB      1712
=======  ================  ==========  ===========

(32-symbol alphabet, 128-byte rows.)  :func:`plan_tile` computes the layout
for any buffer size and alphabet width; :data:`FIGURE3_CASES` are the three
configurations of the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..cell.local_store import LS_SIZE, LocalStore
from .scan.base import HOT_BUDGET_BYTES
from .stt import row_stride

__all__ = ["TilePlan", "plan_tile", "FIGURE3_CASES", "PlanError",
           "CODE_STACK_BYTES", "COUNTER_AREA_BYTES", "STATE_AREA_BYTES",
           "ExecutionPlan", "plan_backend", "batch_kernel",
           "SERIAL_BYTE_CEILING", "CACHE_BUDGET_BYTES",
           "INLINE_WALK_STEPS", "runs_inline"]

#: Local-store bytes the paper reserves for code and stack.
CODE_STACK_BYTES = 34 * 1024

#: Per-stream counter slots (16 streams × 16 bytes), carved out of the
#: code/stack reservation.
COUNTER_AREA_BYTES = 256

#: Per-stream saved-state slots (16 × 16 bytes): DFA state pointers persist
#: here between input blocks so matches spanning block boundaries are kept.
STATE_AREA_BYTES = 256


class PlanError(Exception):
    """Raised when a requested layout cannot fit the local store."""


@dataclass(frozen=True)
class TilePlan:
    """A concrete local-store layout for one DFA tile.

    Addresses are absolute local-store offsets.  The STT base is aligned to
    the row stride so state pointers have zero low bits (the flag trick).
    """

    alphabet_size: int
    buffer_bytes: int
    num_buffers: int
    code_stack_bytes: int
    counters_base: int
    states_base: int
    stt_base: int
    stt_capacity: int
    buffer_bases: Tuple[int, ...]

    @property
    def max_states(self) -> int:
        """Largest DFA this layout can hold."""
        return self.stt_capacity // row_stride(self.alphabet_size)

    @property
    def stride(self) -> int:
        return row_stride(self.alphabet_size)

    def describe(self) -> str:
        """ASCII rendering in the style of Figure 3."""
        lines = [
            f"tile layout ({self.alphabet_size}-symbol alphabet, "
            f"{self.stride}-byte rows)",
            f"  code+stack : {self.code_stack_bytes / 1024:6.1f} KB "
            f"(counters at {self.counters_base:#x})",
            f"  STT        : {self.stt_capacity / 1024:6.1f} KB at "
            f"{self.stt_base:#x} -> max {self.max_states} states",
        ]
        for i, base in enumerate(self.buffer_bases):
            lines.append(f"  buffer {i}   : {self.buffer_bytes / 1024:6.1f}"
                         f" KB at {base:#x}")
        return "\n".join(lines)

    def apply(self, local_store: LocalStore) -> None:
        """Reserve the planned regions on an actual local store."""
        local_store.alloc("code_stack", self.code_stack_bytes)
        local_store.alloc("stt", self.stt_capacity, align=self.stride)
        for i, base in enumerate(self.buffer_bases):
            region = local_store.alloc(f"buffer{i}", self.buffer_bytes)
            if region.start != base:
                raise PlanError(
                    f"buffer {i} landed at {region.start:#x}, plan says "
                    f"{base:#x}")


def plan_tile(buffer_bytes: int = 16 * 1024, num_buffers: int = 2,
              alphabet_size: int = 32,
              code_stack_bytes: int = CODE_STACK_BYTES,
              ls_size: int = LS_SIZE) -> TilePlan:
    """Compute a tile layout: code+stack, then the STT (taking all the
    space the buffers leave), then the input buffers."""
    if buffer_bytes <= 0 or buffer_bytes % 16:
        raise PlanError("buffer size must be a positive multiple of 16")
    if num_buffers < 1:
        raise PlanError("at least one input buffer required")
    if code_stack_bytes < COUNTER_AREA_BYTES + STATE_AREA_BYTES:
        raise PlanError("code/stack region too small for the counter and "
                        "state-save areas")
    stride = row_stride(alphabet_size)
    stt_base = code_stack_bytes
    if stt_base % stride:
        stt_base = (stt_base + stride - 1) & ~(stride - 1)
    buffers_total = num_buffers * buffer_bytes
    stt_capacity = ls_size - stt_base - buffers_total
    stt_capacity -= stt_capacity % stride
    if stt_capacity < stride:
        raise PlanError(
            f"{num_buffers}×{buffer_bytes}-byte buffers leave no room for "
            f"an STT in the {ls_size}-byte local store")
    buffer_bases = tuple(stt_base + stt_capacity + i * buffer_bytes
                         for i in range(num_buffers))
    counters_base = code_stack_bytes - COUNTER_AREA_BYTES
    states_base = counters_base - STATE_AREA_BYTES
    return TilePlan(
        alphabet_size=alphabet_size,
        buffer_bytes=buffer_bytes,
        num_buffers=num_buffers,
        code_stack_bytes=code_stack_bytes,
        counters_base=counters_base,
        states_base=states_base,
        stt_base=stt_base,
        stt_capacity=stt_capacity,
        buffer_bases=buffer_bases,
    )


#: The three local-store configurations of Figure 3.
FIGURE3_CASES: List[TilePlan] = [
    plan_tile(buffer_bytes=16 * 1024),
    plan_tile(buffer_bytes=8 * 1024),
    plan_tile(buffer_bytes=4 * 1024),
]


# -- execution planning ------------------------------------------------------------

#: Below this many bytes the chunked fixpoint's setup cost dominates and
#: the serial reference walk wins (counts-only, single worker).
SERIAL_BYTE_CEILING = 1 << 20

#: Walk steps (bytes × slices) a data op may cost to run on the
#: service's event loop instead of its scan thread pool.  The scalar
#: walk holds the GIL, so a pool thread buys it no parallelism, only a
#: thread hop as costly as a packet's scan — but while an inline op
#: runs, every connection waits.  The walk costs one step per byte per
#: slice: ~30–45 ns a step for a FLOW and ~40–70 ns for a serial SCAN
#: (which also collects events) on the dictionaries
#: ``benchmarks/bench_inline.py`` measures (sig2k at D=1 and D=4,
#: kw40k at D=7), so this budget keeps the worst inline op under
#: ~0.5 ms on a 2-vCPU host; ``BENCH_inline.json`` records it.  A
#: 1,500-byte packet on an unpartitioned dictionary fits four times.
INLINE_WALK_STEPS = 6 * 1024

#: Host cache ceiling for the *plain* fused table — the planner's
#: analogue of the tile planner's 256 KB local store.  When the stacked
#: multi-slice STT would exceed this, the planner prefers the union
#: kernel, whose hot partition is budgeted to stay resident
#: (``scan.base.HOT_BUDGET_BYTES``) whatever the dictionary's size.
CACHE_BUDGET_BYTES = HOT_BUDGET_BYTES


def batch_kernel(exact: bool, num_slices: int,
                 fused_bytes: Optional[int],
                 cache_budget: int = CACHE_BUDGET_BYTES) -> str:
    """The whole-dictionary kernel for one dictionary — the one place
    the union-versus-fused rule is written.

    The union kernel (``hotcold2``) needs an exact dictionary (regex
    tiles have no union automaton) and wins when the dictionary was
    partitioned or the plain fused table (``fused_bytes``) would
    overflow ``cache_budget``: one cache-resident pair table advances
    every slice two bytes per gather, where the stacked STT pays
    ``num_slices`` gathers per byte over a footprint that grows with
    the partition count.  Otherwise the stacked ``fused`` grid.
    """
    if exact and (num_slices > 1 or (fused_bytes or 0) > cache_budget):
        return "hotcold2"
    return "fused"


@dataclass(frozen=True)
class ExecutionPlan:
    """One backend choice plus the reasons that forced it, and whether
    the packed prefilter stage runs in front of the chosen kernel."""

    backend: str
    reason: str
    prefilter: bool = False

    def describe(self) -> str:
        head = f"{self.backend}: {self.reason}"
        if self.prefilter:
            head += " [prefilter stage on]"
        return head


def plan_backend(nbytes: Optional[int] = None, streaming: bool = False,
                 workers: int = 1, with_events: bool = False,
                 num_slices: int = 1, fuse: bool = True,
                 exact: bool = False,
                 fused_bytes: Optional[int] = None,
                 pair_fit: bool = False,
                 prefilter: Optional[bool] = None,
                 screenable: bool = False,
                 serial_byte_ceiling: int = SERIAL_BYTE_CEILING,
                 cache_budget: int = CACHE_BUDGET_BYTES,
                 ) -> ExecutionPlan:
    """Pick a scan backend from the request's shape.

    The rules mirror the tile planner's spirit — choose the strategy
    whose fixed costs the input can amortise.  Event reporting forces
    the serial reference walk (the only backend that materialises match
    positions); iterator/file input must flow through the staging ring;
    multiple workers call for the sharded pool; large in-memory counts
    take the chunked fixpoint — fused across slices whenever the
    dictionary was partitioned (``num_slices > 1``), because D slices
    sharing one pass beat D sequential passes at any size that
    amortises the fixpoint at all; small inputs stay serial.  ``fuse``
    is the escape hatch (``repro scan --no-fuse``): it keeps the plan
    on one pass per slice, off both the fused and the union kernel.
    Forcing one particular kernel is not a planner input — name its
    backend instead (``repro scan --backend hotcold2|fused``).

    Which shared-pass kernel runs is :func:`batch_kernel`'s rule: the
    union kernel ``hotcold2`` for *exact* dictionaries (``exact=True``)
    that were partitioned or whose plain fused table (``fused_bytes``)
    would overflow ``cache_budget``, else the stacked ``fused`` grid
    when there are several slices, else ``chunked``.  ``pair_fit`` is
    still accepted for existing callers but selects nothing: the pair
    table covers every exact dictionary, escaping to byte replay where
    its hot set ends.

    **The prefilter rule** — the one place every backend inherits the
    packed screen from: when the request is an in-memory block whose
    dictionary is screenable (``screenable=True``, see
    ``CompiledDictionary.screenable``) and the input is large enough to
    amortise the chunk fixpoint anyway (the same ``serial_byte_ceiling``
    that gates the kernels), the plan carries ``prefilter=True`` and
    :func:`~repro.core.backends.execute` screens the block first, then
    verifies the candidate windows with the chosen backend's kernel.
    ``prefilter`` is the escape hatch (``repro scan --no-prefilter`` /
    ``ScanRequest(prefilter=False)``); ``True`` demands the screen.
    Stream and file requests never screen — candidate windows cannot be
    carried across staging-ring refills without re-reading the input.
    """
    plan = _choose_backend(
        nbytes=nbytes, streaming=streaming, workers=workers,
        with_events=with_events, num_slices=num_slices, fuse=fuse,
        exact=exact, fused_bytes=fused_bytes,
        serial_byte_ceiling=serial_byte_ceiling,
        cache_budget=cache_budget)
    if plan.backend == "streaming" or prefilter is False:
        return plan
    want = prefilter is True or (
        prefilter is None and screenable and nbytes is not None
        and nbytes > serial_byte_ceiling)
    if not want:
        return plan
    return ExecutionPlan(plan.backend, plan.reason
                         + "; packed prefilter screens clean regions "
                           "first", prefilter=True)


def _choose_backend(nbytes: Optional[int], streaming: bool, workers: int,
                    with_events: bool, num_slices: int, fuse: bool,
                    exact: bool, fused_bytes: Optional[int],
                    serial_byte_ceiling: int,
                    cache_budget: int) -> ExecutionPlan:
    """The backend decision chain (see :func:`plan_backend`)."""
    if with_events:
        return ExecutionPlan(
            "serial", "match events require the reference walk")
    if streaming:
        return ExecutionPlan(
            "streaming", "iterator/file input flows through the "
            "staging ring")
    if workers > 1:
        return ExecutionPlan(
            "pooled", f"{workers} workers amortise the sharded pool")
    if nbytes is not None and nbytes > serial_byte_ceiling:
        shared = (batch_kernel(exact, num_slices, fused_bytes,
                               cache_budget) if fuse else None)
        if shared == "hotcold2":
            return ExecutionPlan(
                "hotcold2", f"{num_slices} slice(s) share one union "
                f"pass over {nbytes} bytes at two bytes per gather")
        if shared == "fused" and num_slices > 1:
            return ExecutionPlan(
                "fused", f"{num_slices} slices share one pass over "
                f"{nbytes} bytes (stacked STT)")
        return ExecutionPlan(
            "chunked", f"{nbytes} bytes amortise the speculative "
            "fixpoint setup")
    return ExecutionPlan(
        "serial", "small single-worker input; reference walk is "
        "cheapest and reports per-pattern counts")


def runs_inline(nbytes: int, num_slices: int, forced: bool,
                with_events: bool) -> bool:
    """Whether one service data op (a SCAN, FLOW or CLOSE_FLOW) is a
    walk cheap enough to run on the event loop.

    A forced backend or an events request keeps the scan pool, and so
    does any op whose walk would take more than
    :data:`INLINE_WALK_STEPS` steps: one per byte per slice, so a
    bytes-only bound would let a deeply partitioned dictionary stall
    the loop ``num_slices`` times longer.  The budget sits far below
    :data:`SERIAL_BYTE_CEILING`, so an auto SCAN within it is one
    :func:`plan_backend` gives the serial walk.
    """
    return not forced and not with_events and \
        nbytes * num_slices <= INLINE_WALK_STEPS

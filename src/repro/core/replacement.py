"""Dynamic STT replacement: arbitrarily large dictionaries (paper §6).

When even eight series tiles cannot hold the dictionary, each SPE keeps
**two half-size STT slots** (~800 states / ~100 KB each) managed as a
double buffer: while the resident table filters input, the next dictionary
slice streams in from main memory.  The paper's schedule (Figure 8) loads a
95 KB table in two chunks riding the DMA slack of two 25.64 µs compute
periods, and §6 derives the effective per-SPE throughput

    T(n) = 5.11 / (2 (n - 1))  Gbps     for n dictionary slices (n ≥ 2),

plotted in Figure 9 for 1/2/4/8 SPEs.

This module provides all three levels:

* :func:`effective_gbps` — the paper's analytic law (Figure 9);
* :func:`replacement_schedule` — a discrete-event reconstruction of
  Figure 8's timeline (periods, input loads, chunked STT loads) with the
  overlap invariants checked;
* :class:`ReplacementMatcher` — a *functional* engine that actually matches
  input against every slice cyclically and must agree with a monolithic
  scan of the whole dictionary (tested).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Generic, List, Optional, Sequence, Tuple, TypeVar

from ..cell.memory import BandwidthModel
from ..dfa.automaton import DFA
from ..dfa.partition import PartitionedDictionary, partition_patterns
from .scan.driver import VectorDFAEngine
from .schedule import Interval, Schedule, ScheduleError

__all__ = [
    "effective_gbps",
    "replacement_schedule",
    "DoubleBuffer",
    "ReplacementMatcher",
    "ReplacementError",
    "HALF_TILE_STATES",
    "HALF_TILE_STT_BYTES",
    "TopologyPlan",
    "chain_gbps",
    "plan_topology",
]


class ReplacementError(Exception):
    """Raised for infeasible replacement configurations."""


#: States per half-size STT slot (paper §6: "approximately 800 states").
HALF_TILE_STATES = 800

#: Bytes per half-size slot: ~100 KB; the paper's worked example uses 95 KB.
HALF_TILE_STT_BYTES = 95 * 1024


def effective_gbps(num_slices: int, per_tile_gbps: float = 5.11,
                   num_spes: int = 1) -> float:
    """The paper's §6 law: each SPE cycling through *n* dictionary slices
    delivers ``per_tile/(2(n-1))``; parallel SPEs multiply (Figure 9)."""
    if num_slices < 1:
        raise ReplacementError("need at least one dictionary slice")
    if num_spes < 1:
        raise ReplacementError("need at least one SPE")
    if per_tile_gbps <= 0:
        raise ReplacementError("per-tile throughput must be positive")
    if num_slices == 1:
        return num_spes * per_tile_gbps
    return num_spes * per_tile_gbps / (2.0 * (num_slices - 1))


def replacement_schedule(num_slices: int,
                         periods: int = 8,
                         block_bytes: int = 16 * 1024,
                         stt_bytes: int = HALF_TILE_STT_BYTES,
                         per_tile_gbps: float = 5.11,
                         bandwidth: BandwidthModel = BandwidthModel()
                         ) -> Schedule:
    """Reconstruct Figure 8's timeline.

    Each *period* processes one input buffer against the resident STT slot
    (25.64 µs for 16 KB at 5.11 Gbps).  Per period the MFC first refills
    the just-consumed input buffer (5.94 µs) and then moves one chunk
    (half) of the next STT slice into the shadow slot — a full slice load
    spans two periods.  The schedule fails verification if the DMA work
    does not fit the period, which is exactly the feasibility condition
    the paper's chunking is designed to meet.
    """
    if num_slices < 2:
        raise ReplacementError("replacement needs at least two slices; "
                               "a single slice is a plain resident tile")
    if periods < 2:
        raise ReplacementError("need at least two periods")
    if block_bytes <= 0:
        raise ReplacementError("input block size must be positive")
    if stt_bytes <= 16:
        raise ReplacementError("STT slice size must exceed 16 bytes")
    compute_s = block_bytes * 8 / (per_tile_gbps * 1e9)
    input_s = bandwidth.transfer_seconds(block_bytes)
    # The paper splits a 95 KB slice as 48 + 47 KB (Figure 8).
    chunk = min(48 * 1024, stt_bytes - 16)
    chunk_s = [bandwidth.transfer_seconds(chunk),
               bandwidth.transfer_seconds(stt_bytes - chunk)]
    if input_s + max(chunk_s) > compute_s:
        raise ScheduleError(
            f"period infeasible: input load {input_s * 1e6:.2f} us + STT "
            f"chunk {max(chunk_s) * 1e6:.2f} us exceed the "
            f"{compute_s * 1e6:.2f} us compute period; use smaller chunks")

    sched = Schedule()
    t = 0.0
    slice_idx = 0        # slice resident in the active slot
    next_slice = 1
    for p in range(periods):
        buf = p % 2
        slot = (p // 2) % 2
        sched.add(Interval("compute", t, t + compute_s,
                           f"process buffer {buf} against slice "
                           f"{slice_idx} (slot {slot})", buf))
        # DMA inside the period: refill the other input buffer, then move
        # one chunk of the incoming slice into the shadow slot.
        dt = t
        other = 1 - buf
        sched.add(Interval("dma", dt, dt + input_s,
                           f"load input into buffer {other}", other))
        dt += input_s
        half = p % 2
        sched.add(Interval("dma", dt, dt + chunk_s[half],
                           f"load slice {next_slice} chunk {half + 1}/2 "
                           f"into slot {1 - slot}"))
        if half == 1:
            slice_idx = next_slice
            next_slice = (next_slice + 1) % num_slices
        t += compute_s
    sched.verify()
    return sched


@dataclass(frozen=True)
class TopologyPlan:
    """A deployment of *n* dictionary slices on *P* SPEs.

    ``slices_per_spe`` (k) is the knob: each series chain holds
    ``ceil(n/k)`` SPEs, each cycling k slices; the remaining SPEs
    replicate the chain in parallel.  k = n with chain length 1 is the
    paper's §6 strategy; k ≤ 2 keeps every slice resident (no DMA cycling
    at all).
    """

    num_slices: int
    num_spes: int
    slices_per_spe: int
    chain_length: int
    parallel_chains: int
    gbps: float

    @property
    def is_paper_strategy(self) -> bool:
        return self.slices_per_spe == self.num_slices

    def describe(self) -> str:
        kind = "paper (each SPE cycles all slices)" \
            if self.is_paper_strategy else \
            ("fully resident series" if self.slices_per_spe <= 2
             else "series-distributed cycling")
        return (f"{self.parallel_chains} chain(s) x {self.chain_length} "
                f"SPE(s), {self.slices_per_spe} slice(s)/SPE "
                f"[{kind}]: {self.gbps:.2f} Gbps")


def chain_gbps(slices_per_spe: int,
               per_tile_gbps: float = 5.11) -> float:
    """Throughput of one series chain whose SPEs each hold ``k`` slices.

    * k = 1 — one resident table: full tile speed;
    * k = 2 — both tables resident (two slots), every block matched
      twice: compute-bound at half speed;
    * k ≥ 3 — the shadow slot cycles: DMA-bound at the paper's
      1/(2(k−1)) law.
    """
    k = slices_per_spe
    if k < 1:
        raise ReplacementError("slices per SPE must be >= 1")
    if k == 1:
        return per_tile_gbps
    if k == 2:
        return per_tile_gbps / 2.0
    return per_tile_gbps / (2.0 * (k - 1))


def plan_topology(num_slices: int, num_spes: int,
                  per_tile_gbps: float = 5.11) -> TopologyPlan:
    """Best slices-per-SPE for a dictionary of ``num_slices`` slices.

    Enumerates k = 1..n, keeps plans whose chain fits the SPE budget, and
    maximizes aggregate throughput.  For large dictionaries on many SPEs
    the series-distributed strategies beat the paper's parallel-cycling
    formula — the ablation DESIGN.md §5.3 calls out.
    """
    if num_slices < 1:
        raise ReplacementError("need at least one slice")
    if num_spes < 1:
        raise ReplacementError("need at least one SPE")
    best: Optional[TopologyPlan] = None
    for k in range(1, num_slices + 1):
        chain_len = -(-num_slices // k)
        if chain_len > num_spes:
            continue
        chains = num_spes // chain_len
        gbps = chains * chain_gbps(k, per_tile_gbps)
        plan = TopologyPlan(num_slices, num_spes, k, chain_len, chains,
                            gbps)
        if best is None or plan.gbps > best.gbps:
            best = plan
    if best is None:
        raise ReplacementError(
            f"{num_slices} slices cannot fit {num_spes} SPE(s) even with "
            f"full cycling")
    return best


T = TypeVar("T")


class DoubleBuffer(Generic[T]):
    """The paper's two half-tile STT slots as a reusable primitive.

    One slot is *active* (it serves scans); the other is *standby* (the
    shadow slot the next table streams into).  ``stage`` fills the
    standby slot while the active one keeps working; ``promote``
    atomically flips the roles and bumps the generation counter,
    returning the retired value so the caller can release its resources
    once any in-flight users drain.  This is the promotion path both
    :meth:`ReplacementMatcher.swap_slice` and the scan service's
    :class:`~repro.service.registry.DictionaryRegistry` run on.
    """

    def __init__(self, initial: T) -> None:
        self._lock = threading.Lock()
        self._slots: List[Optional[T]] = [initial, None]
        self._active = 0
        self._staged = False
        #: Monotonic promotion count; the initial value is generation 1.
        self.generation = 1

    @property
    def active(self) -> T:
        return self._slots[self._active]

    @property
    def standby(self) -> Optional[T]:
        return self._slots[1 - self._active]

    @property
    def has_staged(self) -> bool:
        return self._staged

    def stage(self, value: T) -> None:
        """Place ``value`` in the standby slot (the shadow-slot DMA)."""
        with self._lock:
            self._slots[1 - self._active] = value
            self._staged = True

    def promote(self) -> T:
        """Atomically make the staged value active; returns the retired
        one.  Scans that already grabbed ``active`` finish on the value
        they started with — nothing is mutated in place."""
        with self._lock:
            if not self._staged:
                raise ReplacementError(
                    "nothing staged in the standby slot; call stage() "
                    "first")
            retired = self._slots[self._active]
            self._active = 1 - self._active
            self._staged = False
            self.generation += 1
            return retired

    def __repr__(self) -> str:
        return (f"DoubleBuffer(generation={self.generation}, "
                f"staged={self._staged})")


class ReplacementMatcher:
    """Functional dynamic-STT-replacement matcher.

    Holds a partitioned dictionary; every scan runs the input through each
    slice's engine in turn (the time-multiplexed equivalent of the series
    composition) and models the throughput with the §6 law.  Each slice
    sits in a :class:`DoubleBuffer`, so :meth:`swap_slice` can replace
    one slice's table without rebuilding the partition — the service-era
    equivalent of streaming a new STT into the shadow slot.
    """

    def __init__(self, partition: PartitionedDictionary) -> None:
        if partition.num_slices < 1:
            raise ReplacementError("empty partition")
        self.partition = partition
        self._buffers: List[DoubleBuffer[VectorDFAEngine]] = [
            DoubleBuffer(VectorDFAEngine(d)) for d in partition.dfas]

    @property
    def _engines(self) -> List[VectorDFAEngine]:
        return [buf.active for buf in self._buffers]

    @classmethod
    def from_patterns(cls, patterns: Sequence[bytes],
                      states_per_slice: int = HALF_TILE_STATES,
                      alphabet_size: int = 32) -> "ReplacementMatcher":
        return cls(partition_patterns(patterns, states_per_slice,
                                      alphabet_size))

    @property
    def num_slices(self) -> int:
        return self.partition.num_slices

    def slice_dfa(self, index: int) -> DFA:
        """The DFA currently resident in slice ``index`` (reflects
        swaps, unlike ``partition.dfas``)."""
        return self._buffers[index].active.dfa

    def slice_generation(self, index: int) -> int:
        """How many tables slice ``index`` has held (1 = original)."""
        return self._buffers[index].generation

    def swap_slice(self, index: int, dfa: DFA) -> int:
        """Replace one slice's resident table via double-buffer
        promotion — no repartitioning, no disturbance to the other
        slices.  The new automaton is staged in the slice's shadow slot
        and promoted atomically; returns the slot's new generation."""
        if not 0 <= index < self.num_slices:
            raise ReplacementError(
                f"slice index {index} out of range "
                f"(0..{self.num_slices - 1})")
        if dfa.alphabet_size != self.partition.dfas[index].alphabet_size:
            raise ReplacementError(
                f"replacement slice alphabet {dfa.alphabet_size} != "
                f"partition alphabet "
                f"{self.partition.dfas[index].alphabet_size}")
        buf = self._buffers[index]
        buf.stage(VectorDFAEngine(dfa))
        buf.promote()
        return buf.generation

    def aggregate_stt_bytes(self, cell_bytes: int = 4) -> int:
        return sum(buf.active.dfa.memory_bytes(cell_bytes)
                   for buf in self._buffers)

    def scan_block(self, block: bytes) -> Tuple[int, List[int]]:
        """Total matches and per-slice counts for one input block."""
        per_slice = [engine.count_block(block) if block else 0
                     for engine in self._engines]
        return sum(per_slice), per_slice

    def scan_streams(self, streams: Sequence[bytes]) -> Tuple[int, List[int]]:
        per_slice = [engine.run_streams(streams).total
                     for engine in self._engines]
        return sum(per_slice), per_slice

    def modelled_gbps(self, per_tile_gbps: float = 5.11,
                      num_spes: int = 1) -> float:
        return effective_gbps(self.num_slices, per_tile_gbps, num_spes)

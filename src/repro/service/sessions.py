"""Flow sessions over a compiled dictionary.

The daemon's ``FLOW`` verb is the paper's "16 distinct input streams"
made service-shaped: each client flow is one logical byte stream, split
across packets, and a signature straddling two packets of the same flow
must still match.  :class:`SessionScanner` keeps one LRU table of flows;
each flow's record holds its per-slice DFA states (the same state
persistence the tile's state-save area provides) and its lifetime
totals.  A packet is folded once and every slice resumes from the
flow's state on the dictionary's scalar walk
(:meth:`~repro.core.compiled.CompiledDictionary.walks`).

Reload semantics — *restart at generation*: each dictionary generation
owns its own ``SessionScanner``; when the registry promotes a new
generation it calls :meth:`carry_from`, which transfers the lifetime
byte/match totals of live flows but **not** their DFA states.  A flow
whose stream spans a swap resumes from the new dictionary's start state
— matches entirely inside either generation are found, a match
straddling the swap instant is not, which is exactly the guarantee a
half-tile STT replacement gives the lanes it restarts.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Tuple

__all__ = ["PacketScan", "SessionScanner", "FlowError"]


class FlowError(Exception):
    """Raised for unknown flows or a full flow table."""


@dataclass
class PacketScan:
    """One packet's scan, with per-slice detail for the policy layer.

    ``per_slice[i]`` is the match delta slice ``i``'s DFA produced for
    this packet and ``pre_states[i]`` the state that slice resumed from
    — together with ``folded`` that is everything a ruleset needs to
    attribute the delta to individual dictionary entries (the same
    slice projection the union automaton's layout uses).
    """

    new: int                      # total new matches, all slices
    flow_total: int               # lifetime matches of the flow
    per_slice: List[int] = field(default_factory=list)
    pre_states: List[int] = field(default_factory=list)
    folded: bytes = b""
    #: Flow ids the LRU policy dropped to admit this packet.
    evicted: List[Hashable] = field(default_factory=list)


class _Flow:
    """One flow's record: the state each slice resumes from (replaced,
    never mutated, so a :class:`PacketScan` can keep the old list) and
    the lifetime bytes and matches."""

    __slots__ = ("states", "bytes_seen", "matches")

    def __init__(self, states: List[int]) -> None:
        self.states = states
        self.bytes_seen = 0
        self.matches = 0


class SessionScanner:
    """Per-generation flow-session table spanning every dictionary slice.

    One insertion-ordered table: every scan moves its flow to the back,
    so the front is the least-recently-scanned flow, the one ``lru``
    evicts when a new flow finds the table full (``reject`` refuses the
    new flow instead).  Thread-safe: packets of different flows may
    arrive on different executor threads, and a per-scanner lock
    serializes them (per-flow scans must serialize anyway to chain DFA
    states).
    """

    def __init__(self, compiled, max_flows: int = 65536,
                 on_full: str = "lru") -> None:
        if max_flows < 1:
            raise FlowError("max_flows must be positive")
        if on_full not in ("reject", "lru"):
            raise FlowError(
                f"on_full must be 'reject' or 'lru', got {on_full!r}")
        self.compiled = compiled
        self.max_flows = max_flows
        self.on_full = on_full
        self._lock = threading.Lock()
        self._starts = [dfa.start for dfa in compiled.dfas]
        self._flows: Dict[Hashable, _Flow] = {}
        # Cumulative across reloads: carry_from moves a retiring
        # scanner's count here along with its flows.
        self._evictions = 0

    # -- introspection -------------------------------------------------------------

    @property
    def num_flows(self) -> int:
        with self._lock:
            return len(self._flows)

    @property
    def evictions(self) -> int:
        return self._evictions

    def flow_ids(self) -> List[Hashable]:
        """Live flow ids, least-recently-scanned first."""
        with self._lock:
            return list(self._flows)

    def stats(self) -> Dict[str, int]:
        """Operator-facing session-table counters (STATS surface)."""
        with self._lock:
            return {
                "flows": len(self._flows),
                "evictions": self.evictions,
                "max_flows": self.max_flows,
            }

    # -- scanning ------------------------------------------------------------------

    def _admit(self, flow_id: Hashable, evicted: List[Hashable]) -> _Flow:
        """A new flow's record at the back of the table; a full table
        evicts its front into ``evicted`` (``lru``) or raises
        (``reject``).  Caller holds the lock."""
        if len(self._flows) >= self.max_flows:
            if self.on_full == "reject":
                raise FlowError(f"flow table full ({self.max_flows}); "
                                f"close flows first")
            victim = next(iter(self._flows))
            del self._flows[victim]
            self._evictions += 1
            evicted.append(victim)
        flow = self._flows[flow_id] = _Flow(self._starts)
        return flow

    def scan_packet(self, flow_id: Hashable,
                    payload: bytes) -> Tuple[int, int, int]:
        """Scan one packet in its flow's context.

        Returns ``(new_matches, flow_total_matches, evicted)`` where
        ``evicted`` counts flows the LRU policy dropped to admit this
        one.
        """
        detail = self.scan_packet_detail(flow_id, payload)
        return detail.new, detail.flow_total, len(detail.evicted)

    def scan_packet_detail(self, flow_id: Hashable,
                           payload: bytes) -> PacketScan:
        """Scan one packet and keep the per-slice evidence.

        Same totals as :meth:`scan_packet` — the policy layer's verdict
        engine consumes the per-slice deltas and pre-packet states to
        attribute matches to rules without a second scan of the common
        (no-match) case.
        """
        walks = self.compiled.walks()
        with self._lock:
            folded = self.compiled.fold.fold_bytes(payload)
            evicted: List[Hashable] = []
            flow = self._flows.pop(flow_id, None)
            if flow is None:
                flow = self._admit(flow_id, evicted)
            else:
                self._flows[flow_id] = flow
            pre_states = flow.states
            per_slice = [0] * len(walks)
            if folded:
                walked = [walk.count(state, folded)
                          for walk, state in zip(walks, pre_states)]
                flow.states = [state for state, _ in walked]
                per_slice = [count for _, count in walked]
            new = sum(per_slice)
            flow.bytes_seen += len(payload)
            flow.matches += new
            return PacketScan(new=new, flow_total=flow.matches,
                              per_slice=per_slice, pre_states=pre_states,
                              folded=folded, evicted=evicted)

    def close_flow(self, flow_id: Hashable) -> Tuple[int, int]:
        """Evict one flow; returns its lifetime ``(bytes, matches)``
        (including bytes/matches accrued under earlier generations)."""
        with self._lock:
            flow = self._flows.pop(flow_id, None)
            if flow is None:
                raise FlowError(f"unknown flow {flow_id!r}")
            return flow.bytes_seen, flow.matches

    def total_matches(self) -> int:
        with self._lock:
            return sum(flow.matches for flow in self._flows.values())

    # -- reload boundary ----------------------------------------------------------

    def carry_from(self, old: "SessionScanner") -> int:
        """Adopt the live flows of a retiring generation's scanner.

        Lifetime totals and the eviction count *move* (the old table
        is emptied); DFA states do not transfer (restart-at-generation).
        Flows are admitted in the old LRU order, so they stay first in
        line for eviction; a table too small for them evicts its front
        as a scan would, and a full ``reject`` table drops the flows
        that do not fit.
        Move semantics make the carry idempotent-by-delta: the registry
        runs it again when the retired generation's last lease drains,
        so packets scanned through a lease that survived the promote
        are merged too, not lost.  Returns the number of flows carried.
        """
        with old._lock:
            evictions, old._evictions = old._evictions, 0
            moved = list(old._flows.items())
            old._flows.clear()
        with self._lock:
            self._evictions += evictions
            carried = 0
            for fid, src in moved:
                cur = self._flows.get(fid)
                if cur is None:
                    try:
                        cur = self._admit(fid, [])
                    except FlowError:
                        continue
                # A flow that already scanned under this generation
                # (promotion raced the carry) merges its lifetimes.
                cur.bytes_seen += src.bytes_seen
                cur.matches += src.matches
                carried += 1
            return carried

    def __repr__(self) -> str:
        return (f"SessionScanner(flows={self.num_flows}, "
                f"slices={self.compiled.num_slices}, "
                f"max_flows={self.max_flows}, on_full={self.on_full!r})")

"""Flow-aware scanning: per-connection DFA state across packets.

The paper's 16 SIMD lanes are "16 distinct input streams" — in a NIDS
those are TCP flows, and a signature split across two packets of the same
flow must still match.  That works only if each flow's DFA state survives
between packets; the tile already persists lane states in its state-save
area, and this module provides the host-side counterpart: a flow table
mapping connection ids to DFA states, batch scanning through the
vectorized engine, and eviction for terminated flows.

This closes the loop on the paper's deployment story: packets arrive
interleaved across connections, get routed to their flow's lane, and the
dictionary matches exactly as if each flow were one contiguous stream
(property-tested against whole-stream scans).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..dfa.automaton import DFA, DFAError
from .scan.driver import VectorDFAEngine
from .scan.flat import build_weight_table

__all__ = ["FlowMatcher", "FlowError"]


class FlowError(Exception):
    """Raised for unknown flows or malformed packets."""


@dataclass
class _FlowRecord:
    state: int
    bytes_seen: int = 0
    matches: int = 0


class FlowMatcher:
    """Stateful multi-flow scanner over a dictionary DFA.

    Packets are fed per flow (any hashable id); matches spanning packet
    boundaries within a flow are found because each flow resumes from its
    saved DFA state.  ``scan_batch`` processes many flows' packets in one
    vectorized lockstep pass.

    Counts are per dictionary entry (a state recognizing k suffix-
    overlapping entries counts k), the same semantics as the block scan
    backends — so a flow's lifetime total equals a one-shot scan of its
    reassembled stream regardless of which path served it.
    """

    def __init__(self, dfa: DFA, max_flows: int = 65536,
                 on_full: str = "reject") -> None:
        if max_flows < 1:
            raise FlowError("max_flows must be positive")
        if on_full not in ("reject", "lru"):
            raise FlowError(
                f"on_full must be 'reject' or 'lru', got {on_full!r}")
        self.dfa = dfa
        self.engine = VectorDFAEngine(dfa)
        self._weights = build_weight_table(dfa)
        self.max_flows = max_flows
        self.on_full = on_full
        #: Flows dropped by the LRU policy since construction.
        self.evictions = 0
        # Insertion-ordered; every access moves the flow to the back, so
        # the front is always the least-recently-scanned flow.
        self._flows: Dict[Hashable, _FlowRecord] = {}

    # -- flow table ---------------------------------------------------------------

    @property
    def num_flows(self) -> int:
        return len(self._flows)

    def flow_ids(self) -> List[Hashable]:
        """Live flow ids, least-recently-scanned first."""
        return list(self._flows)

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._flows

    def _record(self, flow_id: Hashable) -> _FlowRecord:
        record = self._flows.get(flow_id)
        if record is not None:
            # Touch: move to the recently-used end of the table.
            self._flows[flow_id] = self._flows.pop(flow_id)
            return record
        if len(self._flows) >= self.max_flows:
            if self.on_full == "reject":
                raise FlowError(
                    f"flow table full ({self.max_flows}); close flows "
                    f"first")
            # LRU: drop the least-recently-scanned flow to bound memory.
            self._flows.pop(next(iter(self._flows)))
            self.evictions += 1
        record = _FlowRecord(state=self.dfa.start)
        self._flows[flow_id] = record
        return record

    def touch(self, flow_id: Hashable) -> None:
        """Register a flow (at the DFA start state) or refresh its
        recency without scanning any bytes — subject to the same
        ``on_full`` policy as a scan."""
        self._record(flow_id)

    def peek_state(self, flow_id: Hashable) -> int:
        """The DFA state the flow's next packet will resume from,
        without touching recency or registering the flow (an unknown
        flow starts at the DFA start state)."""
        record = self._flows.get(flow_id)
        return record.state if record is not None else self.dfa.start

    def close_flow(self, flow_id: Hashable) -> Tuple[int, int]:
        """Evict a flow; returns its lifetime (bytes, matches)."""
        record = self._flows.pop(flow_id, None)
        if record is None:
            raise FlowError(f"unknown flow {flow_id!r}")
        return record.bytes_seen, record.matches

    def flow_matches(self, flow_id: Hashable) -> int:
        record = self._flows.get(flow_id)
        if record is None:
            raise FlowError(f"unknown flow {flow_id!r}")
        return record.matches

    # -- scanning ------------------------------------------------------------------

    def scan_packet(self, flow_id: Hashable, payload: bytes) -> int:
        """Scan one packet in its flow's context; returns new matches."""
        record = self._record(flow_id)
        if not payload:
            return 0
        res = self.engine.run_streams(
            [payload], start_states=np.array([record.state]),
            weights=self._weights)
        record.state = int(res.final_states[0])
        record.bytes_seen += len(payload)
        new = int(res.counts[0])
        record.matches += new
        return new

    def scan_batch(self, packets: Sequence[Tuple[Hashable, bytes]]
                   ) -> List[int]:
        """Scan many packets in one vectorized pass.

        Packets of the *same* flow in one batch are processed in order
        (they must chain states, so they serialize); distinct flows run
        in lockstep.  Returns per-packet match counts, in input order.
        """
        results = [0] * len(packets)
        remaining = list(enumerate(packets))
        while remaining:
            # One round: the first pending packet of each flow.
            seen_flows = set()
            this_round: List[Tuple[int, Hashable, bytes]] = []
            deferred = []
            for idx, (fid, payload) in remaining:
                if fid in seen_flows:
                    deferred.append((idx, (fid, payload)))
                else:
                    seen_flows.add(fid)
                    this_round.append((idx, fid, payload))
            remaining = deferred
            # Group by payload length for lockstep scanning.
            by_len: Dict[int, List[Tuple[int, Hashable, bytes]]] = {}
            for item in this_round:
                by_len.setdefault(len(item[2]), []).append(item)
            for length, group in by_len.items():
                if length == 0:
                    for idx, fid, _ in group:
                        self._record(fid)
                    continue
                states = np.array([self._record(fid).state
                                   for _, fid, _ in group])
                res = self.engine.run_streams(
                    [payload for _, _, payload in group],
                    start_states=states, weights=self._weights)
                for j, (idx, fid, payload) in enumerate(group):
                    record = self._flows[fid]
                    record.state = int(res.final_states[j])
                    record.bytes_seen += length
                    new = int(res.counts[j])
                    record.matches += new
                    results[idx] = new
        return results

    def total_matches(self) -> int:
        return sum(r.matches for r in self._flows.values())

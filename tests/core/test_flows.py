"""Flow-aware scanning: state continuity across packets, on the one
flow table (:class:`SessionScanner`) every FLOW runs through."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.compiled import compile_dictionary
from repro.dfa.alphabet import identity_fold
from repro.service.sessions import FlowError, SessionScanner
from repro.workloads import plant_matches, random_payload

PATTERNS = [bytes([1, 2, 3, 4]), bytes([5, 6])]


def _compiled(patterns=PATTERNS):
    # Identity fold: payload bytes are the DFA symbols themselves.
    return compile_dictionary(patterns, fold=identity_fold(32))


def _scanner(patterns=PATTERNS, **kwargs):
    return SessionScanner(_compiled(patterns), **kwargs)


def _new(scanner, flow_id, payload):
    return scanner.scan_packet(flow_id, payload)[0]


@pytest.fixture
def scanner():
    return _scanner()


class TestCrossPacketMatching:
    def test_match_split_across_packets_is_found(self, scanner):
        """The defining requirement: [1,2 | 3,4] in one flow matches."""
        assert _new(scanner, "flow-a", bytes([0, 1, 2])) == 0
        assert _new(scanner, "flow-a", bytes([3, 4, 0])) == 1

    def test_split_across_different_flows_does_not_match(self, scanner):
        assert _new(scanner, "a", bytes([0, 1, 2])) == 0
        assert _new(scanner, "b", bytes([3, 4, 0])) == 0

    def test_flow_equals_contiguous_stream(self, scanner):
        stream = plant_matches(random_payload(900, seed=1), PATTERNS, 8,
                               seed=2)
        expected = len(scanner.compiled.match_events(stream))
        assert expected >= 8
        total = 0
        for off in range(0, len(stream), 100):
            total += _new(scanner, "f", stream[off:off + 100])
        assert total == expected

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=400).map(
        lambda b: bytes(x % 8 for x in b)),
        st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                 max_size=8).filter(any))
    def test_any_packetization_property(self, stream, cut_sizes):
        """Whatever way a stream is cut into packets (empty ones
        included), per-flow totals equal the whole-stream count."""
        scanner = _scanner()
        expected = len(scanner.compiled.match_events(stream))
        total = 0
        pos = 0
        i = 0
        while pos < len(stream):
            size = cut_sizes[i % len(cut_sizes)]
            total += _new(scanner, "x", stream[pos:pos + size])
            pos += size
            i += 1
        assert total == expected


class TestCountingSemantics:
    # Suffix-overlapping entries all end at the same DFA state, so
    # positional (+1 per final-state entry) and per-entry counting
    # diverge: flows must count per entry, like the block backends.
    NESTED = [bytes([1, 2, 3]), bytes([2, 3]), bytes([3])]

    def test_suffix_overlaps_count_per_entry(self):
        scanner = _scanner(self.NESTED)
        assert _new(scanner, "f", bytes([0, 1, 2, 3, 0])) == 3

    def test_overlap_split_across_packets(self):
        scanner = _scanner(self.NESTED)
        assert _new(scanner, "f", bytes([0, 1, 2])) == 0
        assert _new(scanner, "f", bytes([3, 0])) == 3


class TestFlowTable:
    def test_close_flow_reports_and_evicts(self, scanner):
        scanner.scan_packet("f", bytes([5, 6, 5, 6]))
        byte_count, match_count = scanner.close_flow("f")
        assert byte_count == 4
        assert match_count == 2
        assert "f" not in scanner.flow_ids()
        with pytest.raises(FlowError):
            scanner.close_flow("f")

    def test_reopened_flow_starts_fresh(self, scanner):
        scanner.scan_packet("f", bytes([1, 2]))
        scanner.close_flow("f")
        # Prefix lost: the pattern no longer completes.
        new, total, _ = scanner.scan_packet("f", bytes([3, 4]))
        assert (new, total) == (0, 0)

    def test_table_capacity(self):
        scanner = _scanner(max_flows=2, on_full="reject")
        scanner.scan_packet("a", bytes([0]))
        scanner.scan_packet("b", bytes([0]))
        with pytest.raises(FlowError, match="full"):
            scanner.scan_packet("c", bytes([0]))

    def test_unknown_flow_errors(self, scanner):
        with pytest.raises(FlowError):
            scanner.close_flow("ghost")

    def test_invalid_capacity(self):
        with pytest.raises(FlowError):
            _scanner(max_flows=0)

    def test_num_flows(self, scanner):
        scanner.scan_packet("a", bytes([0]))
        scanner.scan_packet("b", bytes([0]))
        assert scanner.num_flows == 2


class TestEvictionPolicy:
    def _scanner(self, policy, max_flows=2):
        return _scanner(max_flows=max_flows, on_full=policy)

    def test_invalid_policy_rejected(self):
        with pytest.raises(FlowError, match="on_full"):
            self._scanner("fifo")

    def test_reject_counts_nothing(self):
        scanner = self._scanner("reject")
        scanner.scan_packet("a", bytes([1, 2]))
        scanner.scan_packet("b", bytes([0]))
        with pytest.raises(FlowError, match="full"):
            scanner.scan_packet("c", bytes([0]))
        assert scanner.evictions == 0
        assert scanner.num_flows == 2
        # The refused packet left every live flow as it was.
        assert _new(scanner, "a", bytes([3, 4])) == 1

    def test_lru_evicts_least_recently_used(self):
        scanner = self._scanner("lru")
        scanner.scan_packet("a", bytes([0]))
        scanner.scan_packet("b", bytes([0]))
        scanner.scan_packet("a", bytes([0]))   # refresh a; b is oldest
        _, _, evicted = scanner.scan_packet("c", bytes([0]))   # evicts b
        assert evicted == 1
        assert scanner.evictions == 1
        assert "b" not in scanner.flow_ids()
        assert set(scanner.flow_ids()) == {"a", "c"}

    def test_lru_eviction_loses_prefix_state(self):
        scanner = self._scanner("lru")
        scanner.scan_packet("victim", bytes([1, 2]))
        scanner.scan_packet("x", bytes([0]))
        detail = scanner.scan_packet_detail("y", bytes([0]))
        assert detail.evicted == ["victim"]
        # Re-opened flow starts at the DFA root: the suffix alone
        # cannot complete the pattern.
        assert _new(scanner, "victim", bytes([3, 4])) == 0

    def test_touch_registers_and_refreshes(self):
        """An empty packet is a touch: it registers a flow at the start
        states, or refreshes its recency, without scanning a byte."""
        scanner = self._scanner("lru")
        scanner.scan_packet("a", b"")
        scanner.scan_packet("b", bytes([0]))
        scanner.scan_packet("a", b"")          # refresh: b is now oldest
        scanner.scan_packet("c", bytes([0]))   # evicts b
        assert scanner.flow_ids() == ["a", "c"]
        assert scanner.close_flow("a") == (0, 0)

    def test_flow_ids_in_lru_order(self):
        scanner = self._scanner("lru", max_flows=4)
        for fid in ("a", "b", "c"):
            scanner.scan_packet(fid, bytes([0]))
        scanner.scan_packet("a", bytes([0]))
        assert scanner.flow_ids() == ["b", "c", "a"]

    def test_touch_respects_reject_policy(self):
        scanner = self._scanner("reject")
        scanner.scan_packet("a", b"")
        scanner.scan_packet("b", b"")
        with pytest.raises(FlowError, match="full"):
            scanner.scan_packet("c", b"")

    def test_reject_carry_drops_flows_that_do_not_fit(self):
        """A carry into a full ``reject`` table refuses the overflow as
        a new flow would be refused, instead of failing the reload."""
        old = self._scanner("reject", max_flows=4)
        for fid in ("a", "b", "c"):
            old.scan_packet(fid, bytes([5, 6]))
        new = self._scanner("reject")
        assert new.carry_from(old) == 2
        assert new.flow_ids() == ["a", "b"]
        assert new.close_flow("a") == (2, 1)
        assert old.num_flows == 0

    def test_evictions_move_with_the_carry(self):
        """The eviction count is cumulative across reloads, and a second
        carry from the same retiring scanner adds only what is new."""
        old = self._scanner("lru")
        for fid in ("a", "b", "c"):
            old.scan_packet(fid, bytes([0]))       # c evicts a
        new = self._scanner("lru", max_flows=4)
        new.carry_from(old)
        assert new.evictions == 1
        # A lease that outlived the promote keeps scanning the old table.
        old.scan_packet("d", bytes([0]))
        old.scan_packet("e", bytes([0]))
        old.scan_packet("f", bytes([0]))           # evicts d
        new.carry_from(old)
        assert new.evictions == 2
        assert new.flow_ids() == ["b", "c", "e", "f"]

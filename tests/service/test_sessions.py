"""Flow sessions over a compiled dictionary, including the reload
boundary (restart-at-generation semantics)."""

import pytest

from repro.core.compiled import compile_dictionary
from repro.service.sessions import FlowError, SessionScanner


@pytest.fixture(scope="module")
def compiled():
    return compile_dictionary(["abcd", "xy"])


class TestSessionScanning:
    def test_cross_packet_match_within_flow(self, compiled):
        scanner = SessionScanner(compiled)
        new, total, _ = scanner.scan_packet("f", b"zzab")
        assert (new, total) == (0, 0)
        new, total, _ = scanner.scan_packet("f", b"cdzz")
        assert (new, total) == (1, 1)

    def test_flows_are_isolated(self, compiled):
        scanner = SessionScanner(compiled)
        scanner.scan_packet("a", b"ab")
        new, _, _ = scanner.scan_packet("b", b"cd")
        assert new == 0

    def test_case_folding_matches_compiled_fold(self, compiled):
        scanner = SessionScanner(compiled)
        new, _, _ = scanner.scan_packet("f", b"AbCd")
        assert new == 1

    def test_close_flow_returns_lifetime_totals(self, compiled):
        scanner = SessionScanner(compiled)
        scanner.scan_packet("f", b"abcd")
        scanner.scan_packet("f", b"xy")
        assert scanner.close_flow("f") == (6, 2)
        with pytest.raises(FlowError):
            scanner.close_flow("f")
        assert scanner.num_flows == 0

    def test_total_matches_spans_flows(self, compiled):
        scanner = SessionScanner(compiled)
        scanner.scan_packet("a", b"abcd")
        scanner.scan_packet("b", b"xyxy")
        assert scanner.total_matches() == 3

    def test_invalid_capacity(self, compiled):
        with pytest.raises(FlowError):
            SessionScanner(compiled, max_flows=0)

    def test_flow_total_equals_one_shot_scan(self):
        """SCAN and FLOW must agree on suffix-overlapping entries (one
        accepting state recognizing several dictionary entries)."""
        nested = compile_dictionary(["abc", "bc", "c", "cab"])
        payload = b"abcabcxbc" * 3
        expected = len(nested.match_events(payload))
        scanner = SessionScanner(nested)
        for off in range(0, len(payload), 4):
            scanner.scan_packet("f", payload[off:off + 4])
        assert scanner.close_flow("f") == (len(payload), expected)


class TestEviction:
    def test_lru_eviction_drops_totals(self, compiled):
        scanner = SessionScanner(compiled, max_flows=2, on_full="lru")
        scanner.scan_packet("a", b"abcd")
        scanner.scan_packet("b", b"xy")
        _, _, evicted = scanner.scan_packet("c", b"xy")
        assert evicted == 1
        assert scanner.evictions == 1
        assert scanner.num_flows == 2
        assert "a" not in scanner.flow_ids()
        # The evicted flow's totals are gone too — re-opening is fresh.
        _, total, _ = scanner.scan_packet("a", b"xy")
        assert total == 1


class TestReloadBoundary:
    def test_totals_carry_but_states_restart(self, compiled):
        old = SessionScanner(compiled)
        old.scan_packet("f", b"abcdab")        # 1 match, dangling "ab"
        new = SessionScanner(compiled)
        assert new.carry_from(old) == 1
        # Restart-at-generation: the straddling "ab|cd" is NOT found...
        got, total, _ = new.scan_packet("f", b"cd")
        assert got == 0
        assert total == 1                      # ...but lifetime carries
        assert new.close_flow("f") == (8, 1)

    def test_carry_merges_flows_that_raced_the_promote(self, compiled):
        old = SessionScanner(compiled)
        old.scan_packet("f", b"abcd")
        new = SessionScanner(compiled)
        # The flow already scanned under the new generation before the
        # carry ran (promotion happens first): totals must merge.
        new.scan_packet("f", b"xy")
        new.carry_from(old)
        assert new.close_flow("f") == (6, 2)

    def test_carried_only_flows_participate_in_lru(self, compiled):
        old = SessionScanner(compiled)
        for fid in ("a", "b"):
            old.scan_packet(fid, b"xy")
        new = SessionScanner(compiled, max_flows=2, on_full="lru")
        new.carry_from(old)
        # Admitting a third flow evicts the least-recent carried one —
        # and its totals must go with it.
        new.scan_packet("c", b"xy")
        assert new.num_flows == 2
        assert "a" not in new.flow_ids()
        assert set(new.flow_ids()) == {"b", "c"}

    def test_carry_into_smaller_table_prunes_overflow(self, compiled):
        old = SessionScanner(compiled)
        for fid in ("a", "b", "c"):
            old.scan_packet(fid, b"xy")
        new = SessionScanner(compiled, max_flows=2, on_full="lru")
        new.carry_from(old)
        assert new.num_flows == 2
        assert set(new.flow_ids()) == {"b", "c"}    # LRU order kept

    def test_carry_from_empty(self, compiled):
        new = SessionScanner(compiled)
        assert new.carry_from(SessionScanner(compiled)) == 0
        assert new.num_flows == 0

"""Fault injection: the verification machinery must actually catch bugs.

Every tile run is verified against the reference DFA.  These tests
deliberately corrupt the system — the STT image in the local store, the
saved states, the stored artifact — and assert the corruption is *detected*,
not silently absorbed.  A verifier that never fires is worthless; this is
its test."""

import numpy as np
import pytest

from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import COUNTERS, ArtifactCache, compile_dictionary
from repro.core.planner import plan_tile
from repro.core.tile import DFATile, TileError
from repro.dfa import build_dfa
from repro.workloads import ascii_keywords, plant_matches, random_payload, \
    random_signatures

PATTERNS = random_signatures(6, 3, 6, seed=70)


def fresh_tile():
    return DFATile(build_dfa(PATTERNS, 32),
                   plan=plan_tile(buffer_bytes=1024))


def planted_streams(seed):
    rng = np.random.default_rng(seed)
    return [plant_matches(random_payload(96, seed=int(rng.integers(2**31))),
                          PATTERNS, 2, seed=int(rng.integers(2**31)))
            for _ in range(16)]


class TestSTTCorruption:
    def test_corrupted_stt_detected_by_verification(self):
        tile = fresh_tile()
        streams = planted_streams(1)
        # Sanity: clean run verifies.
        tile.run_streams(streams)
        # Corrupt one STT cell that the planted patterns traverse: redirect
        # the start state's transition for the first pattern symbol.
        sym = PATTERNS[0][0]
        addr = tile.plan.stt_base + sym * 4
        cell = int.from_bytes(tile.local_store.read(addr, 4), "big")
        # Point it back at the start row without the final flag.
        tile.local_store.write(addr, tile.stt.start_pointer.to_bytes(
            4, "big"))
        with pytest.raises(TileError, match="mismatch"):
            tile.run_streams(streams)
        # Restore and verify recovery.
        tile.local_store.write(addr, cell.to_bytes(4, "big"))
        tile.run_streams(streams)

    def test_flag_bit_corruption_detected(self):
        """Setting a stray final flag inflates counts -> caught."""
        tile = fresh_tile()
        streams = planted_streams(2)
        sym = 0  # symbol 0 never appears in patterns, so stray flag fires
        addr = tile.plan.stt_base + sym * 4
        cell = int.from_bytes(tile.local_store.read(addr, 4), "big")
        tile.local_store.write(addr, (cell | 1).to_bytes(4, "big"))
        with pytest.raises(TileError, match="mismatch"):
            tile.run_streams(streams)


class TestStateAreaCorruption:
    def test_poisoned_saved_state_detected(self):
        """A bogus saved state pointer changes counts -> caught.

        Lane 0 carries pattern[0] minus its first symbol: from the true
        start state that is no match, but from the poisoned state (the
        start state after consuming the first symbol) it completes one —
        a deterministic off-by-one the verifier must flag."""
        tile = fresh_tile()
        p0 = PATTERNS[0]
        lane0 = (bytes(p0[1:]) + bytes(126))[:126]
        streams = [lane0] + [bytes(126) for _ in range(15)]
        # The kernel used for the first chunk: min(2016, 1008) = 1008
        # transition bytes; run_streams calls its write_start_states.
        kernel = tile.kernel_for(1008, version=4)
        tile.run_streams(streams)  # clean run verifies

        after_first = tile.dfa.step(tile.dfa.start, p0[0])
        poison_ptr = tile.stt.state_to_pointer(after_first)
        original = kernel.write_start_states

        def poisoned(ls):
            original(ls)
            ls.write(kernel.states_base, poison_ptr.to_bytes(4, "big")
                     + bytes(12))

        kernel.write_start_states = poisoned
        try:
            with pytest.raises(TileError, match="mismatch"):
                tile.run_streams(streams)
        finally:
            kernel.write_start_states = original


class TestArtifactCorruption:
    """Bit flips across a stored ``.npz`` artifact: each flip is either
    rejected (a cache miss, then a correct recompile) or loads a
    dictionary whose every in-process backend counts exactly — never a
    crash, never a wrong count."""

    BACKENDS = ("serial", "chunked", "fused", "hotcold2")

    def test_every_section_protected(self, tmp_path):
        dictionaries = [(ascii_keywords(200, 3), 400),    # three slices
                        ([b"virus", b"worm", b"trojan horse"], 1 << 30)]
        rejected = 0
        for i, (patterns, max_states) in enumerate(dictionaries):
            cache = ArtifactCache(tmp_path / str(i))
            built = compile_dictionary(patterns, max_states=max_states,
                                       cache=cache)
            raw = plant_matches(random_payload(4096, seed=3), patterns[:8],
                                12, seed=4)
            want = len(built.match_events(raw))
            path = cache.path_for(built.fingerprint)
            blob = path.read_bytes()
            # Local headers, member data, the central directory, the end.
            offsets = {int(x) for x in np.linspace(0, len(blob) - 1, 12)}
            for k, pos in enumerate(sorted(offsets | {len(blob) - 2})):
                corrupted = bytearray(blob)
                corrupted[pos] ^= 1 << (k % 8)
                path.write_bytes(bytes(corrupted))
                before = dict(COUNTERS)
                loaded = cache.load(built.fingerprint)
                if loaded is None:
                    rejected += 1
                    assert COUNTERS["cache_rejects"] == \
                        before["cache_rejects"] + 1
                    loaded = compile_dictionary(
                        patterns, max_states=max_states, cache=cache)
                    assert COUNTERS["automaton_builds"] > \
                        before["automaton_builds"]
                ctx = ScanContext(loaded)
                for name in self.BACKENDS:
                    got = execute(ctx, ScanRequest(data=raw), name)
                    assert got.total_matches == want, \
                        f"{name}: flip at byte {pos} of artifact {i}"
        assert rejected > 0

"""The fused multi-DFA scan path: stacked-table construction, the
D × chunks lane grid, ragged lockstep streams, shared-memory transport
and the cache roundtrip — every count differentially locked against the
per-DFA serial path (bit-identical totals AND exit states)."""

import random

import numpy as np
import pytest

from repro.baselines.naive import NaiveMatcher
from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import ArtifactCache, compile_dictionary
from repro.core.scan import (FlatKernel, FlatScanner, FusedKernel,
                             SharedArrayBundle, count_arr, fuse_tables)
from repro.dfa.automaton import DFAError
from repro.core.planner import plan_backend
from repro.dfa.alphabet import case_fold_32
from repro.parallel import ShardedScanner

# A dictionary wide enough that max_states budgets can partition it
# into 1, 2, 4 or 8 slices.  Self-overlapping and substring-nested
# entries keep the speculative fixpoint honest.
PATTERNS = [b"abab", b"ABABAB", b"BABA", b"@[", b"`{", b"attack",
            b"tac", b"backdoor", b"virus", b"worm", b"trojan",
            b"exploit", b"malware", b"rootkit", b"phish", b"botnet"]

_COMPILED = {}


def compiled_with_slices(target: int):
    """Compile ``PATTERNS`` into exactly ``target`` slices by searching
    the ``max_states`` budget (slice count is monotone non-increasing
    in the budget)."""
    if target not in _COMPILED:
        found = None
        if target == 1:
            found = compile_dictionary(PATTERNS)
        else:
            for max_states in range(120, 4, -1):
                try:
                    c = compile_dictionary(PATTERNS,
                                           max_states=max_states)
                except Exception:
                    continue
                if c.num_slices == target:
                    found = c
                    break
        if found is None:
            pytest.skip(f"no max_states budget yields {target} slices")
        assert found.num_slices == target
        _COMPILED[target] = found
    return _COMPILED[target]


def _corpus(rng, length):
    """Fold-boundary-biased corpus (0x40–0x5F aliases letters under the
    32-symbol fold) mixed with pattern fragments."""
    pool = [bytes([rng.randrange(0x40, 0x60)]) for _ in range(8)]
    pool += [b"aba", b"bab", b"AbAb", b"virus", b"tac", b" ", b"\x00"]
    out = b"".join(rng.choice(pool) for _ in range(length // 3 + 1))
    return out[:length]


def per_dfa_reference(compiled, raw, chunks, weighted=False,
                      entry_states=None):
    """(counts, exit_states) from D independent serial-path scans —
    the ground truth the fused pass must match bit-for-bit."""
    arr = np.frombuffer(raw, dtype=np.uint8)
    totals = np.zeros(compiled.num_slices, dtype=np.int64)
    exits = np.zeros(compiled.num_slices, dtype=np.int64)
    for d, (dfa, (flat, w)) in enumerate(zip(compiled.dfas,
                                             compiled.tables())):
        scanner = FlatScanner(flat, 256, dfa.start, dfa.num_states)
        entry = dfa.start if entry_states is None else entry_states[d]
        totals[d], exits[d] = count_arr(
            scanner, arr, chunks, entry,
            weights=w if weighted else None)
    return totals, exits


class TestFuseTables:
    def test_single_table_passthrough(self):
        compiled = compiled_with_slices(1)
        fused = compiled.fused_table()
        flat, weights = compiled.tables()[0]
        assert fused.num_dfas == 1
        assert fused.cell_base[0] == 0
        assert np.array_equal(fused.flat, flat)
        assert np.array_equal(fused.weights, weights)

    def test_bases_even_and_slices_recoverable(self):
        compiled = compiled_with_slices(4)
        fused = compiled.fused_table()
        tables = compiled.tables()
        stride = fused.stride
        assert stride == 512
        lo = 0
        for d, (flat, _) in enumerate(tables):
            base = int(fused.cell_base[d])
            assert base == lo
            assert base % stride == 0          # flag bit survives rebase
            seg = fused.flat[lo:lo + flat.size]
            # subtracting the base recovers the original table exactly
            assert np.array_equal(seg - np.int32(base), flat)
            lo += flat.size

    def test_stacked_weights_absolute_indexing(self):
        compiled = compiled_with_slices(4)
        fused = compiled.fused_table()
        for d, (dfa, (_, w)) in enumerate(zip(compiled.dfas,
                                              compiled.tables())):
            base_half = int(fused.cell_base[d]) >> 1
            for state in range(dfa.num_states):
                ptr_half = base_half + state * 256
                assert fused.weights[ptr_half] == w[state * 256]

    def test_misaligned_table_rejected(self):
        compiled = compiled_with_slices(2)
        tables = compiled.tables()
        with pytest.raises(DFAError, match="cells"):
            fuse_tables(tables,
                        [d.start for d in compiled.dfas],
                        [d.num_states + 1 for d in compiled.dfas], 256)

    def test_entry_state_validation(self):
        fs = compiled_with_slices(2).fused_scanner()
        with pytest.raises(DFAError, match="per DFA"):
            fs.entry_ptrs([0])
        with pytest.raises(DFAError, match="range"):
            fs.entry_ptrs([0, 10 ** 9])


class TestFusedDifferential:
    """Fused pass == D serial passes, bit-exact, for D in {1,2,4,8}."""

    @pytest.mark.parametrize("slices", [1, 2, 4, 8])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["flag", "weighted"])
    def test_counts_and_exits_match_serial(self, slices, weighted):
        compiled = compiled_with_slices(slices)
        fs = compiled.fused_scanner()
        rng = random.Random(slices * 1000 + weighted)
        for length in (0, 1, 7, 311, 1024, 5000):
            raw = _corpus(rng, length)
            arr = np.frombuffer(raw, dtype=np.uint8)
            for chunks in (1, 3, 64):
                want_c, want_x = per_dfa_reference(
                    compiled, raw, chunks, weighted=weighted)
                got_c, got_x = fs.count_arr_per_dfa(
                    arr, chunks,
                    weights=fs.weights if weighted else None)
                assert np.array_equal(got_c, want_c), \
                    (slices, length, chunks)
                assert np.array_equal(got_x, want_x), \
                    (slices, length, chunks)

    def test_entry_states_respected(self):
        compiled = compiled_with_slices(4)
        fs = compiled.fused_scanner()
        rng = random.Random(7)
        raw = _corpus(rng, 900)
        arr = np.frombuffer(raw, dtype=np.uint8)
        entry = [d.num_states // 2 for d in compiled.dfas]
        want_c, want_x = per_dfa_reference(compiled, raw, 16,
                                           entry_states=entry)
        got_c, got_x = fs.count_arr_per_dfa(arr, 16, entry_states=entry)
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_x, want_x)

    def test_weighted_totals_match_event_count(self):
        compiled = compiled_with_slices(4)
        fs = compiled.fused_scanner()
        raw = b"xyzvirus worm attack tac BABA abab " * 40
        arr = np.frombuffer(raw, dtype=np.uint8)
        counts, _ = fs.count_arr_per_dfa(arr, 32, weights=fs.weights)
        assert int(counts.sum()) == len(compiled.match_events(raw))

    def test_details_repairable_via_slice_views(self):
        from repro.core.scan import repair_detail
        compiled = compiled_with_slices(4)
        fs = compiled.fused_scanner()
        rng = random.Random(11)
        raw = _corpus(rng, 2000)
        arr = np.frombuffer(raw, dtype=np.uint8)
        details = fs.count_arr_detail_per_dfa(arr, 16)
        want_c, want_x = per_dfa_reference(compiled, raw, 16)
        for d, detail in enumerate(details):
            total, exit_state = repair_detail(
                fs.slice_view(d), arr, detail,
                compiled.dfas[d].start, 16)
            assert total == want_c[d]
            assert exit_state == want_x[d]


class TestFusedStreams:
    def test_ragged_streams_match_per_stream_scans(self):
        compiled = compiled_with_slices(4)
        fs = compiled.fused_scanner()
        rng = random.Random(23)
        streams = [_corpus(rng, n)
                   for n in (0, 1, 17, 400, 400, 1999, 0, 64)]
        counts, finals = fs.run_streams(streams, weights=fs.weights)
        assert counts.shape == (4, len(streams))
        for j, s in enumerate(streams):
            arr = np.frombuffer(s, dtype=np.uint8)
            want_c, want_x = fs.count_arr_per_dfa(arr, 1,
                                                  weights=fs.weights)
            assert np.array_equal(counts[:, j], want_c), j
            assert np.array_equal(finals[:, j], want_x), j
        total = sum(len(compiled.match_events(s)) for s in streams)
        assert int(counts.sum()) == total

    def test_empty_stream_list_rejected(self):
        fs = compiled_with_slices(2).fused_scanner()
        with pytest.raises(DFAError, match="at least one"):
            fs.run_streams([])

    def test_all_empty_streams_keep_entry_states(self):
        fs = compiled_with_slices(2).fused_scanner()
        counts, finals = fs.run_streams([b"", b""])
        assert not counts.any()
        for d in range(2):
            assert (finals[d] == fs.table.starts[d]).all()


class TestFusedBackend:
    def test_backend_matches_naive(self):
        fold = case_fold_32()
        compiled = compile_dictionary(PATTERNS, fold=fold, max_states=24)
        assert compiled.num_slices > 1
        naive = NaiveMatcher([fold.fold_bytes(p) for p in PATTERNS])
        rng = random.Random(99)
        raw = _corpus(rng, 3000)
        with ScanContext(compiled) as ctx:
            out = execute(ctx, ScanRequest(data=raw), backend="fused")
        assert out.backend == "fused"
        assert out.total_matches == naive.count(fold.fold_bytes(raw))
        assert out.stats["slices"] == compiled.num_slices

    def test_planner_prefers_fused_for_multi_slice(self):
        big = 4 << 20
        assert plan_backend(big, num_slices=4).backend == "fused"
        assert plan_backend(big, num_slices=1).backend == "chunked"
        assert plan_backend(big, num_slices=4,
                            fuse=False).backend == "chunked"

    def test_request_no_fuse_escape_hatch(self):
        compiled = compiled_with_slices(4)
        raw = b"virus tac abab " * 200000       # past the serial ceiling
        with ScanContext(compiled) as ctx:
            auto = execute(ctx, ScanRequest(data=raw))
            fused = execute(ctx, ScanRequest(data=raw), backend="fused")
            classic = execute(ctx, ScanRequest(data=raw, fuse=False))
        # union table, one pass — at pair stride when the squared
        # table reaches full coverage
        assert auto.backend == ("hotcold2" if compiled.pair_table_fits()
                                else "hotcold")
        assert fused.backend == "fused"
        assert classic.backend == "chunked"
        assert auto.total_matches == fused.total_matches \
            == classic.total_matches


class TestSharedFusedTable:
    def test_attach_scans_identically(self):
        compiled = compiled_with_slices(4)
        kernel = FusedKernel.from_compiled(compiled)
        raw = b"attack virus BABA abab worm " * 50
        arr = np.frombuffer(raw, dtype=np.uint8)
        want_c, want_x = kernel.count_arr_per_dfa(arr, 8)
        with kernel.shared_export() as owner:
            peer = SharedArrayBundle.attach(owner.meta())
            try:
                attached = FusedKernel.from_bundle(peer)
                got_c, got_x = attached.count_arr_per_dfa(arr, 8)
                assert np.array_equal(got_c, want_c)
                assert np.array_equal(got_x, want_x)
            finally:
                attached = None
                peer.close()

    def test_sharded_scanner_fused_matches_events(self):
        compiled = compiled_with_slices(4)
        raw = (b"attack virus BABA abab worm exploit " * 400)
        expected = len(compiled.match_events(raw))
        for kernel in (FusedKernel.from_compiled(compiled),
                       FlatKernel.from_compiled(compiled)):
            with ShardedScanner(kernel, workers=2,
                                min_shard_bytes=0) as scanner:
                assert scanner.num_chains == compiled.num_slices
                assert scanner.count_block(raw) == expected


class TestCacheRoundtrip:
    def test_fused_arrays_survive_store_load(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compiled = compiled_with_slices(4)
        original = compiled.fused_table()
        cache.store(compiled)
        loaded = cache.load(compiled.fingerprint)
        assert loaded is not None
        # arrives prebuilt from the artifact, not re-derived
        assert loaded._fused is not None
        restored = loaded.fused_table()
        assert np.array_equal(restored.flat, original.flat)
        assert np.array_equal(restored.weights, original.weights)
        assert np.array_equal(restored.cell_base, original.cell_base)

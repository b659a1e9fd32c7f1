"""The two-byte-stride (pair-symbol) scan path: rank-space pair table
construction, escape replay, D-invariant per-slice accumulation,
stream resume across pair boundaries, planner/backend/CLI selection,
shared-memory transport and the v5/v4 artifact story — every count AND
exit state differentially locked against the per-DFA serial path."""

import random

import numpy as np
import pytest

from repro.core.backends import (BackendError, ScanContext, ScanRequest,
                                 execute)
from repro.core.compiled import (ArtifactCache, COMPAT_TABLE_FORMAT_VERSIONS,
                                 COUNTERS, TABLE_FORMAT_VERSION,
                                 CompileError, compile_dictionary)
from repro.core.scan import (HOTCOLD_LANES_TARGET, HotCold2Kernel,
                             SharedArrayBundle, count_arr,
                             hotcold_lanes_target, hotcold_strip_elems,
                             pair_symbol_table)
from repro.core.planner import plan_backend
from repro.parallel import ShardedScanner

from .test_hotcold import (ALL_COLD_BUDGET, compiled_with_slices, _corpus,
                           per_dfa_reference)

#: Pair budgets under test: adversarial single-hot-row, partial
#: coverage, and everything-pair-hot.
BUDGETS = (ALL_COLD_BUDGET, 4096, 1 << 19)


class TestHotCold2Table:
    def test_pair_rows_within_budget_and_rank_space(self):
        for budget in BUDGETS:
            t = compiled_with_slices(4).hot_cold2_table(
                budget_bytes=budget)
            w2 = t.symbol_width ** 2
            assert t.hot2_flat.dtype == np.int16
            assert t.hot2_flat.size == t.num_hot2 * w2 + 1
            assert 1 <= t.num_hot2 <= t.num_states
            # rows obey the budget; the park cell rides along (+2 bytes)
            assert t.hot2_bytes - 2 <= max(budget, 2 * w2)
            # the parking cell answers num_states and carries nothing
            assert int(t.hot2_flat[-1]) == t.num_states
            assert int(t.fflat[-1]) == 0 and int(t.wflat[-1]) == 0

    def test_pair_table_agrees_with_two_single_steps(self):
        t = compiled_with_slices(2).hot_cold2_table(budget_bytes=1 << 19)
        W = t.symbol_width
        utr = t.utr.reshape(t.num_states, W)
        rng = random.Random(5)
        for _ in range(200):
            r = rng.randrange(t.num_hot2)
            a, b = rng.randrange(W), rng.randrange(W)
            mid = int(utr[r, a])
            want = t.num_states if mid == t.num_states \
                else int(utr[mid, b])
            assert int(t.hot2_flat[r * W * W + a * W + b]) == want

    def test_foldpair_composes_the_byte_fold(self):
        compiled = compiled_with_slices(1)
        fp = compiled.foldpair_table()
        t = compiled.hot_cold_table()
        W = t.symbol_width
        fold = np.asarray(t.fold_table, dtype=np.int64)
        rng = random.Random(6)
        for _ in range(100):
            b0, b1 = rng.randrange(256), rng.randrange(256)
            pair = (b0 | (b1 << 8)) if np.little_endian \
                else (b1 | (b0 << 8))
            assert int(fp[pair]) == int(fold[b0]) * W + int(fold[b1])
        assert np.array_equal(fp, pair_symbol_table(t.fold_table, W))

    def test_pair_fit_is_a_full_coverage_certificate(self):
        compiled = compiled_with_slices(4)
        if compiled.pair_table_fits():
            t = compiled.hot_cold2_table()
            assert t.num_hot2 == t.num_states
        assert not compiled.pair_table_fits(budget_bytes=ALL_COLD_BUDGET)


class TestHotCold2Differential:
    """Counts AND exit states, bit-identical to D independent per-DFA
    serial scans — across D, budgets, odd lengths and chunk counts."""

    @pytest.mark.parametrize("slices", [1, 2, 4, 8])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_counts_and_exits_match_serial(self, slices, weighted):
        compiled = compiled_with_slices(slices)
        rng = random.Random(100 + slices)
        raw = _corpus(rng, 40_000)
        want_counts, want_exits = per_dfa_reference(
            compiled, raw, 16, weighted=weighted)
        hc2 = compiled.hot_cold2_scanner()
        arr = np.frombuffer(raw, dtype=np.uint8)
        got_counts, got_exits = hc2.count_arr_per_dfa(
            arr, 16, weights=hc2.weights if weighted else None)
        assert np.array_equal(got_counts, want_counts)
        assert np.array_equal(got_exits, want_exits)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_every_budget_stays_exact(self, budget):
        compiled = compiled_with_slices(4)
        rng = random.Random(7)
        raw = _corpus(rng, 30_000)
        want_counts, want_exits = per_dfa_reference(compiled, raw, 8,
                                                    weighted=True)
        hc2 = compiled.hot_cold2_scanner(budget_bytes=budget)
        got_counts, got_exits = hc2.count_arr_per_dfa(
            np.frombuffer(raw, dtype=np.uint8), 8, weights=hc2.weights)
        assert np.array_equal(got_counts, want_counts)
        assert np.array_equal(got_exits, want_exits)

    def test_all_cold_budget_escapes_and_stays_exact(self):
        compiled = compiled_with_slices(2)
        hc2 = compiled.hot_cold2_scanner(budget_bytes=ALL_COLD_BUDGET)
        assert hc2.table.num_hot2 == 1
        rng = random.Random(8)
        raw = _corpus(rng, 20_000)
        hc2.reset_stats()
        want, _ = per_dfa_reference(compiled, raw, 4, weighted=True)
        got, _ = hc2.count_arr_per_dfa(np.frombuffer(raw, np.uint8), 4,
                                       weights=hc2.weights)
        assert np.array_equal(got, want)
        assert hc2.stats["escapes"] > 0
        assert hc2.stats["cold_steps"] > 0
        assert 0.0 <= hc2.hot_hit_rate < 1.0

    @pytest.mark.parametrize("length", [0, 1, 2, 3, 17, 255, 4097])
    @pytest.mark.parametrize("chunks", [1, 3, 64])
    def test_odd_lengths_and_chunk_counts(self, length, chunks):
        compiled = compiled_with_slices(2)
        rng = random.Random(length * 64 + chunks)
        raw = _corpus(rng, length)
        want_counts, want_exits = per_dfa_reference(
            compiled, raw, chunks, weighted=True)
        hc2 = compiled.hot_cold2_scanner()
        got_counts, got_exits = hc2.count_arr_per_dfa(
            np.frombuffer(raw, dtype=np.uint8), chunks,
            weights=hc2.weights)
        assert np.array_equal(got_counts, want_counts)
        assert np.array_equal(got_exits, want_exits)

    def test_match_on_the_middle_byte_of_a_pair(self):
        # "tac" ends mid-pair at even offsets; the aux tables must
        # count the crossing without an escape.
        compiled = compiled_with_slices(1)
        hc2 = compiled.hot_cold2_scanner()
        for pad in range(4):
            raw = b"z" * pad + b"tac"
            want, _ = per_dfa_reference(compiled, raw, 1, weighted=True)
            got, _ = hc2.count_arr_per_dfa(
                np.frombuffer(raw, np.uint8), 1, weights=hc2.weights)
            assert np.array_equal(got, want), pad

    def test_whole_block_totals_match_hotcold(self):
        compiled = compiled_with_slices(4)
        rng = random.Random(9)
        raw = _corpus(rng, 60_001)
        arr = np.frombuffer(raw, dtype=np.uint8)
        hc = compiled.hot_cold_scanner()
        hc2 = compiled.hot_cold2_scanner()
        want, wexit = count_arr(hc, arr, 32, hc.start,
                                weights=hc.weights)
        got, gexit = count_arr(hc2, arr, 32, hc2.start,
                               weights=hc2.weights)
        assert int(got) == int(want)
        assert int(gexit) == int(wexit)

    def test_arbitrary_per_dfa_entries_rejected(self):
        from repro.dfa.automaton import DFAError

        compiled = compiled_with_slices(2)
        hc2 = compiled.hot_cold2_scanner()
        bad = np.zeros(compiled.num_slices, dtype=np.int64) + 1
        with pytest.raises(DFAError, match="union start"):
            hc2.count_arr_per_dfa(np.zeros(64, dtype=np.uint8), 4,
                                  entry_states=bad)


class TestHotCold2Streams:
    """run_streams at pair stride: ragged lengths, zero/one-byte
    segments crossing pair boundaries, and stream resume."""

    def _payloads(self, rng, sizes):
        return [_corpus(rng, n) for n in sizes]

    def test_ragged_stream_batch_matches_per_stream_scans(self):
        compiled = compiled_with_slices(4)
        hc2 = compiled.hot_cold2_scanner()
        rng = random.Random(11)
        payloads = self._payloads(
            rng, [0, 1, 2, 3, 64, 65, 1023, 4096, 9999])
        counts, states = hc2.run_streams(payloads, weights=hc2.weights)
        for payload, count, state in zip(payloads, counts, states):
            if payload:
                want, wexit = count_arr(
                    hc2, np.frombuffer(payload, np.uint8), 4,
                    hc2.start, weights=hc2.weights)
                assert int(count) == int(want)
                assert int(state) == int(wexit)
            else:
                assert int(count) == 0
                assert int(state) == hc2.start

    def test_resume_across_odd_segment_boundaries(self):
        # Segment lengths 0 and 1 force every pair-phase realignment;
        # the resumed scan must equal the unsegmented one.
        compiled = compiled_with_slices(2)
        hc2 = compiled.hot_cold2_scanner()
        rng = random.Random(12)
        whole = _corpus(rng, 5_001)
        cuts = sorted(rng.randrange(len(whole)) for _ in range(7))
        pieces = [whole[a:b] for a, b in
                  zip([0] + cuts, cuts + [len(whole)])]
        pieces[2:2] = [b"", whole[cuts[2]:cuts[2]]]  # zero-length mixes
        assert b"".join(pieces) == whole
        counts = np.zeros(1, dtype=np.int64)
        states = None
        total = 0
        for piece in pieces:
            if not piece:
                piece = b""
            counts, states = hc2.run_streams(
                [piece], start_states=states, weights=hc2.weights)
            total += int(counts[0])
            states = np.asarray(states)
        want, wexit = count_arr(hc2, np.frombuffer(whole, np.uint8),
                                4, hc2.start, weights=hc2.weights)
        assert total == int(want)
        assert int(states[0]) == int(wexit)

    def test_posmajor_scan_cols_compat(self):
        compiled = compiled_with_slices(2)
        hc2 = compiled.hot_cold2_scanner()
        rng = random.Random(13)
        lanes = 5
        payloads = self._payloads(rng, [257] * lanes)
        length = min(len(p) for p in payloads)  # _corpus may undershoot
        payloads = [p[:length] for p in payloads]
        mat = np.frombuffer(b"".join(payloads), np.uint8).reshape(
            lanes, length)
        cols = np.ascontiguousarray(mat.T)
        ptrs = np.full(lanes, hc2.pointer(hc2.start), dtype=np.int32)
        counts = np.zeros(lanes, dtype=np.int64)
        hc2.scan_cols(cols, ptrs, counts, weights=hc2.weights)
        want, _ = hc2.run_streams(payloads, weights=hc2.weights)
        assert np.array_equal(counts, want)


class TestEnvKnobs:
    def test_lanes_and_strip_elems_env_overrides(self, monkeypatch):
        monkeypatch.setenv("REPRO_HOTCOLD_LANES", "123")
        monkeypatch.setenv("REPRO_HOTCOLD_STRIP_ELEMS", "456")
        assert hotcold_lanes_target() == 123
        assert hotcold_strip_elems() == 456
        monkeypatch.setenv("REPRO_HOTCOLD_LANES", "junk")
        monkeypatch.delenv("REPRO_HOTCOLD_STRIP_ELEMS")
        assert hotcold_lanes_target() == HOTCOLD_LANES_TARGET
        from repro.core.scan import HOTCOLD_STRIP_ELEMS
        assert hotcold_strip_elems() == HOTCOLD_STRIP_ELEMS

    def test_strip_elems_knob_keeps_counts_exact(self, monkeypatch):
        compiled = compiled_with_slices(2)
        rng = random.Random(14)
        raw = _corpus(rng, 10_000)
        want, _ = per_dfa_reference(compiled, raw, 8, weighted=True)
        monkeypatch.setenv("REPRO_HOTCOLD_STRIP_ELEMS", "64")
        hc2 = compiled.hot_cold2_scanner()
        got, _ = hc2.count_arr_per_dfa(np.frombuffer(raw, np.uint8), 8,
                                       weights=hc2.weights)
        assert np.array_equal(got, want)


class TestPlannerAndBackend:
    RAW = (b"a virus, a WORM, abab attack `{ " * 40_000)

    def test_planner_upgrades_to_pair_path_on_fit(self):
        plan = plan_backend(nbytes=1 << 22, num_slices=4, exact=True,
                            pair_fit=True)
        assert plan.backend == "hotcold2"
        plan = plan_backend(nbytes=1 << 22, num_slices=4, exact=True,
                            pair_fit=False)
        assert plan.backend == "hotcold"

    def test_two_byte_escape_hatch_wins_both_ways(self):
        # The backend name forces the stride either way, whatever the
        # planner's pair-fit rule would pick.
        with ScanContext(compiled_with_slices(4)) as ctx:
            forced = execute(ctx, ScanRequest(self.RAW),
                             backend="hotcold2")
            vetoed = execute(ctx, ScanRequest(self.RAW),
                             backend="hotcold")
        assert forced.backend == "hotcold2"
        assert vetoed.backend == "hotcold"
        assert forced.total_matches == vetoed.total_matches

    def test_two_byte_implies_the_union_scan(self):
        # Naming the pair backend on an unpartitioned, cache-friendly
        # dictionary runs the union scan the planner would not pick...
        compiled = compile_dictionary([b"virus", b"worm", b"attack"])
        with ScanContext(compiled) as ctx:
            implied = execute(ctx, ScanRequest(self.RAW),
                              backend="hotcold2")
            # ...while auto-planning keeps the one-table fixpoint.
            auto = execute(ctx, ScanRequest(self.RAW, prefilter=False))
        assert implied.backend == "hotcold2"
        assert auto.backend == "chunked"
        assert implied.total_matches == auto.total_matches

    def test_backend_exactness_and_stats(self):
        compiled = compiled_with_slices(4)
        ctx = ScanContext(compiled)
        pair = execute(ctx, ScanRequest(self.RAW), backend="hotcold2")
        ref = execute(ctx, ScanRequest(self.RAW), backend="fused")
        assert pair.total_matches == ref.total_matches
        assert pair.stats["hot2_states"] >= 1
        assert pair.stats["hot2_bytes"] > 0
        assert 0.0 <= pair.stats["hot_hit_rate"] <= 1.0

    def test_regex_context_refuses_pair_scan(self):
        compiled = compile_dictionary(["vi.us", "wo?rm"], regex=True)
        with pytest.raises(BackendError, match="union automaton"):
            ScanContext(compiled).kernel("hotcold2")
        with pytest.raises(CompileError):
            compiled.hot_cold2_table()

    def test_batch_kernel_prefers_pair_scanner_with_stats(self):
        # The prefilter verifies candidate windows of backends without
        # their own verify kernel on this kernel.
        compiled = compiled_with_slices(4)
        ctx = ScanContext(compiled)
        name = ctx.batch_kernel_name()
        if compiled.pair_table_fits():
            assert name == "hotcold2"
        kern = ctx.kernel(name)
        kern.reset_stats()
        payloads = [self.RAW[:977], b"", b"virus" * 30, self.RAW[7:400]]
        got, _ = kern.run_streams(payloads)
        want, _ = ctx.kernel("fused").run_streams(payloads)
        assert np.array_equal(got, want)
        stats = kern.stats()
        assert stats["steps"] > 0
        assert 0.0 <= stats["hot_hit_rate"] <= 1.0

    def test_matcher_threads_two_byte_through(self):
        from repro.core.matcher import CellStringMatcher

        m = CellStringMatcher([p.decode() for p in
                               [b"virus", b"worm", b"attack"]])
        text = "a virus, a WORM, attack " * 50_000
        pair = m.scan(text, backend="hotcold2")
        pinned = m.scan(text, backend="hotcold")
        assert pair.backend == "hotcold2"
        assert pinned.backend == "hotcold"
        assert pair.total_matches == pinned.total_matches


class TestSharedHotCold2:
    def test_segment_roundtrip_and_attach(self):
        compiled = compiled_with_slices(2)
        kernel = HotCold2Kernel.from_compiled(compiled)
        rng = random.Random(15)
        raw = _corpus(rng, 9_000)
        arr = np.frombuffer(raw, dtype=np.uint8)
        want = kernel.count_total(arr, 8)
        with kernel.shared_export() as seg:
            peer = SharedArrayBundle.attach(seg.meta())
            attached = HotCold2Kernel.from_bundle(peer)
            assert attached.count_total(arr, 8) == want
            assert attached.table.hot2_flat.base is not None
            del attached
            peer.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_scanner_two_byte_mode(self, workers):
        compiled = compiled_with_slices(2)
        rng = random.Random(16)
        raw = _corpus(rng, 200_000)
        with ShardedScanner(HotCold2Kernel.from_compiled(compiled),
                            workers=workers,
                            min_shard_bytes=1 << 12) as sc:
            got = sc.count_block(raw)
            streamed = sc.count_stream([raw[:33], b"", raw[33:1234],
                                        raw[1234:]])
        want = int(per_dfa_reference(compiled, raw, 8,
                                     weighted=True)[0].sum())
        assert got == want
        assert streamed == want

    def test_sharded_two_byte_rejects_regex(self):
        compiled = compile_dictionary(["vi.us"], regex=True)
        assert not HotCold2Kernel.supports(compiled)
        with ScanContext(compiled) as ctx:
            with pytest.raises(BackendError, match="union automaton"):
                ctx.kernel("hotcold2")
            assert ctx.batch_kernel_name() == "fused"


class TestArtifactV5:
    PATTERNS = [b"virus", b"worm", b"trojan horse"]

    def test_v5_artifact_roundtrips_foldpair(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        path = cache.path_for(built.fingerprint)
        assert f"-v{TABLE_FORMAT_VERSION}" in path.name
        with np.load(path, allow_pickle=False) as z:
            assert "hotcold2_foldpair" in z.files
        loaded = compile_dictionary(self.PATTERNS, cache=cache)
        assert np.array_equal(loaded.foldpair_table(),
                              built.foldpair_table())

    def test_warm_v5_load_scans_pair_path_without_rebuilds(
            self, tmp_path):
        pats = [(chr(65 + i % 26) + chr(65 + i // 26) + "SIG").encode()
                for i in range(40)]
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(pats, max_states=60, cache=cache)
        assert built.num_slices > 1
        builds = COUNTERS["automaton_builds"]
        loaded = compile_dictionary(pats, max_states=60, cache=cache)
        hc2 = loaded.hot_cold2_scanner()
        assert COUNTERS["automaton_builds"] == builds, \
            "warm start rebuilt the union automaton"
        raw = b"zzAASIGzz BBSIG ccsig " * 50
        arr = np.frombuffer(raw, dtype=np.uint8)
        got, _ = count_arr(hc2, arr, 8, hc2.start, weights=hc2.weights)
        assert int(got) == len(built.match_events(raw))

    def test_v4_file_still_loads_and_scans(self, tmp_path):
        # A faithful v4 artifact: strip the v5-only rows, re-add the
        # dense union matrix, stamp version 4 and store under the v4
        # name — the loader must accept it and the pair path must
        # derive its foldpair lazily.
        import io
        import json

        assert 4 in COMPAT_TABLE_FORMAT_VERSIONS
        # multi-slice so union rows are exercised
        compiled = compiled_with_slices(2)
        cache = ArtifactCache(tmp_path)
        cache.store(compiled)
        v5 = cache.path_for(compiled.fingerprint)
        with np.load(v5, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 4
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8).copy()
        arrays.pop("hotcold2_foldpair")
        if "union_csr_keys" in arrays:
            union = compiled.union_dfa()
            arrays["union_trans"] = np.asarray(union.transitions,
                                               dtype=np.int32)
            for k in ("union_csr_keys", "union_csr_vals",
                      "union_csr_default", "union_csr_rows"):
                arrays.pop(k)
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        v4 = cache.path_for(compiled.fingerprint, version=4)
        v4.write_bytes(buf.getvalue())
        v5.unlink()

        loaded = cache.load(compiled.fingerprint)
        assert loaded is not None
        rng = random.Random(17)
        raw = _corpus(rng, 8_000)
        want, _ = per_dfa_reference(compiled, raw, 8, weighted=True)
        hc2 = loaded.hot_cold2_scanner()
        got, _ = hc2.count_arr_per_dfa(np.frombuffer(raw, np.uint8), 8,
                                       weights=hc2.weights)
        assert np.array_equal(got, want)

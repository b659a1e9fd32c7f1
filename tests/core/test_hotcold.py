"""The hot/cold union path: the pair table's hottest-first state order
and hot budget, and the union kernel over it — the slow-path escape,
planner/backend selection, shared-memory transport and the v4
artifact roundtrip, every count AND exit state differentially locked
against the per-DFA serial path and the naive reference."""

import random

import numpy as np
import pytest

from repro.baselines.naive import NaiveMatcher
from repro.core.backends import (BackendError, ScanContext, ScanRequest,
                                 execute)
from repro.core.compiled import (ArtifactCache, COUNTERS,
                                 TABLE_FORMAT_VERSION,
                                 compile_dictionary)
from repro.core.scan import (FlatScanner, HotCold2Kernel,
                             SharedArrayBundle, count_arr)
from repro.dfa.automaton import DFAError
from repro.core.planner import CACHE_BUDGET_BYTES, plan_backend
from repro.parallel import ShardedScanner

# Same dictionary shape as test_fused: wide enough for max_states to
# partition into 1/2/4/8 slices, with self-overlap and substring
# nesting to keep speculation repair honest.
PATTERNS = [b"abab", b"ABABAB", b"BABA", b"@[", b"`{", b"attack",
            b"tac", b"backdoor", b"virus", b"worm", b"trojan",
            b"exploit", b"malware", b"rootkit", b"phish", b"botnet"]

#: A budget this small forces num_hot2 == 1 (one pair row costs
#: W² × 2 = 2 KB): the adversarial everything-cold layout.
ALL_COLD_BUDGET = 16

_COMPILED = {}


def compiled_with_slices(target: int):
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
        _COMPILED[target] = found
    return _COMPILED[target]


def _corpus(rng, length):
    """Fold-boundary-biased corpus (0x40–0x5F aliases letters under the
    32-symbol fold) mixed with pattern fragments."""
    pool = [bytes([rng.randrange(0x40, 0x60)]) for _ in range(8)]
    pool += [b"aba", b"bab", b"AbAb", b"virus", b"tac", b" ", b"\x00"]
    out = b"".join(rng.choice(pool) for _ in range(length // 3 + 1))
    return out[:length]


def per_dfa_reference(compiled, raw, chunks, weighted=False):
    """(counts, exit_states) from D independent serial-path scans."""
    arr = np.frombuffer(raw, dtype=np.uint8)
    totals = np.zeros(compiled.num_slices, dtype=np.int64)
    exits = np.zeros(compiled.num_slices, dtype=np.int64)
    for d, (dfa, (flat, w)) in enumerate(zip(compiled.dfas,
                                             compiled.tables())):
        scanner = FlatScanner(flat, 256, dfa.start, dfa.num_states)
        totals[d], exits[d] = count_arr(
            scanner, arr, chunks, dfa.start,
            weights=w if weighted else None)
    return totals, exits


class TestHotColdTable:
    """The pair table's hot set: the hottest prefix of a permutation
    of the union states, capped by the hot budget."""

    def test_partition_covers_every_state_once(self):
        t = compiled_with_slices(4).hot_cold2_table()
        hot, rest = t.order[:t.num_hot2], t.order[t.num_hot2:]
        both = np.concatenate([hot, rest])
        assert sorted(both.tolist()) == list(range(t.num_states))
        assert np.array_equal(t.rank_of[t.order],
                              np.arange(t.num_states))

    def test_start_state_is_always_hot(self):
        for budget in (ALL_COLD_BUDGET, 4096, 1 << 20):
            t = compiled_with_slices(4).hot_cold2_table(
                budget_bytes=budget)
            assert int(t.order[0]) == int(t.start)
            assert int(t.rank_of[t.start]) == 0 < t.num_hot2

    def test_budget_caps_hot_partition(self):
        t = compiled_with_slices(2).hot_cold2_table(budget_bytes=4096)
        row = t.symbol_width ** 2 * t.hot2_flat.itemsize
        assert 1 <= t.num_hot2 <= max(1, 4096 // row)
        # the budget caps the pair *rows*; the parking cell rides on top
        assert t.num_hot2 * row <= max(4096, row)

    def test_all_cold_budget_leaves_one_hot_row(self):
        t = compiled_with_slices(4).hot_cold2_table(
            budget_bytes=ALL_COLD_BUDGET)
        assert t.num_hot2 == 1

    def test_generous_budget_holds_everything_hot(self):
        compiled = compiled_with_slices(4)
        hc = compiled.hot_cold2_table(budget_bytes=1 << 26).scanner()
        assert hc.num_hot2 == hc.num_states
        raw = _corpus(random.Random(29), 3000)
        count_arr(hc, np.frombuffer(raw, dtype=np.uint8), 8, hc.start)
        assert hc.stats["cold_steps"] == 0

    def test_pointer_state_roundtrip_every_state(self):
        compiled = compiled_with_slices(4)
        for budget in (ALL_COLD_BUDGET, 2048, 1 << 26):
            hc = compiled.hot_cold2_table(budget_bytes=budget).scanner()
            states = np.arange(hc.num_states, dtype=np.int64)
            ptrs = np.asarray([hc.pointer(s) for s in states])
            assert np.array_equal(hc.state_of(ptrs), states)

    def test_footprint_accounting_shrinks_with_split(self):
        compiled = compiled_with_slices(4)
        t = compiled.hot_cold2_table(budget_bytes=2048)
        assert t.table_bytes < compiled.fused_table_bytes


class TestHotColdDifferential:
    """Union kernel pass == D serial passes, bit-exact, D in
    {1,2,4,8}, including the adversarial everything-cold layout."""

    @pytest.mark.parametrize("slices", [1, 2, 4, 8])
    @pytest.mark.parametrize("weighted", [False, True],
                             ids=["flag", "weighted"])
    def test_counts_and_exits_match_serial(self, slices, weighted):
        compiled = compiled_with_slices(slices)
        hc = compiled.hot_cold2_scanner()
        rng = random.Random(slices * 2000 + weighted)
        for length in (0, 1, 7, 311, 1024, 5000):
            raw = _corpus(rng, length)
            arr = np.frombuffer(raw, dtype=np.uint8)
            for chunks in (1, 3, 64):
                want_c, want_x = per_dfa_reference(
                    compiled, raw, chunks, weighted=weighted)
                got_c, got_x = hc.count_arr_per_dfa(
                    arr, chunks,
                    weights=hc.weights if weighted else None)
                assert np.array_equal(got_c, want_c), \
                    (slices, length, chunks)
                assert np.array_equal(got_x, want_x), \
                    (slices, length, chunks)

    @pytest.mark.parametrize("slices", [1, 4])
    def test_all_cold_table_still_exact(self, slices):
        compiled = compiled_with_slices(slices)
        hc = compiled.hot_cold2_table(
            budget_bytes=ALL_COLD_BUDGET).scanner()
        rng = random.Random(31 + slices)
        raw = _corpus(rng, 3000)
        arr = np.frombuffer(raw, dtype=np.uint8)
        want_c, want_x = per_dfa_reference(compiled, raw, 16,
                                           weighted=True)
        got_c, got_x = hc.count_arr_per_dfa(arr, 16,
                                            weights=hc.weights)
        assert np.array_equal(got_c, want_c)
        assert np.array_equal(got_x, want_x)
        assert hc.stats["escapes"] > 0, \
            "an all-cold scan must exercise the slow path"

    def test_whole_dictionary_totals_match_naive(self):
        compiled = compiled_with_slices(4)
        hc = compiled.hot_cold2_scanner()
        fold = compiled.fold
        naive = NaiveMatcher([fold.fold_bytes(p) for p in PATTERNS])
        rng = random.Random(41)
        raw = _corpus(rng, 4000)
        arr = np.frombuffer(raw, dtype=np.uint8)
        total, _ = count_arr(hc, arr, 32, hc.start, weights=hc.weights)
        assert int(total) == naive.count(fold.fold_bytes(raw))
        assert int(total) == len(compiled.match_events(raw))

    def test_hot_hit_rate_bounds_and_escape_accounting(self):
        compiled = compiled_with_slices(4)
        hc = compiled.hot_cold2_scanner()
        hc.reset_stats()
        raw = _corpus(random.Random(43), 2000)
        count_arr(hc, np.frombuffer(raw, dtype=np.uint8), 8, hc.start)
        assert 0.0 <= hc.hot_hit_rate <= 1.0
        assert hc.stats["cold_steps"] <= hc.stats["steps"]

    def test_run_streams_matches_fused_reduction(self):
        compiled = compiled_with_slices(4)
        hc = compiled.hot_cold2_scanner()
        fs = compiled.fused_scanner()
        rng = random.Random(47)
        streams = [_corpus(rng, n) for n in (0, 5, 313, 1201, 64)]
        got_c, got_x = hc.run_streams(streams, weights=hc.weights)
        want = fs.run_streams(streams, weights=fs.weights)[0]
        assert np.array_equal(got_c, np.asarray(want).sum(axis=0))
        assert got_c.shape == (len(streams),)
        # final union states replay correctly as resume points
        tails = [_corpus(rng, 97) for _ in streams]
        res_c, _ = hc.run_streams(tails, start_states=got_x,
                                  weights=hc.weights)
        full_c, _ = hc.run_streams(
            [s + t for s, t in zip(streams, tails)],
            weights=hc.weights)
        assert np.array_equal(got_c + res_c, full_c)

    def test_arbitrary_per_dfa_entries_rejected(self):
        compiled = compiled_with_slices(2)
        hc = compiled.hot_cold2_scanner()
        arr = np.frombuffer(b"abcd", dtype=np.uint8)
        with pytest.raises(DFAError, match="union start"):
            hc.count_arr_per_dfa(arr, 4, entry_states=[1, 1])


class TestPlannerSelection:
    NB = 1 << 22        # past the serial ceiling

    def test_multi_slice_exact_dictionary_selects_hotcold(self):
        plan = plan_backend(nbytes=self.NB, num_slices=4, exact=True)
        assert plan.backend == "hotcold2"

    def test_oversized_single_slice_selects_hotcold(self):
        plan = plan_backend(nbytes=self.NB, num_slices=1, exact=True,
                            fused_bytes=CACHE_BUDGET_BYTES * 4)
        assert plan.backend == "hotcold2"

    def test_cache_resident_single_slice_keeps_chunked(self):
        plan = plan_backend(nbytes=self.NB, num_slices=1, exact=True,
                            fused_bytes=CACHE_BUDGET_BYTES // 2)
        assert plan.backend == "chunked"

    def test_regex_dictionaries_never_select_hotcold(self):
        plan = plan_backend(nbytes=self.NB, num_slices=4, exact=False)
        assert plan.backend == "fused"

    def test_explicit_override_wins_both_ways(self):
        # Forcing a kernel is the backend name's job, not the planner's:
        # it wins over the footprint rule in both directions.
        raw = b"a virus, a WORM, abab attack " * 100
        for compiled, backend in ((compile_dictionary([b"virus"]),
                                   "hotcold2"),
                                  (compiled_with_slices(4), "fused")):
            with ScanContext(compiled) as ctx:
                out = execute(ctx, ScanRequest(raw), backend=backend)
                ref = execute(ctx, ScanRequest(raw), backend="serial")
            assert out.backend == backend
            assert out.total_matches == ref.total_matches > 0


class TestBackendExecution:
    # Long enough to clear the serial byte ceiling so auto-planning
    # reaches the block-backend decision.
    RAW = (b"a virus, a WORM, abab attack `{ " * 40_000)

    def test_auto_selects_hotcold_and_counts_match(self):
        compiled = compiled_with_slices(4)
        ctx = ScanContext(compiled)
        pinned = execute(ctx, ScanRequest(self.RAW), backend="hotcold2")
        forced = execute(ctx, ScanRequest(self.RAW), backend="fused")
        assert pinned.backend == "hotcold2"
        assert pinned.total_matches == forced.total_matches
        assert pinned.stats["hot2_states"] >= 1
        assert 0.0 <= pinned.stats["hot_hit_rate"] <= 1.0
        free = execute(ctx, ScanRequest(self.RAW))
        assert free.backend == "hotcold2"
        assert free.total_matches == forced.total_matches

    def test_escape_hatch_disables_hotcold(self):
        compiled = compiled_with_slices(4)
        out = execute(ScanContext(compiled),
                      ScanRequest(self.RAW, fuse=False))
        assert out.backend == "chunked"

    def test_regex_context_refuses_hotcold(self):
        compiled = compile_dictionary(["vi.us", "wo?rm"], regex=True)
        with pytest.raises(BackendError, match="union automaton"):
            ScanContext(compiled).kernel("hotcold2")
        out = execute(ScanContext(compiled), ScanRequest(self.RAW))
        assert out.backend != "hotcold2"


class TestSharedHotCold:
    def test_segment_roundtrip_and_attach(self):
        compiled = compiled_with_slices(4)
        kernel = HotCold2Kernel.from_compiled(compiled)
        raw = _corpus(random.Random(53), 3000)
        arr = np.frombuffer(raw, dtype=np.uint8)
        ref = kernel.count_total(arr, 16)
        with kernel.shared_export() as shared:
            peer = SharedArrayBundle.attach(shared.meta())
            try:
                attached = HotCold2Kernel.from_bundle(peer)
                assert attached.count_total(arr, 16) == ref
                assert attached.table.num_hot2 == kernel.table.num_hot2
                assert attached.input_bound is None
            finally:
                attached = None
                peer.close()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sharded_scanner_hot_cold_mode(self, workers):
        compiled = compiled_with_slices(4)
        raw = bytes(_corpus(random.Random(59), 200_000))
        arr = np.frombuffer(raw, dtype=np.uint8)
        hc = compiled.hot_cold2_scanner()
        ref, _ = count_arr(hc, arr, 64, hc.start, weights=hc.weights)
        with ShardedScanner(HotCold2Kernel.from_compiled(compiled),
                            workers=workers) as s:
            assert s.count_block(raw) == int(ref)

    def test_sharded_hot_cold_rejects_regex(self):
        compiled = compile_dictionary(["vi.us"], regex=True)
        assert not HotCold2Kernel.supports(compiled)
        with ScanContext(compiled) as ctx:
            with pytest.raises(BackendError, match="union automaton"):
                ctx.kernel("hotcold2")
            assert ctx.batch_kernel_name() == "fused"


class TestArtifactMigration:
    PATTERNS = [b"virus", b"worm", b"trojan horse"]

    def test_v3_named_artifact_is_a_miss_not_a_crash(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        cur = cache.path_for(built.fingerprint)
        v3 = cur.with_name(cur.name.replace(
            f"-v{TABLE_FORMAT_VERSION}", "-v3"))
        cur.rename(v3)          # what a pre-upgrade cache dir contains
        before = dict(COUNTERS)
        cd = compile_dictionary(self.PATTERNS, cache=cache)
        assert COUNTERS["cache_misses"] == before["cache_misses"] + 1
        assert cd.hot_cold2_scanner() is not None
        assert cur.exists() and v3.exists()     # old file left alone

    def test_stale_meta_version_is_a_miss_not_a_crash(self, tmp_path):
        import io
        import json

        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        path = cache.path_for(built.fingerprint)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["version"] = 3     # a v3 payload smuggled under a v4 name
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8).copy()
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        path.write_bytes(buf.getvalue())
        before = dict(COUNTERS)
        assert cache.load(built.fingerprint) is None
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1

    def test_legacy_visit_mass_row_is_ignored_on_load(self, tmp_path):
        # Artifacts written before the visit-mass row was dropped carry
        # a `hotcold_mass` array; a warm load must ignore it.
        import io

        pats = [(chr(65 + i % 26) + chr(65 + i // 26) + "SIG").encode()
                for i in range(40)]
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(pats, max_states=60, cache=cache)
        assert built.num_slices > 1
        path = cache.path_for(built.fingerprint)
        with np.load(path, allow_pickle=False) as z:
            arrays = {k: z[k] for k in z.files}
        assert "hotcold_mass" not in arrays
        n = len(arrays["hotcold_order"])
        arrays["hotcold_mass"] = np.full(n, 1.0 / n)
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        path.write_bytes(buf.getvalue())
        before = dict(COUNTERS)
        loaded = compile_dictionary(pats, max_states=60, cache=cache)
        hc = loaded.hot_cold2_scanner()
        assert COUNTERS["cache_rejects"] == before["cache_rejects"]
        assert COUNTERS["cache_hits"] == before["cache_hits"] + 1
        assert COUNTERS["automaton_builds"] == before["automaton_builds"]
        raw = b"zzAASIGzz BBSIG ccsig " * 50
        got, _ = count_arr(hc, np.frombuffer(raw, dtype=np.uint8), 8,
                           hc.start, weights=hc.weights)
        assert int(got) == len(built.match_events(raw)) > 0

    def test_warm_v4_load_scans_hot_cold_without_rebuilds(self, tmp_path):
        pats = [(chr(65 + i % 26) + chr(65 + i // 26) + "SIG").encode()
                for i in range(40)]
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(pats, max_states=60, cache=cache)
        assert built.num_slices > 1
        builds = COUNTERS["automaton_builds"]
        loaded = compile_dictionary(pats, max_states=60, cache=cache)
        hc = loaded.hot_cold2_scanner()
        assert COUNTERS["automaton_builds"] == builds, \
            "warm start rebuilt the union automaton"
        raw = b"zzAASIGzz BBSIG ccsig " * 50
        arr = np.frombuffer(raw, dtype=np.uint8)
        got, _ = count_arr(hc, arr, 8, hc.start, weights=hc.weights)
        assert int(got) == len(built.match_events(raw))

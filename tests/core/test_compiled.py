"""The compile phase: CompiledDictionary, its one codec and the two
carriers of that codec — the on-disk artifact cache and the compiled
shared-memory bundle."""

import io
import json
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import (COUNTERS, TABLE_FORMAT_VERSION,
                                 ArtifactCache, CompileError,
                                 compile_dictionary, compiled_arrays,
                                 compiled_from_arrays,
                                 fingerprint_dictionary)
from repro.core.scan import SharedArrayBundle
from repro.dfa.alphabet import case_fold_32, identity_fold


def _builds():
    return COUNTERS["automaton_builds"]


class TestFingerprint:
    def test_deterministic(self):
        fold = case_fold_32()
        a = fingerprint_dictionary([b"abc", b"def"], fold, False, 1000)
        b = fingerprint_dictionary([b"abc", b"def"], fold, False, 1000)
        assert a == b and len(a) == 64

    def test_sensitive_to_every_input(self):
        fold = case_fold_32()
        base = fingerprint_dictionary([b"abc"], fold, False, 1000)
        assert fingerprint_dictionary([b"abd"], fold, False, 1000) != base
        assert fingerprint_dictionary([b"abc"], fold, True, 1000) != base
        assert fingerprint_dictionary([b"abc"], fold, False, 999) != base
        assert fingerprint_dictionary(
            [b"abc"], identity_fold(), False, 1000) != base

    def test_values_are_stable(self):
        # Pinned digests: a changed value would orphan every artifact
        # already in a cache.
        assert fingerprint_dictionary(
            [b"virus", "worm", bytearray(b"trojan")], case_fold_32(),
            False, 1 << 30) == ("e4244a711120a6cd9ad6247ced9c8757"
                                "cf341a9a7382878a69dcfd2b96d7c48f")
        assert fingerprint_dictionary(
            ["a.*b"], identity_fold(), True, 500) == (
                "dbd8e5995bcd7ddef7848883fbfc352a"
                "c61dcf1b6162a5fa15cfdb377f3a7bf0")

    def test_compile_uses_the_same_fingerprint(self):
        patterns = [b"virus", "worm", bytearray(b"trojan")]
        assert compile_dictionary(patterns).fingerprint == \
            fingerprint_dictionary(patterns, case_fold_32(), False, 1 << 30)

    def test_length_prefix_prevents_concat_collisions(self):
        fold = case_fold_32()
        assert fingerprint_dictionary([b"ab", b"c"], fold, False, 9) != \
            fingerprint_dictionary([b"a", b"bc"], fold, False, 9)


class TestCompile:
    def test_matches_matcher_semantics(self):
        cd = compile_dictionary([b"hello", b"ell"])
        events = cd.match_events(b"say Hello")
        assert [(e.end, e.pattern) for e in events] == [(8, 1), (9, 0)]

    def test_slices_respect_budget(self):
        # Letter-distinct prefixes: digits collapse onto one fold class,
        # so numeric ids would alias into a single folded pattern.
        pats = [(chr(65 + i % 26) + chr(65 + i // 26) + "PATTERN").encode()
                for i in range(60)]
        cd = compile_dictionary(pats, max_states=120)
        assert cd.num_slices > 1
        assert all(d.num_states <= 120 for d in cd.dfas)
        # Every pattern lands in exactly one slice, ids preserved.
        seen = sorted(i for g in cd.groups for i in g)
        assert seen == list(range(60))

    def test_tables_are_fold_composed(self):
        cd = compile_dictionary([b"abc"])
        (flat, weights), = cd.tables()
        assert flat.size == cd.dfas[0].num_states * 2 * 256
        assert weights.size == cd.dfas[0].num_states * 256 + 1
        (scanner,) = cd.scanners()
        assert scanner.alphabet_size == 256

    def test_empty_dictionary_rejected(self):
        with pytest.raises(CompileError):
            compile_dictionary([])

    def test_empty_pattern_rejected(self):
        with pytest.raises(CompileError):
            compile_dictionary([b"ok", b""])

    def test_oversized_regex_rejected_alone(self):
        with pytest.raises(CompileError, match="alone"):
            compile_dictionary(["A{200}"], regex=True, max_states=50)

    def test_regex_groups_carry_global_ids(self):
        cd = compile_dictionary(["AB+", "CD"], regex=True)
        assert cd.regex
        assert sorted(i for g in cd.groups for i in g) == [0, 1]
        # "ab" (end 2), "abb" (end 3), "cd" (end 6) — one event per
        # recognized entry, exactly the reporting-path semantics.
        assert [(e.end, e.pattern) for e in cd.match_events(b"abb cd")] \
            == [(2, 0), (3, 0), (6, 1)]


class TestArtifactCache:
    PATTERNS = [b"virus", b"worm", b"trojan horse"]

    def test_miss_then_hit(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        before = dict(COUNTERS)
        compile_dictionary(self.PATTERNS, cache=cache)
        assert COUNTERS["cache_misses"] == before["cache_misses"] + 1
        assert COUNTERS["cache_stores"] == before["cache_stores"] + 1
        compile_dictionary(self.PATTERNS, cache=cache)
        assert COUNTERS["cache_hits"] == before["cache_hits"] + 1

    def test_hit_does_zero_dfa_construction(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compile_dictionary(self.PATTERNS, cache=cache)
        builds = _builds()
        cd = compile_dictionary(self.PATTERNS, cache=cache)
        assert _builds() == builds, \
            "cache hit re-ran Aho-Corasick/determinize"
        # ... and the reloaded artifact still scans correctly.
        assert len(cd.match_events(b"a WORM and a virus")) == 2

    def test_roundtrip_equivalence(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        loaded = compile_dictionary(self.PATTERNS, cache=cache)
        assert loaded.fingerprint == built.fingerprint
        assert loaded.groups == built.groups
        assert loaded.partition is not None
        data = b"Trojan Horse, worm, WORMWORM, virus!"
        assert loaded.match_events(data) == built.match_events(data)
        for (fa, wa), (fb, wb) in zip(built.tables(), loaded.tables()):
            assert np.array_equal(fa, fb)
            assert np.array_equal(wa, wb)

    def test_regex_roundtrip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compile_dictionary(["WO?RM", "V.RUS"], regex=True, cache=cache)
        builds = _builds()
        loaded = compile_dictionary(["WO?RM", "V.RUS"], regex=True,
                                    cache=cache)
        assert _builds() == builds
        assert loaded.regex and loaded.partition is None
        assert len(loaded.match_events(b"wrm virus")) == 2

    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        path = cache.path_for(built.fingerprint)
        path.write_bytes(b"not an npz at all")
        before = dict(COUNTERS)
        cd = compile_dictionary(self.PATTERNS, cache=cache)
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1
        assert COUNTERS["cache_hits"] == before["cache_hits"]
        assert len(cd.match_events(b"worm")) == 1

    def test_stale_version_is_a_miss(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        # Rename the valid artifact to the *next* format version's key:
        # the loader must reject it on the stored-version check even
        # though the file itself is well-formed.
        import repro.core.compiled as compiled_mod
        old_path = cache.path_for(built.fingerprint)
        monkeypatch.setattr(compiled_mod, "TABLE_FORMAT_VERSION",
                            TABLE_FORMAT_VERSION + 1)
        old_path.rename(cache.path_for(built.fingerprint))
        before = dict(COUNTERS)
        assert cache.load(built.fingerprint) is None
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1

    def test_wrong_fingerprint_content_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS, cache=cache)
        other = compile_dictionary([b"unrelated"], cache=cache)
        # A file containing B's artifact under A's key must be rejected.
        cache.path_for(other.fingerprint).replace(
            cache.path_for(built.fingerprint))
        assert cache.load(built.fingerprint) is None

    def test_cache_by_directory_path(self, tmp_path):
        compile_dictionary(self.PATTERNS, cache=str(tmp_path))
        builds = _builds()
        compile_dictionary(self.PATTERNS, cache=str(tmp_path))
        assert _builds() == builds

    def test_store_is_atomic_no_tmp_left(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        compile_dictionary(self.PATTERNS, cache=cache)
        assert not list(tmp_path.glob("*.tmp"))

    def test_different_budgets_cache_separately(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        pats = [(chr(65 + i % 26) + chr(65 + i // 26) + "SIGNAT").encode()
                for i in range(40)]
        a = compile_dictionary(pats, max_states=80, cache=cache)
        b = compile_dictionary(pats, max_states=1 << 20, cache=cache)
        assert a.fingerprint != b.fingerprint
        assert a.num_slices > b.num_slices


class TestMatcherCacheIntegration:
    def test_matcher_warm_start_skips_compile(self, tmp_path):
        from repro.core.matcher import CellStringMatcher

        pats = ["alpha", "beta", "gamma"]
        with CellStringMatcher(pats, cache=str(tmp_path)) as m:
            assert m.scan("ALPHA beta").total_matches == 2
        builds = _builds()
        with CellStringMatcher(pats, cache=str(tmp_path)) as m:
            assert _builds() == builds
            assert m.scan("ALPHA beta").total_matches == 2


# -- the codec over both carriers ----------------------------------------------------

DICTIONARIES = {
    "exact-one-slice": dict(patterns=[b"virus", b"worm", b"trojan horse"]),
    "exact-sliced": dict(
        patterns=[(chr(65 + i % 26) + chr(65 + i // 26) + "SIG").encode()
                  for i in range(40)],
        max_states=60),
    "regex": dict(patterns=["WO?RM", "V.RUS", "TRO[JY]AN"], regex=True),
}

CORPUS = b"zzAASIGzz BBSIG ccsig a WORM, a virus, Trojan Horse; wrm trojan " * 40


@contextmanager
def _through_file(compiled, tmp_path):
    """Store the artifact and load it back from the ``.npz``."""
    cache = ArtifactCache(tmp_path)
    cache.store(compiled)
    loaded = cache.load(compiled.fingerprint)
    assert loaded is not None
    yield loaded, None


@contextmanager
def _through_bundle(compiled, tmp_path):
    """Export the arrays to shared memory and decode them from a second
    handle attached to the segment (what a pool worker does)."""
    arrays, scalars = compiled_arrays(compiled)
    with SharedArrayBundle("compiled", arrays.items(), scalars) as owner:
        peer = SharedArrayBundle.attach(owner.meta())
        try:
            yield compiled_from_arrays(peer, peer.scalars), peer
        finally:
            peer.close()


CARRIERS = {"file": _through_file, "bundle": _through_bundle}


def _same_dfa(a, b):
    assert np.array_equal(a.transitions, b.transitions)
    assert np.array_equal(a.final_mask, b.final_mask)
    assert a.start == b.start and a.outputs == b.outputs


class TestCodec:
    @pytest.mark.parametrize("carrier", CARRIERS)
    @pytest.mark.parametrize("name", DICTIONARIES)
    def test_round_trip(self, name, carrier, tmp_path):
        built = compile_dictionary(**DICTIONARIES[name])
        compiled_arrays(built)      # derive the union layout up front
        builds = COUNTERS["automaton_builds"]
        with CARRIERS[carrier](built, tmp_path) as (loaded, _):
            assert (loaded.patterns, loaded.fold, loaded.regex,
                    loaded.max_states, loaded.groups, loaded.fingerprint) \
                == (built.patterns, built.fold, built.regex,
                    built.max_states, built.groups, built.fingerprint)
            assert loaded.num_slices == built.num_slices
            for a, b in zip(loaded.dfas, built.dfas):
                _same_dfa(a, b)
            for field in ("flat", "weights", "cell_base", "starts"):
                assert np.array_equal(getattr(loaded.fused_table(), field),
                                      getattr(built.fused_table(), field))
            backends = ["serial", "chunked", "fused"]
            if not built.regex:
                backends.append("hotcold2")
                _same_dfa(loaded.union_dfa(), built.union_dfa())
                for got, want in zip(loaded.hot_cold_layout(),
                                     built.hot_cold_layout()):
                    assert np.array_equal(got, want)
                assert np.array_equal(loaded.foldpair_table(),
                                      built.foldpair_table())
                assert loaded.partition.groups == built.partition.groups
                assert loaded.partition.patterns == built.partition.patterns
            else:
                assert loaded.partition is None
            want = built.match_events(CORPUS)
            assert want and loaded.match_events(CORPUS) == want
            ctx = ScanContext(loaded)
            for backend in backends:
                out = execute(ctx, ScanRequest(data=CORPUS), backend)
                assert out.total_matches == len(want), backend
            assert COUNTERS["automaton_builds"] == builds

    def test_bundle_decode_aliases_the_segment(self, tmp_path):
        built = compile_dictionary(**DICTIONARIES["exact-sliced"])
        assert built.num_slices > 1
        with _through_bundle(built, tmp_path) as (loaded, peer):
            assert np.shares_memory(loaded.dfas[0].transitions,
                                    peer["trans_0"])
            assert np.shares_memory(loaded.fused_table().flat,
                                    peer["fused_flat"])
            rows = loaded.union_rows()
            assert np.shares_memory(rows.keys, peer["union_csr_keys"])
            assert np.shares_memory(rows.vals, peer["union_csr_vals"])
            del loaded, rows

    def test_file_round_trip_rewrites_the_same_arrays(self, tmp_path):
        # Re-encoding a decoded dictionary reproduces the stored arrays
        # exactly: the format is a fixed point of encode ∘ decode.
        built = compile_dictionary(**DICTIONARIES["exact-sliced"])
        with _through_file(built, tmp_path) as (loaded, _):
            want, want_scalars = compiled_arrays(built)
            got, got_scalars = compiled_arrays(loaded)
        assert got_scalars == want_scalars
        assert list(got) == list(want)
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key]), key

    #: Arrays that disagree with what the encoder writes: a slice map
    #: missing a union state, pattern lengths that overrun the blob, a
    #: transition table of the wrong dtype.
    DEFECTS = {
        "slice-maps-shape": ("hotcold_slice_maps", lambda a: a[:, :-1]),
        "pattern-lens": ("pattern_lens", lambda a: a + 1),
        "trans-dtype": ("trans_0", lambda a: a.astype(np.int64)),
    }

    @pytest.mark.parametrize("defect", DEFECTS)
    @pytest.mark.parametrize("carrier", CARRIERS)
    def test_malformed_arrays_are_refused(self, carrier, defect, tmp_path):
        built = compile_dictionary(**DICTIONARIES["exact-sliced"])
        arrays, scalars = compiled_arrays(built)
        key, spoil = self.DEFECTS[defect]
        arrays[key] = spoil(arrays[key])
        if carrier == "bundle":
            with SharedArrayBundle("compiled", arrays.items(),
                                   scalars) as seg:
                with pytest.raises(ValueError):
                    compiled_from_arrays(seg, seg.scalars)
            return
        cache = ArtifactCache(tmp_path)
        meta = {"magic": "repro-compiled-dictionary",
                "version": TABLE_FORMAT_VERSION, **scalars}
        buf = io.BytesIO()
        np.savez_compressed(buf, meta=np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8), **arrays)
        cache.directory.mkdir(parents=True, exist_ok=True)
        cache.path_for(built.fingerprint).write_bytes(buf.getvalue())
        before = dict(COUNTERS)
        assert cache.load(built.fingerprint) is None
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1


def _write_compressed(cache, compiled, fingerprint=None,
                      version=TABLE_FORMAT_VERSION):
    """Write ``compiled`` the way earlier stores of this format did:
    ``savez_compressed``, under ``fingerprint``'s key."""
    arrays, scalars = compiled_arrays(compiled)
    meta = {"magic": "repro-compiled-dictionary", "version": version,
            **scalars}
    buf = io.BytesIO()
    np.savez_compressed(buf, meta=np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8), **arrays)
    cache.directory.mkdir(parents=True, exist_ok=True)
    path = cache.path_for(fingerprint or compiled.fingerprint)
    path.write_bytes(buf.getvalue())
    return path


class TestArtifactStorage:
    """Stores write uncompressed members; files an earlier store of the
    same format version compressed still load."""

    PATTERNS = [b"virus", b"worm", b"trojan horse"]

    @pytest.mark.parametrize("name", ["exact-one-slice", "exact-sliced"])
    def test_fresh_store_writes_stored_members(self, name, tmp_path):
        import zipfile
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(**DICTIONARIES[name])
        with zipfile.ZipFile(cache.store(built)) as zf:
            infos = zf.infolist()
        assert infos
        assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}

    @pytest.mark.parametrize("name", sorted(DICTIONARIES))
    def test_compressed_file_is_a_hit(self, name, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(**DICTIONARIES[name])
        _write_compressed(cache, built)
        before = dict(COUNTERS)
        loaded = cache.load(built.fingerprint)
        assert loaded is not None
        assert COUNTERS["cache_hits"] == before["cache_hits"] + 1
        assert COUNTERS["automaton_builds"] == before["automaton_builds"]
        want, want_scalars = compiled_arrays(built)
        got, got_scalars = compiled_arrays(loaded)
        assert got_scalars == want_scalars
        assert sorted(got) == sorted(want)
        for key in want:
            assert got[key].dtype == want[key].dtype, key
            assert np.array_equal(got[key], want[key]), key

    def test_compressed_corrupt_file_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS)
        path = _write_compressed(cache, built)
        path.write_bytes(path.read_bytes()[:-64])
        before = dict(COUNTERS)
        assert cache.load(built.fingerprint) is None
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1

    def test_compressed_stale_version_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS)
        _write_compressed(cache, built, version=TABLE_FORMAT_VERSION - 1)
        before = dict(COUNTERS)
        assert cache.load(built.fingerprint) is None
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1

    def test_compressed_mismatched_fingerprint_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        built = compile_dictionary(self.PATTERNS)
        other = compile_dictionary([b"unrelated"])
        _write_compressed(cache, other, fingerprint=built.fingerprint)
        before = dict(COUNTERS)
        assert cache.load(built.fingerprint) is None
        assert COUNTERS["cache_rejects"] == before["cache_rejects"] + 1

"""Differential fuzz over the staged scan pipeline.

Every registered kernel and every pipeline shape (bare, screened,
fallen-through) must be *bit-identical* — counts AND exit states — on
seeded randomized corpora across slice counts D ∈ {1, 2, 4, 8},
including adversarial high-match-density inputs where the packed
prefilter must fall through rather than slow the scan down.  Also locks
the planner-validation contract: contradictory ScanRequest flag combos
raise a BackendError naming the conflict.
"""

import random

import numpy as np
import pytest

from repro.core.backends import (BackendError, ScanContext, ScanRequest,
                                 execute)
from repro.core.compiled import compile_dictionary
from repro.core.scan.kernels import get_kernel, kernel_names
from repro.core.scan.prefilter import count_segments

# Every pattern is >= 3 bytes, so the dictionaries stay screenable and
# the trigram prefilter is exercised on every case.
WORDS = [b"virus", b"worm", b"trojan", b"attack", b"backdoor",
         b"exploit", b"rootkit", b"malware", b"phish", b"botnet",
         b"abab", b"ABABAB", b"BABA", b"tac"]

SLICE_TARGETS = (1, 2, 4, 8)

#: Block backends whose pipelines are compared with and without the
#: screening stage.
BLOCK_BACKENDS = ["serial", "chunked", "fused", "hotcold2"]

_COMPILED = {}


def compiled_with_slices(target):
    if target not in _COMPILED:
        found = None
        if target == 1:
            found = compile_dictionary(WORDS)
        else:
            for max_states in range(120, 4, -1):
                try:
                    c = compile_dictionary(WORDS, max_states=max_states)
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
    """Random bytes biased toward planted dictionary words and
    fold-boundary bytes (0x40-0x5F alias letters under the 32-symbol
    fold), so matches straddle speculation chunk edges often."""
    pool = [bytes([rng.randrange(0, 256)]) for _ in range(6)]
    pool += [bytes([rng.randrange(0x40, 0x60)]) for _ in range(4)]
    pool += WORDS[:6] + [b" ", b"\x00", b"aba", b"ruswor"]
    out = b"".join(rng.choice(pool) for _ in range(length // 3 + 1))
    return out[:length]


class TestKernelFuzz:
    """~200 seeded cases: every kernel's per-slice counts, exit states
    and whole-dictionary totals equal the flat reference, and the
    prefiltered count over candidate windows equals the bare total."""

    LENGTHS = [0, 1, 2, 3, 17, 256, 1024, 4096, 8192]

    @pytest.mark.parametrize("slices", SLICE_TARGETS)
    def test_kernels_and_prefilter_bit_identical(self, slices):
        compiled = compiled_with_slices(slices)
        kernels = {name: get_kernel(name).from_compiled(compiled)
                   for name in kernel_names()
                   if get_kernel(name).supports(compiled)}
        assert set(kernels) == {"flat", "fused", "hotcold2"}
        pf = compiled.prefilter()
        assert pf is not None, "dictionary must stay screenable"
        rng = random.Random(1000 + slices)
        for case in range(50):
            data = _corpus(rng, rng.choice(self.LENGTHS))
            arr = np.frombuffer(data, dtype=np.uint8)
            want_counts, want_exits = \
                kernels["flat"].count_arr_per_dfa(arr, 64)
            total = int(want_counts.sum())
            for name, kern in kernels.items():
                counts, exits = kern.count_arr_per_dfa(arr, 64)
                assert np.array_equal(counts, want_counts), \
                    f"{name} counts diverged (D={slices}, case {case})"
                assert np.array_equal(exits, want_exits), \
                    f"{name} exit states diverged " \
                    f"(D={slices}, case {case})"
                assert kern.count_total(arr, 64) == total
            res = pf.screen(arr)
            if not res.fall_through:
                for name, kern in kernels.items():
                    got = count_segments(kern, arr, res.segments)
                    assert got == total, \
                        f"prefiltered {name} diverged " \
                        f"(D={slices}, case {case})"


class TestPipelineFuzz:
    """The assembled pipelines — with and without the screening stage —
    agree with each other and across every block backend."""

    @pytest.mark.parametrize("slices", (2, 4))
    def test_screened_pipelines_match_bare(self, slices):
        compiled = compiled_with_slices(slices)
        rng = random.Random(77 + slices)
        with ScanContext(compiled) as ctx:
            for case in range(10):
                data = _corpus(rng, rng.randrange(0, 6000))
                want = None
                for backend in BLOCK_BACKENDS:
                    bare = execute(
                        ctx, ScanRequest(data=data, prefilter=False),
                        backend=backend)
                    screened = execute(
                        ctx, ScanRequest(data=data, prefilter=True),
                        backend=backend)
                    assert "prefilter" in screened.stats
                    assert "prefilter" not in bare.stats
                    if want is None:
                        want = bare.total_matches
                    assert bare.total_matches == want, \
                        f"bare {backend} diverged (case {case})"
                    assert screened.total_matches == want, \
                        f"screened {backend} diverged (case {case})"

    def test_serial_events_identical_under_prefilter(self):
        compiled = compiled_with_slices(2)
        data = (b"xx virus yy worm zz" + b"\x01" * 200) * 20
        with ScanContext(compiled) as ctx:
            bare = execute(ctx, ScanRequest(data=data, with_events=True,
                                            prefilter=False),
                           backend="serial")
            screened = execute(ctx,
                               ScanRequest(data=data, with_events=True,
                                           prefilter=True),
                               backend="serial")
            assert bare.total_matches > 0
            assert [(e.end, e.pattern) for e in screened.events] == \
                [(e.end, e.pattern) for e in bare.events]
            assert screened.pattern_counts == bare.pattern_counts
            assert screened.stats["prefilter"]["segments"] >= 1

    def test_high_match_density_falls_through(self):
        compiled = compiled_with_slices(4)
        data = b"virus" * 4000
        with ScanContext(compiled) as ctx:
            bare = execute(ctx, ScanRequest(data=data, prefilter=False),
                           backend="hotcold2")
            screened = execute(ctx,
                               ScanRequest(data=data, prefilter=True),
                               backend="hotcold2")
            assert screened.total_matches == bare.total_matches
            assert screened.stats["prefilter"]["fall_through"] is True
            assert screened.backend == "hotcold2"

    def test_clean_corpus_short_circuits(self):
        compiled = compiled_with_slices(2)
        data = b"\x00\x01\x02\x03\x04\x05\x06\x07" * 25_000
        with ScanContext(compiled) as ctx:
            out = execute(ctx, ScanRequest(data=data, prefilter=True),
                          backend="hotcold2")
            assert out.total_matches == 0
            assert out.stats["prefilter"]["segments"] == 0
            assert out.stats["prefilter"]["fall_through"] is False


class TestPolicyPathDifferential:
    """A rule-free tenant is a pass-through: scan counts AND DFA exit
    states through the policy path are bit-identical to the direct
    backend path.  The verdict engine must be attribution over the same
    scan, never a second scan or a semantic fork."""

    @pytest.mark.parametrize("max_states", [1 << 30, 40])
    def test_rule_free_tenant_flow_path_bit_identical(self, max_states):
        from repro.policy import Tenant
        from repro.service.sessions import SessionScanner

        tenant = Tenant("diff", WORDS, max_states=max_states,
                        max_flows=64)
        try:
            with tenant.registry.lease() as gen:
                reference = SessionScanner(gen.compiled, max_flows=64)
            rng = random.Random(900 + max_states % 97)
            flows = [f"f{i}" for i in range(6)]
            for case in range(60):
                fid = rng.choice(flows)
                payload = _corpus(rng, rng.randrange(0, 300))
                verdict, _, _ = tenant.scan_packet(fid, payload)
                new, total, _ = reference.scan_packet(fid, payload)
                assert verdict.new_matches == new, \
                    f"counts diverged (case {case})"
                assert verdict.flow_total == total, \
                    f"lifetime totals diverged (case {case})"
                assert verdict.action == "forward"
                assert verdict.rule is None
            # Exit states: every flow resumes from the same per-slice
            # DFA state on both paths.
            with tenant.registry.lease() as gen:
                for fid in flows:
                    got = [m.peek_state(fid)
                           for m in gen.sessions._matchers]
                    want = [m.peek_state(fid)
                            for m in reference._matchers]
                    assert got == want, f"exit states diverged for {fid}"
        finally:
            tenant.close()

    def test_rule_free_tenant_scan_path_bit_identical(self):
        from repro.policy import Tenant

        tenant = Tenant("diff-scan", WORDS)
        try:
            rng = random.Random(41)
            with tenant.registry.lease() as gen:
                with ScanContext(gen.compiled) as direct:
                    for case in range(10):
                        data = _corpus(rng, rng.randrange(0, 4000))
                        for backend in ("serial", "fused"):
                            mine, _ = tenant.scan(
                                ScanRequest(data=data), backend=backend)
                            ref = execute(direct,
                                          ScanRequest(data=data),
                                          backend=backend)
                            assert mine.total_matches == \
                                ref.total_matches, \
                                f"{backend} diverged (case {case})"
                            assert mine.bytes_scanned == \
                                ref.bytes_scanned
        finally:
            tenant.close()


class TestScreenStrips:
    """The screen works in strips of ``SCREEN_STRIP`` samples; matches
    that straddle a strip boundary, on blocks that are no multiple of
    the strip, must land in a candidate window on both sampling paths
    (odd stride: three folds per sample; even stride: the pair table)."""

    @pytest.mark.parametrize("minlen", [5, 6], ids=["odd", "even"])
    def test_matches_across_strip_boundaries(self, minlen, monkeypatch):
        from repro.core.scan import prefilter as pf_mod

        words = [w for w in WORDS if len(w) >= minlen]
        words.append(b"qzxjv"[:minlen].ljust(minlen, b"k"))
        compiled = compile_dictionary(words)
        pf = compiled.prefilter()
        assert pf.stride == minlen - 2
        span = pf_mod.SCREEN_STRIP * pf.stride
        rng = random.Random(minlen)
        buf = bytearray(rng.randrange(0x30, 0x3A)
                        for _ in range(3 * span + 1237))
        # One word across each strip boundary, starting 1, 2 and
        # minlen - 1 bytes before it, plus one ending the block.
        planted = [(k * span - shift, words[k])
                   for k, shift in ((1, 1), (2, 2), (3, minlen - 1))]
        planted.append((len(buf) - len(words[0]), words[0]))
        for pos, word in planted:
            buf[pos:pos + len(word)] = word
        arr = np.frombuffer(bytes(buf), dtype=np.uint8)
        kern = get_kernel("hotcold2").from_compiled(compiled)
        total = kern.count_total(arr)
        assert total >= len(planted)
        res = pf.screen(arr)
        assert not res.fall_through
        assert count_segments(kern, arr, res.segments) == total
        # One strip over the whole block gives the same windows.
        monkeypatch.setattr(pf_mod, "SCREEN_STRIP", 1 << 40)
        whole = pf.screen(arr)
        assert np.array_equal(whole.segments, res.segments)
        assert (whole.positions, whole.hits) == (res.positions, res.hits)


class TestConflictValidation:
    """Contradictory requests (flag combos, or a backend the request or
    dictionary cannot use) raise a BackendError naming the conflict."""

    def test_union_flags_conflict_with_events(self):
        with ScanContext(compiled_with_slices(1)) as ctx:
            with pytest.raises(BackendError, match="match events"):
                execute(ctx, ScanRequest(data=b"x", with_events=True),
                        backend="hotcold2")

    def test_union_flags_need_exact_dictionary(self):
        regex = compile_dictionary(["vi.us"], regex=True)
        with ScanContext(regex) as ctx:
            with pytest.raises(BackendError, match="union automaton"):
                execute(ctx, ScanRequest(data=b"x"), backend="hotcold2")

    def test_prefilter_conflicts_with_stream_input(self):
        with ScanContext(compiled_with_slices(1)) as ctx:
            with pytest.raises(BackendError, match="in-memory block"):
                execute(ctx, ScanRequest(chunks=[b"x"], prefilter=True))

    def test_prefilter_needs_screenable_dictionary(self):
        short = compile_dictionary([b"ab"])
        with ScanContext(short) as ctx:
            with pytest.raises(BackendError, match="screenable"):
                execute(ctx, ScanRequest(data=b"x", prefilter=True))

"""The trigram mask build and the planner's screenability predicate.

``PackedPrefilter.build`` codes every trigram of the concatenated
pattern blob in one pass and drops the ones that cross a pattern
boundary; the mask must equal the per-pattern loop it replaced, bit for
bit.  ``CompiledDictionary.screenable`` answers the planner's question
without building that mask, so a request too small to be screened
leaves the prefilter unbuilt.
"""

import random

import numpy as np
import pytest

from repro.core.backends import ScanContext, ScanRequest, _plan, execute
from repro.core.compiled import compile_dictionary
from repro.core.planner import SERIAL_BYTE_CEILING
from repro.core.scan.prefilter import MIN_PATTERN_LEN, PackedPrefilter
from repro.dfa.alphabet import FoldMap, case_fold_32, identity_fold
from repro.workloads.dictionary import ascii_keywords


def reference_mask(patterns, fold_table, width):
    """The per-pattern loop the one-pass build replaced."""
    fold = np.ascontiguousarray(fold_table, dtype=np.int64)
    w = int(width)
    mask = np.zeros(w ** 3, dtype=np.uint8)
    for p in patterns:
        sym = fold[np.frombuffer(p, dtype=np.uint8)]
        codes = (sym[:-2] * w + sym[1:-1]) * w + sym[2:]
        mask[codes] = 1
    return mask


def random_fold(seed, width):
    rng = random.Random(seed)
    return FoldMap(tuple(rng.randrange(width) for _ in range(256)), width)


def random_patterns(seed, count, lo, hi):
    rng = random.Random(seed)
    return [bytes(rng.randrange(256) for _ in range(rng.randint(lo, hi)))
            for _ in range(count)]


CASES = {
    "sig2k": (lambda: ascii_keywords(2000, 1), case_fold_32),
    "min-length": (lambda: random_patterns(3, 300, MIN_PATTERN_LEN,
                                           MIN_PATTERN_LEN),
                   case_fold_32),
    "min-length-one": (lambda: [b"abc"], case_fold_32),
    "identity": (lambda: random_patterns(5, 200, 3, 12),
                 lambda: identity_fold(64)),
    "random-fold": (lambda: random_patterns(7, 500, 3, 20),
                    lambda: random_fold(11, 48)),
    "kw40k": (lambda: ascii_keywords(40000, 4), case_fold_32),
}


class TestMaskBuild:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_mask_equals_per_pattern_loop(self, case):
        make_patterns, make_fold = CASES[case]
        patterns, fold = make_patterns(), make_fold()
        pf = PackedPrefilter.build(patterns, fold.np_table, fold.width)
        assert pf is not None
        want = reference_mask(patterns, fold.np_table, fold.width)
        assert pf.mask.dtype == want.dtype
        assert np.array_equal(pf.mask, want)
        lens = [len(p) for p in patterns]
        assert (pf.minlen, pf.maxlen) == (min(lens), max(lens))

    def test_boundary_trigrams_are_not_marked(self):
        # "abc" + "cab" joined holds "bcc" and "cca"; neither is in any
        # pattern, so neither may reach the mask.
        fold = identity_fold(100)
        pf = PackedPrefilter.build([b"abc", b"cab"], fold.np_table, 100)
        codes = {(a * 100 + b) * 100 + c
                 for a, b, c in (b"abc", b"cab")}
        assert set(np.flatnonzero(pf.mask).tolist()) == codes


class TestScreenable:
    """``screenable`` equals ``prefilter() is not None``."""

    @staticmethod
    def _agree(compiled):
        want = compiled.screenable
        if not compiled.regex:
            fold = compiled.fold
            built = PackedPrefilter.build(compiled.patterns, fold.np_table,
                                          fold.width)
            assert want == (built is not None)
        return want == (compiled.prefilter() is not None)

    def test_exact_dictionary(self):
        compiled = compile_dictionary([b"virus", b"worm"])
        assert compiled.screenable
        assert self._agree(compiled)

    def test_regex_dictionary(self):
        compiled = compile_dictionary(["vi.us", "worm"], regex=True)
        assert not compiled.screenable
        assert self._agree(compiled)

    def test_two_byte_pattern(self):
        compiled = compile_dictionary([b"virus", b"ab"])
        assert not compiled.screenable
        assert self._agree(compiled)

    def test_mask_over_the_ceiling(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREFILTER_MASK_CEILING",
                           str(32 ** 3 - 1))
        compiled = compile_dictionary([b"virus", b"worm"])
        assert not compiled.screenable
        assert self._agree(compiled)


class TestPlannerLeavesMaskUnbuilt:
    def test_small_request_builds_no_prefilter(self):
        compiled = compile_dictionary([b"virus", b"worm", b"trojan"])
        with ScanContext(compiled) as ctx:
            for n in (0, 700, SERIAL_BYTE_CEILING):
                request = ScanRequest(data=b"a virus " * (n // 8))
                assert not _plan(ctx, request, None).prefilter
                execute(ctx, request)
            assert not compiled._prefilter_built

    def test_large_request_still_screens_with_equal_counts(self):
        compiled = compile_dictionary([b"virus", b"worm", b"trojan"])
        rng = random.Random(2)
        buf = bytearray(rng.randrange(0x30, 0x3A)
                        for _ in range(SERIAL_BYTE_CEILING + 4096))
        for pos in range(0, len(buf) - 8, 100_003):
            buf[pos:pos + 5] = b"virus"
        data = bytes(buf)
        with ScanContext(compiled) as ctx:
            request = ScanRequest(data=data)
            assert _plan(ctx, request, None).prefilter
            screened = execute(ctx, request)
            assert "prefilter" in screened.stats
            assert compiled._prefilter_built
            bare = execute(ctx, ScanRequest(data=data, prefilter=False))
        assert "prefilter" not in bare.stats
        assert screened.total_matches == bare.total_matches > 0

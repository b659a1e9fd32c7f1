"""The execute phase: backend registry, execution planner, and the
cross-backend differential suite (every registered backend must be
bit-identical to the naive baseline)."""

import random

import pytest

from repro.baselines.naive import NaiveMatcher
from repro.core.backends import (BackendError, ScanContext, ScanRequest,
                                 backend_names, backend_specs, execute,
                                 get_backend)
from repro.core.compiled import compile_dictionary
from repro.core.planner import SERIAL_BYTE_CEILING, plan_backend
from repro.dfa.alphabet import case_fold_32


HOST_BACKENDS = ["serial", "chunked", "fused", "pooled", "streaming"]


@pytest.fixture(scope="module")
def ctx():
    compiled = compile_dictionary([b"attack", b"tac", b"ck no"])
    with ScanContext(compiled) as c:
        yield c


class TestRegistry:
    def test_all_five_backends_registered(self):
        names = backend_names()
        for name in HOST_BACKENDS + ["cellsim"]:
            assert name in names

    def test_unknown_backend_errors(self):
        with pytest.raises(BackendError, match="unknown backend"):
            get_backend("gpu")

    def test_specs_carry_paper_sections(self):
        specs = dict((n, s) for n, s, _ in backend_specs())
        assert "§4" in specs["chunked"]
        assert "Figure 5" in specs["streaming"]

    def test_events_on_non_reporting_backend_rejected(self, ctx):
        with pytest.raises(BackendError, match="events"):
            execute(ctx, ScanRequest(data=b"attack", with_events=True),
                    backend="chunked")

    def test_block_backend_rejects_streams(self, ctx):
        with pytest.raises(BackendError, match="accepts"):
            execute(ctx, ScanRequest(chunks=[b"ab"]), backend="serial")

    def test_request_needs_exactly_one_input(self):
        with pytest.raises(BackendError):
            ScanRequest()
        with pytest.raises(BackendError):
            ScanRequest(data=b"x", chunks=[b"y"])


class TestPlanner:
    def test_events_force_serial(self):
        assert plan_backend(nbytes=1 << 30, workers=8,
                            with_events=True).backend == "serial"

    def test_streams_force_streaming(self):
        assert plan_backend(streaming=True, workers=4).backend == \
            "streaming"

    def test_workers_pick_pooled(self):
        assert plan_backend(nbytes=100, workers=2).backend == "pooled"

    def test_size_splits_serial_vs_chunked(self):
        assert plan_backend(nbytes=1000).backend == "serial"
        assert plan_backend(
            nbytes=SERIAL_BYTE_CEILING + 1).backend == "chunked"

    def test_plan_explains_itself(self):
        plan = plan_backend(streaming=True)
        assert plan.backend in plan.describe()


class TestOutcomeShape:
    def test_outcome_fields(self, ctx):
        out = execute(ctx, ScanRequest(data=b"an attack"),
                      backend="serial")
        assert out.total_matches == 2
        assert out.bytes_scanned == 9
        assert out.backend == "serial"
        assert out.pattern_counts == {0: 1, 1: 1}
        assert out.seconds > 0 and out.gbps > 0

    def test_events_only_when_asked(self, ctx):
        assert execute(ctx, ScanRequest(data=b"attack"),
                       backend="serial").events is None
        out = execute(ctx, ScanRequest(data=b"attack", with_events=True),
                      backend="serial")
        # "tac" ends inside "attack" at 5; "attack" itself at 6.
        assert [(e.end, e.pattern) for e in out.events] == [(5, 1), (6, 0)]

    def test_cellsim_attaches_cycle_model(self, ctx):
        out = execute(ctx, ScanRequest(data=b"attack" * 100),
                      backend="cellsim")
        assert out.total_matches == 200
        assert out.stats["cycles_per_transition"] == 5.01
        assert out.stats["modelled_seconds"] > 0
        assert out.stats["modelled_gbps"] == pytest.approx(5.11, abs=0.01)

    def test_streaming_reports_bytes_from_ring(self, ctx):
        out = execute(ctx, ScanRequest(chunks=iter([b"att", b"ack"])),
                      backend="streaming")
        # "attack" spans the chunk boundary; "tac" hides inside it.
        assert out.total_matches == 2
        assert out.bytes_scanned == 6


class TestDriverContract:
    """What ``execute`` promises on each path: a bare outcome carries
    its backend's own stats keys, and a screened block is verified with
    the very kernel the backend runs on a whole block."""

    #: Stats keys of each backend's bare outcome.
    BARE_KEYS = {
        "serial": {"slices"},
        "chunked": {"slices", "chunks"},
        "fused": {"slices", "chunks", "fused_cells"},
        "hotcold2": {"slices", "chunks", "union_states", "hot2_states",
                     "hot2_bytes", "table_bytes", "hot_hit_rate",
                     "cold_steps", "escapes"},
        "pooled": {"buffers", "bytes", "kernel", "repaired_shards",
                   "tasks"},
        "streaming": {"buffers", "bytes", "kernel", "repaired_shards",
                      "tasks"},
        "cellsim": {"slices", "chunks", "kernel_version",
                    "cycles_per_transition", "transitions",
                    "modelled_seconds", "modelled_gbps", "spes_used"},
    }
    #: The modelled-Cell fields ``cellsim`` attaches.
    MODEL_KEYS = BARE_KEYS["cellsim"] - BARE_KEYS["chunked"]
    #: A sparse block: the screen keeps a few windows, never falls
    #: through.
    DATA = (b"xx virus yy worm zz" + b"\x01" * 2000) * 20

    @pytest.fixture(scope="class")
    def screen_ctx(self):
        compiled = compile_dictionary(
            [b"virus", b"worm", b"trojan", b"attack", b"backdoor",
             b"exploit"], max_states=30)
        assert compiled.num_slices > 1
        with ScanContext(compiled) as c:
            yield c

    def test_bare_stats_keys(self, screen_ctx):
        assert set(backend_names()) == set(self.BARE_KEYS)
        for name, keys in self.BARE_KEYS.items():
            out = execute(screen_ctx,
                          ScanRequest(data=self.DATA, prefilter=False),
                          backend=name)
            assert set(out.stats) == keys, name

    @pytest.mark.parametrize("name,kernel", [
        ("chunked", "flat"), ("cellsim", "flat"), ("fused", "fused"),
        ("hotcold2", "hotcold2"), ("pooled", None)])
    def test_screened_block_verifies_with_backend_kernel(
            self, screen_ctx, name, kernel):
        out = execute(screen_ctx,
                      ScanRequest(data=self.DATA, prefilter=True),
                      backend=name)
        assert out.stats["prefilter"]["fall_through"] is False
        assert out.stats["prefilter"]["segments"] >= 1
        assert out.stats["kernel"] == \
            (kernel or screen_ctx.batch_kernel_name())
        assert out.backend == name
        assert out.total_matches == 40

    def test_screened_cellsim_keeps_the_cell_model(self, screen_ctx):
        bare = execute(screen_ctx,
                       ScanRequest(data=self.DATA, prefilter=False),
                       backend="cellsim")
        screened = execute(screen_ctx,
                           ScanRequest(data=self.DATA, prefilter=True),
                           backend="cellsim")
        assert screened.stats["prefilter"]["fall_through"] is False
        assert screened.total_matches == bare.total_matches == 40
        assert {k: screened.stats.get(k) for k in self.MODEL_KEYS} == \
            {k: bare.stats[k] for k in self.MODEL_KEYS}


def _random_corpus(rng, length):
    """Corpora biased toward fold-boundary bytes (0x40-0x5F, where the
    32-symbol case fold aliases '@'..'_' onto letters) and pattern
    fragments, so speculative entries land mid-pattern often."""
    pool = [bytes([rng.randrange(0x40, 0x60)]) for _ in range(8)]
    pool += [b"aba", b"bab", b"AbAb", b" ", b"\x00", b"\xff"]
    out = b"".join(rng.choice(pool) for _ in range(length // 3 + 1))
    return out[:length]


class TestDifferential:
    """Every registered block backend == naive baseline, bit-exact."""

    DICTIONARIES = [
        [b"abab"],                          # self-overlapping
        [b"ABABAB", b"BABA"],               # long self-overlap, nested
        [b"@[", b"`{"],                     # 0x40/0x5B vs 0x60/0x7B alias
        [b"attack", b"tac", b"a"],          # substring-of-substring
    ]

    @pytest.mark.parametrize("patterns", DICTIONARIES,
                             ids=lambda p: b"_".join(p).decode("latin-1"))
    def test_backends_match_naive(self, patterns):
        fold = case_fold_32()
        compiled = compile_dictionary(patterns, fold=fold)
        naive = NaiveMatcher([fold.fold_bytes(p) for p in patterns])
        rng = random.Random(hash(tuple(patterns)) & 0xFFFF)
        with ScanContext(compiled) as ctx:
            for length in (0, 1, 7, 1024, 5000):
                data = _random_corpus(rng, length)
                expected = naive.count(fold.fold_bytes(data))
                assert len(compiled.match_events(data)) == expected
                for name in backend_names():
                    backend = get_backend(name)
                    if "block" not in backend.kinds:
                        continue
                    out = execute(ctx, ScanRequest(data=data),
                                  backend=name)
                    assert out.total_matches == expected, \
                        f"{name} diverged on {patterns} len={length}"

    def test_random_dictionaries_random_corpora(self):
        fold = case_fold_32()
        rng = random.Random(1234)
        alphabet = b"abAB@_` "
        for trial in range(6):
            patterns = []
            for _ in range(rng.randrange(1, 5)):
                n = rng.randrange(1, 7)
                patterns.append(bytes(rng.choice(alphabet)
                                      for _ in range(n)))
            compiled = compile_dictionary(patterns, fold=fold)
            naive = NaiveMatcher(
                [fold.fold_bytes(p) for p in patterns])
            data = _random_corpus(rng, rng.randrange(0, 4000))
            expected = naive.count(fold.fold_bytes(data))
            with ScanContext(compiled) as ctx:
                for name in HOST_BACKENDS:
                    req = ScanRequest(data=data) \
                        if "block" in get_backend(name).kinds \
                        else ScanRequest(chunks=[data])
                    out = execute(ctx, req, backend=name)
                    assert out.total_matches == expected, \
                        f"trial {trial}: {name} diverged on {patterns}"

    def test_pooled_workers_match(self):
        compiled = compile_dictionary([b"abab", b"BA"])
        naive_events = len(compiled.match_events(b"aBAbab" * 300))
        with ScanContext(compiled) as ctx:
            out = execute(ctx, ScanRequest(data=b"aBAbab" * 300,
                                           workers=2), backend="pooled")
            assert out.total_matches == naive_events
            assert out.workers == 2

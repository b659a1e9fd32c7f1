"""Engine comparison: the vectorized DFA engine vs the classic baselines.

Not a paper table — this is the library's own value proposition: measure
MB/s of the numpy lockstep engine against Aho–Corasick (pure Python),
Wu–Manber, Boyer–Moore and the Bloom scanner on the same planted workload,
plus the adversarial robustness gap (§1's argument, quantified).

The lockstep engine appears twice: the current flag-encoded flat-table
loop (states as pre-scaled row offsets, final flag in pointer bit 0,
strip-mined time loop) and a faithful re-implementation of the seed's
inner loop (2-D fancy gather + separate final-state gather per step), so
the win of the paper's §4 pointer trick on the host is measured, not
asserted.
"""

import time

import numpy as np
import pytest

from repro.analysis import ascii_table
from repro.baselines import (
    BloomMatcher,
    BoyerMooreMatcher,
    CommentzWalterMatcher,
    KMPMatcher,
    WuManberMatcher,
)
from repro.core.scan import VectorDFAEngine
from repro.dfa import AhoCorasick, build_dfa
from repro.workloads import adversarial_payload, plant_matches, \
    random_payload, random_signatures

PATTERNS = random_signatures(25, 4, 10, seed=50)
BLOCK = plant_matches(random_payload(400_000, seed=51), PATTERNS, 200,
                      seed=52)


class SeedLockstepEngine:
    """The seed revision's inner loop, kept verbatim for comparison.

    Per input position: one 2-D fancy-index gather (which hides a
    ``state × alphabet`` multiply), one final-mask gather, one add — and
    a per-pass ``np.vstack`` regroup in the chunked fixpoint.
    """

    def __init__(self, dfa):
        self.dfa = dfa
        self.table = np.ascontiguousarray(dfa.transitions, dtype=np.int32)
        self.final = np.ascontiguousarray(dfa.final_mask)
        self.start = dfa.start

    def _scan(self, data, start_states=None):
        n, length = data.shape
        states = np.full(n, self.start, dtype=np.int32) \
            if start_states is None else start_states.astype(np.int32)
        counts = np.zeros(n, dtype=np.int64)
        table, final = self.table, self.final
        cols = np.ascontiguousarray(data.T)
        for t in range(length):
            states = table[states, cols[t]]
            counts += final[states]
        return counts, states

    def count_block(self, block, chunks=64, max_passes=64):
        n = len(block)
        if n == 0:
            return 0
        arr = np.frombuffer(block, dtype=np.uint8)
        chunks = min(chunks, n)
        bounds = np.linspace(0, n, chunks + 1).astype(np.int64)
        pieces = [arr[bounds[i]:bounds[i + 1]] for i in range(chunks)]
        entry = np.full(chunks, self.start, dtype=np.int32)
        exit_states = np.empty(chunks, dtype=np.int32)
        counts = np.zeros(chunks, dtype=np.int64)
        todo = list(range(chunks))
        for _ in range(max_passes):
            by_len = {}
            for ci in todo:
                by_len.setdefault(len(pieces[ci]), []).append(ci)
            for length, group in by_len.items():
                if length == 0:
                    for ci in group:
                        exit_states[ci] = entry[ci]
                        counts[ci] = 0
                    continue
                data = np.vstack([pieces[ci] for ci in group])
                got, fin = self._scan(data, entry[np.asarray(group)])
                for j, ci in enumerate(group):
                    counts[ci] = got[j]
                    exit_states[ci] = fin[j]
            todo = []
            for ci in range(1, chunks):
                if exit_states[ci - 1] != entry[ci]:
                    entry[ci] = exit_states[ci - 1]
                    todo.append(ci)
            if not todo:
                break
        return int(counts.sum())


def mb_per_s(fn, data):
    t0 = time.perf_counter()
    fn(data)
    dt = time.perf_counter() - t0
    return len(data) / dt / 1e6


def test_engine_comparison_report(report, report_json):
    dfa = build_dfa(PATTERNS, 32)
    engine = VectorDFAEngine(dfa)
    seed = SeedLockstepEngine(dfa)
    ac = AhoCorasick(PATTERNS, 32)
    small = BLOCK[:60_000]  # pure-Python matchers get a smaller slice
    entries = [
        ("flat-table DFA", lambda d: engine.count_block(d), BLOCK),
        # chunks=64 is a speculation-granularity request, not a lane
        # count: the engine's lane floor widens it so dispatch overhead
        # per gather stays amortized (this row used to lose 40% to
        # 64-lane dispatch economics).
        ("flat-table DFA x64", lambda d: engine.count_block(
            d, chunks=64), BLOCK),
        ("seed lockstep DFA", lambda d: seed.count_block(d), BLOCK),
        ("Aho-Corasick (py)", lambda d: ac.count(d), small),
        ("Wu-Manber", WuManberMatcher(PATTERNS).count, small),
        ("Boyer-Moore", BoyerMooreMatcher(PATTERNS).count, small),
        ("Commentz-Walter", CommentzWalterMatcher(PATTERNS).count, small),
        ("Bloom scanner", BloomMatcher(PATTERNS).count, small),
        ("KMP", KMPMatcher(PATTERNS).count, small),
    ]
    rows = []
    rates = {}
    for name, fn, data in entries:
        rate = round(mb_per_s(fn, data), 2)
        rates[name] = rate
        rows.append([name, len(data) // 1000, rate])
    text = ascii_table(["engine", "input KB", "MB/s"], rows,
                       title="Engine throughput on planted traffic "
                             "(25 signatures)")
    report("engines", text)
    report_json("engines", {
        "workload": {"block_bytes": len(BLOCK), "patterns": len(PATTERNS),
                     "alphabet": 32},
        "mb_per_s": rates,
        "flat_vs_seed_speedup": round(
            rates["flat-table DFA"] / rates["seed lockstep DFA"], 2),
    })


def test_flat_table_loop_beats_seed_loop():
    """The §4 pointer trick on the host: ≥ 2× over the seed inner loop
    (both at their defaults), with identical counts."""
    dfa = build_dfa(PATTERNS, 32)
    engine = VectorDFAEngine(dfa)
    seed = SeedLockstepEngine(dfa)
    assert engine.count_block(BLOCK) == seed.count_block(BLOCK)
    flat_rate = min(mb_per_s(engine.count_block, BLOCK) for _ in range(3))
    seed_rate = max(mb_per_s(seed.count_block, BLOCK) for _ in range(3))
    assert flat_rate >= 2.0 * seed_rate, \
        f"flat loop {flat_rate:.2f} MB/s vs seed {seed_rate:.2f} MB/s"


def test_vector_engine_is_fastest_python_path():
    dfa = build_dfa(PATTERNS, 32)
    engine = VectorDFAEngine(dfa)
    ac = AhoCorasick(PATTERNS, 32)
    small = BLOCK[:60_000]
    v = mb_per_s(lambda d: engine.count_block(d), BLOCK)
    a = mb_per_s(lambda d: ac.count(d), small)
    assert v > a


def test_all_engines_agree_on_the_block():
    small = BLOCK[:60_000]
    expected = len(AhoCorasick(PATTERNS, 32).find_all(small))
    for matcher in (WuManberMatcher(PATTERNS), BloomMatcher(PATTERNS),
                    BoyerMooreMatcher(PATTERNS)):
        assert matcher.count(small) == expected


def test_adversarial_gap_quantified(report):
    """DFA cost flat; skip-based matchers degrade on hostile input."""
    target = min(PATTERNS, key=len)
    wm = WuManberMatcher([target])
    n = 300_000
    friendly = bytes([0]) * n
    hostile = adversarial_payload(target, n, mismatch_at_end=False)
    w_f = wm.scan_work(friendly)
    w_h = wm.scan_work(hostile)
    dfa = build_dfa([target], 32)
    engine = VectorDFAEngine(dfa)
    t_f = mb_per_s(lambda d: engine.count_block(d), friendly)
    t_h = mb_per_s(lambda d: engine.count_block(d), hostile)
    text = ascii_table(
        ["engine", "friendly", "hostile", "degradation"],
        [["Wu-Manber (inspections)", w_f, w_h, round(w_h / w_f, 2)],
         ["DFA engine (MB/s)", round(t_f, 1), round(t_h, 1),
          round(t_f / t_h, 2)]],
        title="Adversarial input sensitivity (paper §1 argument)")
    report("adversarial_gap", text)
    assert w_h > w_f                 # heuristics degrade
    assert t_f / t_h < 1.5           # DFA stays (nearly) flat


def test_benchmark_vector_engine(benchmark):
    engine = VectorDFAEngine(build_dfa(PATTERNS, 32))

    def scan():
        return engine.count_block(BLOCK)

    count = benchmark.pedantic(scan, rounds=3, iterations=1)
    assert count >= 200

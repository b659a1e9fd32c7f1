"""Lane-dimension fusion microbench: one fused pass vs D per-DFA passes.

The dictionary is held at a fixed total size while ``max_states``
partitions it into D ∈ {1, 2, 4, 8} slices; the per-DFA baseline scans
the block once per slice (D passes, D × input traffic) and the fused
path advances all D slices in a single strip-mined pass over a
D × chunks lane grid.  The union kernel ``hotcold2`` then scans the
same block through its pair-symbol hot table (one gather per *two*
bytes at any D — the production whole-dictionary counting path).
Counts are asserted bit-identical, throughput plus cache-footprint
columns (table bytes, pair-hot set size, hot-hit rate) land in
``BENCH_fused.json``, and the acceptance bars are the D=4 fused
speedup, the union kernel's no-per-D-collapse floor and its D=4
speedup over the fused grid.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1``       — small block: the CI smoke run.
* ``REPRO_BENCH_BLOCK_MB``      — block size in MB (default 8).
* ``REPRO_BENCH_FUSED_MIN``     — D=4 speedup floor (default 1.5,
  waived in smoke mode where timing noise dominates).
* ``REPRO_BENCH_HOTCOLD_FLOOR`` — ``hotcold2`` MB/s at every D must
  stay above this fraction of its D=1 value (default 0.7 — "flat or
  rising", with timing-noise headroom; waived in smoke mode).
* ``REPRO_BENCH_HOTCOLD2_MIN`` — ``hotcold2`` speedup over the fused
  grid at D=4 (default 1.4; waived in smoke mode).
* ``REPRO_BENCH_PREFILTER_MIN`` — packed-prefilter pipeline speedup
  over the bare hotcold2 scan on the low-match-density corpus
  (default 2.0; waived in smoke mode).
* ``REPRO_BENCH_PREFILTER_HIGH_FLOOR`` — screened MB/s as a fraction
  of bare on the high-density corpus, where the prefilter must fall
  through and cost at most one cheap vector pass (default 0.7;
  waived in smoke mode).

The prefilter sweep also supersedes the retired ``bench_future_bloom``
as the filter-stage source of truth: the §7 Bloom direction and the
packed trigram screen are the same filter-then-verify architecture,
and this file reports the one that shipped (the Bloom tile's model
keeps its unit coverage in ``tests/core/test_bloom_tile.py``).
"""

import os
import time

import numpy as np

from repro.analysis import ascii_table
from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import compile_dictionary
from repro.core.scan import HOTCOLD_LANES_TARGET, count_arr
from repro.dfa.alphabet import identity_fold
from repro.workloads import plant_matches, random_payload, \
    random_signatures

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
BLOCK_MB = float(os.environ.get("REPRO_BENCH_BLOCK_MB",
                                "1" if SMOKE else "8"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_FUSED_MIN",
                                   "0" if SMOKE else "1.5"))
HOTCOLD_FLOOR = float(os.environ.get("REPRO_BENCH_HOTCOLD_FLOOR",
                                     "0" if SMOKE else "0.7"))
HOTCOLD2_MIN = float(os.environ.get("REPRO_BENCH_HOTCOLD2_MIN",
                                    "0" if SMOKE else "1.4"))
PREFILTER_MIN = float(os.environ.get("REPRO_BENCH_PREFILTER_MIN",
                                     "0" if SMOKE else "2.0"))
PREFILTER_HIGH_FLOOR = float(
    os.environ.get("REPRO_BENCH_PREFILTER_HIGH_FLOOR",
                   "0" if SMOKE else "0.7"))
CHUNKS = 256
REPEATS = 2 if SMOKE else 3

PATTERNS = random_signatures(32, 4, 10, seed=77)
SLICE_TARGETS = (1, 2, 4, 8)

#: Prefilter dictionary: realistic signature lengths (12-16 bytes, the
#: Snort-content ballpark), which buys the q-gram screen a long
#: sampling stride.
PF_PATTERNS = random_signatures(32, 12, 16, seed=117)


def _compile_for(target: int):
    """Same dictionary, partitioned into exactly ``target`` slices by
    searching the ``max_states`` budget (monotone non-increasing)."""
    fold = identity_fold(32)
    if target == 1:
        return compile_dictionary(PATTERNS, fold=fold)
    for max_states in range(160, 4, -1):
        try:
            compiled = compile_dictionary(PATTERNS, fold=fold,
                                          max_states=max_states)
        except Exception:
            continue
        if compiled.num_slices == target:
            return compiled
    return None


def _best(fn, *args):
    best = float("inf")
    result = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_fused_vs_per_dfa_sweep(report, report_json):
    nbytes = int(BLOCK_MB * 1e6)
    block = bytes(plant_matches(random_payload(nbytes, seed=78),
                                PATTERNS, max(1, nbytes // 2000),
                                seed=79))
    arr = np.frombuffer(block, dtype=np.uint8)

    rows = []
    results = {}
    for target in SLICE_TARGETS:
        compiled = _compile_for(target)
        if compiled is None:
            print(f"[bench fused] no max_states budget yields "
                  f"{target} slices — row dropped")
            continue
        fused = compiled.fused_scanner()
        hot_cold2 = compiled.hot_cold2_scanner()
        scanners = compiled.scanners()

        def per_dfa_pass():
            return np.asarray([count_arr(s, arr, CHUNKS, s.start)[0]
                               for s in scanners], dtype=np.int64)

        def fused_pass():
            return fused.count_arr_per_dfa(arr, CHUNKS)[0]

        def hotcold2_pass():
            # The production whole-dictionary counting path: one union
            # accumulator, two input bytes per gather over the
            # pair-symbol hot table at any D.
            return count_arr(hot_cold2, arr, CHUNKS, hot_cold2.start,
                             weights=hot_cold2.weights,
                             lanes_target=HOTCOLD_LANES_TARGET)[0]

        per_dfa_pass()                       # warm all three paths
        fused_pass()
        hotcold2_pass()
        serial_s, serial_counts = _best(per_dfa_pass)
        fused_s, fused_counts = _best(fused_pass)
        hot_cold2.reset_stats()
        hotcold2_s, hotcold2_total = _best(hotcold2_pass)
        assert np.array_equal(fused_counts, serial_counts), \
            f"fused diverged at D={target}"
        weighted_ref = fused.count_arr_per_dfa(arr, CHUNKS,
                                               weights=fused.weights)[0]
        assert int(hotcold2_total) == int(weighted_ref.sum()), \
            f"two-byte stride diverged at D={target}: " \
            f"{hotcold2_total} != {int(weighted_ref.sum())}"

        table2 = compiled.hot_cold2_table()
        speedup = serial_s / fused_s if fused_s else float("inf")
        results[target] = {
            "slices": target,
            "total_states": compiled.total_states,
            "matches": int(fused_counts.sum()),
            "per_dfa_seconds": round(serial_s, 5),
            "fused_seconds": round(fused_s, 5),
            "per_dfa_mb_per_s": round(nbytes / serial_s / 1e6, 2),
            "fused_mb_per_s": round(nbytes / fused_s / 1e6, 2),
            "hotcold2_seconds": round(hotcold2_s, 5),
            "hotcold2_mb_per_s": round(nbytes / hotcold2_s / 1e6, 2),
            "hotcold2_vs_fused": round(fused_s / hotcold2_s
                                       if hotcold2_s else float("inf"),
                                       3),
            "speedup": round(speedup, 3),
            "union_states": table2.num_states,
            "table_bytes": table2.table_bytes,
            "fused_table_bytes": compiled.fused_table_bytes,
            "hot2_states": table2.num_hot2,
            "hot2_bytes": table2.hot2_bytes,
            "hot2_hit_rate": round(hot_cold2.hot_hit_rate, 6),
        }
        rows.append([target, compiled.total_states,
                     f"{nbytes / serial_s / 1e6:.0f}",
                     f"{nbytes / fused_s / 1e6:.0f}",
                     f"{nbytes / hotcold2_s / 1e6:.0f}",
                     f"{table2.table_bytes // 1024}K",
                     f"{table2.hot2_bytes // 1024}K",
                     f"{table2.num_hot2}/{table2.num_states}",
                     f"{hot_cold2.hot_hit_rate:.4f}",
                     f"{speedup:.2f}x",
                     f"{fused_s / hotcold2_s:.2f}x"])

    text = ascii_table(
        ["slices", "states", "per-DFA MB/s", "fused MB/s",
         "2B MB/s", "2B table", "hot2", "hot2 set", "hot2 hit",
         "speedup", "2B vs fused"],
        rows,
        title=f"Lane-dimension fusion, {BLOCK_MB:.0f} MB block, "
              f"{len(PATTERNS)} patterns, chunks={CHUNKS}")
    report("fused", text)
    report_json("fused", {
        "block_bytes": nbytes,
        "patterns": len(PATTERNS),
        "chunks": CHUNKS,
        "host_cores": os.cpu_count(),
        "smoke": SMOKE,
        "per_slices": results,
    })

    # Fusion must not lose ground at D=1 (passthrough) and must beat
    # the D-pass baseline clearly by D=4 — the acceptance bar.
    assert 4 in results, "D=4 row missing from the sweep"
    if MIN_SPEEDUP > 0:
        assert results[4]["speedup"] >= MIN_SPEEDUP, \
            f"fused {results[4]['speedup']}x at D=4, " \
            f"needs >= {MIN_SPEEDUP}x"
    # The union kernel must not collapse with the partition count —
    # its table is one union automaton whatever D is, so the D-sweep
    # curve must stay flat (floor = fraction of the D=1 rate, absorbing
    # timing noise).
    if HOTCOLD_FLOOR > 0 and 1 in results:
        base = results[1]["hotcold2_mb_per_s"]
        for target, row in results.items():
            assert row["hotcold2_mb_per_s"] >= HOTCOLD_FLOOR * base, \
                f"hotcold2 collapsed at D={target}: " \
                f"{row['hotcold2_mb_per_s']} MB/s vs {base} at D=1"
    # The union kernel must earn its place next to the fused grid: one
    # pair gather for every slice has to beat D gathers per byte on the
    # production D=4 shape.
    if HOTCOLD2_MIN > 0:
        assert results[4]["hotcold2_vs_fused"] >= HOTCOLD2_MIN, \
            f"hotcold2 {results[4]['hotcold2_vs_fused']}x over " \
            f"fused at D=4, needs >= {HOTCOLD2_MIN}x"


def _compile_pf(target: int):
    """PF_PATTERNS partitioned into ``target`` slices (same search as
    :func:`_compile_for`, different dictionary)."""
    fold = identity_fold(32)
    if target == 1:
        return compile_dictionary(PF_PATTERNS, fold=fold)
    for max_states in range(500, 4, -1):
        try:
            compiled = compile_dictionary(PF_PATTERNS, fold=fold,
                                          max_states=max_states)
        except Exception:
            continue
        if compiled.num_slices == target:
            return compiled
    return None


def _pf_corpora(nbytes: int):
    """Three match-density regimes for the screening stage:

    * ``low``  — full-byte random traffic (most bytes fold outside the
      signature alphabet) with rare planted signatures: the NIDS
      steady state the prefilter is built for.
    * ``mid``  — random traffic *inside* the folded signature alphabet
      with frequent plants: every byte could start a match, the mask
      fires often, screening must still not lose.
    * ``high`` — back-to-back signatures: the adversarial saturation
      corpus where the prefilter must fall through.
    """
    low = plant_matches(random_payload(nbytes, alphabet_size=256,
                                       seed=118),
                        PF_PATTERNS, max(1, nbytes // 500_000), seed=119)
    mid = plant_matches(random_payload(nbytes, seed=120),
                        PF_PATTERNS, nbytes // 2000, seed=121)
    tile = b"".join(PF_PATTERNS)
    high = (tile * (nbytes // len(tile) + 1))[:nbytes]
    return [("low", bytes(low)), ("mid", bytes(mid)), ("high", high)]


def test_prefilter_density_sweep(report, report_json):
    """The staged pipeline's screening stage vs the bare hotcold2 scan
    across match densities, through the real ``execute`` path."""
    nbytes = int(BLOCK_MB * 1e6)
    compiled = _compile_pf(4)
    assert compiled is not None, "no max_states budget yields 4 slices"
    pf = compiled.prefilter()
    assert pf is not None, "PF_PATTERNS must stay screenable"

    rows = []
    results = {}
    with ScanContext(compiled) as ctx:
        for density, block in _pf_corpora(nbytes):
            def bare_pass(block=block):
                return execute(ctx, ScanRequest(data=block,
                                                prefilter=False),
                               backend="hotcold2")

            def screened_pass(block=block):
                return execute(ctx, ScanRequest(data=block,
                                                prefilter=True),
                               backend="hotcold2")

            bare_pass()                      # warm both pipelines
            screened_pass()
            bare_s, bare = _best(bare_pass)
            screened_s, screened = _best(screened_pass)
            assert screened.total_matches == bare.total_matches, \
                f"prefilter diverged on the {density} corpus"
            pstats = screened.stats["prefilter"]
            speedup = bare_s / screened_s if screened_s else float("inf")
            results[density] = {
                "matches": bare.total_matches,
                "bare_seconds": round(bare_s, 5),
                "screened_seconds": round(screened_s, 5),
                "bare_mb_per_s": round(nbytes / bare_s / 1e6, 2),
                "screened_mb_per_s": round(nbytes / screened_s / 1e6, 2),
                "speedup": round(speedup, 3),
                "candidate_fraction": round(pstats["candidate_fraction"],
                                            4),
                "segments": pstats["segments"],
                "fall_through": pstats["fall_through"],
            }
            rows.append([density, bare.total_matches,
                         f"{nbytes / bare_s / 1e6:.0f}",
                         f"{nbytes / screened_s / 1e6:.0f}",
                         f"{pstats['candidate_fraction']:.3f}",
                         pstats["segments"],
                         "yes" if pstats["fall_through"] else "no",
                         f"{speedup:.2f}x"])

    text = ascii_table(
        ["density", "matches", "bare MB/s", "screened MB/s",
         "candidate frac", "segments", "fell through", "speedup"],
        rows,
        title=f"Packed prefilter stage vs bare hotcold2, "
              f"{BLOCK_MB:.0f} MB block, {len(PF_PATTERNS)} patterns "
              f"(len {pf.minlen}-{pf.maxlen}, stride {pf.stride}, "
              f"mask {pf.mask_bytes // 1024} KB)")
    report("prefilter", text)
    report_json("fused", {"prefilter": {
        "block_bytes": nbytes,
        "backend": "hotcold2",
        "patterns": len(PF_PATTERNS),
        "minlen": pf.minlen,
        "maxlen": pf.maxlen,
        "stride": pf.stride,
        "mask_bytes": pf.mask_bytes,
        "smoke": SMOKE,
        "per_density": results,
    }}, merge=True)

    # The headline bar: screening must at least double throughput on
    # the clean-traffic corpus it exists for...
    assert results["low"]["fall_through"] is False
    if PREFILTER_MIN > 0:
        assert results["low"]["speedup"] >= PREFILTER_MIN, \
            f"prefilter {results['low']['speedup']}x on the low-density " \
            f"corpus, needs >= {PREFILTER_MIN}x"
    # ...and the saturation corpus must fall through with bounded
    # overhead — one cheap vector pass, never a slower scan.
    assert results["high"]["fall_through"] is True
    if PREFILTER_HIGH_FLOOR > 0:
        floor = PREFILTER_HIGH_FLOOR * results["high"]["bare_mb_per_s"]
        assert results["high"]["screened_mb_per_s"] >= floor, \
            f"fall-through overhead too high: " \
            f"{results['high']['screened_mb_per_s']} MB/s screened vs " \
            f"{results['high']['bare_mb_per_s']} bare"

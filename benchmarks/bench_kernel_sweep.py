"""Kernel sweep: every shared-pass candidate on every dictionary shape.

One row per dictionary shape × kernel × block size × pipeline shape,
through the real ``execute`` path with the backend named explicitly:

* dictionaries — ``kw200`` (200 keywords), ``sig2k`` (2,000 keywords,
  the e2e benchmark's dictionary) unpartitioned and at D=4, ``kw8k``
  (8,000) and ``kw40k`` (40,000 keywords, past the int16 rank limit of
  the pair table) unpartitioned and at D=5;
* kernels — ``chunked`` (one flat pass per slice), ``fused`` (stacked
  grid) and ``hotcold2`` (the union kernel);
* blocks of 1 and 4 MiB shaped like the e2e ``bulk`` traffic: all 256
  byte values, one planted dictionary entry per 64 KiB;
* ``bare`` (prefilter off) and ``screened`` (prefilter on).

Every row's count is asserted equal to the bare ``chunked`` count of
the same block, so the sweep is a differential test as well as a
throughput table.  Results land in ``results/kernel_sweep.txt`` and
``results/BENCH_kernel_sweep.json``; nothing is gated on speed (the
committed rows are a record, read together with the host noise).

Environment knobs:

* ``REPRO_BENCH_SMOKE=1`` — the three small dictionaries at 1 MiB,
  one repeat.
"""

import gc
import os
import time

import numpy as np

from repro.analysis import ascii_table
from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import compile_dictionary
from repro.workloads import ascii_keywords

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 1 if SMOKE else 3
SIZES_MB = (1,) if SMOKE else (1, 4)
KERNELS = ("chunked", "fused", "hotcold2")

#: ``(name, keywords, seed, max_states)``; ``max_states`` partitions
#: the dictionary (sig2k at 1,500 gives D=4, kw40k at 16,000 D=5).
DICTIONARIES = [
    ("kw200", 200, 1, 1 << 30),
    ("sig2k", 2000, 1, 1 << 30),
    ("sig2k", 2000, 1, 1500),
    ("kw8k", 8000, 1, 1 << 30),
    ("kw40k", 40_000, 4, 1 << 30),
    ("kw40k", 40_000, 4, 16_000),
]
if SMOKE:
    DICTIONARIES = DICTIONARIES[:3]


def _block(patterns, nbytes: int, seed: int) -> bytes:
    """Bulk-shaped traffic: uniform bytes, one plant per 64 KiB."""
    rng = np.random.default_rng(seed)
    buf = rng.integers(0, 256, nbytes, dtype=np.uint8)
    for _ in range(max(1, nbytes >> 16)):
        p = patterns[int(rng.integers(0, len(patterns)))]
        pos = int(rng.integers(0, nbytes - len(p)))
        buf[pos:pos + len(p)] = np.frombuffer(p, dtype=np.uint8)
    return buf.tobytes()


def _best(ctx, block: bytes, kernel: str, screened: bool):
    request = ScanRequest(data=block, prefilter=screened)
    execute(ctx, request, backend=kernel)          # warm tables
    best, out = float("inf"), None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = execute(ctx, request, backend=kernel)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_kernel_sweep(report, report_json):
    rows, results = [], []
    for name, count, seed, max_states in DICTIONARIES:
        patterns = ascii_keywords(count, seed)
        compiled = compile_dictionary(patterns, max_states=max_states)
        label = f"{name} D={compiled.num_slices}"
        with ScanContext(compiled) as ctx:
            for mb in SIZES_MB:
                block = _block(patterns, mb << 20, seed=mb)
                want = None
                for kernel in KERNELS:
                    for screened in (False, True):
                        secs, out = _best(ctx, block, kernel, screened)
                        if want is None:
                            want = out.total_matches
                        assert out.total_matches == want, \
                            f"{label} {kernel} " \
                            f"{'screened' if screened else 'bare'} " \
                            f"{mb} MiB: {out.total_matches} != {want}"
                        mib_s = len(block) / secs / (1 << 20)
                        shape = "screened" if screened else "bare"
                        results.append({
                            "dictionary": name,
                            "slices": compiled.num_slices,
                            "states": compiled.total_states,
                            "kernel": kernel,
                            "block_mib": mb,
                            "pipeline": shape,
                            "matches": out.total_matches,
                            "mib_per_s": round(mib_s, 2),
                        })
                        rows.append([label, compiled.total_states, kernel,
                                     mb, shape, out.total_matches,
                                     f"{mib_s:.0f}"])
        del ctx, compiled
        gc.collect()

    text = ascii_table(
        ["dictionary", "states", "kernel", "MiB", "pipeline", "matches",
         "MiB/s"],
        rows,
        title=f"Kernel sweep, bulk-shaped blocks, best of {REPEATS} "
              f"(counts equal across every row of a block)")
    report("kernel_sweep", text)
    report_json("kernel_sweep", {
        "host_cores": os.cpu_count(),
        "repeats": REPEATS,
        "smoke": SMOKE,
        "rows": results,
    })

"""Inline walks: the event-loop stall a packet-sized data op can cause.

The in-process daemon runs a FLOW, a CLOSE_FLOW or a planner-chosen
serial SCAN on its event loop when the walk fits
``planner.INLINE_WALK_STEPS`` (``planner.runs_inline``): the scalar
walk holds the GIL, so the scan-thread hop it skips buys no
parallelism.  While such an op runs, every connection waits, so the
budget is set by this row: the worst time one inline op takes.

The walk costs one step per payload byte per dictionary slice, so the
budget counts ``bytes × slices``.  This bench times ``DataPlane.flow``
and ``DataPlane.scan`` — the exact bodies the loop runs — on three
dictionaries of rising depth (sig2k unpartitioned, sig2k at
``max_states=1500``, kw40k at ``max_states=12000``), with payloads
sized to ½×, 1× and 2× the step budget.  Each figure is the best of
``REPEATS`` on one thread with no other load; each FLOW opens a fresh
flow (closed untimed afterwards), so every reply's count is checked
against ``CompiledDictionary.match_events`` of its payload alone.  The
rows also confirm that the rule sends the ½× and 1× ops inline and the
2× ops to the pool.

There is no timing gate: a CI host's noise would make one flaky.  The
recorded ``worst_inline_us`` is the constant's basis; on the 2-vCPU
host this budget was sized on, it stays near 0.5 ms.

Emits ``BENCH_inline.json`` and ``results/inline.txt``.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1`` — fewer repeats: the CI smoke run.
"""

import os
import time

import numpy as np

from repro.core.compiled import compile_dictionary
from repro.core.planner import INLINE_WALK_STEPS, runs_inline
from repro.service import ServiceConfig
from repro.service.worker import Replica
from repro.workloads.dictionary import ascii_keywords

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 3 if SMOKE else 7
#: ``(name, keywords, seed, max_states)``: D=1, D=4 and D=7.
DICTIONARIES = [
    ("sig2k", 2000, 1, 1 << 30),
    ("sig2k", 2000, 1, 1500),
    ("kw40k", 40_000, 4, 12_000),
]
#: Payload walk steps as multiples of the budget.
FACTORS = (0.5, 1.0, 2.0)
#: One planted keyword per this many payload bytes.
PLANT_EVERY = 512


def _payload(rng, patterns, size):
    buf = bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    for pos in rng.integers(0, max(1, size - 16), max(1, size // PLANT_EVERY)):
        word = patterns[int(rng.integers(len(patterns)))]
        buf[pos:pos + len(word)] = word
    return bytes(buf[:size])


def _best(op, payload, fresh_meta, cleanup=None):
    """Best-of-``REPEATS`` seconds of ``op`` and its last reply."""
    best, reply = float("inf"), None
    for i in range(REPEATS):
        meta = fresh_meta(i)
        t0 = time.perf_counter()
        reply = op(meta, payload)
        best = min(best, time.perf_counter() - t0)
        if cleanup is not None:
            cleanup(meta, b"")
    return best, reply


def _rows(label, compiled, patterns, rng):
    slices = compiled.num_slices
    t0 = time.perf_counter()
    compiled.walks()
    build_ms = (time.perf_counter() - t0) * 1e3
    replica = Replica(ServiceConfig(), compiled, 1)
    data = replica.data
    rows = []
    try:
        for factor in FACTORS:
            nbytes = int(factor * INLINE_WALK_STEPS) // slices
            payload = _payload(rng, patterns, nbytes)
            want = len(compiled.match_events(payload))
            timings = {
                "flow": _best(data.flow, payload,
                              lambda i: {"flow": f"{factor}:{i}"},
                              data.close_flow),
                "scan": _best(data.scan, payload, lambda i: {}),
            }
            for kind, (seconds, reply) in timings.items():
                assert reply["matches"] == want, \
                    f"{label} {kind} {nbytes} B: {reply['matches']} " \
                    f"matches, reference {want}"
                inline = runs_inline(nbytes, slices, forced=False,
                                     with_events=False)
                assert inline == (factor <= 1.0), \
                    f"{label} {kind} at {factor}x budget: inline={inline}"
                steps = nbytes * slices
                rows.append({
                    "dictionary": label, "slices": slices,
                    "op": kind, "budget_factor": factor,
                    "bytes": nbytes, "steps": steps,
                    "us": seconds * 1e6,
                    "ns_per_step": seconds * 1e9 / steps,
                    "inline": inline, "matches": want,
                })
    finally:
        replica.close()
    return rows, build_ms


def test_inline_report(report, report_json):
    rng = np.random.default_rng(11)
    rows, walk_rows_ms = [], {}
    for name, count, seed, max_states in DICTIONARIES:
        patterns = ascii_keywords(count, seed)
        compiled = compile_dictionary(patterns, max_states=max_states)
        label = f"{name}/D{compiled.num_slices}"
        found, walk_rows_ms[label] = _rows(label, compiled, patterns, rng)
        rows += found

    inline = [r for r in rows if r["inline"]]
    worst = max(inline, key=lambda r: r["us"])
    at_budget = {}
    for r in rows:
        if r["budget_factor"] == 1.0:
            at_budget[r["dictionary"]] = max(
                at_budget.get(r["dictionary"], 0.0), r["us"])

    lines = [
        f"Inline walk stall: DataPlane ops at a budget of "
        f"{INLINE_WALK_STEPS:,} walk steps (bytes x slices), "
        f"{os.cpu_count()} host core(s), best of {REPEATS}",
        f"  {'dictionary':<11} {'op':<5} {'x':>4} {'bytes':>7} "
        f"{'steps':>7} {'us':>9} {'ns/step':>8}  where",
    ]
    for r in rows:
        lines.append(
            f"  {r['dictionary']:<11} {r['op']:<5} "
            f"{r['budget_factor']:>4} {r['bytes']:>7} {r['steps']:>7} "
            f"{r['us']:>9.1f} {r['ns_per_step']:>8.1f}  "
            f"{'loop' if r['inline'] else 'pool'}")
    lines.append(
        f"Worst inline op: {worst['us']:.1f} us ({worst['dictionary']} "
        f"{worst['op']}, {worst['steps']:,} steps, "
        f"{worst['ns_per_step']:.1f} ns/step)")
    lines.append("Walk-row build per install (control thread): " + ", ".join(
        f"{label} {ms:.1f} ms" for label, ms in walk_rows_ms.items()))
    report("inline", "\n".join(lines))
    report_json("inline", {
        "host_cores": os.cpu_count(),
        "repeats": REPEATS,
        "inline_walk_steps": INLINE_WALK_STEPS,
        "rows": rows,
        "worst_inline_us": worst["us"],
        "worst_inline_ns_per_step": worst["ns_per_step"],
        "worst_inline_op": {k: worst[k] for k in
                            ("dictionary", "op", "bytes", "steps")},
        "at_budget_us": at_budget,
        "walk_rows_build_ms": walk_rows_ms,
    })

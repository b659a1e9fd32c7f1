"""Warm RELOAD, step by step: what a dictionary swap costs a replica.

The paper's dynamic STT replacement (§5, Figures 8–9) pays off only if
the resident slice keeps filtering while the next one loads, so a swap
must be cheap.  This bench warm-RELOADs ``sig2k``
(``ascii_keywords(2000, 1)``, the e2e benchmark's dictionary) through
one :class:`~repro.service.worker.Replica` from a warm artifact cache,
and times each step the serving process runs:

* ``pattern_decode``   — the RELOAD payload to a pattern list;
* ``fingerprint``      — the patterns' content address (the bytes
  conversion included);
* ``artifact_read``    — ``ArtifactCache.read``: the ``.npz`` members
  into memory, magic/version/fingerprint checked;
* ``decode``           — ``compiled_from_arrays``: the dictionary
  object, with zero automaton builds;
* ``install``          — ``Replica.install``: the new generation
  promoted, flow sessions carried;
* ``first_small_scan`` — the new generation's first 700 B SCAN (it
  builds what a packet scan needs, the slice walk rows);
* ``first_bulk_scan``  — its first 4 MiB SCAN (it builds what a
  screened block scan needs: the trigram mask and the union tables).

Each repeat takes one ``perf_counter`` mark between steps, so the parts
sum to that repeat's whole exactly; the reported repeat is the one with
the smallest reload-plus-first-small-scan total (best of N).  Counts
are checked against a bare scan of the same payloads.  Everything runs
on one thread with no other load, so wall time is the replica's CPU
time for the swap; ``cpu_ms`` reports ``thread_time`` beside it.

Emits ``BENCH_reload.json`` and ``results/reload.txt``.

Environment knobs:

* ``REPRO_BENCH_SMOKE=1`` — fewer repeats: the CI smoke run.
"""

import os
import tempfile
import time

import numpy as np

from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import (COUNTERS, ArtifactCache, _as_bytes,
                                 _fingerprint, compile_dictionary,
                                 compiled_from_arrays)
from repro.service import ServiceConfig
from repro.service.protocol import decode_patterns, encode_patterns
from repro.service.worker import Replica
from repro.workloads.dictionary import ascii_keywords

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 5 if SMOKE else 15
SMALL_BYTES = 700
BULK_BYTES = 4 << 20
STEPS = ("pattern_decode", "fingerprint", "artifact_read", "decode",
         "install", "first_small_scan", "first_bulk_scan")
#: The steps a RELOAD and the packet SCAN after it cost the replica.
RELOAD_STEPS = STEPS[:-1]


def _payload(rng, patterns, size, plants):
    buf = bytearray(rng.integers(0, 256, size, dtype=np.uint8).tobytes())
    for pos in rng.integers(0, size - 16, plants):
        word = patterns[int(rng.integers(len(patterns)))]
        buf[pos:pos + len(word)] = word
    return bytes(buf)


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _repeat(replica, cache, wire, fold, max_states, generation,
            small, bulk):
    """One warm reload plus its first two scans; returns the step
    seconds, the CPU seconds of the reload-plus-small-scan part and
    the two match counts."""
    marks = [time.perf_counter()]
    cpu0 = time.thread_time()
    patterns = decode_patterns(wire)
    marks.append(time.perf_counter())
    raw = _as_bytes(patterns)           # as compile_dictionary does
    fingerprint = _fingerprint(raw, fold, False, max_states)
    marks.append(time.perf_counter())
    stored = cache.read(fingerprint)
    marks.append(time.perf_counter())
    compiled = compiled_from_arrays(*stored)
    marks.append(time.perf_counter())
    replica.install("", compiled, generation)
    marks.append(time.perf_counter())
    small_reply = replica.data.scan({}, small)
    marks.append(time.perf_counter())
    cpu = time.thread_time() - cpu0
    bulk_reply = replica.data.scan({}, bulk)
    marks.append(time.perf_counter())
    steps = {name: b - a
             for name, a, b in zip(STEPS, marks, marks[1:])}
    assert small_reply["generation"] == bulk_reply["generation"] \
        == generation
    return steps, cpu, small_reply["matches"], bulk_reply["matches"]


def test_reload_report(report, report_json):
    patterns = ascii_keywords(2000, 1)
    wire = encode_patterns(patterns)
    rng = np.random.default_rng(7)
    small = _payload(rng, patterns, SMALL_BYTES, 1)
    bulk = _payload(rng, patterns, BULK_BYTES, 64)

    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        first = compile_dictionary(patterns, cache=cache)
        store_s = min(_timed(lambda: cache.store(first))
                      for _ in range(REPEATS))
        artifact_bytes = cache.path_for(first.fingerprint).stat().st_size
        with ScanContext(first) as ctx:
            want_small = execute(ctx, ScanRequest(data=small)).total_matches
            want_bulk = execute(ctx, ScanRequest(
                data=bulk, prefilter=False)).total_matches

        replica = Replica(ServiceConfig(), first, 1)
        builds = COUNTERS["automaton_builds"]
        runs = []
        try:
            for i in range(REPEATS):
                steps, cpu, got_small, got_bulk = _repeat(
                    replica, cache, wire, first.fold, first.max_states,
                    i + 2, small, bulk)
                assert (got_small, got_bulk) == (want_small, want_bulk)
                runs.append((sum(steps[k] for k in RELOAD_STEPS),
                             steps, cpu))
        finally:
            replica.close()
        assert COUNTERS["automaton_builds"] == builds, \
            "a warm reload ran the automaton build"

    reload_s, steps, cpu_s = min(runs, key=lambda run: run[0])
    total_s = sum(steps.values())
    ms = {name: sec * 1e3 for name, sec in steps.items()}
    rows = [f"  {name:<17} {ms[name]:8.3f} ms" for name in STEPS]
    text = "\n".join([
        f"Warm RELOAD of sig2k ({first.num_patterns} patterns, "
        f"{first.total_states} states) through one Replica, "
        f"{os.cpu_count()} host core(s), best of {REPEATS}",
        *rows,
        f"  {'-' * 30}",
        f"  reload + first {SMALL_BYTES} B SCAN : {reload_s * 1e3:8.3f} ms "
        f"(CPU {cpu_s * 1e3:.3f} ms)",
        f"  whole, with the 4 MiB SCAN  : {total_s * 1e3:8.3f} ms",
        "",
        f"Cold store: {store_s * 1e3:.3f} ms, artifact "
        f"{artifact_bytes:,} bytes; matches {want_small} (700 B), "
        f"{want_bulk} (4 MiB)",
    ])
    report("reload", text)
    report_json("reload", {
        "host_cores": os.cpu_count(),
        "repeats": REPEATS,
        "patterns": first.num_patterns,
        "states": first.total_states,
        "steps_ms": ms,
        "reload_and_small_scan_ms": reload_s * 1e3,
        "reload_and_small_scan_cpu_ms": cpu_s * 1e3,
        "total_ms": total_s * 1e3,
        "store_ms": store_s * 1e3,
        "artifact_bytes": artifact_bytes,
        "matches": {"small": want_small, "bulk": want_bulk},
    })


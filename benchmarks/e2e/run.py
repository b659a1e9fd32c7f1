"""End-to-end benchmark of the scan service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload packets --seed 1 \\
        --seconds 24 --trace 0

Each run launches ``repro serve`` as a subprocess and drives it from
this one process over ``repro.service.ServiceClient``, one closed-loop
connection per thread.  It warms up, then measures ``--seconds`` split
into five equal trials, checks sampled replies against in-process
references, and prints every metric by name and unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace 1`` its per-layer metrics.  The
full result, with per-trial values, goes to ``--out`` (default
``.e2e/<workload>-seed<N>[-trace].json``); a traced run also writes its
spans to ``.e2e/<workload>-seed<N>.trace.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from harness import (PROBE, TWIN, WARMUP, BenchError, Connection,  # noqa: E402
                     Daemon, Record, client_cpus, nearest_rank,
                     own_cpu_seconds, run_phase, tree_cpu_seconds,
                     tree_peak_rss_mb)
from tracing import traced_replay  # noqa: E402
from workloads import PROBE_CONN, WORKLOADS, Workload  # noqa: E402

TRIALS = 5
WARMUP_SECONDS = 2.0
SETUP_LAUNCHES = 5
#: Above this share of one core the client, not the daemon, is measured.
LOADGEN_CPU_CEILING = 0.5
#: The layer table must account for the replayed request within this.
LAYER_SUM_TOLERANCE = 0.02
OUT_DIR = ROOT / ".e2e"


def bench_units() -> Dict[str, Dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from
    ``BENCHMARK.json`` -- the one list of metric names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


@dataclass
class Live:
    """One measured daemon: its records and what was read from it."""

    records: List[Record]
    walls: List[float]
    stats: Dict
    rss_mb: float
    daemon_cpu: float
    client_cpu: float
    pooled: bool
    probe: List[Record] = field(default_factory=list)


def _data(records: Sequence[Record], phases) -> List[Record]:
    return [r for r in records if not r.op.control and r.phase in phases]


def _mean_outside_us(records: Sequence[Record]) -> float:
    ok = [r for r in records if not r.error]
    return statistics.fmean(r.latency - r.seconds for r in ok) * 1e6


def cold_launch(wl: Workload, work: Path, i: int) -> float:
    """Seconds from spawning ``repro serve`` with an empty cache to its
    first successful SCAN reply."""
    t0 = time.perf_counter()
    with Daemon(wl.serve_args(), work / f"setup-cache-{i}",
                work / f"setup-{i}.log") as daemon:
        with daemon.client() as client:
            client.scan(b"setup probe")
        return time.perf_counter() - t0


def probe(daemon: Daemon, wl: Workload, phase: int) -> List[Record]:
    """``wl.replay_n`` sequential requests on one fresh connection."""
    conn = Connection(daemon.client(), wl.stream(PROBE_CONN))
    try:
        for _ in range(wl.replay_n):
            conn.step(phase)
    finally:
        conn.close()
    return conn.records


def measure(wl: Workload, work: Path, seconds: float, trials: int,
            warmup: float, with_probe: bool) -> Live:
    args = wl.serve_args()
    with Daemon(args, work / "cache", work / "daemon.log") as daemon:
        conns = [Connection(daemon.client(), wl.stream(c))
                 for c in range(wl.connections)]
        try:
            run_phase(conns, warmup, WARMUP)
            cpu_d, cpu_c = tree_cpu_seconds(daemon.pid), own_cpu_seconds()
            walls = [run_phase(conns, seconds / trials, t)
                     for t in range(trials)]
            cpu_d = tree_cpu_seconds(daemon.pid) - cpu_d
            cpu_c = own_cpu_seconds() - cpu_c
            probed = probe(daemon, wl, PROBE) if with_probe else []
            stats = conns[0].client.stats()
            rss = tree_peak_rss_mb(daemon.pid)
        finally:
            for c in conns:
                c.close()
    records = [r for c in conns for r in c.records]
    return Live(records + probed, walls, stats, rss, cpu_d, cpu_c,
                "--pool-workers" in args, probed)


def measure_twin(wl: Workload, work: Path) -> Live:
    """The unloaded probe against the same daemon with the pool toggled,
    so every traced workload measures the gateway-worker hop."""
    args = wl.serve_args()
    if "--pool-workers" in args:
        i = args.index("--pool-workers")
        args = args[:i] + args[i + 2:]
    else:
        args = args + ["--pool-workers", "1"]
    with Daemon(args, work / "twin-cache", work / "twin.log") as daemon:
        records = probe(daemon, wl, TWIN)
        with daemon.client() as client:
            stats = client.stats()
    return Live(records, [], stats, 0.0, 0.0, 0.0,
                "--pool-workers" in args, records)


def end_to_end(live: Live, setup: Sequence[float]) -> Dict[str, object]:
    """The user-visible metrics, plus the per-trial spread of each."""
    trials = range(len(live.walls))
    rps, mbps = [], []
    for t, wall in zip(trials, live.walls):
        ok = [r for r in _data(live.records, {t}) if not r.error]
        rps.append(len(ok) / wall)
        mbps.append(sum(r.op.nbytes for r in ok) / wall / 1e6)
    measured = _data(live.records, set(trials))
    # A failed request misses every latency limit: it sorts last.
    lat = sorted(math.inf if r.error else r.latency for r in measured)
    p50, p99 = nearest_rank(lat, 0.50), nearest_rank(lat, 0.99)
    if math.isinf(p99):
        raise BenchError("over 1% of the measured requests failed; no "
                         "latency can be reported")
    per_trial = {}
    for t in trials:
        tl = sorted(r.latency for r in _data(live.records, {t})
                    if not r.error)
        per_trial.setdefault("p50_ms", []).append(
            nearest_rank(tl, 0.50) * 1e3)
        per_trial.setdefault("p99_ms", []).append(
            nearest_rank(tl, 0.99) * 1e3)
    per_trial.update(req_per_s=rps, mb_per_s=mbps, setup_s=list(setup))
    return {
        "values": {
            "req_per_s": statistics.median(rps),
            "mb_per_s": statistics.median(mbps),
            "p50_ms": p50 * 1e3,
            "p99_ms": p99 * 1e3,
            "server_rss_mb": live.rss_mb,
            "setup_s": statistics.median(setup) if setup else math.nan,
        },
        "per_trial": per_trial,
        "samples": len(lat),
    }


def per_layer(live: Live, twin: Live,
              replay: Dict[str, float]) -> Dict[str, float]:
    """Layer metrics from the live run, the probes and the replay."""
    window = sum(live.walls)
    measured = [r for r in _data(live.records, set(range(len(live.walls))))
                if not r.error]
    scans = [r for r in measured if r.op.kind == "scan"]
    s = live.stats["metrics"]
    pooled = live if live.pooled else twin
    plain = twin if live.pooled else live
    pool = pooled.stats["pool"]
    metrics = {
        "daemon.outside_scan_us": _mean_outside_us(measured),
        "daemon.unloaded_overhead_us": _mean_outside_us(live.probe),
        "daemon.unattributed_us":
            statistics.fmean(r.latency for r in measured) * 1e6
            - replay["replay.request_us"],
        "daemon.queue_high_water": s["admission"]["queue_high_water"],
        "daemon.refused": s["admission"]["rejected"]
        + s["admission"]["timeouts"],
        "daemon.cpu_share": live.daemon_cpu / window,
        "daemon.cpu_us_per_req": live.daemon_cpu / len(measured) * 1e6,
        "loadgen.cpu_share": live.client_cpu / window,
        "registry.swaps": len({r.generation for r in live.records
                               if not r.op.control and not r.error}),
        "planner.serial_share": (sum(r.backend == "serial" for r in scans)
                                 / len(scans)) if scans else 0.0,
        "scan.execute_us": statistics.fmean(r.seconds for r in measured)
        * 1e6,
        "scan.execute_mb_per_s": sum(r.op.nbytes for r in measured) / 1e6
        / sum(r.seconds for r in measured),
        "sessions.evictions": s["flow_evictions"],
        "pool.hop_us": _mean_outside_us(pooled.probe)
        - _mean_outside_us(plain.probe),
        "pool.restarts": pool["restarts"],
        "pool.worker_builds": sum(int(w["automaton_builds"])
                                  for w in pool["workers"]),
    }
    metrics.update(replay)
    return metrics


def control_ms(live: Live) -> Dict[str, float]:
    """Median reply time of the control verbs sent under load."""
    out = {}
    for kind, name in (("reload", "registry.live_swap_ms"),
                       ("policy", "policy.live_swap_ms")):
        times = [r.latency for r in live.records
                 if r.op.kind == kind and not r.error]
        if times:
            out[name] = statistics.median(times) * 1e3
    return out


@dataclass
class Result:
    workload: str
    seed: int
    seconds: float
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    units: Dict[str, str]
    extra: Dict[str, object]
    failures: List[str]

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name], "unit": unit}
                        for name, unit in self.units.items()}})


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 trials: int = TRIALS, warmup: float = WARMUP_SECONDS,
                 launches: int = SETUP_LAUNCHES,
                 replay_n: Optional[int] = None) -> Result:
    """One benchmark run.  The keyword arguments exist so the harness
    test can run every workload in a few seconds."""
    units = bench_units()["per_layer" if trace else "end_to_end"]
    OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        wl = WORKLOADS[name](seed, work)
        if replay_n is not None:
            wl.replay_n = replay_n
        setup = [] if trace else [cold_launch(wl, work, i)
                                  for i in range(launches)]
        live = measure(wl, work, seconds, trials, warmup, trace)
        failures = wl.check(live.records, live.stats)
        window = sum(live.walls)
        extra: Dict[str, object] = {
            "loadgen.cpu_share": live.client_cpu / window,
            "daemon.cpu_share": live.daemon_cpu / window,
            **control_ms(live)}
        all_records = list(live.records)
        if trace:
            twin = measure_twin(wl, work)
            failures += wl.check(twin.records, twin.stats)
            all_records += twin.records
            tracer, layers, replay = traced_replay(wl, work)
            tracer.write_jsonl(OUT_DIR / f"{name}-seed{seed}.trace.jsonl")
            metrics = per_layer(live, twin, replay)
            layer_sum = sum(layers.values())
            request_us = replay["replay.traced_request_us"]
            if abs(layer_sum - request_us) > LAYER_SUM_TOLERANCE * request_us:
                failures.append(f"layer table sums to {layer_sum:.1f} us, "
                                f"the replayed request took "
                                f"{request_us:.1f} us")
            extra["layers_us"] = layers
        else:
            e2e = end_to_end(live, setup)
            metrics = e2e["values"]
            extra.update(per_trial=e2e["per_trial"], samples=e2e["samples"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    codes: Dict[str, int] = {}
    for r in all_records:
        if r.error:
            codes[r.error] = codes.get(r.error, 0) + 1
    extra["error_codes"] = codes
    extra["error_rate"] = sum(codes.values()) / len(all_records)
    extra["scans_checked"] = sum(r.op.sample for r in all_records
                                 if r.op.kind == "scan")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return Result(name, seed, seconds, trace, not failures,
                  len(all_records), sum(codes.values()), metrics, units,
                  extra, failures)


def report(result: Result) -> str:
    """The human-readable part of the output."""
    nproc = len(os.sched_getaffinity(0))
    lines = [f"e2e {result.workload}: seed {result.seed}, "
             f"{result.seconds:g} s measured, trace {int(result.trace)}, "
             f"nproc {nproc}, connections "
             f"{WORKLOADS[result.workload].connections}"]
    spread = result.extra.get("per_trial", {})
    for name, unit in result.units.items():
        row = f"  {name:<30s} {result.metrics[name]:>14.4f} {unit:<9s}"
        if name in spread:
            v = spread[name]
            row += (f" trials min/med/max {min(v):.4f}/"
                    f"{statistics.median(v):.4f}/{max(v):.4f}")
        lines.append(row)
    if "samples" in result.extra:
        lines.append(f"  latency samples: {result.extra['samples']}")
    if "layers_us" in result.extra:
        layers = result.extra["layers_us"]
        total = sum(layers.values())
        lines.append("  layer table (mean self time per replayed "
                     "request, us):")
        for layer, us in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {layer:<12s} {us:>12.2f}  "
                         f"{100 * us / total:5.1f}%")
        lines.append(f"    {'sum':<12s} {total:>12.2f}  vs replayed "
                     f"request {result.metrics['replay.traced_request_us']:.2f}")
    for key in ("registry.live_swap_ms", "policy.live_swap_ms",
                "loadgen.cpu_share", "daemon.cpu_share", "error_rate"):
        if key in result.extra:
            lines.append(f"  {key} = {result.extra[key]:.4f}")
    lines.append(f"  requests {result.attempted}, failed {result.failed} "
                 f"{result.extra['error_codes'] or ''}")
    lines.append("  checks: " + ("ok" if result.correct else
                                 "FAILED\n    " +
                                 "\n    ".join(result.failures[:20])))
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path,
                        help="where to write the full result JSON")
    args = parser.parse_args(argv)
    # A terminated run still stops its daemons: SystemExit unwinds
    # through every ``with Daemon(...)``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with client_cpus():
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    print(report(result), flush=True)
    out = args.out or OUT_DIR / (f"{args.workload}-seed{args.seed}"
                                 f"{'-trace' if args.trace else ''}.json")
    out.write_text(json.dumps(
        {"workload": result.workload, "seed": result.seed,
         "seconds": result.seconds, "trace": result.trace,
         "correct": result.correct, "attempted": result.attempted,
         "failed": result.failed, "failures": result.failures,
         "metrics": {n: {"value": result.metrics[n], "unit": u}
                     for n, u in result.units.items()},
         "extra": result.extra}, indent=2, sort_keys=True) + "\n")
    share = result.extra["loadgen.cpu_share"]
    if share > LOADGEN_CPU_CEILING:
        print(f"run INVALID: the load generator used {share:.2f} of a "
              f"core (ceiling {LOADGEN_CPU_CEILING}); the numbers would "
              f"measure the client", file=sys.stderr)
        return 3
    print(result.line())
    return 0


if __name__ == "__main__":
    sys.exit(main())

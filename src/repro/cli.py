"""Command-line interface.

Six subcommands mirror the library's main entry points::

    python -m repro scan --pattern virus --pattern worm --text "a Virus!"
    python -m repro scan --patterns-file sigs.txt traffic.bin
    python -m repro scan --backend pooled --workers 4 traffic.bin
    python -m repro serve --patterns-file sigs.txt --port 7411
    python -m repro bench-load --connections 4 --requests 200
    python -m repro plan --states 5000 --spes 8
    python -m repro table1 --transitions 4096
    python -m repro info

``scan`` matches (exact strings or, with ``--regex``, regexes) and reports
counts, events and the modelled Cell deployment; ``--backend`` picks a
registered scan backend (default: the execution planner chooses) and file
inputs stream through the staging ring rather than being read whole.
``serve`` runs the live scan daemon: a resident dictionary behind the
length-prefixed TCP protocol, with hot reload (``RELOAD``), flow sessions
(``FLOW``), admission control and a ``STATS`` metrics verb.
``bench-load`` drives a daemon (its own, or ``--connect host:port``) with
the closed-loop load generator and writes ``BENCH_service.json``.
``plan`` sizes a dictionary against the tile budget and prints the
deployment the library would choose, including the replacement-topology
optimum.  ``table1`` re-runs the paper's kernel comparison at a
configurable scale.  ``info`` prints the paper's reference numbers, the
backend registry and the service protocol.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from .core.backends import backend_names

    backends = ["auto", *backend_names()]
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DFA-based string matching on the (simulated) Cell "
                    "processor — IPPS 2007 reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="match a dictionary against input")
    scan.add_argument("input", nargs="?", help="input file (binary)")
    scan.add_argument("--text", help="inline input text instead of a file")
    scan.add_argument("--pattern", action="append", default=[],
                      help="dictionary entry (repeatable)")
    scan.add_argument("--patterns-file",
                      help="file with one pattern per line")
    scan.add_argument("--regex", action="store_true",
                      help="treat patterns as regular expressions")
    scan.add_argument("--events", action="store_true",
                      help="list individual match events")
    scan.add_argument("--backend", default="auto",
                      choices=backends,
                      help="scan backend, the one way to force a "
                           "kernel (default: auto — the execution "
                           "planner chooses)")
    scan.add_argument("--workers", type=int, default=1,
                      help="worker processes for the parallel backends "
                           "(default 1)")
    scan.add_argument("--no-fuse", action="store_true",
                      help="escape hatch: never auto-plan the fused "
                           "multi-slice path (one pass per slice "
                           "instead of one stacked-table pass)")
    scan.add_argument("--prefilter", dest="prefilter", default=None,
                      action="store_true",
                      help="escape hatch: demand the packed trigram "
                           "prefilter stage in front of the scan "
                           "kernel (screenable exact dictionaries "
                           "only)")
    scan.add_argument("--no-prefilter", dest="prefilter",
                      action="store_false",
                      help="escape hatch: never mount the packed "
                           "prefilter stage")

    plan = sub.add_parser("plan", help="size a dictionary deployment")
    group = plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--states", type=int,
                       help="dictionary size in DFA states")
    group.add_argument("--patterns-file",
                       help="derive the size from a pattern file")
    plan.add_argument("--spes", type=int, default=8,
                      help="SPE budget (default 8)")

    table1 = sub.add_parser("table1",
                            help="run the Table-1 kernel comparison")
    table1.add_argument("--transitions", type=int, default=2048,
                        help="transitions per version (default 2048; the "
                             "paper used 16384)")

    serve = sub.add_parser("serve", help="run the live scan daemon")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7411,
                       help="listen port (0 = let the OS pick; "
                            "default 7411)")
    serve.add_argument("--pattern", action="append", default=[],
                       help="dictionary entry (repeatable)")
    serve.add_argument("--patterns-file",
                       help="file with one pattern per line")
    serve.add_argument("--regex", action="store_true",
                       help="treat patterns as regular expressions")
    serve.add_argument("--backend", default="auto",
                       choices=backends,
                       help="default SCAN backend (default: auto)")
    serve.add_argument("--pool-workers", type=int, default=0,
                       help="gateway mode: N worker processes attached "
                            "to the compiled dictionary over shared "
                            "memory, flows placed by consistent hash "
                            "(0 = in-process daemon)")
    serve.add_argument("--max-pending", type=int, default=64,
                       help="admission control: concurrent scans in "
                            "flight (default 64)")
    serve.add_argument("--admission", default="reject",
                       choices=["reject", "wait"],
                       help="over-capacity policy: shed with 'busy' or "
                            "queue up to --timeout (default reject)")
    serve.add_argument("--timeout", type=float, default=5.0,
                       help="queue wait bound for --admission wait "
                            "(seconds, default 5)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="grace period for in-flight requests at "
                            "shutdown (default 10s)")
    serve.add_argument("--max-flows", type=int, default=65536,
                       help="flow-session table bound (default 65536)")
    serve.add_argument("--session-eviction", default="lru",
                       choices=["lru", "reject"],
                       help="policy when the flow table is full "
                            "(default lru)")
    serve.add_argument("--cache", metavar="DIR",
                       help="artifact-cache directory — makes RELOAD of "
                            "a known rule set a warm swap")
    serve.add_argument("--metrics-json", metavar="PATH",
                       help="write the final metrics snapshot here at "
                            "shutdown")
    serve.add_argument("--tenants-json", metavar="PATH",
                       help="bootstrap tenants from a JSON file mapping "
                            'name -> {"patterns": [...], "rules": '
                            '[...], "regex": bool}')

    load = sub.add_parser("bench-load",
                          help="drive a daemon with the closed-loop "
                               "load generator")
    load.add_argument("--connect", metavar="HOST:PORT",
                      help="target an already-running daemon instead of "
                           "hosting one in-process")
    load.add_argument("--pattern", action="append", default=[],
                      help="dictionary entry (repeatable; default: a "
                           "small signature set)")
    load.add_argument("--patterns-file",
                      help="file with one pattern per line")
    load.add_argument("--backend", default="auto",
                      choices=backends,
                      help="daemon SCAN backend (in-process daemon only)")
    load.add_argument("--pool-workers", type=int, default=0,
                      help="in-process daemon: run the gateway + "
                           "worker-pool mode with N processes (0 = "
                           "single-process daemon)")
    load.add_argument("--connections", type=int, default=4,
                      help="closed-loop client connections (default 4)")
    load.add_argument("--requests", type=int, default=200,
                      help="requests per connection (default 200)")
    load.add_argument("--mode", default="scan",
                      choices=["scan", "flow"],
                      help="one-shot scans or sessioned flow packets")
    load.add_argument("--flows", type=int, default=8,
                      help="session flows per connection in flow mode")
    load.add_argument("--min-size", type=int, default=256)
    load.add_argument("--max-size", type=int, default=1500)
    load.add_argument("--match-fraction", type=float, default=0.2,
                      help="fraction of packets with a planted pattern")
    load.add_argument("--arrival-rate", type=float, default=None,
                      help="open-loop mode: aggregate offered request "
                           "rate (req/s); latency is measured from the "
                           "scheduled send time (default: closed loop)")
    load.add_argument("--reloads", type=int, default=0,
                      help="hot reloads to fire while the load runs")
    load.add_argument("--tenant", metavar="NAME",
                      help="scope the load to one tenant (created on an "
                           "in-process daemon with the load patterns; "
                           "must already exist on a --connect daemon)")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--json", metavar="PATH",
                      default="BENCH_service.json",
                      help="result file (default BENCH_service.json; "
                           "'-' to skip)")

    sub.add_parser("info", help="print the paper's reference numbers")
    return parser


def _load_patterns(args) -> List[str]:
    patterns = list(args.pattern)
    if getattr(args, "patterns_file", None):
        with open(args.patterns_file, "r", encoding="utf-8") as fh:
            patterns.extend(line.rstrip("\n") for line in fh
                            if line.strip())
    return patterns


def _cmd_scan(args) -> int:
    from .core.matcher import CellStringMatcher, MatcherError

    patterns = _load_patterns(args)
    if not patterns:
        print("error: no patterns given (use --pattern/--patterns-file)",
              file=sys.stderr)
        return 2
    if args.text is None and not args.input:
        print("error: provide an input file or --text", file=sys.stderr)
        return 2

    backend = None if args.backend == "auto" else args.backend
    matcher = CellStringMatcher(patterns, regex=args.regex)
    fuse = not args.no_fuse
    try:
        if args.text is not None:
            report = matcher.scan(args.text.encode(),
                                  with_events=args.events,
                                  workers=args.workers, backend=backend,
                                  fuse=fuse, prefilter=args.prefilter)
        elif args.events or backend not in (None, "streaming"):
            # Events and the block-only backends need the bytes in one
            # piece; everything else streams.
            with open(args.input, "rb") as fh:
                report = matcher.scan(fh.read(), with_events=args.events,
                                      workers=args.workers,
                                      backend=backend, fuse=fuse,
                                      prefilter=args.prefilter)
        else:
            # File input flows through the staging ring — the file is
            # never materialized in memory.
            report = matcher.scan_file(args.input, workers=args.workers)
    except MatcherError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"patterns      : {matcher.num_patterns}"
          f"{' (regex)' if args.regex else ''}")
    print(f"input         : {report.bytes_scanned} bytes")
    print(f"matches       : {report.total_matches}")
    print(f"backend       : {report.backend} "
          f"({report.workers} worker(s))")
    print(f"deployment    : {report.configuration}")
    print(f"modelled rate : {report.modelled_gbps:.2f} Gbps on "
          f"{report.spes_used} SPE(s)")
    if args.events and report.events:
        for event in report.events:
            label = patterns[event.pattern] if event.pattern < \
                len(patterns) else f"#{event.pattern}"
            print(f"  end={event.end:<8d} pattern[{event.pattern}] "
                  f"{label!r}")
    return 0


def _cmd_plan(args) -> int:
    from .core.planner import plan_tile
    from .core.replacement import HALF_TILE_STATES, effective_gbps, \
        plan_topology
    from .dfa.alphabet import case_fold_32
    from .dfa.partition import trie_states

    if args.patterns_file:
        fold = case_fold_32()
        with open(args.patterns_file, "r", encoding="utf-8") as fh:
            patterns = [fold.fold_bytes(line.strip().encode())
                        for line in fh if line.strip()]
        states = trie_states(patterns)
    else:
        states = args.states
    if states < 2:
        print("error: dictionary needs at least 2 states",
              file=sys.stderr)
        return 2

    tile = plan_tile()
    print(f"dictionary    : {states} DFA states")
    print(f"tile budget   : {tile.max_states} states "
          f"({tile.stt_capacity // 1024} KB STT)")
    if states <= tile.max_states:
        ways = args.spes
        print(f"deployment    : resident, up to {ways} parallel tiles = "
              f"{ways * 5.11:.2f} Gbps")
        return 0
    resident_slices = -(-states // tile.max_states)
    if resident_slices <= args.spes:
        print(f"deployment    : {resident_slices} series tiles "
              f"(5.11 Gbps), {args.spes // resident_slices} parallel "
              f"group(s) = "
              f"{(args.spes // resident_slices) * 5.11:.2f} Gbps")
        return 0
    slices = -(-states // HALF_TILE_STATES)
    paper = effective_gbps(slices, num_spes=args.spes)
    best = plan_topology(slices, args.spes)
    print(f"deployment    : dynamic STT replacement, {slices} half-tile "
          f"slices")
    print(f"paper policy  : {paper:.2f} Gbps (every SPE cycles all "
          f"slices)")
    print(f"best topology : {best.describe()}")
    return 0


def _cmd_table1(args) -> int:
    from .analysis import PAPER_TABLE1, ascii_table
    from .core import DFATile, KERNEL_SPECS
    from .dfa import AhoCorasick
    from .workloads import signatures_for_states, streams_for_tile

    transitions = max(192, args.transitions)
    patterns = signatures_for_states(600, seed=7)
    tile = DFATile(AhoCorasick(patterns, 32).to_dfa())
    rows = []
    for version, spec in sorted(KERNEL_SPECS.items()):
        if version == 1:
            streams = streams_for_tile(transitions, patterns,
                                       num_streams=1, seed=1)
        else:
            per = -(-(transitions // 16) // spec.unroll) * spec.unroll
            streams = streams_for_tile(max(per, 12 * spec.unroll),
                                       patterns, seed=2)
        result = tile.run_streams(streams, version=version)
        paper = PAPER_TABLE1[version]
        rows.append([
            f"v{version}",
            spec.label,
            round(result.cycles_per_transition, 2),
            paper.cycles_per_transition,
            round(result.throughput_gbps(), 2),
            paper.throughput_gbps,
        ])
    print(ascii_table(
        ["ver", "kernel", "cyc/tr", "paper", "Gbps", "paper"], rows,
        title=f"Table 1 at {transitions} transitions/version"))
    return 0


def _cmd_serve(args) -> int:
    import asyncio
    import json
    import signal

    from .service import ScanService, ServiceConfig

    patterns = _load_patterns(args)
    if not patterns:
        print("error: no patterns given (use --pattern/--patterns-file)",
              file=sys.stderr)
        return 2
    config = ServiceConfig(
        host=args.host, port=args.port,
        backend=None if args.backend == "auto" else args.backend,
        max_pending=args.max_pending,
        admission=args.admission, request_timeout=args.timeout,
        drain_timeout=args.drain_timeout, max_flows=args.max_flows,
        session_policy=args.session_eviction,
        pool_workers=args.pool_workers)
    tenants = None
    if args.tenants_json:
        with open(args.tenants_json, "r", encoding="utf-8") as fh:
            tenants = json.load(fh)
        if not isinstance(tenants, dict):
            print("error: --tenants-json must hold a JSON object "
                  "mapping tenant name -> config", file=sys.stderr)
            return 2
    service = ScanService(patterns, config=config, regex=args.regex,
                          cache=args.cache, tenants=tenants)

    async def _run() -> None:
        await service.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: loop.create_task(service.shutdown()))
            except NotImplementedError:  # pragma: no cover
                pass
        compiled = service.control.scope(None).compiled
        print(f"serving {compiled.num_patterns} pattern(s) "
              f"({compiled.total_states} states, "
              f"{compiled.num_slices} slice(s)) "
              f"on {service.host}:{service.port} — "
              f"generation {service.control.generation}", flush=True)
        print(f"admission: {config.admission}, {config.max_pending} in "
              f"flight; backend: {config.backend or 'auto'}; "
              f"Ctrl-C or SHUTDOWN to drain", flush=True)
        if config.pool_workers > 0:
            print(f"pool: {config.pool_workers} worker process(es) "
                  f"attached over shared memory", flush=True)
        if tenants:
            print(f"tenants: {', '.join(sorted(tenants))}", flush=True)
        await service.wait_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:  # pragma: no cover
        pass
    if args.metrics_json:
        with open(args.metrics_json, "w", encoding="utf-8") as fh:
            json.dump(service.metrics.snapshot(), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        print(f"metrics written to {args.metrics_json}")
    return 0


_DEFAULT_LOAD_PATTERNS = ["virus", "worm", "trojan", "backdoor",
                          "exploit", "malware"]


def _cmd_bench_load(args) -> int:
    import json
    import threading

    from .analysis import metrics_table
    from .service import (ScanService, ServiceClient, ServiceConfig,
                          ServiceThread, run_load)

    patterns = _load_patterns(args) or list(_DEFAULT_LOAD_PATTERNS)
    handle = None
    if args.connect:
        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            print("error: --connect needs HOST:PORT", file=sys.stderr)
            return 2
        host, port = host, int(port_text)
    else:
        config = ServiceConfig(
            backend=None if args.backend == "auto" else args.backend,
            pool_workers=args.pool_workers)
        handle = ServiceThread(ScanService(patterns,
                                           config=config)).start()
        host, port = handle.host, handle.port
    try:
        if args.tenant and handle is not None:
            # In-process daemon: materialize the tenant with the same
            # dictionary the load generator plants matches from.
            with ServiceClient(host, port) as tc:
                tc.tenant_create(args.tenant, patterns)
        reload_stop = threading.Event()
        reload_thread = None
        if args.reloads > 0:
            # Alternate between two rule sets so every other swap is a
            # genuine dictionary change and the way back is a warm swap
            # when the daemon has an artifact cache.
            def _reloader() -> None:
                with ServiceClient(host, port) as rc:
                    sets = [patterns + ["bench-reload-extra"], patterns]
                    for i in range(args.reloads):
                        rc.reload(sets[i % 2], tenant=args.tenant)
                        if i + 1 < args.reloads \
                                and reload_stop.wait(0.1):
                            break
            reload_thread = threading.Thread(target=_reloader,
                                             daemon=True)
            reload_thread.start()
        result = run_load(
            host, port,
            connections=args.connections,
            requests_per_connection=args.requests,
            mode=args.mode,
            flows_per_connection=args.flows,
            min_size=args.min_size, max_size=args.max_size,
            patterns=[p.encode() for p in patterns],
            match_fraction=args.match_fraction,
            seed=args.seed,
            tenant=args.tenant,
            arrival_rate=args.arrival_rate)
        reload_stop.set()
        if reload_thread is not None:
            reload_thread.join(timeout=30)
        with ServiceClient(host, port) as client:
            stats = client.stats()
    finally:
        if handle is not None:
            handle.stop()
    print(result.summary())
    print()
    print(metrics_table(stats["metrics"]))
    served = stats["metrics"]["requests"].get("total", 0)
    if served < result.requests:
        print(f"warning: STATS saw {served} requests but the load "
              f"generator completed {result.requests}", file=sys.stderr)
        return 1
    if args.json and args.json != "-":
        payload = {
            "bench": "service",
            "run": result.to_payload(),
            "stats": stats["metrics"],
            "registry": stats["registry"],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"results written to {args.json}")
    return 0 if result.errors == 0 else 1


def _cmd_info(args) -> int:
    from .analysis import (PAPER_BLADE_GBPS, PAPER_CHIP_GBPS,
                           PAPER_TABLE1, PAPER_TILE_GBPS)
    from .core.backends import backend_specs
    print("Scarpazza, Villa & Petrini, IPPS 2007 — reference numbers")
    print(f"  peak tile throughput : {PAPER_TILE_GBPS} Gbps "
          f"(version 4, unroll 3)")
    print(f"  one chip (8 SPEs)    : {PAPER_CHIP_GBPS} Gbps")
    print(f"  dual-Cell blade      : {PAPER_BLADE_GBPS} Gbps")
    print("  Table 1 cycles/transition:",
          ", ".join(f"v{v}={r.cycles_per_transition}"
                    for v, r in sorted(PAPER_TABLE1.items())))
    print("registered scan backends:")
    for name, section, description in backend_specs():
        print(f"  {name:<10s} {description} — {section}")
    print("staged scan pipeline:")
    print("  prefilter  packed trigram screening skips clean regions "
          "before any block kernel (screenable exact dictionaries; "
          "--no-prefilter / ScanRequest(prefilter=False) disables)")
    # protocol.py is stdlib-only by design, so this import is cheap.
    from .service.protocol import RELOAD_STRATEGY, VERB_SPECS
    print("service protocol verbs (repro serve):")
    for verb, description in VERB_SPECS:
        print(f"  {verb:<11s}{description}")
    print(f"reload strategy: {RELOAD_STRATEGY}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "scan": _cmd_scan,
        "plan": _cmd_plan,
        "table1": _cmd_table1,
        "serve": _cmd_serve,
        "bench-load": _cmd_bench_load,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

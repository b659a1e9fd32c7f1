"""Bench-regression gate: fresh bench JSON vs committed baselines.

CI regenerates ``benchmarks/results/BENCH_backends.json`` and
``benchmarks/results/BENCH_fused.json`` on every run (the bench smoke
step) and then calls this script, which fails the build when

* the headline backend's throughput drops more than ``--tolerance``
  below the committed ``benchmarks/baselines/BENCH_backends.json``, or
* any per-D ``fused_mb_per_s`` / ``hotcold2_mb_per_s`` row drops more
  than ``--tolerance`` below the committed
  ``benchmarks/baselines/BENCH_fused.json`` (so a change that only
  collapses one partition count cannot hide behind the headline), or
* any prefilter density row (low/mid/high) drops more than
  ``--tolerance`` on either its bare or its screened throughput (so a
  slower screen or a slower fall-through cannot hide behind the other
  densities), or
* the policy layer's verdict overhead (``BENCH_policy.json``, measured
  against a bare session scan over identical traffic) exceeds
  ``--policy-overhead-max`` percent — an absolute ceiling, not a
  baseline diff, because "verdicts ride the scan nearly for free" is
  the subsystem's contract.

The headline backend defaults to the fastest backend recorded in the
*baseline* (so a new backend cannot promote itself past the gate by
merely existing) and can be pinned with ``--backend``.  Backends or
sweep rows present only on one side are reported but never gated — the
gate protects against silent slowdowns of code that already shipped,
not against roster changes.  A missing fused baseline file skips the
per-D gate with a note, and a missing ``BENCH_policy.json`` skips the
overhead gate the same way (bootstrap-friendly).

Throughput is compared as MB/s, which stays comparable when the block
size differs between runs; a block-size mismatch is still called out in
the report because cache effects make small-block numbers noisier.

Exit codes: 0 pass, 1 usage/IO error, 2 regression.

Usage::

    python benchmarks/check_bench_regression.py \
        [--fresh benchmarks/results/BENCH_backends.json] \
        [--baseline benchmarks/baselines/BENCH_backends.json] \
        [--fused-fresh benchmarks/results/BENCH_fused.json] \
        [--fused-baseline benchmarks/baselines/BENCH_fused.json] \
        [--backend streaming] [--tolerance 0.30]

``REPRO_BENCH_TOLERANCE`` overrides the default tolerance (0.30) when
the flag is absent.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_FRESH = os.path.join(HERE, "results", "BENCH_backends.json")
DEFAULT_BASELINE = os.path.join(HERE, "baselines", "BENCH_backends.json")
DEFAULT_FUSED_FRESH = os.path.join(HERE, "results", "BENCH_fused.json")
DEFAULT_FUSED_BASELINE = os.path.join(HERE, "baselines",
                                      "BENCH_fused.json")
DEFAULT_POLICY_FRESH = os.path.join(HERE, "results", "BENCH_policy.json")
DEFAULT_SERVICE_FRESH = os.path.join(HERE, "results",
                                     "BENCH_service.json")
DEFAULT_SERVICE_BASELINE = os.path.join(HERE, "baselines",
                                        "BENCH_service.json")


def _load(path, section="per_backend"):
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"[bench gate] cannot read {path}: {exc}")
    if section not in payload:
        raise SystemExit(f"[bench gate] {path} has no {section} section")
    return payload


def _throughput(entry):
    value = entry.get("mb_per_s")
    return float(value) if value else 0.0


def headline_backend(baseline):
    """The fastest backend in the baseline payload."""
    per = baseline["per_backend"]
    return max(per, key=lambda name: _throughput(per[name]))


def compare(baseline, fresh, backend=None, tolerance=0.30, out=sys.stdout):
    """Return (ok, lines) for a fresh payload against the baseline."""
    base_per = baseline["per_backend"]
    fresh_per = fresh["per_backend"]
    backend = backend or headline_backend(baseline)
    lines = []

    if baseline.get("block_bytes") != fresh.get("block_bytes"):
        lines.append(
            f"note: block size differs (baseline "
            f"{baseline.get('block_bytes')} vs fresh "
            f"{fresh.get('block_bytes')} bytes); comparing MB/s")

    for name in sorted(set(base_per) | set(fresh_per)):
        if name not in base_per:
            lines.append(f"  {name:<10} new backend, not gated "
                         f"({_throughput(fresh_per[name]):.1f} MB/s)")
        elif name not in fresh_per:
            lines.append(f"  {name:<10} missing from fresh run")
        else:
            old, new = _throughput(base_per[name]), \
                _throughput(fresh_per[name])
            ratio = new / old if old else float("inf")
            mark = " <- headline" if name == backend else ""
            lines.append(f"  {name:<10} {old:8.1f} -> {new:8.1f} MB/s "
                         f"({ratio:5.2f}x){mark}")

    if backend not in base_per:
        raise SystemExit(f"[bench gate] backend {backend!r} not in baseline "
                         f"({', '.join(sorted(base_per))})")
    if backend not in fresh_per:
        lines.append(f"FAIL: headline backend {backend!r} missing from "
                     f"the fresh run")
        return False, lines

    old = _throughput(base_per[backend])
    new = _throughput(fresh_per[backend])
    floor = old * (1.0 - tolerance)
    ok = new >= floor
    verdict = "pass" if ok else "FAIL"
    lines.append(f"{verdict}: {backend} {new:.1f} MB/s vs baseline "
                 f"{old:.1f} MB/s (floor {floor:.1f} at "
                 f"{tolerance:.0%} tolerance)")
    return ok, lines


#: BENCH_fused.json per-slice throughput keys gated per D.
FUSED_GATED_KEYS = ("fused_mb_per_s", "hotcold2_mb_per_s")

#: BENCH_fused.json prefilter throughput keys gated per match density.
PREFILTER_GATED_KEYS = ("bare_mb_per_s", "screened_mb_per_s")


def compare_prefilter(baseline, fresh, tolerance=0.30):
    """Return (ok, lines) gating the prefilter sweep per density.

    Each match-density row (low/mid/high) is gated on both the bare
    and the screened pipeline's MB/s, so neither a slower screen nor a
    slower fall-through can hide behind the other densities.  A fresh
    run without the prefilter section fails; a *baseline* without it
    is handled by the caller (bootstrap).
    """
    base_rows = baseline.get("per_density", {})
    fresh_rows = fresh.get("per_density", {})
    lines = []
    ok = True
    for density in sorted(base_rows):
        if density not in fresh_rows:
            lines.append(f"  FAIL: {density} corpus missing from fresh "
                         f"run")
            ok = False
            continue
        for key in PREFILTER_GATED_KEYS:
            if key not in base_rows[density]:
                continue
            old = float(base_rows[density][key] or 0.0)
            new = float(fresh_rows[density].get(key) or 0.0)
            floor = old * (1.0 - tolerance)
            good = new >= floor
            ok = ok and good
            verdict = "pass" if good else "FAIL"
            lines.append(
                f"  {verdict}: {density:<5}{key.split('_mb')[0]:<9}"
                f"{old:8.1f} -> {new:8.1f} MB/s (floor {floor:.1f})")
    return ok, lines


def compare_fused(baseline, fresh, tolerance=0.30):
    """Return (ok, lines) gating every per-D fused/hot-cold row."""
    base_rows = baseline["per_slices"]
    fresh_rows = fresh["per_slices"]
    lines = []
    ok = True
    for d in sorted(base_rows, key=lambda k: int(k)):
        if d not in fresh_rows:
            lines.append(f"  D={d:<2} missing from fresh run")
            continue
        for key in FUSED_GATED_KEYS:
            if key not in base_rows[d]:
                continue        # baseline predates this column
            old = float(base_rows[d][key] or 0.0)
            new = float(fresh_rows[d].get(key) or 0.0)
            floor = old * (1.0 - tolerance)
            good = new >= floor
            ok = ok and good
            verdict = "pass" if good else "FAIL"
            lines.append(
                f"  {verdict}: D={d} {key.split('_mb')[0]:<8}"
                f"{old:8.1f} -> {new:8.1f} MB/s (floor {floor:.1f})")
    return ok, lines


def compare_policy(fresh, overhead_max=15.0):
    """Return (ok, lines) gating the policy layer's verdict overhead."""
    overhead = float(fresh.get("verdict_overhead_pct", 0.0))
    ok = overhead <= overhead_max
    verdict = "pass" if ok else "FAIL"
    lines = [f"  {verdict}: verdict overhead {overhead:+.1f}% vs raw "
             f"session scan (ceiling {overhead_max:.0f}%)"]
    swaps = fresh.get("hot_swap", {})
    for name in ("acme", "beta"):
        run = swaps.get(name)
        if not run:
            continue
        errors = int(run.get("errors", 0))
        good = errors == 0
        ok = ok and good
        lines.append(f"  {'pass' if good else 'FAIL'}: tenant {name} "
                     f"{run.get('requests', 0)} requests, "
                     f"{errors} errors under rule hot-swap")
    return ok, lines


def compare_pool(fresh, baseline=None, pool_min=1.5, tolerance=0.30):
    """Return (ok, lines) gating the worker-pool sweep.

    Three checks, all cores-aware (a host with fewer cores than the
    largest pool cannot deliver a parallel speedup, so the scaling and
    latency demands are skipped there with a note rather than failing
    an honest run):

    * **scaling** — req/s at the largest pool must be at least
      ``pool_min`` times the single-worker row of the *same* run
      (needs one core per worker plus one for the gateway/loadgen);
    * **p99 blow-up** — the largest pool's p99 must stay within
      ``2 x (1 + tolerance)`` of the single-worker p99 (per-worker
      load is matched by construction: two connections per worker);
    * **baseline throughput** — the largest pool's req/s must not drop
      more than ``tolerance`` below the committed baseline's matching
      row (skipped when the baseline has no pool sweep — bootstrap).
    """
    sweep = fresh.get("pool_sweep") or {}
    rows = sweep.get("rows") or []
    lines = []
    if len(rows) < 2:
        return True, ["  fresh run has no pool sweep rows — gate "
                      "skipped"]
    cores = int(sweep.get("host_cores") or 0)
    base = rows[0]
    top = max(rows, key=lambda r: int(r["workers"]))
    top_workers = int(top["workers"])
    scaling = (float(top["rps"]) / float(base["rps"])
               if float(base["rps"]) else 0.0)
    lines.append(f"  {top_workers} workers {float(top['rps']):8.0f} "
                 f"req/s vs 1 worker {float(base['rps']):8.0f} req/s "
                 f"({scaling:.2f}x) on {cores} host core(s)")
    ok = True
    if cores > top_workers:
        good = scaling >= pool_min
        ok = ok and good
        lines.append(f"  {'pass' if good else 'FAIL'}: scaling "
                     f"{scaling:.2f}x (floor {pool_min:.2f}x)")
        p99_old = float(base.get("p99_ms") or 0.0)
        p99_new = float(top.get("p99_ms") or 0.0)
        ceiling = p99_old * 2.0 * (1.0 + tolerance)
        good = p99_old == 0.0 or p99_new <= ceiling
        ok = ok and good
        lines.append(f"  {'pass' if good else 'FAIL'}: p99 "
                     f"{p99_new:.2f} ms vs single-worker "
                     f"{p99_old:.2f} ms (ceiling {ceiling:.2f} at "
                     f"matched per-worker load)")
    else:
        lines.append(f"  note: {cores} core(s) <= {top_workers} "
                     f"workers — scaling and p99 gates skipped (the "
                     f"gateway and loadgen need a core of their own "
                     f"for the speedup to be deliverable)")
    base_rows = ((baseline or {}).get("pool_sweep") or {}).get("rows")
    if base_rows:
        by_workers = {int(r["workers"]): r for r in base_rows}
        old_row = by_workers.get(top_workers)
        if old_row is None:
            lines.append(f"  note: baseline has no {top_workers}-worker "
                         f"row — throughput gate skipped")
        else:
            old = float(old_row["rps"])
            new = float(top["rps"])
            floor = old * (1.0 - tolerance)
            good = new >= floor
            ok = ok and good
            lines.append(f"  {'pass' if good else 'FAIL'}: "
                         f"{top_workers}-worker throughput {new:.0f} "
                         f"req/s vs baseline {old:.0f} req/s (floor "
                         f"{floor:.0f})")
    else:
        lines.append("  note: baseline has no pool sweep — throughput "
                     "gate skipped")
    return ok, lines


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail when the headline backend regresses vs the "
                    "committed bench baseline")
    parser.add_argument("--fresh", default=DEFAULT_FRESH,
                        help="freshly generated BENCH_backends.json")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline BENCH_backends.json")
    parser.add_argument("--fused-fresh", default=DEFAULT_FUSED_FRESH,
                        help="freshly generated BENCH_fused.json")
    parser.add_argument("--fused-baseline",
                        default=DEFAULT_FUSED_BASELINE,
                        help="committed baseline BENCH_fused.json")
    parser.add_argument("--backend", default=None,
                        help="headline backend (default: fastest in "
                             "the baseline)")
    parser.add_argument("--policy-fresh", default=DEFAULT_POLICY_FRESH,
                        help="freshly generated BENCH_policy.json")
    parser.add_argument(
        "--policy-overhead-max", type=float,
        default=float(os.environ.get("REPRO_POLICY_OVERHEAD_MAX", "15")),
        help="max verdict overhead over a raw session scan, in percent "
             "(default 15, or REPRO_POLICY_OVERHEAD_MAX)")
    parser.add_argument("--service-fresh", default=DEFAULT_SERVICE_FRESH,
                        help="freshly generated BENCH_service.json")
    parser.add_argument("--service-baseline",
                        default=DEFAULT_SERVICE_BASELINE,
                        help="committed baseline BENCH_service.json")
    parser.add_argument(
        "--pool-min", type=float,
        default=float(os.environ.get("REPRO_BENCH_POOL_MIN", "1.5")),
        help="min req/s scaling of the largest worker pool over one "
             "worker, applied when the host has at least that many "
             "cores (default 1.5, or REPRO_BENCH_POOL_MIN)")
    parser.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("REPRO_BENCH_TOLERANCE", "0.30")),
        help="allowed fractional regression (default 0.30, or "
             "REPRO_BENCH_TOLERANCE)")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error("tolerance must be in [0, 1)")

    ok, lines = compare(_load(args.baseline), _load(args.fresh),
                        backend=args.backend, tolerance=args.tolerance)
    print("[bench gate]")
    for line in lines:
        print(line)

    if os.path.exists(args.fused_baseline):
        fused_base = _load(args.fused_baseline, section="per_slices")
        fused_fresh = _load(args.fused_fresh, section="per_slices")
        fused_ok, fused_lines = compare_fused(
            fused_base, fused_fresh, tolerance=args.tolerance)
        ok = ok and fused_ok
        print("[bench gate: fused D-sweep]")
        for line in fused_lines:
            print(line)
        if "prefilter" in fused_base:
            pf_ok, pf_lines = compare_prefilter(
                fused_base["prefilter"],
                fused_fresh.get("prefilter", {}),
                tolerance=args.tolerance)
            ok = ok and pf_ok
            print("[bench gate: prefilter density sweep]")
            for line in pf_lines:
                print(line)
        else:
            print("[bench gate] baseline has no prefilter section — "
                  "per-density gate skipped")
    else:
        print(f"[bench gate] no fused baseline at {args.fused_baseline}"
              f" — per-D gate skipped")

    if os.path.exists(args.policy_fresh):
        policy_fresh = _load(args.policy_fresh,
                             section="verdict_overhead_pct")
        policy_ok, policy_lines = compare_policy(
            policy_fresh, overhead_max=args.policy_overhead_max)
        ok = ok and policy_ok
        print("[bench gate: policy verdict overhead]")
        for line in policy_lines:
            print(line)
    else:
        print(f"[bench gate] no policy results at {args.policy_fresh}"
              f" — verdict-overhead gate skipped")

    if os.path.exists(args.service_fresh):
        # Tolerant load: a service result predating the pool sweep
        # (no pool_sweep section) skips the gate instead of erroring.
        try:
            with open(args.service_fresh) as fh:
                service_fresh = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"[bench gate] cannot read "
                             f"{args.service_fresh}: {exc}")
        service_base = None
        if os.path.exists(args.service_baseline):
            try:
                with open(args.service_baseline) as fh:
                    service_base = json.load(fh)
            except (OSError, ValueError):
                service_base = None
        pool_ok, pool_lines = compare_pool(
            service_fresh, baseline=service_base,
            pool_min=args.pool_min, tolerance=args.tolerance)
        ok = ok and pool_ok
        print("[bench gate: worker-pool scaling]")
        for line in pool_lines:
            print(line)
    else:
        print(f"[bench gate] no service results at "
              f"{args.service_fresh} — pool gate skipped")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())

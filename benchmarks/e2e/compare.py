"""Compare two sets of end-to-end results, metric by metric.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --base old/*.json --new new/*.json

Each file is a result written by ``run.py`` (``--out``, or the default
under ``.e2e/``).  For every (end-to-end metric, workload) pair the
script prints each side's median and quartiles, the pairs the new side
won, and one verdict, using the bounds in ``BENCHMARK.json``:

* ``unresolved`` -- either side's quartile spread, as a share of its
  median, is wider than the bound, and not every new run beats every
  base run;
* ``worse`` -- the new median is worse than the base median by more
  than the bound;
* ``better`` -- the new side wins at least nine tenths of the pairs and
  the medians differ by more than the base side's quartile distance;
* ``unchanged`` -- otherwise.

Runs pair up by seed when both sides used the same seeds, else in file
order.  Exit status 1 when any pair is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load(paths: Sequence[Path]) -> Dict[str, List[Tuple[int, Dict]]]:
    """workload -> [(seed, metrics)] of untraced results."""
    runs: Dict[str, List[Tuple[int, Dict]]] = {}
    for path in paths:
        res = json.loads(Path(path).read_text())
        if res.get("trace"):
            continue
        runs.setdefault(res["workload"], []).append(
            (res["seed"], {k: v["value"] for k, v in res["metrics"].items()}))
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def judge(base: Sequence[float], new: Sequence[float], bound: float,
          higher_is_better: bool) -> Dict[str, object]:
    """One (metric, workload) verdict; ``base[i]`` pairs with ``new[i]``."""
    sign = 1.0 if higher_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    change = sign * (nm - bm) / bm
    spread = max((b3 - b1) / bm, (n3 - n1) / nm)
    all_better = min(sign * n for n in new) > max(sign * b for b in base)
    if spread > bound and not all_better:
        verdict = "unresolved"
    elif change < -bound:
        verdict = "worse"
    elif (change > 0 and wins >= 0.9 * len(pairs)
          and abs(nm - bm) > b3 - b1):
        verdict = "better"
    else:
        verdict = "unchanged"
    return {"base": (b1, bm, b3), "new": (n1, nm, n3), "change": change,
            "wins": wins, "pairs": len(pairs), "spread": spread,
            "verdict": verdict}


def _paired(base: List[Tuple[int, Dict]], new: List[Tuple[int, Dict]]):
    if sorted(s for s, _ in base) != sorted(s for s, _ in new):
        return base, new

    def by_seed(run):
        return run[0]
    return sorted(base, key=by_seed), sorted(new, key=by_seed)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    parser.add_argument("--bench", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    spec = json.loads(args.bench.read_text())
    base_runs, new_runs = load(args.base), load(args.new)
    print(f"{'workload':<11s} {'metric':<14s} {'base q1/median/q3':>30s} "
          f"{'new q1/median/q3':>30s} {'change':>8s} {'wins':>6s}  verdict")
    bad = 0
    for workload in sorted(set(base_runs) & set(new_runs)):
        base, new = _paired(base_runs[workload], new_runs[workload])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v = judge([m[name] for _, m in base], [m[name] for _, m in new],
                      metric["bound"], metric["better"] == "higher")
            bad += v["verdict"] in ("worse", "unresolved")
            b, n = v["base"], v["new"]
            print(f"{workload:<11s} {name:<14s} "
                  f"{b[0]:>9.4g}/{b[1]:>9.4g}/{b[2]:>9.4g} "
                  f"{n[0]:>9.4g}/{n[1]:>9.4g}/{n[2]:>9.4g} "
                  f"{100 * v['change']:>+7.1f}% "
                  f"{v['wins']:>2d}/{v['pairs']:<3d}  {v['verdict']}"
                  + (f" (spread {v['spread']:.3f} > bound "
                     f"{metric['bound']})"
                     if v["verdict"] == "unresolved" else ""))
    missing = set(base_runs) ^ set(new_runs)
    if missing:
        print(f"workloads on one side only: {sorted(missing)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

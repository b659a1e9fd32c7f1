#!/usr/bin/env python
"""Scaling the dictionary: composition and dynamic STT replacement.

The paper's §5/§6 story: one tile holds ~1500 states; bigger dictionaries
either spread over tiles "in series" (resident, full speed) or cycle
through half-size STT slots streamed from main memory (unlimited size,
throughput decaying as 5.11/(2(n−1))).  This example walks a dictionary up
through all three regimes and prints the modelled deployments, then
verifies functionally that every regime finds exactly the same matches.

Run:  python examples/large_dictionary.py
"""

from repro.analysis import ascii_table
from repro.core import CellStringMatcher
from repro.core.scan import VectorDFAEngine
from repro.core.planner import plan_tile
from repro.dfa import build_dfa, case_fold_32
from repro.workloads import ascii_keywords, plant_matches, random_payload


def main() -> None:
    fold = case_fold_32()
    # A deliberately small tile (≈270 states) so the regime changes are
    # visible with a few hundred signatures instead of tens of thousands.
    plan = plan_tile(buffer_bytes=94 * 1024, num_buffers=2)
    print(f"demo tile budget: {plan.max_states} states "
          f"(a real tile holds {plan_tile().max_states})\n")

    rows = []
    reports = {}
    for count in (20, 120, 400, 1500):
        words = ascii_keywords(count, seed=13)
        matcher = CellStringMatcher(words, plan=plan)
        rows.append([
            count,
            matcher.partition.num_slices,
            matcher.configuration.split(":")[0],
            matcher.spes_used,
            round(matcher.modelled_gbps, 2),
        ])
        reports[count] = matcher
    print(ascii_table(
        ["signatures", "slices", "regime", "SPEs", "modelled Gbps"],
        rows, title="dictionary size vs deployment regime"))

    # Functional check: the replacement-regime matcher agrees with a
    # monolithic DFA over the same (folded) dictionary.
    words = ascii_keywords(1500, seed=13)
    matcher = reports[1500]
    folded = [fold.fold_bytes(w) for w in words]
    payload = plant_matches(random_payload(20_000, seed=3), folded, 60,
                            seed=4)
    mono = VectorDFAEngine(build_dfa(folded, 32))
    # payload is already folded symbols; scan the slice engines directly
    # rather than through the matcher's fold.
    slice_total = matcher.replacement.scan_block(payload)[0] \
        if matcher.replacement else None
    print(f"\nfunctional check (20 KB payload, 60 planted hits):")
    print(f"  monolithic DFA : {mono.count_block(payload)} final entries")
    print(f"  {matcher.partition.num_slices} cycled slices: "
          f"{slice_total} final entries (equal: "
          f"{slice_total == mono.count_block(payload)})")


if __name__ == "__main__":
    main()

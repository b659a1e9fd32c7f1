#!/usr/bin/env python
"""Deployment workflow: compile once, ship the artifact, scan flows.

A realistic operator loop on top of the library:

1. compile the rule set (case-insensitive exact strings) once, on the
   control plane, into an :class:`ArtifactCache` directory — one
   versioned ``.npz`` file keyed by the rule set's content fingerprint;
2. on the "appliance" side, compile the same rules through the same
   cache: the artifact loads with zero automaton builds (a corrupt or
   stale file would be a miss and a recompile, never a wrong scan);
3. scan interleaved per-connection traffic with :class:`FlowMatcher`,
   which keeps DFA state per flow so signatures split across packets of
   the same connection still match — the property the paper's 16 lanes
   (16 flows) rely on.

Run:  python examples/flow_deployment.py
"""

import tempfile

import numpy as np

from repro.core.compiled import COUNTERS, ArtifactCache, compile_dictionary
from repro.core.flows import FlowMatcher
from repro.workloads import http_requests


RULES = [b"UNION SELECT", b"ETC PASSWD", b"CMD EXE", b"SCRIPT ALERT"]


def main() -> None:
    with tempfile.TemporaryDirectory() as cache_dir:
        # -- 1. compile + store on the control plane ------------------------
        built = compile_dictionary(RULES, cache=ArtifactCache(cache_dir))
        path = ArtifactCache(cache_dir).path_for(built.fingerprint)
        print(f"rule set   : {len(RULES)} rules -> "
              f"{built.total_states}-state DFA")
        print(f"artifact   : {path.name[:16]}... "
              f"{path.stat().st_size} bytes")

        # -- 2. load on the data plane --------------------------------------
        builds = COUNTERS["automaton_builds"]
        loaded = compile_dictionary(RULES, cache=ArtifactCache(cache_dir))
        print(f"loaded     : {loaded.total_states} states, fold width "
              f"{loaded.fold.width}, "
              f"{COUNTERS['automaton_builds'] - builds} automaton builds\n")
    (loaded_dfa,), loaded_fold = loaded.dfas, loaded.fold

    # -- 3. interleaved flow traffic -----------------------------------------
    matcher = FlowMatcher(loaded_dfa)
    rng = np.random.default_rng(11)
    requests = http_requests(120, seed=12, inject=[RULES[0], RULES[2]])

    # Fragment each request into small packets; flows arrive interleaved
    # but packets stay ordered within their flow (TCP's guarantee).
    tagged = []
    for flow_id, request in enumerate(requests):
        folded = loaded_fold.fold_bytes(request)
        pos = 0
        seq = 0
        while pos < len(folded):
            size = int(rng.integers(20, 120))
            tagged.append((f"conn-{flow_id}", seq, folded[pos:pos + size],
                           rng.random()))
            pos += size
            seq += 1
    # Interleave across flows (random arrival) but keep per-flow order.
    tagged.sort(key=lambda item: (item[3], item[0]))
    tagged.sort(key=lambda item: item[1])  # stable: seq asc, flows mixed
    packets = [(fid, payload) for fid, _, payload, _ in tagged]

    counts = matcher.scan_batch(packets)
    flagged = {fid for (fid, _), c in zip(packets, counts) if c}
    print(f"traffic    : {len(requests)} connections, "
          f"{len(packets)} packets")
    print(f"alerts     : {matcher.total_matches()} rule hits across "
          f"{len(flagged)} flagged connections")

    # Cross-check: whole-request scanning must agree.
    expected = sum(loaded_dfa.count_matches(loaded_fold.fold_bytes(r))
                   for r in requests)
    print(f"cross-check: whole-request scan finds {expected} "
          f"(equal: {expected == matcher.total_matches()})")


if __name__ == "__main__":
    main()

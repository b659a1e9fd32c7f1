"""The four service workloads: daemon flags, seeded traffic, checks.

Each workload is built from ``--seed`` alone, and the daemon receives
only the generated bytes.  The dictionary is ``sig2k``:
``ascii_keywords(2000, seed)``, about 4.6k states and screenable by the
prefilter.  Every request stream is endless; the harness decides how
long to draw from it.  A stream yields ``(Op, payload)`` pairs, and
``Op.key`` lets :meth:`Workload.payload` rebuild the payload after the
run, so the correctness checks run off the clock and no payload stays
in memory.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from harness import Op, Record
from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.compiled import compile_dictionary
from repro.policy.rules import Rule, RuleSet
from repro.service.sessions import SessionScanner
from repro.workloads import ascii_keywords, packet_stream, tenant_traffic

#: Distinct payloads per connection; streams cycle through their pool.
POOL = 4096
#: A seeded 1-in-SAMPLE share of SCANs and flows is checked.
SAMPLE = 8
#: Connection index the unloaded probe draws its requests from; its
#: flow ids never collide with the load's.
PROBE_CONN = 7


def sampled(seed: int, *key) -> bool:
    """The seeded 1-in-:data:`SAMPLE` choice of what to check."""
    return zlib.crc32(repr((seed,) + key).encode()) % SAMPLE == 0


class Workload:
    """Base class: the dictionary, its reference and the shared checks."""

    name = ""
    connections = 2
    #: Requests in the traced replay and in the unloaded probe.
    replay_n = 2000
    #: Extra ``repro serve`` flags.
    flags: Tuple[str, ...] = ()

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.patterns = ascii_keywords(2000, seed)
        self.compiled = compile_dictionary(self.patterns)
        self.patterns_file = work / "sig2k.txt"
        self.patterns_file.write_bytes(b"\n".join(self.patterns) + b"\n")

    # -- what the daemon runs -------------------------------------------------------

    def serve_args(self) -> List[str]:
        return ["--patterns-file", str(self.patterns_file), *self.flags]

    def stream(self, conn: int) -> Iterator[Tuple[Op, object]]:
        raise NotImplementedError

    def payload(self, key) -> bytes:
        raise NotImplementedError

    def tenant_dictionaries(self) -> Dict[Optional[str], Sequence[bytes]]:
        """Dictionary per tenant (``None`` = the default registry)."""
        return {None: self.patterns}

    def tenant_specs(self) -> Dict[str, Dict]:
        """The ``--tenants-json`` document (no tenants by default)."""
        return {}

    # -- correctness ----------------------------------------------------------------

    def check(self, records: Sequence[Record], stats: Dict) -> List[str]:
        """Failure messages for one daemon's records (empty = correct)."""
        failures = self._check_scans(records) + self._check_flows(records)
        if "pool" in stats:
            builds = sum(int(w["automaton_builds"])
                         for w in stats["pool"]["workers"])
            if builds:
                failures.append(f"pool workers built {builds} automata; "
                                f"they must attach, never build")
        return failures

    def scan_reference(self, key) -> int:
        return len(self.compiled.match_events(self.payload(key)))

    def _check_scans(self, records: Sequence[Record]) -> List[str]:
        failures = []
        for r in records:
            if r.op.kind != "scan" or not r.op.sample or r.error:
                continue
            expected = self.scan_reference(r.op.key)
            if r.matches != expected:
                failures.append(f"SCAN {r.op.key}: daemon counted "
                                f"{r.matches}, reference {expected}")
        return failures

    def _check_flows(self, records: Sequence[Record]) -> List[str]:
        """Each sampled flow's running ``flow_total`` must equal an
        in-process :class:`SessionScanner` replay of its packets."""
        by_flow: Dict[str, List[Record]] = {}
        for r in records:
            if r.op.kind == "flow" and sampled(self.seed, r.op.flow):
                by_flow.setdefault(r.op.flow, []).append(r)
        dictionaries = self.tenant_dictionaries()
        scanners = {}
        failures = []
        for flow, recs in by_flow.items():
            if any(r.error for r in recs):
                failures.append(f"flow {flow}: a packet failed, so its "
                                f"total cannot be checked")
                continue
            tenant = recs[0].op.tenant
            if tenant not in scanners:
                scanners[tenant] = SessionScanner(
                    compile_dictionary(dictionaries[tenant]))
            for r in recs:
                _, total, _ = scanners[tenant].scan_packet(
                    flow, self.payload(r.op.key))
                if r.flow_total != total:
                    failures.append(f"flow {flow}: daemon total "
                                    f"{r.flow_total}, reference {total}")
                    break
        return failures


class _PacketPools:
    """Per-connection pools of ``packet_stream`` packets: 64-1500 B over
    all 256 byte values, 30% carrying one planted ``sig2k`` entry."""

    def __init__(self, seed: int, patterns: Sequence[bytes]) -> None:
        self.seed = seed
        self.patterns = patterns
        self._pools: Dict[int, List[bytes]] = {}

    def __call__(self, conn: int) -> List[bytes]:
        pool = self._pools.get(conn)
        if pool is None:
            pool = self._pools[conn] = packet_stream(
                POOL, min_size=64, max_size=1500, alphabet_size=256,
                patterns=self.patterns, match_fraction=0.3,
                seed=self.seed * 1009 + conn)
        return pool


class Packets(Workload):
    name = "packets"
    #: Connection 0 RELOADs after every this many of its own SCANs,
    #: about once per 250 requests over both connections.  About 5.5% of
    #: SCANs then overlap a swap and p99 measures the swap's delay.  At
    #: one RELOAD per 1,000 requests about 1.5% overlapped, p99 sat on
    #: the edge of that population, and its ten-seed spread reached 12%.
    reload_every = 125

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.pools = _PacketPools(seed, self.patterns)

    def payload(self, key) -> bytes:
        conn, j = key
        return self.pools(conn)[j]

    def stream(self, conn: int) -> Iterator[Tuple[Op, object]]:
        pool = self.pools(conn)
        i = 0
        while True:
            if conn == 0 and i and i % self.reload_every == 0:
                yield Op("reload"), self.patterns
            j = i % POOL
            yield Op("scan", key=(conn, j), nbytes=len(pool[j]),
                     sample=sampled(self.seed, conn, i)), pool[j]
            i += 1

    def check(self, records: Sequence[Record], stats: Dict) -> List[str]:
        failures = super().check(records, stats)
        served = {1} | {r.generation for r in records
                        if r.op.kind == "reload" and not r.error}
        stray = {r.generation for r in records
                 if r.op.kind == "scan" and not r.error} - served
        if stray:
            failures.append(f"SCAN replies from generations {stray} that "
                            f"no RELOAD produced")
        return failures


class Bulk(Workload):
    name = "bulk"
    connections = 1
    replay_n = 50
    #: At 2 MiB the daemon's periodic gen-2 GC pause (~6 ms) lands on
    #: about 1 request in 136, right at the p99 boundary, so p99 flipped
    #: between the pause and the plain tail from run to run.  At 4 MiB
    #: the pause hits about 1.5% of requests and p99 measures it steadily.
    block_bytes = 4 << 20
    #: About one planted entry per 64 KiB.
    plants = 64
    #: Distinct blocks, built before the run and sent in turn (64 MiB,
    #: far past any cache).  Building each block on demand kept the one
    #: client thread busy for a third of the wall time while the daemon
    #: idled, so throughput measured the generator as well.
    blocks = 16

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self._ctx = ScanContext(self.compiled)
        self._blocks = [self._build(k) for k in range(self.blocks)]
        self._expected: Dict[int, int] = {}

    def payload(self, key) -> bytes:
        return self._blocks[key]

    def _build(self, key: int) -> bytes:
        rng = np.random.default_rng([self.seed, key])
        buf = rng.integers(0, 256, self.block_bytes, dtype=np.uint8)
        for _ in range(self.plants):
            p = self.patterns[int(rng.integers(0, len(self.patterns)))]
            pos = int(rng.integers(0, self.block_bytes - len(p)))
            buf[pos:pos + len(p)] = np.frombuffer(p, dtype=np.uint8)
        return buf.tobytes()

    def stream(self, conn: int) -> Iterator[Tuple[Op, object]]:
        i = 0
        while True:
            k = i % self.blocks
            yield Op("scan", key=k, nbytes=self.block_bytes,
                     sample=sampled(self.seed, conn, i)), self.payload(k)
            i += 1

    def scan_reference(self, key) -> int:
        # A different kernel from the one the daemon's planner picks,
        # and no screening, so a prefilter or union-kernel bug shows.
        # Each block is checked against one reference count, however
        # often it was sent.
        if key not in self._expected:
            request = ScanRequest(data=self.payload(key), prefilter=False)
            self._expected[key] = execute(self._ctx, request,
                                          "chunked").total_matches
        return self._expected[key]


#: Rule groups of tenant ``acme``: disjoint slices of ``sig2k``.
ACME_GROUP = 50
ACME_ACTIONS = ("drop", "alert", "mirror")


def acme_rulesets(patterns: Sequence[bytes]) -> List[RuleSet]:
    """The two rule sets ``flows`` swaps between: the same three groups
    with the actions rotated.  No rate-limit rules: token buckets read
    the wall clock, which would make verdicts depend on timing."""
    groups = [tuple(patterns[g * ACME_GROUP:(g + 1) * ACME_GROUP])
              for g in range(len(ACME_ACTIONS))]
    return [RuleSet(tuple(
        Rule(name=f"{ACME_ACTIONS[(g + shift) % 3]}-{g}",
             action=ACME_ACTIONS[(g + shift) % 3], patterns=group)
        for g, group in enumerate(groups))) for shift in (0, 1)]


class Flows(Workload):
    name = "flows"
    #: Connection 0 swaps acme's POLICY after every this many of its own
    #: packets, about once per 250 requests over both connections.
    policy_every = 125
    flows_per_tenant = 512

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.beta = ascii_keywords(500, seed + 7919)
        self.rulesets = acme_rulesets(self.patterns)
        self.actions = {"forward"} | set(ACME_ACTIONS)
        self.tenants_file = work / "tenants.json"
        self.tenants_file.write_text(json.dumps(self.tenant_specs()))
        self._pools: Dict[int, list] = {}

    def tenant_specs(self) -> Dict[str, Dict]:
        """The ``--tenants-json`` document."""
        return {
            "acme": {"patterns": [p.decode() for p in self.patterns],
                     "rules": self.rulesets[0].to_specs()},
            "beta": {"patterns": [p.decode() for p in self.beta]},
        }

    def serve_args(self) -> List[str]:
        return super().serve_args() + ["--tenants-json",
                                       str(self.tenants_file)]

    def tenant_dictionaries(self) -> Dict[Optional[str], Sequence[bytes]]:
        return {"acme": self.patterns, "beta": self.beta}

    def _pool(self, conn: int) -> list:
        pool = self._pools.get(conn)
        if pool is None:
            pool = self._pools[conn] = tenant_traffic(
                ["acme", "beta"], POOL,
                flows_per_tenant=self.flows_per_tenant,
                attack_patterns={"acme": self.patterns[:4 * ACME_GROUP],
                                 "beta": self.beta[:100]},
                attack_fraction=0.05, seed=self.seed * 1009 + conn)
        return pool

    def payload(self, key) -> bytes:
        conn, j = key
        return self._pool(conn)[j].payload

    def stream(self, conn: int) -> Iterator[Tuple[Op, object]]:
        pool = self._pool(conn)
        specs = [rs.to_specs() for rs in self.rulesets]
        i = 0
        while True:
            if conn == 0 and i and i % self.policy_every == 0:
                swap = i // self.policy_every
                yield Op("policy", tenant="acme"), specs[swap % 2]
            j = i % POOL
            pkt = pool[j]
            # The connection index in the flow id keeps each flow on one
            # connection, so its packet order is deterministic.
            yield Op("flow", key=(conn, j), nbytes=len(pkt.payload),
                     flow=f"c{conn}:{pkt.flow}",
                     tenant=pkt.tenant), pkt.payload
            i += 1

    def check(self, records: Sequence[Record], stats: Dict) -> List[str]:
        failures = super().check(records, stats)
        flows = [r for r in records if r.op.kind == "flow" and not r.error]
        odd = {r.action for r in flows} - self.actions
        if odd:
            failures.append(f"verdicts outside the configured actions: "
                            f"{sorted(odd)}")
        judged = sum(sum(t["actions"].values())
                     for t in stats["metrics"]["tenants"].values())
        if judged != len(flows):
            failures.append(f"daemon judged {judged} packets, the client "
                            f"got {len(flows)} FLOW replies")
        return failures


class PoolMixed(Workload):
    name = "pool-mixed"
    flags = ("--pool-workers", "1")
    flows_per_conn = 128

    def __init__(self, seed: int, work: Path) -> None:
        super().__init__(seed, work)
        self.pools = _PacketPools(seed + 1, self.patterns)

    def payload(self, key) -> bytes:
        conn, j = key
        return self.pools(conn)[j]

    def stream(self, conn: int) -> Iterator[Tuple[Op, object]]:
        pool = self.pools(conn)
        i = 0
        while True:
            j = i % POOL
            if i % 2 == 0:
                op = Op("scan", key=(conn, j), nbytes=len(pool[j]),
                        sample=sampled(self.seed, conn, i))
            else:
                op = Op("flow", key=(conn, j), nbytes=len(pool[j]),
                        flow=f"c{conn}-f{(i // 2) % self.flows_per_conn}")
            yield op, pool[j]
            i += 1


WORKLOADS = {cls.name: cls for cls in (Packets, Bulk, Flows, PoolMixed)}

"""Gateway + worker-pool mode: consistent-hash placement, parity with
the single-process daemon, crash/restart accounting, merged STATS, and
the many-flow LRU stress across four workers."""

import json
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.service import (ConsistentHashRing, ScanService,
                           ServiceClient, ServiceConfig, ServiceError,
                           ServiceThread, run_load)
from repro.service.pool import PoolError
from repro.service.protocol import encode_frame

PATTERNS = ["virus", "worm", "trojan"]


@contextmanager
def pooled_service(patterns=PATTERNS, workers=2, **config_kwargs):
    config = ServiceConfig(port=0, pool_workers=workers,
                           **config_kwargs)
    with ServiceThread(ScanService(patterns, config=config)) as handle:
        yield handle


def pool_stats(handle):
    with ServiceClient(handle.host, handle.port) as client:
        return client.stats()


class TestConsistentHashRing:
    def test_placement_deterministic_across_instances(self):
        a, b = ConsistentHashRing(4), ConsistentHashRing(4)
        alive = [True] * 4
        for i in range(200):
            key = f"flow-{i}"
            assert a.place("", key, alive) == b.place("", key, alive)
            assert a.place("acme", key, alive) == \
                b.place("acme", key, alive)

    def test_tenant_namespaces_flows(self):
        ring = ConsistentHashRing(4)
        alive = [True] * 4
        owners = {ring.place(t, "same-flow-id", alive)
                  for t in ("", "acme", "beta", "gamma", "delta")}
        # Same flow id under different tenants is a different key; with
        # five tenants over four workers at least two owners differ.
        assert len(owners) > 1

    def test_balance_within_vnode_tolerance(self):
        ring = ConsistentHashRing(4)
        alive = [True] * 4
        counts = [0] * 4
        for i in range(8000):
            counts[ring.place("", f"flow-{i}", alive)] += 1
        for c in counts:
            assert 0.12 <= c / 8000 <= 0.40, counts

    def test_dead_worker_moves_only_its_own_keys(self):
        ring = ConsistentHashRing(4)
        all_alive = [True] * 4
        sans_two = [True, True, False, True]
        for i in range(500):
            owner = ring.place("", f"flow-{i}", all_alive)
            fallback = ring.place("", f"flow-{i}", sans_two)
            if owner != 2:
                # Keys on live workers never move when another dies.
                assert fallback == owner
            else:
                assert fallback != 2

    def test_restarted_worker_reclaims_its_span(self):
        ring = ConsistentHashRing(4)
        all_alive = [True] * 4
        owners = {f"flow-{i}": ring.place("", f"flow-{i}", all_alive)
                  for i in range(200)}
        # The ring is keyed by index, so coming back == same spans.
        for key, owner in owners.items():
            assert ring.place("", key, all_alive) == owner

    def test_no_alive_workers_raises(self):
        with pytest.raises(PoolError):
            ConsistentHashRing(2).place("", "f", [False, False])

    def test_size_validation(self):
        with pytest.raises(PoolError):
            ConsistentHashRing(0)


class TestPoolParity:
    def test_scan_and_flow_match_single_process_daemon(self):
        payloads = [b"a Virus and a WoRm walked into a bar",
                    b"clean traffic " * 40,
                    b"tro" + b"jan" * 3]
        with pooled_service() as pooled, \
                ServiceThread(ScanService(
                    PATTERNS, config=ServiceConfig(port=0))) as plain:
            with ServiceClient(pooled.host, pooled.port) as pc, \
                    ServiceClient(plain.host, plain.port) as sc:
                for payload in payloads:
                    a, b = pc.scan(payload), sc.scan(payload)
                    assert a.matches == b.matches
                    assert a.bytes_scanned == b.bytes_scanned
                for j, payload in enumerate(payloads):
                    fid = f"flow-{j % 2}"
                    a = pc.scan_packet(fid, payload)
                    b = sc.scan_packet(fid, payload)
                    assert a.matches == b.matches
                    assert a.flow_total == b.flow_total
                assert pc.close_flow("flow-0") == sc.close_flow("flow-0")

    def test_split_pattern_across_packets_stays_sessioned(self):
        with pooled_service() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.scan_packet("f1", "a vi").matches == 0
                follow = client.scan_packet("f1", "rus!")
                assert follow.matches == 1
                assert client.close_flow("f1") == (8, 1)

    def test_workers_never_build_automatons(self):
        with pooled_service(workers=2) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.scan(b"virus traffic")
                assert client.reload(["alpha", "omega"]).generation == 2
                assert client.scan(b"alpha!").matches == 1
                stats = client.stats()
        pool = stats["pool"]
        assert pool["size"] == 2
        for worker in pool["workers"]:
            # Compile once in the gateway, attach everywhere: not even
            # the reload built an automaton inside a worker.
            assert worker["automaton_builds"] == 0, pool
            assert worker["generation"] == 2, pool

    def test_tenant_lifecycle_fans_out(self):
        with pooled_service() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.tenant_create("acme", ["alpha"], rules=[
                    {"name": "drop-alpha", "action": "drop",
                     "patterns": ["alpha"]}])
                hit = client.scan_packet("f1", b"alpha!",
                                         tenant="acme")
                assert hit.matches == 1
                assert hit.action == "drop"
                clean = client.scan(b"no hits here", tenant="acme")
                assert clean.matches == 0
                client.tenant_delete("acme")
                with pytest.raises(ServiceError):
                    client.scan(b"x", tenant="acme")

    def test_policy_swap_fans_out(self):
        with pooled_service() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.tenant_create("acme", ["alpha"])
                before = client.scan_packet("f1", b"alpha!",
                                            tenant="acme")
                assert before.action == "forward"
                client.set_policy("acme", [
                    {"name": "drop-alpha", "action": "drop",
                     "patterns": ["alpha"]}])
                after = client.scan_packet("f2", b"alpha!",
                                           tenant="acme")
                assert after.action == "drop"

    def test_tenant_path_headers_match_in_process(self):
        """Every reply header field (minus timing) agrees across modes
        on the tenant path: verdict fields, event truncation and the
        tenant CLOSE_FLOW action."""
        rules = [{"name": "drop-alpha", "action": "drop",
                  "patterns": ["alpha"]},
                 {"name": "alert-beta", "action": "alert",
                  "patterns": ["beta"]}]

        def script(handle):
            replies = []
            with ServiceClient(handle.host, handle.port) as client:
                def send(header, payload=b""):
                    reply = dict(client.request(header, payload).header)
                    reply.pop("seconds", None)
                    replies.append(reply)

                client.tenant_create("acme", ["alpha", "beta", "virus"],
                                     rules=rules, mode="accumulate")
                for fid, payload in (("f1", b"a beta here"),
                                     ("f1", b"then alpha!"),
                                     ("f2", b"nothing"),
                                     ("f2", b"virus beta")):
                    send({"verb": "FLOW", "id": 1, "tenant": "acme",
                          "flow": fid}, payload)
                send({"verb": "SCAN", "id": 2, "events": True},
                     b"virus " * 5)
                send({"verb": "SCAN", "id": 3, "tenant": "acme",
                      "events": True}, b"alpha beta virus alpha")
                for fid in ("f1", "f2"):
                    send({"verb": "CLOSE_FLOW", "id": 4,
                          "tenant": "acme", "flow": fid})
            return replies

        with pooled_service(workers=1, max_events=2) as pooled:
            pooled_replies = script(pooled)
        with ServiceThread(ScanService(PATTERNS, config=ServiceConfig(
                port=0, max_events=2))) as plain:
            plain_replies = script(plain)
        assert pooled_replies == plain_replies
        fields = set().union(*pooled_replies)
        assert {"action", "rule", "triggered",
                "events_truncated"} <= fields, fields
        assert pooled_replies[1]["action"] == "drop"
        assert pooled_replies[-2]["action"] == "drop"


class TestReloadUnderLoad:
    def test_zero_failures_across_hot_swaps(self):
        with pooled_service(workers=2, max_pending=256) as handle:
            with ServiceClient(handle.host, handle.port) as admin:
                stop = threading.Event()

                def _reloader():
                    sets = [["alpha", "omega"], PATTERNS]
                    for i in range(200):
                        admin.reload(sets[i % 2])
                        if stop.wait(0.01):
                            break

                t = threading.Thread(target=_reloader, daemon=True)
                t.start()
                result = run_load(
                    handle.host, handle.port, connections=2,
                    requests_per_connection=80, mode="flow",
                    flows_per_connection=4,
                    patterns=[p.encode() for p in PATTERNS],
                    match_fraction=0.3, seed=11)
                stop.set()
                t.join(timeout=60)
                stats = admin.stats()
        assert result.errors == 0, result.error_codes
        assert len(result.generations) >= 2, \
            "no reload landed during the run"
        pool = stats["pool"]
        assert pool["restarts"] == 0
        gens = {w["generation"] for w in pool["workers"]}
        assert len(gens) == 1, f"workers diverged: {gens}"
        for worker in pool["workers"]:
            assert worker["automaton_builds"] == 0, pool


class TestCrashRestart:
    def _flow_owned_by(self, index, workers=2):
        ring = ConsistentHashRing(workers)
        alive = [True] * workers
        for i in range(10000):
            fid = f"victim-{i}"
            if ring.place("", fid, alive) == index:
                return fid
        raise AssertionError("no flow hashed onto the worker")

    def test_killed_worker_restarts_and_accounts_requests(self):
        with pooled_service(workers=2, max_pending=64) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                fid = self._flow_owned_by(0)
                first = client.scan_packet(fid, b"a vi")
                assert first.matches == 0

                victim = pool_stats(handle)["pool"]["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)

                # Drive requests through the crash window: every one
                # either succeeds or comes back as an explicit error —
                # never a hang, never a silent drop.
                attempts, failures = 0, 0
                deadline = time.monotonic() + 20.0
                recovered = False
                while time.monotonic() < deadline:
                    attempts += 1
                    try:
                        reply = client.scan_packet(fid, b"rus!")
                    except ServiceError as exc:
                        failures += 1
                        assert exc.code in ("worker-crash", "busy"), exc
                        time.sleep(0.05)
                        continue
                    recovered = True
                    break
                assert recovered, "worker never came back"

                # The crashed worker lost its sessions: the flow was
                # re-created (on the replacement or a ring neighbour),
                # so the split pattern does not complete across the
                # crash.
                assert reply.flow_total == 0

                # The replacement may still be handshaking when the
                # rerouted request already succeeded — wait for the
                # fleet to report fully alive.
                while time.monotonic() < deadline:
                    stats = client.stats()
                    if all(w["alive"]
                           for w in stats["pool"]["workers"]):
                        break
                    time.sleep(0.05)
        pool = stats["pool"]
        assert pool["restarts"] >= 1
        assert all(w["alive"] for w in pool["workers"]), pool
        # Dropped requests are accounted, not silently discarded.
        assert stats["metrics"]["admission"]["rejected"] >= failures
        assert attempts == failures + 1

    def test_surviving_worker_keeps_serving_during_crash(self):
        with pooled_service(workers=2, max_pending=64) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                safe = self._flow_owned_by(1)
                client.scan_packet(safe, b"a vi")
                victim = pool_stats(handle)["pool"]["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                # The other worker's span is untouched: its session
                # survives and completes the split match immediately.
                follow = client.scan_packet(safe, b"rus!")
                assert follow.matches == 1
                assert follow.flow_total == 1

    def test_restarted_worker_joins_at_active_generation(self):
        with pooled_service(workers=2) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.reload(["alpha", "omega"]).generation == 2
                victim = pool_stats(handle)["pool"]["workers"][0]
                os.kill(victim["pid"], signal.SIGKILL)
                deadline = time.monotonic() + 20.0
                while time.monotonic() < deadline:
                    pool = client.stats()["pool"]
                    if all(w["alive"] for w in pool["workers"]):
                        break
                    time.sleep(0.05)
                assert all(w["alive"] for w in pool["workers"]), pool
                # The replacement initialized from the pool's current
                # bundle: generation 2, still zero builds.
                for worker in pool["workers"]:
                    assert worker["generation"] == 2, pool
                    assert worker["automaton_builds"] == 0, pool
                assert client.scan(b"omega!").matches == 1


class TestMergedStats:
    def test_counters_merge_across_gateway_and_workers(self):
        scan_payloads = [b"virus one", b"clean " * 10, b"worm worm"]
        flow_payloads = [b"trojan ride", b"nothing to see"]
        with pooled_service(workers=2) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                for p in scan_payloads:
                    client.scan(p)
                for j, p in enumerate(flow_payloads):
                    client.scan_packet(f"flow-{j}", p)
                stats = client.stats()
        m = stats["metrics"]
        assert m["requests"]["SCAN"] == len(scan_payloads)
        assert m["requests"]["FLOW"] == len(flow_payloads)
        assert m["bytes_scanned"] == sum(
            len(p) for p in scan_payloads + flow_payloads)
        assert m["errors"] == 0
        # The per-backend latency view merges worker histograms: every
        # scan and flow packet shows up exactly once in the union.
        assert sum(h["count"] for h in m["backends"].values()) == \
            len(scan_payloads) + len(flow_payloads)
        pool = stats["pool"]
        assert pool["flows"] == len(flow_payloads)
        assert pool["flows"] == sum(w["flows"]
                                    for w in pool["workers"])

    def test_tenant_counters_survive_the_merge(self):
        with pooled_service() as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.tenant_create("acme", ["alpha"])
                client.scan(b"alpha!", tenant="acme")
                client.scan_packet("f1", b"alpha!", tenant="acme")
                stats = client.stats()
        tenants = stats["metrics"]["tenants"]
        assert tenants["acme"]["requests"] == 2

    def test_metrics_json_keeps_worker_counters(self, tmp_path):
        """``serve --pool-workers N --metrics-json`` writes the
        pool-wide counters: scans are recorded in the workers, so the
        gateway must fold their final metrics in at shutdown."""
        out = tmp_path / "metrics.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--pattern", "virus",
             "--pattern", "worm", "--port", "0", "--pool-workers", "1",
             "--metrics-json", str(out)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving"), line
            host, port = line.split(" on ")[1].split(" ")[0].rsplit(":", 1)
            with ServiceClient(host, int(port)) as client:
                for _ in range(5):
                    client.scan(b"a virus and a worm")
                live = client.stats()["metrics"]
            proc.send_signal(signal.SIGTERM)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert live["bytes_scanned"] == 90 and live["matches"] == 10
        assert json.loads(out.read_text()) == live


class TestManyFlowsStress:
    #: Total flow sessions pushed through the pool.  The full 100k-flow
    #: stress needs a core per worker to stay tier-1-fast, so hosts
    #: with fewer cores run a scaled-down sweep of the same shape;
    #: REPRO_POOL_STRESS_FLOWS pins either way (CI pins 100000).
    FLOWS = int(os.environ.get(
        "REPRO_POOL_STRESS_FLOWS",
        "100000" if (os.cpu_count() or 1) >= 4 else "20000"))

    def test_lru_sessions_across_four_workers(self):
        """≥100k distinct flows across 4 workers with a bounded LRU
        table: raw-socket pipelining with a bounded window, asserting
        zero error responses and a consistent fleet-wide flow count."""
        workers, conns, window = 4, 4, 256
        per_conn = self.FLOWS // conns
        max_flows = 4096
        payload = b"cleanpkt"      # no matches: the stress is the
        # session table (create/evict churn), not the match path
        with pooled_service(workers=workers, max_pending=2048,
                            max_flows=max_flows,
                            session_policy="lru") as handle:
            results = {}

            def drive(ci):
                s = socket.create_connection((handle.host, handle.port))
                s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                rf = s.makefile("rb")
                sent = recvd = bad = 0
                try:
                    while recvd < per_conn:
                        while sent < per_conn and sent - recvd < window:
                            s.sendall(encode_frame(
                                {"verb": "FLOW", "id": sent,
                                 "flow": f"c{ci}-f{sent}"}, payload))
                            sent += 1
                        size = struct.unpack(">I", rf.read(4))[0]
                        body = rf.read(size)
                        if b'"ok":true' not in body:
                            bad += 1
                        recvd += 1
                finally:
                    s.close()
                results[ci] = (recvd, bad)

            threads = [threading.Thread(target=drive, args=(i,))
                       for i in range(conns)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = pool_stats(handle)

        assert sum(r for r, _ in results.values()) == per_conn * conns
        assert sum(b for _, b in results.values()) == 0, results
        m = stats["metrics"]
        assert m["requests"]["FLOW"] == per_conn * conns
        assert m["errors"] == 0
        pool = stats["pool"]
        assert pool["restarts"] == 0
        # The LRU bound holds per worker and fleet-wide...
        assert pool["flows"] <= workers * max_flows
        # ...and the hash spread every connection's flows across the
        # whole fleet.
        for worker in pool["workers"]:
            assert worker["flows"] > 0, pool
            assert worker["flows"] <= max_flows, pool
            assert worker["automaton_builds"] == 0, pool


class TestConfig:
    def test_negative_pool_workers_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(pool_workers=-1).validate()

    def test_stats_reports_pool_config(self):
        with pooled_service(workers=2) as handle:
            stats = pool_stats(handle)
        assert stats["config"]["pool_workers"] == 2
        assert stats["pool"]["per_worker_cap"] >= 1
        payload = json.dumps(stats)      # STATS stays JSON-clean
        assert "pool" in payload

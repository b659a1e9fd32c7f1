"""End-to-end daemon tests: protocol verbs, admission control,
graceful drain, and hot reloads under concurrent scan load."""

import asyncio
import socket
import threading
import time
from contextlib import contextmanager

import pytest

from repro.core import backends as backends_mod
from repro.core.compiled import compile_dictionary
from repro.service import (ScanService, ServiceClient, ServiceConfig,
                           ServiceError, ServiceThread, run_load)


@contextmanager
def running_service(patterns, **config_kwargs):
    config = ServiceConfig(port=0, **config_kwargs)
    with ServiceThread(ScanService(patterns, config=config)) as handle:
        yield handle


@contextmanager
def sleepy_backend(delay: float):
    """Register a block backend that sleeps — makes admission-control
    races deterministic."""

    class SleepyBackend(backends_mod.ScanBackend):
        name = "sleepy"
        kinds = ("block",)
        description = "test-only backend that sleeps"

        def scan(self, ctx, request):
            time.sleep(delay)
            return backends_mod.ScanOutcome(
                total_matches=0, bytes_scanned=len(request.data),
                backend=self.name)

    backends_mod.register_backend(SleepyBackend)
    try:
        yield
    finally:
        backends_mod._REGISTRY.pop("sleepy", None)


class TestVerbs:
    """Every verb round-trips; the ``...Pooled`` subclass runs the same
    tests through the gateway and one worker process."""

    pool_workers = 0

    def test_scan_flow_reload_stats_roundtrip(self):
        with running_service(["virus", "worm"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.ping() == 1

                scan = client.scan("a Virus and a WoRm")
                assert scan.matches == 2
                assert scan.generation == 1
                assert scan.bytes_scanned == 18

                assert client.scan_packet("f1", "a vi").matches == 0
                follow = client.scan_packet("f1", "rus!")
                assert follow.matches == 1
                assert follow.flow_total == 1
                assert client.close_flow("f1") == (8, 1)

                reply = client.reload(["trojan"])
                assert reply.generation == 2
                assert client.scan("virus trojan").matches == 1

                stats = client.stats()
                assert stats["generation"] == 2
                assert stats["metrics"]["requests"]["SCAN"] == 2
                assert stats["metrics"]["reloads"]["count"] == 1
                assert stats["registry"]["patterns"] == 1
                assert "reload_strategy" in stats

    def test_scan_with_events_and_truncation(self):
        with running_service(["ab"], max_events=2,
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                result = client.scan("ab ab ab", events=True)
                assert result.matches == 3
                assert len(result.events) == 2
                assert result.events_truncated == 1

    def test_per_request_backend_override(self):
        with running_service(["virus"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                result = client.scan("virus", backend="serial")
                assert result.backend == "serial"
                assert result.matches == 1


class TestErrors:
    """The error taxonomy, identical in-process and pooled."""

    pool_workers = 0

    def test_unknown_verb(self):
        with running_service(["virus"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.request({"verb": "NOPE"})
                assert err.value.code == "bad-verb"

    def test_flow_without_id(self):
        with running_service(["virus"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.request({"verb": "FLOW"}, b"data")
                assert err.value.code == "bad-request"

    def test_unknown_backend(self):
        with running_service(["virus"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.scan("x", backend="warp-drive")
                assert err.value.code == "bad-request"

    def test_unknown_flow_close(self):
        with running_service(["virus"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.close_flow("ghost")
                assert err.value.code == "flow-error"

    def test_errors_do_not_kill_the_connection(self):
        with running_service(["virus"],
                             pool_workers=self.pool_workers) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError):
                    client.request({"verb": "NOPE"})
                assert client.scan("virus").matches == 1


class TestAdmissionControl:
    """``busy``/``timeout`` outcomes against the target's cap:
    ``max_pending`` in-process, ``per_worker_cap`` pooled."""

    pool_workers = 0

    def _occupy_then(self, handle, second_request):
        """Fill the single scan slot with a sleepy scan, then run
        ``second_request`` while it holds the slot."""
        errors = []

        def _long_scan():
            try:
                with ServiceClient(handle.host, handle.port) as c:
                    c.scan(b"x" * 10, backend="sleepy")
            except ServiceError as exc:     # pragma: no cover
                errors.append(exc)

        t = threading.Thread(target=_long_scan)
        t.start()
        time.sleep(0.15)                    # let it take the slot
        try:
            return second_request()
        finally:
            t.join()
            assert not errors

    def test_reject_policy_sheds_with_busy(self):
        with sleepy_backend(0.6):
            with running_service(["virus"], max_pending=1,
                                 admission="reject",
                                 pool_workers=self.pool_workers) as handle:
                def _second():
                    with ServiceClient(handle.host, handle.port) as c:
                        with pytest.raises(ServiceError) as err:
                            c.scan("virus")
                        return err.value.code

                assert self._occupy_then(handle, _second) == "busy"
                with ServiceClient(handle.host, handle.port) as c:
                    stats = c.stats()
                assert stats["metrics"]["admission"]["rejected"] == 1

    def test_wait_policy_times_out(self):
        with sleepy_backend(0.8):
            with running_service(["virus"], max_pending=1,
                                 admission="wait",
                                 request_timeout=0.1,
                                 pool_workers=self.pool_workers) as handle:
                def _second():
                    with ServiceClient(handle.host, handle.port) as c:
                        with pytest.raises(ServiceError) as err:
                            c.scan("virus")
                        return err.value.code

                assert self._occupy_then(handle, _second) == "timeout"
                with ServiceClient(handle.host, handle.port) as c:
                    stats = c.stats()
                assert stats["metrics"]["admission"]["timeouts"] == 1

    def test_wait_policy_admits_when_slot_frees(self):
        with sleepy_backend(0.3):
            with running_service(["virus"], max_pending=1,
                                 admission="wait",
                                 request_timeout=5.0,
                                 pool_workers=self.pool_workers) as handle:
                def _second():
                    with ServiceClient(handle.host, handle.port) as c:
                        return c.scan("virus").matches

                assert self._occupy_then(handle, _second) == 1


class TestVerbsPooled(TestVerbs):
    pool_workers = 1


class TestErrorsPooled(TestErrors):
    pool_workers = 1


class TestAdmissionControlPooled(TestAdmissionControl):
    # sleepy_backend registers before running_service forks the
    # worker, so the worker process inherits the sleepy backend.
    pool_workers = 1


class TestShutdown:
    def test_shutdown_verb_drains_and_stops(self):
        with running_service(["virus"]) as handle:
            client = ServiceClient(handle.host, handle.port)
            client.shutdown()
            handle.service  # daemon is draining; wait via stop()
        with pytest.raises((ServiceError, OSError)):
            ServiceClient(handle.host, handle.port).ping()

    def test_stop_is_idempotent(self):
        handle = ServiceThread(ScanService(["virus"])).start()
        handle.stop()
        handle.stop()


class TestStartFailure:
    def test_taken_port_releases_the_pool(self):
        # The autouse leak fixture then checks that no forked worker,
        # shared-memory segment or repro-* thread survived the failure.
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            config = ServiceConfig(host="127.0.0.1",
                                   port=taken.getsockname()[1],
                                   pool_workers=2)
            service = ScanService(["virus"], config=config)
            with pytest.raises(OSError):
                asyncio.run(service.start())


class TestConcurrentReloads:
    PAYLOAD = "alpha q bravo q alpha q charlie"

    def test_scans_during_reloads_see_consistent_generations(self):
        """Satellite requirement: fire scans from several threads while
        the dictionary hot-swaps N times.  Every response must carry a
        valid generation id, report the counts of *that* generation's
        dictionary, and nothing may error."""
        sets = {
            1: ["alpha"],
            2: ["alpha", "bravo"],
            3: ["alpha", "bravo", "charlie"],
            4: ["bravo"],
            5: ["alpha"],
        }
        payload = self.PAYLOAD.encode()
        expected = {gid: len(compile_dictionary(pats).match_events(payload))
                    for gid, pats in sets.items()}
        assert len(set(expected.values())) > 1   # swaps change counts

        results = []
        errors = []
        stop = threading.Event()

        with running_service(sets[1], scan_threads=4,
                             max_pending=32) as handle:
            def _scanner():
                try:
                    with ServiceClient(handle.host, handle.port) as c:
                        while not stop.is_set():
                            r = c.scan(payload)
                            results.append((r.generation, r.matches))
                            time.sleep(0.002)
                except Exception as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=_scanner)
                       for _ in range(4)]
            for t in threads:
                t.start()
            time.sleep(0.05)
            with ServiceClient(handle.host, handle.port) as admin:
                for gid in range(2, 6):
                    admin.reload(sets[gid])
                    time.sleep(0.05)
                stop.set()
                for t in threads:
                    t.join()
                stats = admin.stats()
                final_gen = admin.ping()

        assert not errors
        assert final_gen == 5
        assert stats["metrics"]["reloads"]["count"] == 4
        assert len(results) > 10
        seen = {gen for gen, _ in results}
        assert seen <= set(sets)
        assert 1 in seen and 5 in seen
        for gen, matches in results:
            assert matches == expected[gen], \
                f"generation {gen} reported {matches}"


class TestLoadGenerator:
    def test_scan_mode_closed_loop(self):
        with running_service(["virus", "worm"]) as handle:
            result = run_load(handle.host, handle.port, connections=2,
                              requests_per_connection=20,
                              patterns=[b"virus"], match_fraction=1.0,
                              min_size=64, max_size=256, seed=3)
            with ServiceClient(handle.host, handle.port) as client:
                stats = client.stats()
        assert result.errors == 0
        assert result.requests == 40
        assert result.matches >= 40          # one planted match each
        assert result.generations == [1]
        assert result.p50_ms <= result.p99_ms
        assert stats["metrics"]["requests"]["SCAN"] == 40
        assert stats["metrics"]["bytes_scanned"] == result.bytes_sent

    def test_flow_mode_closed_loop(self):
        with running_service(["virus"]) as handle:
            result = run_load(handle.host, handle.port, connections=2,
                              requests_per_connection=10, mode="flow",
                              flows_per_connection=3, seed=4)
        assert result.errors == 0
        assert result.requests == 20
        assert result.mode == "flow"

    def test_payload_is_json_round_trippable(self):
        import json
        with running_service(["virus"]) as handle:
            result = run_load(handle.host, handle.port, connections=1,
                              requests_per_connection=5)
        body = json.loads(json.dumps(result.to_payload()))
        assert body["requests"] == 5
        assert "p95" in body["latency_ms"]

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            run_load("127.0.0.1", 1, mode="burst")

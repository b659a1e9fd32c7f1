"""One control plane over identical replicas: STATS built the same way
in both serving modes, and control ops serialized end to end so a
POLICY set cannot overtake a RELOAD's fan-out."""

import random
import threading
import time
from contextlib import contextmanager

from repro.service import (ConsistentHashRing, ScanService, ServiceClient,
                           ServiceConfig, ServiceError, ServiceThread)

PATTERNS = ["virus", "worm", "trojan"]


@contextmanager
def running(pool_workers, patterns=PATTERNS):
    config = ServiceConfig(port=0, pool_workers=pool_workers)
    with ServiceThread(ScanService(patterns, config=config)) as handle:
        with ServiceClient(handle.host, handle.port) as client:
            yield client


def _untimed(value):
    """``value`` without its timing fields (``*_ms``, ``seconds``)."""
    if isinstance(value, dict):
        return {k: _untimed(v) for k, v in value.items()
                if not k.endswith("_ms") and k != "seconds"}
    return value


class TestStatsParity:
    def test_registry_and_tenants_sections_match_across_modes(self):
        """After the same script, STATS ``registry`` and ``tenants``
        agree field for field (minus timing) in-process and through a
        pool worker: session, flow and verdict counters come from the
        replicas, dictionary fields from the control plane."""

        def script(client):
            client.tenant_create("acme", ["alpha", "beta"], rules=[
                {"name": "drop-alpha", "action": "drop",
                 "patterns": ["alpha"]}])
            for i in range(3):
                client.scan_packet(f"f{i}", b"a virus")
                client.scan_packet(f"f{i}", b"alpha beta", tenant="acme")
            client.reload(["virus", "worm"])
            client.reload(["alpha", "beta", "gamma"], tenant="acme")
            client.set_policy("acme", [{"name": "alert-beta",
                                        "action": "alert",
                                        "patterns": ["beta"]}])
            client.scan_packet("f9", b"beta", tenant="acme")
            client.close_flow("f0")
            stats = client.stats()
            return {key: _untimed(stats[key])
                    for key in ("generation", "registry", "tenants")}

        with running(0) as client:
            plain = script(client)
        with running(1) as client:
            pooled = script(client)
        assert pooled == plain
        assert plain["registry"]["flows"] == 2
        assert plain["registry"]["generation"] == 2
        acme = plain["tenants"]["acme"]
        assert acme["verdicts"]["flows"] == 4
        assert acme["registry"]["flows"] == 4
        assert acme["policy"]["generation"] == 2
        assert acme["registry"]["patterns"] == 3

    def test_pool_sums_sessions_over_workers(self):
        with running(2) as client:
            for i in range(8):
                client.scan_packet(f"flow-{i}", b"worm")
            stats = client.stats()
        assert stats["registry"]["flows"] == 8
        assert stats["pool"]["flows"] == 8
        assert stats["registry"]["sessions"]["max_flows"] == \
            2 * ServiceConfig().max_flows


class TestControlOpsSerialized:
    #: Dictionaries with and without the pattern ``yankee``, and rules
    #: that do and do not name it.
    WITH_Y = ["xray", "yankee"]
    WITHOUT_Y = ["xray", "zulu"]
    RULES_Y = [{"name": "drop-y", "action": "drop", "patterns": ["yankee"]}]
    RULES_NO_Y = [{"name": "alert-x", "action": "alert",
                   "patterns": ["xray"]}]

    def _flows_per_worker(self, workers, round_no):
        """One fresh flow id per worker, placed by the daemon's ring."""
        ring = ConsistentHashRing(workers)
        alive = [True] * workers
        picked = {}
        i = 0
        while len(picked) < workers:
            fid = f"r{round_no}-f{i}"
            picked.setdefault(ring.place("acme", fid, alive), fid)
            i += 1
        return [picked[w] for w in range(workers)]

    def test_policy_get_matches_every_worker_after_churn(self):
        """RELOADs flip acme between dictionaries with and without
        ``yankee`` while POLICY sets flip between rules with and
        without it.  Whatever each op's outcome, POLICY ``get`` must
        match the verdict every worker then hands out."""
        workers = 2
        rng = random.Random(16)
        with running(workers) as admin, \
                ServiceClient(admin.host, admin.port) as other:
            admin.tenant_create("acme", self.WITHOUT_Y,
                                rules=self.RULES_NO_Y)
            for round_no in range(40):
                # From (WITHOUT_Y, RULES_NO_Y), race a RELOAD that adds
                # yankee against a POLICY set that needs it.
                errors = []

                def reload():
                    try:
                        admin.reload(self.WITH_Y, tenant="acme")
                    except ServiceError as exc:   # pragma: no cover
                        errors.append(exc)

                t = threading.Thread(target=reload)
                t.start()
                time.sleep(rng.uniform(0.0, 0.006))
                try:
                    other.set_policy("acme", self.RULES_Y)
                except ServiceError as exc:
                    # Refused only against the dictionary without
                    # yankee — never after the gateway promoted it.
                    assert exc.code == "bad-request", exc
                t.join(timeout=30)
                assert not t.is_alive() and not errors, errors

                policy = admin.policy("acme")
                names_y = any("yankee" in r.get("patterns", [])
                              for r in policy["rules"])
                expected = "drop" if names_y else "forward"
                for fid in self._flows_per_worker(workers, round_no):
                    verdict = admin.scan_packet(fid, b"a yankee here",
                                                tenant="acme")
                    assert verdict.action == expected, \
                        (round_no, policy, verdict)

                # Back to the start state, in the order that validates.
                admin.set_policy("acme", self.RULES_NO_Y)
                admin.reload(self.WITHOUT_Y, tenant="acme")


class TestControlThread:
    def test_compiles_run_off_the_loop_and_policy_binds_once(
            self, monkeypatch):
        """Dictionary compiles, generation builds and ruleset binds all
        run off the event loop, and an in-process POLICY set binds its
        ruleset once: the replica reuses the control plane's binding."""
        from repro.policy import rules as rules_mod
        from repro.service import daemon as daemon_mod
        from repro.service import registry as registry_mod

        calls = []

        def spy(kind, fn):
            def wrapped(*args, **kwargs):
                calls.append((kind, threading.current_thread().name))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(daemon_mod, "compile_dictionary",
                            spy("compile", daemon_mod.compile_dictionary))
        monkeypatch.setattr(rules_mod.RuleSet, "compile",
                            spy("bind", rules_mod.RuleSet.compile))
        monkeypatch.setattr(registry_mod.Generation, "__init__",
                            spy("generation",
                                registry_mod.Generation.__init__))
        with running(0) as client:
            client.tenant_create("acme", ["alpha", "beta"])
            client.reload(["virus", "worm"])
            client.reload(["alpha", "beta", "gamma"], tenant="acme")
            ops = len(calls)
            client.set_policy("acme", [{"name": "drop-alpha",
                                        "action": "drop",
                                        "patterns": ["alpha"]}])
            assert client.scan_packet("f", b"alpha",
                                      tenant="acme").action == "drop"
            assert [kind for kind, _ in calls[ops:]] == ["bind"]
        kinds = {kind for kind, _ in calls}
        assert kinds == {"compile", "bind", "generation"}, calls
        loop_thread = "repro-service"    # ServiceThread's event loop
        assert all(thread != loop_thread for _, thread in calls), calls

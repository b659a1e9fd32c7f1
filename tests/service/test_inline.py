"""In-process routing of data ops: packet-sized walks run on the event
loop, every other data op on the ``repro-scan`` thread pool — and the
error codes and admission outcomes do not depend on which."""

import threading
from contextlib import contextmanager

import pytest

from repro.core.compiled import CompiledDictionary
from repro.core.planner import INLINE_WALK_STEPS
from repro.core.scan.walk import SliceWalk
from repro.service import ScanService, ServiceClient, ServiceConfig, \
    ServiceError, ServiceThread
from repro.service.worker import DataPlane, Replica
from repro.workloads.dictionary import ascii_keywords

from .test_daemon import sleepy_backend

LOOP_THREAD = "repro-service"   # ServiceThread's event-loop thread
POOL = "pool"


@contextmanager
def running_service(patterns, max_states=1 << 30, **config_kwargs):
    config = ServiceConfig(port=0, **config_kwargs)
    service = ScanService(patterns, config=config, max_states=max_states)
    with ServiceThread(service) as handle:
        yield handle


@pytest.fixture
def op_threads(monkeypatch):
    """``(op, thread name)`` of every ``DataPlane`` op the daemon runs."""
    seen = []
    for kind in ("scan", "flow", "close_flow"):
        def traced(self, meta, payload, _op=getattr(DataPlane, kind),
                   _kind=kind):
            seen.append((_kind, threading.current_thread().name))
            return _op(self, meta, payload)
        monkeypatch.setattr(DataPlane, kind, traced)
    return seen


def _on_pool(name: str) -> bool:
    return name.startswith("repro-scan")


def _where(op_threads):
    """``op_threads`` with every scan-pool thread named ``POOL``."""
    return [(kind, POOL if _on_pool(name) else name)
            for kind, name in op_threads]


class TestRouting:
    def test_walks_within_budget_run_on_the_loop(self, op_threads):
        with running_service(["virus", "worm"]) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.scan_packet("f1", "a vir").matches == 0
                assert client.scan_packet("f1", "us!").matches == 1
                assert client.close_flow("f1") == (8, 1)
                assert client.scan(b"a worm " * 100).matches == 100
        assert op_threads == [("flow", LOOP_THREAD),
                              ("flow", LOOP_THREAD),
                              ("close_flow", LOOP_THREAD),
                              ("scan", LOOP_THREAD)]

    def test_forced_events_and_over_budget_ops_keep_the_pool(
            self, op_threads):
        big = b"worm " * (INLINE_WALK_STEPS // 5 + 1)
        assert len(big) > INLINE_WALK_STEPS
        with running_service(["virus", "worm"]) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.scan("a worm", backend="serial").matches == 1
                assert client.scan("a worm", events=True).matches == 1
                assert client.scan(big).matches == len(big) // 5
                assert client.scan_packet("f", big).matches == \
                    len(big) // 5
        assert [kind for kind, _ in op_threads] == \
            ["scan", "scan", "scan", "flow"]
        assert all(_on_pool(name) for _, name in op_threads), op_threads

    def test_auto_backend_is_not_forced(self, op_threads):
        with running_service(["worm"]) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                assert client.scan("a worm", backend="auto").matches == 1
        assert op_threads == [("scan", LOOP_THREAD)]

    def test_budget_counts_walk_steps_not_bytes(self, op_threads):
        """A FLOW far below 64 KiB, and below the budget in bytes, whose
        walk over a partitioned dictionary exceeds the budget in steps:
        a bytes-only rule would run it on the loop."""
        patterns = ascii_keywords(2000, 1)
        with running_service(patterns, max_states=1500) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                slices = client.stats()["registry"]["slices"]
                assert slices > 1
                nbytes = INLINE_WALK_STEPS // slices + 1
                assert nbytes <= INLINE_WALK_STEPS < nbytes * slices
                client.scan_packet("long", b"\x00" * nbytes)
                client.scan_packet("short", b"\x00" * (nbytes - 1))
        assert [kind for kind, _ in op_threads] == ["flow", "flow"]
        assert _on_pool(op_threads[0][1])
        assert op_threads[1][1] == LOOP_THREAD


class TestInlineParity:
    """Inline ops fail with the codes and admission outcomes the pooled
    path gives."""

    def test_unknown_tenant_is_a_bad_request(self):
        with running_service(["virus"]) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                with pytest.raises(ServiceError) as err:
                    client.scan_packet("f", "virus", tenant="ghost")
                assert err.value.code == "bad-request"
                assert client.scan_packet("f", "virus").matches == 1

    def test_full_reject_session_table_is_a_flow_error(self, op_threads):
        with running_service(["virus"], max_flows=1,
                             session_policy="reject") as handle:
            with ServiceClient(handle.host, handle.port) as client:
                client.scan_packet("a", "virus")
                with pytest.raises(ServiceError) as err:
                    client.scan_packet("b", "virus")
                assert err.value.code == "flow-error"
                # The connection survives the inline failure.
                assert client.scan_packet("a", "virus").matches == 1
        assert {name for _, name in op_threads} == {LOOP_THREAD}

    def _occupy_then(self, handle, second_request, delay_s):
        """Hold the only slot with a pooled ``sleepy`` scan, then run
        ``second_request`` while it is held."""
        errors = []

        def _long_scan():
            try:
                with ServiceClient(handle.host, handle.port) as c:
                    c.scan(b"x" * 10, backend="sleepy")
            except ServiceError as exc:     # pragma: no cover
                errors.append(exc)

        holder = threading.Thread(target=_long_scan)
        holder.start()
        threading.Event().wait(delay_s)     # let it take the slot
        try:
            return second_request()
        finally:
            holder.join(timeout=10)
            assert not holder.is_alive()
            assert not errors

    def test_inline_ops_are_refused_busy_while_the_slot_is_held(self):
        with sleepy_backend(0.6):
            with running_service(["virus"], max_pending=1,
                                 admission="reject") as handle:
                def _second():
                    codes = []
                    with ServiceClient(handle.host, handle.port) as c:
                        for request in (lambda: c.scan("virus"),
                                        lambda: c.scan_packet("f",
                                                              "virus")):
                            with pytest.raises(ServiceError) as err:
                                request()
                            codes.append(err.value.code)
                    return codes

                assert self._occupy_then(handle, _second, 0.15) == \
                    ["busy", "busy"]
                with ServiceClient(handle.host, handle.port) as c:
                    stats = c.stats()
                    assert c.scan_packet("f", "virus").matches == 1
                assert stats["metrics"]["admission"]["rejected"] == 2

    def test_wait_policy_times_out_an_inline_flow(self):
        with sleepy_backend(0.8):
            with running_service(["virus"], max_pending=1,
                                 admission="wait",
                                 request_timeout=0.1) as handle:
                def _second():
                    with ServiceClient(handle.host, handle.port) as c:
                        with pytest.raises(ServiceError) as err:
                            c.scan_packet("f", "virus")
                        return err.value.code

                assert self._occupy_then(handle, _second, 0.15) == \
                    "timeout"
                with ServiceClient(handle.host, handle.port) as c:
                    stats = c.stats()
                assert stats["metrics"]["admission"]["timeouts"] == 1


class TestLoopNeverWaits:
    """The loop runs nothing inline while another thread may hold a
    lock the op takes for a walk's length.  A FLOW that must wait for
    that lock waits on a scan thread, and the loop keeps answering."""

    @pytest.fixture(autouse=True)
    def _gate(self):
        self.release = threading.Event()
        yield
        self.release.set()

    def _answered_meanwhile(self, handle, hold, held):
        """Start ``hold`` on its own connection and, once ``held`` is
        set, a FLOW of the default scope on another; then PING and
        SCAN on a third, all while ``hold`` is still running.  The
        FLOW's reply may wait for ``hold``; once released, its flow
        closes and scans again."""
        flow_replies = []

        def _flow():
            with ServiceClient(handle.host, handle.port) as c:
                flow_replies.append(c.scan_packet("small", "virus").matches)

        threads = [threading.Thread(target=hold),
                   threading.Thread(target=_flow)]
        threads[0].start()
        try:
            assert held.wait(10)
            threads[1].start()
            threading.Event().wait(0.2)     # let the FLOW dispatch
            with ServiceClient(handle.host, handle.port, timeout=5) as c:
                c.ping()
                assert c.scan("a virus").matches == 1
            assert threads[0].is_alive()
        finally:
            self.release.set()
            for thread in threads:
                if thread.ident is not None:
                    thread.join(timeout=10)
                    assert not thread.is_alive()
        assert flow_replies == [1]
        with ServiceClient(handle.host, handle.port) as c:
            assert c.close_flow("small") == (5, 1)
            assert c.scan_packet("small", "virus").matches == 1

    def test_pooled_flow_walk(self, op_threads, monkeypatch):
        """An over-budget FLOW walks on a scan thread holding the
        scope's session lock; an inline FLOW would wait on it."""
        entered = threading.Event()
        count, release = SliceWalk.count, self.release

        def gated(walk, state, folded):
            if len(folded) > INLINE_WALK_STEPS:
                entered.set()
                release.wait(10)
            return count(walk, state, folded)

        monkeypatch.setattr(SliceWalk, "count", gated)
        big = b"virus" * (INLINE_WALK_STEPS // 5 + 1)
        replies = []
        with running_service(["virus"]) as handle:
            def _big():
                with ServiceClient(handle.host, handle.port) as c:
                    replies.append(c.scan_packet("big", big).matches)

            self._answered_meanwhile(handle, _big, entered)
        assert replies == [len(big) // 5]
        assert _where(op_threads) == [
            ("flow", POOL), ("flow", POOL), ("scan", POOL),
            ("close_flow", LOOP_THREAD), ("flow", LOOP_THREAD)]

    def test_control_op(self, op_threads, monkeypatch):
        """A control op runs on the control thread and may take the
        session locks (a RELOAD carries every live flow under them)."""
        entered = threading.Event()
        stats, release = Replica.stats, self.release

        def gated(replica):
            entered.set()
            release.wait(10)
            return stats(replica)

        monkeypatch.setattr(Replica, "stats", gated)
        with running_service(["virus"]) as handle:
            def _stats():
                with ServiceClient(handle.host, handle.port) as c:
                    c.stats()

            self._answered_meanwhile(handle, _stats, entered)
        assert _where(op_threads) == [
            ("flow", POOL), ("scan", POOL),
            ("close_flow", LOOP_THREAD), ("flow", LOOP_THREAD)]

    def test_walk_rows_are_built_off_the_loop(self, monkeypatch):
        """Startup and every RELOAD build the new dictionary's walk
        rows on the control thread, not in the first inline op."""
        builders = []
        walks = CompiledDictionary.walks

        def traced(compiled):
            if compiled._walks is None:
                builders.append(threading.current_thread().name)
            return walks(compiled)

        monkeypatch.setattr(CompiledDictionary, "walks", traced)
        with running_service(["virus"]) as handle:
            with ServiceClient(handle.host, handle.port) as c:
                assert c.scan_packet("f", "virus").matches == 1
                c.reload(["virus", "worm"])
                assert c.scan_packet("f", "a worm").matches == 1
                assert c.scan("a worm").matches == 1
        assert len(builders) == 2
        assert all(name.startswith("repro-control") for name in builders)

"""Replica side of the scan service.

:class:`DataPlane` is the single implementation of the data verbs
(``SCAN``, ``FLOW``, ``CLOSE_FLOW``) and :func:`error_reply` the single
error taxonomy.  :class:`Replica` adds the scopes (the default
dictionary is the rule-free tenant ``""``) and metrics around one
``DataPlane``, and is the single implementation of the control ops the
daemon's control plane fans out.  The daemon
serves through :class:`LocalFleet` (one replica in-process) or
:class:`~repro.service.pool.WorkerPool` (one replica per worker
process, the paper's SPE).  There the gateway (PPE) compiles each
dictionary once into a shared-memory ``SharedArrayBundle``; each
worker *attaches*, rebuilding a
:class:`~repro.core.compiled.CompiledDictionary` from the shared views
with **zero** automaton builds (``COUNTERS["automaton_builds"]`` is
reset at worker entry and reported in STATS, so the
compile-once/map-everywhere contract is provable end to end).
:class:`_PipeWorker` is the pipe boundary: the only place bundle meta
and rule specs turn back into the objects a replica takes.

A worker is single-threaded — it serves one message at a time, so a
generation swap never races a scan *within* a worker; the cross-worker
ordering is the gateway's job (control ops are serialized, and workers
lease the new bundle before the gateway retires the old one).  Flow
sessions live in the replica the gateway's consistent hash picked.

Wire format (over ``multiprocessing.Pipe``): requests are
``(kind, seq, meta, payload)`` tuples, responses ``(seq, ok, result)``
where ``result`` is a picklable dict (an :func:`error_reply` with
``code``/``error`` when ``ok`` is false).  ``seq == -1`` is the ready
handshake; the ``stop`` ack carries the worker's final metrics state.
"""

from __future__ import annotations

import asyncio
import functools
import os
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from ..core.backends import BackendError, ScanRequest
from ..core.compiled import COUNTERS, CompileError, compiled_from_arrays
from ..core.scan.bundle import SharedArrayBundle
from ..policy.rules import PolicyError, RuleSet
from ..policy.tenants import TenantError, TenantManager
from .metrics import ServiceMetrics
from .protocol import ProtocolError
from .registry import RegistryError
from .sessions import FlowError

__all__ = ["DataPlane", "LocalFleet", "Replica", "WorkerOpError",
           "error_reply", "worker_main"]


class WorkerOpError(Exception):
    """A worker-side operation failed; carries the worker's error code
    so the gateway can echo the daemon's normal error taxonomy."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _error_code(exc: BaseException) -> str:
    """The service's one error taxonomy, applied wherever an op fails
    (worker process or daemon) so clients see the same codes in
    either mode."""
    if isinstance(exc, (BackendError, ProtocolError, RegistryError,
                        CompileError, PolicyError, TenantError,
                        ValueError)):
        return "bad-request"
    if isinstance(exc, FlowError):
        return "flow-error"
    return "internal"


def error_reply(exc: BaseException) -> Dict[str, str]:
    """The ``code``/``error`` fields of a failed op's reply."""
    if isinstance(exc, WorkerOpError):  # classified worker-side already
        return {"code": exc.code, "error": str(exc)}
    code = _error_code(exc)
    if code == "internal":
        return {"code": code, "error": f"{type(exc).__name__}: {exc}"}
    return {"code": code, "error": str(exc)}


class DataPlane:
    """The one implementation of the data verbs — ``SCAN``, ``FLOW``
    and ``CLOSE_FLOW`` — over a replica's scopes and a metrics sink.

    A pool worker serves these ops from its own process; the
    in-process daemon runs the very same object on its scan thread
    pool.  Each op takes the request ``meta`` dict (``tenant``,
    ``flow``, ``backend``, ``events``) plus the payload
    and returns the reply header fields (the caller adds ``id`` and
    ``ok``).  Every op has one body: the default dictionary is the
    rule-free scope ``""``, so it runs the tenant path and only its
    reply fields differ (no ``tenant`` or ``action``) and no
    per-tenant metrics are recorded for it.  Everything here is
    thread-safe: leases and session tables lock internally and
    :class:`ServiceMetrics` is lock-guarded.
    """

    def __init__(self, tenants: TenantManager, metrics: ServiceMetrics,
                 max_events: int) -> None:
        self.tenants = tenants
        self.metrics = metrics
        self.max_events = max_events

    def scan(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self.tenants.get(meta.get("tenant") or "")
        with_events = bool(meta.get("events"))
        outcome, gen_id = tenant.scan(
            ScanRequest(data=payload, with_events=with_events),
            meta.get("backend"))
        self.metrics.record_scan(
            outcome.backend, outcome.seconds,
            outcome.bytes_scanned, outcome.total_matches)
        header: Dict[str, object] = {
            "generation": gen_id,
            "matches": outcome.total_matches,
            "bytes": outcome.bytes_scanned,
            "backend": outcome.backend,
            "seconds": outcome.seconds,
        }
        if tenant.name:
            self.metrics.record_tenant_request(
                tenant.name, outcome.bytes_scanned, outcome.total_matches)
            header["tenant"] = tenant.name
        if with_events and outcome.events is not None:
            cap = self.max_events
            header["events"] = [[e.end, e.pattern]
                                for e in outcome.events[:cap]]
            if len(outcome.events) > cap:
                header["events_truncated"] = len(outcome.events) - cap
        return header

    def flow(self, meta: Dict, payload: bytes) -> Dict:
        flow_id = meta["flow"]
        tenant = self.tenants.get(meta.get("tenant") or "")
        t0 = time.perf_counter()
        verdict, gen_id, evicted = tenant.scan_packet(flow_id, payload)
        seconds = time.perf_counter() - t0
        self.metrics.record_scan("flow", seconds, len(payload),
                                 verdict.new_matches)
        self.metrics.record_flow_evictions(evicted)
        header: Dict[str, object] = {
            "generation": gen_id,
            "flow": flow_id,
            "matches": verdict.new_matches,
            "flow_total": verdict.flow_total,
            "bytes": len(payload),
            "seconds": seconds,
        }
        if tenant.name:
            self.metrics.record_tenant_request(
                tenant.name, len(payload), verdict.new_matches)
            self.metrics.record_verdict(tenant.name, verdict.action,
                                        verdict.seconds)
            header["tenant"] = tenant.name
            header["action"] = verdict.action
        if verdict.rule is not None:
            header["rule"] = verdict.rule
        if verdict.triggered:
            header["triggered"] = list(verdict.triggered)
        return header

    def close_flow(self, meta: Dict, payload: bytes) -> Dict:
        flow_id = meta["flow"]
        tenant = self.tenants.get(meta.get("tenant") or "")
        nbytes, matches, action = tenant.close_flow(flow_id)
        header = {"generation": tenant.registry.generation,
                  "flow": flow_id,
                  "bytes_seen": nbytes,
                  "matches": matches}
        if tenant.name:
            header["tenant"] = tenant.name
        if action is not None:
            header["action"] = action
        return header


class Replica:
    """One serving replica: its scopes — the default dictionary as the
    rule-free tenant ``""`` beside the named tenants — a
    :class:`DataPlane` over their sessions and the metrics it records.

    Each control op has one body, run by both serving modes on
    already validated Python objects.  ``scope`` names a dictionary:
    ``""`` is the default, anything else a tenant.
    """

    def __init__(self, config, compiled, generation: int) -> None:
        self.tenants = TenantManager(max_flows=config.max_flows,
                                     session_policy=config.session_policy)
        #: The default scope's registry.
        self.registry = self.tenants.create(
            "", compiled=compiled, first_generation=generation).registry
        self.metrics = ServiceMetrics()
        self.data = DataPlane(self.tenants, self.metrics,
                              config.max_events)

    def install(self, scope: str, compiled, generation: int) -> Dict:
        """Promote ``compiled`` as ``scope``'s generation
        ``generation``; flow sessions carry across."""
        result = self.tenants.get(scope).load_compiled(
            compiled, generation=generation)
        # The control plane records the end-to-end reload in its own
        # metrics; recording here too would double-count in STATS.
        return {"generation": result.generation,
                "flows_carried": result.flows_carried}

    def tenant_create(self, scope: str, compiled, generation: int,
                      rules) -> Dict:
        self.tenants.create(scope, rules=rules, compiled=compiled,
                            first_generation=generation)
        return {}

    def tenant_delete(self, scope: str) -> Dict:
        self.tenants.drop(scope)
        self.metrics.forget_tenant(scope)
        return {}

    def policy_set(self, scope: str, rules) -> Dict:
        return {"policy_generation":
                self.tenants.get(scope).set_rules(rules)}

    def stats(self) -> Dict:
        """This replica's share of STATS: raw metrics, and per scope the
        session and verdict counters the control plane sums."""
        sessions, verdicts = {}, {}
        for name in self.tenants.names():
            tenant = self.tenants.get(name)
            sessions[name] = tenant.registry.active.sessions.stats()
            verdicts[name] = tenant.verdicts.describe()
        return {"metrics": self.metrics.state(),
                "sessions": sessions,
                "verdicts": verdicts,
                "generation": self.registry.generation,
                "automaton_builds": COUNTERS["automaton_builds"],
                "pid": os.getpid()}

    def close(self) -> None:
        self.tenants.close()


class LocalFleet:
    """In-process serving: a fleet of one :class:`Replica`, behind the
    same surface as :class:`~repro.service.pool.WorkerPool`.  It is its
    own data target: data ops run on a scan thread pool (numpy releases
    the GIL in the hot loops), control ops on the control thread."""

    alive = True

    def __init__(self, service, executor: ThreadPoolExecutor) -> None:
        self._config = service.config
        self._metrics = service.metrics
        self._executor = executor
        self._scan_pool = ThreadPoolExecutor(
            max_workers=self._config.scan_threads,
            thread_name_prefix="repro-scan")
        self.cap = self._config.max_pending
        self.depth = 0
        self.replica: Optional[Replica] = None

    async def start(self, compiled, generation: int) -> None:
        self.replica = await asyncio.get_running_loop().run_in_executor(
            self._executor, Replica, self._config, compiled, generation)

    def target(self, tenant: str = "", flow_id=None) -> "LocalFleet":
        return self

    def call(self, kind: str, meta: Dict, payload=b"") -> "asyncio.Future":
        self.depth += 1
        fut = asyncio.get_running_loop().run_in_executor(
            self._scan_pool, getattr(self.replica.data, kind), meta,
            payload)
        fut.add_done_callback(self._done)
        return fut

    def _done(self, _fut) -> None:
        self.depth -= 1

    async def apply(self, op: str, **kwargs) -> List[Dict]:
        """Run one control op on the replica; returns its one ack."""
        ack = await asyncio.get_running_loop().run_in_executor(
            self._executor, functools.partial(
                getattr(self.replica, op), **kwargs))
        return [ack]

    def describe(self, acks: List[Dict]) -> Dict:
        return {}

    async def stop(self) -> None:
        """Release the replica, folding its final metrics in."""
        self._scan_pool.shutdown(wait=True)
        self._metrics.absorb(self.replica.metrics.state())
        self.replica.close()


class _PipeWorker:
    """One pool worker process: a :class:`Replica` behind a duplex
    pipe.  This is the pipe boundary — the only place bundle meta and
    rule specs turn back into Python objects — and the owner of the
    worker's shared-memory attachments, one per scope."""

    def __init__(self, conn, init: Dict) -> None:
        self.conn = conn
        default, *tenants = init["scopes"]
        bundle = SharedArrayBundle.attach(default["bundle_meta"])
        self._bundles: Dict[str, SharedArrayBundle] = {"": bundle}
        # Workers fork, so ``init`` arrives unpickled: the gateway's
        # own ServiceConfig is the replica's config.
        self.replica = Replica(init["config"],
                               compiled_from_arrays(bundle, bundle.scalars),
                               default["generation"])
        for image in tenants:
            self.control("tenant_create", image)

    def control(self, kind: str, meta: Dict) -> Dict:
        """Decode one control op and run it on the replica.  A scope's
        new bundle is attached (leased) *before* its old one is
        dropped; with no scan in flight in this single-threaded
        worker, the retired generation drains inline."""
        kwargs = dict(meta)
        bundle = None
        if "bundle_meta" in kwargs:
            bundle = SharedArrayBundle.attach(kwargs.pop("bundle_meta"))
            kwargs["compiled"] = compiled_from_arrays(bundle,
                                                      bundle.scalars)
        if "rules" in kwargs:
            kwargs["rules"] = RuleSet.from_specs(kwargs.pop("rules"),
                                                 mode=kwargs.pop("mode"))
        try:
            result = getattr(self.replica, kind)(**kwargs)
        except BaseException:
            if bundle is not None:
                bundle.close()
            raise
        scope = kwargs.get("scope", "")
        if bundle is not None or kind == "tenant_delete":
            old = self._bundles.pop(scope, None)
            if bundle is not None:
                self._bundles[scope] = bundle
            if old is not None:
                old.close()
        return result

    # -- serve loop -----------------------------------------------------------------

    def _send(self, seq: int, ok: bool, result: Dict) -> None:
        try:
            self.conn.send((seq, ok, result))
        except (OSError, ValueError, BrokenPipeError):
            pass

    def run(self) -> None:
        while True:
            try:
                kind, seq, meta, payload = self.conn.recv()
            except (EOFError, OSError):
                break
            if kind == "stop":
                # The final metrics ride the ack: the gateway folds
                # them into its own, so the post-shutdown snapshot
                # still counts every request this worker served.
                self._send(seq, True, {
                    "stopped": True,
                    "metrics": self.replica.metrics.state()})
                break
            try:
                if kind in ("scan", "flow", "close_flow"):
                    result = getattr(self.replica.data, kind)(meta, payload)
                elif kind in ("install", "tenant_create", "tenant_delete",
                              "policy_set", "stats"):
                    result = self.control(kind, meta)
                else:
                    self._send(seq, False, {
                        "code": "bad-verb",
                        "error": f"unknown op {kind!r}"})
                    continue
                self._send(seq, True, result)
            except Exception as exc:
                self._send(seq, False, error_reply(exc))
        self.close()

    def close(self) -> None:
        self.replica.close()
        for bundle in self._bundles.values():
            bundle.close()
        self._bundles.clear()
        try:
            self.conn.close()
        except OSError:
            pass


def worker_main(conn, init: Dict) -> None:
    """Process entry point (forked by the gateway's WorkerPool)."""
    # The gateway handles SIGINT/SIGTERM and drains the pool with an
    # explicit "stop" message; a stray terminal signal must not drop a
    # worker mid-request.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # Child-private counter reset: everything this worker builds from
    # here on is its own doing, so a nonzero value after startup would
    # disprove the compile-once/attach-everywhere contract.
    COUNTERS["automaton_builds"] = 0
    try:
        worker = _PipeWorker(conn, init)
    except BaseException as exc:
        try:
            conn.send((-1, False, {"code": "worker-init",
                                   "error": f"{type(exc).__name__}: "
                                            f"{exc}"}))
        except (OSError, ValueError, BrokenPipeError):
            pass
        return
    conn.send((-1, True, {"pid": os.getpid()}))
    worker.run()

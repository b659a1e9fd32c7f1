"""Worker side of the scan service: the data plane and the worker
process that hosts it in pool mode.

:class:`DataPlane` is the service's single implementation of the data
verbs (``SCAN``, ``FLOW``, ``CLOSE_FLOW``) and :func:`error_reply` its
single error taxonomy.  The daemon runs a ``DataPlane`` on its scan
thread pool when it serves in-process (``pool_workers == 0``); in
pool mode each worker process runs one over its own sessions and the
gateway sends it the same ops over a pipe.  The two modes cannot
drift apart because there is only one body per verb.

The worker process is the paper's SPE: the gateway (PPE) compiles the
dictionary once, places it in shared memory as a
``SharedArrayBundle``, and each worker process *attaches* — it
rebuilds a :class:`~repro.core.compiled.CompiledDictionary` from the
shared views with **zero** automaton builds
(``COUNTERS["automaton_builds"]`` is reset at worker entry and
reported over the ready handshake and STATS, so the
compile-once/map-everywhere contract is provable end to end).  Beside
the data ops it serves the control ops that keep it in step with the
gateway: reload, tenant create/delete, policy set, stats and ping.

A worker is deliberately single-threaded: it owns a duplex pipe to the
gateway and serves one message at a time, so a generation swap can
never race a scan *within* a worker — the cross-worker ordering is the
gateway's job (workers lease the new bundle before the gateway retires
the old one).  Flow sessions and verdict state live here, placed by
the gateway's consistent hash, which is what keeps a flow's DFA state
core-local across its lifetime.

Wire format (over ``multiprocessing.Pipe``): requests are
``(kind, seq, meta, payload)`` tuples, responses ``(seq, ok, result)``
where ``result`` is a picklable dict (an :func:`error_reply` with
``code``/``error`` when ``ok`` is false).  ``seq == -1`` is the ready
handshake; the ``stop`` ack carries the worker's final metrics state.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Optional

from ..core.backends import BackendError, ScanRequest, execute
from ..core.compiled import COUNTERS, CompileError
from ..core.flows import FlowError
from ..core.scan.bundle import SharedArrayBundle, compiled_from_bundle
from ..policy.rules import PolicyError, RuleSet
from ..policy.tenants import TenantError, TenantManager
from .metrics import ServiceMetrics
from .protocol import ProtocolError
from .registry import DictionaryRegistry, RegistryError

__all__ = ["DataPlane", "WorkerOpError", "error_reply", "worker_main"]


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
    and ``CLOSE_FLOW`` — over a dictionary registry, a tenant manager
    and a metrics sink.

    A pool worker serves these ops from its own process; the
    in-process daemon runs the very same object on its scan thread
    pool.  Each op takes the request ``meta`` dict (``tenant``,
    ``flow``, ``backend``, ``workers``, ``events``) plus the payload
    and returns the reply header fields (the caller adds ``id`` and
    ``ok``).  Everything here is thread-safe: leases and session
    tables lock internally and :class:`ServiceMetrics` is
    lock-guarded.
    """

    def __init__(self, registry: DictionaryRegistry,
                 tenants: TenantManager, metrics: ServiceMetrics,
                 max_events: int) -> None:
        self.registry = registry
        self.tenants = tenants
        self.metrics = metrics
        self.max_events = max_events

    def _tenant(self, name: Optional[str]):
        return self.tenants.get(str(name)) if name else None

    def scan(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self._tenant(meta.get("tenant"))
        with_events = bool(meta.get("events"))
        request = ScanRequest(data=payload,
                              workers=int(meta.get("workers", 1)),
                              with_events=with_events)
        registry = tenant.registry if tenant is not None else self.registry
        with registry.lease() as gen:
            outcome = execute(gen.ctx, request, meta.get("backend"))
            self.metrics.record_scan(
                outcome.backend, outcome.seconds,
                outcome.bytes_scanned, outcome.total_matches)
            header: Dict[str, object] = {
                "generation": gen.gen_id,
                "matches": outcome.total_matches,
                "bytes": outcome.bytes_scanned,
                "backend": outcome.backend,
                "workers": outcome.workers,
                "seconds": outcome.seconds,
            }
            if tenant is not None:
                self.metrics.record_tenant_request(
                    tenant.name, outcome.bytes_scanned,
                    outcome.total_matches)
                header["tenant"] = tenant.name
            if with_events and outcome.events is not None:
                cap = self.max_events
                header["events"] = [[e.end, e.pattern]
                                    for e in outcome.events[:cap]]
                if len(outcome.events) > cap:
                    header["events_truncated"] = \
                        len(outcome.events) - cap
            return header

    def flow(self, meta: Dict, payload: bytes) -> Dict:
        flow_id = meta["flow"]
        tenant = self._tenant(meta.get("tenant"))
        if tenant is not None:
            t0 = time.perf_counter()
            verdict, gen_id, evicted = tenant.scan_packet(flow_id,
                                                          payload)
            seconds = time.perf_counter() - t0
            self.metrics.record_scan("flow", seconds, len(payload),
                                     verdict.new_matches)
            self.metrics.record_tenant_request(
                tenant.name, len(payload), verdict.new_matches)
            self.metrics.record_verdict(tenant.name, verdict.action,
                                        verdict.seconds)
            self.metrics.record_flow_evictions(evicted)
            header: Dict[str, object] = {
                "generation": gen_id,
                "tenant": tenant.name,
                "flow": flow_id,
                "matches": verdict.new_matches,
                "flow_total": verdict.flow_total,
                "bytes": len(payload),
                "seconds": seconds,
                "action": verdict.action,
            }
            if verdict.rule is not None:
                header["rule"] = verdict.rule
            if verdict.triggered:
                header["triggered"] = list(verdict.triggered)
            return header
        with self.registry.lease() as gen:
            t0 = time.perf_counter()
            new, total, evicted = gen.sessions.scan_packet(flow_id,
                                                           payload)
            seconds = time.perf_counter() - t0
            self.metrics.record_scan("flow", seconds, len(payload), new)
            self.metrics.record_flow_evictions(evicted)
            return {"generation": gen.gen_id,
                    "flow": flow_id,
                    "matches": new,
                    "flow_total": total,
                    "bytes": len(payload),
                    "seconds": seconds}

    def close_flow(self, meta: Dict, payload: bytes) -> Dict:
        flow_id = meta["flow"]
        tenant = self._tenant(meta.get("tenant"))
        if tenant is not None:
            nbytes, matches, action = tenant.close_flow(flow_id)
            header = {"generation": tenant.registry.generation,
                      "tenant": tenant.name,
                      "flow": flow_id,
                      "bytes_seen": nbytes,
                      "matches": matches}
            if action is not None:
                header["action"] = action
            return header
        with self.registry.lease() as gen:
            nbytes, matches = gen.sessions.close_flow(flow_id)
            return {"generation": gen.gen_id,
                    "flow": flow_id,
                    "bytes_seen": nbytes,
                    "matches": matches}


class _PoolWorker:
    """One worker process: attached dictionary generations, the
    control ops that keep them in step with the gateway, and a
    :class:`DataPlane` over the worker's own flow sessions, tenant
    replicas and private metrics."""

    def __init__(self, conn, init: Dict) -> None:
        self.conn = conn
        cfg = init["config"]            # the gateway's ServiceConfig
        # Attached segments, keyed by scope ("" = the default
        # dictionary, else the tenant name).  Exactly one live bundle
        # per scope; a reload swaps the attachment after the new
        # generation is promoted.
        self._bundles: Dict[str, SharedArrayBundle] = {}
        bundle = SharedArrayBundle.attach(init["bundle_meta"])
        self._bundles[""] = bundle
        self.registry = DictionaryRegistry(
            compiled=compiled_from_bundle(bundle),
            first_generation=init["generation"],
            max_flows=cfg.max_flows, session_policy=cfg.session_policy)
        self.tenants = TenantManager(max_flows=cfg.max_flows,
                                     session_policy=cfg.session_policy)
        for spec in init["tenants"]:
            self._attach_tenant(spec)
        self.metrics = ServiceMetrics()
        data = DataPlane(self.registry, self.tenants, self.metrics,
                         cfg.max_events)
        self._ops = {
            "ping": self._op_ping,
            "scan": data.scan,
            "flow": data.flow,
            "close_flow": data.close_flow,
            "reload": self._op_reload,
            "tenant_create": self._op_tenant_create,
            "tenant_delete": self._op_tenant_delete,
            "policy_set": self._op_policy_set,
            "stats": self._op_stats,
        }

    def _attach_tenant(self, spec: Dict):
        bundle = SharedArrayBundle.attach(spec["bundle_meta"])
        rules = None
        if spec.get("rules"):
            rules = RuleSet.from_specs(
                spec["rules"], mode=spec.get("mode", "first-match"))
        tenant = self.tenants.create(
            spec["name"], rules=rules,
            compiled=compiled_from_bundle(bundle),
            first_generation=int(spec.get("generation", 1)))
        self._bundles[spec["name"]] = bundle
        return tenant

    # -- control ops ----------------------------------------------------------------

    def _op_ping(self, meta: Dict, payload: bytes) -> Dict:
        return {"generation": self.registry.generation,
                "automaton_builds": COUNTERS["automaton_builds"],
                "pid": os.getpid()}

    def _op_reload(self, meta: Dict, payload: bytes) -> Dict:
        """Generation swap: attach the new bundle (lease) *before* the
        old attachment is dropped, preserving the drain semantics — a
        single-threaded worker has no scan in flight here, so the
        retired generation drains inline."""
        bundle = SharedArrayBundle.attach(meta["bundle_meta"])
        compiled = compiled_from_bundle(bundle)
        scope = str(meta.get("tenant") or "")
        generation = int(meta["generation"])
        try:
            if scope:
                result = self.tenants.get(scope).load_compiled(
                    compiled, generation=generation)
            else:
                result = self.registry.load_compiled(
                    compiled, generation=generation)
        except BaseException:
            bundle.close()
            raise
        old = self._bundles.get(scope)
        self._bundles[scope] = bundle
        if old is not None:
            old.close()
        # The gateway records the end-to-end reload (compile + fan-out)
        # in its own metrics; recording here too would double-count in
        # the merged STATS view.
        return {"generation": result.generation,
                "flows_carried": result.flows_carried,
                "warm": result.warm}

    def _op_tenant_create(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self._attach_tenant(meta)
        return {"generation": tenant.registry.generation,
                "policy_generation": tenant.policy_generation}

    def _op_tenant_delete(self, meta: Dict, payload: bytes) -> Dict:
        name = str(meta["name"])
        self.tenants.drop(name)
        self.metrics.forget_tenant(name)
        bundle = self._bundles.pop(name, None)
        if bundle is not None:
            bundle.close()
        return {"deleted": True}

    def _op_policy_set(self, meta: Dict, payload: bytes) -> Dict:
        tenant = self.tenants.get(str(meta["tenant"]))
        rules = RuleSet.from_specs(
            meta.get("rules", []),
            mode=str(meta.get("mode", "first-match")))
        return {"policy_generation": tenant.set_rules(rules)}

    def _op_stats(self, meta: Dict, payload: bytes) -> Dict:
        registry = self.registry.describe()
        tenants = self.tenants.describe()
        flows = int(registry["flows"]) + sum(
            int(t["registry"]["flows"]) for t in tenants.values())
        return {"metrics": self.metrics.state(),
                "registry": registry,
                "tenants": tenants,
                "flows": flows,
                "generation": self.registry.generation,
                "automaton_builds": COUNTERS["automaton_builds"],
                "pid": os.getpid()}

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
                self._send(seq, True, {"stopped": True,
                                       "metrics": self.metrics.state()})
                break
            handler = self._ops.get(kind)
            if handler is None:
                self._send(seq, False, {"code": "bad-verb",
                                        "error": f"unknown op {kind!r}"})
                continue
            try:
                self._send(seq, True, handler(meta or {}, payload))
            except Exception as exc:
                self._send(seq, False, error_reply(exc))
        self.close()

    def close(self) -> None:
        self.registry.close()
        self.tenants.close()
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
        worker = _PoolWorker(conn, init)
    except BaseException as exc:
        try:
            conn.send((-1, False, {"code": "worker-init",
                                   "error": f"{type(exc).__name__}: "
                                            f"{exc}"}))
        except (OSError, ValueError, BrokenPipeError):
            pass
        return
    conn.send((-1, True, {
        "pid": os.getpid(),
        "generation": worker.registry.generation,
        "automaton_builds": COUNTERS["automaton_builds"],
    }))
    worker.run()

"""The live scan daemon: an asyncio TCP front end, one control plane,
and a fleet of identical replicas behind it.

This is the paper's deployment story running end to end: a resident
compiled dictionary filters traffic from many concurrent clients while
the *next* dictionary compiles and swaps in underneath — dynamic STT
replacement (§6) serving live requests instead of a modelled schedule.
The layering is the paper's PPE/SPE split, whatever the process count:

* the event loop owns connections, framing and admission control.
  In-process, it also runs the packet-sized walks itself: a FLOW, a
  CLOSE_FLOW or a planner-chosen serial SCAN whose walk fits
  :data:`~repro.core.planner.INLINE_WALK_STEPS` (bytes × slices, no
  forced backend, no events) skips the scan-thread hop, which costs as
  much as the walk and buys no parallelism for GIL-bound Python.  It
  does so only while no pooled FLOW or CLOSE_FLOW and no control op is
  in flight, so it never waits on a session or verdict lock.  Every
  other data op, every compile and every walk-row build stays off the
  loop;
* :class:`ControlPlane` is the PPE.  It holds each scope's compiled
  dictionary and generation (scope ``""`` is the default dictionary,
  any other a tenant) and each tenant's ruleset.  ``RELOAD``,
  ``TENANT``, ``POLICY`` and ``STATS`` are control ops: compile and
  validate on the control thread, fan out to every replica, merge the
  acks — one op at a time;
* each :class:`~repro.service.worker.Replica` is an SPE: dictionary
  generations, flow sessions, verdict state and data-plane metrics,
  serving ``SCAN``/``FLOW``/``CLOSE_FLOW`` through its
  :class:`~repro.service.worker.DataPlane`;
* :class:`~repro.service.metrics.ServiceMetrics` counts what the
  gateway sees; ``STATS`` merges it bucket-wise with every replica's.

The serving mode is chosen in one place, :meth:`ScanService.start`,
which builds the fleet.  In-process (``pool_workers == 0``) it is a
:class:`~repro.service.worker.LocalFleet` of one replica, handed
compiled dictionaries as Python objects.  In **pool mode** it is a
:class:`~repro.service.pool.WorkerPool`: one replica per forked worker
process, attached to each compiled dictionary through shared memory
(compile once, map everywhere — workers do **zero** automaton builds,
and STATS proves it per worker), so the fleet scales across cores
without sharing a GIL.  Stateless ``SCAN`` stripes to the idlest
worker; ``FLOW`` pins to the consistent-hash owner of
``(tenant, flow_id)``.

**Admission control**: a data verb is admitted only while its target
has fewer than the fleet's ``cap`` of requests in flight
(``max_pending``, split evenly over pool workers).  Beyond that the
daemon either rejects at once with a ``busy`` error
(``admission="reject"``, the default — shed load early, the NIDS
stance) or queues the request up to ``request_timeout`` seconds
(``admission="wait"``, the batch stance).  **Graceful drain**:
shutdown stops accepting, lets in-flight requests finish (bounded by
``drain_timeout``), then closes connections and releases the fleet.
"""

from __future__ import annotations

import asyncio
import functools
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.backends import get_backend
from ..core.compiled import (COUNTERS, ArtifactCache, CompiledDictionary,
                             compile_dictionary)
from ..policy.rules import CompiledRuleSet, RuleSet
from ..policy.tenants import TenantError
from .metrics import ServiceMetrics
from .pool import WorkerCrashError, WorkerPool
from .protocol import (MAX_FRAME_BYTES, RELOAD_STRATEGY, Frame,
                       ProtocolError, decode_patterns, encode_frame,
                       split_body)
from .worker import LocalFleet, error_reply

__all__ = ["ControlPlane", "ServiceConfig", "ScanService",
           "ServiceThread"]

_LEN_PREFIX = struct.Struct(">I")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    host: str = "127.0.0.1"
    port: int = 0                     # 0 = let the OS pick
    #: Default backend for SCAN (``None`` = execution planner).
    backend: Optional[str] = None
    #: Admission control: data requests in flight per target — the
    #: ops queued on or running in the scan threads (or a worker), plus
    #: the one inline walk the event loop may be running.
    max_pending: int = 64
    #: ``"reject"`` sheds load immediately; ``"wait"`` queues up to
    #: ``request_timeout`` seconds.
    admission: str = "reject"
    request_timeout: float = 5.0
    #: Grace period for in-flight requests at shutdown.
    drain_timeout: float = 10.0
    #: Threads executing the data ops that do not run inline on the
    #: event loop: block scans (numpy releases the GIL in the hot
    #: loop), forced backends, events and walks over the loop's budget.
    scan_threads: int = 4
    #: Flow-session table bound and eviction policy per generation.
    max_flows: int = 65536
    session_policy: str = "lru"
    #: Cap on match events returned per SCAN response.
    max_events: int = 1000
    max_frame_bytes: int = MAX_FRAME_BYTES
    #: Worker processes behind the gateway (0 = serve in-process).
    #: Pool mode compiles dictionaries once in the gateway and attaches
    #: every worker to the same shared-memory tables; flows stay
    #: worker-local by consistent hash of ``(tenant, flow_id)``.
    pool_workers: int = 0

    def validate(self) -> None:
        if self.admission not in ("reject", "wait"):
            raise ValueError(
                f"admission must be 'reject' or 'wait', got "
                f"{self.admission!r}")
        if self.max_pending < 1:
            raise ValueError("max_pending must be positive")
        if self.scan_threads < 1:
            raise ValueError("scan_threads must be positive")
        if self.pool_workers < 0:
            raise ValueError("pool_workers must be >= 0")


def _summed(parts: List[Dict]) -> Dict:
    """Key-wise sum of per-replica counters (nested dicts sum too)."""
    total: Dict = {}
    for part in parts:
        for key, value in part.items():
            total[key] = _summed([total.get(key, {}), value]) \
                if isinstance(value, dict) else total.get(key, 0) + value
    return total


@dataclass
class _Scope:
    """Control state of one dictionary scope."""

    compiled: CompiledDictionary
    generation: int = 1
    #: A tenant's ruleset bound to ``compiled`` (None: default scope).
    policy: Optional[CompiledRuleSet] = None
    policy_generation: int = 1
    last_swap_seconds: float = 0.0


class ControlPlane:
    """The single source of truth for what every replica serves:
    compiled artifacts, generations and bound rulesets — never a
    :class:`~repro.service.registry.Generation`, session table or
    verdict engine.  Each control op compiles and validates on the
    control thread, fans out to the fleet under one lock, and commits
    once every replica acked."""

    def __init__(self, patterns: Sequence, *, fold=None,
                 regex: bool = False, cache=None,
                 max_states: int = 1 << 30,
                 tenants: Optional[Dict[str, Dict]] = None) -> None:
        self._cache = ArtifactCache() if cache is True else cache
        self._max_states = max_states
        self._scopes: Dict[str, _Scope] = {
            "": _Scope(self._compile(patterns, regex, fold)[0])}
        # Startup tenants compile and bind here, so a bad config fails
        # the constructor; start() creates them on the fleet.
        for name, spec in (tenants or {}).items():
            self._scopes[name] = self._new_tenant(
                name, spec["patterns"], _ruleset(spec),
                bool(spec.get("regex")))
        # The control thread; it starts lazily, on first submit, so a
        # pool forks its workers before it exists.
        self.executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-control")
        self.fleet = None
        self._lock: Optional[asyncio.Lock] = None

    async def start(self, fleet) -> None:
        """Bring ``fleet`` up on the current state, then serve control
        ops through it."""
        self.fleet = fleet
        self._lock = asyncio.Lock()
        default = self._scopes[""]
        await fleet.start(default.compiled, default.generation)
        for name, scope in self._scopes.items():
            if name:
                await fleet.apply(
                    "tenant_create", scope=name, compiled=scope.compiled,
                    generation=scope.generation, rules=scope.policy)

    # -- state ---------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The default dictionary's active generation."""
        return self._scopes[""].generation

    def tenant_names(self) -> List[str]:
        return sorted(name for name in self._scopes if name)

    def scope(self, tenant: Optional[str]) -> _Scope:
        """``tenant``'s control state (``None`` = the default scope)."""
        if tenant is None:
            return self._scopes[""]
        scope = self._scopes.get(tenant) if tenant else None
        if scope is None:
            raise TenantError(f"unknown tenant {tenant!r}")
        return scope

    # -- compile: constructor or control thread, never the loop ---------------------

    def _compile(self, patterns: Sequence, regex: bool,
                 fold=None) -> Tuple[CompiledDictionary, bool]:
        """Compile through the artifact cache; also says if warm."""
        builds_before = COUNTERS["automaton_builds"]
        compiled = compile_dictionary(
            patterns, fold=fold, regex=regex,
            max_states=self._max_states, cache=self._cache)
        return compiled, COUNTERS["automaton_builds"] == builds_before

    def _new_tenant(self, name: str, patterns: Sequence, rules: RuleSet,
                    regex: bool) -> _Scope:
        if not name:
            raise TenantError("tenant needs a name")
        if name in self._scopes:
            raise TenantError(f"tenant {name!r} already exists")
        compiled = self._compile(patterns, regex)[0]
        return _Scope(compiled, policy=rules.compile(compiled))

    async def _off_loop(self, fn, *args):
        return await asyncio.get_running_loop().run_in_executor(
            self.executor, fn, *args)

    # -- control ops ---------------------------------------------------------------

    async def reload(self, tenant: Optional[str], patterns: Sequence,
                     regex: bool) -> Dict:
        """Compile, validate and install a scope's next generation."""
        async with self._lock:
            scope = self.scope(tenant)
            t0 = time.perf_counter()

            def _prepare():
                compiled, warm = self._compile(patterns, regex,
                                               scope.compiled.fold)
                # A tenant's active policy must bind to the incoming
                # dictionary, or the reload is refused before any
                # replica sees it.
                policy = None if scope.policy is None \
                    else scope.policy.ruleset.compile(compiled)
                return compiled, warm, policy

            compiled, warm, policy = await self._off_loop(_prepare)
            acks = await self.fleet.apply(
                "install", scope=tenant or "", compiled=compiled,
                generation=scope.generation + 1)
            scope.compiled, scope.policy = compiled, policy
            scope.generation += 1
            seconds = scope.last_swap_seconds = time.perf_counter() - t0
            return {"generation": scope.generation,
                    "seconds": seconds,
                    "warm": warm,
                    "patterns": compiled.num_patterns,
                    "slices": compiled.num_slices,
                    "states": compiled.total_states,
                    # Flow sessions live in the replicas.
                    "flows_carried": sum(int(ack["flows_carried"])
                                         for ack in acks)}

    async def tenant_create(self, name: str, patterns: Sequence,
                            rules: RuleSet, regex: bool) -> _Scope:
        async with self._lock:
            scope = await self._off_loop(self._new_tenant, name, patterns,
                                         rules, regex)
            await self.fleet.apply(
                "tenant_create", scope=name, compiled=scope.compiled,
                generation=scope.generation, rules=scope.policy)
            self._scopes[name] = scope
            return scope

    async def tenant_delete(self, name: str) -> None:
        async with self._lock:
            self.scope(name)
            # Unroutable first, so no new request reaches a replica
            # that is dropping the tenant.
            del self._scopes[name]
            await self.fleet.apply("tenant_delete", scope=name)

    async def policy_set(self, name: str, rules: RuleSet) -> int:
        """Validate ``rules`` against the tenant's dictionary, install
        them everywhere, return the new policy generation."""
        async with self._lock:
            scope = self.scope(name)
            policy = await self._off_loop(rules.compile, scope.compiled)
            await self.fleet.apply("policy_set", scope=name, rules=policy)
            scope.policy = policy
            scope.policy_generation += 1
            return scope.policy_generation

    async def stats(self) -> Tuple[Dict, List[Dict]]:
        """The STATS ``registry`` and ``tenants`` sections plus the
        replicas' raw acks: dictionary fields come from control state,
        session and verdict counters are summed over the replicas."""
        acks = await self.fleet.apply("stats")

        def registry(name: str) -> Dict:
            scope = self._scopes[name]
            compiled = scope.compiled
            sessions = _summed([ack["sessions"].get(name, {})
                                for ack in acks])
            return {"generation": scope.generation,
                    "patterns": compiled.num_patterns,
                    "slices": compiled.num_slices,
                    "states": compiled.total_states,
                    "fingerprint": compiled.fingerprint[:12],
                    "regex": compiled.regex,
                    "flows": sessions.get("flows", 0),
                    "sessions": sessions,
                    "swaps": scope.generation - 1,
                    "last_swap_ms": scope.last_swap_seconds * 1e3}

        tenants = {}
        for name in self.tenant_names():
            policy = self._scopes[name].policy
            tenants[name] = {
                "registry": registry(name),
                "policy": {
                    "generation": self._scopes[name].policy_generation,
                    "rules": len(policy.rules),
                    "mode": policy.mode,
                    "actions": [r.action for r in policy.rules],
                },
                "verdicts": _summed([ack["verdicts"].get(name, {})
                                     for ack in acks]),
            }
        return {"registry": registry(""), "tenants": tenants}, acks


class ScanService:
    """One daemon: a control plane and a fleet of replicas behind a
    length-prefixed TCP protocol.  Construct, :meth:`start` on an event
    loop (or wrap in :class:`ServiceThread`), connect with
    :class:`~repro.service.client.ServiceClient`."""

    def __init__(self, patterns: Sequence, *,
                 config: Optional[ServiceConfig] = None,
                 fold=None, regex: bool = False, cache=None,
                 max_states: int = 1 << 30,
                 tenants: Optional[Dict[str, Dict]] = None) -> None:
        self.config = config or ServiceConfig()
        self.config.validate()
        if self.config.backend is not None:
            get_backend(self.config.backend)   # fail fast on typos
        self.control = ControlPlane(patterns, fold=fold, regex=regex,
                                    cache=cache, max_states=max_states,
                                    tenants=tenants)
        self.metrics = ServiceMetrics()
        self.host: Optional[str] = None
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._fleet = None
        self._connections: set = set()
        self._pending = 0
        self._draining = False
        # Replaced and set whenever a slot frees, so every waiter on
        # it re-checks its condition (admission slot or drain).
        self._slot_freed: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._verbs = {
            "PING": self._verb_ping,
            "SCAN": self._verb_scan,
            "FLOW": functools.partial(self._flow_verb, kind="flow"),
            "CLOSE_FLOW": functools.partial(self._flow_verb,
                                            kind="close_flow"),
            "RELOAD": self._verb_reload,
            "TENANT": self._verb_tenant,
            "POLICY": self._verb_policy,
            "STATS": self._verb_stats,
            "SHUTDOWN": self._verb_shutdown,
        }

    def _tenant_of(self, frame: Frame) -> Optional[str]:
        """Resolve the optional ``tenant`` header field (None = the
        default, tenant-less scope)."""
        name = frame.header.get("tenant")
        if name is None:
            return None
        self.control.scope(str(name))         # unknown -> TenantError
        return str(name)

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; returns once the socket is listening
        (``self.port`` then holds the real port, even for port 0)."""
        self._slot_freed = asyncio.Event()
        self._stopped = asyncio.Event()
        # The one place the serving mode is chosen.
        fleet = WorkerPool if self.config.pool_workers > 0 else LocalFleet
        self._fleet = fleet(self, self.control.executor)
        try:
            await self.control.start(self._fleet)
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host,
                self.config.port)
        except BaseException:
            # A failed start (e.g. the port is taken) must not leave
            # forked workers, their segments or the control thread.
            await self._fleet.stop()
            self.control.executor.shutdown(wait=True)
            raise
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    async def serve(self) -> None:
        """Start and run until :meth:`shutdown` (the CLI entry point)."""
        await self.start()
        await self.wait_stopped()

    async def shutdown(self) -> None:
        """Graceful drain: stop accepting, finish in-flight requests
        (bounded by ``drain_timeout``), release every resource."""
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        try:
            await asyncio.wait_for(
                self._wait_until(lambda: self._pending == 0),
                                   timeout=self.config.drain_timeout)
        except asyncio.TimeoutError:
            pass
        for writer in list(self._connections):
            writer.close()
        await self._fleet.stop()
        self.control.executor.shutdown(wait=True)
        self._stopped.set()
    async def _wait_until(self, ready) -> None:
        while not ready():
            await self._slot_freed.wait()

    # -- connection handling -------------------------------------------------------

    async def _read_frame(self, reader: asyncio.StreamReader
                          ) -> Optional[Frame]:
        try:
            prefix = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            return None
        frame_len = _LEN_PREFIX.unpack(prefix)[0]
        if frame_len > self.config.max_frame_bytes:
            raise ProtocolError(
                f"frame of {frame_len} bytes exceeds the "
                f"{self.config.max_frame_bytes}-byte limit")
        body = await reader.readexactly(frame_len)
        # Zero-copy ingestion: the payload stays a memoryview over the
        # receive buffer; every scan path consumes buffers directly and
        # the view keeps the body alive for exactly one request.
        return split_body(body, zero_copy=True)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    frame = await self._read_frame(reader)
                except ProtocolError as exc:
                    self.metrics.record_error()
                    writer.write(encode_frame(
                        {"ok": False, "code": "protocol",
                         "error": str(exc)}))
                    await writer.drain()
                    break
                if frame is None:
                    break
                header, payload = await self._dispatch(frame)
                shutdown_after = header.pop("_shutdown", False)
                writer.write(encode_frame(header, payload))
                await writer.drain()
                if shutdown_after:
                    asyncio.create_task(self.shutdown())
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    # -- dispatch ------------------------------------------------------------------

    @staticmethod
    def _error(rid, code: str, message: str) -> Tuple[Dict, bytes]:
        return ({"id": rid, "ok": False, "code": code,
                 "error": message}, b"")

    async def _dispatch(self, frame: Frame) -> Tuple[Dict, bytes]:
        rid = frame.header.get("id")
        verb = frame.verb
        handler = self._verbs.get(verb)
        if handler is None:
            self.metrics.record_error()
            return self._error(rid, "bad-verb",
                               f"unknown verb {verb!r}")
        self.metrics.record_request(verb)
        try:
            return await handler(rid, frame)
        except WorkerCrashError as exc:
            # Accounted loss, never silent: the rejection counter
            # carries it and the client gets a retryable error — the
            # replacement worker (or a ring neighbour) takes the retry.
            self.metrics.record_error()
            self.metrics.record_rejected()
            return self._error(rid, "worker-crash", str(exc))
        except Exception as exc:  # keep the daemon up, report the verb
            # One taxonomy for both modes: a pool worker's failure
            # arrives already classified and its code is echoed.
            self.metrics.record_error()
            return {"id": rid, "ok": False, **error_reply(exc)}, b""

    # -- admission control ---------------------------------------------------------

    async def _admit(self, rid, target) -> Optional[Tuple[Dict, bytes]]:
        """Take one slot on ``target``; returns an error response when
        the request cannot be admitted.  Backpressure tracks the target
        that will serve the request: in pool mode a hot hash span
        rejects while the rest of the fleet keeps absorbing load."""
        if self._draining:
            return self._error(rid, "draining", "service is shutting "
                               "down")
        cap = self._fleet.cap
        if target.depth >= cap:
            if self.config.admission == "reject":
                self.metrics.record_rejected()
                return self._error(
                    rid, "busy",
                    f"queue full ({cap} in flight); retry")
            # Soft: a burst of waiters waking together may briefly
            # overshoot a worker's cap, which only deepens its mailbox,
            # never loses a request.  A dead worker wakes its waiters
            # so they fail fast with ``worker-crash``.
            try:
                await asyncio.wait_for(
                    self._wait_until(
                        lambda: not target.alive or target.depth < cap),
                    timeout=self.config.request_timeout)
            except asyncio.TimeoutError:
                self.metrics.record_timeout()
                return self._error(
                    rid, "timeout",
                    f"no scan slot within "
                    f"{self.config.request_timeout:.3g}s")
            if self._draining:
                return self._error(rid, "draining",
                                   "service is shutting down")
        self._pending += 1
        self.metrics.set_queue_depth(self._pending)
        return None

    def wake_slot_waiters(self) -> None:
        """A target's depth dropped: let every queued admission (and
        the drain) re-check its condition."""
        freed, self._slot_freed = self._slot_freed, asyncio.Event()
        freed.set()

    def _release_slot(self) -> None:
        self._pending -= 1
        self.metrics.set_queue_depth(self._pending)
        self.wake_slot_waiters()

    # -- data verbs -----------------------------------------------------------------

    async def _data_verb(self, rid, kind: str, target, meta: Dict,
                         payload=b"") -> Tuple[Dict, bytes]:
        """Admit, run one data-plane op on ``target``, release."""
        admission = await self._admit(rid, target)
        if admission is not None:
            return admission
        try:
            result = await target.call(kind, meta, payload)
            return dict(result, id=rid, ok=True), b""
        finally:
            self._release_slot()

    # -- verbs ---------------------------------------------------------------------

    async def _verb_ping(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        return ({"id": rid, "ok": True,
                 "generation": self.control.generation}, b"")

    async def _verb_scan(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        meta = {
            "tenant": self._tenant_of(frame),
            "backend": frame.header.get("backend") or self.config.backend,
            "events": bool(frame.header.get("events"))}
        return await self._data_verb(rid, "scan", self._fleet.target(),
                                     meta, frame.payload)

    async def _flow_verb(self, rid, frame: Frame,
                         kind: str) -> Tuple[Dict, bytes]:
        """FLOW and CLOSE_FLOW pin to the consistent-hash owner of
        ``(tenant, flow_id)`` so the session's DFA state never leaves
        its replica."""
        flow_id = frame.header.get("flow")
        if flow_id is None:
            return self._error(rid, "bad-request",
                               f"{frame.verb} needs a 'flow' id")
        tenant = self._tenant_of(frame)
        return await self._data_verb(
            rid, kind, self._fleet.target(tenant or "", flow_id),
            {"flow": flow_id, "tenant": tenant}, frame.payload)

    async def _verb_reload(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        tenant = self._tenant_of(frame)
        result = await self.control.reload(
            tenant, decode_patterns(frame.payload),
            bool(frame.header.get("regex")))
        self.metrics.record_reload(result["seconds"], result["warm"])
        header = dict(result, id=rid, ok=True)
        if tenant is not None:
            header["tenant"] = tenant
        return header, b""

    async def _verb_tenant(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        op = str(frame.header.get("op", "list"))
        if op == "list":
            return ({"id": rid, "ok": True,
                     "tenants": self.control.tenant_names()}, b"")
        name = frame.header.get("name")
        if not name:
            return self._error(rid, "bad-request",
                               f"TENANT {op} needs a 'name'")
        name = str(name)
        if op == "create":
            patterns = decode_patterns(frame.payload)
            rules = _ruleset(frame.header)
            scope = await self.control.tenant_create(
                name, patterns, rules, bool(frame.header.get("regex")))
            return ({"id": rid, "ok": True, "tenant": name,
                     "generation": scope.generation,
                     "policy_generation": scope.policy_generation,
                     "rules": len(rules),
                     "patterns": len(patterns)}, b"")
        if op == "delete":
            await self.control.tenant_delete(name)
            self.metrics.forget_tenant(name)
            return ({"id": rid, "ok": True, "tenant": name,
                     "deleted": True}, b"")
        if op == "info":
            info = (await self.control.stats())[0]["tenants"].get(name)
            if info is None:
                raise TenantError(f"unknown tenant {name!r}")
            return ({"id": rid, "ok": True, "tenant": name,
                     "info": info}, b"")
        return self._error(rid, "bad-request",
                           f"unknown TENANT op {op!r} (create/delete/"
                           f"list/info)")

    async def _verb_policy(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        name = frame.header.get("tenant")
        if not name:
            return self._error(rid, "bad-request",
                               "POLICY needs a 'tenant'")
        name = str(name)
        op = str(frame.header.get("op", "get"))
        if op == "get":
            scope = self.control.scope(name)
            return ({"id": rid, "ok": True, "tenant": name,
                     "policy_generation": scope.policy_generation,
                     "mode": scope.policy.mode,
                     "rules": scope.policy.ruleset.to_specs()}, b"")
        if op == "set":
            rules = _ruleset(frame.header)
            generation = await self.control.policy_set(name, rules)
            return ({"id": rid, "ok": True, "tenant": name,
                     "policy_generation": generation,
                     "rules": len(rules)}, b"")
        return self._error(rid, "bad-request",
                           f"unknown POLICY op {op!r} (set/get)")

    async def _verb_stats(self, rid, frame: Frame) -> Tuple[Dict, bytes]:
        sections, acks = await self.control.stats()
        header: Dict[str, object] = {
            "id": rid, "ok": True,
            "generation": self.control.generation,
            **sections,
            "reload_strategy": RELOAD_STRATEGY,
            "config": {
                "backend": self.config.backend or "auto",
                "max_pending": self.config.max_pending,
                "admission": self.config.admission,
                "max_flows": self.config.max_flows,
                "session_policy": self.config.session_policy,
                "pool_workers": self.config.pool_workers,
            },
            # Replica histograms merge bucket-wise with the gateway's
            # counters, so p50/p95/p99 are computed over the union of
            # samples, not averaged per replica.
            "metrics": ServiceMetrics.merged_snapshot(
                [self.metrics.state()] + [ack["metrics"] for ack in acks]),
            **self._fleet.describe(acks)}
        return header, b""

    async def _verb_shutdown(self, rid,
                             frame: Frame) -> Tuple[Dict, bytes]:
        return ({"id": rid, "ok": True, "draining": True,
                 "generation": self.control.generation,
                 "_shutdown": True}, b"")


def _ruleset(fields: Dict) -> RuleSet:
    """The ``rules``/``mode`` fields of a tenant config, a TENANT
    create or a POLICY set."""
    rules = fields.get("rules")
    if isinstance(rules, RuleSet):
        return rules
    return RuleSet.from_specs(rules or [],
                              mode=str(fields.get("mode", "first-match")))


class ServiceThread:
    """Run a :class:`ScanService` on a dedicated event-loop thread.

    This is how synchronous callers (tests, ``repro bench-load``, the
    load generator) host a daemon in-process::

        with ServiceThread(ScanService(["virus"])) as handle:
            client = ServiceClient(handle.host, handle.port)
            ...

    ``stop()`` performs the daemon's graceful drain.
    """

    def __init__(self, service: ScanService) -> None:
        self.service = service
        self._thread = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = None
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.service.host

    @property
    def port(self) -> int:
        return self.service.port

    def start(self) -> "ServiceThread":
        import threading

        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-service")
        self._thread.start()
        self._started.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.service.port is None:
            raise RuntimeError("service failed to start within 30s")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            self._loop.close()
            return
        self._started.set()
        try:
            self._loop.run_until_complete(self.service.wait_stopped())
        finally:
            self._loop.close()

    def stop(self) -> None:
        """Graceful drain from any thread (idempotent)."""
        if self._loop is None or self._thread is None:
            return
        if self._thread.is_alive() and not self._loop.is_closed():
            future = asyncio.run_coroutine_threadsafe(
                self.service.shutdown(), self._loop)
            try:
                future.result(timeout=30)
            except Exception:
                pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

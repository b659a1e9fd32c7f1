"""Gateway-side worker pool: fork, route, fan out, restart.

The multi-process topology mirrors the paper's Cell layout: the
gateway is the PPE — it owns the network, compiles every dictionary
exactly once and orchestrates generation swaps — while each worker
process is an SPE that *attaches* to the compiled tables through
shared memory (:class:`~repro.core.scan.bundle.SharedArrayBundle`)
and runs the scan loops in the same
:class:`~repro.service.worker.Replica` the in-process daemon runs.

Three pieces live here:

* :class:`ConsistentHashRing` — flow placement.  ``(tenant, flow_id)``
  hashes onto a ring of virtual nodes so a flow's session state stays
  on one worker for its lifetime; a worker that dies and restarts
  reclaims exactly its old ring span (the ring is keyed by worker
  *index*, not pid), and while it is down its span drains to ring
  neighbours instead of rehashing the world.
* :class:`WorkerHandle` — one worker process plus its duplex pipe.  A
  sender thread drains an outbound queue, a receiver thread parks in
  ``recv`` and resolves pending futures on the gateway's event loop;
  an EOF fails every in-flight future with :class:`WorkerCrashError`
  (accounted by the daemon as rejects — never a silent drop) and
  triggers an automatic restart.
* :class:`WorkerPool` — the fleet: spawn-before-serving, one fan-out
  for every control op, bundle ownership (the gateway's copy of each
  generation's segment is unlinked only after every worker has
  attached the successor), striping for stateless scans, per-worker
  admission depths and crash/restart bookkeeping.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import math
import multiprocessing as mp
import queue
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple

from ..core.compiled import compiled_arrays
from ..core.scan.bundle import SharedArrayBundle
from .worker import WorkerOpError, worker_main

__all__ = ["ConsistentHashRing", "WorkerCrashError", "WorkerOpError",
           "WorkerHandle", "WorkerPool", "PoolError"]


def _export(compiled) -> SharedArrayBundle:
    """A dictionary's shared-memory image: the artifact file's arrays
    in one segment, attached by every worker."""
    arrays, scalars = compiled_arrays(compiled)
    return SharedArrayBundle("compiled", arrays.items(), scalars)


class PoolError(Exception):
    """Raised for unusable pool configurations or a dead fleet."""


class WorkerCrashError(Exception):
    """The worker died with requests in flight (or before accepting
    one).  The daemon surfaces this as a ``worker-crash`` error and
    counts it as a rejection — the client sees the failure, retries,
    and lands on the restarted worker or a ring neighbour."""

    code = "worker-crash"


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big")


class ConsistentHashRing:
    """Consistent hashing over worker indices with virtual nodes.

    ~``vnodes`` points per worker keep the per-worker key share within
    a few percent of uniform; placement walks clockwise from the key's
    position to the first *alive* owner, so a dead worker's span
    spreads over its ring successors and snaps back when it returns.
    """

    def __init__(self, size: int, vnodes: int = 64) -> None:
        if size < 1:
            raise PoolError("ring needs at least one worker")
        points: List[Tuple[int, int]] = []
        for worker in range(size):
            for v in range(vnodes):
                points.append((_hash64(b"worker-%d-vnode-%d"
                                       % (worker, v)), worker))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [w for _, w in points]

    @staticmethod
    def key(tenant: str, flow_id: object) -> bytes:
        return ("%s\x00%r" % (tenant, flow_id)).encode()

    def place(self, tenant: str, flow_id: object,
              alive: List[bool]) -> int:
        """Worker index owning ``(tenant, flow_id)`` among ``alive``."""
        start = bisect.bisect_right(self._hashes,
                                    _hash64(self.key(tenant, flow_id)))
        n = len(self._owners)
        for step in range(n):
            owner = self._owners[(start + step) % n]
            if alive[owner]:
                return owner
        raise PoolError("no alive workers in the pool")


class WorkerHandle:
    """One forked worker process and its message plumbing.

    All future bookkeeping (``_pending``, ``depth``) is confined to the
    gateway's event loop: ``call`` runs on the loop and pipe events are
    marshalled back with ``call_soon_threadsafe``.
    """

    def __init__(self, index: int, ctx, init: Dict,
                 loop: asyncio.AbstractEventLoop,
                 on_down, on_slot) -> None:
        self.index = index
        self.loop = loop
        #: The default scope's generation this worker started on
        self.generation = init["scopes"][0]["generation"]
        self.alive = False
        self.stopping = False
        self.depth = 0
        self._on_down = on_down
        self._on_slot = on_slot
        self._seq = 0
        self._pending: Dict[int, asyncio.Future] = {}
        self._send_q: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self.ready: asyncio.Future = loop.create_future()
        self._conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=worker_main, args=(child, init),
                                daemon=True,
                                name=f"repro-pool-worker-{index}")
        self.proc.start()
        child.close()
        self._sender = threading.Thread(
            target=self._send_loop, daemon=True,
            name=f"repro-pool-send-{index}")
        self._receiver = threading.Thread(
            target=self._recv_loop, daemon=True,
            name=f"repro-pool-recv-{index}")
        self._sender.start()
        self._receiver.start()

    # -- pipe threads ---------------------------------------------------------------

    def _send_loop(self) -> None:
        while True:
            msg = self._send_q.get()
            if msg is None:
                break
            try:
                self._conn.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                break

    def _recv_loop(self) -> None:
        while True:
            try:
                msg = self._conn.recv()
            except (EOFError, OSError, ValueError, TypeError):
                # ValueError/TypeError: the gateway closed the handle
                # (nulling its fd) between our recv calls during shutdown.
                break
            self.loop.call_soon_threadsafe(self._deliver, msg)
        self.loop.call_soon_threadsafe(self._on_eof)

    # -- event-loop side ------------------------------------------------------------

    def _deliver(self, msg: tuple) -> None:
        seq, ok, result = msg
        if seq == -1:
            if not self.ready.done():
                if ok:
                    self.alive = True
                    self.ready.set_result(result)
                else:
                    self.ready.set_exception(WorkerOpError(
                        result.get("code", "worker-init"),
                        str(result.get("error", "worker init failed"))))
            return
        fut = self._pending.pop(seq, None)
        if fut is None:
            return
        self.depth -= 1
        self._on_slot()
        if fut.done():
            return
        if ok:
            fut.set_result(result)
        else:
            fut.set_exception(WorkerOpError(
                result.get("code", "internal"),
                str(result.get("error", "worker error"))))

    def _on_eof(self) -> None:
        was_alive = self.alive
        self.alive = False
        self._send_q.put(None)          # retire the sender thread too
        if not self.ready.done():
            self.ready.set_exception(
                WorkerCrashError(f"worker {self.index} died during "
                                 f"startup"))
        pending, self._pending = self._pending, {}
        self.depth = 0
        for fut in pending.values():
            if not fut.done():
                fut.set_exception(WorkerCrashError(
                    f"worker {self.index} died with the request in "
                    f"flight"))
        if pending:
            self._on_slot()
        if was_alive and not self.stopping:
            self._on_down(self, len(pending))

    def call(self, kind: str, meta: Optional[Dict] = None,
             payload=b"") -> "asyncio.Future":
        """Issue one op; resolves with the worker's result dict."""
        if not self.alive:
            fut = self.loop.create_future()
            fut.set_exception(WorkerCrashError(
                f"worker {self.index} is down"))
            return fut
        self._seq += 1
        fut = self.loop.create_future()
        self._pending[self._seq] = fut
        self.depth += 1
        # The pipe pickles; a zero-copy memoryview payload materializes
        # exactly once, here at the process boundary.
        self._send_q.put((kind, self._seq, meta or {},
                          bytes(payload) if payload else b""))
        return fut

    def shutdown(self, timeout: float = 5.0) -> None:
        """Tear down the process and pipe threads (blocking; called
        off the hot path during service shutdown)."""
        self.stopping = True
        self.alive = False
        # A worker still starting up missed the pool's "stop" round,
        # and its inherited copy of this pipe end hides our close.
        self._send_q.put(("stop", -2, {}, b""))
        self._send_q.put(None)
        self._sender.join(timeout)
        try:
            self._conn.close()
        except OSError:
            pass
        self.proc.join(timeout)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout)
        self._receiver.join(timeout)    # its EOF lands while the loop runs


class WorkerPool:
    """The gateway's fleet of scan workers, one replica per process,
    behind the same surface as :class:`~repro.service.worker.LocalFleet`.

    Owns each scope's shared-memory bundle and pipe image (what a
    restarted worker initializes from), the placement ring and the
    per-worker admission depths.  Every public coroutine runs on the
    gateway's event loop.
    """

    def __init__(self, service, executor: ThreadPoolExecutor) -> None:
        cfg = service.config
        if "fork" not in mp.get_all_start_methods():
            raise PoolError(
                "pool mode needs the fork start method (shared-memory "
                "attach without resource-tracker duplication)")
        self.service = service
        self.size = int(cfg.pool_workers)
        if self.size < 1:
            raise PoolError("pool_workers must be >= 1 in pool mode")
        self._ctx = mp.get_context("fork")
        self._executor = executor
        self.ring = ConsistentHashRing(self.size)
        self.handles: List[WorkerHandle] = []
        #: scope -> owned bundle / recreating pipe meta (``""`` first)
        self._bundles: Dict[str, SharedArrayBundle] = {}
        self._images: Dict[str, Dict] = {}
        #: Backpressure is budgeted per worker: the service-wide
        #: max_pending splits evenly so one hot hash span cannot
        #: starve the rest of the fleet.
        self.cap = max(1, math.ceil(cfg.max_pending / self.size))
        self.restarts = 0
        self.crashed_requests = 0
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    # -- lifecycle ------------------------------------------------------------------

    async def start(self, compiled, generation: int) -> None:
        """Export the default dictionary and fork the fleet; tenants
        arrive afterwards through :meth:`apply`.

        Must run before the gateway binds its socket or runs anything
        on an executor: fork duplicates the calling thread only, and a
        child must never inherit live executor threads or server FDs.
        """
        self._loop = asyncio.get_running_loop()
        bundle = _export(compiled)
        self._bundles[""] = bundle
        self._images[""] = {"bundle_meta": bundle.meta(),
                            "generation": generation}
        for index in range(self.size):
            self.handles.append(self._spawn(index))
        await asyncio.gather(*(h.ready for h in self.handles))

    def _spawn(self, index: int) -> WorkerHandle:
        # Workers fork, so ``init`` reaches them unpickled: the
        # gateway's own ServiceConfig is the worker's config.
        init = {"config": self.service.config,
                "scopes": [dict(image, scope=scope)
                           for scope, image in self._images.items()]}
        return WorkerHandle(index, self._ctx, init, self._loop,
                            self._worker_down, self._notify_slot)

    def _worker_down(self, handle: WorkerHandle, in_flight: int) -> None:
        """Crash callback (event loop): account the dropped requests
        and bring a replacement up on the same ring position."""
        self.restarts += 1
        self.crashed_requests += in_flight
        for _ in range(in_flight):
            self.service.metrics.record_rejected()
        if not self._stopping:
            self._loop.create_task(self._restart(handle.index))

    async def _restart(self, index: int) -> None:
        handle = self._spawn(index)
        self.handles[index] = handle
        try:
            await asyncio.wait_for(asyncio.shield(handle.ready), 30.0)
        except (WorkerCrashError, WorkerOpError, asyncio.TimeoutError):
            # Replacement failed too; its span keeps draining to ring
            # neighbours and the next crash cycle may retry.
            pass

    async def stop(self) -> None:
        """Graceful drain: every live worker acks a ``stop`` (closing
        its sessions and attachments), then processes and owned
        segments are torn down.  Each ack carries the worker's final
        metrics, folded into the gateway's so the service's
        post-shutdown snapshot still holds the worker-side counters."""
        self._stopping = True
        futs = []
        for handle in self.handles:
            handle.stopping = True
            if handle.alive:
                futs.append(handle.call("stop"))
        if futs:
            done, _ = await asyncio.wait(futs, timeout=10.0)
            for fut in done:
                if fut.exception() is None:
                    self.service.metrics.absorb(fut.result()["metrics"])
        for handle in self.handles:
            handle.shutdown()
        for bundle in self._bundles.values():
            bundle.close()
        self._bundles.clear()

    # -- placement ------------------------------------------------------------------

    def target(self, tenant: str = "", flow_id: object = None
               ) -> WorkerHandle:
        """The worker owning a flow's hash span; a stateless request
        (no ``flow_id``) stripes to the idlest live worker."""
        if flow_id is not None:
            return self.handles[self.ring.place(
                tenant, flow_id, [h.alive for h in self.handles])]
        alive = [h for h in self.handles if h.alive]
        if not alive:
            raise WorkerCrashError("no alive workers in the pool")
        return min(alive, key=lambda h: h.depth)

    def _notify_slot(self) -> None:
        """A worker's depth dropped (a reply or a crash): let queued
        admissions re-check their target."""
        self.service.wake_slot_waiters()

    # -- fleet ops ------------------------------------------------------------------

    async def apply(self, op: str, compiled=None, rules=None,
                    **meta) -> List[Dict]:
        """Fan one replica control op out to every live worker; returns
        the acks.  The gateway side of the pipe boundary: a compiled
        dictionary goes out as a fresh bundle's meta, a ruleset as its
        specs.

        Lease-before-retire across processes: the scope's image flips
        *first* (a worker restarting mid-op initializes on the new
        state, so one crashing mid-op is skipped), every worker
        attaches and promotes before acking, and only after the last
        ack does the gateway close the superseded segment.
        """
        scope = meta.get("scope")
        bundle = retired = None
        if compiled is not None:
            bundle = await self._loop.run_in_executor(
                self._executor, _export, compiled)
            meta["bundle_meta"] = bundle.meta()
        if rules is not None:                  # a bound ruleset
            meta.update(rules=rules.ruleset.to_specs(), mode=rules.mode)
        if op == "tenant_delete":
            self._images.pop(scope, None)
            retired = self._bundles.pop(scope, None)
        elif scope is not None:
            self._images.setdefault(scope, {}).update(
                (k, v) for k, v in meta.items() if k != "scope")
            if bundle is not None:
                retired = self._bundles.get(scope)
                self._bundles[scope] = bundle
        calls = [h.call(op, meta) for h in self.handles if h.alive]
        acks: List[Dict] = []
        try:
            for fut in calls:
                try:
                    acks.append(await fut)
                except WorkerCrashError:
                    continue
        finally:
            if retired is not None:
                retired.close()
        return acks

    # -- observability --------------------------------------------------------------

    def describe(self, acks: List[Dict]) -> Dict[str, object]:
        """The STATS ``pool`` section, folding in the workers' ``stats``
        acks (flows, builds, generation)."""
        by_pid = {ack["pid"]: ack for ack in acks}
        workers = []
        for handle in self.handles:
            ack = by_pid.get(handle.proc.pid, {})
            workers.append({
                "index": handle.index,
                "pid": handle.proc.pid,
                "alive": handle.alive,
                "depth": handle.depth,
                # A worker that came up after the stats fan-out
                # started on the current images.
                "generation": ack.get("generation", handle.generation),
                "flows": sum(int(s["flows"]) for s in
                             ack.get("sessions", {}).values()),
                "automaton_builds": ack.get("automaton_builds", 0),
            })
        return {"pool": {
            "size": self.size,
            "per_worker_cap": self.cap,
            "restarts": self.restarts,
            "crashed_requests": self.crashed_requests,
            "flows": sum(int(w["flows"]) for w in workers),
            "workers": workers,
        }}

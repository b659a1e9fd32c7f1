"""Outside-in tracing: replay a workload's requests through each
layer's public functions, in the daemon's order, and time every call.

Nothing inside ``src/`` is instrumented.  A request span
``daemon.request`` parents one span per call the daemon makes for that
request; its self time is the replay's own glue between the calls.
*Side* spans time calls the daemon makes inside another call (the
planner and the screen run inside ``execute``) or not at all for this
workload, so every per-layer metric exists on every workload; side
spans have no parent and never count toward the request sum.

A span's name is ``layer.call``; the layer is the module the call
lives in.  Spans stay in memory and are written as JSON lines at the
end.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import Op
from repro.core.backends import ScanContext, ScanRequest, execute
from repro.core.planner import plan_backend
from repro.policy.rules import RuleSet
from repro.policy.tenants import Tenant, TenantManager
from repro.service.protocol import encode_frame, split_body
from repro.service.registry import DictionaryRegistry
from repro.service.sessions import SessionScanner
from workloads import Workload, acme_rulesets

ROOT_SPAN = "daemon.request"
#: The session and policy side replays walk the payload in Python at
#: about 1.4 MB/s; they stop after this many payload bytes.
SLOW_REPLAY_BYTES = 2 << 20
#: Requests replayed untimed first, so lazily built tables are ready.
WARM_REQUESTS = 20
SWAP_REPEATS = 5
POLICY_SWAP_REPEATS = 20


class Tracer:
    """In-memory spans: ``[rid, name, parent index, start_ns, end_ns]``."""

    def __init__(self) -> None:
        self.spans: List[list] = []

    def open(self, rid: int, name: str, parent: Optional[int] = None
             ) -> int:
        self.spans.append([rid, name, parent, time.perf_counter_ns(), 0])
        return len(self.spans) - 1

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter_ns()

    def add(self, rid: int, name: str, parent: Optional[int],
            start_ns: int, end_ns: int) -> int:
        self.spans.append([rid, name, parent, start_ns, end_ns])
        return len(self.spans) - 1

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (rid, name, parent, start, end) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"span": sid, "rid": rid, "name": name,
                                     "parent": parent, "start_ns": start,
                                     "end_ns": end}) + "\n")


def _call(tr: Optional[Tracer], rid: int, name: str, parent: Optional[int],
          fn: Callable, *args):
    """Call ``fn`` inside a span (or bare when tracing is off)."""
    if tr is None:
        return fn(*args)
    sid = tr.open(rid, name, parent)
    try:
        return fn(*args)
    finally:
        tr.close(sid)


def self_times(spans: Sequence[Sequence]) -> List[int]:
    """Each span's duration minus the part of its interval its children
    cover (overlapping children are counted once)."""
    children: Dict[int, List[Tuple[int, int]]] = {}
    for _, _, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, (_, _, _, start, end) in enumerate(spans):
        covered, cursor = 0, start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_table(spans: Sequence[Sequence]) -> Tuple[Dict[str, float], float]:
    """Mean self time per request of each layer on the request path
    (``daemon`` = the glue between calls), and the mean request span,
    both in microseconds."""
    selfs = self_times(spans)
    roots = [sid for sid, s in enumerate(spans) if s[1] == ROOT_SPAN]
    on_path = set(roots)
    for sid, s in enumerate(spans):     # children follow their parents
        if s[2] in on_path:
            on_path.add(sid)
    layers: Dict[str, float] = {}
    for sid in on_path:
        layer = spans[sid][1].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + selfs[sid] / 1e3
    n = len(roots)
    request_us = sum(spans[r][4] - spans[r][3] for r in roots) / 1e3 / n
    return {k: v / n for k, v in layers.items()}, request_us


def _durations_us(tr: Tracer, name: str) -> List[float]:
    return [(s[4] - s[3]) / 1e3 for s in tr.spans if s[1] == name]


def _plan(ctx: ScanContext, data) -> object:
    """``plan_backend`` with the arguments ``execute`` derives for a
    count-only single-worker block request."""
    c = ctx.compiled
    return plan_backend(
        nbytes=len(data), streaming=False, workers=1, with_events=False,
        num_slices=c.num_slices, fuse=True, exact=c.supports_hot_cold,
        fused_bytes=c.fused_table_bytes, pair_fit=c.pair_table_fits(),
        screenable=c.prefilter() is not None)


def _verdict_span(tr: Tracer, rid: int, verdict) -> None:
    """The verdict fold runs last inside ``Tenant.scan_packet`` and
    reports its own duration: add it as a derived child span ending
    with the call just recorded."""
    parent = len(tr.spans) - 1
    end = tr.spans[parent][4]
    tr.add(rid, "policy.verdict", parent,
           end - int(verdict.seconds * 1e9), end)


def _request_header(op: Op, rid: int) -> Dict[str, object]:
    header: Dict[str, object] = {"verb": op.kind.upper(), "id": rid}
    if op.flow is not None:
        header["flow"] = op.flow
    if op.tenant is not None:
        header["tenant"] = op.tenant
    return header


class Replay:
    """In-process mirror of one daemon's data path for a workload."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.registry = DictionaryRegistry(workload.patterns)
        self.tenants = TenantManager()
        for name, spec in workload.tenant_specs().items():
            rules = RuleSet.from_specs(spec["rules"]) \
                if "rules" in spec else None
            self.tenants.create(name, spec["patterns"], rules=rules)

    def close(self) -> None:
        self.registry.close()
        self.tenants.close()

    # -- the request path -----------------------------------------------------------

    def request(self, rid: int, op: Op, body: bytes,
                tr: Optional[Tracer]) -> None:
        root = tr.open(rid, ROOT_SPAN) if tr is not None else None
        frame = _call(tr, rid, "protocol.split_body", root, split_body,
                      body, True)
        if op.tenant is not None:
            header = self._tenant_flow(rid, op, frame.payload, tr, root)
        else:
            lease = _call(tr, rid, "registry.lease", root,
                          self.registry.lease)
            with lease as gen:
                if op.kind == "scan":
                    outcome = _call(tr, rid, "scan.execute", root, execute,
                                    gen.ctx, ScanRequest(data=frame.payload),
                                    None)
                    header = {"id": rid, "ok": True,
                              "generation": gen.gen_id,
                              "matches": outcome.total_matches,
                              "bytes": outcome.bytes_scanned,
                              "backend": outcome.backend, "workers": 1,
                              "seconds": outcome.seconds}
                else:
                    new, total, _ = _call(
                        tr, rid, "sessions.scan_packet", root,
                        gen.sessions.scan_packet, op.flow, frame.payload)
                    header = {"id": rid, "ok": True,
                              "generation": gen.gen_id, "flow": op.flow,
                              "matches": new, "flow_total": total,
                              "bytes": len(frame.payload), "seconds": 0.0}
        _call(tr, rid, "protocol.encode_frame", root, encode_frame, header)
        if tr is not None:
            tr.close(root)

    def _tenant_flow(self, rid: int, op: Op, payload, tr: Optional[Tracer],
                     root: Optional[int]) -> Dict[str, object]:
        tenant = self.tenants.get(op.tenant)
        verdict, gen_id, _ = _call(tr, rid, "policy.Tenant.scan_packet",
                                   root, tenant.scan_packet, op.flow,
                                   payload)
        if tr is not None:
            _verdict_span(tr, rid, verdict)
        return {"id": rid, "ok": True, "generation": gen_id,
                "tenant": op.tenant, "flow": op.flow,
                "matches": verdict.new_matches,
                "flow_total": verdict.flow_total, "bytes": len(payload),
                "seconds": 0.0, "action": verdict.action}

    def run(self, ops: Sequence[Op], tr: Optional[Tracer]) -> List[float]:
        """Replay ``ops``; returns each request's seconds."""
        times = []
        for rid, op in enumerate(ops):
            body = encode_frame(_request_header(op, rid),
                                self.workload.payload(op.key))[4:]
            t0 = time.perf_counter()
            self.request(rid, op, body, tr)
            times.append(time.perf_counter() - t0)
        return times


def replay_ops(workload: Workload, n: int) -> List[Op]:
    """The workload's first ``n`` data requests, connections taken in
    turn (controls skipped)."""
    streams = [workload.stream(c) for c in range(workload.connections)]
    ops: List[Op] = []
    while len(ops) < n:
        for stream in streams:
            op, _ = next(stream)
            while op.control:
                op, _ = next(stream)
            ops.append(op)
    return ops[:n]


def side_replays(workload: Workload, ops: Sequence[Op], tr: Tracer,
                 work: Path) -> Dict[str, float]:
    """Time the layers the request path does not expose on their own,
    over the same requests; returns the metrics they yield."""
    ctx = ScanContext(workload.compiled)
    pf = workload.compiled.prefilter()
    kern = ctx.kernel(ctx.batch_kernel_name())
    first = np.frombuffer(workload.payload(ops[0].key), dtype=np.uint8)
    _plan(ctx, first)           # fill the planner's lazily derived inputs
    kern.count_total(first)
    kern.reset_stats()
    screened = candidate = falls = kernel_bytes = 0
    registry = DictionaryRegistry(workload.patterns)
    for rid, op in enumerate(ops):
        data = workload.payload(op.key)
        arr = np.frombuffer(data, dtype=np.uint8)
        _call(tr, rid, "planner.plan_backend", None, _plan, ctx, data)
        res = _call(tr, rid, "prefilter.screen", None, pf.screen, arr)
        screened += arr.size
        candidate += arr.size if res.fall_through else res.candidate_bytes
        falls += res.fall_through
        _call(tr, rid, "scan.kernel", None, kern.count_total, arr)
        kernel_bytes += arr.size
        if op.tenant is not None:
            # Tenant FLOWs lease inside Tenant.scan_packet; time the
            # lease on its own here.
            with _call(tr, rid, "registry.lease", None, registry.lease):
                pass
    kstats = kern.stats()
    ctx.close()
    registry.close()

    sessions = SessionScanner(workload.compiled)
    side_tenant = None
    if not any(op.tenant for op in ops):
        side_tenant = Tenant("side", workload.patterns,
                             rules=acme_rulesets(workload.patterns)[0])
    walked = 0
    for rid, op in enumerate(ops):
        if walked >= SLOW_REPLAY_BYTES:
            break
        data = workload.payload(op.key)
        flow = op.flow or f"c{rid % workload.connections}"
        _call(tr, rid, "sessions.scan_packet", None,
              sessions.scan_packet, flow, data)
        if side_tenant is not None:
            verdict, _, _ = _call(tr, rid, "policy.Tenant.scan_packet",
                                  None, side_tenant.scan_packet, flow, data)
            _verdict_span(tr, rid, verdict)
        walked += len(data)
    if side_tenant is not None:
        side_tenant.close()

    kernel_s = sum(_durations_us(tr, "scan.kernel")) / 1e6
    screen_s = sum(_durations_us(tr, "prefilter.screen")) / 1e6
    return {
        "planner.plan_us": statistics.fmean(
            _durations_us(tr, "planner.plan_backend")),
        "prefilter.screen_mb_per_s": screened / 1e6 / screen_s,
        "prefilter.candidate_fraction": candidate / screened,
        "prefilter.fall_through_share": falls / len(ops),
        "scan.kernel_mb_per_s": kernel_bytes / 1e6 / kernel_s,
        "scan.hot_hit_rate": float(kstats.get("hot_hit_rate", 1.0)),
        "scan.cold_steps_per_mb": kstats.get("cold_steps", 0)
        / (kernel_bytes / 1e6),
        "sessions.scan_packet_us": statistics.fmean(
            _side_durations_us(tr, "sessions.scan_packet")),
        "policy.verdict_us": statistics.fmean(
            _durations_us(tr, "policy.verdict")),
        "registry.lease_us": statistics.fmean(
            _durations_us(tr, "registry.lease")),
        "registry.swap_ms": _swap_ms(workload, tr, work),
        "policy.swap_ms": _policy_swap_ms(workload, tr),
    }


def _side_durations_us(tr: Tracer, name: str) -> List[float]:
    return [(s[4] - s[3]) / 1e3 for s in tr.spans
            if s[1] == name and s[2] is None]


def _swap_ms(workload: Workload, tr: Tracer, work: Path) -> float:
    """Median warm RELOAD of the same set: ``DictionaryRegistry.load``
    through an artifact cache that already holds it."""
    with DictionaryRegistry(workload.patterns,
                            cache=work / "replay-cache") as registry:
        for i in range(SWAP_REPEATS):
            _call(tr, i, "registry.load", None, registry.load,
                  workload.patterns)
    return statistics.median(_durations_us(tr, "registry.load")) / 1e3


def _policy_swap_ms(workload: Workload, tr: Tracer) -> float:
    """Median ``Tenant.set_rules`` swap between acme's two rule sets."""
    rulesets = acme_rulesets(workload.patterns)
    tenant = Tenant("swap", workload.patterns, rules=rulesets[0])
    try:
        for i in range(POLICY_SWAP_REPEATS):
            _call(tr, i, "policy.Tenant.set_rules", None,
                  tenant.set_rules, rulesets[(i + 1) % 2])
    finally:
        tenant.close()
    return statistics.median(
        _durations_us(tr, "policy.Tenant.set_rules")) / 1e3


def traced_replay(workload: Workload, work: Path
                  ) -> Tuple[Tracer, Dict[str, float], Dict[str, float]]:
    """The whole in-process half of a ``--trace`` run.

    Returns the tracer, the on-path layer table (mean self µs per
    request) and the replay metrics."""
    ops = replay_ops(workload, workload.replay_n)
    replay = Replay(workload)
    try:
        replay.run(ops[:WARM_REQUESTS], None)
        off = replay.run(ops, None)
        tr = Tracer()
        on = replay.run(ops, tr)
    finally:
        replay.close()
    layers, request_us = layer_table(tr.spans)
    off_us = statistics.fmean(off) * 1e6
    metrics = {
        "replay.request_us": off_us,
        "replay.traced_request_us": request_us,
        "trace.overhead_pct": (statistics.fmean(on) * 1e6 / off_us - 1)
        * 100,
        "protocol.decode_us": statistics.fmean(
            _durations_us(tr, "protocol.split_body")),
        "protocol.encode_us": statistics.fmean(
            _durations_us(tr, "protocol.encode_frame")),
    }
    metrics.update(side_replays(workload, ops, tr, work))
    return tr, layers, metrics

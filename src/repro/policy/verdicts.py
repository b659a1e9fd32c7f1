"""Per-flow verdict state: fold packet match deltas into decisions.

:class:`VerdictEngine` rides on
:meth:`~repro.service.sessions.SessionScanner.scan_packet_detail`: the
session scanner reports *what matched*, the engine decides *what to do
about it* and remembers per flow.  Verdict state deliberately lives
**outside** the dictionary generations — a hot reload restarts DFA
states (restart-at-generation), but a flow already sentenced to
``drop`` stays dropped across the swap.

Lifecycle of a flow's verdict:

* packets arrive; each rule's match count accrues inside its trailing
  byte window (``window_bytes=0`` = lifetime);
* a rule whose count reaches ``threshold`` *triggers*.  In
  ``first-match`` mode the first triggered rule latches the flow's
  verdict permanently; in ``accumulate`` mode every triggered rule
  stays latched and the flow's verdict is the most severe of them;
* ``rate-limit`` rules meter instead of sentence: each triggered packet
  spends one token from a per-flow bucket (``burst`` capacity,
  ``rate``/s refill on the injected clock); while tokens remain the
  packet verdict is ``rate-limit`` (marked, forwarded), a dry bucket
  escalates that packet to ``drop``;
* the flow's verdict dies with the flow: an LRU eviction or CLOSE_FLOW
  clears it (the session table is the bound on both).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Tuple

from .rules import SEVERITY, CompiledRuleSet

__all__ = ["PacketVerdict", "VerdictEngine"]


@dataclass
class PacketVerdict:
    """The engine's decision for one packet."""

    action: str                  # forward / alert / mirror / rate-limit / drop
    #: Rule that determined ``action`` (None = forward, no rule fired).
    rule: Optional[str] = None
    #: Rules newly triggered by this packet.
    triggered: List[str] = field(default_factory=list)
    new_matches: int = 0
    flow_total: int = 0
    #: Seconds spent attributing + judging (the policy overhead).
    seconds: float = 0.0


class _Bucket:
    """Token bucket, refilled lazily on the engine's clock."""

    __slots__ = ("tokens", "stamp")

    def __init__(self, burst: int, now: float) -> None:
        self.tokens = float(burst)
        self.stamp = now

    def spend(self, rate: float, burst: int, now: float) -> bool:
        self.tokens = min(float(burst),
                          self.tokens + (now - self.stamp) * rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class _FlowVerdict:
    """Verdict state of one flow."""

    __slots__ = ("ruleset", "counts", "events", "latched", "action",
                 "rule", "buckets", "bytes_seen")

    def __init__(self, ruleset, num_rules: int) -> None:
        #: The RuleSet these counters accrued under.  Identity-compared
        #: against the binding's ruleset on every packet: a policy
        #: hot-swap installs a new RuleSet object (even one with the
        #: same rule count), so stale counters/latches/buckets never
        #: leak into the new rules; a dictionary reload recompiles the
        #: binding around the *same* RuleSet object, so counters
        #: survive it.
        self.ruleset = ruleset
        self.counts = [0] * num_rules          # lifetime per-rule matches
        # Byte offsets of recent matches, per windowed rule (bounded at
        # threshold entries — enough to decide the window predicate).
        self.events: Dict[int, List[int]] = {}
        self.latched: Dict[int, bool] = {}     # rule index -> triggered
        self.action = "forward"
        self.rule: Optional[str] = None
        self.buckets: Dict[int, _Bucket] = {}
        self.bytes_seen = 0


class VerdictEngine:
    """Per-tenant verdict ledger over the flow-session table.

    One engine per tenant; rulesets are *arguments*, not state, so a
    swap takes effect on the next judged packet.  A dictionary reload
    (new binding, same RuleSet) loses no flow state; a policy hot-swap
    restarts per-rule counters/windows/buckets — the new rules start
    from zero — while latched actions survive.  The clock is injectable
    for deterministic token-bucket tests.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._flows: Dict[Hashable, _FlowVerdict] = {}
        #: Lifetime packet-verdict counts per action (engine-local;
        #: ServiceMetrics keeps the per-tenant service view).
        self.action_totals: Dict[str, int] = {}

    # -- introspection -------------------------------------------------------------

    @property
    def num_flows(self) -> int:
        with self._lock:
            return len(self._flows)

    def flow_action(self, flow_id: Hashable) -> str:
        """Current standing verdict of a flow (``forward`` if unknown)."""
        with self._lock:
            flow = self._flows.get(flow_id)
            return flow.action if flow is not None else "forward"

    def describe(self) -> Dict[str, object]:
        with self._lock:
            return {
                "flows": len(self._flows),
                "actions": dict(self.action_totals),
            }

    # -- lifecycle -----------------------------------------------------------------

    def close_flow(self, flow_id: Hashable) -> Optional[str]:
        """Forget a flow's verdict; returns its final action."""
        with self._lock:
            flow = self._flows.pop(flow_id, None)
            return flow.action if flow is not None else None

    def drop_flows(self, flow_ids) -> int:
        """Forget evicted flows (the session LRU decided, we follow)."""
        dropped = 0
        with self._lock:
            for fid in flow_ids:
                if self._flows.pop(fid, None) is not None:
                    dropped += 1
        return dropped

    # -- judging -------------------------------------------------------------------

    def apply(self, flow_id: Hashable, detail,
              binding: Optional[CompiledRuleSet]) -> PacketVerdict:
        """Judge one packet given its scan detail and the tenant's
        currently bound ruleset (``None`` = rule-free tenant: the
        packet forwards, no flow state is created and nothing is
        timed, so its ``seconds`` stay 0.0)."""
        if binding is None or not binding.rules:
            if detail.evicted:
                self.drop_flows(detail.evicted)
            return PacketVerdict(action="forward",
                                 new_matches=detail.new,
                                 flow_total=detail.flow_total)
        t0 = time.perf_counter()
        if detail.evicted:
            self.drop_flows(detail.evicted)
        with self._lock:
            verdict = self._judge(flow_id, detail, binding)
            self.action_totals[verdict.action] = \
                self.action_totals.get(verdict.action, 0) + 1
        verdict.seconds = time.perf_counter() - t0
        return verdict

    def _judge(self, flow_id: Hashable, detail,
               binding: CompiledRuleSet) -> PacketVerdict:
        rules = binding.rules
        flow = self._flows.get(flow_id)
        if flow is None or flow.ruleset is not binding.ruleset:
            # New flow, or a policy hot-swap under it: verdict counters
            # restart, but a latched action survives the swap.
            fresh = _FlowVerdict(binding.ruleset, len(rules))
            if flow is not None:
                fresh.action, fresh.rule = flow.action, flow.rule
                fresh.bytes_seen = flow.bytes_seen
            flow = self._flows[flow_id] = fresh
        packet_bytes = len(detail.folded)
        flow.bytes_seen += packet_bytes

        first_match = binding.mode == "first-match"
        if first_match and flow.rule is not None:
            # Verdict latched; only rate-limit rules still do work
            # (their bucket meters every triggered packet).
            ri = next((i for i, r in enumerate(rules)
                       if r.name == flow.rule), None)
            if ri is not None and rules[ri].action == "rate-limit":
                action = self._meter(flow, ri, rules[ri])
                return PacketVerdict(action=action, rule=flow.rule,
                                     new_matches=detail.new,
                                     flow_total=detail.flow_total)
            return PacketVerdict(action=flow.action, rule=flow.rule,
                                 new_matches=detail.new,
                                 flow_total=detail.flow_total)

        newly_triggered: List[str] = []
        if detail.new:
            per_rule = binding.attribute(detail)
            for ri, n in per_rule.items():
                rule = rules[ri]
                flow.counts[ri] += n
                if rule.window_bytes:
                    events = flow.events.setdefault(ri, [])
                    events.extend([flow.bytes_seen] * n)
                    # Only the newest `threshold` offsets can satisfy
                    # the window predicate — drop the rest.
                    del events[:-rule.threshold]
                if not flow.latched.get(ri) \
                        and self._triggered(flow, ri, rule):
                    flow.latched[ri] = True
                    newly_triggered.append(rule.name)
                    if first_match and flow.rule is None:
                        flow.action, flow.rule = rule.action, rule.name

        if not first_match:
            # Accumulate: standing verdict = most severe latched rule.
            for ri, hit in flow.latched.items():
                if hit and SEVERITY[rules[ri].action] > \
                        SEVERITY[flow.action]:
                    flow.action, flow.rule = rules[ri].action, \
                        rules[ri].name

        action, rule_name = flow.action, flow.rule
        if rule_name is not None and action == "rate-limit":
            # A hot-swap may have retired the latched rule; without its
            # rate/burst there is nothing to meter — the latched
            # verdict stands as-is.
            ri = next((i for i, r in enumerate(rules)
                       if r.name == rule_name), None)
            if ri is not None:
                action = self._meter(flow, ri, rules[ri])
        return PacketVerdict(action=action, rule=rule_name,
                             triggered=newly_triggered,
                             new_matches=detail.new,
                             flow_total=detail.flow_total)

    def _triggered(self, flow: _FlowVerdict, ri: int, rule) -> bool:
        if not rule.window_bytes:
            return flow.counts[ri] >= rule.threshold
        events = flow.events.get(ri, ())
        if len(events) < rule.threshold:
            return False
        horizon = flow.bytes_seen - rule.window_bytes
        return events[-rule.threshold] >= horizon

    def _meter(self, flow: _FlowVerdict, ri: int, rule) -> str:
        bucket = flow.buckets.get(ri)
        now = self._clock()
        if bucket is None:
            bucket = flow.buckets[ri] = _Bucket(rule.burst, now)
        return "rate-limit" if bucket.spend(rule.rate, rule.burst, now) \
            else "drop"

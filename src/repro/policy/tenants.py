"""Multi-tenant wiring: one dictionary + one policy per tenant.

A :class:`Tenant` owns

* a :class:`~repro.service.registry.DictionaryRegistry` — its private
  dictionary generations, hot-swapped on the §6 double-buffer idiom
  exactly like a replica's default registry;
* a :class:`~repro.core.replacement.DoubleBuffer` of
  :class:`~repro.policy.rules.RuleSet` *policy generations* — a rule
  hot-swap stages the new ruleset and promotes it atomically, never
  blocking the scan path;
* a :class:`~repro.policy.verdicts.VerdictEngine` — per-flow verdict
  state that survives *both* kinds of swap (flows restart DFA states at
  a dictionary reload, but a sentenced flow stays sentenced).

Because a ruleset binds to pattern/slice layout, the compiled binding
is keyed by ``(policy generation, dictionary generation)`` and rebuilt
lazily on first use after either side swaps; bindings of retired pairs
are dropped.  A rule-free tenant's scan path is the plain registry
lease + session scan — bit-identical to a bare
:class:`~repro.service.sessions.SessionScanner` and to ``execute``,
which the differential suite pins — so a service replica serves its
default dictionary as the rule-free tenant ``""``.

:class:`TenantManager` is a service replica's name → tenant table; the
daemon's control plane compiles and binds for it once, then hands the
results over (:meth:`Tenant.load_compiled`, :meth:`Tenant.set_rules`).
"""

from __future__ import annotations

import threading
import time
from typing import (TYPE_CHECKING, Callable, Dict, Hashable, List,
                    Optional, Sequence, Tuple, Union)

from ..core.backends import ScanOutcome, ScanRequest, execute
from ..core.replacement import DoubleBuffer
from .rules import CompiledRuleSet, PolicyError, RuleSet
from .verdicts import PacketVerdict, VerdictEngine

if TYPE_CHECKING:   # pragma: no cover
    from ..service.registry import ReloadResult

__all__ = ["Tenant", "TenantManager", "TenantError"]


class TenantError(Exception):
    """Raised for unknown or duplicate tenants."""


def _bound(rules: Union[RuleSet, CompiledRuleSet], compiled
           ) -> Tuple[RuleSet, Optional[CompiledRuleSet]]:
    """``(ruleset, binding to compiled)`` — the binding is ``None`` when
    rule-free, reused when ``rules`` is already bound to ``compiled``,
    else compiled here (:class:`PolicyError` on an unknown pattern)."""
    if isinstance(rules, CompiledRuleSet):
        if rules.compiled is compiled:
            return rules.ruleset, rules if rules.rules else None
        rules = rules.ruleset
    return rules, rules.compile(compiled) if rules.rules else None


class _PolicyGeneration:
    """One staged/active ruleset (the double buffer's slot value)."""

    __slots__ = ("gen_id", "ruleset")

    def __init__(self, gen_id: int, ruleset: RuleSet) -> None:
        self.gen_id = gen_id
        self.ruleset = ruleset


class Tenant:
    """One tenant's dictionary, policy and verdict state."""

    def __init__(self, name: str, patterns: Optional[Sequence] = None, *,
                 rules: Union[None, RuleSet, CompiledRuleSet] = None,
                 fold=None, regex: bool = False,
                 max_states: int = 1 << 30, cache=None,
                 max_flows: int = 65536, session_policy: str = "lru",
                 clock: Callable[[], float] = time.monotonic,
                 compiled=None, first_generation: int = 1) -> None:
        # Imported lazily: the daemon imports this module, so a
        # module-level import of repro.service would be circular when
        # repro.policy is imported first.
        from ..service.registry import DictionaryRegistry
        self.name = name
        self.registry = DictionaryRegistry(
            patterns, fold=fold, regex=regex, max_states=max_states,
            cache=cache, max_flows=max_flows,
            session_policy=session_policy, compiled=compiled,
            first_generation=first_generation)
        self.verdicts = VerdictEngine(clock=clock)
        # Initial rules must resolve against the initial dictionary,
        # the same check every later swap runs.
        try:
            ruleset, binding = _bound(
                rules if rules is not None else RuleSet(),
                self.registry.active.compiled)
        except PolicyError:
            self.registry.close()
            raise
        self._policy: DoubleBuffer[_PolicyGeneration] = DoubleBuffer(
            _PolicyGeneration(1, ruleset))
        # (policy gen, dictionary gen) -> CompiledRuleSet; guarded by
        # its own lock — binding compilation is pattern-lookup cheap,
        # but must not race a concurrent swap.
        self._bindings: Dict[Tuple[int, int], Optional[CompiledRuleSet]] = {}
        if binding is not None:
            self._bindings[(1, self.registry.generation)] = binding
        self._bind_lock = threading.Lock()
        # Serializes the two swap directions against each other: a
        # policy swap and a dictionary reload each validate the
        # (policy, dictionary) pair before promoting, and the pair they
        # validated must be the pair they promote.  Scans never take it.
        self._swap_lock = threading.Lock()

    # -- policy swaps --------------------------------------------------------------

    @property
    def ruleset(self) -> RuleSet:
        return self._policy.active.ruleset

    @property
    def policy_generation(self) -> int:
        return self._policy.active.gen_id

    def set_rules(self, rules: Union[RuleSet, CompiledRuleSet]) -> int:
        """Hot-swap the policy: stage, validate against the *active*
        dictionary (fail before promoting, like a reload compile
        failure), promote atomically.  ``rules`` may come already bound
        to the active dictionary, which spares the compile.  Returns
        the policy generation."""
        with self._swap_lock:
            with self.registry.lease() as gen:
                # Surface unknown patterns now; keep the compiled
                # binding so the first judged packet pays nothing.
                ruleset, binding = _bound(rules, gen.compiled)
                dict_gen = gen.gen_id
            incoming = _PolicyGeneration(
                self._policy.active.gen_id + 1, ruleset)
            self._policy.stage(incoming)
            self._policy.promote()
            with self._bind_lock:
                self._bindings.clear()
                if binding is not None:
                    self._bindings[(incoming.gen_id, dict_gen)] = binding
            return incoming.gen_id

    def load_dictionary(self, patterns: Sequence,
                        regex: bool = False) -> ReloadResult:
        """Hot dictionary reload: compile ``patterns`` with the
        tenant's registry, then :meth:`load_compiled`."""
        return self.registry.timed(lambda: self.load_compiled(
            self.registry.compile(patterns, regex)))

    def load_compiled(self, compiled,
                      generation: Optional[int] = None) -> ReloadResult:
        """Hot-swap to an already compiled dictionary.  The active
        ruleset must resolve against it *before* it is promoted; a
        mismatch refuses the reload and leaves the old generation
        serving (policy and dictionary cannot drift apart)."""
        with self._swap_lock:
            active = self._policy.active
            binding = _bound(active.ruleset, compiled)[1]
            result = self.registry.load_compiled(compiled,
                                                 generation=generation)
            with self._bind_lock:
                self._bindings.clear()
                if binding is not None:
                    self._bindings[(active.gen_id, result.generation)] = \
                        binding
            return result

    def _binding(self, generation) -> Optional[CompiledRuleSet]:
        """The compiled ruleset for one leased dictionary generation
        (``None`` for a rule-free tenant)."""
        active = self._policy.active
        if not active.ruleset.rules:
            return None
        key = (active.gen_id, generation.gen_id)
        binding = self._bindings.get(key)
        if binding is not None:
            return binding
        with self._bind_lock:
            binding = self._bindings.get(key)
            if binding is None:
                binding = active.ruleset.compile(generation.compiled)
                # Bindings of retired (policy, dict) pairs are dead
                # weight; keep only the newest few for raced leases.
                while len(self._bindings) > 3:
                    self._bindings.pop(next(iter(self._bindings)))
                self._bindings[key] = binding
            return binding

    # -- data path -----------------------------------------------------------------

    def scan(self, request: ScanRequest,
             backend: Optional[str] = None) -> Tuple[ScanOutcome, int]:
        """One-shot stateless scan: ``execute`` on the tenant's leased
        generation.  Returns ``(outcome, generation)``."""
        with self.registry.lease() as gen:
            outcome = execute(gen.ctx, request, backend)
            return outcome, gen.gen_id

    def scan_packet(self, flow_id: Hashable,
                    payload: bytes) -> Tuple[PacketVerdict, int, int]:
        """Sessioned scan + verdict.  Returns ``(verdict, generation,
        evicted)``.

        The binding is resolved *before* the packet is scanned: both
        swap directions validate the active (policy, dictionary) pair
        before promoting, so a binding failure can only mean this lease
        was overtaken by a dictionary reload *and* a policy swap since
        it was read — re-lease the now-active pair and try again (the
        flow's DFA state has not advanced yet, so the retry scans the
        packet exactly once).
        """
        while True:
            with self.registry.lease() as gen:
                try:
                    binding = self._binding(gen)
                except PolicyError:
                    if gen.gen_id == self.registry.generation:
                        raise
                    continue
                detail = gen.sessions.scan_packet_detail(flow_id, payload)
                verdict = self.verdicts.apply(flow_id, detail, binding)
                return verdict, gen.gen_id, len(detail.evicted)

    def close_flow(self, flow_id: Hashable) -> Tuple[int, int, Optional[str]]:
        """Evict one flow; returns ``(bytes, matches, final action)``."""
        with self.registry.lease() as gen:
            nbytes, matches = gen.sessions.close_flow(flow_id)
        action = self.verdicts.close_flow(flow_id)
        return nbytes, matches, action

    # -- lifecycle -----------------------------------------------------------------

    def describe(self) -> Dict[str, object]:
        active = self._policy.active
        return {
            "registry": self.registry.describe(),
            "policy": {
                "generation": active.gen_id,
                "rules": len(active.ruleset.rules),
                "mode": active.ruleset.mode,
                "actions": [r.action for r in active.ruleset.rules],
            },
            "verdicts": self.verdicts.describe(),
        }

    def close(self) -> None:
        self.registry.close()

    def __repr__(self) -> str:
        return (f"Tenant({self.name!r}, "
                f"dict_gen={self.registry.generation}, "
                f"policy_gen={self.policy_generation}, "
                f"rules={len(self.ruleset.rules)})")


class TenantManager:
    """A replica's name → :class:`Tenant` table (the default dictionary
    is the rule-free entry ``""``; callers that take names from outside
    refuse the empty one).

    Tenants share the flow-table defaults; everything else —
    dictionary, policy, verdict state, metrics identity — is
    per-tenant and never crosses.
    """

    def __init__(self, *, max_flows: int = 65536,
                 session_policy: str = "lru",
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._max_flows = max_flows
        self._session_policy = session_policy
        self._clock = clock
        self._lock = threading.Lock()
        self._tenants: Dict[str, Tenant] = {}

    def create(self, name: str, patterns: Optional[Sequence] = None, *,
               rules: Union[None, RuleSet, CompiledRuleSet] = None,
               regex: bool = False, compiled=None,
               first_generation: int = 1) -> Tenant:
        tenant = Tenant(
            name, patterns, rules=rules, regex=regex,
            max_flows=self._max_flows,
            session_policy=self._session_policy, clock=self._clock,
            compiled=compiled, first_generation=first_generation)
        with self._lock:
            if name in self._tenants:
                tenant.close()
                raise TenantError(f"tenant {name!r} already exists")
            self._tenants[name] = tenant
        return tenant

    def get(self, name: str) -> Tenant:
        with self._lock:
            tenant = self._tenants.get(name)
        if tenant is None:
            raise TenantError(f"unknown tenant {name!r}")
        return tenant

    def drop(self, name: str) -> None:
        with self._lock:
            tenant = self._tenants.pop(name, None)
        if tenant is None:
            raise TenantError(f"unknown tenant {name!r}")
        tenant.close()

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._tenants)

    def __len__(self) -> int:
        with self._lock:
            return len(self._tenants)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._tenants

    def describe(self) -> Dict[str, Dict[str, object]]:
        with self._lock:
            tenants = list(self._tenants.items())
        return {name: tenant.describe() for name, tenant in tenants}

    def close(self) -> None:
        with self._lock:
            tenants = list(self._tenants.values())
            self._tenants.clear()
        for tenant in tenants:
            tenant.close()

"""Detection rules: bind dictionary patterns to actions.

The scan core reports *counts*; a DPI engine needs *decisions*.  A
:class:`Rule` names a set of dictionary patterns and the action to take
when they fire often enough (``threshold``) and recently enough
(``window_bytes``, a trailing window measured in flow bytes — byte-
denominated so replays are deterministic).  A :class:`RuleSet` is the
tenant-facing policy document: an ordered list of rules plus the
verdict mode (first-match-wins or accumulate).

Compilation (:meth:`RuleSet.compile`) binds the rule patterns to one
:class:`~repro.core.compiled.CompiledDictionary` through its per-DFA
slice projection (``compiled.pattern_locations()``):

* a slice whose patterns all map to the *same* rule set is **pure** —
  its per-packet match delta attributes to those rules directly, with
  zero extra work on the scan path;
* a **mixed** slice (patterns of different rules share one DFA) is
  resolved exactly, but only for packets where that slice actually
  reported matches: a replay of the folded payload on the slice's
  scalar walk, from the flow's pre-packet state, collects the slice
  DFA's output ids, which the local→rule table turns into per-rule
  counts.

Since most packets match nothing (the NIDS steady state), attribution
is free in the common case and exact always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["ACTIONS", "SEVERITY", "MODES", "PolicyError", "Rule",
           "RuleSet", "CompiledRuleSet"]


class PolicyError(Exception):
    """Raised for malformed rules or rules naming unknown patterns."""


#: The verdict vocabulary, mildest first.  ``forward`` is the implicit
#: no-rule verdict; the rest are rule actions.
ACTIONS: Tuple[str, ...] = ("alert", "mirror", "rate-limit", "drop")

#: Action precedence when several rules fire on one flow (accumulate
#: mode takes the most severe).
SEVERITY: Dict[str, int] = {"forward": 0, "alert": 1, "mirror": 2,
                            "rate-limit": 3, "drop": 4}

#: Verdict modes: latch the first triggered rule forever, or keep
#: evaluating and escalate to the most severe triggered action.
MODES: Tuple[str, ...] = ("first-match", "accumulate")


def _as_bytes(pattern) -> bytes:
    return pattern.encode() if isinstance(pattern, str) else bytes(pattern)


def _spec_bytes(pattern) -> bytes:
    """Wire-side inverse of ``to_spec``'s latin-1 decode.

    Spec strings are byte images (one char per byte), so they must
    re-encode latin-1 — UTF-8 would turn ``"\\xff"`` into two bytes and
    silently change what the signature matches.  Code points above 255
    cannot name a byte pattern and are rejected (UnicodeEncodeError is
    a ValueError, mapped to PolicyError by ``from_spec``).
    """
    if isinstance(pattern, str):
        return pattern.encode("latin-1")
    return bytes(pattern)


@dataclass(frozen=True)
class Rule:
    """One detection rule.

    ``patterns`` names dictionary entries (empty = any entry).  The rule
    *triggers* on a flow once ``threshold`` of its patterns' matches
    land within the trailing ``window_bytes`` of that flow's stream
    (``0`` = lifetime).  ``rate``/``burst`` parameterize the token
    bucket of ``rate-limit`` rules: each triggered packet spends one
    token, the bucket refills at ``rate`` tokens/second up to ``burst``,
    and a dry bucket escalates the packet's verdict to ``drop``.
    """

    name: str
    action: str
    patterns: Tuple[bytes, ...] = ()
    threshold: int = 1
    window_bytes: int = 0
    rate: float = 1.0
    burst: int = 1

    def __post_init__(self):
        if not self.name:
            raise PolicyError("rule needs a name")
        if self.action not in ACTIONS:
            raise PolicyError(
                f"rule {self.name!r}: action must be one of "
                f"{', '.join(ACTIONS)}, got {self.action!r}")
        if self.threshold < 1:
            raise PolicyError(f"rule {self.name!r}: threshold must be "
                              f"positive")
        if self.window_bytes < 0:
            raise PolicyError(f"rule {self.name!r}: window_bytes must "
                              f"be non-negative")
        if self.rate <= 0:
            raise PolicyError(f"rule {self.name!r}: rate must be "
                              f"positive")
        if self.burst < 1:
            raise PolicyError(f"rule {self.name!r}: burst must be "
                              f"positive")
        object.__setattr__(self, "patterns",
                           tuple(_as_bytes(p) for p in self.patterns))

    def to_spec(self) -> Dict[str, object]:
        """JSON-friendly form (the POLICY verb's wire shape)."""
        return {
            "name": self.name,
            "action": self.action,
            "patterns": [p.decode("latin-1") for p in self.patterns],
            "threshold": self.threshold,
            "window_bytes": self.window_bytes,
            "rate": self.rate,
            "burst": self.burst,
        }

    @classmethod
    def from_spec(cls, spec: Dict) -> "Rule":
        if not isinstance(spec, dict):
            raise PolicyError(f"rule spec must be an object, got "
                              f"{type(spec).__name__}")
        unknown = set(spec) - {"name", "action", "patterns", "threshold",
                               "window_bytes", "rate", "burst"}
        if unknown:
            raise PolicyError(
                f"rule spec has unknown keys: {', '.join(sorted(unknown))}")
        try:
            return cls(
                name=str(spec.get("name", "")),
                action=str(spec.get("action", "")),
                patterns=tuple(
                    _spec_bytes(p if isinstance(p, (str, bytes)) else str(p))
                    for p in spec.get("patterns", ())),
                threshold=int(spec.get("threshold", 1)),
                window_bytes=int(spec.get("window_bytes", 0)),
                rate=float(spec.get("rate", 1.0)),
                burst=int(spec.get("burst", 1)))
        except (TypeError, ValueError) as exc:
            raise PolicyError(f"malformed rule spec: {exc}") from exc


@dataclass(frozen=True)
class RuleSet:
    """An ordered rule list plus the verdict mode — the policy document
    a tenant hot-swaps as one unit."""

    rules: Tuple[Rule, ...] = ()
    mode: str = "first-match"

    def __post_init__(self):
        if self.mode not in MODES:
            raise PolicyError(f"mode must be one of {', '.join(MODES)}, "
                              f"got {self.mode!r}")
        object.__setattr__(self, "rules", tuple(self.rules))
        seen = set()
        for rule in self.rules:
            if rule.name in seen:
                raise PolicyError(f"duplicate rule name {rule.name!r}")
            seen.add(rule.name)

    def __len__(self) -> int:
        return len(self.rules)

    def to_specs(self) -> List[Dict[str, object]]:
        return [rule.to_spec() for rule in self.rules]

    @classmethod
    def from_specs(cls, specs: Sequence[Dict],
                   mode: str = "first-match") -> "RuleSet":
        if not isinstance(specs, (list, tuple)):
            raise PolicyError("rules must be a list of rule objects")
        return cls(rules=tuple(Rule.from_spec(s) for s in specs),
                   mode=mode)

    def compile(self, compiled) -> "CompiledRuleSet":
        """Bind this ruleset to one compiled dictionary generation."""
        return CompiledRuleSet.build(self, compiled)


class CompiledRuleSet:
    """A :class:`RuleSet` bound to one dictionary generation.

    Holds, per slice, either the shared rule-index tuple every pattern
    of the slice maps to (*pure* — delta attribution is table-free) or
    the ``local output id → rule indices`` map for the exact resolve
    walk (*mixed*).
    """

    def __init__(self, ruleset: RuleSet, compiled,
                 pattern_rules: Dict[int, Tuple[int, ...]],
                 pure: List[Optional[Tuple[int, ...]]],
                 mixed: List[Optional[Dict[int, Tuple[int, ...]]]]) -> None:
        self.ruleset = ruleset
        self.compiled = compiled
        self.fingerprint = compiled.fingerprint
        self._pattern_rules = pattern_rules
        self._pure = pure
        self._mixed = mixed

    @property
    def rules(self) -> Tuple[Rule, ...]:
        return self.ruleset.rules

    @property
    def mode(self) -> str:
        return self.ruleset.mode

    @property
    def pure_slices(self) -> int:
        """Slices whose deltas attribute without a resolve walk."""
        return sum(1 for p in self._pure if p is not None)

    @classmethod
    def build(cls, ruleset: RuleSet, compiled) -> "CompiledRuleSet":
        fold = compiled.fold
        # Dictionary entries are matched *folded*; rules referring to a
        # pattern must resolve through the same fold or case variants
        # would silently miss.
        by_folded: Dict[bytes, List[int]] = {}
        for gid, pattern in enumerate(compiled.patterns):
            by_folded.setdefault(fold.fold_bytes(pattern), []).append(gid)

        pattern_rules: Dict[int, List[int]] = {}
        for ri, rule in enumerate(ruleset.rules):
            if not rule.patterns:      # wildcard: any dictionary entry
                gids = range(compiled.num_patterns)
            else:
                gids = []
                for pattern in rule.patterns:
                    hit = by_folded.get(fold.fold_bytes(pattern))
                    if not hit:
                        raise PolicyError(
                            f"rule {rule.name!r} names pattern "
                            f"{pattern!r} which is not in the "
                            f"dictionary")
                    gids.extend(hit)
            for gid in gids:
                pattern_rules.setdefault(gid, []).append(ri)

        frozen = {gid: tuple(ris) for gid, ris in pattern_rules.items()}
        locations = compiled.pattern_locations()
        per_slice_locals: List[Dict[int, Tuple[int, ...]]] = [
            {} for _ in range(compiled.num_slices)]
        for gid, ris in frozen.items():
            si, local = locations[gid]
            per_slice_locals[si][local] = ris

        pure: List[Optional[Tuple[int, ...]]] = []
        mixed: List[Optional[Dict[int, Tuple[int, ...]]]] = []
        for si in range(compiled.num_slices):
            locals_map = per_slice_locals[si]
            rule_sets = {locals_map.get(local, ())
                         for local in range(len(compiled.groups[si]))}
            if len(rule_sets) <= 1:
                pure.append(rule_sets.pop() if rule_sets else ())
                mixed.append(None)
            else:
                pure.append(None)
                mixed.append(locals_map)
        return cls(ruleset, compiled, frozen, pure, mixed)

    # -- attribution ---------------------------------------------------------------

    def _resolve_walk(self, slice_index: int, pre_state: int,
                      folded: bytes) -> Dict[int, int]:
        """Exact per-rule counts for one mixed slice: replay the folded
        payload on the slice's scalar walk from the flow's pre-packet
        state, crediting each output id's rules.  Runs only for
        match-bearing packets of mixed slices, so the replay stays off
        the fast path."""
        walk = self.compiled.walks()[slice_index]
        locals_map = self._mixed[slice_index]
        counts: Dict[int, int] = {}
        for _, local in walk.events(pre_state, folded):
            for ri in locals_map.get(local, ()):
                counts[ri] = counts.get(ri, 0) + 1
        return counts

    def attribute(self, detail) -> Dict[int, int]:
        """Per-rule match counts for one packet's
        :class:`~repro.service.sessions.PacketScan`."""
        counts: Dict[int, int] = {}
        for si, delta in enumerate(detail.per_slice):
            if not delta:
                continue
            shared = self._pure[si]
            if shared is not None:
                for ri in shared:
                    counts[ri] = counts.get(ri, 0) + delta
            else:
                for ri, n in self._resolve_walk(
                        si, detail.pre_states[si],
                        detail.folded).items():
                    counts[ri] = counts.get(ri, 0) + n
        return counts

    def __repr__(self) -> str:
        return (f"CompiledRuleSet(rules={len(self.rules)}, "
                f"mode={self.mode!r}, "
                f"slices={self.compiled.num_slices}, "
                f"pure={self.pure_slices}, "
                f"fingerprint={self.fingerprint[:12]!r})")

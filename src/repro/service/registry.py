"""Hot-reloadable dictionary generations: the paper's dynamic STT
replacement (§6), lifted from SPE half-tile slots to a serving daemon.

On the Cell, a new dictionary slice streams into the shadow STT slot
while the resident slot keeps filtering; a buffer boundary flips the
roles.  :class:`DictionaryRegistry` is the same machine at service
scale, built on the same primitive
(:class:`~repro.core.replacement.DoubleBuffer`):

* the **active** slot holds the :class:`Generation` serving scans — a
  :class:`~repro.core.compiled.CompiledDictionary`, its
  :class:`~repro.core.backends.ScanContext` (worker pools, shared
  tables) and its flow-session table;
* :meth:`load` compiles the incoming dictionary (through
  :class:`~repro.core.compiled.ArtifactCache`, so re-deploying a known
  rule set is a *warm swap* with zero automaton builds), then
  :meth:`load_compiled` stages it in the standby slot and **promotes
  atomically between requests** (a service replica only ever gets
  this second half: the control plane compiled for it);
* scans :meth:`lease` the generation they start on and hold it until
  they finish — a promote never yanks tables out from under an
  in-flight scan, and the retired generation's pools are closed only
  when its last lease drains (zero failed requests during a swap);
* every response is stamped with the generation id of the dictionary
  that produced it, so clients can correlate counts with reloads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from ..core.backends import ScanContext
from ..core.compiled import (COUNTERS, ArtifactCache, CompiledDictionary,
                             compile_dictionary)
from ..core.replacement import DoubleBuffer
from ..dfa.alphabet import FoldMap
from .sessions import SessionScanner

__all__ = ["DictionaryRegistry", "Generation", "ReloadResult",
           "RegistryError"]


class RegistryError(Exception):
    """Raised for unusable reloads or a closed registry."""


class Generation:
    """One dictionary generation: compiled artifact + execution context
    + flow sessions, reference-counted so retirement waits for the last
    in-flight scan."""

    def __init__(self, gen_id: int, compiled: CompiledDictionary,
                 max_flows: int, session_policy: str) -> None:
        self.gen_id = gen_id
        self.compiled = compiled
        self.ctx = ScanContext(compiled)
        self.sessions = SessionScanner(compiled, max_flows=max_flows,
                                       on_full=session_policy)
        self._lock = threading.Lock()
        self._leases = 0
        self._retired = False
        self._closed = False
        # Runs once when the retired generation's last lease drains —
        # the registry hooks the final session carry here so packets
        # scanned through a surviving lease are merged, not lost.
        self.on_drained: Optional[Callable[[], None]] = None

    # -- lease management ----------------------------------------------------------

    def acquire(self) -> bool:
        """Take a lease; ``False`` if the generation already released
        its resources (the caller should re-read the active slot)."""
        with self._lock:
            if self._closed:
                return False
            self._leases += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._leases -= 1
            close_now = self._retired and self._leases == 0 \
                and not self._closed
            if close_now:
                self._closed = True
        if close_now:
            self._drained()

    def retire(self) -> None:
        """Mark retired; resources are released once leases drain."""
        with self._lock:
            if self._retired:
                return
            self._retired = True
            close_now = self._leases == 0 and not self._closed
            if close_now:
                self._closed = True
        if close_now:
            self._drained()

    def _drained(self) -> None:
        hook, self.on_drained = self.on_drained, None
        if hook is not None:
            hook()
        self.ctx.close()

    @property
    def leases(self) -> int:
        with self._lock:
            return self._leases

    def __repr__(self) -> str:
        return (f"Generation(id={self.gen_id}, "
                f"slices={self.compiled.num_slices}, "
                f"leases={self.leases}, retired={self._retired})")


@dataclass
class ReloadResult:
    """What one hot reload did."""

    generation: int
    seconds: float
    #: Artifact-cache hit: the swap did zero automaton builds.
    warm: bool
    patterns: int
    slices: int
    states: int
    #: Flows carried across the reload boundary (restart-at-generation).
    flows_carried: int


class _Lease:
    """Context manager pairing a :class:`Generation` with its release."""

    def __init__(self, generation: Generation) -> None:
        self.generation = generation

    def __enter__(self) -> Generation:
        return self.generation

    def __exit__(self, *exc) -> None:
        self.generation.release()


class DictionaryRegistry:
    """Active/standby dictionary slots with atomic promotion."""

    def __init__(self, patterns: Optional[Sequence] = None,
                 fold: Optional[FoldMap] = None,
                 regex: bool = False,
                 max_states: int = 1 << 30,
                 cache=None,
                 max_flows: int = 65536,
                 session_policy: str = "lru",
                 compiled: Optional[CompiledDictionary] = None,
                 first_generation: int = 1) -> None:
        if cache is True:
            cache = ArtifactCache()
        elif cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        self._cache = cache
        self._max_states = max_states
        self._max_flows = max_flows
        self._session_policy = session_policy
        # Serializes promotions; scans never take it.  Reentrant
        # because a retiring generation with zero leases drains inline
        # within load_compiled(), and its drain hook re-enters to
        # absorb leftover session totals.
        self._reload_lock = threading.RLock()
        self._closed = False
        self.swap_count = 0
        self.last_swap_seconds = 0.0

        if compiled is None:
            if patterns is None:
                raise RegistryError(
                    "need patterns or a compiled dictionary")
            compiled = compile_dictionary(
                patterns, fold=fold, regex=regex, max_states=max_states,
                cache=self._cache)
        # Every later generation must fold identically, or session
        # state and counts would silently change meaning.
        self._fold = compiled.fold
        self._buffer: DoubleBuffer[Generation] = DoubleBuffer(Generation(
            int(first_generation), compiled, max_flows, session_policy))

    def compile(self, patterns: Sequence,
                regex: bool = False) -> CompiledDictionary:
        """Compile ``patterns`` the way this registry's generations
        fold (through its artifact cache); promotes nothing."""
        return compile_dictionary(
            patterns, fold=self._fold, regex=regex,
            max_states=self._max_states, cache=self._cache)

    # -- serving side --------------------------------------------------------------

    @property
    def generation(self) -> int:
        """Id of the currently active generation."""
        return self._buffer.active.gen_id

    @property
    def active(self) -> Generation:
        return self._buffer.active

    def lease(self) -> _Lease:
        """Acquire the active generation for one scan.

        The tiny race — a promote retiring the generation between the
        read and the acquire — is handled by retrying: ``acquire`` fails
        only after the generation released its resources, and by then
        the buffer's active slot holds the successor.
        """
        if self._closed:
            raise RegistryError("registry is closed")
        while True:
            generation = self._buffer.active
            if generation.acquire():
                return _Lease(generation)

    # -- reload side ---------------------------------------------------------------

    def load(self, patterns: Sequence, regex: bool = False
             ) -> ReloadResult:
        """Compile ``patterns`` and atomically promote them:
        :meth:`compile` then :meth:`load_compiled`, reported as one
        reload by :meth:`timed`."""
        return self.timed(lambda: self.load_compiled(
            self.compile(patterns, regex)))

    def timed(self, reload: Callable[[], ReloadResult]) -> ReloadResult:
        """Run one compile + promote and report it as a single reload:
        ``seconds`` spans both halves and ``warm`` means the compile
        built no automaton (an artifact-cache hit)."""
        t0 = time.perf_counter()
        builds_before = COUNTERS["automaton_builds"]
        result = reload()
        self.last_swap_seconds = time.perf_counter() - t0
        return replace(result, seconds=self.last_swap_seconds,
                       warm=COUNTERS["automaton_builds"] == builds_before)

    def load_compiled(self, compiled: CompiledDictionary,
                      generation: Optional[int] = None) -> ReloadResult:
        """Atomically promote an already compiled dictionary.

        Runs entirely off the scan path: the active generation serves
        throughout, the promotion itself is a pointer flip inside the
        :class:`DoubleBuffer` lock, and in-flight scans keep their
        leased generation until they finish.  ``generation`` pins the
        new generation id so replicas track the control plane's
        numbering (default: the active id + 1).
        """
        with self._reload_lock:
            if self._closed:
                raise RegistryError("registry is closed")
            t0 = time.perf_counter()
            gen_id = self._buffer.active.gen_id + 1 \
                if generation is None else int(generation)
            incoming = Generation(gen_id, compiled, self._max_flows,
                                  self._session_policy)
            self._buffer.stage(incoming)
            retired = self._buffer.promote()
            # Carry sessions *after* the flip: new flow packets already
            # route to the incoming generation, and carry_from merges
            # with any that raced the promotion.  A lease taken before
            # the flip may still scan into the retired tables after
            # this carry — the drain hook moves that remainder over
            # when the last lease releases, so no totals are lost.
            flows = incoming.sessions.carry_from(retired.sessions)
            retired.on_drained = (
                lambda old=retired.sessions: self._absorb(old))
            retired.retire()
            seconds = time.perf_counter() - t0
            self.swap_count += 1
            self.last_swap_seconds = seconds
            return ReloadResult(
                generation=gen_id,
                seconds=seconds,
                warm=True,
                patterns=compiled.num_patterns,
                slices=compiled.num_slices,
                states=compiled.total_states,
                flows_carried=flows)

    def _absorb(self, old_sessions: SessionScanner) -> None:
        """Drain-time carry: merge a fully retired generation's
        leftover session totals into whatever generation is active
        *now*.  Runs under the reload lock so a concurrent promote
        cannot strand the totals in another retiring generation."""
        with self._reload_lock:
            if not self._closed:
                self._buffer.active.sessions.carry_from(old_sessions)

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Retire the active generation and release its resources
        (idempotent; waits for nothing — leases drain it)."""
        with self._reload_lock:
            if self._closed:
                return
            self._closed = True
            self._buffer.active.retire()

    def __enter__(self) -> "DictionaryRegistry":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def describe(self) -> dict:
        """Registry state for STATS and ``repro serve`` banners."""
        active = self._buffer.active
        sessions = active.sessions.stats()
        return {
            "generation": active.gen_id,
            "patterns": active.compiled.num_patterns,
            "slices": active.compiled.num_slices,
            "states": active.compiled.total_states,
            "fingerprint": active.compiled.fingerprint[:12],
            "regex": active.compiled.regex,
            "flows": sessions["flows"],
            "sessions": sessions,
            "swaps": self.swap_count,
            "last_swap_ms": self.last_swap_seconds * 1e3,
        }

    def __repr__(self) -> str:
        return (f"DictionaryRegistry(generation={self.generation}, "
                f"swaps={self.swap_count})")

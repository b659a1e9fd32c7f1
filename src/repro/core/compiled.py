"""One compile path, one artifact: the :class:`CompiledDictionary`.

The paper's pipeline is two-phase: compile a dictionary once into an STT
artifact, then stream input through whichever tile composition the
planner picked (§4–§6).  This module is the compile phase for the whole
repository.  ``compile_dictionary`` folds the patterns, builds the
slice automata (Aho–Corasick for exact strings, the regex pipeline for
regexes), bin-packs them against the tile state budget, and returns a
single value object that every execution path consumes:

* :class:`~repro.core.matcher.CellStringMatcher` plans its Cell
  deployment from it;
* the :mod:`repro.core.backends` registry scans through its
  fold-composed flat tables and weight tables;
* :class:`~repro.parallel.ShardedScanner` runs one of its scan
  kernels, whose ``shared_export()`` places those same tables in
  shared memory;
* :class:`~repro.core.composition.TileComposition` and
  :class:`~repro.core.system.CellMatchingSystem` model the modelled-Cell
  deployment (``from_compiled``).

A :class:`CompiledDictionary` is addressed by a **content fingerprint**
(patterns + fold + mode + state budget), and :class:`ArtifactCache`
persists it on disk keyed by fingerprint **and table-format version**,
so service-style repeated scans of the same rule set skip Aho–Corasick
construction and regex determinization entirely — the NIDS "compile
once, ship to the data plane" moment the paper assumes.  ``COUNTERS``
records every automaton build and cache hit/miss, so tests (and
operators) can assert that a warm start did zero compile work.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dfa.alphabet import FoldMap, case_fold_32
from ..dfa.aho_corasick import AhoCorasick
from ..dfa.automaton import DFA, DFAError, MatchEvent
from ..dfa.partition import PartitionedDictionary, partition_patterns
from .compressed import ColdRowStore
from .scan import (HOT_BUDGET_BYTES, FlatScanner, FusedScanner,
                   FusedTable, HotCold2Scanner, HotCold2Table,
                   HotColdFusedScanner, HotColdFusedTable,
                   build_flat_table, build_hot_cold2_table,
                   build_hot_cold_table, build_weight_table,
                   fuse_tables, pair_symbol_table, project_states,
                   visit_order)
from .scan.prefilter import PackedPrefilter

__all__ = [
    "CompiledDictionary",
    "CompileError",
    "ArtifactCache",
    "compile_dictionary",
    "fingerprint_dictionary",
    "hot_budget_bytes",
    "COUNTERS",
    "TABLE_FORMAT_VERSION",
    "COMPAT_TABLE_FORMAT_VERSIONS",
]

#: Version of the compiled-table layout (flag-encoded flat rows, weight
#: side table, fused stacked table, cache serialization).  Bumping it
#: invalidates every cached artifact: the cache key contains it, and
#: loaders reject files whose stored version disagrees.
#:
#: v3: multi-slice artifacts persist the fused stacked table (see
#: :func:`repro.core.scan.fuse_tables`), so a warm service start pays
#: neither automaton builds *nor* table stacking.
#:
#: v4: exact-mode artifacts additionally persist the hot/cold layout of
#: the union automaton — its dense table (when it is not simply slice
#: 0's), the :func:`~repro.core.scan.visit_order` ranking and the
#: union→slice state maps — so a warm start derives a
#: :class:`~repro.core.scan.HotColdFusedTable` at any hot-budget
#: without an Aho–Corasick build or a profiling pass.
#:
#: v5: exact-mode artifacts add the pair-symbol layout for two-byte
#: stride scanning (the composed ``foldpair`` gather table), and the
#: multi-slice union transition matrix is stored in the
#: :class:`~repro.core.compressed.ColdRowStore` shared-default-row
#: encoding instead of densely.  v5 loaders still accept v4 files
#: (the pair layout is then derived on first use), so an upgrade does
#: not cold-start a warm cache.
TABLE_FORMAT_VERSION = 5

#: Format versions :class:`ArtifactCache` can still load.  Order
#: matters: probed newest-first.
COMPAT_TABLE_FORMAT_VERSIONS = (5, 4)

#: Compile-work observability.  ``automaton_builds`` counts every
#: Aho–Corasick construction and regex determinization; the cache
#: counters track artifact reuse.  Tests assert on these to prove a
#: cache hit does zero DFA-construction work.
COUNTERS: Dict[str, int] = {
    "automaton_builds": 0,
    "cache_hits": 0,
    "cache_misses": 0,
    "cache_stores": 0,
    "cache_rejects": 0,
}


class CompileError(Exception):
    """Raised for unusable dictionaries (empty patterns, oversized
    regexes, mismatched fold widths)."""


def hot_budget_bytes() -> int:
    """Sizing policy for the hot partition of a hot/cold table.

    ``REPRO_HOT_BUDGET_KB`` overrides the default
    (:data:`~repro.core.scan.HOT_BUDGET_BYTES`, sized for L2
    residency).  Read per call so services can be retuned without a
    restart."""
    env = os.environ.get("REPRO_HOT_BUDGET_KB")
    if env:
        try:
            return max(1, int(env)) * 1024
        except ValueError:
            pass
    return HOT_BUDGET_BYTES


def _per_state_weights(dfa: DFA) -> np.ndarray:
    """Match multiplicity on *entering* each state (the per-state core
    of :func:`~repro.core.scan.build_weight_table`)."""
    w = np.zeros(dfa.num_states, dtype=np.int64)
    for s, pats in dfa.outputs.items():
        w[s] = len(pats)
    final = np.asarray(dfa.final_mask).astype(bool)
    w[final & (w == 0)] = 1
    return w


Pattern = Union[str, bytes]


def _as_bytes(patterns: Sequence[Pattern]) -> Tuple[bytes, ...]:
    return tuple(p.encode() if isinstance(p, str) else bytes(p)
                 for p in patterns)


def fingerprint_dictionary(patterns: Sequence[Pattern],
                           fold: FoldMap,
                           regex: bool,
                           max_states: int) -> str:
    """Content address of a compiled dictionary.

    Everything that determines the compiled tables goes in: the raw
    patterns (order matters — it drives the bin-packing), the full fold
    table, the compile mode and the state budget.  The table-format
    version deliberately does *not*: it belongs to the cache key, so one
    logical dictionary keeps one fingerprint across format upgrades.
    """
    h = hashlib.sha256()
    h.update(b"repro-dict-v1")
    h.update(bytes([1 if regex else 0]))
    h.update(int(max_states).to_bytes(8, "big"))
    h.update(bytes(fold.table))
    h.update(int(fold.width).to_bytes(2, "big"))
    for p in _as_bytes(patterns):
        h.update(len(p).to_bytes(8, "big"))
        h.update(p)
    return h.hexdigest()


@dataclass
class CompiledDictionary:
    """The compile phase's output: patterns + fold + slice DFAs + the
    flag-encoded execution tables, addressed by a content fingerprint.

    ``groups[i]`` lists the global pattern ids of slice ``i``;
    ``dfas[i]`` is that slice's dense automaton (outputs attached, so
    the same object serves counting and full event reporting).  The
    fold-composed flat table and weight table of each slice are built
    lazily and cached — they are what
    :class:`~repro.core.scan.FlatScanner` and the shared-memory layer
    actually execute.
    """

    patterns: Tuple[bytes, ...]
    fold: FoldMap
    regex: bool
    max_states: int
    groups: Tuple[Tuple[int, ...], ...]
    dfas: Tuple[DFA, ...]
    fingerprint: str
    #: Exact-mode partition (``None`` for regex dictionaries); kept so
    #: deployment planning and tests can inspect the bin-packing.
    partition: Optional[PartitionedDictionary] = None
    _tables: Optional[List[Tuple[np.ndarray, np.ndarray]]] = \
        field(default=None, repr=False)
    _scanners: Optional[List[FlatScanner]] = field(default=None, repr=False)
    _fused: Optional[FusedTable] = field(default=None, repr=False)
    _fused_scanner: Optional[FusedScanner] = field(default=None, repr=False)
    _union: Optional[DFA] = field(default=None, repr=False)
    _union_order: Optional[np.ndarray] = field(default=None, repr=False)
    _union_mass: Optional[np.ndarray] = field(default=None, repr=False)
    _slice_maps: Optional[np.ndarray] = field(default=None, repr=False)
    _hotcold: Optional[HotColdFusedTable] = field(default=None, repr=False)
    _hotcold_budget: Optional[int] = field(default=None, repr=False)
    _hotcold_scanner: Optional[HotColdFusedScanner] = \
        field(default=None, repr=False)
    _hotcold2: Optional[HotCold2Table] = field(default=None, repr=False)
    _hotcold2_budget: Optional[int] = field(default=None, repr=False)
    _hotcold2_scanner: Optional[HotCold2Scanner] = \
        field(default=None, repr=False)
    _pair_foldpair: Optional[np.ndarray] = field(default=None, repr=False)
    _prefilter: Optional[PackedPrefilter] = field(default=None, repr=False)
    _prefilter_built: bool = field(default=False, repr=False)

    # -- shape --------------------------------------------------------------------

    @property
    def num_slices(self) -> int:
        return len(self.dfas)

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)

    @property
    def total_states(self) -> int:
        return sum(d.num_states for d in self.dfas)

    def global_pattern_id(self, slice_index: int, local_id: int) -> int:
        return self.groups[slice_index][local_id]

    def pattern_locations(self) -> Dict[int, Tuple[int, int]]:
        """Invert ``groups``: global pattern id → ``(slice, local_id)``.

        This is the per-DFA slice projection the policy layer's ruleset
        compiler binds against — a rule naming a pattern resolves to the
        slice whose DFA reports it and the local output id it carries
        there."""
        locations: Dict[int, Tuple[int, int]] = {}
        for si, group in enumerate(self.groups):
            for local, gid in enumerate(group):
                locations[gid] = (si, local)
        return locations

    @property
    def regex_slices(self) -> List[Tuple[DFA, List[int]]]:
        """Regex-mode view: ``(dfa, global pattern ids)`` per slice."""
        return [(dfa, list(ids))
                for dfa, ids in zip(self.dfas, self.groups)]

    # -- execution tables ----------------------------------------------------------

    def tables(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """Per-slice ``(flat, weights)`` fold-composed execution tables.

        The flat table gathers on **raw bytes** (the fold is composed
        in, stride ``2 × 256``), and the weight table holds per-state
        match multiplicities addressable by ``pointer >> 1`` — exactly
        what the flat kernel exports to shared memory and the in-process
        backends scan with.  Built once, cached on the object.
        """
        if self._tables is None:
            fold_table = self.fold.np_table
            tables = []
            for dfa in self.dfas:
                flat, _ = build_flat_table(dfa.transitions, dfa.final_mask,
                                           fold_table=fold_table)
                weights = build_weight_table(dfa, 256)
                tables.append((flat, weights))
            self._tables = tables
        return self._tables

    def scanners(self) -> List[FlatScanner]:
        """Per-slice :class:`FlatScanner` over the fold-composed tables
        (scan raw bytes directly; no folded copy of the input)."""
        if self._scanners is None:
            self._scanners = [
                FlatScanner(flat, 256, dfa.start, dfa.num_states)
                for (flat, _), dfa in zip(self.tables(), self.dfas)]
        return self._scanners

    def fused_table(self) -> FusedTable:
        """All slice tables stacked into one :class:`FusedTable` (see
        :func:`repro.core.scan.fuse_tables`): one contiguous flat
        array with per-DFA cell bases, so a single gather per input
        position advances every slice at once.  Derived lazily from
        :meth:`tables` and cached on the object; multi-slice artifacts
        loaded from an :class:`ArtifactCache` arrive with it prebuilt.
        """
        if self._fused is None:
            self._fused = fuse_tables(
                self.tables(),
                [d.start for d in self.dfas],
                [d.num_states for d in self.dfas], 256)
        return self._fused

    def fused_scanner(self) -> FusedScanner:
        """A :class:`FusedScanner` over :meth:`fused_table`, cached."""
        if self._fused_scanner is None:
            self._fused_scanner = FusedScanner(self.fused_table())
        return self._fused_scanner

    # -- hot/cold union tables ------------------------------------------------------

    @property
    def supports_hot_cold(self) -> bool:
        """Hot/cold scanning needs the union-automaton construction,
        which is defined for exact dictionaries (AC over all patterns);
        regex slices have no shared suffix structure to unify."""
        return not self.regex

    @property
    def fused_table_bytes(self) -> int:
        """Footprint the *plain* fused scan would gather over (flat +
        weight cells, fold-composed stride), computed arithmetically —
        the planner's cache-budget input must not require building the
        table it is deciding against."""
        return self.total_states * (2 * 256 + 256) * 4

    def union_dfa(self) -> DFA:
        """One Aho–Corasick automaton over the *whole* dictionary.

        For a single slice this *is* the slice DFA.  Otherwise it is
        built (or loaded from the artifact) over all folded patterns in
        original order, so its outputs carry global pattern ids and
        ``len(outputs[s])`` is the whole-dictionary multiplicity.
        """
        if self.regex:
            raise CompileError(
                "union automaton requires an exact-mode dictionary")
        if self._union is None:
            if self.num_slices == 1:
                self._union = self.dfas[0]
            else:
                folded = [self.fold.fold_bytes(p) for p in self.patterns]
                ac = AhoCorasick(folded, self.fold.width)
                COUNTERS["automaton_builds"] += 1
                self._union = ac.to_dfa()
        return self._union

    def hot_cold_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(visit_order, slice_maps)`` of the union automaton — the
        two derived arrays the v4 artifact persists.  The order ranks
        union states hottest-first; ``slice_maps[d]`` projects every
        union state onto slice ``d`` (:func:`project_states`), which is
        what keeps per-slice counts exact with one union-table pass."""
        union = self.union_dfa()
        if self._union_order is None:
            self._union_order, self._union_mass = visit_order(
                union.transitions, union.start, self.fold.np_table)
        if self._slice_maps is None:
            if self.num_slices == 1:
                self._slice_maps = np.arange(
                    union.num_states, dtype=np.int64)[None, :]
            else:
                self._slice_maps = np.stack([
                    project_states(union.transitions, union.start,
                                   d.transitions, d.start)
                    for d in self.dfas])
        return self._union_order, self._slice_maps

    def hot_cold_table(self, budget_bytes: Optional[int] = None
                       ) -> HotColdFusedTable:
        """The cache-resident execution table: hot/cold split of the
        union automaton under ``budget_bytes`` (default: the
        :func:`hot_budget_bytes` policy).  Cached per budget."""
        if not self.supports_hot_cold:
            raise CompileError(
                "hot/cold tables require an exact-mode dictionary")
        budget = hot_budget_bytes() if budget_bytes is None \
            else int(budget_bytes)
        if self._hotcold is None or self._hotcold_budget != budget:
            union = self.union_dfa()
            order, maps = self.hot_cold_layout()
            sw = np.stack([_per_state_weights(d)[maps[i]]
                           for i, d in enumerate(self.dfas)])
            sf = np.stack([
                np.asarray(d.final_mask, dtype=np.int64)[maps[i]]
                for i, d in enumerate(self.dfas)])
            self._hotcold = build_hot_cold_table(
                union.transitions, union.final_mask, union.start,
                self.fold.np_table,
                state_weights=_per_state_weights(union),
                budget_bytes=budget, order=order, mass=self._union_mass,
                slice_maps=maps, slice_state_weights=sw,
                slice_state_flags=sf)
            self._hotcold_budget = budget
            self._hotcold_scanner = None
        return self._hotcold

    def hot_cold_scanner(self, budget_bytes: Optional[int] = None
                         ) -> HotColdFusedScanner:
        """A :class:`HotColdFusedScanner` over :meth:`hot_cold_table`,
        cached alongside it."""
        table = self.hot_cold_table(budget_bytes)
        if self._hotcold_scanner is None:
            self._hotcold_scanner = HotColdFusedScanner(table)
        return self._hotcold_scanner

    # -- two-byte stride (pair) tables ----------------------------------------------

    def foldpair_table(self) -> np.ndarray:
        """The composed pair-symbol gather table (v5 artifact row;
        derived on first use for v4 loads and fresh compiles)."""
        if self._pair_foldpair is None:
            self._pair_foldpair = pair_symbol_table(self.fold.np_table,
                                                    self.fold.width)
        return self._pair_foldpair

    def pair_table_fits(self, budget_bytes: Optional[int] = None) -> bool:
        """Whether a *full-coverage* pair table fits the hot budget.

        Computed arithmetically from an upper bound on the union state
        count (the sum of slice states — prefix sharing only shrinks
        it), because the planner must decide before anything is built.
        Full coverage means the two-byte path never escapes to the
        byte-replay slow path, which is when auto-selecting it is a
        pure win."""
        if not self.supports_hot_cold:
            return False
        budget = hot_budget_bytes() if budget_bytes is None \
            else int(budget_bytes)
        bound = self.total_states + 1
        if bound + 1 > np.iinfo(np.int16).max:
            return False
        w2 = self.fold.width * self.fold.width
        return bound * w2 * 2 <= budget

    def hot_cold2_table(self, budget_bytes: Optional[int] = None
                        ) -> HotCold2Table:
        """The two-byte stride execution table: the folded alphabet
        squared over the hottest union states under ``budget_bytes``
        (default: the :func:`hot_budget_bytes` policy), layered on
        :meth:`hot_cold_table`.  Cached per budget."""
        if not self.supports_hot_cold:
            raise CompileError(
                "pair tables require an exact-mode dictionary")
        budget = hot_budget_bytes() if budget_bytes is None \
            else int(budget_bytes)
        if self._hotcold2 is None or self._hotcold2_budget != budget:
            base = self.hot_cold_table(budget)
            union = self.union_dfa()
            self._hotcold2 = build_hot_cold2_table(
                union.transitions, union.final_mask, base,
                budget_bytes=budget, mass=self._union_mass,
                foldpair=self.foldpair_table())
            self._hotcold2_budget = budget
            self._hotcold2_scanner = None
        return self._hotcold2

    def hot_cold2_scanner(self, budget_bytes: Optional[int] = None
                          ) -> HotCold2Scanner:
        """A :class:`HotCold2Scanner` over :meth:`hot_cold2_table`,
        cached alongside it."""
        table = self.hot_cold2_table(budget_bytes)
        if self._hotcold2_scanner is None:
            self._hotcold2_scanner = HotCold2Scanner(table)
        return self._hotcold2_scanner

    # -- screening ------------------------------------------------------------------

    def prefilter(self) -> Optional[PackedPrefilter]:
        """The packed trigram screening stage for this dictionary, or
        ``None`` when it is not screenable: regex mode (match ends are
        not delimited by literal trigrams), a pattern shorter than 3
        bytes, or a folded alphabet whose trigram mask would blow the
        cache ceiling.  Built once and cached."""
        if not self._prefilter_built:
            if not self.regex:
                self._prefilter = PackedPrefilter.build(
                    self.patterns, self.fold.np_table, self.fold.width)
            self._prefilter_built = True
        return self._prefilter

    # -- reference scanning ---------------------------------------------------------

    def match_events(self, raw: bytes) -> List[MatchEvent]:
        """Full event semantics over all slices, global pattern ids,
        sorted by (end, pattern) — the reporting path every backend's
        counts are defined against."""
        folded = self.fold.fold_bytes(raw)
        events: List[MatchEvent] = []
        for si, dfa in enumerate(self.dfas):
            group = self.groups[si]
            for ev in dfa.match_events(folded):
                events.append(MatchEvent(ev.end, group[ev.pattern]))
        events.sort(key=lambda e: (e.end, e.pattern))
        return events

    def __repr__(self) -> str:
        return (f"CompiledDictionary(patterns={self.num_patterns}, "
                f"slices={self.num_slices}, states={self.total_states}, "
                f"{'regex, ' if self.regex else ''}"
                f"fingerprint={self.fingerprint[:12]}...)")


# -- compile paths -----------------------------------------------------------------


def _build_exact(patterns: Tuple[bytes, ...], fold: FoldMap,
                 max_states: int, fingerprint: str) -> CompiledDictionary:
    folded = [fold.fold_bytes(p) for p in patterns]
    for i, p in enumerate(folded):
        if not p:
            raise CompileError(f"pattern {i} is empty")
    try:
        partition = partition_patterns(folded, max_states, fold.width)
    except DFAError as exc:
        raise CompileError(str(exc)) from exc
    COUNTERS["automaton_builds"] += partition.num_slices
    return CompiledDictionary(
        patterns=patterns, fold=fold, regex=False, max_states=max_states,
        groups=partition.groups, dfas=partition.dfas,
        fingerprint=fingerprint, partition=partition)


def _build_regex(patterns: Tuple[bytes, ...], fold: FoldMap,
                 max_states: int, fingerprint: str) -> CompiledDictionary:
    """Greedy bin-packing of regexes into tile-sized DFA slices.

    Each slice is one multi-pattern DFA within the state budget; a
    single regex exceeding the budget alone is rejected — it can never
    fit any tile.
    """
    from ..dfa.regex import compile_patterns

    texts = [p.decode("latin-1") for p in patterns]
    groups: List[List[int]] = []
    dfas: List[DFA] = []
    current_ids: List[int] = []
    current_pats: List[str] = []
    compiled: Optional[DFA] = None
    for i, pattern in enumerate(texts):
        trial = compile_patterns(current_pats + [pattern], fold)
        COUNTERS["automaton_builds"] += 1
        if trial.num_states <= max_states:
            current_ids.append(i)
            current_pats.append(pattern)
            compiled = trial
            continue
        if not current_pats:
            raise CompileError(
                f"regex {pattern!r} alone needs {trial.num_states} "
                f"states, tile budget is {max_states}")
        groups.append(current_ids)
        dfas.append(compiled)
        solo = compile_patterns([pattern], fold)
        COUNTERS["automaton_builds"] += 1
        if solo.num_states > max_states:
            raise CompileError(
                f"regex {pattern!r} alone needs {solo.num_states} "
                f"states, tile budget is {max_states}")
        current_ids = [i]
        current_pats = [pattern]
        compiled = solo
    if current_pats:
        groups.append(current_ids)
        dfas.append(compiled)
    return CompiledDictionary(
        patterns=patterns, fold=fold, regex=True, max_states=max_states,
        groups=tuple(tuple(g) for g in groups), dfas=tuple(dfas),
        fingerprint=fingerprint)


def compile_dictionary(patterns: Sequence[Pattern],
                       fold: Optional[FoldMap] = None,
                       regex: bool = False,
                       max_states: int = 1 << 30,
                       cache: Optional[Union["ArtifactCache", str,
                                             os.PathLike]] = None
                       ) -> CompiledDictionary:
    """The one compile path: patterns → :class:`CompiledDictionary`.

    With ``cache`` (an :class:`ArtifactCache` or a directory path), the
    artifact is looked up by content fingerprint first — a hit rebuilds
    the value object from the stored dense tables with **zero**
    Aho–Corasick / determinization work — and stored after a miss.
    """
    if not patterns:
        raise CompileError("dictionary must contain at least one pattern")
    if fold is None:
        fold = case_fold_32()
    raw = _as_bytes(patterns)
    fingerprint = fingerprint_dictionary(raw, fold, regex, max_states)
    if cache is not None and not isinstance(cache, ArtifactCache):
        cache = ArtifactCache(cache)
    if cache is not None:
        hit = cache.load(fingerprint)
        if hit is not None:
            return hit
    builder = _build_regex if regex else _build_exact
    compiled = builder(raw, fold, max_states, fingerprint)
    if cache is not None:
        cache.store(compiled)
    return compiled


# -- the on-disk artifact cache -----------------------------------------------------


def _default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(
        os.environ.get("XDG_CACHE_HOME",
                       pathlib.Path.home() / ".cache")) / "repro-dfa"


def _union_rows_dense(data) -> np.ndarray:
    """v4 section: the union transition matrix stored densely."""
    return data["union_trans"]


def _union_rows_csr(data) -> np.ndarray:
    """v5 section: union rows in the ColdRowStore shared-default-row
    encoding, densified on load."""
    return ColdRowStore(
        data["union_csr_keys"], data["union_csr_vals"],
        data["union_csr_default"],
        int(data["union_csr_rows"][0])).dense_rows()


#: Versioned union-matrix sections, probed in priority order by
#: :meth:`ArtifactCache._load_file`: each entry is ``(marker key,
#: loader)``.  Supporting a future encoding means appending one row
#: here, not growing another ``elif`` chain; every version in
#: :data:`COMPAT_TABLE_FORMAT_VERSIONS` maps onto exactly one section.
_UNION_ROW_SECTIONS = (
    ("union_trans", _union_rows_dense),      # v4
    ("union_csr_keys", _union_rows_csr),     # v5
)


class ArtifactCache:
    """Compiled dictionaries on disk, keyed by fingerprint + format
    version.

    One ``.npz`` per artifact holds the dense transition tables, final
    masks, outputs, groups, patterns and fold — everything needed to
    rebuild a :class:`CompiledDictionary` without touching the
    dictionary compilers.  Flat/weight execution tables are *not*
    stored: they are derived by fast vectorized numpy passes and
    rebuilding them keeps the format independent of in-memory layout
    tweaks.

    Robustness: loads verify magic, format version and fingerprint;
    corrupt or stale files count as misses (``COUNTERS["cache_rejects"]``)
    and never poison a scan.  Stores are atomic (temp file + rename).
    """

    def __init__(self, directory: Optional[Union[str, os.PathLike]] = None
                 ) -> None:
        self.directory = pathlib.Path(directory).expanduser() \
            if directory is not None else _default_cache_dir()

    def path_for(self, fingerprint: str,
                 version: Optional[int] = None) -> pathlib.Path:
        if version is None:
            version = TABLE_FORMAT_VERSION
        return self.directory / f"{fingerprint}-v{version}.npz"

    # -- store ---------------------------------------------------------------------

    def store(self, compiled: CompiledDictionary) -> pathlib.Path:
        """Persist one artifact; returns its path."""
        arrays: Dict[str, np.ndarray] = {}
        meta = {
            "magic": "repro-compiled-dictionary",
            "version": TABLE_FORMAT_VERSION,
            "fingerprint": compiled.fingerprint,
            "regex": compiled.regex,
            "max_states": compiled.max_states,
            "fold_width": compiled.fold.width,
            "num_slices": compiled.num_slices,
        }
        arrays["meta"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8).copy()
        arrays["fold_table"] = compiled.fold.np_table.copy()
        blob = b"".join(compiled.patterns)
        arrays["patterns_blob"] = np.frombuffer(
            blob, dtype=np.uint8).copy() if blob else \
            np.zeros(0, dtype=np.uint8)
        arrays["pattern_lens"] = np.asarray(
            [len(p) for p in compiled.patterns], dtype=np.int64)
        arrays["group_lens"] = np.asarray(
            [len(g) for g in compiled.groups], dtype=np.int64)
        arrays["groups_flat"] = np.asarray(
            [i for g in compiled.groups for i in g], dtype=np.int64)
        arrays["starts"] = np.asarray(
            [d.start for d in compiled.dfas], dtype=np.int64)
        for i, dfa in enumerate(compiled.dfas):
            arrays[f"trans_{i}"] = dfa.transitions
            arrays[f"final_{i}"] = dfa.final_mask.astype(np.uint8)
            pairs = [(s, p) for s, pats in sorted(dfa.outputs.items())
                     for p in pats]
            arrays[f"outputs_{i}"] = np.asarray(
                pairs, dtype=np.int64).reshape(len(pairs), 2)
        if compiled.num_slices > 1:
            # Multi-slice artifacts carry the stacked table so a warm
            # start skips the stacking pass too.  (Per-slice flat tables
            # stay derived: the fused one covers the hot path and the
            # slice views read straight out of it.)
            fused = compiled.fused_table()
            arrays["fused_flat"] = fused.flat
            arrays["fused_weights"] = fused.weights
            arrays["fused_cell_base"] = fused.cell_base
        if not compiled.regex:
            # v4: the hot/cold layout of the union automaton.  The
            # HotColdFusedTable itself stays derived (it depends on the
            # runtime hot budget); what is expensive and deterministic —
            # the union build, the visit profiling and the union→slice
            # projections — is what gets persisted.
            order, maps = compiled.hot_cold_layout()
            arrays["hotcold_order"] = np.asarray(order, dtype=np.int64)
            arrays["hotcold_slice_maps"] = np.asarray(maps,
                                                     dtype=np.int64)
            if compiled._union_mass is not None:
                arrays["hotcold_mass"] = np.asarray(
                    compiled._union_mass, dtype=np.float64)
            # v5: the composed pair-symbol gather table, so a warm
            # start builds the two-byte stride path with zero fold
            # composition passes.
            arrays["hotcold2_foldpair"] = compiled.foldpair_table()
            if compiled.num_slices > 1:
                union = compiled.union_dfa()
                # v5: union rows ride the ColdRowStore shared-default
                # encoding (most union rows differ from the start row
                # only at trie edges, so the exception list is small).
                store_csr = ColdRowStore.from_rows(
                    np.asarray(union.transitions),
                    np.asarray(union.transitions)[union.start])
                arrays["union_csr_keys"] = store_csr.keys
                arrays["union_csr_vals"] = store_csr.vals
                arrays["union_csr_default"] = store_csr.default_row
                arrays["union_csr_rows"] = np.asarray(
                    [union.num_states], dtype=np.int64)
                arrays["union_final"] = union.final_mask.astype(np.uint8)
                arrays["union_start"] = np.asarray([union.start],
                                                   dtype=np.int64)
                upairs = [(s, p)
                          for s, pats in sorted(union.outputs.items())
                          for p in pats]
                arrays["union_outputs"] = np.asarray(
                    upairs, dtype=np.int64).reshape(len(upairs), 2)

        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(compiled.fingerprint)
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(buf.getvalue())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        COUNTERS["cache_stores"] += 1
        return path

    # -- load ----------------------------------------------------------------------

    def load(self, fingerprint: str) -> Optional[CompiledDictionary]:
        """Rebuild an artifact by fingerprint, or ``None`` on miss.

        Corrupt files, stale format versions and fingerprint mismatches
        are all misses — the caller recompiles and overwrites.
        """
        path = None
        candidates = [self.path_for(fingerprint)]
        candidates += [self.path_for(fingerprint, v)
                       for v in COMPAT_TABLE_FORMAT_VERSIONS]
        for candidate in candidates:
            if candidate.exists():
                path = candidate
                break
        if path is None:
            COUNTERS["cache_misses"] += 1
            return None
        try:
            compiled = self._load_file(path, fingerprint)
        except Exception:
            COUNTERS["cache_rejects"] += 1
            COUNTERS["cache_misses"] += 1
            return None
        COUNTERS["cache_hits"] += 1
        return compiled

    def _load_file(self, path: pathlib.Path,
                   fingerprint: str) -> CompiledDictionary:
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            if meta.get("magic") != "repro-compiled-dictionary":
                raise ValueError("bad magic")
            if meta.get("version") not in COMPAT_TABLE_FORMAT_VERSIONS:
                raise ValueError("stale table-format version")
            if meta.get("fingerprint") != fingerprint:
                raise ValueError("fingerprint mismatch")
            fold = FoldMap(tuple(int(b) for b in data["fold_table"]),
                           int(meta["fold_width"]))
            blob = bytes(data["patterns_blob"])
            patterns: List[bytes] = []
            pos = 0
            for n in data["pattern_lens"]:
                patterns.append(blob[pos:pos + int(n)])
                pos += int(n)
            groups: List[Tuple[int, ...]] = []
            flat = [int(i) for i in data["groups_flat"]]
            pos = 0
            for n in data["group_lens"]:
                groups.append(tuple(flat[pos:pos + int(n)]))
                pos += int(n)
            starts = data["starts"]
            dfas: List[DFA] = []
            for i in range(int(meta["num_slices"])):
                pairs = data[f"outputs_{i}"]
                outputs: Dict[int, Tuple[int, ...]] = {}
                for s, p in pairs:
                    outputs.setdefault(int(s), ())
                    outputs[int(s)] += (int(p),)
                dfas.append(DFA(
                    data[f"trans_{i}"],
                    finals=np.nonzero(data[f"final_{i}"])[0],
                    start=int(starts[i]),
                    outputs=outputs))
            fused = None
            if "fused_flat" in data.files:
                fused = FusedTable(
                    flat=np.ascontiguousarray(data["fused_flat"],
                                              dtype=np.int32),
                    weights=np.ascontiguousarray(data["fused_weights"],
                                                 dtype=np.int32),
                    cell_base=np.ascontiguousarray(data["fused_cell_base"],
                                                   dtype=np.int64),
                    starts=np.asarray([d.start for d in dfas],
                                      dtype=np.int64),
                    num_states=np.asarray([d.num_states for d in dfas],
                                          dtype=np.int64),
                    symbol_width=256)
                if (fused.num_dfas != len(dfas)
                        or fused.flat.size !=
                        sum(d.num_states for d in dfas) * fused.stride):
                    raise ValueError("fused table shape mismatch")
            union = None
            utrans = None
            for marker, loader in _UNION_ROW_SECTIONS:
                if marker in data.files:
                    utrans = loader(data)
                    break
            if utrans is not None:
                upairs = data["union_outputs"]
                uout: Dict[int, Tuple[int, ...]] = {}
                for s, p in upairs:
                    uout.setdefault(int(s), ())
                    uout[int(s)] += (int(p),)
                union = DFA(utrans,
                            finals=np.nonzero(data["union_final"])[0],
                            start=int(data["union_start"][0]),
                            outputs=uout)
            pair_foldpair = None
            if "hotcold2_foldpair" in data.files:
                pair_foldpair = np.ascontiguousarray(
                    data["hotcold2_foldpair"], dtype=np.uint16)
                if pair_foldpair.shape != (65536,):
                    raise ValueError("pair-symbol table shape mismatch")
            union_order = None
            union_mass = None
            slice_maps = None
            if "hotcold_order" in data.files:
                union_order = np.ascontiguousarray(data["hotcold_order"],
                                                   dtype=np.int64)
                if "hotcold_mass" in data.files:
                    union_mass = np.ascontiguousarray(
                        data["hotcold_mass"], dtype=np.float64)
                slice_maps = np.ascontiguousarray(
                    data["hotcold_slice_maps"], dtype=np.int64)
                union_states = union.num_states if union is not None \
                    else int(data["trans_0"].shape[0])
                if (union_order.shape != (union_states,)
                        or slice_maps.shape !=
                        (int(meta["num_slices"]), union_states)):
                    raise ValueError("hot/cold layout shape mismatch")
        regex = bool(meta["regex"])
        max_states = int(meta["max_states"])
        raw = tuple(patterns)
        partition = None
        if not regex:
            folded = tuple(fold.fold_bytes(p) for p in raw)
            partition = PartitionedDictionary(
                patterns=folded, groups=tuple(groups), dfas=tuple(dfas),
                max_states=max_states)
        return CompiledDictionary(
            patterns=raw, fold=fold, regex=regex, max_states=max_states,
            groups=tuple(groups), dfas=tuple(dfas),
            fingerprint=fingerprint, partition=partition, _fused=fused,
            _union=union, _union_order=union_order,
            _union_mass=union_mass, _slice_maps=slice_maps,
            _pair_foldpair=pair_foldpair)

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.directory)!r})"

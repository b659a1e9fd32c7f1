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
                   build_flat_table, build_hot_cold2_table,
                   build_weight_table, fuse_tables, pair_symbol_table,
                   project_states, visit_order)
from .scan.hotcold2 import rank_dtype
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
    "compiled_arrays",
    "compiled_from_arrays",
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
#: v4: exact-mode artifacts additionally persist the layout of the
#: union automaton — its dense table (when it is not simply slice
#: 0's), the :func:`~repro.core.scan.visit_order` ranking and the
#: union→slice state maps — so a warm start derives the union kernel's
#: table at any hot budget without an Aho–Corasick build or a
#: profiling pass.
#:
#: v5: exact-mode artifacts add the pair-symbol layout for two-byte
#: stride scanning (the composed ``foldpair`` gather table), and the
#: multi-slice union transition matrix is stored in the
#: :class:`~repro.core.compressed.ColdRowStore` shared-default-row
#: encoding instead of densely.  Only v5 files load; older ones are
#: misses and get recompiled.
TABLE_FORMAT_VERSION = 5

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
    """Sizing policy for the pair rows of the union kernel's table.

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
    _partition: Optional[PartitionedDictionary] = \
        field(default=None, repr=False)
    _tables: Optional[List[Tuple[np.ndarray, np.ndarray]]] = \
        field(default=None, repr=False)
    _scanners: Optional[List[FlatScanner]] = field(default=None, repr=False)
    _fused: Optional[FusedTable] = field(default=None, repr=False)
    _fused_scanner: Optional[FusedScanner] = field(default=None, repr=False)
    _union: Optional[DFA] = field(default=None, repr=False)
    _union_rows: Optional[ColdRowStore] = field(default=None, repr=False)
    _union_order: Optional[np.ndarray] = field(default=None, repr=False)
    _slice_maps: Optional[np.ndarray] = field(default=None, repr=False)
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
    def partition(self) -> Optional[PartitionedDictionary]:
        """Exact-mode bin-packing (``None`` for regex dictionaries), for
        deployment planning; a decoded dictionary derives it on first
        read."""
        if self._partition is None and not self.regex:
            self._partition = PartitionedDictionary(
                patterns=tuple(self.fold.fold_bytes(p)
                               for p in self.patterns),
                groups=self.groups, dfas=self.dfas,
                max_states=self.max_states)
        return self._partition

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
        built (or decoded from the artifact) over all folded patterns in
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

    def union_rows(self) -> ColdRowStore:
        """:meth:`union_dfa`'s rows in the shared-default-row encoding
        the artifact stores; a decoded dictionary keeps the carrier's
        arrays, so re-encoding it does no work."""
        if self._union_rows is None:
            union = self.union_dfa()
            self._union_rows = ColdRowStore.from_rows(
                union.transitions, union.transitions[union.start])
        return self._union_rows

    def hot_cold_layout(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(visit_order, slice_maps)`` of the union automaton — the
        two derived arrays the artifact persists.  The order ranks
        union states hottest-first; ``slice_maps[d]`` projects every
        union state onto slice ``d`` (:func:`project_states`), which is
        what keeps per-slice counts exact with one union-table pass."""
        union = self.union_dfa()
        if self._union_order is None:
            self._union_order = visit_order(
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

    # -- two-byte stride (pair) tables ----------------------------------------------

    def foldpair_table(self) -> np.ndarray:
        """The composed pair-symbol gather table (an artifact row;
        derived on first use for fresh compiles)."""
        if self._pair_foldpair is None:
            self._pair_foldpair = pair_symbol_table(self.fold.np_table,
                                                    self.fold.width)
        return self._pair_foldpair

    def pair_table_fits(self, budget_bytes: Optional[int] = None) -> bool:
        """Whether a *full-coverage* pair table fits the hot budget.

        Computed arithmetically from an upper bound on the union state
        count (the sum of slice states — prefix sharing only shrinks
        it), so nothing is built.  Full coverage means the two-byte
        path never escapes to byte replay.  Reported for tracing only:
        the pair table serves every exact dictionary either way."""
        if not self.supports_hot_cold:
            return False
        budget = hot_budget_bytes() if budget_bytes is None \
            else int(budget_bytes)
        bound = self.total_states + 1
        w2 = self.fold.width * self.fold.width
        return bound * w2 * rank_dtype(bound).itemsize <= budget

    def hot_cold2_table(self, budget_bytes: Optional[int] = None
                        ) -> HotCold2Table:
        """The union kernel's only table: the folded alphabet squared
        over the hottest union states under ``budget_bytes`` (default:
        the :func:`hot_budget_bytes` policy), built from
        :meth:`union_dfa` and :meth:`hot_cold_layout`.  Cached per
        budget."""
        if not self.supports_hot_cold:
            raise CompileError(
                "pair tables require an exact-mode dictionary")
        budget = hot_budget_bytes() if budget_bytes is None \
            else int(budget_bytes)
        if self._hotcold2 is None or self._hotcold2_budget != budget:
            union = self.union_dfa()
            order, maps = self.hot_cold_layout()
            self._hotcold2 = build_hot_cold2_table(
                union.transitions, union.final_mask, union.start,
                self.fold.np_table, self.foldpair_table(), order=order,
                state_weights=_per_state_weights(union), slice_maps=maps,
                slice_state_weights=np.stack([
                    _per_state_weights(d)[maps[i]]
                    for i, d in enumerate(self.dfas)]),
                slice_state_flags=np.stack([
                    np.asarray(d.final_mask)[maps[i]]
                    for i, d in enumerate(self.dfas)]),
                budget_bytes=budget)
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
        fingerprint=fingerprint, _partition=partition)


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


# -- the one codec: named arrays + scalars -------------------------------------------
#
# A compiled dictionary has one serialization with two carriers: the
# ArtifactCache's ``.npz`` file (the scalars ride its JSON ``meta``
# row) and the worker pool's ``SharedArrayBundle("compiled", ...)``
# (the scalars ride the manifest).  The decoder reads any mapping with
# ``[]`` and ``in`` and checks every array against the dtype and shape
# the encoder wrote instead of converting it, so a bundle-decoded
# dictionary's tables are views of the shared segment.


def _pairs(outputs: Dict[int, Tuple[int, ...]]) -> np.ndarray:
    """DFA outputs as sorted ``(state, pattern)`` rows."""
    pairs = [(s, p) for s, pats in sorted(outputs.items()) for p in pats]
    return np.asarray(pairs, dtype=np.int64).reshape(len(pairs), 2)


def _outputs(arrays, key: str) -> Dict[int, Tuple[int, ...]]:
    """Inverse of :func:`_pairs`."""
    outputs: Dict[int, Tuple[int, ...]] = {}
    for s, p in _array(arrays, key, np.int64, (-1, 2)).tolist():
        outputs[s] = outputs.get(s, ()) + (p,)
    return outputs


def _split(flat, lens: np.ndarray) -> list:
    """Cut ``flat`` into consecutive pieces of lengths ``lens``, which
    must cover it exactly."""
    ends = np.cumsum(lens).tolist()
    if (ends[-1] if ends else 0) != len(flat) or \
            any(b < a for a, b in zip([0] + ends, ends)):
        raise ValueError("piece lengths do not cover the stored run")
    return [flat[a:b] for a, b in zip([0] + ends[:-1], ends)]


def _array(arrays, key: str, dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """``arrays[key]`` as stored (never a converted copy), checked
    against the dtype and shape the encoder wrote."""
    arr = np.asarray(arrays[key])
    if arr.dtype != np.dtype(dtype):
        raise ValueError(f"{key}: dtype {arr.dtype}, expected "
                         f"{np.dtype(dtype)}")
    return arr.reshape(shape)


def compiled_arrays(compiled: CompiledDictionary
                    ) -> Tuple[Dict[str, np.ndarray], Dict[str, object]]:
    """Encode a dictionary as ``(named arrays, scalars)``.

    The arrays are everything a warm start needs to skip compile work:
    patterns, fold, per-slice dense tables, the fused stack
    (multi-slice), and for exact dictionaries the union automaton's
    layout — visit order, union→slice maps, the pair-symbol gather
    table and (multi-slice) the union rows in the
    :class:`~repro.core.compressed.ColdRowStore` encoding.  The pair
    table itself stays derived: it depends on the runtime hot budget.
    """
    arrays: Dict[str, np.ndarray] = {
        "fold_table": compiled.fold.np_table,
        "patterns_blob": np.frombuffer(b"".join(compiled.patterns),
                                       dtype=np.uint8),
        "pattern_lens": np.asarray([len(p) for p in compiled.patterns],
                                   dtype=np.int64),
        "group_lens": np.asarray([len(g) for g in compiled.groups],
                                 dtype=np.int64),
        "groups_flat": np.asarray([i for g in compiled.groups for i in g],
                                  dtype=np.int64),
        "starts": np.asarray([d.start for d in compiled.dfas],
                             dtype=np.int64),
    }
    for i, dfa in enumerate(compiled.dfas):
        arrays[f"trans_{i}"] = dfa.transitions
        arrays[f"final_{i}"] = dfa.final_mask.astype(np.uint8)
        arrays[f"outputs_{i}"] = _pairs(dfa.outputs)
    if compiled.num_slices > 1:
        fused = compiled.fused_table()
        arrays["fused_flat"] = fused.flat
        arrays["fused_weights"] = fused.weights
        arrays["fused_cell_base"] = fused.cell_base
    if not compiled.regex:
        order, maps = compiled.hot_cold_layout()
        arrays["hotcold_order"] = np.asarray(order, dtype=np.int64)
        arrays["hotcold_slice_maps"] = np.asarray(maps, dtype=np.int64)
        arrays["hotcold2_foldpair"] = compiled.foldpair_table()
        if compiled.num_slices > 1:
            union = compiled.union_dfa()
            rows = compiled.union_rows()
            arrays["union_csr_keys"] = rows.keys
            arrays["union_csr_vals"] = rows.vals
            arrays["union_csr_default"] = rows.default_row
            arrays["union_csr_rows"] = np.asarray([rows.num_rows],
                                                  dtype=np.int64)
            arrays["union_final"] = union.final_mask.astype(np.uint8)
            arrays["union_start"] = np.asarray([union.start],
                                               dtype=np.int64)
            arrays["union_outputs"] = _pairs(union.outputs)
    scalars = {
        "fingerprint": compiled.fingerprint,
        "regex": bool(compiled.regex),
        "max_states": int(compiled.max_states),
        "fold_width": int(compiled.fold.width),
        "num_slices": int(compiled.num_slices),
    }
    return arrays, scalars


def compiled_from_arrays(arrays, scalars) -> CompiledDictionary:
    """Decode :func:`compiled_arrays`' output with zero automaton
    builds.  ``arrays`` is any mapping with ``[]`` and ``in`` (an
    ``NpzFile``, a :class:`~repro.core.scan.SharedArrayBundle`); arrays
    carried flat are reshaped, never copied, so the result aliases the
    carrier — keep a bundle open for the dictionary's lifetime.
    Raises on any array whose dtype or shape disagrees with the
    scalars."""
    width = int(scalars["fold_width"])
    num_slices = int(scalars["num_slices"])
    fold = FoldMap(tuple(_array(arrays, "fold_table", np.uint8,
                                (256,)).tolist()), width)
    patterns = tuple(_split(
        _array(arrays, "patterns_blob", np.uint8, (-1,)).tobytes(),
        _array(arrays, "pattern_lens", np.int64, (-1,))))
    groups = tuple(tuple(g) for g in _split(
        _array(arrays, "groups_flat", np.int64, (-1,)).tolist(),
        _array(arrays, "group_lens", np.int64, (num_slices,))))
    starts = _array(arrays, "starts", np.int64, (num_slices,))
    dfas = []
    for i in range(num_slices):
        trans = _array(arrays, f"trans_{i}", np.int32, (-1, width))
        final = _array(arrays, f"final_{i}", np.uint8, (len(trans),))
        dfas.append(DFA(trans, finals=np.flatnonzero(final),
                        start=int(starts[i]),
                        outputs=_outputs(arrays, f"outputs_{i}")))
    fused = None
    if "fused_flat" in arrays:
        total = sum(d.num_states for d in dfas)
        fused = FusedTable(     # stride 2 × 256: the fold is composed in
            flat=_array(arrays, "fused_flat", np.int32, (total * 512,)),
            weights=_array(arrays, "fused_weights", np.int32,
                           (total * 256 + 1,)),
            cell_base=_array(arrays, "fused_cell_base", np.int64,
                             (num_slices,)),
            starts=starts,
            num_states=np.asarray([d.num_states for d in dfas],
                                  dtype=np.int64),
            symbol_width=256)
    union = rows = None
    if "union_csr_keys" in arrays:
        rows = ColdRowStore(
            _array(arrays, "union_csr_keys", np.int64, (-1,)),
            _array(arrays, "union_csr_vals", np.int32, (-1,)),
            _array(arrays, "union_csr_default", np.int32, (width,)),
            int(_array(arrays, "union_csr_rows", np.int64, (1,))[0]))
        union = DFA(rows.dense_rows(),
                    finals=np.flatnonzero(_array(
                        arrays, "union_final", np.uint8, (rows.num_rows,))),
                    start=int(_array(arrays, "union_start", np.int64,
                                     (1,))[0]),
                    outputs=_outputs(arrays, "union_outputs"))
    order = maps = foldpair = None
    if "hotcold_order" in arrays:
        n = (dfas[0] if union is None else union).num_states
        order = _array(arrays, "hotcold_order", np.int64, (n,))
        maps = _array(arrays, "hotcold_slice_maps", np.int64,
                      (num_slices, n))
        foldpair = _array(arrays, "hotcold2_foldpair", np.uint16, (65536,))
    return CompiledDictionary(
        patterns=patterns, fold=fold, regex=bool(scalars["regex"]),
        max_states=int(scalars["max_states"]), groups=groups,
        dfas=tuple(dfas), fingerprint=str(scalars["fingerprint"]),
        _fused=fused, _union=union, _union_rows=rows, _union_order=order,
        _slice_maps=maps, _pair_foldpair=foldpair)


# -- the on-disk artifact cache -----------------------------------------------------


def _default_cache_dir() -> pathlib.Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    return pathlib.Path(
        os.environ.get("XDG_CACHE_HOME",
                       pathlib.Path.home() / ".cache")) / "repro-dfa"


class ArtifactCache:
    """Compiled dictionaries on disk, keyed by fingerprint + format
    version.

    One ``.npz`` per artifact holds :func:`compiled_arrays`' arrays
    plus a ``meta`` row (magic, format version and the scalars).
    Per-slice flat/weight execution tables are *not* stored: they are
    derived by fast vectorized numpy passes, which keeps the format
    independent of in-memory layout tweaks.

    Robustness: loads verify magic, format version and fingerprint,
    and the decoder checks every array's dtype and shape; corrupt or
    stale files count as misses (``COUNTERS["cache_rejects"]``) and
    never poison a scan.  Stores are atomic (temp file + rename).
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

    def store(self, compiled: CompiledDictionary) -> pathlib.Path:
        """Persist one artifact; returns its path."""
        arrays, scalars = compiled_arrays(compiled)
        meta = {"magic": "repro-compiled-dictionary",
                "version": TABLE_FORMAT_VERSION, **scalars}
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path_for(compiled.fingerprint)
        buf = io.BytesIO()
        np.savez_compressed(
            buf, meta=np.frombuffer(json.dumps(meta).encode(),
                                    dtype=np.uint8), **arrays)
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

    def load(self, fingerprint: str) -> Optional[CompiledDictionary]:
        """Rebuild an artifact by fingerprint, or ``None`` on miss.

        Files of other format versions are never read, and corrupt
        files and fingerprint mismatches are misses too — the caller
        recompiles and overwrites.
        """
        path = self.path_for(fingerprint)
        if not path.exists():
            COUNTERS["cache_misses"] += 1
            return None
        try:
            with np.load(path) as data:
                meta = json.loads(bytes(data["meta"]).decode())
                if meta.get("magic") != "repro-compiled-dictionary":
                    raise ValueError("bad magic")
                if meta.get("version") != TABLE_FORMAT_VERSION:
                    raise ValueError("stale table-format version")
                if meta.get("fingerprint") != fingerprint:
                    raise ValueError("fingerprint mismatch")
                compiled = compiled_from_arrays(data, meta)
        except Exception:
            COUNTERS["cache_rejects"] += 1
            COUNTERS["cache_misses"] += 1
            return None
        COUNTERS["cache_hits"] += 1
        return compiled

    def __repr__(self) -> str:
        return f"ArtifactCache({str(self.directory)!r})"

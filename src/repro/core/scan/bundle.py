"""Generic shared-memory manifest for scan-kernel artifacts.

:class:`SharedArrayBundle` is the one pack/attach/unlink implementation
every kernel exports through: an ordered manifest of named numpy arrays
packed into a single ``multiprocessing.shared_memory`` segment (8-byte
aligned), plus a picklable scalar side-channel.  The creator owns the
segment and unlinks it on close; workers :meth:`attach` in microseconds
and get zero-copy views.

The per-kernel knowledge — which arrays a table exports and how to
rebuild the table object from attached views — lives in the codec
functions :func:`bundle_from_table` and :func:`table_from_bundle`,
keyed by the bundle's ``kind``.  Adding a kernel means registering one
codec.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from ..compressed import ColdRowStore
from .fused import FusedTable
from .hotcold2 import HotCold2Table

__all__ = [
    "SharedArrayBundle",
    "BundleError",
    "bundle_from_table",
    "table_from_bundle",
    "bundle_from_compiled",
    "compiled_from_bundle",
]

#: Meta keys that are structural, not kernel scalars.
_RESERVED = ("name", "kind", "arrays")


class BundleError(Exception):
    """Raised for malformed manifests or unknown bundle kinds."""


def _align(offset: int, alignment: int = 8) -> int:
    return (offset + alignment - 1) & ~(alignment - 1)


class _SharedSegment(shared_memory.SharedMemory):
    """``SharedMemory`` whose ``close`` tolerates live exports.

    Numpy views of the buffer may outlive the bundle (a reconstructed
    table keeps them; a forked child inherits the parent's), and both
    explicit close and GC-time ``__del__`` route through ``close()``.
    The mapping is released when the last view dies; what matters is
    that the *name* is unlinked exactly once by the owner.
    """

    def close(self) -> None:
        try:
            super().close()
        except BufferError:
            pass


class SharedArrayBundle:
    """Named arrays in one shared-memory segment, with zero-copy attach.

    Parameters
    ----------
    kind:
        Codec tag (``"flat_set"``, ``"fused"``, ``"hotcold2"``,
        ``"compiled"``) recorded in the manifest so the
        attaching side knows how to rebuild the kernel's table object.
    arrays:
        Ordered ``(name, ndarray)`` pairs; each is made contiguous and
        copied into the segment at an 8-byte-aligned offset.
    scalars:
        Picklable extras merged into the manifest (start state, widths,
        budgets, ...), readable on both sides via :meth:`scalar`.
    """

    def __init__(self, kind: str,
                 arrays: Iterable[Tuple[str, np.ndarray]],
                 scalars: Optional[Dict] = None) -> None:
        scalars = dict(scalars or {})
        for key in _RESERVED:
            if key in scalars:
                raise BundleError(f"scalar key {key!r} is reserved")
        specs = []
        prepared = []
        offset = 0
        for name, arr in arrays:
            # Flatten: the manifest records (dtype, offset, count) only,
            # so multi-dimensional inputs are stored 1-D and reshaped by
            # the attaching codec.
            arr = np.ascontiguousarray(arr).reshape(-1)
            offset = _align(offset)
            specs.append((str(name), arr.dtype.str, offset, int(arr.size)))
            prepared.append((arr, offset))
            offset += arr.nbytes
        if len({s[0] for s in specs}) != len(specs):
            raise BundleError("duplicate array name in manifest")
        self._shm = _SharedSegment(create=True, size=max(offset, 1))
        self._owner = True
        self._meta: Dict = {"name": self._shm.name, "kind": str(kind),
                            "arrays": tuple(specs), **scalars}
        # Fill before mapping views: structures rebuilt from the views
        # (e.g. the cold store) validate their contents at construction,
        # which a still-zeroed segment would fail.
        buf = self._shm.buf
        for arr, off in prepared:
            np.frombuffer(buf, dtype=arr.dtype, count=arr.size,
                          offset=off)[:] = arr
        self._map_views()

    @classmethod
    def attach(cls, meta: Dict) -> "SharedArrayBundle":
        """Attach to an existing bundle from its manifest (worker side).

        Zero-copy: the returned views alias the creator's segment.  The
        attacher never unlinks.
        """
        self = cls.__new__(cls)
        # No resource-tracker unregister here: pool workers share the
        # creator's (forked) tracker, whose registration set dedupes the
        # attach-side registration; the creator's unlink clears it once.
        self._shm = _SharedSegment(name=meta["name"])
        self._owner = False
        self._meta = dict(meta)
        self._map_views()
        return self

    def _map_views(self) -> None:
        buf = self._shm.buf
        self.kind = self._meta["kind"]
        self.arrays: Dict[str, np.ndarray] = {}
        for name, dtype, offset, count in self._meta["arrays"]:
            self.arrays[name] = np.frombuffer(buf, dtype=np.dtype(dtype),
                                              count=count, offset=offset)

    # -- use ----------------------------------------------------------------------

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __contains__(self, name: str) -> bool:
        return name in self.arrays

    def get(self, name: str) -> Optional[np.ndarray]:
        return self.arrays.get(name)

    def scalar(self, key, default=None):
        return self._meta.get(key, default)

    @property
    def scalars(self) -> Dict:
        return {k: v for k, v in self._meta.items() if k not in _RESERVED}

    def meta(self) -> Dict:
        """Picklable attachment recipe for workers."""
        return dict(self._meta)

    def table(self):
        """Rebuild this bundle's kernel table object (codec dispatch)."""
        return table_from_bundle(self)

    @property
    def size_bytes(self) -> int:
        return self._shm.size

    # -- lifetime -----------------------------------------------------------------

    def close(self) -> None:
        """Release this process's mapping; unlink too if we created it."""
        if self._shm is None:
            return
        self.arrays = {}
        try:
            self._shm.close()
        except BufferError:
            # Views of the segment are still alive in this process
            # (e.g. a reconstructed table draining its last scan); the
            # mapping is released when they are collected.  Unlinking
            # below still frees the segment's name immediately.
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
        self._shm = None

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (f"SharedArrayBundle(kind={self._meta.get('kind')!r}, "
                f"arrays={len(self._meta.get('arrays', ()))}, "
                f"bytes={self._shm.size if self._shm else 0}, "
                f"owner={self._owner})")


# -- per-kind codecs ----------------------------------------------------------------

def bundle_from_table(table, scalars: Optional[Dict] = None
                      ) -> SharedArrayBundle:
    """Place a kernel table in shared memory, picking the codec from
    the table's type.  ``scalars`` are merged into the manifest."""
    extra = dict(scalars or {})
    if isinstance(table, FusedTable):
        arrays = [("flat", table.flat), ("weights", table.weights),
                  ("cell_base", np.asarray(table.cell_base,
                                           dtype=np.int64)),
                  ("starts", np.asarray(table.starts, dtype=np.int64)),
                  ("num_states", np.asarray(table.num_states,
                                            dtype=np.int64))]
        meta = {"num_dfas": int(len(table.cell_base)),
                "symbol_width": int(table.symbol_width), **extra}
        return SharedArrayBundle("fused", arrays, meta)
    if isinstance(table, HotCold2Table):
        arrays = [(name, getattr(table, name))
                  for name in HotCold2Table.ARRAYS]
        meta = {"num_dfas": int(table.num_dfas),
                "symbol_width": int(table.symbol_width),
                "start": int(table.start),
                "pair_budget_bytes": int(table.pair_budget_bytes),
                **extra}
        return SharedArrayBundle("hotcold2", arrays, meta)
    raise BundleError(f"no shared-memory codec for {type(table).__name__}")


def table_from_bundle(bundle: SharedArrayBundle):
    """Rebuild the kernel table object a bundle carries (zero-copy —
    the table's arrays are views into the shared segment)."""
    kind = bundle.kind
    if kind == "fused":
        return FusedTable(flat=bundle["flat"], weights=bundle["weights"],
                          cell_base=bundle["cell_base"],
                          starts=bundle["starts"],
                          num_states=bundle["num_states"],
                          symbol_width=bundle.scalar("symbol_width"))
    if kind == "hotcold2":
        ndfa = bundle.scalar("num_dfas")
        arrays = {name: bundle[name] for name in HotCold2Table.ARRAYS}
        for name in ("slice_maps", "slice_weights", "slice_flags"):
            arrays[name] = arrays[name].reshape(ndfa, -1)
        return HotCold2Table(
            **arrays, start=bundle.scalar("start"),
            symbol_width=bundle.scalar("symbol_width"),
            pair_budget_bytes=bundle.scalar("pair_budget_bytes"))
    raise BundleError(f"no table codec for bundle kind {kind!r}")


# -- whole-dictionary codec ----------------------------------------------------------
#
# The service's worker pool needs the paper's PPE/SPE topology at the
# process level: the gateway compiles a dictionary ONCE, then every
# worker attaches to the compiled arrays read-only and reconstructs a
# CompiledDictionary value object with zero automaton builds (the same
# recipe ArtifactCache._load_file uses against the on-disk .npz, but
# against a shared-memory segment and without deserialization).

def bundle_from_compiled(compiled) -> SharedArrayBundle:
    """Place a whole ``CompiledDictionary`` in shared memory.

    Mirrors :meth:`repro.core.compiled.ArtifactCache.store` (the v5
    artifact recipe): patterns, fold, per-slice dense tables, the fused
    stack, the union automaton's CSR rows and the hot/cold layout all
    ride the segment, so :func:`compiled_from_bundle` re-seats every
    expensive derived structure instead of rebuilding it.
    """
    arrays = [("fold_table", compiled.fold.np_table)]
    blob = b"".join(compiled.patterns)
    arrays.append(("patterns_blob",
                   np.frombuffer(blob, dtype=np.uint8) if blob
                   else np.zeros(0, dtype=np.uint8)))
    arrays.append(("pattern_lens", np.asarray(
        [len(p) for p in compiled.patterns], dtype=np.int64)))
    arrays.append(("group_lens", np.asarray(
        [len(g) for g in compiled.groups], dtype=np.int64)))
    arrays.append(("groups_flat", np.asarray(
        [i for g in compiled.groups for i in g], dtype=np.int64)))
    arrays.append(("starts", np.asarray(
        [d.start for d in compiled.dfas], dtype=np.int64)))
    for i, dfa in enumerate(compiled.dfas):
        arrays.append((f"trans_{i}",
                       np.asarray(dfa.transitions, dtype=np.int32)))
        arrays.append((f"final_{i}", dfa.final_mask.astype(np.uint8)))
        pairs = [(s, p) for s, pats in sorted(dfa.outputs.items())
                 for p in pats]
        arrays.append((f"outputs_{i}", np.asarray(
            pairs, dtype=np.int64).reshape(len(pairs), 2)))
    if compiled.num_slices > 1:
        fused = compiled.fused_table()
        arrays += [("fused_flat", fused.flat),
                   ("fused_weights", fused.weights),
                   ("fused_cell_base", np.asarray(fused.cell_base,
                                                  dtype=np.int64))]
    union_rows = 0
    union_start = 0
    if not compiled.regex:
        order, maps = compiled.hot_cold_layout()
        arrays.append(("hotcold_order", np.asarray(order,
                                                   dtype=np.int64)))
        arrays.append(("hotcold_slice_maps", np.asarray(maps,
                                                        dtype=np.int64)))
        arrays.append(("hotcold2_foldpair", compiled.foldpair_table()))
        if compiled.num_slices > 1:
            union = compiled.union_dfa()
            union_rows = int(union.num_states)
            union_start = int(union.start)
            store_csr = ColdRowStore.from_rows(
                np.asarray(union.transitions),
                np.asarray(union.transitions)[union.start])
            arrays += [("union_csr_keys", store_csr.keys),
                       ("union_csr_vals", store_csr.vals),
                       ("union_csr_default", store_csr.default_row),
                       ("union_final",
                        union.final_mask.astype(np.uint8))]
            upairs = [(s, p) for s, pats in sorted(union.outputs.items())
                      for p in pats]
            arrays.append(("union_outputs", np.asarray(
                upairs, dtype=np.int64).reshape(len(upairs), 2)))
    scalars = {
        "fingerprint": compiled.fingerprint,
        "regex": bool(compiled.regex),
        "max_states": int(compiled.max_states),
        "fold_width": int(compiled.fold.width),
        "num_slices": int(compiled.num_slices),
        "union_rows": union_rows,
        "union_start": union_start,
    }
    return SharedArrayBundle("compiled", arrays, scalars)


def compiled_from_bundle(bundle: SharedArrayBundle):
    """Reconstruct a ``CompiledDictionary`` from an attached bundle.

    Zero automaton builds (provable via
    ``repro.core.compiled.COUNTERS["automaton_builds"]``): the slice
    DFAs, the fused stack, the union automaton and the hot/cold layout
    are re-seated from the shared views exactly the way
    ``ArtifactCache._load_file`` re-seats them from disk.  The returned
    object's tables alias the segment — keep the bundle open for the
    dictionary's lifetime.
    """
    from ..compiled import CompiledDictionary
    from ...dfa.alphabet import FoldMap
    from ...dfa.automaton import DFA
    from ...dfa.partition import PartitionedDictionary

    if bundle.kind != "compiled":
        raise BundleError(
            f"expected a 'compiled' bundle, got {bundle.kind!r}")
    fold = FoldMap(tuple(int(b) for b in bundle["fold_table"]),
                   int(bundle.scalar("fold_width")))
    blob = bundle["patterns_blob"].tobytes()
    patterns = []
    pos = 0
    for n in bundle["pattern_lens"]:
        patterns.append(blob[pos:pos + int(n)])
        pos += int(n)
    groups = []
    flat = [int(i) for i in bundle["groups_flat"]]
    pos = 0
    for n in bundle["group_lens"]:
        groups.append(tuple(flat[pos:pos + int(n)]))
        pos += int(n)
    starts = bundle["starts"]
    num_slices = int(bundle.scalar("num_slices"))
    dfas = []
    for i in range(num_slices):
        pairs = bundle[f"outputs_{i}"].reshape(-1, 2)
        outputs = {}
        for s, p in pairs:
            outputs.setdefault(int(s), ())
            outputs[int(s)] += (int(p),)
        trans = bundle[f"trans_{i}"].reshape(-1, fold.width)
        dfas.append(DFA(trans,
                        finals=np.nonzero(bundle[f"final_{i}"])[0],
                        start=int(starts[i]), outputs=outputs))
    fused = None
    if "fused_flat" in bundle:
        fused = FusedTable(
            flat=bundle["fused_flat"], weights=bundle["fused_weights"],
            cell_base=bundle["fused_cell_base"],
            starts=np.asarray([d.start for d in dfas], dtype=np.int64),
            num_states=np.asarray([d.num_states for d in dfas],
                                  dtype=np.int64),
            symbol_width=256)
    union = None
    if "union_csr_keys" in bundle:
        union_rows = int(bundle.scalar("union_rows"))
        utrans = ColdRowStore(bundle["union_csr_keys"],
                              bundle["union_csr_vals"],
                              bundle["union_csr_default"],
                              union_rows).dense_rows()
        upairs = bundle["union_outputs"].reshape(-1, 2)
        uout = {}
        for s, p in upairs:
            uout.setdefault(int(s), ())
            uout[int(s)] += (int(p),)
        union = DFA(utrans,
                    finals=np.nonzero(bundle["union_final"])[0],
                    start=int(bundle.scalar("union_start")),
                    outputs=uout)
    union_order = None
    slice_maps = None
    if "hotcold_order" in bundle:
        union_order = bundle["hotcold_order"]
        slice_maps = bundle["hotcold_slice_maps"].reshape(num_slices, -1)
    pair_foldpair = None
    if "hotcold2_foldpair" in bundle:
        pair_foldpair = bundle["hotcold2_foldpair"]
    regex = bool(bundle.scalar("regex"))
    max_states = int(bundle.scalar("max_states"))
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
        fingerprint=bundle.scalar("fingerprint"), partition=partition,
        _fused=fused, _union=union, _union_order=union_order,
        _slice_maps=slice_maps, _pair_foldpair=pair_foldpair)

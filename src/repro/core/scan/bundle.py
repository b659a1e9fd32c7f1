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
codec.  A whole compiled dictionary travels as a ``"compiled"`` bundle
of :func:`repro.core.compiled.compiled_arrays` — the artifact file's
arrays, in shared memory — decoded by
:func:`~repro.core.compiled.compiled_from_arrays`.
"""

from __future__ import annotations

from multiprocessing import shared_memory
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .fused import FusedTable
from .hotcold2 import HotCold2Table

__all__ = [
    "SharedArrayBundle",
    "BundleError",
    "bundle_from_table",
    "table_from_bundle",
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

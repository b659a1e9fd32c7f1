"""The ScanKernel protocol: every inner loop behind one interface.

A *kernel* adapts one scanner family (flat, fused, hotcold2)
to a uniform surface so the backends, the sharded pool, the prefilter
verifier and the differential tests stop branching on scanner types:

``table``
    The kernel's table object(s) — introspection and size accounting.
``count_arr_per_dfa(arr, chunks)``
    Exact per-slice ``(counts, exit_states)`` over one block, exit
    states in *slice-local* state space for every kernel (the union
    kernel projects through its slice maps), so results are
    directly comparable across kernels.
``count_total(arr, chunks)``
    Exact whole-dictionary total over one block — the headline scan.
``count_arr_detail(arr, chunks, entry_states)``
    One speculation ledger (:class:`ScanDetail`) per *chain*, entered
    from ``entry_states`` (one per chain; ``None`` = start states).  A
    chain is one independently carried automaton: a slice for the flat
    and fused kernels, the single union automaton for the union
    kernel (whose ledgers stay in union state space).  This is what
    the sharded pool scans shards and carries state across buffers
    with.
``repair(chain, arr, detail, entry_state, chunks)``
    Exact ``(count, exit_state)`` of one chain over ``arr`` from a
    corrected entry state, reusing ``detail`` (see
    :func:`~repro.core.scan.driver.repair_detail`).
``input_bound``
    Exclusive upper bound on scannable input byte values, or ``None``
    when the table reads raw bytes (a fold composed into it, or a
    256-column alphabet).
``run_streams(streams)``
    Ragged multi-stream totals: ``(totals, finals)`` with ``totals``
    shaped ``(num_streams,)`` (whole-dictionary, weighted) and
    ``finals`` shaped ``(num_slices, num_streams)`` in slice-local
    states — the prefilter verifier's engine.
``stats()`` / ``reset_stats()``
    Scanner-side counters (hot-hit rate, escapes, ...); empty for
    kernels without accounting.
``shared_export()``
    The kernel's whole artifact as one
    :class:`~repro.core.scan.bundle.SharedArrayBundle`; the matching
    classmethod ``from_bundle`` rebuilds the kernel worker-side.

Kernels register by name in :data:`KERNELS`; planners and pools refer
to kernels by these names.  A future inner loop (3-byte chaining,
speculative SIMD variants) is one new kernel class here — not a new
scanner plumbed through five layers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type, Union

import numpy as np

from ...dfa.alphabet import FoldMap
from ...dfa.automaton import DFA, DFAError
from .base import _ragged_segments, hotcold_lanes_target
from .bundle import SharedArrayBundle, bundle_from_table
from .driver import ScanDetail, count_arr, count_arr_detail, \
    repair_detail
from .flat import FlatScanner, build_flat_table, build_weight_table

__all__ = ["ScanKernel", "FlatKernel", "FusedKernel", "HotCold2Kernel",
           "KERNELS", "register_kernel", "get_kernel", "kernel_names"]


KERNELS: Dict[str, Type["ScanKernel"]] = {}


def register_kernel(cls: Type["ScanKernel"]) -> Type["ScanKernel"]:
    """Class decorator: add one kernel to the registry."""
    if not cls.name:
        raise DFAError("kernel must declare a name")
    if cls.name in KERNELS:
        raise DFAError(f"kernel {cls.name!r} already registered")
    KERNELS[cls.name] = cls
    return cls


def get_kernel(name: str) -> Type["ScanKernel"]:
    try:
        return KERNELS[name]
    except KeyError:
        raise DFAError(
            f"unknown kernel {name!r}; registered: "
            f"{', '.join(KERNELS)}") from None


def kernel_names() -> List[str]:
    return list(KERNELS)


class ScanKernel:
    """Base class / protocol for one inner-loop family."""

    #: Registry key.
    name: str = ""
    #: Speculation-granularity floor for block scans.
    chunks: int = 256

    @classmethod
    def supports(cls, compiled) -> bool:
        """Whether this kernel can serve the compiled dictionary."""
        return True

    @classmethod
    def from_compiled(cls, compiled) -> "ScanKernel":
        raise NotImplementedError

    @classmethod
    def from_bundle(cls, bundle: SharedArrayBundle) -> "ScanKernel":
        raise NotImplementedError

    # -- protocol ----------------------------------------------------------------

    @property
    def table(self):
        raise NotImplementedError

    @property
    def num_slices(self) -> int:
        raise NotImplementedError

    def count_arr_per_dfa(self, arr: np.ndarray, chunks: Optional[int]
                          = None) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def count_total(self, arr: np.ndarray,
                    chunks: Optional[int] = None) -> int:
        """Whole-dictionary weighted total over one block."""
        counts, _ = self.count_arr_per_dfa(arr, chunks)
        return int(counts.sum())

    def count_arr_detail(self, arr: np.ndarray, chunks: Optional[int]
                         = None, entry_states: Optional[Sequence[int]]
                         = None) -> List[ScanDetail]:
        raise NotImplementedError

    def repair(self, chain: int, arr: np.ndarray, detail: ScanDetail,
               entry_state: int, chunks: Optional[int] = None
               ) -> Tuple[int, int]:
        raise NotImplementedError

    @property
    def input_bound(self) -> Optional[int]:
        return None

    def run_streams(self, streams: Sequence[bytes]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def stats(self) -> Dict:
        return {}

    def reset_stats(self) -> None:
        pass

    def shared_export(self) -> SharedArrayBundle:
        raise NotImplementedError


@register_kernel
class FlatKernel(ScanKernel):
    """One flag-encoded flat table per dictionary slice (§4 reference).

    The only kernel with no cross-slice sharing: D slices cost D passes
    over the input.  Kept as the baseline every other kernel must match
    bit-for-bit.
    """

    name = "flat"

    def __init__(self, scanners: List[FlatScanner],
                 weights: List[Optional[np.ndarray]]) -> None:
        self.scanners = scanners
        self.weights = weights

    @classmethod
    def from_compiled(cls, compiled) -> "FlatKernel":
        return cls(compiled.scanners(),
                   [w for _, w in compiled.tables()])

    @classmethod
    def from_dfas(cls, dfas: Union[DFA, Sequence[DFA]],
                  fold: Optional[FoldMap] = None,
                  weighted: bool = False) -> "FlatKernel":
        """A kernel over bare automata sharing one alphabet.

        With ``fold`` the byte→symbol map is composed into each table
        (256 columns), so the kernel scans raw bytes; without it,
        inputs must be pre-folded symbols.  ``weighted`` counts each
        state's match multiplicity (event semantics) instead of one
        per final-state entry (the paper's kernel counting).
        """
        if isinstance(dfas, DFA):
            dfas = [dfas]
        if not dfas:
            raise DFAError("at least one DFA required")
        alphabet = dfas[0].alphabet_size
        if any(d.alphabet_size != alphabet for d in dfas):
            raise DFAError("DFAs must share one alphabet")
        fold_table = None
        width = alphabet
        if fold is not None:
            if fold.width != alphabet:
                raise DFAError(f"fold width {fold.width} != DFA alphabet "
                               f"{alphabet}")
            fold_table = fold.np_table
            width = 256
        scanners, weights = [], []
        for d in dfas:
            flat, _ = build_flat_table(d.transitions, d.final_mask,
                                       fold_table=fold_table)
            scanners.append(FlatScanner(flat, width, d.start,
                                        d.num_states))
            weights.append(build_weight_table(d, width) if weighted
                           else None)
        return cls(scanners, weights)

    @classmethod
    def from_bundle(cls, bundle: SharedArrayBundle) -> "FlatKernel":
        ndfa = bundle.scalar("num_dfas")
        starts = bundle.scalar("starts")
        nstates = bundle.scalar("num_states")
        width = bundle.scalar("symbol_width")
        scanners = [FlatScanner(bundle[f"flat{d}"], width, starts[d],
                                nstates[d]) for d in range(ndfa)]
        return cls(scanners, [bundle.get(f"weights{d}")
                              for d in range(ndfa)])

    @property
    def table(self) -> List[np.ndarray]:
        return [sc.flat for sc in self.scanners]

    @property
    def num_slices(self) -> int:
        return len(self.scanners)

    def count_arr_per_dfa(self, arr, chunks=None):
        chunks = chunks or self.chunks
        counts = np.zeros(self.num_slices, dtype=np.int64)
        exits = np.empty(self.num_slices, dtype=np.int64)
        for d, sc in enumerate(self.scanners):
            if arr.size:
                cnt, exit_state = count_arr(sc, arr, chunks, sc.start,
                                            weights=self.weights[d])
            else:
                cnt, exit_state = 0, sc.start
            counts[d] = cnt
            exits[d] = exit_state
        return counts, exits

    def count_arr_detail(self, arr, chunks=None, entry_states=None):
        chunks = chunks or self.chunks
        return [count_arr_detail(
                    sc, arr, chunks,
                    sc.start if entry_states is None else entry_states[d],
                    weights=self.weights[d])
                for d, sc in enumerate(self.scanners)]

    def repair(self, chain, arr, detail, entry_state, chunks=None):
        return repair_detail(self.scanners[chain], arr, detail,
                             entry_state, chunks or self.chunks,
                             weights=self.weights[chain])

    @property
    def input_bound(self):
        width = self.scanners[0].alphabet_size
        return None if width == 256 else width

    def run_streams(self, streams):
        nstreams = len(streams)
        if not nstreams:
            raise DFAError("at least one stream required")
        lens = np.asarray([len(s) for s in streams], dtype=np.int64)
        order = np.argsort(-lens, kind="stable")
        sorted_lens = lens[order]
        maxlen = int(sorted_lens[0]) if nstreams else 0
        cols = np.zeros((maxlen, nstreams), dtype=np.uint8)
        for k, oi in enumerate(order):
            s = streams[oi]
            if len(s):
                cols[:len(s), k] = np.frombuffer(s, dtype=np.uint8)
        totals = np.zeros(nstreams, dtype=np.int64)
        finals = np.empty((self.num_slices, nstreams), dtype=np.int64)
        for d, sc in enumerate(self.scanners):
            ptrs = np.full(nstreams, sc.pointer(sc.start), dtype=np.int32)
            counts = np.zeros(nstreams, dtype=np.int64)
            for lo, hi, active in _ragged_segments(sorted_lens):
                fin = sc.scan_cols(cols[lo:hi, :active], ptrs[:active],
                                   counts[:active],
                                   weights=self.weights[d])
                ptrs[:active] = fin
            out_counts = np.empty_like(counts)
            out_ptrs = np.empty_like(ptrs)
            out_counts[order] = counts
            out_ptrs[order] = ptrs
            totals += out_counts
            finals[d] = sc.state_of(out_ptrs)
        return totals, finals

    def shared_export(self) -> SharedArrayBundle:
        arrays = []
        for d, sc in enumerate(self.scanners):
            arrays.append((f"flat{d}", sc.flat))
            if self.weights[d] is not None:
                arrays.append((f"weights{d}", self.weights[d]))
        return SharedArrayBundle("flat_set", arrays, {
            "num_dfas": self.num_slices,
            "starts": [sc.start for sc in self.scanners],
            "num_states": [sc.num_states for sc in self.scanners],
            "symbol_width": self.scanners[0].alphabet_size,
        })


class _ScannerKernel(ScanKernel):
    """Shared adapter body for the single-scanner kernels."""

    def __init__(self, scanner) -> None:
        self.scanner = scanner

    @classmethod
    def from_bundle(cls, bundle: SharedArrayBundle):
        if bundle.kind != cls.name:
            raise DFAError(
                f"kernel {cls.name!r} cannot attach a {bundle.kind!r} "
                f"bundle")
        return cls(bundle.table().scanner())

    @property
    def table(self):
        return self.scanner.table

    def shared_export(self) -> SharedArrayBundle:
        return bundle_from_table(self.table)

    def stats(self) -> Dict:
        stats = dict(getattr(self.scanner, "stats", None) or {})
        if hasattr(self.scanner, "hot_hit_rate"):
            stats["hot_hit_rate"] = self.scanner.hot_hit_rate
        return stats

    def reset_stats(self) -> None:
        if hasattr(self.scanner, "reset_stats"):
            self.scanner.reset_stats()


@register_kernel
class FusedKernel(_ScannerKernel):
    """Stacked multi-slice table, lanes = slices × chunks (§6)."""

    name = "fused"

    @classmethod
    def from_compiled(cls, compiled) -> "FusedKernel":
        return cls(compiled.fused_scanner())

    @property
    def num_slices(self) -> int:
        return self.scanner.num_dfas

    def count_arr_per_dfa(self, arr, chunks=None):
        fs = self.scanner
        counts, exits = fs.count_arr_per_dfa(arr, chunks or self.chunks,
                                             weights=fs.weights)
        return counts, np.asarray(exits, dtype=np.int64)

    def count_arr_detail(self, arr, chunks=None, entry_states=None):
        fs = self.scanner
        return fs.count_arr_detail_per_dfa(arr, chunks or self.chunks,
                                           entry_states=entry_states,
                                           weights=fs.weights)

    def repair(self, chain, arr, detail, entry_state, chunks=None):
        fs = self.scanner
        return repair_detail(fs.slice_view(chain), arr, detail,
                             entry_state, chunks or self.chunks,
                             weights=fs.weights)

    @property
    def input_bound(self):
        width = self.table.symbol_width
        return None if width == 256 else width

    def run_streams(self, streams):
        fs = self.scanner
        counts, finals = fs.run_streams(streams, weights=fs.weights)
        return counts.sum(axis=0), np.asarray(finals, dtype=np.int64)


@register_kernel
class HotCold2Kernel(_ScannerKernel):
    """The union kernel: whole-dictionary scans over one union
    automaton whose hottest states are squared into a pair-symbol table
    (one gather per two input bytes, §4), per-slice results projected
    through the table's slice maps."""

    name = "hotcold2"

    @classmethod
    def supports(cls, compiled) -> bool:
        return compiled.supports_hot_cold

    @classmethod
    def from_compiled(cls, compiled) -> "HotCold2Kernel":
        return cls(compiled.hot_cold2_scanner())

    @property
    def num_slices(self) -> int:
        return self.table.num_dfas

    def count_arr_per_dfa(self, arr, chunks=None):
        sc = self.scanner
        counts, exits = sc.count_arr_per_dfa(arr, chunks or self.chunks,
                                             weights=sc.weights)
        return counts, np.asarray(exits, dtype=np.int64)

    def count_total(self, arr, chunks=None):
        sc = self.scanner
        if not arr.size:
            return 0
        cnt, _ = count_arr(sc, arr, chunks or self.chunks, sc.start,
                           weights=sc.weights,
                           lanes_target=hotcold_lanes_target())
        return int(cnt)

    def count_arr_detail(self, arr, chunks=None, entry_states=None):
        sc = self.scanner
        entry = sc.start if entry_states is None else entry_states[0]
        return [count_arr_detail(sc, arr, chunks or self.chunks, entry,
                                 weights=sc.weights,
                                 lanes_target=hotcold_lanes_target())]

    def repair(self, chain, arr, detail, entry_state, chunks=None):
        sc = self.scanner
        return repair_detail(sc, arr, detail, entry_state,
                             chunks or self.chunks, weights=sc.weights)

    def run_streams(self, streams):
        sc = self.scanner
        counts, finals = sc.run_streams(streams, weights=sc.weights)
        finals = np.asarray(finals, dtype=np.int64)
        return counts, self.table.slice_maps[:, finals].astype(np.int64)

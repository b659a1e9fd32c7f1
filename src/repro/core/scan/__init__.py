"""Scan-kernel package: one module per inner loop, a shared driver,
the kernel registry and the packed prefilter:

* :mod:`.base` — tuning constants and strip-loop helpers;
* :mod:`.flat` — flag-encoded flat STT + single-DFA scanner;
* :mod:`.driver` — speculative chunked block scan, exactness ledger,
  and the reference :class:`VectorDFAEngine`;
* :mod:`.fused` — stacked multi-DFA table and grid scanner;
* :mod:`.hotcold` — the union automaton's visit order and slice
  projections;
* :mod:`.hotcold2` — the union kernel's pair-symbol table and scan;
* :mod:`.bundle` — :class:`SharedArrayBundle`, the one shared-memory
  export/attach path every kernel uses;
* :mod:`.kernels` — the :class:`ScanKernel` protocol and registry;
* :mod:`.prefilter` — packed multi-byte fingerprint screening;
* :mod:`.walk` — the scalar single-stream walk over one slice DFA.

Import scan names from this package (or the module defining them).
"""

from __future__ import annotations

from .base import (
    FUSED_LANES_TARGET,
    FUSED_STRIP_ELEMS,
    HOT_BUDGET_BYTES,
    HOTCOLD_LANES_TARGET,
    HOTCOLD_STRIP_ELEMS,
    LANES_TARGET,
    MIN_PIECE,
    SPECULATION_WARMUP,
    STRIP,
    hotcold_lanes_target,
    hotcold_strip_elems,
)
from .driver import (
    ScanDetail,
    StreamResult,
    VectorDFAEngine,
    count_arr,
    count_arr_detail,
    repair_detail,
)
from .flat import FlatScanner, build_flat_table, build_weight_table
from .fused import FusedScanner, FusedTable, fuse_tables
from .hotcold import project_states, visit_order
from .hotcold2 import (
    HotCold2Scanner,
    HotCold2Table,
    build_hot_cold2_table,
    pair_symbol_table,
)
from .bundle import (
    BundleError,
    SharedArrayBundle,
    bundle_from_table,
    table_from_bundle,
)
from .walk import SliceWalk
from .kernels import (
    KERNELS,
    FlatKernel,
    FusedKernel,
    HotCold2Kernel,
    ScanKernel,
    get_kernel,
    kernel_names,
    register_kernel,
)

__all__ = [
    "VectorDFAEngine",
    "StreamResult",
    "FlatScanner",
    "FusedTable",
    "FusedScanner",
    "HotCold2Table",
    "HotCold2Scanner",
    "ScanDetail",
    "SliceWalk",
    "build_flat_table",
    "build_weight_table",
    "build_hot_cold2_table",
    "pair_symbol_table",
    "fuse_tables",
    "visit_order",
    "project_states",
    "count_arr",
    "count_arr_detail",
    "repair_detail",
    "hotcold_lanes_target",
    "hotcold_strip_elems",
]

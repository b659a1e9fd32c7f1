"""Core library: the paper's contribution — DFA tiles on the Cell BE.

STT layout, stream interleaving, the five Table-1 kernels, tile execution
on the SPU simulator, local-store planning, double-buffering schedules,
tile composition, dynamic STT replacement, the vectorized numpy engine,
and the high-level :class:`CellStringMatcher` API.
"""

from .backends import (BackendError, ScanBackend, ScanContext, ScanOutcome,
                       ScanRequest, backend_names, backend_specs, execute,
                       get_backend, register_backend)
from .bloom_tile import BloomTile, BloomTileError, bloom_capacity
from .compiled import (TABLE_FORMAT_VERSION, ArtifactCache, CompiledDictionary,
                       CompileError, compile_dictionary,
                       fingerprint_dictionary)
from .composition import (CompositionError, CompositionReport,
                          TileComposition, mixed, parallel, series)
from .compressed import CompressedSTT, CompressionStats
from .scan.driver import StreamResult, VectorDFAEngine
from .interleave import (InterleaveError, block_to_streams, deinterleave,
                         interleave_block, interleave_streams)
from .kernels import (KERNEL_SPECS, SIMD_LANES, BuiltKernel, KernelBuilder,
                      KernelError, KernelSpec)
from .matcher import (PAPER_TILE_GBPS, CellStringMatcher, MatcherError,
                      ScanReport)
from .planner import (CODE_STACK_BYTES, FIGURE3_CASES, ExecutionPlan,
                      PlanError, TilePlan, plan_backend, plan_tile)
from .replacement import (HALF_TILE_STATES, HALF_TILE_STT_BYTES,
                          ReplacementError, ReplacementMatcher, TopologyPlan,
                          chain_gbps, effective_gbps, plan_topology,
                          replacement_schedule)
from .schedule import Interval, Schedule, ScheduleError, \
    double_buffer_schedule
from .system import CellMatchingSystem, SystemError, SystemRunResult
from .stt import CELL_BYTES, STTError, STTImage, row_stride
from .tile import DFATile, TileError, TileRunResult, merge_stats

__all__ = [
    "BackendError",
    "ScanBackend",
    "ScanContext",
    "ScanOutcome",
    "ScanRequest",
    "backend_names",
    "backend_specs",
    "execute",
    "get_backend",
    "register_backend",
    "TABLE_FORMAT_VERSION",
    "ArtifactCache",
    "CompiledDictionary",
    "CompileError",
    "compile_dictionary",
    "fingerprint_dictionary",
    "BloomTile",
    "BloomTileError",
    "bloom_capacity",
    "CompressedSTT",
    "CompressionStats",
    "CompositionError",
    "CompositionReport",
    "TileComposition",
    "mixed",
    "parallel",
    "series",
    "StreamResult",
    "VectorDFAEngine",
    "InterleaveError",
    "block_to_streams",
    "deinterleave",
    "interleave_block",
    "interleave_streams",
    "KERNEL_SPECS",
    "SIMD_LANES",
    "BuiltKernel",
    "KernelBuilder",
    "KernelError",
    "KernelSpec",
    "PAPER_TILE_GBPS",
    "CellStringMatcher",
    "MatcherError",
    "ScanReport",
    "CODE_STACK_BYTES",
    "FIGURE3_CASES",
    "ExecutionPlan",
    "PlanError",
    "TilePlan",
    "plan_backend",
    "plan_tile",
    "HALF_TILE_STATES",
    "HALF_TILE_STT_BYTES",
    "ReplacementError",
    "ReplacementMatcher",
    "TopologyPlan",
    "chain_gbps",
    "effective_gbps",
    "plan_topology",
    "replacement_schedule",
    "Interval",
    "Schedule",
    "ScheduleError",
    "double_buffer_schedule",
    "CellMatchingSystem",
    "SystemError",
    "SystemRunResult",
    "CELL_BYTES",
    "STTError",
    "STTImage",
    "row_stride",
    "DFATile",
    "TileError",
    "TileRunResult",
    "merge_stats",
]

"""Host-parallel scan layer — the paper's parallel-tile composition
(Figure 6a) mapped onto host cores.

The paper multiplies throughput by running identical DFA tiles over
disjoint input slices; here :class:`ShardedScanner` runs one registered
:class:`~repro.core.scan.kernels.ScanKernel` in every worker of a
persistent pool over disjoint input shards.  The kernel's tables are
built once in the parent and exported through its ``shared_export()``
bundle into ``multiprocessing.shared_memory``, so each worker attaches
them zero-copy with ``from_bundle()`` instead of unpickling tables per
task, just as the paper loads each SPE's local store once and streams
only input past it.

Input moves the way the paper's Figure 5 moves it: a persistent
:class:`StagingRing` of shared buffers is filled by the host (the
PPE/MFC role) while the workers scan the resident buffer, so blocks,
chunk streams and files of any size flow through a fixed footprint.
Shards are scanned *speculatively* from guessed entry states and
repaired incrementally from per-chain ledgers — across shard and buffer
boundaries — so the counts are bit-identical to a serial scan (the same
mechanism the in-process block scans use, generalized across processes
and time).
"""

from .ring import StagingRing
from .sharded import ShardedScanner, ShardedScanError

__all__ = [
    "ShardedScanner",
    "ShardedScanError",
    "StagingRing",
]

"""Live scan service: a hot-reloadable dictionary daemon.

The paper compiles a dictionary and streams traffic through it; this
package keeps that dictionary *resident in a long-running process* and
serves concurrent scans over a length-prefixed TCP protocol — the
production shape of the reproduction:

* :mod:`~repro.service.protocol` — the wire format and verb set;
* :mod:`~repro.service.registry` — hot dictionary reload (double-
  buffered generations, the paper's §6 replacement at service scale);
* :mod:`~repro.service.sessions` — flow sessions: per-connection DFA
  state across packet boundaries;
* :mod:`~repro.service.metrics` — counters and latency histograms;
* :mod:`~repro.service.daemon` — the asyncio server (admission
  control, graceful drain) and its control plane;
* :mod:`~repro.service.worker` / :mod:`~repro.service.pool` — the
  replicas that serve: one in-process, or a worker fleet attached to
  each compiled dictionary via shared memory, flows placed by hash;
* :mod:`~repro.service.client` — the blocking client;
* :mod:`~repro.service.loadgen` — the closed-/open-loop load
  generator behind ``repro bench-load``.

The daemon also hosts the policy layer (:mod:`repro.policy`): tenants
with isolated dictionaries and hot-swappable rulesets, reachable via
the ``TENANT``/``POLICY`` verbs and a ``tenant`` header on scans.
"""

from .client import ServiceClient, ServiceError
from .daemon import ScanService, ServiceConfig, ServiceThread
from .loadgen import LoadResult, run_load
from .metrics import LatencyHistogram, ServiceMetrics
from .pool import (ConsistentHashRing, PoolError, WorkerCrashError,
                   WorkerPool)
from .protocol import (RELOAD_STRATEGY, VERB_SPECS, VERBS, Frame,
                       ProtocolError)
from .registry import (DictionaryRegistry, Generation, RegistryError,
                       ReloadResult)
from .sessions import PacketScan, SessionScanner

__all__ = [
    "ServiceClient",
    "ServiceError",
    "ScanService",
    "ServiceConfig",
    "ServiceThread",
    "LoadResult",
    "run_load",
    "LatencyHistogram",
    "ServiceMetrics",
    "ConsistentHashRing",
    "PoolError",
    "WorkerCrashError",
    "WorkerPool",
    "RELOAD_STRATEGY",
    "VERB_SPECS",
    "VERBS",
    "Frame",
    "ProtocolError",
    "DictionaryRegistry",
    "Generation",
    "RegistryError",
    "ReloadResult",
    "PacketScan",
    "SessionScanner",
]

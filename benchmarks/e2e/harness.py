"""Load-side machinery of the end-to-end benchmark.

* :class:`Daemon` runs ``python -m repro serve`` as a subprocess in its
  own session, so the load generator and the daemon never share a GIL
  and every process the daemon forks can be reaped with its group.
* :class:`Connection` is one closed-loop client: one request in flight,
  the payload built before the timer starts.
* :func:`run_phase` drives every connection for a fixed wall time.
* :data:`DAEMON_CPUS` / :func:`client_cpus` give the daemon and the load
  generator one CPU each.
* ``/proc`` readers give the CPU time and peak RSS of a process tree.

Nothing here knows about workloads; ``workloads.py`` supplies the
request streams and ``run.py`` turns the records into metrics.
"""

from __future__ import annotations

import math
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.service import ServiceClient, ServiceError

ROOT = Path(__file__).resolve().parents[2]

#: Seconds a daemon may take to print its banner (import + compile).
START_TIMEOUT = 120.0
#: Seconds a SIGTERM drain may take before the group is killed.
STOP_TIMEOUT = 30.0

_BANNER = re.compile(rb"^serving .* on ([0-9.]+):([0-9]+) ", re.M)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least ``q`` of
    the samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


# -- CPU placement ------------------------------------------------------------------


def _cpu_split() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """``(daemon, client)`` CPU sets, or ``(None, None)`` on one CPU.

    Left to the scheduler, each request's wake-ups (client -> event
    loop -> scan thread -> client) land on whichever vCPU is idle, and
    on a shared 2-vCPU host how fast the host resumes a halted vCPU
    then sets the numbers: ``packets`` throughput swung +-15% from one
    second to the next and its ten-seed spread was 8.7%.  With the
    daemon's whole process tree on one CPU and the load generator on
    another, the spread was 2.5%.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None, None
    return {cpus[0]}, {cpus[1]}


DAEMON_CPUS, CLIENT_CPUS = _cpu_split()


@contextmanager
def client_cpus() -> Iterator[None]:
    """Run this process, and the threads it starts, on the client CPU."""
    if CLIENT_CPUS is None:
        yield
        return
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, CLIENT_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, before)


# -- the daemon under test ----------------------------------------------------------


class Daemon:
    """One ``repro serve`` subprocess listening on an OS-chosen port.

    ``cache`` must be an empty or absent directory: every launch starts
    from a cold artifact cache, as a fresh deployment would.
    """

    def __init__(self, args: Sequence[str], cache: Path, log: Path) -> None:
        cmd = [sys.executable, "-m", "repro", "serve", "--host",
               "127.0.0.1", "--port", "0", "--cache", str(cache), *args]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self._log_path = log
        self._log = open(log, "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=self._log, start_new_session=True)
        try:
            # The child is still starting the interpreter, so every
            # thread and pool worker it makes later inherits the set.
            if DAEMON_CPUS is not None:
                os.sched_setaffinity(self.proc.pid, DAEMON_CPUS)
            self.host, self.port = self._await_banner()
        except BaseException:
            self.stop()
            raise

    def _await_banner(self) -> Tuple[str, int]:
        deadline = time.monotonic() + START_TIMEOUT
        fd = self.proc.stdout.fileno()
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            seen += chunk
            match = _BANNER.search(seen)
            if match:
                return match.group(1).decode(), int(match.group(2))
        self._log.flush()
        tail = self._log_path.read_bytes()[-2000:].decode(errors="replace")
        raise BenchError(f"daemon did not start: {tail or seen!r}")

    @property
    def pid(self) -> int:
        return self.proc.pid

    def client(self) -> ServiceClient:
        """A new connection to this daemon."""
        return ServiceClient(self.host, self.port, timeout=60.0)

    def stop(self) -> None:
        """Graceful drain (SIGTERM), then make sure nothing of the
        daemon's process group outlives it."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                _kill_group(self.proc.pid)
                self.proc.wait()
        _reap_group(self.proc.pid)
        self.proc.stdout.close()
        self._log.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _reap_group(pgid: int, timeout: float = 5.0) -> None:
    """Wait for stragglers of a daemon's group (pool workers, the
    shared-memory resource tracker) to exit, killing them past
    ``timeout``."""
    deadline = time.monotonic() + timeout
    while _group_members(pgid):
        if time.monotonic() > deadline:
            _kill_group(pgid)
            return
        time.sleep(0.05)


def _group_members(pgid: int) -> List[int]:
    return [pid for pid, (_, group, state) in _proc_table().items()
            if group == pgid and state != "Z"]


# -- /proc readers ------------------------------------------------------------------


def _proc_table() -> Dict[int, Tuple[int, int, str]]:
    """pid -> (ppid, pgid, state) for every live process."""
    table = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        table[int(name)] = (int(fields[1]), int(fields[2]),
                            fields[0].decode())
    return table


def process_tree(root: int) -> List[int]:
    """``root`` plus all its live descendants."""
    children: Dict[int, List[int]] = {}
    for pid, (ppid, _, _) in _proc_table().items():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def tree_cpu_seconds(root: int) -> float:
    """User + system CPU seconds consumed so far by a process tree."""
    total = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                fields = fh.read().rsplit(b")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])   # utime, stime
    return total / _CLK_TCK


def tree_peak_rss_mb(root: int) -> float:
    """Sum of ``VmHWM`` (peak resident set) over a process tree, MB."""
    total_kib = 0
    for pid in process_tree(root):
        try:
            with open(f"/proc/{pid}/status", "rb") as fh:
                for line in fh:
                    if line.startswith(b"VmHWM:"):
                        total_kib += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kib * 1024 / 1e6


def own_cpu_seconds() -> float:
    """CPU seconds of this (load-generator) process, all threads."""
    t = os.times()
    return t.user + t.system


# -- closed-loop clients ------------------------------------------------------------


@dataclass
class Op:
    """One request of a workload, minus its payload.

    ``key`` lets the checks rebuild the payload after the run, so no
    payload is kept alive by the records."""

    kind: str                       # scan / flow / reload / policy
    key: object = None
    nbytes: int = 0
    flow: Optional[str] = None
    tenant: Optional[str] = None
    sample: bool = False

    @property
    def control(self) -> bool:
        return self.kind in ("reload", "policy")


@dataclass
class Record:
    """What one request did, as the client saw it."""

    phase: int                      # trial index; negative = not measured
    op: Op
    latency: float
    error: Optional[str] = None
    seconds: float = 0.0            # server-side time from the reply
    matches: int = 0
    flow_total: int = 0
    backend: str = ""
    generation: int = 0
    action: str = ""


#: Phase tags of records that no trial owns.
WARMUP, PROBE, TWIN = -1, -2, -3


def send(client: ServiceClient, op: Op, payload) -> Dict[str, object]:
    """Issue one request through the public client; returns the reply
    fields the benchmark records."""
    if op.kind == "scan":
        r = client.scan(payload)
        return {"seconds": r.seconds, "matches": r.matches,
                "backend": r.backend, "generation": r.generation}
    if op.kind == "flow":
        r = client.scan_packet(op.flow, payload, tenant=op.tenant)
        return {"seconds": r.seconds, "matches": r.matches,
                "flow_total": r.flow_total, "generation": r.generation,
                "action": r.action}
    if op.kind == "reload":
        r = client.reload(payload)
        return {"seconds": r.seconds, "generation": r.generation}
    if op.kind == "policy":
        client.set_policy(op.tenant, payload)
        return {}
    raise ValueError(f"unknown op kind {op.kind!r}")


class Connection:
    """One client connection driving a closed loop over its op stream."""

    def __init__(self, client: ServiceClient,
                 ops: Iterator[Tuple[Op, object]]) -> None:
        self.client = client
        self.ops = ops
        self.records: List[Record] = []
        self.dead = False

    def step(self, phase: int) -> None:
        op, payload = next(self.ops)           # built off the clock
        t0 = time.perf_counter()
        try:
            fields = send(self.client, op, payload)
        except ServiceError as exc:
            self.records.append(Record(phase, op,
                                       time.perf_counter() - t0,
                                       error=exc.code))
            if exc.code in ("closed", "transport"):
                self.dead = True
            return
        self.records.append(Record(phase, op, time.perf_counter() - t0,
                                   **fields))

    def run_until(self, deadline: float, phase: int) -> None:
        while not self.dead and time.perf_counter() < deadline:
            self.step(phase)

    def close(self) -> None:
        self.client.close()


def run_phase(conns: Sequence[Connection], seconds: float,
              phase: int) -> float:
    """Run every connection's closed loop for ``seconds``; returns the
    wall time until the last in-flight request completed."""
    deadline = time.perf_counter() + seconds
    threads = [threading.Thread(target=c.run_until, args=(deadline, phase),
                                name=f"e2e-conn-{i}")
               for i, c in enumerate(conns)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0

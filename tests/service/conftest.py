"""Service-boundary invariants checked after every service test: no
shared-memory segment, child process or ``repro-*`` thread outlives
the test that created it."""

import multiprocessing
import os
import threading
import time

import pytest

_SHM = "/dev/shm"
#: Pipe threads and joined processes wind down just after a graceful
#: stop returns; leftovers are only reported once this grace expires.
_GRACE_SECONDS = 5.0


def _segments():
    return set(os.listdir(_SHM)) if os.path.isdir(_SHM) else set()


def _leftovers(shm_before, children_before):
    threads = sorted(t.name for t in threading.enumerate()
                     if t.name.startswith("repro-") and t.is_alive())
    children = sorted(p.name for p in multiprocessing.active_children()
                      if p.pid not in children_before)
    segments = sorted(_segments() - shm_before)
    return {name: found for name, found in (
        ("threads", threads), ("child processes", children),
        ("/dev/shm segments", segments)) if found}


@pytest.fixture(autouse=True)
def no_leaked_service_resources():
    shm_before = _segments()
    children_before = {p.pid for p in multiprocessing.active_children()}
    yield
    deadline = time.monotonic() + _GRACE_SECONDS
    leftovers = _leftovers(shm_before, children_before)
    while leftovers and time.monotonic() < deadline:
        time.sleep(0.05)
        leftovers = _leftovers(shm_before, children_before)
    assert not leftovers, f"test leaked {leftovers}"

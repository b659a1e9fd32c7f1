"""Blocking client for the scan daemon.

A thin synchronous wrapper over one TCP connection: build a frame, send
it, read exactly one response frame.  Stdlib-only (socket + the framing
module), so scripts, tests and the CI smoke job can drive a daemon
without importing numpy or the engines.

Every reply carries the dictionary ``generation`` that served it — the
client surfaces it on each result so callers can correlate responses
with hot reloads.
"""

from __future__ import annotations

import itertools
import socket
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from .protocol import (Frame, ProtocolError, _PREFIX, encode_frame,
                       encode_patterns, split_body)

__all__ = ["ServiceClient", "ServiceError", "ScanResult", "FlowResult",
           "ReloadReply"]


class ServiceError(Exception):
    """A transport failure or an error response from the daemon.

    ``code`` carries the daemon's error code (``busy``, ``timeout``,
    ``draining``, ``flow-error``, ``bad-request``, ...) when the error
    came from a response frame.
    """

    def __init__(self, message: str, code: str = "client") -> None:
        super().__init__(message)
        self.code = code


@dataclass
class ScanResult:
    """One SCAN response."""

    matches: int
    bytes_scanned: int
    generation: int
    backend: str
    workers: int
    seconds: float
    events: Optional[List[Tuple[int, int]]] = None
    events_truncated: int = 0


@dataclass
class FlowResult:
    """One FLOW response."""

    matches: int          # new matches from this packet
    flow_total: int       # lifetime matches of the flow
    generation: int
    seconds: float
    #: Policy verdict for tenant-scoped flows (``forward`` = no rule
    #: fired; tenant-less flows always forward).
    action: str = "forward"
    #: Rule that determined ``action`` (None = none fired).
    rule: Optional[str] = None
    #: Rules newly triggered by this packet.
    triggered: List[str] = field(default_factory=list)


@dataclass
class ReloadReply:
    """One RELOAD response."""

    generation: int
    seconds: float
    warm: bool
    patterns: int
    slices: int
    states: int
    flows_carried: int
    raw: Dict[str, object] = field(default_factory=dict, repr=False)


class ServiceClient:
    """One connection to a :class:`~repro.service.daemon.ScanService`."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._ids = itertools.count(1)
        self._sock: Optional[socket.socket] = socket.create_connection(
            (host, port), timeout=timeout)

    # -- transport -----------------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _recv_exact(self, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(remaining)
            if not chunk:
                raise ServiceError("connection closed by the daemon",
                                   code="closed")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def request(self, header: Dict[str, object],
                payload: bytes = b"") -> Frame:
        """Send one frame, read one response frame; raises
        :class:`ServiceError` on transport failure or an error reply."""
        if self._sock is None:
            raise ServiceError("client is closed", code="closed")
        rid = next(self._ids)
        header = dict(header, id=rid)
        try:
            self._sock.sendall(encode_frame(header, payload))
            frame_len = _PREFIX.unpack(self._recv_exact(4))[0]
            frame = split_body(self._recv_exact(frame_len))
        except (OSError, ProtocolError) as exc:
            raise ServiceError(str(exc), code="transport") from exc
        if frame.header.get("id") not in (rid, None):
            raise ServiceError(
                f"response id {frame.header.get('id')} does not match "
                f"request id {rid}", code="transport")
        if not frame.ok:
            raise ServiceError(
                str(frame.header.get("error", "unknown error")),
                code=str(frame.header.get("code", "error")))
        return frame

    # -- verbs ---------------------------------------------------------------------

    def ping(self) -> int:
        """Liveness probe; returns the active dictionary generation."""
        return int(self.request({"verb": "PING"}).header["generation"])

    def scan(self, data: Union[str, bytes], backend: Optional[str] = None,
             events: bool = False,
             tenant: Optional[str] = None) -> ScanResult:
        """One-shot stateless scan of ``data`` (optionally through a
        tenant's dictionary)."""
        raw = data.encode() if isinstance(data, str) else bytes(data)
        header: Dict[str, object] = {"verb": "SCAN"}
        if backend:
            header["backend"] = backend
        if events:
            header["events"] = True
        if tenant:
            header["tenant"] = tenant
        h = self.request(header, raw).header
        return ScanResult(
            matches=int(h["matches"]),
            bytes_scanned=int(h["bytes"]),
            generation=int(h["generation"]),
            backend=str(h.get("backend", "")),
            workers=int(h.get("workers", 1)),
            seconds=float(h.get("seconds", 0.0)),
            events=[(int(e[0]), int(e[1])) for e in h["events"]]
            if "events" in h else None,
            events_truncated=int(h.get("events_truncated", 0)))

    def scan_packet(self, flow_id: Union[str, int],
                    payload: Union[str, bytes],
                    tenant: Optional[str] = None) -> FlowResult:
        """Sessioned scan: ``payload`` continues flow ``flow_id``'s
        byte stream (matches may span packet boundaries).  With
        ``tenant``, the packet is judged by the tenant's policy and the
        result carries the verdict."""
        raw = payload.encode() if isinstance(payload, str) \
            else bytes(payload)
        header: Dict[str, object] = {"verb": "FLOW", "flow": flow_id}
        if tenant:
            header["tenant"] = tenant
        h = self.request(header, raw).header
        return FlowResult(
            matches=int(h["matches"]),
            flow_total=int(h["flow_total"]),
            generation=int(h["generation"]),
            seconds=float(h.get("seconds", 0.0)),
            action=str(h.get("action", "forward")),
            rule=h.get("rule"),
            triggered=list(h.get("triggered", [])))

    def close_flow(self, flow_id: Union[str, int],
                   tenant: Optional[str] = None) -> Tuple[int, int]:
        """Evict one flow; returns its lifetime ``(bytes, matches)``."""
        header: Dict[str, object] = {"verb": "CLOSE_FLOW",
                                     "flow": flow_id}
        if tenant:
            header["tenant"] = tenant
        h = self.request(header).header
        return int(h["bytes_seen"]), int(h["matches"])

    def reload(self, patterns: Iterable, regex: bool = False,
               tenant: Optional[str] = None) -> ReloadReply:
        """Hot-swap the daemon's dictionary (or one tenant's); returns
        the new generation."""
        payload = encode_patterns(list(patterns))
        header: Dict[str, object] = {"verb": "RELOAD", "regex": regex}
        if tenant:
            header["tenant"] = tenant
        h = self.request(header, payload).header
        return ReloadReply(
            generation=int(h["generation"]),
            seconds=float(h["seconds"]),
            warm=bool(h["warm"]),
            patterns=int(h["patterns"]),
            slices=int(h["slices"]),
            states=int(h["states"]),
            flows_carried=int(h["flows_carried"]),
            raw=dict(h))

    # -- tenants & policy ----------------------------------------------------------

    def tenant_create(self, name: str, patterns: Iterable,
                      rules: Optional[List[Dict[str, object]]] = None,
                      mode: str = "first-match",
                      regex: bool = False) -> Dict[str, object]:
        """Register a tenant with its own dictionary and (optional)
        ruleset; returns the creation reply header."""
        header: Dict[str, object] = {"verb": "TENANT", "op": "create",
                                     "name": name, "regex": regex}
        if rules:
            header["rules"] = list(rules)
            header["mode"] = mode
        payload = encode_patterns(list(patterns))
        return dict(self.request(header, payload).header)

    def tenant_delete(self, name: str) -> None:
        self.request({"verb": "TENANT", "op": "delete", "name": name})

    def tenants(self) -> List[str]:
        h = self.request({"verb": "TENANT", "op": "list"}).header
        return list(h.get("tenants", []))

    def tenant_info(self, name: str) -> Dict[str, object]:
        h = self.request({"verb": "TENANT", "op": "info",
                          "name": name}).header
        return dict(h.get("info", {}))

    def set_policy(self, tenant: str,
                   rules: List[Dict[str, object]],
                   mode: str = "first-match") -> int:
        """Hot-swap a tenant's ruleset; returns the policy generation."""
        h = self.request({"verb": "POLICY", "op": "set",
                          "tenant": tenant, "rules": list(rules),
                          "mode": mode}).header
        return int(h["policy_generation"])

    def policy(self, tenant: str) -> Dict[str, object]:
        """The tenant's active ruleset (specs + mode + generation)."""
        return dict(self.request({"verb": "POLICY", "op": "get",
                                  "tenant": tenant}).header)

    def stats(self) -> Dict[str, object]:
        """The daemon's metrics snapshot plus registry state."""
        return dict(self.request({"verb": "STATS"}).header)

    def shutdown(self) -> None:
        """Ask the daemon to drain and stop."""
        self.request({"verb": "SHUTDOWN"})
        self.close()

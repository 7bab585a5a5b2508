"""A cache tier on the other end of a ``repro-serve`` socket.

:class:`RemoteTier` speaks three small request/reply frame pairs over the
same length-prefixed pickle protocol the network transport uses
(:mod:`repro.serve.protocol`): ``cache_get`` -> ``cache_payload``,
``cache_put`` -> ``cache_ack`` and ``cache_stats`` -> ``cache_stats``.  The
server answers them against its own local tier, so N machines share one
cache without sharing a filesystem.

Failure is always a *miss, never a crash*: the tier keeps one lazy
connection, and any socket error mid-request drops it and retries exactly
once on a fresh connection — which is what lets a client survive a server
restart mid-lookup.  If the retry also fails, ``get``/``peek`` return
``None`` (the job recomputes) and ``put`` reports ``False`` (the other
tiers of a stack still hold the payload).  A degraded remote tier
therefore costs recompute time, never correctness — the same contract local
eviction already has.
"""

from __future__ import annotations

import socket
import threading
import uuid
from typing import Any

from repro.engine.cache.base import CacheStats
from repro.exceptions import EngineError
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Seconds allowed for connect + handshake and for each request round trip.
DEFAULT_TIMEOUT = 30.0


class RemoteTier:
    """Read-through / write-through cache client for one ``repro-serve``.

    Parameters
    ----------
    host, port:
        The ``repro-serve`` endpoint answering cache frames.
    timeout:
        Per-request socket timeout in seconds; a request that cannot finish
        within it counts as a miss.
    """

    def __init__(self, host: str, port: int, timeout: float = DEFAULT_TIMEOUT):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.client_id = f"cache-{uuid.uuid4().hex[:12]}"
        self.stats = CacheStats()
        self.server_id: str | None = None
        self._sock: socket.socket | None = None
        self._lock = threading.Lock()
        self._degraded = False  # only warn once per outage, not once per key

    # -- wire plumbing ------------------------------------------------------------------

    def _connect(self) -> socket.socket:
        # Lazy protocol import: repro.serve.server imports this package, so a
        # module-level import here would be a cycle.
        from repro.serve.protocol import connect

        sock, welcome = connect(self.host, self.port, self.client_id, self.timeout)
        self.server_id = welcome.get("server_id")
        return sock

    def _drop(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request(self, message: dict[str, Any], reply_type: str) -> dict[str, Any] | None:
        """One synchronous round trip; ``None`` when the server is unreachable.

        Any failure drops the cached connection and retries exactly once on a
        fresh one — a server restart between requests (or mid-request) costs
        one reconnect, not an exception.
        """
        from repro.serve.protocol import recv_message, send_message

        with self._lock:
            for attempt in (1, 2):
                try:
                    if self._sock is None:
                        self._sock = self._connect()
                    send_message(self._sock, message)
                    reply = recv_message(self._sock)
                except (OSError, EngineError) as exc:
                    self._drop()
                    if attempt == 1:
                        continue
                    if not self._degraded:
                        self._degraded = True
                        logger.warning(
                            "remote cache tier %s:%d unreachable (%s: %s); "
                            "treating lookups as misses until it returns",
                            self.host, self.port, type(exc).__name__, exc,
                        )
                    return None
                if reply.get("type") != reply_type:
                    # An unrelated frame means we are talking to a confused
                    # peer; drop the connection rather than desynchronise.
                    self._drop()
                    logger.warning(
                        "remote cache tier %s:%d answered %r to a %r request",
                        self.host, self.port, reply.get("type"), message.get("type"),
                    )
                    return None
                self._degraded = False
                return reply
        return None

    def close(self) -> None:
        """Drop the connection (the tier reconnects on the next request)."""
        with self._lock:
            self._drop()

    # -- the tier protocol --------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """The payload under ``key`` from the server's tier, or ``None``."""
        reply = self._request({"type": "cache_get", "key": key}, "cache_payload")
        payload = reply.get("payload") if reply else None
        if not isinstance(payload, dict) or payload.get("spec_hash") != key:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return payload

    def peek(self, key: str) -> dict[str, Any] | None:
        """Stat-neutral ``get``: no counters here, no recency refresh there."""
        reply = self._request({"type": "cache_get", "key": key, "peek": True}, "cache_payload")
        payload = reply.get("payload") if reply else None
        if not isinstance(payload, dict) or payload.get("spec_hash") != key:
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> bool:
        """Write ``payload`` through to the server's tier.

        Returns ``True`` only when the server acknowledged storing it — a
        dropped put is how a degraded remote tier reports itself, so callers
        can tell a lost write from a stored one.
        """
        reply = self._request({"type": "cache_put", "key": key, "payload": payload}, "cache_ack")
        if reply is None or not reply.get("stored"):
            return False
        self.stats.writes += 1
        return True

    def remote_stats(self) -> dict[str, Any] | None:
        """The *server-side* tier's stats dict, or ``None`` when unreachable."""
        reply = self._request({"type": "cache_stats"}, "cache_stats")
        return reply.get("stats") if reply else None

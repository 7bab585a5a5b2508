"""The ``network`` transport: submit jobs to a running ``repro-serve``.

The client half of :mod:`repro.serve`: one batch's specs travel to the
server as pickled ``job`` frames, spool-format result records stream back,
and the session loop sees the same ``(index, outcome | RemoteJobError)``
completions every other transport produces — so caching, journaling and
resume need no network awareness at all.

Three behaviours matter beyond the happy path:

* **Windowing.** The server's ``welcome`` frame advertises its per-client
  window (``repro-serve --max-inflight``), the server's only admission rule.
  The transport keeps at most that many jobs in flight and tops the window
  up, in submission order, as results land.  Every job it sends is
  accepted and queued, so no job ever waits on a retry or fails for
  waiting; a job over the window would be a protocol error.
* **Failures are completions, not hangs.**  A server that dies mid-batch
  surfaces as one :class:`RemoteJobError` *per outstanding job* — the batch
  finishes, the session journals the failures under ``on_error="isolate"``,
  and re-submitting its ``session_id`` against a restarted server re-runs
  exactly the jobs that never completed.  A server that is not running at submit time
  raises :class:`EngineError` immediately with the command to start one.
* **Bit-identity.**  Result records are the same
  :func:`~repro.engine.transports.base.execution_record` the file-queue
  workers publish, rebuilt through the same
  :func:`~repro.engine.transports.base.record_completion` — network runs
  are byte-identical to serial runs.

Like ``filequeue``, this transport is never auto-selected: it needs a
server address, so it is an explicit ``config.transport = "network"``
choice (with ``serve_host``/``serve_port`` naming the server).
"""

from __future__ import annotations

import os
import socket
import time
import uuid
from collections import deque
from typing import Any, Sequence

from repro.engine.transports.base import (
    Completion,
    RemoteJobError,
    Transport,
    record_completion,
    register_transport,
)
from repro.exceptions import EngineError
from repro.serve.protocol import FrameBuffer, ProtocolError, connect, send_message
from repro.utils.logging import get_logger

logger = get_logger(__name__)


class NetworkTransport(Transport):
    """Execute batches on a remote ``repro-serve``, one connection per batch."""

    name = "network"

    def __init__(
        self,
        host: str,
        port: int,
        client_id: str | None = None,
        connect_timeout: float = 10.0,
        poll_interval: float = 0.05,
    ):
        self.host = host
        self.port = int(port)
        self.client_id = client_id or f"client-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.connect_timeout = float(connect_timeout)
        self.poll_interval = max(0.005, float(poll_interval))
        self.server_id: str | None = None
        self._sock: socket.socket | None = None
        self._frames = FrameBuffer()
        self._specs: list[Any] = []
        self._unsent: deque[int] = deque()
        self._inflight: dict[int, Any] = {}
        self._window = 0  # the server's advertised cap, read from ``welcome``
        self._dead: str | None = None  # why the connection is unusable

    # -- submission ------------------------------------------------------------------

    def submit(self, specs: Sequence[Any]) -> int:
        self._start_batch()
        self._frames = FrameBuffer()
        self._dead = None
        self._specs = list(specs)
        try:
            self._sock, welcome = connect(
                self.host, self.port, self.client_id, self.connect_timeout
            )
        except OSError as exc:
            raise EngineError(
                f"cannot reach repro-serve at {self.host}:{self.port}: {exc}; "
                f"start one with: repro-serve --host {self.host} --port {self.port}"
            ) from exc
        self.server_id = welcome.get("server_id")
        self._window = int(welcome["max_inflight"])
        self._unsent = deque(range(len(self._specs)))
        self._pump()
        logger.info(
            "network batch: %d job(s) to %s at %s:%d (window %d)",
            len(self._specs), self.server_id, self.host, self.port, self._window,
        )
        return len(self._specs)

    def _pump(self) -> None:
        """Top the in-flight window up from the unsent queue, in order."""
        while self._unsent and len(self._inflight) < self._window and self._dead is None:
            index = self._unsent.popleft()
            try:
                send_message(self._sock, {
                    "type": "job", "index": index, "spec": self._specs[index],
                })
            except (OSError, ProtocolError) as exc:
                self._unsent.appendleft(index)
                self._mark_dead(f"cannot send job to server: {exc}")
                return
            self._inflight[index] = self._specs[index]

    # -- harvesting ------------------------------------------------------------------

    def poll(self, timeout: float | None = None) -> list[Completion]:
        if self.outstanding() == 0:
            return []
        if self._dead is not None:
            return self._fail_outstanding()
        deadline = None if timeout is None else time.monotonic() + timeout
        completions: list[Completion] = []
        while True:
            self._drain_frames(completions)
            if self._dead is not None:
                completions.extend(self._fail_outstanding())
                return completions
            if completions or self.outstanding() == 0:
                self._pump()
                if self.outstanding() == 0:
                    # Drained: release the connection now, not when the
                    # consumer closes the stream.
                    self.cancel()
                return completions
            slice_ = self.poll_interval
            if deadline is not None:
                slice_ = min(slice_, deadline - time.monotonic())
                if slice_ <= 0:
                    return completions
            self._sock.settimeout(max(0.005, slice_))
            try:
                data = self._sock.recv(1 << 20)
            except (socket.timeout, TimeoutError):
                continue
            except OSError as exc:
                self._mark_dead(f"connection error: {exc}")
                continue
            if not data:
                self._mark_dead("server closed the connection")
                continue
            self._frames.feed(data)

    def _drain_frames(self, completions: list[Completion]) -> None:
        while True:
            try:
                message = self._frames.next_message()
            except ProtocolError as exc:
                self._mark_dead(str(exc))
                return
            if message is None:
                return
            kind = message.get("type")
            if kind == "result":
                index = message.get("index")
                if index in self._inflight:
                    del self._inflight[index]
                    record = message.get("record") or {}
                    completions.append(record_completion(
                        index, record, record.get("server_id") or self.server_id
                    ))
            elif kind == "error":
                self._mark_dead(f"server reported a protocol error: {message.get('reason')}")
                return

    def _fail_outstanding(self) -> list[Completion]:
        """Resolve every outstanding job as a failure — never a hang.

        The session journals these as ``JobFailure`` records; resuming the
        session against a restarted server re-runs exactly these jobs.
        """
        reason = self._dead or "connection lost"
        completions = [
            (index, None, RemoteJobError(
                "ServerDisconnected",
                f"repro-serve at {self.host}:{self.port} became unreachable "
                f"with the job outstanding: {reason}",
                self.server_id,
            ))
            for index in sorted(set(self._inflight) | set(self._unsent))
        ]
        if completions:
            logger.warning(
                "network batch: lost repro-serve at %s:%d (%s); failing %d "
                "outstanding job(s) for resume",
                self.host, self.port, reason, len(completions),
            )
        self._inflight.clear()
        self._unsent.clear()
        return completions

    # -- lifecycle -------------------------------------------------------------------

    def outstanding(self) -> int:
        return len(self._inflight) + len(self._unsent)

    def cancel(self) -> None:
        if self._sock is not None and self._dead is None:
            try:
                send_message(self._sock, {"type": "bye"})
            except (OSError, ProtocolError):
                pass
        self._close_socket()
        self._inflight.clear()
        self._unsent.clear()

    def _mark_dead(self, reason: str) -> None:
        if self._dead is None:
            self._dead = reason
        self._close_socket()

    def _close_socket(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


def _build_network(config: Any, processes: int) -> NetworkTransport:
    """Factory for ``transport="network"``: server address from the config."""
    port = getattr(config, "serve_port", 0)
    if not port:
        raise EngineError(
            "transport 'network' needs a server address: set config.serve_port "
            "(and serve_host) to a running repro-serve"
        )
    return NetworkTransport(
        getattr(config, "serve_host", "127.0.0.1") or "127.0.0.1",
        port,
        poll_interval=getattr(config, "transport_poll_interval", 0.05) or 0.05,
    )


register_transport("network", _build_network)

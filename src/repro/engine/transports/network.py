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
  exactly the jobs that never completed.  A server that is not running
  when the batch starts raises :class:`EngineError` immediately with the
  command to start one.
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

import contextlib
import os
import uuid
from collections import deque
from typing import Any, Generator

from repro.engine.transports.base import (
    Completion,
    RemoteJobError,
    Transport,
    record_completion,
)
from repro.exceptions import EngineError
from repro.serve.protocol import ProtocolError, connect, recv_message, send_message
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
    ):
        self.host = host
        self.port = int(port)
        self.client_id = client_id or f"client-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.connect_timeout = float(connect_timeout)

    def run(self, specs: list[Any]) -> Generator[Completion, None, None]:
        try:
            sock, welcome = connect(self.host, self.port, self.client_id, self.connect_timeout)
        except OSError as exc:
            raise EngineError(
                f"cannot reach repro-serve at {self.host}:{self.port}: {exc}; "
                f"start one with: repro-serve --host {self.host} --port {self.port}"
            ) from exc
        server_id = welcome.get("server_id")
        unsent = deque(range(len(specs)))
        inflight: set[int] = set()
        tail: list[Completion] = []  # yielded once the connection is released
        try:
            window = int(welcome["max_inflight"])
            logger.info(
                "network batch: %d job(s) to %s at %s:%d (window %d)",
                len(specs), server_id, self.host, self.port, window,
            )
            # Block on the next frame however long a job runs: a silent
            # server is a busy one.  A dead one closes the connection.
            sock.settimeout(None)
            while unsent or inflight:
                # Top the window up, in submission order, before each read.
                while unsent and len(inflight) < window:
                    index = unsent[0]
                    send_message(sock, {"type": "job", "index": index, "spec": specs[index]})
                    inflight.add(unsent.popleft())
                message = recv_message(sock)
                if message.get("type") == "error":
                    raise ProtocolError(
                        f"server reported a protocol error: {message.get('reason')}"
                    )
                index = message.get("index")
                if message.get("type") == "result" and index in inflight:
                    inflight.remove(index)
                    record = message.get("record") or {}
                    completion = record_completion(
                        index, record, record.get("server_id") or server_id
                    )
                    if not (unsent or inflight):
                        # The last result: release the connection before
                        # handing it over, however long the consumer pauses.
                        tail = [completion]
                        break
                    yield completion
        except (OSError, ProtocolError) as exc:
            # Every outstanding job fails as a completion, never a hang: the
            # session journals them, and resuming it against a restarted
            # server re-runs exactly these jobs.
            lost = sorted(inflight | set(unsent))
            logger.warning(
                "network batch: lost repro-serve at %s:%d (%s); failing %d "
                "outstanding job(s) for resume",
                self.host, self.port, exc, len(lost),
            )
            tail = [
                (index, None, RemoteJobError(
                    "ServerDisconnected",
                    f"repro-serve at {self.host}:{self.port} became unreachable "
                    f"with the job outstanding: {exc}",
                    server_id,
                ))
                for index in lost
            ]
        finally:
            # A clean disconnect withdraws whatever is still in flight.
            with contextlib.suppress(OSError, ProtocolError):
                send_message(sock, {"type": "bye"})
            sock.close()
        yield from tail

"""``repro-serve``: the always-on network job service.

The file-queue fleet (PR 4–5) proved the engine's exactly-once story across
independent processes, but it needs a *shared filesystem* — the one thing a
service serving many remote clients cannot assume.  :class:`ReproServer` is
the socket equivalent of the spool directory: a long-running daemon that

* accepts length-prefixed job submissions (:mod:`repro.serve.protocol`) from
  many concurrent client sessions,
* multiplexes them onto **one shared worker pool** (a process pool with the
  same registry replication the local pool transport uses, or
  in-process threads for ``workers=0``) and **one shared**
  :class:`~repro.engine.cache.LocalDirTier` — a job any client ever completed
  is served to every later client without re-execution,
* applies one **admission rule**: at most ``max_inflight`` jobs in flight
  per client (the window advertised in ``welcome``; a job over it is a
  protocol error), while every admitted job queues in arrival order, and
* streams one ``result`` frame per job back to its submitting client as it
  completes, in completion order.

The submitting side is ``PipelineConfig.transport = "network"``
(:class:`~repro.engine.transports.network.NetworkTransport`); the session /
journal / resume semantics are untouched because the transport speaks the
same ``(index, outcome | RemoteJobError)`` completion language as every
other transport.  Jobs execute through the same
:func:`~repro.engine.transports.base.execution_record` the file-queue
workers use, so network results are bit-identical to file-queue (and
serial) results.

Threading model: one acceptor thread; per connection one reader thread
(frames in) and one sender thread (frames out, decoupled by a queue so a
stalled client can never block another client's completions); the shared
executor pool completes jobs and hands records back through per-future
callbacks.  All counters live behind one server lock.
"""

from __future__ import annotations

import json
import os
import queue
import socket
import threading
import uuid
from pathlib import Path
from typing import Any, Callable

from repro.engine.cache import LocalDirTier
from repro.engine.registry import pool_initializer
from repro.engine.transports.base import execution_record
from repro.exceptions import EngineError
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.utils.io import _NumpyJSONEncoder
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Default per-client in-flight job cap (the admission-control window a
#: server advertises in its ``welcome`` frame).
DEFAULT_MAX_INFLIGHT = 32


def _execute(spec: Any) -> Any:
    # Late import: registers the built-in job kinds in pool workers too.
    from repro.engine.core import execute_job

    return execute_job(spec)


class _ClientConnection:
    """One connected client: a reader thread, a sender thread, a job window."""

    def __init__(self, server: "ReproServer", sock: socket.socket, address: Any):
        self.server = server
        self.sock = sock
        self.address = address
        self.client_id = f"{address[0]}:{address[1]}" if isinstance(address, tuple) else str(address)
        #: Jobs accepted from this client and not yet finished (server lock).
        self.inflight = 0
        #: index -> Future for jobs still in the pool (server lock).
        self.futures: dict[int, Any] = {}
        self.closed = threading.Event()
        self._outbox: queue.Queue = queue.Queue()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"serve-read-{self.client_id}", daemon=True
        )
        self._sender = threading.Thread(
            target=self._send_loop, name=f"serve-send-{self.client_id}", daemon=True
        )

    def start(self) -> None:
        self._sender.start()
        self._reader.start()

    def send(self, message: dict[str, Any]) -> None:
        """Enqueue one outbound frame (never blocks the caller)."""
        self._outbox.put(message)

    def _send_loop(self) -> None:
        while True:
            message = self._outbox.get()
            if message is None:
                return
            try:
                send_message(self.sock, message)
            except (OSError, ProtocolError):
                self.close()
                return

    def _read_loop(self) -> None:
        try:
            if not self._handshake():
                return
            while not self.closed.is_set():
                message = recv_message(self.sock)
                kind = message.get("type")
                if kind == "job":
                    self.server._accept_job(self, message)
                elif kind in ("cache_get", "cache_put", "cache_stats"):
                    self.server._handle_cache(self, message)
                elif kind == "bye":
                    return
                else:
                    self.send({"type": "error", "reason": f"unexpected frame {kind!r}"})
                    return
        except (ConnectionError, OSError):
            pass  # client went away; cleanup below
        except ProtocolError as exc:
            self.send({"type": "error", "reason": str(exc)})
        finally:
            self.close()

    def _handshake(self) -> bool:
        hello = recv_message(self.sock)
        if hello.get("type") != "hello":
            self.send({"type": "error", "reason": "expected a hello frame"})
            return False
        if hello.get("protocol") != PROTOCOL_VERSION:
            self.send({
                "type": "error",
                "reason": (
                    f"protocol version mismatch: client speaks "
                    f"{hello.get('protocol')!r}, server speaks {PROTOCOL_VERSION}"
                ),
            })
            return False
        client_id = hello.get("client_id")
        if client_id:
            self.client_id = str(client_id)
        with self.server._lock:  # a probe that never says hello is no client
            self.server.clients_served += 1
        self.send({
            "type": "welcome",
            "protocol": PROTOCOL_VERSION,
            "server_id": self.server.server_id,
            "max_inflight": self.server.max_inflight,
        })
        logger.info("serve %s: client %s connected", self.server.server_id, self.client_id)
        return True

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        self.server._forget_client(self)
        self._outbox.put(None)  # stop the sender (if idle in get())
        if threading.current_thread() is not self._sender and self._sender.is_alive():
            # Let already-queued frames (a final error/result) reach the wire
            # before the socket goes away; a stalled client forfeits them.
            self._sender.join(timeout=1.0)
        for how in (lambda: self.sock.shutdown(socket.SHUT_RDWR), self.sock.close):
            try:
                how()
            except OSError:
                pass


class ReproServer:
    """The always-on job service; see the module docstring for the contract.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` binds an ephemeral port (read the chosen
        one back from :attr:`port` after :meth:`start` — handy in tests).
    workers:
        Size of the shared execution pool.  ``> 0`` builds a process pool
        with the parent's backend/executor registries replicated into every
        worker (exactly like the local ``pool`` transport); ``0`` executes
        in-process on a small thread pool — no isolation or parallel
        speed-up, but runtime registrations (test doubles, injected
        executors) stay visible.
    max_inflight:
        Per-client admission window, advertised in the ``welcome`` frame.
        It is the server's only admission rule.
    cache:
        The shared :class:`LocalDirTier` (instance, directory path, or
        ``None`` to serve without one).
    execute:
        Injectable job executor (tests); defaults to the engine's
        :func:`~repro.engine.core.execute_job`.  Must be picklable when
        ``workers > 0``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 0,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        cache: LocalDirTier | str | Path | None = None,
        execute: Callable[[Any], Any] | None = None,
    ):
        self.host = host
        self.port = int(port)
        self.workers = max(0, int(workers))
        self.max_inflight = max(1, int(max_inflight))
        if isinstance(cache, (str, Path)):
            cache = LocalDirTier(cache)
        self.cache = cache
        self._execute = execute or _execute
        self.server_id = f"serve-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._lock = threading.Lock()
        self._clients: set[_ClientConnection] = set()
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._pool: Any = None
        self._shutdown = threading.Event()
        self.clients_served = 0
        self.jobs_accepted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.cache_hits = 0
        self.cache_gets = 0
        self.cache_puts = 0

    # -- lifecycle -------------------------------------------------------------------

    def start(self) -> "ReproServer":
        """Bind, build the shared pool, and start accepting clients."""
        if self._listener is not None:
            raise EngineError("repro-serve was already started")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, self.port))
        except OSError as exc:
            listener.close()
            raise EngineError(
                f"repro-serve cannot bind {self.host}:{self.port}: {exc}"
            ) from exc
        listener.listen(128)
        # A blocked accept() is not reliably woken by close() from another
        # thread; a short timeout lets the accept loop notice shutdown.
        listener.settimeout(0.2)
        self.port = listener.getsockname()[1]
        self._listener = listener
        self._pool = self._build_pool()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        self._accept_thread.start()
        logger.info(
            "repro-serve %s: listening on %s:%d (%s, max %d in flight per client)",
            self.server_id, self.host, self.port,
            f"{self.workers} worker processes" if self.workers else "in-process execution",
            self.max_inflight,
        )
        return self

    def _build_pool(self) -> Any:
        if self.workers <= 0:
            from concurrent.futures import ThreadPoolExecutor

            return ThreadPoolExecutor(max_workers=4, thread_name_prefix="serve-exec")
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.workers,
            # Spawned (not forked) workers: fork would copy the listening
            # socket and every connected client fd into each worker as it is
            # lazily created, so a SIGKILLed server would leave orphans
            # holding the port (EADDRINUSE on restart, and a listen queue
            # nobody accepts from) and half-open client connections that
            # never see EOF.
            mp_context=multiprocessing.get_context("spawn"),
            **pool_initializer(),
        )

    def serve_forever(self) -> None:
        """Block until :meth:`shutdown` (the CLI's main loop)."""
        if self._listener is None:
            self.start()
        self._shutdown.wait()

    def shutdown(self) -> None:
        """Stop accepting, disconnect every client, tear the pool down."""
        if self._shutdown.is_set():
            return
        self._shutdown.set()
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        with self._lock:
            clients = list(self._clients)
        for conn in clients:
            conn.close()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        logger.info("repro-serve %s: shut down (%s)", self.server_id, self.stats())

    def __enter__(self) -> "ReproServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.shutdown()

    # -- the accept loop -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                sock, address = self._listener.accept()
            except (socket.timeout, TimeoutError):
                continue
            except OSError:
                return  # listener closed by shutdown()
            try:
                sock.settimeout(None)  # accepted sockets block; frames are small
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
            conn = _ClientConnection(self, sock, address)
            with self._lock:
                self._clients.add(conn)
            conn.start()

    def _forget_client(self, conn: _ClientConnection) -> None:
        """Disconnect cleanup: withdraw whatever has not started executing."""
        with self._lock:
            self._clients.discard(conn)
            futures = list(conn.futures.values())
        for future in futures:
            # Cancels queued-but-unstarted jobs; running ones finish (their
            # callbacks find the connection closed and only settle counters).
            future.cancel()

    # -- job intake and completion ---------------------------------------------------

    def _accept_job(self, conn: _ClientConnection, message: dict[str, Any]) -> None:
        index = message.get("index")
        if not isinstance(index, int):
            raise ProtocolError(f"job frame without an integer index: {index!r}")
        spec = message.get("spec")
        with self._lock:
            if conn.inflight >= self.max_inflight:
                # ``welcome`` told the client its window: overrunning it is a
                # protocol violation, not a reason to queue or retry.
                raise ProtocolError(
                    f"client window overrun: job {index} sent with {conn.inflight} "
                    f"jobs in flight (max {self.max_inflight} per client)"
                )
            conn.inflight += 1
            self.jobs_accepted += 1
        try:
            key = spec.content_hash()
        except Exception:
            # A poison spec skips the lookup; execution_record turns it into
            # a failed result, so it never takes the service down.
            key = None
        kind = getattr(spec, "kind", "fold")
        if self.cache is not None and key is not None:
            payload = self.cache.get(key)
            if payload is not None:
                with self._lock:
                    self.cache_hits += 1
                self._finish(conn, index, {
                    "status": "completed", "payload": payload, "spec_hash": key, "kind": kind,
                })
                return
        try:
            future = self._pool.submit(execution_record, spec, self._execute)
        except RuntimeError as exc:  # pool already shut down
            self._finish(conn, index, {
                "status": "failed", "error_type": "EngineError",
                "error_message": f"server is shutting down: {exc}",
                "spec_hash": key, "kind": kind,
            })
            return
        with self._lock:
            conn.futures[index] = future
        future.add_done_callback(
            lambda f, conn=conn, index=index, key=key, kind=kind:
                self._on_done(conn, index, key, kind, f)
        )

    def _handle_cache(self, conn: _ClientConnection, message: dict[str, Any]) -> None:
        """Serve one :class:`~repro.engine.cache.RemoteTier` request.

        The server's local tier doubles as a shared cache tier for remote
        clients and file-queue workers: ``cache_get`` reads through it,
        ``cache_put`` writes through it (after the same canonical JSON
        normalisation job results get), ``cache_stats`` reports it.  Replies
        ride the per-connection outbox, so they interleave safely with
        concurrent ``result`` frames.
        """
        kind = message.get("type")
        if kind == "cache_stats":
            with self._lock:
                self.cache_gets += 1
            stats = None
            if self.cache is not None:
                entries = self.cache.entries()
                stats = {
                    "root": str(getattr(self.cache, "root", "")),
                    "entries": len(entries),
                    "total_bytes": sum(e.size_bytes for e in entries),
                    **self.cache.stats.as_dict(),
                }
            conn.send({"type": "cache_stats", "stats": stats})
            return
        key = message.get("key")
        if not isinstance(key, str) or not key:
            raise ProtocolError(f"{kind} frame without a string key: {key!r}")
        if kind == "cache_get":
            with self._lock:
                self.cache_gets += 1
            payload = None
            if self.cache is not None:
                payload = self.cache.peek(key) if message.get("peek") else self.cache.get(key)
            conn.send({"type": "cache_payload", "key": key, "payload": payload})
            return
        stored = False
        if self.cache is not None:
            try:
                payload = message.get("payload")
                if not isinstance(payload, dict):
                    raise ProtocolError(f"cache_put payload must be a dict, got {type(payload).__name__}")
                # Same canonical encoding job results get on their way into
                # the cache, so a payload written by a remote worker is
                # byte-identical to one the server computed itself.
                payload = json.loads(json.dumps(payload, sort_keys=True, cls=_NumpyJSONEncoder))
                self.cache.put(key, payload)
                stored = True
            except Exception as exc:
                logger.warning(
                    "serve %s: cannot store remote cache_put %s: %s",
                    self.server_id, key[:16], exc,
                )
        with self._lock:
            self.cache_puts += 1
        conn.send({"type": "cache_ack", "key": key, "stored": stored})

    def _on_done(
        self, conn: _ClientConnection, index: int, key: str | None, kind: str | None,
        future: Any,
    ) -> None:
        with self._lock:
            conn.futures.pop(index, None)
        if future.cancelled():
            record = {
                "status": "failed", "error_type": "CancelledError",
                "error_message": "job cancelled before execution "
                                 "(client disconnected or server shutting down)",
                "spec_hash": key, "kind": kind,
            }
        elif future.exception() is not None:
            # Only a broken pool lands here: execution_record never raises.
            exc = future.exception()
            record = {
                "status": "failed", "error_type": type(exc).__name__,
                "error_message": str(exc), "spec_hash": key, "kind": kind,
            }
        else:
            record = future.result()
            if record["status"] == "completed" and self.cache is not None:
                try:
                    self.cache.put(record["spec_hash"], record["payload"])
                except Exception as exc:
                    logger.warning(
                        "serve %s: cannot cache result %s: %s",
                        self.server_id, record["spec_hash"][:16], exc,
                    )
        self._finish(conn, index, record)

    def _finish(self, conn: _ClientConnection, index: int, record: dict[str, Any]) -> None:
        """Settle one accepted job: count it and deliver its record."""
        record = dict(record, server_id=self.server_id)
        with self._lock:
            conn.inflight -= 1
            if record["status"] == "completed":
                self.jobs_completed += 1
            else:
                self.jobs_failed += 1
        if not conn.closed.is_set():
            conn.send({"type": "result", "index": index, "record": record})

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Service-level counters (logs, tests, the CLI's exit summary)."""
        with self._lock:
            return {
                "server_id": self.server_id,
                "clients_served": self.clients_served,
                "jobs_accepted": self.jobs_accepted,
                "jobs_completed": self.jobs_completed,
                "jobs_failed": self.jobs_failed,
                "cache_hits": self.cache_hits,
                "cache_gets": self.cache_gets,
                "cache_puts": self.cache_puts,
                "pending": self.jobs_accepted - self.jobs_completed - self.jobs_failed,
            }

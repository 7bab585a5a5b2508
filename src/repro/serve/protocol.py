"""The ``repro-serve`` wire protocol: length-prefixed pickled frames.

The network transport needs exactly what the file-queue spool provides —
submit job specs, stream ``(index, outcome)`` completions back — minus the
shared filesystem.  The wire format mirrors the spool's file format:

* every message is one **frame**: a 4-byte big-endian length prefix followed
  by a pickled ``dict`` (specs are arbitrary registered classes, so the
  envelope travels as a pickle, exactly like a ``tasks/<id>.task`` file);
* **result records** inside those frames are first round-tripped through the
  same canonical JSON encoding the spool's ``results/<id>.json`` files use
  (``sort_keys``, :class:`~repro.utils.io._NumpyJSONEncoder`), so a client
  rebuilds byte-identical payloads whether a job travelled over a socket or
  a spool directory.

Client and server read frames with the one blocking :func:`recv_message`:
it refuses a length prefix over :data:`MAX_FRAME_BYTES` before allocating
and a body that does not decode to a message dict.

Like spool pickles, frames are **trusted local state**: bind ``repro-serve``
to localhost or a private network you control — never expose it to clients
you would not let write your spool directory.

Message types
-------------

================= =========== ==================================================
frame             direction   fields
================= =========== ==================================================
``hello``          c -> s     ``client_id``, ``protocol``
``welcome``        s -> c     ``protocol``, ``server_id``, ``max_inflight``
``job``            c -> s     ``index``, ``spec`` (pickled spec object)
``result``         s -> c     ``index``, ``record`` (spool-format result record)
``error``          s -> c     ``reason`` (protocol violation; connection closes)
``bye``            c -> s     clean disconnect (submitter walked away)
``cache_get``      c -> s     ``key``, optional ``peek`` (stat-neutral lookup)
``cache_payload``  s -> c     ``key``, ``payload`` (``None`` on a miss)
``cache_put``      c -> s     ``key``, ``payload`` (canonical-JSON result payload)
``cache_ack``      s -> c     ``key``, ``stored`` (``False`` = dropped, retry elsewhere)
``cache_stats``    c <-> s    request has no fields; reply carries ``stats``
================= =========== ==================================================

The ``cache_*`` frames are how a
:class:`~repro.engine.cache.RemoteTier` reads and writes the server's local
cache tier — the request/reply pairs share one connection with job traffic
and are answered in arrival order through the same per-connection outbox.
"""

from __future__ import annotations

import pickle
import socket
import struct
from typing import Any

from repro.exceptions import EngineError

#: Protocol version spoken by this build; ``hello``/``welcome`` must agree.
#: Version 1 also had an admission-rejection frame, which version 2 clients
#: never read (the per-client window is the only admission rule).
PROTOCOL_VERSION = 2

#: Hard cap on a single frame.  A job spec or result record larger than this
#: is almost certainly a bug (the cache payloads these mirror are a few MB at
#: most); the cap keeps a corrupt or hostile length prefix from allocating
#: unbounded memory.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class ProtocolError(EngineError):
    """The peer sent bytes that are not a well-formed protocol frame."""


def encode_frame(message: dict[str, Any]) -> bytes:
    """One wire frame: length prefix + pickled message dict."""
    body = pickle.dumps(message)
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
        )
    return _LENGTH.pack(len(body)) + body


def send_message(sock: socket.socket, message: dict[str, Any]) -> None:
    """Write one frame (the caller serialises concurrent senders)."""
    sock.sendall(encode_frame(message))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    """Read exactly ``n`` bytes or raise ``ConnectionError`` on EOF."""
    chunks: list[bytes] = []
    remaining = n
    while remaining > 0:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> dict[str, Any]:
    """Read one frame, blocking until it is complete.

    Raises ``ConnectionError`` on EOF and :class:`ProtocolError` on a frame
    that is oversized or does not decode to a message dict.
    """
    (length,) = _LENGTH.unpack(_recv_exact(sock, _LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"peer announced a {length}-byte frame (cap {MAX_FRAME_BYTES})"
        )
    body = _recv_exact(sock, length)
    try:
        message = pickle.loads(body)
    except Exception as exc:
        raise ProtocolError(f"cannot decode frame: {type(exc).__name__}: {exc}") from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError(f"frame is not a message dict: {type(message).__name__}")
    return message


def connect(
    host: str, port: int, client_id: str, timeout: float
) -> tuple[socket.socket, dict[str, Any]]:
    """Open a client connection to ``repro-serve`` and complete the handshake.

    Returns the connected socket (``TCP_NODELAY`` set, ``timeout`` applied)
    and the server's ``welcome`` frame.  An unreachable server raises
    ``OSError``; a server that answers ``hello`` with an ``error`` frame, any
    other frame, or a different protocol version raises :class:`EngineError`
    naming the reason.  The socket is closed on any failure.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        send_message(sock, {"type": "hello", "client_id": client_id, "protocol": PROTOCOL_VERSION})
        welcome = recv_message(sock)
        if welcome.get("type") == "error":
            raise EngineError(
                f"repro-serve at {host}:{port} rejected the connection: {welcome.get('reason')}"
            )
        if welcome.get("type") != "welcome":
            raise ProtocolError(f"expected a welcome frame, got {welcome.get('type')!r}")
        if welcome.get("protocol") != PROTOCOL_VERSION:
            raise EngineError(
                f"repro-serve at {host}:{port} speaks protocol {welcome.get('protocol')!r}, "
                f"this client speaks {PROTOCOL_VERSION}"
            )
    except BaseException:
        sock.close()
        raise
    return sock, welcome


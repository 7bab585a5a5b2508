"""``repro-serve``: the always-on network job service.

:class:`ReproServer` accepts job submissions over a socket (no shared
filesystem), multiplexes many concurrent client sessions onto one shared
worker pool and one shared result cache, and streams spool-format result
records back per client.  The submitting side is
``PipelineConfig.transport = "network"``.  Wire format in
:mod:`repro.serve.protocol`; service semantics in :mod:`repro.serve.server`.
"""

from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    connect,
    encode_frame,
    recv_message,
    send_message,
)
from repro.serve.server import DEFAULT_MAX_INFLIGHT, ReproServer

__all__ = [
    "DEFAULT_MAX_INFLIGHT",
    "MAX_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ReproServer",
    "connect",
    "encode_frame",
    "recv_message",
    "send_message",
]

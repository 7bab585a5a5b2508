"""Pluggable executor transports: *where* engine jobs run.

The session loop streams ``(spec, outcome)`` pairs identically over any
registered transport; the transport only decides where the executors run:

* ``serial`` — in the calling process, one job at a time (the reference);
* ``pool`` — a local process pool, completions in completion order;
* ``filequeue`` — a fleet of independent ``repro-worker`` daemons
  coordinating over a shared spool directory with atomic-rename leases,
  heartbeats and stale-lease reclamation (see
  :mod:`repro.engine.transports.filequeue`);
* ``network`` — a running ``repro-serve`` daemon reached over a socket (no
  shared filesystem), which multiplexes many client sessions onto one
  shared worker pool and result cache (see
  :mod:`repro.engine.transports.network` and :mod:`repro.serve`).

Select one with ``PipelineConfig.transport`` (default ``"auto"``: serial for
``processes <= 1``, pool otherwise).  Determinism is transport-independent —
a job's result depends only on its spec, so every transport produces
bit-identical results.
"""

from repro.engine.transports.base import (
    Completion,
    RemoteJobError,
    Transport,
    make_transport,
    register_transport,
    transport_names,
)
from repro.engine.transports.filequeue import (
    DEFAULT_LEASE_TIMEOUT,
    FileQueueSpool,
    FileQueueTransport,
    FileQueueWorker,
)
from repro.engine.transports.local import PoolTransport, SerialTransport
from repro.engine.transports.network import NetworkTransport

__all__ = [
    "DEFAULT_LEASE_TIMEOUT",
    "Completion",
    "FileQueueSpool",
    "FileQueueTransport",
    "FileQueueWorker",
    "NetworkTransport",
    "PoolTransport",
    "RemoteJobError",
    "SerialTransport",
    "Transport",
    "make_transport",
    "register_transport",
    "transport_names",
]

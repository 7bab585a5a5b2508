"""Executor transports: *where* engine jobs run.

The session loop streams ``(spec, outcome)`` pairs identically over each of
the four transports; the transport only decides where the executors run:

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
``processes <= 1``, pool otherwise); :func:`make_transport` builds it.
Determinism is transport-independent — a job's result depends only on its
spec, so every transport produces bit-identical results.
"""

from __future__ import annotations

from typing import Callable

from repro.config import PipelineConfig
from repro.engine.transports.base import Completion, RemoteJobError, Transport
from repro.engine.transports.filequeue import (
    DEFAULT_LEASE_TIMEOUT,
    FileQueueSpool,
    FileQueueTransport,
    FileQueueWorker,
)
from repro.engine.transports.local import PoolTransport, SerialTransport
from repro.engine.transports.network import NetworkTransport
from repro.exceptions import EngineError

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
]


def _build_filequeue(config: PipelineConfig, processes: int) -> FileQueueTransport:
    if not config.spool_dir:
        raise EngineError(
            "transport 'filequeue' needs a spool directory: set config.spool_dir"
        )
    workers = config.transport_workers
    if workers is None:
        workers = max(0, int(processes))
    return FileQueueTransport(
        config.spool_dir,
        workers=workers,
        lease_timeout=config.transport_lease_timeout,
        poll_interval=config.transport_poll_interval,
    )


def _build_network(config: PipelineConfig, processes: int) -> NetworkTransport:
    if not config.serve_port:
        raise EngineError(
            "transport 'network' needs a server address: set config.serve_port "
            "(and serve_host) to a running repro-serve"
        )
    return NetworkTransport(config.serve_host, config.serve_port)


#: Transport name -> builder of a new transport from ``(config, processes)``.
_TRANSPORTS: dict[str, Callable[[PipelineConfig, int], Transport]] = {
    "serial": lambda config, processes: SerialTransport(),
    "pool": lambda config, processes: PoolTransport(processes=processes),
    "filequeue": _build_filequeue,
    "network": _build_network,
}


def make_transport(name: str | None, config: PipelineConfig, processes: int = 0) -> Transport:
    """Build a new transport (an engine keeps it for its lifetime).

    ``name`` of ``None`` or ``"auto"`` resolves from the worker count:
    ``processes <= 1`` executes serially, anything larger uses the process
    pool.  The two remote transports are never auto-selected: ``filequeue``
    needs a spool directory (its fleet is ``config.transport_workers``
    daemons it spawns, or workers started by hand), and ``network`` needs a
    running ``repro-serve``.
    """
    key = (name or config.transport or "auto").strip().lower()
    if key == "auto":
        key = "pool" if processes > 1 else "serial"
    build = _TRANSPORTS.get(key)
    if build is None:
        raise EngineError(
            f"unknown transport {key!r}; transports: auto, {', '.join(sorted(_TRANSPORTS))}"
        )
    return build(config, processes)

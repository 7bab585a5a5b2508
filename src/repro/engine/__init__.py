"""Job-oriented execution engine (typed jobs, registries, fan-out, result cache).

The single entry point for all expensive work — quantum folds, baseline
folds and docking searches are one typed job family::

    from repro.engine import Engine

    engine = Engine(config=PipelineConfig.fast(), cache="qdockbank_cache")
    jobs = [
        engine.spec("2bok", "EDACQGDSGG"),                  # kind="fold"
        engine.baseline_spec("2bok", "EDACQGDSGG", "AF2"),  # kind="baseline_fold"
    ]
    results = engine.run(jobs, processes=4)
    print(engine.stats())   # executed_by_kind, cache hit/miss counters

Long sweeps stream instead of blocking: ``engine.submit(jobs)`` returns a
:class:`~repro.engine.session.Session` yielding ``(spec, outcome)`` pairs as
they complete, with progress callbacks, journalled per-job status, isolated
:class:`~repro.engine.session.JobFailure` records and crash/interrupt resume.

Where jobs *run* is a pluggable executor transport
(``config.transport = "serial" | "pool" | "filequeue" | "network"``):
in-process, on a local process pool, across a fleet of independent
``repro-worker`` daemons coordinating over a shared spool directory, or on a
long-running ``repro-serve`` daemon reached over a socket — bit-identical
results on every transport.

See :mod:`repro.engine.core` for the execution model, :mod:`repro.engine.jobs`
for the job kinds and content hashing, :mod:`repro.engine.session` for
sessions/journals/resume, :mod:`repro.engine.registry` for named backends and
per-kind executors, :mod:`repro.engine.transports` for the transport layer,
:mod:`repro.engine.cache` for the persistent store (LRU-pruned on demand),
and :mod:`repro.cli.cache` / :mod:`repro.cli.session` /
:mod:`repro.cli.worker` for the ``repro-cache``, ``repro-session`` and
``repro-worker`` tools.
"""

from repro.engine.cache import (
    CacheEntry,
    CacheStats,
    CacheTier,
    LocalDirTier,
    RemoteTier,
    TieredCache,
    parse_tier_spec,
    resolve_cache,
)
from repro.engine.jobs import (
    BASELINE_SCHEMA_VERSION,
    DOCK_SCHEMA_VERSION,
    FOLD_SCHEMA_VERSION,
    JOB_KINDS,
    BaselineFoldSpec,
    DockJobResult,
    DockSpec,
    JobResult,
    JobSpec,
    config_fingerprint,
    result_from_payload,
)
from repro.engine.registry import (
    backend_names,
    executor_for,
    executor_kinds,
    make_backend,
    register_backend,
    register_executor,
)
from repro.engine.scheduler import (
    PendingTask,
    capabilities_match,
    job_priority,
    job_requirements,
    parse_tags,
    require_tags,
    set_priority,
)
from repro.engine.session import (
    SESSION_SCHEMA_VERSION,
    JobFailure,
    Session,
    SessionJournal,
    SessionProgress,
)
from repro.engine.transports import (
    FileQueueSpool,
    FileQueueTransport,
    FileQueueWorker,
    NetworkTransport,
    PoolTransport,
    RemoteJobError,
    SerialTransport,
    Transport,
    make_transport,
    register_transport,
    transport_names,
)
from repro.engine.core import (
    Engine,
    execute_baseline_job,
    execute_dock_job,
    execute_fold_job,
    execute_job,
)

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "DOCK_SCHEMA_VERSION",
    "FOLD_SCHEMA_VERSION",
    "JOB_KINDS",
    "SESSION_SCHEMA_VERSION",
    "BaselineFoldSpec",
    "CacheEntry",
    "CacheStats",
    "CacheTier",
    "DockJobResult",
    "DockSpec",
    "Engine",
    "FileQueueSpool",
    "FileQueueTransport",
    "FileQueueWorker",
    "JobFailure",
    "JobResult",
    "JobSpec",
    "LocalDirTier",
    "NetworkTransport",
    "PendingTask",
    "PoolTransport",
    "RemoteJobError",
    "RemoteTier",
    "SerialTransport",
    "Session",
    "SessionJournal",
    "SessionProgress",
    "TieredCache",
    "Transport",
    "backend_names",
    "capabilities_match",
    "config_fingerprint",
    "execute_baseline_job",
    "execute_dock_job",
    "execute_fold_job",
    "execute_job",
    "executor_for",
    "executor_kinds",
    "job_priority",
    "job_requirements",
    "make_backend",
    "make_transport",
    "parse_tags",
    "parse_tier_spec",
    "register_backend",
    "register_executor",
    "require_tags",
    "resolve_cache",
    "register_transport",
    "result_from_payload",
    "set_priority",
    "transport_names",
]

"""The job engine: scatter typed jobs, gather results, reuse cached work.

This is the Sec. 5.2 batch architecture as a subsystem: every expensive unit
of work — a quantum fold, an AF2/AF3-like baseline fold, a 20-seed docking
search — is a typed spec (:mod:`repro.engine.jobs`) streamed through one
:class:`Engine`.  The engine

* resolves each spec's executor by kind through the registry
  (:func:`~repro.engine.registry.executor_for`) and the quantum execution
  backend by name (:func:`~repro.engine.registry.make_backend`),
* deduplicates identical jobs within a batch (kinds cannot collide: the
  kind's schema version leads every content hash),
* serves previously computed jobs from the persistent result cache,
* fans the remaining jobs out over the configured executor transport
  (:mod:`repro.engine.transports` — in-process serial, a local process pool,
  or a distributed ``repro-worker`` file-queue fleet), and
* gathers results in submission order.

Execution is *streaming*: :meth:`Engine.submit` opens a
:class:`~repro.engine.session.Session` that yields each ``(spec, outcome)``
pair as it completes, journals per-job status for crash/interrupt resume, and
isolates failing jobs as :class:`~repro.engine.session.JobFailure` records.
:meth:`Engine.run` is the blocking wrapper over the same loop.

Determinism: every job derives its seeds from the master seed plus its own
identity (``utils/rng.child_seed`` — the VQE seed from the fragment identity,
each docking run's seed from the receptor identity and run index), never from
worker assignment, so results are bit-identical for any worker count and any
cache state.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.config import PipelineConfig
from repro.engine.cache import resolve_cache
from repro.engine.jobs import (
    BaselineFoldSpec,
    DockJobResult,
    DockSpec,
    JobResult,
    JobSpec,
)
from repro.engine.registry import executor_for, register_executor
from repro.engine.session import Session, SessionJournal, new_session_id
from repro.engine.transports import Transport, make_transport
from repro.exceptions import EngineError
from repro.folding.predictor import FoldingPrediction, fold_fragment
from repro.lattice.hamiltonian import HamiltonianWeights
from repro.utils.logging import get_logger

logger = get_logger(__name__)


def execute_fold_job(spec: JobSpec) -> JobResult:
    """Run one quantum fold job to completion (the ``fold`` executor)."""
    prediction, coords = fold_fragment(
        spec.pdb_id,
        spec.sequence,
        config=spec.config,
        weights=spec.weights,
        register=spec.register,
        start_seq_id=spec.start_seq_id,
    )
    return JobResult(
        spec_hash=spec.content_hash(),
        pdb_id=prediction.pdb_id,
        sequence=prediction.sequence,
        prediction=prediction,
        conformation_coords=np.asarray(coords, dtype=float),
        start_seq_id=spec.start_seq_id,
    )


def execute_baseline_job(spec: BaselineFoldSpec) -> JobResult:
    """Run one baseline fold job (the ``baseline_fold`` executor)."""
    from repro.folding.baselines import baseline_fold_fragment

    prediction, coords = baseline_fold_fragment(
        spec.method,
        spec.pdb_id,
        spec.sequence,
        config=spec.config,
        start_seq_id=spec.start_seq_id,
    )
    return JobResult(
        spec_hash=spec.content_hash(),
        pdb_id=prediction.pdb_id,
        sequence=prediction.sequence,
        prediction=prediction,
        conformation_coords=np.asarray(coords, dtype=float),
        start_seq_id=spec.start_seq_id,
        kind="baseline_fold",
    )


def execute_dock_job(spec: DockSpec) -> DockJobResult:
    """Run one docking job (the ``dock`` executor)."""
    from repro.docking.vina import dock_structure

    docking = dock_structure(
        spec.receptor, spec.ligand, config=spec.config, receptor_id=spec.receptor_id
    )
    return DockJobResult(
        spec_hash=spec.content_hash(),
        pdb_id=spec.pdb_id,
        receptor_id=spec.receptor_id,
        docking=docking,
    )


register_executor("fold", execute_fold_job)
register_executor("baseline_fold", execute_baseline_job)
register_executor("dock", execute_dock_job)


def execute_job(spec) -> JobResult | DockJobResult:
    """Run one job of any registered kind (module-level so it pickles to workers)."""
    return executor_for(getattr(spec, "kind", "fold"))(spec)


class Engine:
    """Single entry point for job execution across all kinds.

    Parameters
    ----------
    config:
        Default pipeline configuration for jobs built by the convenience
        helpers; also supplies the cache (``cache_dir`` / ``cache_remote``)
        and transport settings.
    cache:
        A cache tier instance (:class:`~repro.engine.cache.LocalDirTier`,
        :class:`~repro.engine.cache.RemoteTier`,
        :class:`~repro.engine.cache.TieredCache`), a tier spec string or
        directory path, a sequence of specs/tiers (composed into a
        :class:`~repro.engine.cache.TieredCache`), or ``None``.  ``None``
        resolves from ``config.cache_dir``; a spec string or path stands in
        for it.  Either way ``config.cache_remote`` is appended as the
        outermost tier; with neither set the engine runs cacheless.  See
        :func:`repro.engine.cache.resolve_cache`.
    processes:
        Default worker-process count for :meth:`run` and :meth:`submit`;
        ``None``, ``0`` and ``1`` execute serially.
    transport:
        Name of the executor transport jobs run on (``"serial"``, ``"pool"``,
        ``"filequeue"``, ``"network"`` or ``"auto"``); ``None`` uses
        ``config.transport``.
        Every transport is bit-identical — see
        :mod:`repro.engine.transports`.
    """

    def __init__(
        self,
        config: PipelineConfig | None = None,
        cache: Any = None,
        processes: int | None = None,
        transport: str | None = None,
    ):
        self.config = config or PipelineConfig()
        self.transport_name = transport or self.config.transport
        self.cache = resolve_cache(self.config, cache)
        self.processes = 0 if processes is None else int(processes)
        self.executed_jobs = 0
        self.completed_jobs = 0
        self.failed_jobs = 0
        self.executed_by_kind: dict[str, int] = {}

    def transport_for(self, processes: int | None = None) -> Transport:
        """A fresh one-batch transport resolved from this engine's configuration.

        Called by the session loop when a batch actually has jobs to execute;
        ``processes`` of ``None`` uses the engine default.
        """
        processes = self.processes if processes is None else int(processes)
        return make_transport(self.transport_name, self.config, processes=processes)

    # -- job construction -----------------------------------------------------------

    def spec(
        self,
        pdb_id: str,
        sequence: str,
        weights: HamiltonianWeights | None = None,
        register: str = "configuration",
        start_seq_id: int = 1,
    ) -> JobSpec:
        """Build a quantum-fold :class:`JobSpec` against this engine's configuration."""
        return JobSpec(
            pdb_id=pdb_id,
            sequence=str(sequence),
            config=self.config,
            weights=weights,
            register=register,
            start_seq_id=start_seq_id,
        )

    def baseline_spec(
        self, pdb_id: str, sequence: str, method: str, start_seq_id: int = 1
    ) -> BaselineFoldSpec:
        """Build a :class:`BaselineFoldSpec` against this engine's configuration."""
        return BaselineFoldSpec(
            pdb_id=pdb_id,
            sequence=str(sequence),
            method=method,
            config=self.config,
            start_seq_id=start_seq_id,
        )

    def dock_spec(self, pdb_id: str, receptor, ligand, receptor_id: str | None = None) -> DockSpec:
        """Build a :class:`DockSpec` against this engine's configuration."""
        return DockSpec(
            pdb_id=pdb_id,
            receptor_id=receptor_id or receptor.structure_id,
            receptor=receptor,
            ligand=ligand,
            config=self.config,
        )

    # -- execution -------------------------------------------------------------------

    def submit(
        self,
        jobs: Sequence[Any] | None = None,
        session_id: str | None = None,
        processes: int | None = None,
        on_error: str = "isolate",
        progress: Any = None,
    ) -> Session:
        """Open a streaming :class:`~repro.engine.session.Session` over ``jobs``.

        The session yields ``(spec, outcome)`` pairs as they complete — cache
        hits first, then pool completions — and, when ``config.session_dir``
        is set, records per-job status to an on-disk journal so the batch is
        resumable across processes.

        Parameters
        ----------
        jobs:
            The job specs.  May be ``None`` when resuming a journalled
            session by ``session_id`` — the specs are then loaded from the
            journal's spec pickle.
        session_id:
            Identifier of the session journal.  If a journal with this id
            already exists under ``config.session_dir``, the session *resumes
            it*: jobs marked completed are served from the result cache and
            only failed / never-completed jobs execute.  ``None`` generates a
            fresh id.
        processes, progress:
            Worker-process count (``None`` = engine default) and an optional
            per-outcome callback receiving
            :class:`~repro.engine.session.SessionProgress` events.
        on_error:
            ``"isolate"`` (the default: failures become
            :class:`~repro.engine.session.JobFailure` outcomes) or
            ``"raise"`` (first failure aborts the stream).

        Scheduling priority is per spec: stamp it with
        :func:`~repro.engine.scheduler.set_priority` before submitting.
        """
        journal = None
        if self.config.session_dir:
            root = Path(self.config.session_dir).expanduser()
            if session_id is not None and SessionJournal.exists(root, session_id):
                journal = SessionJournal.open(root, session_id)
                if jobs is None:
                    jobs = journal.load_specs()
                else:
                    jobs = list(jobs)
                    if [job.content_hash() for job in jobs] != journal.spec_hashes:
                        raise EngineError(
                            f"session {session_id!r} already has a journal for a different "
                            "job list; pick a new session_id or resume with matching jobs"
                        )
                journal.mark_resumed()
                logger.info(
                    "engine: resuming session %s (%d/%d jobs already completed)",
                    session_id, len(journal.completed), len(set(journal.spec_hashes)),
                )
            else:
                if jobs is None:
                    raise EngineError(
                        f"no jobs given and no journal for session {session_id!r} "
                        f"under {root} to resume"
                    )
                jobs = list(jobs)
                session_id = session_id or new_session_id()
                journal = SessionJournal.create(root, session_id, jobs)
        elif jobs is None:
            raise EngineError(
                "submit() needs jobs unless resuming a journalled session "
                "(set config.session_dir to enable journals)"
            )
        return Session(
            self,
            jobs,
            session_id=session_id,
            journal=journal,
            on_error=on_error,
            progress=progress,
            processes=processes,
        )

    def run(
        self, jobs: Sequence[Any], processes: int | None = None, on_error: str = "raise"
    ) -> list[Any]:
        """Execute ``jobs`` (any mix of kinds) and return results in submission order.

        A thin blocking wrapper over the session loop: cache hits and
        in-batch duplicates are filled without execution, the rest stream
        over ``processes`` workers, and results gather in submission order.
        The default ``on_error="raise"`` keeps the historical contract (the
        first failure propagates); pass ``"isolate"`` to receive
        :class:`~repro.engine.session.JobFailure` records in the result list
        instead.

        ``run`` never journals, even with ``config.session_dir`` set: a
        one-shot blocking call has no id to resume by, and journalling it
        would litter the session directory.  Use :meth:`submit` with a
        ``session_id`` for resumable sweeps.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        return Session(self, jobs, on_error=on_error, processes=processes).results()

    def fold(
        self,
        pdb_id: str,
        sequence: str,
        start_seq_id: int = 1,
        weights: HamiltonianWeights | None = None,
        register: str = "configuration",
    ) -> FoldingPrediction:
        """Convenience: run a single fold job and return its prediction."""
        spec = self.spec(pdb_id, sequence, weights=weights, register=register, start_seq_id=start_seq_id)
        return self.run([spec])[0].prediction

    # -- reporting -------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Execution and cache counters (the hit/miss proof for tests/logs)."""
        return {
            "completed_jobs": self.completed_jobs,
            "executed_jobs": self.executed_jobs,
            "failed_jobs": self.failed_jobs,
            "executed_by_kind": dict(self.executed_by_kind),
            "cache": self.cache.stats.as_dict() if self.cache is not None else None,
        }

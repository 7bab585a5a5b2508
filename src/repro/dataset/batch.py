"""Batch construction of dataset entries (the Sec. 5.2 architecture, classically).

Every fragment is an independent work item, and every *expensive* unit of
work — the quantum VQE fold, each AF2/AF3-like baseline fold, and each
multi-seed docking search — is a typed engine job
(:mod:`repro.engine.jobs`) streamed through one
:class:`~repro.engine.core.Engine` with parallel fan-out, in-batch dedup and
the persistent result cache.  :meth:`BatchProcessor.build_entries` runs three
phases:

1. **fold** — one ``fold`` job per fragment plus one ``baseline_fold`` job per
   fragment and method, submitted as a single engine batch;
2. **dock** — reference structures and synthetic ligands are derived (cheap,
   deterministic), then one ``dock`` job per predicted structure (quantum and
   baselines) goes through the engine, each run seeded per
   ``(receptor, run index)``;
3. **assemble** — RMSD metrics and entry records are computed in-process.

Against a warm cache the entire rebuild performs zero VQE executions and zero
docking searches.  Results are deterministic for any worker count and any
cache state because every stochastic component derives its seed from the
master seed plus the work item's identity.

Both engine phases run as *streaming sessions* (:meth:`Engine.submit`): an
optional ``progress`` callback observes every job outcome as it completes,
per-job status is journalled when ``config.session_dir`` is set (a crashed
build re-run with the same inputs resumes its own journal), and — under the
default ``on_error="isolate"`` — a crashing job drops only its own fragment
from the entry list instead of aborting the whole build.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.bio.reference import ReferenceRecord, ReferenceStructureGenerator
from repro.bio.rmsd import ca_rmsd
from repro.config import PipelineConfig
from repro.dataset.entry import MethodEvaluation, QDockBankEntry
from repro.dataset.fragments import Fragment
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.docking.vina import DockingEngine, DockingResult
from repro.engine.core import Engine
from repro.engine.session import JobFailure
from repro.folding.baselines import (
    BASELINE_PREDICTORS,
    AF2LikePredictor,
    AF3LikePredictor,
)
from repro.folding.predictor import FoldingPrediction, fold_fragment
from repro.utils.logging import get_logger
from repro.utils.parallel import ParallelExecutor

logger = get_logger(__name__)

#: Baseline methods evaluated next to the quantum prediction — derived from
#: the predictor registry so a newly registered baseline is picked up here.
BASELINE_METHODS: tuple[str, ...] = tuple(BASELINE_PREDICTORS)


@dataclass(frozen=True)
class FragmentTask:
    """A picklable unit of work: one fragment plus the pipeline configuration.

    ``quantum`` carries the already-folded quantum prediction when the fold
    phase ran through the engine; ``None`` makes :func:`build_entry` fold
    inline (the pre-engine behaviour, kept for direct callers).
    """

    fragment: Fragment
    config: PipelineConfig
    keep_structures: bool = True
    include_baselines: bool = True
    quantum: FoldingPrediction | None = None


@dataclass(frozen=True)
class _ContextTask:
    """Input of :func:`prepare_context` (picklable for the executor)."""

    fragment: Fragment
    config: PipelineConfig


def prepare_context(task: _ContextTask) -> tuple[ReferenceRecord, Ligand]:
    """Derive the reference structure and synthetic ligand for one fragment.

    Fully deterministic in ``(fragment, config.seed)`` — this is the docking
    phase's input preparation, not engine-cached work.  Cheap once the
    fragment's baseline folds ran in this process: the reference's
    ground-state solve is memoised per process.
    """
    fragment = task.fragment
    reference = ReferenceStructureGenerator(master_seed=task.config.seed).generate(
        fragment.pdb_id, fragment.sequence, start_seq_id=fragment.residue_start
    )
    ligand = SyntheticLigandGenerator(master_seed=task.config.seed).generate(reference)
    return reference, ligand


def _evaluate_method(
    prediction: FoldingPrediction,
    reference_structure,
    docking: DockingResult,
) -> MethodEvaluation:
    return MethodEvaluation(
        method=prediction.method,
        ca_rmsd=ca_rmsd(prediction.structure, reference_structure),
        affinity=docking.mean_best_affinity,
        docking_rmsd_lb=docking.mean_rmsd_lb,
        docking_rmsd_ub=docking.mean_rmsd_ub,
        docking_summary=docking.as_dict(),
    )


def _assemble_entry(
    fragment: Fragment,
    reference: ReferenceRecord,
    evaluated: list[tuple[FoldingPrediction, DockingResult]],
    keep_structures: bool,
) -> QDockBankEntry:
    """Assemble one entry from evaluated ``(prediction, docking)`` pairs.

    ``evaluated[0]`` must be the quantum prediction; the rest are baselines.
    Shared by the inline path (:func:`build_entry`) and the batch pipeline so
    evaluation and structure-retention rules cannot diverge.
    """
    quantum, _ = evaluated[0]
    entry = QDockBankEntry(
        fragment=fragment,
        quantum_metadata=quantum.metadata,
        predicted_structure=quantum.structure if keep_structures else None,
        reference_structure=reference.structure if keep_structures else None,
    )
    for i, (prediction, docking) in enumerate(evaluated):
        entry.evaluations[prediction.method] = _evaluate_method(
            prediction, reference.structure, docking
        )
        if i > 0 and keep_structures:
            entry.baseline_structures[prediction.method] = prediction.structure
    return entry


def build_entry(task: FragmentTask) -> QDockBankEntry:
    """Build the complete dataset entry for one fragment, inline.

    This is the single-fragment path kept for direct callers and workers; the
    batch pipeline (:meth:`BatchProcessor.build_entries`) instead streams the
    expensive pieces through the engine so they dedup and cache.
    """
    fragment = task.fragment
    config = task.config

    reference_generator = ReferenceStructureGenerator(master_seed=config.seed)
    reference = reference_generator.generate(
        fragment.pdb_id, fragment.sequence, start_seq_id=fragment.residue_start
    )
    ligand = SyntheticLigandGenerator(master_seed=config.seed).generate(reference)

    docking_engine = DockingEngine(
        num_seeds=config.docking_seeds,
        num_poses=config.docking_poses,
        mc_steps=config.docking_mc_steps,
        master_seed=config.seed,
    )

    # Quantum prediction (the dataset's primary content) — precomputed by the
    # engine's fold phase when available.
    qdock_prediction = task.quantum
    if qdock_prediction is None:
        qdock_prediction, _ = fold_fragment(
            fragment.pdb_id,
            fragment.sequence,
            config=config,
            start_seq_id=fragment.residue_start,
        )
    predictions = [qdock_prediction]
    if task.include_baselines:
        for predictor in (
            AF2LikePredictor(reference_generator=reference_generator),
            AF3LikePredictor(reference_generator=reference_generator),
        ):
            predictions.append(
                predictor.predict(
                    fragment.pdb_id, fragment.sequence, start_seq_id=fragment.residue_start
                )
            )
    evaluated = [
        (
            prediction,
            docking_engine.dock(
                prediction.structure, ligand, receptor_id=f"{fragment.pdb_id}:{prediction.method}"
            ),
        )
        for prediction in predictions
    ]
    return _assemble_entry(fragment, reference, evaluated, task.keep_structures)


class BatchProcessor:
    """Builds entries for many fragments, optionally on a process pool."""

    def __init__(
        self,
        config: PipelineConfig | None = None,
        executor: ParallelExecutor | None = None,
        engine: Engine | None = None,
    ):
        self.config = config or PipelineConfig()
        self.executor = executor or ParallelExecutor(processes=0)
        self.engine = engine or Engine(config=self.config)

    def _run_phase(
        self, specs: list, phase: str, progress
    ) -> list:
        """Stream one phase's specs through an engine session.

        The session id is derived from the phase name and the specs' content
        hashes, so a crashed build re-run with the same fragments and
        configuration resumes its own journal (when ``config.session_dir`` is
        set) instead of starting over.
        """
        digest = hashlib.sha256(
            "\x1f".join(spec.content_hash() for spec in specs).encode("utf-8")
        ).hexdigest()
        session = self.engine.submit(
            specs,
            session_id=f"build-{phase}-{digest[:12]}",
            processes=self.executor.processes,
            progress=progress,
        )
        return session.results()

    def build_entries(
        self,
        fragments: list[Fragment],
        keep_structures: bool = True,
        include_baselines: bool = True,
        progress=None,
    ) -> list[QDockBankEntry]:
        """Build entries for ``fragments`` (order preserved).

        All expensive work streams through engine sessions: phase 1 streams
        every quantum and baseline fold, phase 2 streams every docking search
        (three receptors per fragment when baselines are included), and
        phase 3 assembles the entries in-process.  ``progress`` (an optional
        callback receiving :class:`~repro.engine.session.SessionProgress`
        events) observes every job outcome as it lands.

        Failure isolation: under the engine's default
        ``config.on_error="isolate"``, a crashing fold or docking job drops
        only the fragment it belongs to — the entry list simply omits
        fragments whose jobs failed (each is logged with the isolated
        failure), while every other fragment completes.  With
        ``on_error="raise"`` the first failure aborts the build.
        """
        methods = BASELINE_METHODS if include_baselines else ()
        # One configuration governs every job and context in this build: the
        # engine's own (identical to self.config unless a caller wired a
        # differently-configured engine — jobs must hash against the config
        # they execute with).
        config = self.engine.config

        # Phase 1: every fold — quantum and baseline — in one engine session.
        fold_specs = [
            self.engine.spec(f.pdb_id, f.sequence, start_seq_id=f.residue_start)
            for f in fragments
        ]
        baseline_specs = [
            self.engine.baseline_spec(
                f.pdb_id, f.sequence, method, start_seq_id=f.residue_start
            )
            for f in fragments
            for method in methods
        ]
        fold_results = self._run_phase([*fold_specs, *baseline_specs], "fold", progress)
        quantum = fold_results[: len(fragments)]
        baselines = fold_results[len(fragments):]

        # predictions[i] lists (method, prediction) for fragment i, quantum
        # first; fragments with an isolated fold failure are skipped wholesale.
        predictions: dict[int, list[tuple[str, FoldingPrediction]]] = {}
        for i, fragment in enumerate(fragments):
            outcomes = [("QDock", quantum[i])]
            for j, method in enumerate(methods):
                outcomes.append((method, baselines[i * len(methods) + j]))
            bad = [(m, o) for m, o in outcomes if isinstance(o, JobFailure)]
            if bad:
                for method, failure in bad:
                    logger.warning(
                        "skipping fragment %s: %s fold failed (%s: %s)",
                        fragment.pdb_id, method, failure.error_type, failure.error_message,
                    )
                continue
            predictions[i] = [(m, o.prediction) for m, o in outcomes]
        alive = sorted(predictions)

        # Phase 2: derive references/ligands for the surviving fragments, then
        # every docking search through an engine session (seeded per receptor
        # identity and run index).
        contexts = dict(
            zip(
                alive,
                self.executor.map(
                    prepare_context,
                    [_ContextTask(fragment=fragments[i], config=config) for i in alive],
                ),
            )
        )
        dock_specs = []
        dock_owner: list[int] = []
        for i in alive:
            for method, prediction in predictions[i]:
                dock_specs.append(
                    self.engine.dock_spec(
                        fragments[i].pdb_id,
                        prediction.structure,
                        contexts[i][1],
                        receptor_id=f"{fragments[i].pdb_id}:{method}",
                    )
                )
                dock_owner.append(i)
        dock_results = self._run_phase(dock_specs, "dock", progress) if dock_specs else []
        dockings: dict[int, list] = {i: [] for i in alive}
        for i, outcome in zip(dock_owner, dock_results):
            dockings[i].append(outcome)

        # Phase 3: assemble the entries (cheap, in-process), skipping any
        # fragment with an isolated docking failure.
        entries: list[QDockBankEntry] = []
        for i in alive:
            fragment = fragments[i]
            failures = [o for o in dockings[i] if isinstance(o, JobFailure)]
            if failures:
                for failure in failures:
                    logger.warning(
                        "skipping fragment %s: docking failed (%s: %s)",
                        fragment.pdb_id, failure.error_type, failure.error_message,
                    )
                continue
            reference, _ligand = contexts[i]
            evaluated = [
                (prediction, dock.docking)
                for (_method, prediction), dock in zip(predictions[i], dockings[i])
            ]
            entries.append(_assemble_entry(fragment, reference, evaluated, keep_structures))
        return entries

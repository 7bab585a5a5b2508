"""Batch construction of dataset entries (the Sec. 5.2 architecture, classically).

Every fragment is an independent work item, and every *expensive* unit of
work — the quantum VQE fold, each AF2/AF3-like baseline fold, and each
multi-seed docking search — is a typed engine job
(:mod:`repro.engine.jobs`) streamed through one
:class:`~repro.engine.core.Engine` with parallel fan-out, in-batch dedup and
the persistent result cache.  :meth:`BatchProcessor.build_entries` runs three
phases:

1. **fold** — one ``fold`` job per fragment plus one ``baseline_fold`` job per
   fragment and method, submitted as a single engine batch; while it runs,
   the building process derives each fragment's reference structure and
   synthetic ligand (deterministic, not engine-cached), one per outcome;
2. **dock** — one ``dock`` job per predicted structure (quantum and
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
build re-run with the same inputs resumes its own journal), and a crashing
job drops only its own fragment from the entry list instead of aborting the
whole build (``Engine.submit``'s ``on_error="isolate"``).
"""

from __future__ import annotations

import hashlib

from repro.bio.reference import ReferenceRecord, ReferenceStructureGenerator
from repro.bio.rmsd import ca_rmsd
from repro.dataset.entry import MethodEvaluation, QDockBankEntry
from repro.dataset.fragments import Fragment
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.docking.vina import DockingResult
from repro.engine.core import Engine
from repro.engine.session import JobFailure
from repro.folding.baselines import BASELINE_PREDICTORS
from repro.folding.predictor import FoldingPrediction
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Baseline methods evaluated next to the quantum prediction — derived from
#: the predictor registry so a newly registered baseline is picked up here.
BASELINE_METHODS: tuple[str, ...] = tuple(BASELINE_PREDICTORS)


def prepare_context(fragment: Fragment, seed: int) -> tuple[ReferenceRecord, Ligand]:
    """Derive the reference structure and synthetic ligand for one fragment.

    Fully deterministic in ``(fragment, seed)`` — this is the docking phase's
    input preparation, not engine-cached work.  The reference's ground-state
    solve is memoised per process, so it is shared with the fragment's
    baseline folds when those run in this process too.
    """
    reference = ReferenceStructureGenerator(master_seed=seed).generate(
        fragment.pdb_id, fragment.sequence, start_seq_id=fragment.residue_start
    )
    ligand = SyntheticLigandGenerator(master_seed=seed).generate(reference)
    return reference, ligand


def _assemble_entry(
    fragment: Fragment,
    reference: ReferenceRecord,
    evaluated: list[tuple[FoldingPrediction, DockingResult]],
    keep_structures: bool,
) -> QDockBankEntry:
    """Assemble one entry from evaluated ``(prediction, docking)`` pairs.

    ``evaluated[0]`` must be the quantum prediction; the rest are baselines.
    """
    quantum, _ = evaluated[0]
    entry = QDockBankEntry(
        fragment=fragment,
        quantum_metadata=quantum.metadata,
        predicted_structure=quantum.structure if keep_structures else None,
        reference_structure=reference.structure if keep_structures else None,
    )
    for i, (prediction, docking) in enumerate(evaluated):
        entry.evaluations[prediction.method] = MethodEvaluation(
            method=prediction.method,
            ca_rmsd=ca_rmsd(prediction.structure, reference.structure),
            affinity=docking.mean_best_affinity,
            docking_rmsd_lb=docking.mean_rmsd_lb,
            docking_rmsd_ub=docking.mean_rmsd_ub,
            docking_summary=docking.as_dict(),
        )
        if i > 0 and keep_structures:
            entry.baseline_structures[prediction.method] = prediction.structure
    return entry


class BatchProcessor:
    """Builds entries for many fragments through one engine.

    The engine supplies the configuration every job and context is built
    with, and runs both engine phases on its transport.
    """

    def __init__(self, engine: Engine):
        self.engine = engine

    def _run_phase(self, specs: list, phase: str, progress, on_outcome=None) -> list:
        """Stream one phase's specs through an engine session.

        ``on_outcome``, when given, is called with no arguments after each
        outcome lands — work for the building process while the engine's
        transport executes the rest of the phase.

        The session id is derived from the phase name and the specs' content
        hashes, so a crashed build re-run with the same fragments and
        configuration resumes its own journal (when ``config.session_dir`` is
        set) instead of starting over.
        """
        digest = hashlib.sha256(
            "\x1f".join(spec.content_hash() for spec in specs).encode("utf-8")
        ).hexdigest()
        session = self.engine.submit(
            specs, session_id=f"build-{phase}-{digest[:12]}", progress=progress
        )
        for _ in session:
            if on_outcome is not None:
                on_outcome()
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

        Failure isolation: a crashing fold or docking job drops only the
        fragment it belongs to — the entry list simply omits fragments whose
        jobs failed (each is logged with the isolated failure), while every
        other fragment completes.
        """
        methods = BASELINE_METHODS if include_baselines else ()

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
        # Contexts are derived in the building process, one per phase-1
        # outcome, so a remote transport's fleet hides that work.  Which
        # fragments survive is not known yet: a context that fails to derive
        # is left for the loop after the phase, which raises only if its
        # fragment survived (a dropped fragment's error stays isolated).
        seed = self.engine.config.seed
        contexts: dict[int, tuple[ReferenceRecord, Ligand]] = {}
        underived = iter(range(len(fragments)))

        def derive_next_context() -> None:
            i = next(underived, None)
            if i is not None:
                try:
                    contexts[i] = prepare_context(fragments[i], seed)
                except Exception:
                    pass

        fold_results = self._run_phase(
            [*fold_specs, *baseline_specs], "fold", progress, on_outcome=derive_next_context
        )
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

        # Phase 2: derive the surviving fragments' contexts the fold phase
        # left, then every docking search through an engine session (seeded
        # per receptor identity and run index).
        for i in alive:
            if i not in contexts:
                contexts[i] = prepare_context(fragments[i], seed)
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

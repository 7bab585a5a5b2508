"""Fragment structure predictors built on the lattice + VQE stack.

:func:`fold_fragment` is the single implementation of the paper's pipeline:
encode the fragment, run the two-stage VQE on a quantum backend (simulator or
Eagle emulator), decode the best conformation and reconstruct a docking-ready
structure.  :class:`QuantumFoldingPredictor` wraps it in a predictor API and
routes batch work through the job engine (:mod:`repro.engine`), which adds
parallel fan-out and persistent result caching.
:class:`ClassicalFoldingPredictor` replaces the VQE with the exact /
simulated-annealing classical solver and is used by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.bio.sequence import ProteinSequence
from repro.bio.structure import Structure
from repro.config import PipelineConfig
from repro.hardware.cost import CostModel
from repro.hardware.timing import ExecutionTimeModel
from repro.lattice.classical import ClassicalFoldingSolver
from repro.lattice.hamiltonian import HamiltonianWeights, LatticeHamiltonian
from repro.lattice.reconstruction import reconstruct_structure
from repro.quantum.backend import Backend
from repro.utils.rng import child_seed
from repro.vqe.vqe import VQE


@dataclass
class FoldingPrediction:
    """A predicted fragment structure plus its provenance metadata."""

    pdb_id: str
    sequence: str
    method: str
    structure: Structure
    metadata: dict[str, Any] = field(default_factory=dict)

    @property
    def length(self) -> int:
        """Number of residues in the fragment."""
        return len(self.sequence)


#: Method label attached to quantum predictions (the dataset's primary rows).
QUANTUM_METHOD_NAME = "QDock"


def fold_fragment(
    pdb_id: str,
    sequence: ProteinSequence | str,
    config: PipelineConfig | None = None,
    weights: HamiltonianWeights | None = None,
    register: str = "configuration",
    start_seq_id: int = 1,
    backend: Backend | None = None,
    timing_model: ExecutionTimeModel | None = None,
    cost_model: CostModel | None = None,
) -> tuple[FoldingPrediction, np.ndarray]:
    """Fold one fragment with the two-stage VQE pipeline.

    This is the single fold implementation shared by
    :class:`QuantumFoldingPredictor` and the job engine's workers.  Returns
    the prediction plus the raw lattice Cα trace of the decoded conformation
    (what the engine's result cache persists).  The VQE seed derives from the
    master seed and the fragment identity only, so the result is independent
    of where (and how often) the job runs.
    """
    config = config or PipelineConfig()
    seq = sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
    hamiltonian = LatticeHamiltonian(seq, weights=weights)
    seed = child_seed(config.seed, "quantum-fold", pdb_id.lower(), str(seq))
    vqe = VQE(hamiltonian, backend=backend, config=config, register=register, seed=seed)
    result = vqe.run()
    assert result.best_conformation is not None
    conformation_coords = np.asarray(result.best_conformation.ca_coords, dtype=float)
    structure = reconstruct_structure(
        seq,
        conformation_coords,
        structure_id=f"{pdb_id.lower()}_qdock",
        start_seq_id=start_seq_id,
        center=True,
    )

    timing_model = timing_model or ExecutionTimeModel()
    cost_model = cost_model or CostModel()
    estimate = timing_model.estimate(pdb_id, result.num_qubits, result.circuit_depth)
    cost = cost_model.fragment_cost(estimate)
    metadata = result.metadata()
    metadata.update(
        {
            "pdb_id": pdb_id.lower(),
            "method": QUANTUM_METHOD_NAME,
            "execution_time_s": estimate.total_seconds,
            "qpu_time_s": estimate.qpu_seconds,
            "queue_time_s": estimate.queue_seconds,
            "estimated_cost_usd": cost.total_usd,
        }
    )
    prediction = FoldingPrediction(
        pdb_id=pdb_id.lower(),
        sequence=str(seq),
        method=QUANTUM_METHOD_NAME,
        structure=structure,
        metadata=metadata,
    )
    return prediction, conformation_coords


class QuantumFoldingPredictor:
    """Sequence → structure via lattice encoding + two-stage VQE (the paper's method)."""

    method_name = QUANTUM_METHOD_NAME

    def __init__(
        self,
        config: PipelineConfig | None = None,
        backend: Backend | None = None,
        weights: HamiltonianWeights | None = None,
        register: str = "configuration",
        timing_model: ExecutionTimeModel | None = None,
        cost_model: CostModel | None = None,
    ):
        self.config = config or PipelineConfig()
        self.backend = backend
        self.weights = weights
        self.register = register
        self.timing_model = timing_model or ExecutionTimeModel()
        self.cost_model = cost_model or CostModel()
        # Jobs can only be shipped to the engine (workers, cache) when the
        # predictor carries no caller-supplied stateful components.
        self._engine_compatible = backend is None and timing_model is None and cost_model is None
        self._default_engine = None

    def _engine(self, processes: int | None = None, cache=None):
        """The engine to route jobs through.

        With default arguments the predictor reuses one lazily created engine,
        so cache hit/miss statistics accumulate across ``predict`` calls
        (``predictor.engine.stats()``) and the cache directory is only set up
        once.  Explicit ``processes``/``cache`` arguments get a fresh engine.
        """
        from repro.engine.core import Engine

        if processes is None and cache is None:
            if self._default_engine is None:
                self._default_engine = Engine(config=self.config)
            return self._default_engine
        return Engine(config=self.config, cache=cache, processes=processes)

    @property
    def engine(self):
        """The predictor's default engine (stats, cache introspection)."""
        return self._engine()

    def predict(
        self,
        pdb_id: str,
        sequence: ProteinSequence | str,
        start_seq_id: int = 1,
    ) -> FoldingPrediction:
        """Fold one fragment and return the reconstructed structure.

        Routed through the job engine (and its result cache, when
        ``config.cache_dir`` is set) unless a custom backend or timing / cost
        model was supplied, in which case the fold runs locally with them.
        """
        if not self._engine_compatible:
            prediction, _ = fold_fragment(
                pdb_id,
                sequence,
                config=self.config,
                weights=self.weights,
                register=self.register,
                start_seq_id=start_seq_id,
                backend=self.backend,
                timing_model=self.timing_model,
                cost_model=self.cost_model,
            )
            return prediction
        return self._engine().fold(
            pdb_id, str(sequence), start_seq_id=start_seq_id,
            weights=self.weights, register=self.register,
        )

    def predict_many(
        self,
        fragments: list[tuple[str, str]],
        processes: int | None = None,
        cache=None,
    ) -> list[FoldingPrediction]:
        """Predict a batch of ``(pdb_id, sequence)`` fragments via the engine.

        ``processes`` of ``None`` uses ``config.engine_workers``; ``cache``
        accepts a :class:`~repro.engine.cache.ResultCache` or a directory path
        (``None`` falls back to ``config.cache_dir``).  Falls back to a serial
        in-process loop when the predictor holds a custom backend or model.
        """
        if not self._engine_compatible:
            return [self.predict(pdb_id, seq) for pdb_id, seq in fragments]
        engine = self._engine(processes=processes, cache=cache)
        specs = [
            engine.spec(pdb_id, str(seq), weights=self.weights, register=self.register)
            for pdb_id, seq in fragments
        ]
        return [result.prediction for result in engine.run(specs)]


class ClassicalFoldingPredictor:
    """Sequence → structure via the exact / annealed classical solver (ablation baseline)."""

    method_name = "ClassicalLattice"

    def __init__(self, config: PipelineConfig | None = None, weights: HamiltonianWeights | None = None):
        self.config = config or PipelineConfig()
        self.weights = weights

    def predict(self, pdb_id: str, sequence: ProteinSequence | str, start_seq_id: int = 1) -> FoldingPrediction:
        """Fold one fragment with the classical solver."""
        seq = sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
        hamiltonian = LatticeHamiltonian(seq, weights=self.weights)
        solver = ClassicalFoldingSolver(hamiltonian)
        result = solver.solve(seed=self.config.seed)
        structure = reconstruct_structure(
            seq,
            result.ca_coords,
            structure_id=f"{pdb_id.lower()}_classical",
            start_seq_id=start_seq_id,
            center=True,
        )
        metadata = {
            "pdb_id": pdb_id.lower(),
            "method": self.method_name,
            "energy": result.energy,
            "exact": result.exact,
            "evaluations": result.evaluations,
        }
        return FoldingPrediction(
            pdb_id=pdb_id.lower(),
            sequence=str(seq),
            method=self.method_name,
            structure=structure,
            metadata=metadata,
        )

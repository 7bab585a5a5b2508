"""Fragment structure predictors built on the lattice + VQE stack.

:func:`fold_fragment` is the single implementation of the paper's pipeline:
encode the fragment, run the two-stage VQE on a simulator backend
(statevector, MPS or width-dispatching auto), decode the best conformation
and reconstruct a docking-ready structure.  The job engine's ``fold``
executor calls it; :class:`QuantumFoldingPredictor` wraps the engine in a
predictor API, so every quantum prediction runs through one engine, with the
backend named by ``config.backend`` and the engine's persistent result cache.
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
) -> tuple[FoldingPrediction, np.ndarray]:
    """Fold one fragment with the two-stage VQE pipeline.

    This is the single fold implementation, run by the job engine's ``fold``
    executor on the backend named by ``config.backend``.  Returns
    the prediction plus the raw lattice Cα trace of the decoded conformation
    (what the engine's result cache persists).  The VQE seed derives from the
    master seed and the fragment identity only, so the result is independent
    of where (and how often) the job runs.
    """
    config = config or PipelineConfig()
    seq = sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
    hamiltonian = LatticeHamiltonian(seq, weights=weights)
    seed = child_seed(config.seed, "quantum-fold", pdb_id.lower(), str(seq))
    vqe = VQE(hamiltonian, config=config, register=register, seed=seed)
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

    estimate = ExecutionTimeModel().estimate(pdb_id, result.num_qubits, result.circuit_depth)
    cost = CostModel().fragment_cost(estimate)
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
    """Sequence → structure via lattice encoding + two-stage VQE (the paper's method).

    Every prediction runs as a fold job on the predictor's one engine, so
    cache hit/miss statistics accumulate across ``predict`` calls
    (``predictor.engine.stats()``) and the cache (``config.cache_dir``) is
    set up once.
    """

    method_name = QUANTUM_METHOD_NAME

    def __init__(
        self,
        config: PipelineConfig | None = None,
        weights: HamiltonianWeights | None = None,
        register: str = "configuration",
    ):
        from repro.engine.core import Engine

        self.config = config or PipelineConfig()
        self.weights = weights
        self.register = register
        self.engine = Engine(config=self.config)

    def predict(
        self,
        pdb_id: str,
        sequence: ProteinSequence | str,
        start_seq_id: int = 1,
    ) -> FoldingPrediction:
        """Fold one fragment through the engine and return the reconstructed structure."""
        return self.engine.fold(
            pdb_id, str(sequence), start_seq_id=start_seq_id,
            weights=self.weights, register=self.register,
        )


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

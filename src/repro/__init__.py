"""repro — a from-scratch reproduction of QDockBank (SC 2025).

QDockBank is a dataset of ligand-binding-pocket protein fragments whose 3D
structures were predicted with VQE on utility-level IBM quantum processors and
evaluated with AutoDock Vina docking against AlphaFold2/3 baselines.  This
package reimplements the full pipeline and all of its substrates in pure
Python (NumPy/SciPy/NetworkX): the coarse-grained lattice folding model, the
quantum circuit simulators, the Eagle processor's topology, runtime and cost
models, the VQE driver, the docking engine, the baseline predictors, the
dataset builder and the analysis/benchmark harness.

Quickstart
----------
>>> from repro import PipelineConfig, QuantumFoldingPredictor
>>> predictor = QuantumFoldingPredictor(config=PipelineConfig.fast())
>>> prediction = predictor.predict("3eax", "RYRDV")
>>> prediction.structure.sequence
'RYRDV'
"""

from repro.version import __version__
from repro.config import PipelineConfig, DEFAULT_CONFIG
from repro.exceptions import ReproError
from repro.bio.sequence import ProteinSequence
from repro.bio.reference import ReferenceStructureGenerator
from repro.folding.predictor import (
    QuantumFoldingPredictor,
    FoldingPrediction,
    fold_fragment,
)
from repro.folding.baselines import AF2LikePredictor, AF3LikePredictor
from repro.engine import (
    BaselineFoldSpec,
    DockJobResult,
    DockSpec,
    Engine,
    JobResult,
    JobSpec,
    make_backend,
)
from repro.docking.vina import DockingEngine
from repro.docking.ligand import SyntheticLigandGenerator
from repro.dataset.builder import DatasetBuilder
from repro.dataset.bank import QDockBank
from repro.dataset.fragments import PAPER_FRAGMENTS, fragments_by_group, fragment_by_pdb_id

__all__ = [
    "__version__",
    "PipelineConfig",
    "DEFAULT_CONFIG",
    "ReproError",
    "ProteinSequence",
    "ReferenceStructureGenerator",
    "QuantumFoldingPredictor",
    "FoldingPrediction",
    "fold_fragment",
    "BaselineFoldSpec",
    "DockJobResult",
    "DockSpec",
    "Engine",
    "JobResult",
    "JobSpec",
    "make_backend",
    "AF2LikePredictor",
    "AF3LikePredictor",
    "DockingEngine",
    "SyntheticLigandGenerator",
    "DatasetBuilder",
    "QDockBank",
    "PAPER_FRAGMENTS",
    "fragments_by_group",
    "fragment_by_pdb_id",
]

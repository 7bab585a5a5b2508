"""Deep-learning baseline predictors (AlphaFold2- and AlphaFold3-like).

AlphaFold2/3 cannot be executed offline, so the comparison baselines are
*accuracy-profile simulators* of prior-biased predictors (see DESIGN.md).  The
mechanism mirrors the paper's argument for why deep-learning models struggle
on short, context-free fragments:

* the predictor's output is a blend between a **generic secondary-structure
  prior** (an ideal helix or extended strand chosen from Chou–Fasman-style
  residue propensities — what a model falls back to when the fragment carries
  little contextual signal) and the **true structure** (what a model recovers
  when its learned prior does apply);
* the blend weight and the residual coordinate noise depend on the method
  (AF3-like recovers more of the true structure than AF2-like) and on fragment
  length (longer fragments carry more context, so the deep-learning baselines
  improve with length — which is why AF3 closes the RMSD gap on the L group in
  the paper's Sec. 6.2).

The output is a full-backbone, centred structure exactly like the quantum
pipeline produces, so the downstream docking / RMSD evaluation treats every
method identically.

Engine-job entry point
----------------------
Baseline folds are first-class engine jobs (``kind="baseline_fold"``, see
:class:`repro.engine.jobs.BaselineFoldSpec`): :func:`baseline_fold_fragment`
is the module-level executor entry point — it resolves the method name
(``"AF2"`` / ``"AF3"``) through :data:`BASELINE_PREDICTORS`, runs the blend
against a reference generator keyed on ``config.seed``, and returns the
prediction together with the blended Cα trace.  That trace is what the
engine's persistent cache stores; :meth:`repro.engine.jobs.JobResult`
re-derives the full structure from it deterministically, so a cache hit is
bit-identical to a fresh baseline prediction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.geometry import superimpose
from repro.bio.reference import ReferenceStructureGenerator
from repro.bio.sequence import ProteinSequence
from repro.config import PipelineConfig
from repro.exceptions import EngineError
from repro.folding.predictor import FoldingPrediction
from repro.lattice.reconstruction import reconstruct_structure
from repro.utils.rng import rng_for

#: Chou–Fasman-style helix propensities (relative scale; >1 favours helix).
_HELIX_PROPENSITY: dict[str, float] = {
    "A": 1.42, "C": 0.70, "D": 1.01, "E": 1.51, "F": 1.13, "G": 0.57, "H": 1.00,
    "I": 1.08, "K": 1.16, "L": 1.21, "M": 1.45, "N": 0.67, "P": 0.57, "Q": 1.11,
    "R": 0.98, "S": 0.77, "T": 0.83, "V": 1.06, "W": 1.08, "Y": 0.69,
}


def ideal_helix_ca(length: int) -> np.ndarray:
    """Cα trace of an ideal alpha helix (rise 1.5 Å, 100° per residue, r = 2.3 Å)."""
    t = np.arange(length)
    angle = np.deg2rad(100.0) * t
    return np.column_stack([2.3 * np.cos(angle), 2.3 * np.sin(angle), 1.5 * t])


def extended_strand_ca(length: int) -> np.ndarray:
    """Cα trace of an extended (beta-strand-like) chain with a gentle pleat."""
    t = np.arange(length)
    return np.column_stack([3.3 * t, 0.9 * ((-1.0) ** t), np.zeros(length)])


def secondary_structure_prior(sequence: str) -> np.ndarray:
    """The generic prior trace a data-driven model falls back to for a fragment."""
    mean_propensity = float(np.mean([_HELIX_PROPENSITY[c] for c in sequence]))
    if mean_propensity >= 1.0:
        return ideal_helix_ca(len(sequence))
    return extended_strand_ca(len(sequence))


def _enforce_ca_separation(ca: np.ndarray, min_separation: float = 3.4, iterations: int = 20) -> np.ndarray:
    """Push apart Cα pairs closer than ``min_separation`` (deep-learning
    predictors never emit sterically impossible traces, and leaving such
    artefacts in would hand the baselines artificially dense binding clefts)."""
    ca = np.array(ca, dtype=float)
    n = ca.shape[0]
    for _ in range(iterations):
        diff = ca[:, None, :] - ca[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        np.fill_diagonal(dist, np.inf)
        too_close = dist < min_separation
        if not too_close.any():
            break
        i_idx, j_idx = np.nonzero(np.triu(too_close, k=1))
        for i, j in zip(i_idx.tolist(), j_idx.tolist()):
            direction = ca[i] - ca[j]
            norm = np.linalg.norm(direction)
            direction = direction / norm if norm > 1e-9 else np.array([1.0, 0.0, 0.0])
            push = 0.5 * (min_separation - dist[i, j] if np.isfinite(dist[i, j]) else min_separation)
            ca[i] += push * direction
            ca[j] -= push * direction
    return ca


@dataclass(frozen=True)
class AccuracyProfile:
    """Blend / noise parameters of one prior-biased baseline."""

    prior_weight_short: float  # weight of the generic prior for 5-8 residue fragments
    prior_weight_medium: float  # 9-12 residues
    prior_weight_long: float  # 13+ residues
    noise_short: float  # residual coordinate noise (Å std-dev)
    noise_medium: float
    noise_long: float

    def parameters_for_length(self, length: int) -> tuple[float, float]:
        """(prior_weight, noise_sigma) for a fragment of the given length."""
        if length <= 8:
            return self.prior_weight_short, self.noise_short
        if length <= 12:
            return self.prior_weight_medium, self.noise_medium
        return self.prior_weight_long, self.noise_long


class PriorBiasedPredictor:
    """Common machinery of the AF2-like and AF3-like baselines."""

    method_name = "PriorBiased"

    def __init__(
        self,
        profile: AccuracyProfile,
        reference_generator: ReferenceStructureGenerator | None = None,
        master_seed: int = 11,
    ):
        self.profile = profile
        self.reference_generator = reference_generator or ReferenceStructureGenerator()
        self.master_seed = int(master_seed)

    def predict(self, pdb_id: str, sequence: ProteinSequence | str, start_seq_id: int = 1) -> FoldingPrediction:
        """Predict one fragment with this baseline's accuracy profile."""
        prediction, _ = self.predict_with_coords(pdb_id, sequence, start_seq_id=start_seq_id)
        return prediction

    def predict_with_coords(
        self, pdb_id: str, sequence: ProteinSequence | str, start_seq_id: int = 1
    ) -> tuple[FoldingPrediction, np.ndarray]:
        """Predict one fragment and also return the blended Cα trace.

        The trace is the minimal datum the engine's result cache persists:
        re-running the (deterministic) reconstruction over it reproduces the
        returned structure exactly.
        """
        seq = sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
        reference = self.reference_generator.generate(pdb_id, seq, start_seq_id=start_seq_id)
        prior_weight, noise_sigma = self.profile.parameters_for_length(len(seq))
        rng = rng_for(self.master_seed, self.method_name, pdb_id.lower(), str(seq))

        prior = secondary_structure_prior(str(seq))
        # Put the prior into the reference frame before blending.
        prior_aligned, _rot, _t = superimpose(prior, reference.ca_coords)
        blended = prior_weight * prior_aligned + (1.0 - prior_weight) * reference.ca_coords
        blended = blended + rng.normal(scale=noise_sigma, size=blended.shape)
        blended = _enforce_ca_separation(blended)

        structure = reconstruct_structure(
            seq,
            blended,
            structure_id=f"{pdb_id.lower()}_{self.method_name.lower()}",
            start_seq_id=start_seq_id,
            center=True,
        )
        metadata = {
            "pdb_id": pdb_id.lower(),
            "method": self.method_name,
            "prior_weight": prior_weight,
            "noise_sigma": noise_sigma,
            "prior_type": "helix" if np.mean([_HELIX_PROPENSITY[c] for c in str(seq)]) >= 1.0 else "extended",
        }
        prediction = FoldingPrediction(
            pdb_id=pdb_id.lower(),
            sequence=str(seq),
            method=self.method_name,
            structure=structure,
            metadata=metadata,
        )
        return prediction, blended


class AF2LikePredictor(PriorBiasedPredictor):
    """AlphaFold2-like accuracy profile: strong prior bias on short fragments."""

    method_name = "AF2"

    def __init__(self, reference_generator: ReferenceStructureGenerator | None = None, master_seed: int = 11):
        super().__init__(
            AccuracyProfile(
                prior_weight_short=0.70,
                prior_weight_medium=0.62,
                prior_weight_long=0.56,
                noise_short=1.3,
                noise_medium=1.5,
                noise_long=1.7,
            ),
            reference_generator=reference_generator,
            master_seed=master_seed,
        )


class AF3LikePredictor(PriorBiasedPredictor):
    """AlphaFold3-like accuracy profile: weaker prior bias, strongest on long fragments."""

    method_name = "AF3"

    def __init__(self, reference_generator: ReferenceStructureGenerator | None = None, master_seed: int = 13):
        super().__init__(
            AccuracyProfile(
                prior_weight_short=0.55,
                prior_weight_medium=0.45,
                prior_weight_long=0.40,
                noise_short=1.0,
                noise_medium=1.1,
                noise_long=1.2,
            ),
            reference_generator=reference_generator,
            master_seed=master_seed,
        )


#: Baseline predictors by method name — the registry the engine's
#: ``baseline_fold`` jobs resolve their method through.
BASELINE_PREDICTORS: dict[str, type[PriorBiasedPredictor]] = {
    AF2LikePredictor.method_name: AF2LikePredictor,
    AF3LikePredictor.method_name: AF3LikePredictor,
}


def baseline_fold_fragment(
    method: str,
    pdb_id: str,
    sequence: ProteinSequence | str,
    config: PipelineConfig | None = None,
    start_seq_id: int = 1,
    reference_generator: ReferenceStructureGenerator | None = None,
) -> tuple[FoldingPrediction, np.ndarray]:
    """Run one baseline fold (the engine's ``baseline_fold`` job executor).

    Resolves ``method`` through :data:`BASELINE_PREDICTORS` and predicts with
    a reference generator keyed on ``config.seed`` (the same keying the
    dataset batch pipeline uses), so the result depends only on the fragment
    identity, the method and the master seed.  Returns the prediction plus
    the blended Cα trace the persistent cache stores.
    """
    config = config or PipelineConfig()
    predictor_cls = BASELINE_PREDICTORS.get(method)
    if predictor_cls is None:
        raise EngineError(
            f"unknown baseline method {method!r}; available: {sorted(BASELINE_PREDICTORS)}"
        )
    generator = reference_generator or ReferenceStructureGenerator(master_seed=config.seed)
    predictor = predictor_cls(reference_generator=generator)
    return predictor.predict_with_coords(pdb_id, sequence, start_seq_id=start_seq_id)

"""Folding core: the quantum fragment predictor and the baseline predictors."""

from repro.folding.predictor import FoldingPrediction, QuantumFoldingPredictor
from repro.folding.baselines import AF2LikePredictor, AF3LikePredictor, PriorBiasedPredictor

__all__ = [
    "FoldingPrediction",
    "QuantumFoldingPredictor",
    "AF2LikePredictor",
    "AF3LikePredictor",
    "PriorBiasedPredictor",
]

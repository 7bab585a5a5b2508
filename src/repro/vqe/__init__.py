"""Variational Quantum Eigensolver framework for the folding Hamiltonian."""

from repro.vqe.expectation import DiagonalExpectation
from repro.vqe.optimizer import CobylaOptimizer, OptimizerResult
from repro.vqe.result import VQEResult
from repro.vqe.vqe import VQE

__all__ = [
    "DiagonalExpectation",
    "CobylaOptimizer",
    "OptimizerResult",
    "VQEResult",
    "VQE",
]

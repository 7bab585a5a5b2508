"""Quantum computing substrate: circuits, ansatz, simulators, sampling."""

from repro.quantum.gates import GATES, gate_matrix, rx_matrix, ry_matrix, rz_matrix
from repro.quantum.circuit import Parameter, Instruction, QuantumCircuit
from repro.quantum.ansatz import EfficientSU2
from repro.quantum.statevector import StatevectorSimulator
from repro.quantum.mps import MPSSimulator
from repro.quantum.backend import (
    Backend,
    StatevectorBackend,
    MPSBackend,
    AutoBackend,
    counts_from_samples,
)

__all__ = [
    "GATES",
    "gate_matrix",
    "rx_matrix",
    "ry_matrix",
    "rz_matrix",
    "Parameter",
    "Instruction",
    "QuantumCircuit",
    "EfficientSU2",
    "StatevectorSimulator",
    "MPSSimulator",
    "Backend",
    "StatevectorBackend",
    "MPSBackend",
    "AutoBackend",
    "counts_from_samples",
]

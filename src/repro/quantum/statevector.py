"""Exact statevector simulation of bound circuits.

Gate application uses the standard tensor-reshape technique: the state is a
rank-``n`` tensor of shape ``(2, ..., 2)`` and a ``k``-qubit gate is applied
with a single :func:`numpy.tensordot` contraction followed by an axis
permutation.  This keeps the hot path fully vectorised and allocation-light.

Bit-ordering convention: qubit 0 is the *leftmost* character of a bitstring
(big-endian in qubit index), i.e. bitstring ``b`` has ``b[q]`` = measurement
outcome of qubit ``q``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import gate_matrix

#: Hard cap on the exact simulator width (2^24 complex amplitudes = 256 MiB).
MAX_STATEVECTOR_QUBITS = 24


class StatevectorSimulator:
    """Exact simulator for small circuits; the oracle used by the test suite."""

    def __init__(self, max_qubits: int = MAX_STATEVECTOR_QUBITS):
        self.max_qubits = int(max_qubits)

    # -- state evolution ----------------------------------------------------------

    def run(self, circuit: QuantumCircuit) -> np.ndarray:
        """Evolve |0...0> through ``circuit`` and return the final statevector.

        The returned array has ``2**n`` amplitudes; index bits are ordered with
        qubit 0 as the most significant bit.
        """
        if not circuit.is_bound:
            raise BackendError("cannot simulate a circuit with unbound parameters")
        n = circuit.num_qubits
        if n > self.max_qubits:
            raise BackendError(
                f"{n} qubits exceeds the statevector limit of {self.max_qubits}"
            )
        state = np.zeros((2,) * n, dtype=complex)
        state[(0,) * n] = 1.0
        for inst in circuit.instructions:
            if inst.name == "barrier":
                continue
            matrix = gate_matrix(inst.name, tuple(float(p) for p in inst.params))
            state = _apply_gate(state, matrix, inst.qubits)
        return state.reshape(-1)

    def compile(self, circuit: QuantumCircuit):
        """Build a reusable replay plan for ``circuit`` (may be parameterised).

        The plan's ``statevector``/``sample`` evaluations are bit-identical to
        binding the circuit and calling :meth:`run`/:meth:`sample`; see
        :class:`repro.quantum.compiled.CompiledCircuit`.
        """
        from repro.quantum.compiled import CompiledCircuit

        return CompiledCircuit(circuit, max_qubits=self.max_qubits)

    # -- measurement ----------------------------------------------------------------

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Measurement probabilities over the ``2**n`` computational basis states."""
        amps = self.run(circuit)
        probs = np.abs(amps) ** 2
        total = probs.sum()
        if total <= 0:
            raise BackendError("statevector collapsed to zero norm")
        return probs / total

    def sample(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample measurement outcomes; returns an (shots, n) uint8 array of 0/1."""
        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        probs = self.probabilities(circuit)
        outcomes = rng.choice(probs.size, size=shots, p=probs)
        return outcome_bits(outcomes, circuit.num_qubits)


def outcome_bits(outcomes: np.ndarray, num_qubits: int) -> np.ndarray:
    """The (shots, n) uint8 bits of basis-state indices, qubit 0 first.

    Filled one column at a time, so no (shots, n) int64 temporary is built;
    both statevector samplers expand their outcomes here.
    """
    bits = np.empty((outcomes.size, num_qubits), dtype=np.uint8)
    for q in range(num_qubits):
        bits[:, q] = (outcomes >> (num_qubits - 1 - q)) & 1
    return bits


def _apply_gate(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...]) -> np.ndarray:
    """Apply a k-qubit gate to the rank-n state tensor."""
    k = len(qubits)
    n = state.ndim
    gate = matrix.reshape((2,) * (2 * k))
    # Contract gate's input legs with the state's target axes.
    moved = np.tensordot(gate, state, axes=(list(range(k, 2 * k)), list(qubits)))
    # tensordot puts the gate's output legs first; move them back into place.
    return np.moveaxis(moved, list(range(k)), list(qubits))

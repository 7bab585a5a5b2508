"""Exact statevector simulation of bound circuits.

:class:`StatevectorSimulator` runs a bound circuit through its compiled
replay plan (:class:`~repro.quantum.compiled.CompiledCircuit`), the one
statevector kernel: the VQE samples templates through the same plans.

Bit-ordering convention: qubit 0 is the *leftmost* character of a bitstring
(big-endian in qubit index), i.e. bitstring ``b`` has ``b[q]`` = measurement
outcome of qubit ``q``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit

#: Hard cap on the exact simulator width (2^24 complex amplitudes = 256 MiB).
MAX_STATEVECTOR_QUBITS = 24


class StatevectorSimulator:
    """Exact simulator for small circuits; the oracle used by the test suite."""

    def __init__(self, max_qubits: int = MAX_STATEVECTOR_QUBITS):
        self.max_qubits = int(max_qubits)

    def compile(self, circuit: QuantumCircuit):
        """Build a reusable replay plan for ``circuit`` (may be parameterised);
        see :class:`repro.quantum.compiled.CompiledCircuit`."""
        from repro.quantum.compiled import CompiledCircuit

        return CompiledCircuit(circuit, max_qubits=self.max_qubits)

    def _compile_bound(self, circuit: QuantumCircuit):
        if not circuit.is_bound:
            raise BackendError("cannot simulate a circuit with unbound parameters")
        return self.compile(circuit)

    def run(self, circuit: QuantumCircuit) -> np.ndarray:
        """Evolve |0...0> through ``circuit`` and return the final statevector.

        The returned array has ``2**n`` amplitudes; index bits are ordered with
        qubit 0 as the most significant bit.
        """
        return self._compile_bound(circuit).statevector()

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Measurement probabilities over the ``2**n`` computational basis states."""
        return self._compile_bound(circuit).probabilities()


def outcome_bits(outcomes: np.ndarray, num_qubits: int) -> np.ndarray:
    """The (shots, n) uint8 bits of basis-state indices, qubit 0 first.

    Filled one column at a time, so no (shots, n) int64 temporary is built.
    """
    bits = np.empty((outcomes.size, num_qubits), dtype=np.uint8)
    for q in range(num_qubits):
        bits[:, q] = (outcomes >> (num_qubits - 1 - q)) & 1
    return bits

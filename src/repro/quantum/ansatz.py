"""Hardware-efficient ansatz circuits.

The paper uses Qiskit's ``EfficientSU2`` ansatz (Sec. 4.3.2): alternating
layers of parameterised RY·RZ rotations on every qubit and a linear chain of
entangling CX gates between adjacent qubits.  :class:`EfficientSU2` builds the
same circuit on our IR; the linear entanglement pattern is what makes the MPS
backend exact for small numbers of repetitions.
"""

from __future__ import annotations

from repro.exceptions import CircuitError
from repro.quantum.circuit import Parameter, QuantumCircuit


class EfficientSU2:
    """EfficientSU2 ansatz factory.

    Parameters
    ----------
    num_qubits:
        Width of the ansatz.
    reps:
        Number of (entangle + rotate) repetition blocks appended after the
        initial rotation layer.
    entanglement:
        ``"linear"`` (nearest-neighbour chain, default — matches the paper's
        "entangling gates among adjacent qubits") or ``"circular"`` (adds the
        closing pair ``(n-1, 0)``).
    """

    def __init__(self, num_qubits: int, reps: int = 1, entanglement: str = "linear"):
        if num_qubits < 1:
            raise CircuitError(f"EfficientSU2 needs at least one qubit, got {num_qubits}")
        if reps < 0:
            raise CircuitError(f"reps must be >= 0, got {reps}")
        if entanglement not in ("linear", "circular"):
            raise CircuitError(f"unsupported entanglement pattern: {entanglement!r}")
        self.num_qubits = int(num_qubits)
        self.reps = int(reps)
        self.entanglement = entanglement
        self._circuit = self._build()

    # -- construction -----------------------------------------------------------

    def _entangling_pairs(self) -> list[tuple[int, int]]:
        pairs = [(q, q + 1) for q in range(self.num_qubits - 1)]
        if self.entanglement == "circular" and self.num_qubits > 2:
            pairs.append((self.num_qubits - 1, 0))
        return pairs

    def _rotation_layer(self, circuit: QuantumCircuit, layer_index: int) -> None:
        for q in range(self.num_qubits):
            circuit.ry(Parameter(f"ry_{layer_index}_{q}"), q)
        for q in range(self.num_qubits):
            circuit.rz(Parameter(f"rz_{layer_index}_{q}"), q)

    def _build(self) -> QuantumCircuit:
        circuit = QuantumCircuit(self.num_qubits, name=f"EfficientSU2(n={self.num_qubits},reps={self.reps})")
        self._rotation_layer(circuit, 0)
        for rep in range(self.reps):
            for a, b in self._entangling_pairs():
                circuit.cx(a, b)
            self._rotation_layer(circuit, rep + 1)
        return circuit

    # -- public API ---------------------------------------------------------------

    @property
    def circuit(self) -> QuantumCircuit:
        """The (parameterised) ansatz circuit."""
        return self._circuit

    @property
    def num_parameters(self) -> int:
        """Total number of free rotation angles: ``2 · n · (reps + 1)``."""
        return self._circuit.num_parameters

    def bound(self, values) -> QuantumCircuit:
        """Bind a parameter vector and return the executable circuit."""
        return self._circuit.bind(values)

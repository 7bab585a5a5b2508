"""Compiled execution plans for parameterised circuits.

The VQE hot loop evaluates the *same* ansatz structure hundreds of times with
different parameter vectors.  :class:`CompiledCircuit` walks the circuit
**once** and records a replay plan: for every instruction it resolves the
target qubits into the exact transpose/reshape/``dot`` decomposition that
:func:`numpy.tensordot` performs internally, precomputes the unitary of every
parameter-independent gate, and notes which parameter slot feeds each
parameterised rotation.  Evaluating the plan is then just "refresh the
parameterised gate matrices and replay": no circuit copy, no parameter scan,
no per-gate axis bookkeeping.  :func:`resolve_gates` is the gate-resolution
half of that walk, shared with the MPS replay plan
(:class:`repro.quantum.mps.MPSPlan`).

The plan is the only statevector kernel: :class:`StatevectorSimulator`
compiles a bound circuit and replays it, and every backend samples templates
through cached plans.  A structure :func:`resolve_gates` rejects (a
parameterised gate with other than one free parameter, or one without a
parametric matrix builder) cannot be simulated at all.

Bit-identity contract
---------------------
A replay performs the *same floating-point operations in the same order* as
contracting each gate into the state with ``tensordot`` and moving its axes
back: fixed gate matrices come from the same
:func:`~repro.quantum.gates.gate_matrix` calls, parameterised matrices are
rebuilt per evaluation through the same scalar builder a bound copy would
use, and each gate application reproduces ``tensordot``'s internal
``transpose → reshape → dot → reshape → moveaxis`` sequence with identical
operand shapes.  ``tests/test_quantum.py`` keeps that gate-by-gate
``tensordot`` evolution as the oracle the plan must equal bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import BackendError, CircuitError
from repro.quantum.circuit import Parameter, QuantumCircuit
from repro.quantum.gates import _PARAMETRIC, gate_matrix
from repro.quantum.statevector import MAX_STATEVECTOR_QUBITS, outcome_bits


def circuit_structure_key(circuit: QuantumCircuit) -> tuple:
    """Hashable structural fingerprint of a circuit.

    Two circuits share a key exactly when they apply the same gate names to
    the same qubits in the same order with the same *bound* parameter values,
    with free parameters identified positionally (by first-appearance order,
    the same order :meth:`QuantumCircuit.bind` consumes a value vector in).
    Structurally identical templates — e.g. two ``EfficientSU2`` instances of
    equal width and depth — therefore share one compiled plan and one
    transpilation, even though their :class:`Parameter` objects differ.

    The key is memoised on the circuit object (guarded by instruction count,
    which covers append-after-keying; instructions themselves are frozen), so
    hot loops that keep sampling one template pay the structural walk once.
    """
    memo = getattr(circuit, "_structure_key_memo", None)
    if memo is not None and memo[0] == len(circuit.instructions):
        return memo[1]
    index = {p: i for i, p in enumerate(circuit.parameters)}
    parts: list = [circuit.num_qubits]
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        parts.append(
            (
                inst.name,
                inst.qubits,
                tuple(
                    ("p", index[p]) if isinstance(p, Parameter) else ("c", float(p))
                    for p in inst.params
                ),
            )
        )
    key = tuple(parts)
    try:
        circuit._structure_key_memo = (len(circuit.instructions), key)
    except AttributeError:
        pass
    return key


def resolve_gates(circuit: QuantumCircuit) -> list[tuple]:
    """Resolve every non-barrier instruction of ``circuit`` once, for replay.

    Returns one ``(qubits, matrix, builder, param_index)`` tuple per
    instruction.  A fixed gate carries its unitary, produced by the same
    :func:`~repro.quantum.gates.gate_matrix` call the simulators make, and
    ``None`` for the other two.  A parameterised rotation carries ``None``, its
    matrix constructor (the exact function ``gate_matrix`` dispatches to) and
    the slot of its parameter in the order :meth:`QuantumCircuit.bind`
    consumes a value vector.  Rebuilding ``builder(values[param_index])`` per
    evaluation therefore yields the matrix a bound copy would carry, bit for
    bit.  Raises :class:`CircuitError` for parameterised gates a plan cannot
    replay.
    """
    index = {p: i for i, p in enumerate(circuit.parameters)}
    gates: list[tuple] = []
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        if not inst.is_parameterised:
            matrix = gate_matrix(inst.name, tuple(float(p) for p in inst.params))
            gates.append((inst.qubits, np.ascontiguousarray(matrix), None, None))
            continue
        if len(inst.params) != 1 or not isinstance(inst.params[0], Parameter):
            raise CircuitError(
                f"cannot compile instruction {inst.name!r}: parameterised "
                "gates must carry exactly one free parameter"
            )
        builder = _PARAMETRIC.get(inst.name.lower())
        if builder is None:
            raise CircuitError(
                f"cannot compile instruction {inst.name!r}: no parametric "
                "matrix builder for this gate"
            )
        gates.append((inst.qubits, None, builder, index[inst.params[0]]))
    return gates


def parameter_values(values, num_parameters: int) -> list[float]:
    """A plan's parameter vector as Python floats, converted exactly as
    :meth:`QuantumCircuit.bind` converts it."""
    vals = np.asarray(values, dtype=float).ravel().tolist()
    if len(vals) != num_parameters:
        raise CircuitError(f"expected {num_parameters} parameter values, got {len(vals)}")
    return vals


class CompiledCircuit:
    """A reusable statevector replay plan for one circuit structure."""

    def __init__(self, circuit: QuantumCircuit, max_qubits: int | None = None):
        if max_qubits is None:
            max_qubits = MAX_STATEVECTOR_QUBITS
        n = circuit.num_qubits
        if n > int(max_qubits):
            raise BackendError(
                f"{n} qubits exceeds the statevector limit of {max_qubits}"
            )
        self.num_qubits = n
        self.num_parameters = circuit.num_parameters
        self.structure_key = circuit_structure_key(circuit)
        # One step per non-barrier instruction:
        # (fixed_matrix | None, builder | None, param_index | None, 2**k, fwd, back)
        # (see :func:`resolve_gates`), where ``fwd``/``back`` are the transpose
        # permutations reproducing tensordot's operand layout and moveaxis
        # restoration exactly.
        self._steps: list[tuple] = []
        for qubits, matrix, builder, param_index in resolve_gates(circuit):
            others = [axis for axis in range(n) if axis not in qubits]
            fwd = tuple(qubits) + tuple(others)
            back = [0] * n
            for position, axis in enumerate(fwd):
                back[axis] = position
            self._steps.append(
                (matrix, builder, param_index, 2 ** len(qubits), fwd, tuple(back))
            )

    def __len__(self) -> int:
        return len(self._steps)

    # -- evaluation --------------------------------------------------------------

    def statevector(self, values=()) -> np.ndarray:
        """Evolve |0...0> through the plan at ``values``."""
        vals = parameter_values(values, self.num_parameters)
        n = self.num_qubits
        shape = (2,) * n
        state = np.zeros(shape, dtype=complex)
        state[(0,) * n] = 1.0
        for matrix, builder, param_index, dim, fwd, back in self._steps:
            if matrix is None:
                matrix = builder(vals[param_index])
            state = (
                np.dot(matrix, state.transpose(fwd).reshape(dim, -1))
                .reshape(shape)
                .transpose(back)
            )
        return np.ascontiguousarray(state).reshape(-1)

    def probabilities(self, values=()) -> np.ndarray:
        """Measurement probabilities over the ``2**n`` basis states at ``values``."""
        amps = self.statevector(values)
        probs = np.abs(amps) ** 2
        total = probs.sum()
        if total <= 0:
            raise BackendError("statevector collapsed to zero norm")
        return probs / total

    def sample(self, values, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Sample ``shots`` measurement outcomes at ``values``: one
        ``rng.choice`` over the basis states; returns (shots, n) uint8 0/1."""
        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        probs = self.probabilities(values)
        outcomes = rng.choice(probs.size, size=shots, p=probs)
        return outcome_bits(outcomes, self.num_qubits)

"""Parameterised quantum circuits.

A deliberately small circuit IR: a circuit is a list of
:class:`Instruction` objects (gate name, qubit tuple, parameters).  Parameters
may be free (:class:`Parameter`) or bound floats; :meth:`QuantumCircuit.bind`
produces a fully bound copy for the simulators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.exceptions import CircuitError
from repro.quantum.gates import GATE_ARITY


class Parameter:
    """A named free parameter of a circuit."""

    _counter = itertools.count()

    def __init__(self, name: str | None = None):
        self.name = name if name is not None else f"θ{next(self._counter)}"


@dataclass(frozen=True)
class Instruction:
    """One gate application."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[object, ...] = ()

    @property
    def is_parameterised(self) -> bool:
        """True when any parameter is an unbound :class:`Parameter`."""
        return any(isinstance(p, Parameter) for p in self.params)


@dataclass
class QuantumCircuit:
    """An ordered list of gate applications on ``num_qubits`` qubits."""

    num_qubits: int
    instructions: list[Instruction] = field(default_factory=list)
    name: str = "circuit"

    def __post_init__(self) -> None:
        if self.num_qubits <= 0:
            raise CircuitError(f"a circuit needs at least one qubit, got {self.num_qubits}")

    # -- gate builders ----------------------------------------------------------

    def append(self, name: str, qubits: Sequence[int], params: Sequence[object] = ()) -> "QuantumCircuit":
        """Append a gate, validating qubit indices and arity."""
        name = name.lower()
        qubits = tuple(int(q) for q in qubits)
        for q in qubits:
            if not (0 <= q < self.num_qubits):
                raise CircuitError(f"qubit index {q} out of range for {self.num_qubits}-qubit circuit")
        if len(set(qubits)) != len(qubits):
            raise CircuitError(f"duplicate qubits in gate {name!r}: {qubits}")
        expected = GATE_ARITY.get(name)
        if expected is not None and expected != len(qubits):
            raise CircuitError(
                f"gate {name!r} acts on {expected} qubits, got {len(qubits)}"
            )
        self.instructions.append(Instruction(name, qubits, tuple(params)))
        return self

    def ry(self, theta: object, q: int) -> "QuantumCircuit":
        """Y-rotation gate."""
        return self.append("ry", (q,), (theta,))

    def rz(self, theta: object, q: int) -> "QuantumCircuit":
        """Z-rotation gate."""
        return self.append("rz", (q,), (theta,))

    def cx(self, control: int, target: int) -> "QuantumCircuit":
        """CNOT gate."""
        return self.append("cx", (control, target))

    # -- parameters -------------------------------------------------------------

    @property
    def parameters(self) -> list[Parameter]:
        """Free parameters in first-appearance order."""
        seen: set[Parameter] = set()
        ordered: list[Parameter] = []
        for inst in self.instructions:
            for p in inst.params:
                if isinstance(p, Parameter) and p not in seen:
                    seen.add(p)
                    ordered.append(p)
        return ordered

    @property
    def num_parameters(self) -> int:
        """Number of distinct free parameters."""
        return len(self.parameters)

    def bind(self, values: Mapping[Parameter, float] | Sequence[float] | np.ndarray) -> "QuantumCircuit":
        """Return a copy with every free parameter replaced by a float.

        ``values`` may be a mapping from :class:`Parameter` to float, or a
        sequence ordered like :attr:`parameters`.
        """
        params = self.parameters
        if isinstance(values, Mapping):
            mapping = dict(values)
        else:
            arr = np.asarray(values, dtype=float).ravel()
            if arr.size != len(params):
                raise CircuitError(
                    f"expected {len(params)} parameter values, got {arr.size}"
                )
            mapping = dict(zip(params, arr.tolist()))
        missing = [p.name for p in params if p not in mapping]
        if missing:
            raise CircuitError(f"missing bindings for parameters: {missing}")
        bound = QuantumCircuit(self.num_qubits, name=self.name)
        for inst in self.instructions:
            new_params = tuple(
                float(mapping[p]) if isinstance(p, Parameter) else p for p in inst.params
            )
            bound.instructions.append(Instruction(inst.name, inst.qubits, new_params))
        return bound

    @property
    def is_bound(self) -> bool:
        """True when no instruction has a free parameter."""
        return not any(inst.is_parameterised for inst in self.instructions)

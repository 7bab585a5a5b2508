"""Execution backends: a common interface over the simulators.

A backend samples a parameterised *template* circuit at a parameter vector
and returns a ``(shots, num_qubits)`` array of measured bits, mirroring the
sampler primitive the paper uses on IBM hardware; :func:`counts_from_samples`
turns it into a counts dictionary (bitstring → frequency).  Three backends
are provided:

* :class:`StatevectorBackend` — exact, for narrow circuits (tests, oracles);
* :class:`MPSBackend` — bounded-bond-dimension MPS, exact for the linear
  EfficientSU2 circuits used by the pipeline and scalable to 100+ qubits;
* :class:`AutoBackend` — picks the statevector simulator when the circuit is
  small enough and falls back to MPS otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import BackendError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.compiled import CompiledCircuit, circuit_structure_key
from repro.quantum.mps import MPSPlan, MPSSimulator
from repro.quantum.statevector import StatevectorSimulator

#: Compiled plans a backend keeps (FIFO); one per circuit structure.
PLAN_CACHE_SIZE = 64

#: Widest row :func:`pack_rows` packs: one MSB-first code in a signed int64.
MAX_PACKED_BITS = 63


def pack_rows(samples: np.ndarray) -> np.ndarray:
    """One int64 code per row of a (shots, n) 0/1 array, column 0 the most
    significant bit, so numeric order of the codes *is* lexicographic order
    of the rows.  Rows may be at most :data:`MAX_PACKED_BITS` wide."""
    if samples.shape[1] > MAX_PACKED_BITS:
        raise BackendError(
            f"cannot pack {samples.shape[1]}-bit rows into int64 codes "
            f"(at most {MAX_PACKED_BITS})"
        )
    codes = np.zeros(samples.shape[0], dtype=np.int64)
    for column in samples.T:
        codes <<= 1
        codes |= column
    return codes


def counts_from_samples(samples: np.ndarray) -> dict[str, int]:
    """Aggregate a (shots, n) sample array into a counts dictionary.

    Rows are grouped as packed codes (:func:`pack_rows`), so that the
    per-shot Python work is proportional to the number of *distinct*
    bitstrings, not the shot count.  Keys come in lexicographic order.
    """
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim != 2:
        raise BackendError(f"samples must be 2-D, got shape {samples.shape}")
    if samples.shape[0] == 0:
        return {}
    if samples.shape[1] > MAX_PACKED_BITS:
        rows, counts = np.unique(samples, axis=0, return_counts=True)
        keys = [row.tobytes().decode("ascii") for row in rows + np.uint8(ord("0"))]
        return dict(zip(keys, counts.tolist()))
    codes, counts = np.unique(pack_rows(samples), return_counts=True)
    fmt = f"0{samples.shape[1]}b"
    return {format(code, fmt): freq for code, freq in zip(codes.tolist(), counts.tolist())}


class Backend(ABC):
    """Interface of every execution backend.

    Every backend owns one compiled-plan cache: :meth:`sample_parameterised`
    compiles a template once per :func:`circuit_structure_key` (through the
    :meth:`_compile` hook) and replays the plan at each parameter vector.
    """

    name: str = "backend"

    def __init__(self) -> None:
        self._plans: dict[tuple, object] = {}
        self._plan_hits = 0
        self._plan_misses = 0

    def sample_parameterised(
        self, circuit: QuantumCircuit, values, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a parameterised *template* circuit at ``values``.

        This is the hot-loop entry point for optimisers that evaluate one
        circuit structure at many parameter vectors: the template's replay
        plan comes from the plan cache and is replayed at ``values``.  Raises
        :class:`CircuitError` for a structure the plan compiler rejects.
        """
        return self._plan_for(circuit).sample(values, shots, rng)

    @abstractmethod
    def _compile(self, circuit: QuantumCircuit):
        """A replay plan for ``circuit`` (an object with ``sample(values,
        shots, rng)``); raises :class:`CircuitError` for a structure it does
        not cover."""

    def _plan_for(self, circuit: QuantumCircuit):
        """The cached plan of ``circuit``'s structure, compiled on a miss.  A
        structure :meth:`_compile` rejects raises and is not cached."""
        key = circuit_structure_key(circuit)
        if key in self._plans:
            self._plan_hits += 1
            return self._plans[key]
        self._plan_misses += 1
        plan = self._plans[key] = self._compile(circuit)
        while len(self._plans) > PLAN_CACHE_SIZE:
            self._plans.pop(next(iter(self._plans)))
        return plan

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss counters for the compiled-plan cache (diagnostics)."""
        return {
            "entries": len(self._plans),
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "max_entries": PLAN_CACHE_SIZE,
        }


class StatevectorBackend(Backend):
    """Exact dense-statevector execution (small circuits)."""

    name = "statevector"

    def __init__(self, max_qubits: int = 24):
        super().__init__()
        self._sim = StatevectorSimulator(max_qubits=max_qubits)

    def _compile(self, circuit: QuantumCircuit) -> CompiledCircuit:
        return self._sim.compile(circuit)


class MPSBackend(Backend):
    """Bounded-bond-dimension MPS execution (scales to 100+ qubits)."""

    name = "mps"

    def __init__(self, max_bond_dimension: int = 16):
        super().__init__()
        self._sim = MPSSimulator(max_bond_dimension=max_bond_dimension)
        self.max_bond_dimension = max_bond_dimension

    def _compile(self, circuit: QuantumCircuit) -> MPSPlan:
        return self._sim.compile(circuit)


class AutoBackend(Backend):
    """Statevector when feasible, MPS otherwise.

    Plans of both kinds live in this backend's one plan cache.
    """

    name = "auto"

    def __init__(
        self,
        max_statevector_qubits: int = 16,
        max_bond_dimension: int = 16,
    ):
        super().__init__()
        self.max_statevector_qubits = int(max_statevector_qubits)
        self._sv = StatevectorBackend(max_qubits=max(max_statevector_qubits, 1))
        self._mps = MPSBackend(max_bond_dimension=max_bond_dimension)

    def _pick(self, circuit: QuantumCircuit) -> Backend:
        return self._sv if circuit.num_qubits <= self.max_statevector_qubits else self._mps

    def _compile(self, circuit: QuantumCircuit):
        return self._pick(circuit)._compile(circuit)

    def chosen_backend(self, circuit: QuantumCircuit) -> str:
        """Name of the backend that would execute this circuit."""
        return self._pick(circuit).name

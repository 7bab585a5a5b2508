"""Execution backends: a common interface over the simulators.

A backend takes a *bound* circuit and a shot count and returns a counts
dictionary (bitstring → frequency), mirroring the sampler primitive the paper
uses on IBM hardware.  Three backends are provided:

* :class:`StatevectorBackend` — exact, for narrow circuits (tests, oracles);
* :class:`MPSBackend` — bounded-bond-dimension MPS, exact for the linear
  EfficientSU2 circuits used by the pipeline and scalable to 100+ qubits;
* :class:`AutoBackend` — picks the statevector simulator when the circuit is
  small enough and falls back to MPS otherwise.

The noisy hardware emulator (:class:`repro.hardware.eagle.EagleEmulatorBackend`)
derives from :class:`MPSBackend` and adds transpilation metadata, noise and
timing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.exceptions import BackendError, CircuitError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.compiled import CompiledCircuit, circuit_structure_key
from repro.quantum.mps import MPSSimulator
from repro.quantum.statevector import StatevectorSimulator

#: Compiled plans a statevector backend keeps (FIFO); one per circuit structure.
PLAN_CACHE_SIZE = 64


def samples_to_bitstrings(samples: np.ndarray) -> list[str]:
    """Convert a (shots, n) 0/1 array into bitstring form."""
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim != 2:
        raise BackendError(f"samples must be 2-D, got shape {samples.shape}")
    chars = samples + ord("0")
    return [row.tobytes().decode("ascii") for row in chars.astype(np.uint8)]


def counts_from_samples(samples: np.ndarray) -> dict[str, int]:
    """Aggregate a (shots, n) sample array into a counts dictionary.

    Aggregation happens in NumPy (one ``np.unique`` over the rows) so that the
    per-shot Python work is proportional to the number of *distinct*
    bitstrings, not the shot count — this runs on every 100k-shot stage-2
    sample.
    """
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim != 2:
        raise BackendError(f"samples must be 2-D, got shape {samples.shape}")
    if samples.shape[0] == 0:
        return {}
    uniq, counts = np.unique(samples, axis=0, return_counts=True)
    return {
        bits: int(freq)
        for bits, freq in zip(samples_to_bitstrings(uniq), counts)
    }


class Backend(ABC):
    """Interface of every execution backend."""

    name: str = "backend"

    @abstractmethod
    def sample_array(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        """Return a (shots, num_qubits) array of measurement outcomes."""

    def run(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> dict[str, int]:
        """Execute and return a counts dictionary."""
        return counts_from_samples(self.sample_array(circuit, shots, rng))

    def sample_parameterised(
        self, circuit: QuantumCircuit, values, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a parameterised *template* circuit at ``values``.

        This is the hot-loop entry point for optimisers that evaluate one
        circuit structure at many parameter vectors.  The base implementation
        simply binds and delegates, so every backend accepts it; backends with
        a plan-reuse path (see :class:`StatevectorBackend`) override it.  The
        contract is strict bit-identity with ``sample_array(circuit.bind(values))``.
        """
        return self.sample_array(circuit.bind(values), shots, rng)


class StatevectorBackend(Backend):
    """Exact dense-statevector execution (small circuits)."""

    name = "statevector"

    def __init__(self, max_qubits: int = 24):
        self._sim = StatevectorSimulator(max_qubits=max_qubits)
        self._plans: dict[tuple, "CompiledCircuit"] = {}
        self._plan_hits = 0
        self._plan_misses = 0

    def sample_array(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self._sim.sample(circuit, shots, rng)

    def sample_parameterised(
        self, circuit: QuantumCircuit, values, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        try:
            plan = self._plan_for(circuit)
        except CircuitError:
            # Structures the plan compiler does not cover fall back to binding.
            return super().sample_parameterised(circuit, values, shots, rng)
        return plan.sample(values, shots, rng)

    def _plan_for(self, circuit: QuantumCircuit) -> "CompiledCircuit":
        key = circuit_structure_key(circuit)
        plan = self._plans.get(key)
        if plan is None:
            self._plan_misses += 1
            plan = CompiledCircuit(circuit, max_qubits=self._sim.max_qubits)
            self._plans[key] = plan
            while len(self._plans) > PLAN_CACHE_SIZE:
                self._plans.pop(next(iter(self._plans)))
        else:
            self._plan_hits += 1
        return plan

    def plan_cache_info(self) -> dict[str, int]:
        """Hit/miss counters for the compiled-plan cache (diagnostics)."""
        return {
            "entries": len(self._plans),
            "hits": self._plan_hits,
            "misses": self._plan_misses,
            "max_entries": PLAN_CACHE_SIZE,
        }


class MPSBackend(Backend):
    """Bounded-bond-dimension MPS execution (scales to 100+ qubits)."""

    name = "mps"

    def __init__(self, max_bond_dimension: int = 16):
        self._sim = MPSSimulator(max_bond_dimension=max_bond_dimension)
        self.max_bond_dimension = max_bond_dimension

    def sample_array(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        return self._sim.sample(circuit, shots, rng)


class AutoBackend(Backend):
    """Statevector when feasible, MPS otherwise."""

    name = "auto"

    def __init__(
        self,
        max_statevector_qubits: int = 16,
        max_bond_dimension: int = 16,
    ):
        self.max_statevector_qubits = int(max_statevector_qubits)
        self._sv = StatevectorBackend(max_qubits=max(max_statevector_qubits, 1))
        self._mps = MPSBackend(max_bond_dimension=max_bond_dimension)

    def sample_array(self, circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
        if circuit.num_qubits <= self.max_statevector_qubits:
            return self._sv.sample_array(circuit, shots, rng)
        return self._mps.sample_array(circuit, shots, rng)

    def sample_parameterised(
        self, circuit: QuantumCircuit, values, shots: int, rng: np.random.Generator
    ) -> np.ndarray:
        if circuit.num_qubits <= self.max_statevector_qubits:
            return self._sv.sample_parameterised(circuit, values, shots, rng)
        return self._mps.sample_parameterised(circuit, values, shots, rng)

    def chosen_backend(self, circuit: QuantumCircuit) -> str:
        """Name of the backend that would execute this circuit."""
        return "statevector" if circuit.num_qubits <= self.max_statevector_qubits else "mps"

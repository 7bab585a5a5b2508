"""Transpilation pipeline: layout → routing → basis translation → resource model.

The output :class:`TranspiledCircuit` carries both the executable native-basis
circuit and the resource numbers the paper reports per fragment:

* ``reported_depth`` — the scheduled depth of the parameterised circuit on the
  device, computed from the per-gate native depth contributions plus the
  measurement/initialisation layers.  For a linear EfficientSU2 ansatz with
  one repetition and no SWAPs this evaluates to exactly ``4·n + 5``, matching
  every row of Tables 1–3;
* ``swap_count`` — SWAPs inserted by routing (zero when the margin strategy
  finds a defect-free chain);
* native gate histogram and two-qubit gate count (used by the noise model).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.exceptions import TranspilerError
from repro.hardware.basis import count_native_gates, native_depth_contribution, translate_to_native
from repro.hardware.routing import LinearChainRouter, RoutingResult
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.compiled import circuit_structure_key

#: Depth layers charged for state initialisation and readout of every job.
MEASUREMENT_LAYERS = 5

#: Depth added on the critical path by one routed SWAP (3 ECR + dressing).
SWAP_DEPTH = 12

#: Transpilations a :class:`Transpiler` keeps (FIFO), one per structure key.
CACHE_SIZE = 128


@dataclass(frozen=True)
class TranspiledCircuit:
    """A circuit mapped to the device plus its resource accounting."""

    logical_circuit: QuantumCircuit
    native_circuit: QuantumCircuit
    routing: RoutingResult
    reported_depth: int
    native_gate_counts: dict[str, int]

    @property
    def num_qubits(self) -> int:
        """Width of the logical register."""
        return self.logical_circuit.num_qubits

    @property
    def two_qubit_gate_count(self) -> int:
        """Number of native two-qubit (ECR) gates, including routed SWAPs."""
        return self.native_gate_counts.get("ecr", 0) + 3 * self.routing.swap_count

    @property
    def two_qubit_gates_per_qubit(self) -> float:
        """Average ECR participation per qubit (drives the noise model)."""
        if self.num_qubits == 0:
            return 0.0
        return 2.0 * self.two_qubit_gate_count / self.num_qubits


class Transpiler:
    """Maps logical ansatz circuits onto the Eagle device."""

    def __init__(
        self,
        router: LinearChainRouter | None = None,
        ancilla_margin: int = 5,
    ):
        if ancilla_margin < 0:
            raise TranspilerError(f"ancilla margin must be >= 0, got {ancilla_margin}")
        self.router = router if router is not None else LinearChainRouter()
        self.ancilla_margin = int(ancilla_margin)
        self._cache: dict[tuple, TranspiledCircuit] = {}
        self._hits = 0
        self._misses = 0

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters of the transpilation cache (diagnostics)."""
        return {
            "entries": len(self._cache),
            "hits": self._hits,
            "misses": self._misses,
            "max_entries": CACHE_SIZE,
        }

    def scheduled_depth(self, circuit: QuantumCircuit, swap_count: int = 0) -> int:
        """Scheduled device depth of a logical circuit (analytic model).

        Per-qubit critical-path accumulation of the native depth contributions
        of every logical gate, plus SWAP overhead and the fixed
        measurement/initialisation layers.
        """
        levels = [0] * circuit.num_qubits
        for inst in circuit.instructions:
            if inst.name == "barrier":
                continue
            contribution = native_depth_contribution(inst.name)
            start = max(levels[q] for q in inst.qubits)
            for q in inst.qubits:
                levels[q] = start + contribution
        base = max(levels) if levels else 0
        return base + SWAP_DEPTH * swap_count + MEASUREMENT_LAYERS

    def transpile(
        self,
        circuit: QuantumCircuit,
        margin: int | None = None,
        defective_qubits: tuple[int, ...] | list[int] = (),
    ) -> TranspiledCircuit:
        """Transpile a (possibly parameterised) logical circuit for the device.

        Results are cached per (circuit structure, margin, defective qubits)
        — the structural key covers bound parameter values, so two bindings of
        the same template only share an entry when they bind identical values.
        Resource accounting over repeated identical fragments therefore routes
        and translates once; a hit is returned with ``logical_circuit``
        swapped for the caller's own circuit object.
        """
        margin = self.ancilla_margin if margin is None else int(margin)
        key = (circuit_structure_key(circuit), margin, tuple(int(q) for q in defective_qubits))
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            return replace(cached, logical_circuit=circuit)
        self._misses += 1
        routing = self.router.route(circuit.num_qubits, margin=margin, defective_qubits=defective_qubits)
        reported_depth = self.scheduled_depth(circuit, swap_count=routing.swap_count)

        # Basis translation requires bound parameters; for a parameterised
        # circuit we translate a zero-bound copy (the structure, and therefore
        # the gate counts, are parameter-independent).
        translatable = circuit if circuit.is_bound else circuit.bind([0.0] * circuit.num_parameters)
        native = translate_to_native(translatable)
        counts = count_native_gates(native)
        result = TranspiledCircuit(
            logical_circuit=circuit,
            native_circuit=native,
            routing=routing,
            reported_depth=reported_depth,
            native_gate_counts=counts,
        )
        self._cache[key] = result
        while len(self._cache) > CACHE_SIZE:
            self._cache.pop(next(iter(self._cache)))
        return result

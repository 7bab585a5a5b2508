"""Tests for the Eagle hardware emulation: topology, routing, transpiler, timing, cost."""

import numpy as np
import pytest

from repro.exceptions import TranspilerError
from repro.hardware.basis import NATIVE_GATES, count_native_gates, translate_to_native
from repro.hardware.cost import CostModel
from repro.hardware.coupling import EAGLE_QUBITS, heavy_hex_coupling_map, longest_chain, snake_path
from repro.hardware.eagle import EagleDevice, EagleEmulatorBackend
from repro.hardware.routing import LinearChainRouter
from repro.hardware.timing import ExecutionSettings, ExecutionTimeModel
from repro.hardware.transpiler import Transpiler
from repro.quantum.ansatz import EfficientSU2
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.statevector import StatevectorSimulator


# -- coupling map -----------------------------------------------------------------


def test_eagle_has_127_qubits_and_heavy_hex_degrees():
    g = heavy_hex_coupling_map()
    assert g.number_of_nodes() == EAGLE_QUBITS
    degrees = [d for _n, d in g.degree()]
    assert max(degrees) <= 3
    assert min(degrees) >= 1


def test_snake_path_is_connected_chain():
    g = heavy_hex_coupling_map()
    path = snake_path(g)
    assert len(path) >= 102 + 5  # largest fragment register plus margin
    assert len(set(path)) == len(path)
    for a, b in zip(path[:-1], path[1:]):
        assert g.has_edge(a, b)


def test_longest_chain_lengths():
    g = heavy_hex_coupling_map()
    for n in (12, 54, 102, 107):
        chain = longest_chain(g, n)
        assert len(chain) == n
        for a, b in zip(chain[:-1], chain[1:]):
            assert g.has_edge(a, b)


def test_longest_chain_rejects_oversized_request():
    g = heavy_hex_coupling_map()
    with pytest.raises(ValueError):
        longest_chain(g, 128)


# -- basis translation -------------------------------------------------------------


def test_translate_to_native_gate_set():
    qc = QuantumCircuit(3)
    qc.ry(0.3, 0).rz(0.2, 1).cx(0, 1).h(2).swap(1, 2)
    native = translate_to_native(qc)
    assert set(native.count_ops()) <= set(NATIVE_GATES)
    assert count_native_gates(native)["ecr"] == 1 + 3  # one CX + three for the SWAP


def test_translate_ry_preserves_distribution():
    # RY(theta) on |0> gives P(1) = sin^2(theta/2); check the native decomposition agrees.
    theta = 0.9
    logical = QuantumCircuit(1)
    logical.ry(theta, 0)
    native = translate_to_native(logical)
    p_logical = StatevectorSimulator().probabilities(logical)
    p_native = StatevectorSimulator().probabilities(native)
    assert np.allclose(p_logical, p_native, atol=1e-9)


def test_translate_cx_gate_budget():
    # Every CX becomes exactly one ECR plus single-qubit dressing (the dressing
    # is a local-frame choice; only the two-qubit budget matters for resources).
    logical = QuantumCircuit(2)
    logical.ry(1.1, 0).cx(0, 1)
    native = translate_to_native(logical)
    counts = native.count_ops()
    assert counts["ecr"] == 1
    assert native.two_qubit_gate_count() == 1


def test_non_native_counts_rejected():
    qc = QuantumCircuit(2)
    qc.append("cz", (0, 1))
    translate_to_native(qc)  # cz has a native decomposition...
    with pytest.raises(TranspilerError):
        count_native_gates(qc)  # ...but is not itself a native gate


# -- routing and margin strategy ------------------------------------------------------


def test_routing_no_defects_no_swaps():
    router = LinearChainRouter()
    result = router.route(102, margin=5)
    assert result.swap_count == 0
    assert len(result.physical_chain) == 102
    assert result.used_margin == 5


def test_margin_strategy_reduces_swaps_with_defects():
    router = LinearChainRouter()
    chain = router.route(30, margin=10).physical_chain
    defects = (chain[5], chain[12])
    with_margin = router.route(30, margin=10, defective_qubits=defects)
    without_margin = router.route(30, margin=0, defective_qubits=defects)
    assert with_margin.swap_count <= without_margin.swap_count
    # With margin available the defective qubits are routed around entirely.
    assert set(defects).isdisjoint(with_margin.physical_chain) or with_margin.swap_count <= 2


def test_routing_rejects_invalid_requests():
    router = LinearChainRouter()
    with pytest.raises(TranspilerError):
        router.route(0)
    with pytest.raises(TranspilerError):
        router.route(130)


# -- transpiler ------------------------------------------------------------------------


@pytest.mark.parametrize("num_qubits", [12, 23, 38, 46, 54, 63, 72, 82, 92, 102])
def test_transpiled_depth_matches_paper_relation(num_qubits):
    ansatz = EfficientSU2(num_qubits, reps=1)
    transpiled = Transpiler().transpile(ansatz.circuit)
    assert transpiled.reported_depth == 4 * num_qubits + 5


def test_transpiled_native_counts_and_two_qubit_rate():
    ansatz = EfficientSU2(10, reps=1)
    transpiled = Transpiler().transpile(ansatz.circuit)
    assert transpiled.native_gate_counts["ecr"] == 9
    assert transpiled.two_qubit_gates_per_qubit == pytest.approx(2 * 9 / 10)


# -- timing and cost ---------------------------------------------------------------------


def test_execution_time_gradient_with_depth():
    model = ExecutionTimeModel()
    small = model.estimate("3eax", 12, 53)
    large = model.estimate("3d7z", 102, 413)
    assert large.qpu_seconds > small.qpu_seconds
    assert small.total_seconds > 0


def test_execution_time_deterministic_per_pdb_id():
    model = ExecutionTimeModel()
    a = model.estimate("4y79", 54, 221)
    b = model.estimate("4y79", 54, 221)
    assert a.total_seconds == b.total_seconds


def test_execution_settings_shot_scaling():
    settings = ExecutionSettings(base_shots=1000, shots_per_qubit=10)
    assert settings.optimisation_shots(50) == 1500


def test_dataset_scale_claims_hold_with_paper_settings():
    """With the paper's workload, total QPU time exceeds 60 h and cost exceeds 1M USD."""
    from repro.dataset.fragments import PAPER_FRAGMENTS

    timing = ExecutionTimeModel()
    cost = CostModel()
    estimates = [
        timing.estimate(f.pdb_id, f.paper.qubits, f.paper.depth) for f in PAPER_FRAGMENTS
    ]
    total_qpu_hours = sum(e.qpu_seconds for e in estimates) / 3600.0
    total_cost = cost.dataset_cost(estimates).total_usd
    assert total_qpu_hours > 60.0
    assert total_cost > 1_000_000.0


def test_cost_model_rejects_negative_rates():
    with pytest.raises(ValueError):
        CostModel(usd_per_qpu_second=-1.0)


# -- emulator backend -----------------------------------------------------------------------


def test_eagle_emulator_runs_and_records_jobs():
    backend = EagleEmulatorBackend(ancilla_margin=5, noise_enabled=True)
    ansatz = EfficientSU2(12, reps=1)
    rng = np.random.default_rng(0)
    counts = backend.run(ansatz.bound(rng.normal(size=ansatz.num_parameters)), 128, rng)
    assert sum(counts.values()) == 128
    assert backend.total_shots() == 128
    record = backend.job_records[0]
    assert record.reported_depth == 4 * 12 + 5
    assert record.noisy


def test_eagle_emulator_noiseless_matches_mps_statistics():
    device = EagleDevice()
    noisy = EagleEmulatorBackend(device=device, noise_enabled=True)
    clean = EagleEmulatorBackend(device=device, noise_enabled=False)
    ansatz = EfficientSU2(8, reps=1)
    params = np.zeros(ansatz.num_parameters)
    clean_counts = clean.run(ansatz.bound(params), 256, np.random.default_rng(1))
    # Without noise the all-zero parameter circuit yields only the all-zero string.
    assert set(clean_counts) == {"0" * 8}
    noisy_counts = noisy.run(ansatz.bound(params), 256, np.random.default_rng(1))
    assert len(noisy_counts) >= 1


def test_eagle_emulator_reports_each_structures_own_depth():
    # Linear and circular EfficientSU2(6) share a circuit name; the circular
    # ring's extra CX(5, 0) must still show in its own reported depth.
    backend = EagleEmulatorBackend(noise_enabled=False)
    linear = EfficientSU2(6, reps=1).circuit
    circular = EfficientSU2(6, reps=1, entanglement="circular").circuit
    assert linear.name == circular.name
    assert backend.transpile(linear).reported_depth == 29
    assert backend.transpile(circular).reported_depth == 33
    assert backend.transpile(linear).reported_depth == 29


def test_eagle_sample_parameterised_matches_sampling_the_bound_circuit():
    ansatz = EfficientSU2(7, reps=1)
    values = np.random.default_rng(3).normal(size=ansatz.num_parameters)
    planned, bound = EagleEmulatorBackend(), EagleEmulatorBackend()
    for seed in range(2):
        a = planned.sample_parameterised(ansatz.circuit, values, 300, np.random.default_rng(seed))
        b = bound.sample_array(ansatz.circuit.bind(values), 300, np.random.default_rng(seed))
        assert np.array_equal(a, b)
    assert planned.job_records == bound.job_records
    # Every evaluation of the template after the first is a transpiler cache hit.
    assert planned._transpiler.cache_info()["misses"] == 1


# -- transpilation cache ------------------------------------------------------------------


def test_transpiler_caches_repeated_structures():
    transpiler = Transpiler()
    a, b = EfficientSU2(6, reps=1), EfficientSU2(6, reps=1)
    first = transpiler.transpile(a.circuit)
    second = transpiler.transpile(b.circuit)
    info = transpiler.cache_info()
    assert info["entries"] == 1
    assert info["misses"] == 1 and info["hits"] == 1
    # The hit carries the caller's own circuit but identical resource numbers.
    assert second.logical_circuit is b.circuit
    assert second.reported_depth == first.reported_depth
    assert second.native_gate_counts == first.native_gate_counts
    assert second.routing == first.routing


def test_transpiler_cache_keys_cover_margin_defects_and_bindings():
    transpiler = Transpiler()
    ansatz = EfficientSU2(5, reps=1)
    transpiler.transpile(ansatz.circuit)
    transpiler.transpile(ansatz.circuit, margin=9)
    chain = transpiler.router.route(5, margin=5).physical_chain
    transpiler.transpile(ansatz.circuit, defective_qubits=(chain[1],))
    values = np.full(ansatz.num_parameters, 0.25)
    transpiler.transpile(ansatz.bound(values))
    transpiler.transpile(ansatz.bound(values * 2))
    assert transpiler.cache_info() == {
        "entries": 5, "hits": 0, "misses": 5, "max_entries": 128,
    }


"""Tests for the quantum substrate: gates, circuits, ansatz, simulators, backends."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import BackendError, CircuitError
from repro.quantum import mps as mps_module
from repro.quantum.ansatz import EfficientSU2
from repro.quantum.backend import AutoBackend, MPSBackend, StatevectorBackend, counts_from_samples
from repro.quantum.circuit import Parameter, QuantumCircuit
from repro.quantum.compiled import CompiledCircuit
from repro.quantum.gates import GATES, gate_matrix, ry_matrix, rz_matrix
from repro.quantum.mps import MPSSimulator, MPSState
from repro.quantum.statevector import StatevectorSimulator, outcome_bits

angles = st.floats(-np.pi, np.pi, allow_nan=False)


# -- gates --------------------------------------------------------------------------


def is_unitary(matrix: np.ndarray) -> bool:
    return bool(np.allclose(matrix.conj().T @ matrix, np.eye(matrix.shape[0]), atol=1e-10))


def test_all_fixed_gates_unitary():
    for name, matrix in GATES.items():
        assert is_unitary(matrix), name


@given(angles)
@settings(max_examples=30, deadline=None)
def test_rotation_gates_unitary(theta):
    for fn in (ry_matrix, rz_matrix):
        assert is_unitary(fn(theta))


def test_gate_matrix_parameter_validation():
    with pytest.raises(CircuitError):
        gate_matrix("ry")  # missing parameter
    with pytest.raises(CircuitError):
        gate_matrix("x", (0.3,))  # unexpected parameter
    with pytest.raises(CircuitError):
        gate_matrix("nosuchgate")


# -- circuits ------------------------------------------------------------------------


def test_circuit_qubit_validation():
    qc = QuantumCircuit(2)
    with pytest.raises(CircuitError):
        qc.cx(0, 5)
    with pytest.raises(CircuitError):
        qc.cx(1, 1)


def test_parameter_binding():
    qc = QuantumCircuit(1)
    theta = Parameter("theta")
    qc.ry(theta, 0)
    assert qc.num_parameters == 1
    bound = qc.bind([0.5])
    assert bound.is_bound
    with pytest.raises(CircuitError):
        qc.bind([])
    # the original circuit is untouched
    assert not qc.is_bound


# -- ansatz --------------------------------------------------------------------------


def test_efficient_su2_parameter_count():
    for n, reps in [(4, 1), (6, 2), (10, 1)]:
        ansatz = EfficientSU2(n, reps=reps)
        assert ansatz.num_parameters == 2 * n * (reps + 1)


def test_efficient_su2_linear_entanglement_is_nearest_neighbour():
    ansatz = EfficientSU2(5, reps=2)
    for inst in ansatz.circuit.instructions:
        if inst.name == "cx":
            assert abs(inst.qubits[0] - inst.qubits[1]) == 1


def test_efficient_su2_zero_params_gives_all_zero_state():
    ansatz = EfficientSU2(4, reps=1)
    state = StatevectorSimulator().run(ansatz.bound(np.zeros(ansatz.num_parameters)))
    probs = np.abs(state) ** 2
    assert probs[0] == pytest.approx(1.0)


# -- statevector simulator --------------------------------------------------------------


def _tensordot_statevector(circuit: QuantumCircuit) -> np.ndarray:
    """Reference evolution of a bound circuit: contract each gate into the
    rank-n state tensor with ``tensordot`` and move its output legs back into
    place.  The compiled plan replays this sequence and must equal it bit for
    bit."""
    n = circuit.num_qubits
    state = np.zeros((2,) * n, dtype=complex)
    state[(0,) * n] = 1.0
    for inst in circuit.instructions:
        if inst.name == "barrier":
            continue
        k = len(inst.qubits)
        gate = gate_matrix(inst.name, tuple(float(p) for p in inst.params)).reshape((2,) * (2 * k))
        moved = np.tensordot(gate, state, axes=(list(range(k, 2 * k)), list(inst.qubits)))
        state = np.moveaxis(moved, list(range(k)), list(inst.qubits))
    return state.reshape(-1)


def _tensordot_sample(circuit: QuantumCircuit, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Reference sampler: one ``rng.choice`` over the reference probabilities."""
    probs = np.abs(_tensordot_statevector(circuit)) ** 2
    probs /= probs.sum()
    return outcome_bits(rng.choice(probs.size, size=shots, p=probs), circuit.num_qubits)



def test_bell_state():
    qc = QuantumCircuit(2)
    qc.append("h", (0,)).cx(0, 1)
    probs = StatevectorSimulator().probabilities(qc)
    assert probs[0b00] == pytest.approx(0.5)
    assert probs[0b11] == pytest.approx(0.5)


def test_statevector_rejects_unbound():
    qc = QuantumCircuit(1)
    qc.ry(Parameter("t"), 0)
    with pytest.raises(BackendError):
        StatevectorSimulator().run(qc)


def test_statevector_qubit_limit():
    with pytest.raises(BackendError):
        StatevectorSimulator(max_qubits=3).run(QuantumCircuit(4, [ ]))


# -- MPS simulator ------------------------------------------------------------------------


def _mps_amplitude(state: MPSState, bits: str) -> complex:
    """Amplitude of one computational-basis state of an MPS."""
    vec = np.array([1.0 + 0j])
    for k, ch in enumerate(bits):
        vec = vec @ state.tensors[k][:, int(ch), :]
    return complex(vec[0])


def _mps_statevector(state: MPSState) -> np.ndarray:
    """Dense statevector of a small MPS (qubit 0 is the most significant bit)."""
    n = state.num_qubits
    return np.array([_mps_amplitude(state, format(i, f"0{n}b")) for i in range(2**n)])


def _mps_norm_squared(state: MPSState) -> float:
    """<psi|psi> of an MPS (1 up to truncation error)."""
    return float(np.real(state.right_environments()[0][0, 0]))


class _EinsumMPS:
    """Reference MPS kernel: the einsum contractions ``MPSState`` replaced.

    Gates are applied and shots drawn exactly as before the einsum-free
    kernel; ``MPSState`` must reproduce its tensors bit for bit, its
    environments to rounding, and its samples bit for bit.
    """

    def __init__(self, circuit: QuantumCircuit, max_bond_dimension: int):
        self.max_bond_dimension = max_bond_dimension
        self.tensors = [np.array([1.0, 0.0], dtype=complex).reshape(1, 2, 1)] * circuit.num_qubits
        for inst in circuit.instructions:
            matrix = gate_matrix(inst.name, tuple(float(p) for p in inst.params))
            if len(inst.qubits) == 1:
                q = inst.qubits[0]
                self.tensors[q] = np.einsum("ij,ajb->aib", matrix, self.tensors[q], optimize=True)
            else:
                self._apply_two(matrix, *inst.qubits)

    def _apply_two(self, matrix, q0, q1):
        left, right = (q0, q1) if q0 < q1 else (q1, q0)
        gate = matrix.reshape(2, 2, 2, 2)
        if q0 > q1:
            gate = gate.transpose(1, 0, 3, 2)
        a, b = self.tensors[left], self.tensors[right]
        chi_l, chi_r = a.shape[0], b.shape[2]
        theta = np.einsum("aib,bjc->aijc", a, b, optimize=True)
        theta = np.einsum("klij,aijc->aklc", gate, theta, optimize=True)
        u, s, vh = np.linalg.svd(theta.reshape(chi_l * 2, 2 * chi_r), full_matrices=False)
        keep = min(self.max_bond_dimension, int(np.count_nonzero(s > 1e-14)) or 1)
        u, s, vh = u[:, :keep], s[:keep], vh[:keep, :]
        self.tensors[left] = np.ascontiguousarray(u.reshape(chi_l, 2, keep))
        self.tensors[right] = np.ascontiguousarray((s[:, None] * vh).reshape(keep, 2, chi_r))

    def right_environments(self):
        envs = [np.array([[1.0 + 0j]])] * (len(self.tensors) + 1)
        for k in range(len(self.tensors) - 1, -1, -1):
            a = self.tensors[k]
            envs[k] = np.einsum("aib,bc,dic->ad", a, envs[k + 1], a.conj(), optimize=True)
        return envs

    def sample(self, shots, rng):
        envs = self.right_environments()
        samples = np.empty((shots, len(self.tensors)), dtype=np.uint8)
        vec = np.ones((shots, 1), dtype=complex)
        for k, a in enumerate(self.tensors):
            r = envs[k + 1]
            w0, w1 = vec @ a[:, 0, :], vec @ a[:, 1, :]
            p0 = np.clip(np.einsum("sc,cd,sd->s", w0, r, w0.conj(), optimize=True).real, 0.0, None)
            p1 = np.clip(np.einsum("sc,cd,sd->s", w1, r, w1.conj(), optimize=True).real, 0.0, None)
            total = p0 + p1
            total[total <= 0] = 1.0
            draws = (rng.random(shots) < p1 / total).astype(np.uint8)
            samples[:, k] = draws
            vec = np.where(draws[:, None].astype(bool), w1, w0)
        return samples


@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 13, 22, 40])
def test_mps_kernel_matches_einsum_reference(width):
    shots = 2000
    for reps in (1, 2, 3):
        ansatz = EfficientSU2(width, reps=reps)
        for bond in (1, 2, 3, 4, 8, 16):
            for seed in (0, 1):
                circuit = ansatz.bound(_random_values(ansatz.num_parameters, seed) * 2.5)
                state = MPSSimulator(max_bond_dimension=bond).run(circuit)
                reference = _EinsumMPS(circuit, bond)
                for ours, theirs in zip(state.tensors, reference.tensors):
                    assert np.array_equal(ours, theirs)
                for ours, theirs in zip(state.right_environments(), reference.right_environments()):
                    np.testing.assert_allclose(
                        ours, theirs, rtol=1e-12, atol=1e-12 * np.abs(theirs).max()
                    )
                assert np.array_equal(
                    state.sample(shots, np.random.default_rng(seed + 10)),
                    reference.sample(shots, np.random.default_rng(seed + 10)),
                )


def _unblocked_sample(state: MPSState, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Reference sweep: every shot in one pass, the sweep the shot-blocked
    ``MPSState.sample`` replaced."""
    envs = state.right_environments()
    samples = np.empty((shots, state.num_qubits), dtype=np.uint8)
    vec = np.ones((1, shots), dtype=complex)
    for k, a in enumerate(state.tensors):
        chi_l, _, chi_r = a.shape
        w = (a.reshape(chi_l, 2 * chi_r).T @ vec).reshape(2, chi_r, shots)
        p = np.empty((2, shots))
        for b in range(2):
            weighted = envs[k + 1].T @ w[b]
            weighted *= w[b].conj()
            p[b] = weighted.sum(axis=0).real
        p = np.clip(p, 0.0, None)
        total = p[0] + p[1]
        total[total <= 0] = 1.0
        draws = rng.random(shots) < p[1] / total
        samples[:, k] = draws
        vec = np.where(draws, w[1], w[0])
    return samples


@pytest.mark.parametrize("reps,chi", [(1, 2), (2, 4)])
def test_mps_shot_blocks_match_the_unblocked_sweep(reps, chi):
    ansatz = EfficientSU2(10, reps=reps)
    circuit = ansatz.bound(_random_values(ansatz.num_parameters, reps) * 2.5)
    state = MPSSimulator(max_bond_dimension=8).run(circuit)
    assert max(t.shape[2] for t in state.tensors) == chi
    block = mps_module.SHOT_BLOCK
    # Below one block, exactly two blocks, two blocks plus a remainder, and
    # a remainder of one shot (it joins the block before it).
    for shots in (1, 100, 2 * block, 2 * block + 100, 2 * block + 1):
        reference = _unblocked_sample(state, shots, np.random.default_rng(shots))
        assert np.array_equal(state.sample(shots, np.random.default_rng(shots)), reference)


@given(st.integers(2, 6), st.integers(0, 2), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_mps_matches_statevector_for_efficient_su2(n, reps, seed):
    rng = np.random.default_rng(seed)
    ansatz = EfficientSU2(n, reps=reps)
    circuit = ansatz.bound(rng.normal(size=ansatz.num_parameters))
    sv = StatevectorSimulator().run(circuit)
    mps = _mps_statevector(MPSSimulator(max_bond_dimension=16).run(circuit))
    fidelity = abs(np.vdot(sv, mps)) ** 2
    assert fidelity == pytest.approx(1.0, abs=1e-8)


def test_mps_norm_preserved():
    ansatz = EfficientSU2(30, reps=1)
    rng = np.random.default_rng(0)
    state = MPSSimulator(max_bond_dimension=8).run(ansatz.bound(rng.normal(size=ansatz.num_parameters)))
    assert _mps_norm_squared(state) == pytest.approx(1.0, abs=1e-6)


def test_mps_rejects_non_adjacent_two_qubit_gate():
    qc = QuantumCircuit(3)
    qc.append("h", (0,)).cx(0, 2)
    with pytest.raises(BackendError):
        MPSSimulator().run(qc)


def test_mps_sampling_distribution_on_product_state():
    # RY(pi) flips qubit 0 deterministically; qubit 1 stays 0.
    qc = QuantumCircuit(2)
    qc.ry(np.pi, 0)
    samples = MPSSimulator().run(qc).sample(200, np.random.default_rng(0))
    assert np.all(samples[:, 0] == 1)
    assert np.all(samples[:, 1] == 0)


def test_mps_scales_to_100_qubits():
    ansatz = EfficientSU2(102, reps=1)
    rng = np.random.default_rng(1)
    samples = MPSSimulator(max_bond_dimension=8).run(
        ansatz.bound(rng.normal(scale=0.3, size=ansatz.num_parameters))
    ).sample(32, rng)
    assert samples.shape == (32, 102)


# -- backends -----------------------------------------------------------------------------


def test_counts_from_samples():
    samples = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
    counts = counts_from_samples(samples)
    assert counts == {"01": 2, "10": 1}


@pytest.mark.parametrize("width", [1, 22, 63, 64])
def test_counts_from_samples_matches_row_unique_reference(width):
    rng = np.random.default_rng(width)
    # Few distinct rows with many repeats, plus the all-ones row (the largest
    # packed code) and the all-zeros row.
    base = rng.integers(0, 2, size=(40, width), dtype=np.uint8)
    base[0], base[1] = 1, 0
    samples = base[rng.integers(0, len(base), size=5000)]
    rows, freqs = np.unique(samples, axis=0, return_counts=True)
    reference = {"".join(map(str, row)): int(freq) for row, freq in zip(rows, freqs)}
    counts = counts_from_samples(samples)
    assert list(counts.items()) == list(reference.items())


def test_backends_agree_statistically():
    ansatz = EfficientSU2(4, reps=1)
    values = np.random.default_rng(2).normal(size=ansatz.num_parameters)
    means = [
        backend.sample_parameterised(ansatz.circuit, values, 4000, np.random.default_rng(seed)).mean(axis=0)
        for backend, seed in ((StatevectorBackend(), 3), (MPSBackend(), 4))
    ]
    assert np.allclose(*means, atol=0.06)


@pytest.mark.parametrize(
    "backend,bond",
    [(MPSBackend(max_bond_dimension=4), 4), (AutoBackend(max_statevector_qubits=6), 16)],
    ids=["mps", "auto"],
)
def test_mps_sample_parameterised_matches_sampling_the_bound_circuit(backend, bond):
    ansatz = EfficientSU2(9, reps=2)
    for seed in range(3):
        values = _random_values(ansatz.num_parameters, seed) * 2.5
        planned = backend.sample_parameterised(ansatz.circuit, values, 500, np.random.default_rng(seed))
        state = MPSSimulator(max_bond_dimension=bond).run(ansatz.circuit.bind(values))
        assert np.array_equal(planned, state.sample(500, np.random.default_rng(seed)))
    assert backend.plan_cache_info()["entries"] == 1
    assert backend.plan_cache_info()["hits"] == 2


def test_auto_backend_selection():
    auto = AutoBackend(max_statevector_qubits=6)
    assert auto.chosen_backend(QuantumCircuit(4)) == "statevector"
    assert auto.chosen_backend(QuantumCircuit(40)) == "mps"


# -- compiled plans -----------------------------------------------------------------------


def _random_values(num, seed):
    return np.random.default_rng(seed).normal(scale=0.4, size=num)


@pytest.mark.parametrize("width,reps", [(2, 1), (3, 1), (4, 2), (6, 2)])
def test_compiled_statevector_bit_identical_to_simulator(width, reps):
    ansatz = EfficientSU2(width, reps=reps)
    plan = CompiledCircuit(ansatz.circuit)
    simulator = StatevectorSimulator()
    for seed in range(3):
        values = _random_values(ansatz.num_parameters, seed)
        reference = _tensordot_statevector(ansatz.bound(values))
        assert np.array_equal(plan.statevector(values), reference)
        assert np.array_equal(simulator.run(ansatz.bound(values)), reference)


def test_compiled_sample_matches_simulator_rng_stream():
    ansatz = EfficientSU2(4, reps=2)
    plan = StatevectorSimulator().compile(ansatz.circuit)
    values = _random_values(ansatz.num_parameters, 7)
    direct = _tensordot_sample(ansatz.bound(values), 64, np.random.default_rng(9))
    replay = plan.sample(values, 64, np.random.default_rng(9))
    assert np.array_equal(direct, replay)


@pytest.mark.parametrize("width", [1, 5, 16, 24])
def test_outcome_bits_match_the_broadcast_expansion(width):
    outcomes = np.random.default_rng(width).integers(0, 2**width, size=3000)
    outcomes[:2] = 0, 2**width - 1
    expected = ((outcomes[:, None] >> np.arange(width - 1, -1, -1)) & 1).astype(np.uint8)
    bits = outcome_bits(outcomes, width)
    assert bits.dtype == np.uint8
    assert np.array_equal(bits, expected)


def test_compiled_handles_fixed_and_parameterised_gates():
    theta = Parameter("theta")
    circuit = QuantumCircuit(2)
    circuit.append("h", (0,)).ry(theta, 0).cx(0, 1).rz(0.3, 1).append("x", (1,))
    plan = CompiledCircuit(circuit)
    assert len(plan) == 5  # barriers excluded, everything else compiled
    values = [0.8]
    assert np.array_equal(plan.statevector(values), _tensordot_statevector(circuit.bind(values)))


def test_compiled_circuit_errors():
    wide = EfficientSU2(6, reps=1)
    with pytest.raises(BackendError):
        CompiledCircuit(wide.circuit, max_qubits=4)
    bogus = QuantumCircuit(2)
    bogus.append("crx", (0, 1), (Parameter("t"),))
    with pytest.raises(CircuitError):
        CompiledCircuit(bogus)
    plan = CompiledCircuit(EfficientSU2(3, reps=1).circuit)
    with pytest.raises(CircuitError):
        plan.statevector([0.1])  # wrong parameter count
    with pytest.raises(BackendError):
        plan.sample(np.zeros(plan.num_parameters), 0, np.random.default_rng(0))


def test_structure_key_shared_across_template_instances():
    from repro.quantum.compiled import circuit_structure_key

    a = EfficientSU2(4, reps=2).circuit
    b = EfficientSU2(4, reps=2).circuit
    assert circuit_structure_key(a) == circuit_structure_key(b)
    assert circuit_structure_key(a) != circuit_structure_key(EfficientSU2(4, reps=1).circuit)
    # Bound parameter values are part of the key.
    values = _random_values(a.num_parameters, 1)
    assert circuit_structure_key(a.bind(values)) != circuit_structure_key(a.bind(values * 0.5))


def test_structure_key_memo_invalidated_by_append():
    from repro.quantum.compiled import circuit_structure_key

    circuit = QuantumCircuit(2).append("h", (0,)).cx(0, 1)
    key = circuit_structure_key(circuit)
    assert circuit_structure_key(circuit) == key  # memo hit
    circuit.append("x", (1,))
    grown = circuit_structure_key(circuit)
    assert grown != key
    assert len(grown) == len(key) + 1


def test_backend_plan_cache_shared_across_instances():
    backend = StatevectorBackend()
    shots, rng_seed = 32, 11
    a, b = EfficientSU2(4, reps=1), EfficientSU2(4, reps=1)
    values = _random_values(a.num_parameters, 3)
    first = backend.sample_parameterised(a.circuit, values, shots, np.random.default_rng(rng_seed))
    second = backend.sample_parameterised(b.circuit, values, shots, np.random.default_rng(rng_seed))
    assert np.array_equal(first, second)
    info = backend.plan_cache_info()
    assert info["entries"] == 1
    assert info["misses"] == 1 and info["hits"] == 1


def test_sample_parameterised_matches_sampling_the_bound_circuit():
    backend = StatevectorBackend()
    ansatz = EfficientSU2(5, reps=2)
    values = _random_values(ansatz.num_parameters, 4)
    compiled = backend.sample_parameterised(ansatz.circuit, values, 48, np.random.default_rng(2))
    bound = _tensordot_sample(ansatz.circuit.bind(values), 48, np.random.default_rng(2))
    assert np.array_equal(compiled, bound)
    assert backend.plan_cache_info()["entries"] == 1


@pytest.mark.parametrize("backend", [StatevectorBackend, MPSBackend, AutoBackend])
def test_sample_parameterised_rejects_a_structure_the_plan_compiler_rejects(backend):
    backend = backend()
    ansatz = EfficientSU2(3, reps=1)
    backend.sample_parameterised(ansatz.circuit, np.zeros(ansatz.num_parameters), 8,
                                 np.random.default_rng(0))
    two_free = QuantumCircuit(2).append("ry", (0,), (Parameter("a"), Parameter("b")))
    for _ in range(2):  # nothing is cached for it, so it raises every time
        with pytest.raises(CircuitError, match="instruction 'ry'"):
            backend.sample_parameterised(two_free, [0.1, 0.2], 8, np.random.default_rng(0))
    assert backend.plan_cache_info()["entries"] == 1

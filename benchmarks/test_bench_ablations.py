"""Ablation benchmarks for the design choices called out in DESIGN.md.

These are not paper figures; they quantify the internal design decisions so a
downstream user can see what each piece buys:

* CVaR objective vs plain expectation in the stage-1 optimisation;
* quantum (VQE sampling) vs exact classical solver on the same Hamiltonian;
* the ancilla-margin strategy's effect on SWAP counts under injected defects;
* MPS bond-dimension sweep (accuracy of the sampled distribution).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.hardware.routing import LinearChainRouter
from repro.lattice.classical import ClassicalFoldingSolver
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.ansatz import EfficientSU2
from repro.quantum.mps import MPSSimulator
from repro.quantum.statevector import StatevectorSimulator
from repro.vqe.vqe import VQE

_SEQUENCE = "EDACQGDSGG"  # 2bok / 2vwo fragment (10 residues)


def test_bench_cvar_vs_mean_objective(benchmark):
    """CVaR-VQE reaches a lower best-sampled energy than the plain-mean objective."""
    hamiltonian = LatticeHamiltonian(_SEQUENCE)

    def run(alpha: float) -> float:
        config = PipelineConfig(
            vqe_iterations=20, optimisation_shots=128, final_shots=1024, cvar_alpha=alpha, seed=3
        )
        return VQE(hamiltonian, config=config, seed=3).run().best_conformation.energy

    cvar_energy = benchmark(run, 0.2)
    mean_energy = run(1.0)
    print(f"\nbest decoded energy: CVaR(0.2)={cvar_energy:.2f}  mean objective={mean_energy:.2f}")
    assert cvar_energy <= mean_energy + 1e-6


def test_bench_quantum_vs_classical_solver(benchmark):
    """The sampled VQE solution approaches the exact classical ground state."""
    hamiltonian = LatticeHamiltonian(_SEQUENCE)
    exact = ClassicalFoldingSolver(hamiltonian).solve_exact()

    def run() -> float:
        config = PipelineConfig(vqe_iterations=20, optimisation_shots=128, final_shots=2048, seed=5)
        return VQE(hamiltonian, config=config, seed=5).run().best_conformation.energy

    sampled = benchmark(run)
    gap = (sampled - exact.energy) / abs(exact.energy)
    print(f"\nexact={exact.energy:.2f} sampled={sampled:.2f} relative gap={gap:.4f}")
    assert gap < 0.05  # within 5% of the exact ground state


def test_bench_margin_strategy_swaps(benchmark):
    """Sec. 5.3: extra ancilla qubits reduce routing SWAPs when defects are present."""
    router = LinearChainRouter()
    chain = router.route(60, margin=10).physical_chain
    defects = tuple(chain[i] for i in (7, 19, 33))

    def run():
        return (
            router.route(60, margin=0, defective_qubits=defects).swap_count,
            router.route(60, margin=10, defective_qubits=defects).swap_count,
        )

    without_margin, with_margin = benchmark(run)
    print(f"\nSWAPs without margin: {without_margin}, with 10-qubit margin: {with_margin}")
    assert with_margin <= without_margin


@pytest.mark.parametrize("bond_dim", [2, 4, 8])
def test_bench_mps_bond_dimension(benchmark, bond_dim):
    """Sampling fidelity of the MPS backend vs the exact simulator across bond dimensions."""
    ansatz = EfficientSU2(10, reps=2)
    rng = np.random.default_rng(0)
    circuit = ansatz.bound(rng.normal(size=ansatz.num_parameters))
    exact_probs = StatevectorSimulator().probabilities(circuit)

    # Use total-variation distance on probabilities, which is well defined even
    # when truncation breaks global phase alignment.
    def tv_distance() -> float:
        # Dense amplitudes of the MPS: contract the sites left to right.
        amps = np.ones((1, 1), dtype=complex)
        for tensor in MPSSimulator(max_bond_dimension=bond_dim).run(circuit).tensors:
            amps = (amps @ tensor.reshape(tensor.shape[0], -1)).reshape(-1, tensor.shape[2])
        p = np.abs(amps[:, 0]) ** 2
        p = p / p.sum()
        return float(0.5 * np.abs(p - exact_probs).sum())

    distance = benchmark(tv_distance)
    print(f"\nbond dimension {bond_dim}: total-variation distance to exact = {distance:.4f}")
    # Accuracy improves monotonically with bond dimension and is exact at chi=8
    # for the reps=2 linear EfficientSU2 circuit.
    assert distance < (0.8 if bond_dim == 2 else 0.4)
    if bond_dim >= 8:
        assert distance < 1e-6

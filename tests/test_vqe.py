"""Tests for the VQE framework: expectation estimation, optimisers, the two-stage driver."""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.exceptions import VQEError
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.lattice.classical import ClassicalFoldingSolver
from repro.quantum.backend import MPSBackend
from repro.vqe.expectation import DiagonalExpectation
from repro.vqe.optimizer import CobylaOptimizer
from repro.vqe.vqe import VQE


# -- expectation -----------------------------------------------------------------


def test_expectation_cache_grows_once_per_unique_config():
    h = LatticeHamiltonian("ACDEF")
    exp = DiagonalExpectation(h)
    samples = np.array([[1, 0, 0, 1]] * 3, dtype=np.uint8)  # turns 0, 1, 2, 1
    exp.per_shot_energies(samples)
    exp.per_shot_energies(samples)
    assert exp.cache_info() == {"entries": 1, "hits": 1, "misses": 1}


def test_cvar_below_or_equal_mean():
    h = LatticeHamiltonian("PWWERYQP")
    exp = DiagonalExpectation(h)
    rng = np.random.default_rng(0)
    samples = rng.integers(0, 2, size=(200, h.encoding.configuration_qubits)).astype(np.uint8)
    mean = exp.per_shot_energies(samples).mean()
    cvar = exp.cvar_from_samples(samples, alpha=0.1)
    assert cvar <= mean + 1e-9
    assert exp.cvar_from_samples(samples, alpha=1.0) == pytest.approx(mean)


def test_configuration_register_wider_than_a_packed_code_is_refused():
    widest = LatticeHamiltonian("A" * 34)
    assert DiagonalExpectation(widest).encoding.configuration_qubits == 62
    too_wide = LatticeHamiltonian("A" * 35)
    assert too_wide.encoding.configuration_qubits == 64
    with pytest.raises(VQEError, match="34 residues"):
        DiagonalExpectation(too_wide)
    with pytest.raises(VQEError, match="34 residues"):
        VQE(too_wide, backend=MPSBackend())


def test_cvar_alpha_validation():
    h = LatticeHamiltonian("ACDEF")
    exp = DiagonalExpectation(h)
    with pytest.raises(VQEError):
        exp.cvar_from_samples(np.zeros((4, h.encoding.configuration_qubits), dtype=np.uint8), alpha=0.0)


# -- optimisers -------------------------------------------------------------------


def test_cobyla_minimises_quadratic():
    result = CobylaOptimizer(max_iterations=80).minimize(lambda x: float(np.sum((x - 1.5) ** 2)), np.zeros(3))
    assert result.optimal_value < 0.05
    assert result.iterations > 0
    assert result.lowest_value <= result.highest_value


def test_optimizer_history_tracks_range():
    result = CobylaOptimizer(max_iterations=30).minimize(lambda x: float(np.sum(x**2)), np.ones(2) * 3)
    assert result.highest_value >= result.optimal_value >= result.lowest_value


# -- VQE driver ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_vqe_result(tiny_config_module):
    h = LatticeHamiltonian("RYRDV")
    vqe = VQE(h, config=tiny_config_module, seed=3)
    return h, vqe, vqe.run()


@pytest.fixture(scope="module")
def tiny_config_module():
    return PipelineConfig(
        vqe_iterations=10, optimisation_shots=64, final_shots=256, docking_seeds=2,
        docking_poses=3, docking_mc_steps=30, seed=7,
    )


def test_vqe_result_metadata_fields(small_vqe_result):
    h, vqe, result = small_vqe_result
    assert result.num_qubits == 12  # 5-residue fragment => 12 qubits (paper table)
    assert result.circuit_depth == 4 * 12 + 5
    assert result.lowest_energy <= result.highest_energy
    assert result.best_conformation is not None
    meta = result.metadata()
    assert meta["qubits"] == 12
    assert meta["energy_range"] == pytest.approx(result.energy_range)


def test_vqe_finds_ground_state_of_small_fragment(small_vqe_result):
    h, vqe, result = small_vqe_result
    exact = ClassicalFoldingSolver(h).solve_exact()
    assert result.best_conformation.energy == pytest.approx(exact.energy, rel=1e-6)


def test_vqe_is_deterministic_given_seed(tiny_config_module):
    h = LatticeHamiltonian("DGPHGM")
    r1 = VQE(h, config=tiny_config_module, seed=11).run()
    r2 = VQE(h, config=tiny_config_module, seed=11).run()
    assert r1.best_conformation.turns == r2.best_conformation.turns
    assert r1.optimal_energy == pytest.approx(r2.optimal_energy)


def test_vqe_register_validation(tiny_config_module):
    h = LatticeHamiltonian("RYRDV")
    with pytest.raises(VQEError):
        VQE(h, config=tiny_config_module, register="bogus")


def test_effective_final_shots_scales_with_length(tiny_config_module):
    small = VQE(LatticeHamiltonian("RYRDV"), config=tiny_config_module)
    large = VQE(LatticeHamiltonian("DYLEAYGKGGVKAK"), config=tiny_config_module)
    assert large.effective_final_shots() > small.effective_final_shots()
    assert large.effective_final_shots() <= tiny_config_module.max_final_shots


# -- expectation grouping ----------------------------------------------------------------


def test_packed_grouping_matches_row_unique():
    h = LatticeHamiltonian("PWWERYQP")
    exp = DiagonalExpectation(h)
    width = h.encoding.configuration_qubits
    assert width <= 63  # the packed path is in play
    rng = np.random.default_rng(4)
    samples = rng.integers(0, 2, size=(128, width + 2)).astype(np.uint8)
    energies, inverse, counts = exp._unique_config_energies(samples)
    ref_uniq, ref_inverse, ref_counts = np.unique(
        samples[:, :width], axis=0, return_inverse=True, return_counts=True
    )
    ref_energies = np.array([
        h.energies(h.encoding.turns_from_codes([int("".join(map(str, row)), 2)]))[0]
        for row in ref_uniq
    ])
    assert np.array_equal(energies, ref_energies)
    assert np.array_equal(inverse, np.ravel(ref_inverse))
    assert np.array_equal(counts, ref_counts)
    assert np.array_equal(energies[inverse], exp.per_shot_energies(samples))


def test_vqe_result_surfaces_cache_info(small_vqe_result):
    h, vqe, result = small_vqe_result
    info = result.expectation_cache
    assert info is not None
    assert info["entries"] >= 1
    assert info["hits"] + info["misses"] >= info["entries"]
    # Diagnostics only: the cache counters never enter the reproducible metadata.
    assert "expectation_cache" not in result.metadata()

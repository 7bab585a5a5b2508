"""Tests for the Eagle hardware models: topology, routing, timing, cost."""

import pytest

from repro.exceptions import TranspilerError
from repro.hardware.cost import CostModel
from repro.hardware.coupling import EAGLE_QUBITS, heavy_hex_coupling_map, longest_chain, snake_path
from repro.hardware.routing import LinearChainRouter
from repro.hardware.timing import ExecutionSettings, ExecutionTimeModel


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

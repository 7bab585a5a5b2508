"""Tests for the tetrahedral lattice, encoding, Hamiltonian, decoder and solvers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dataset.fragments import PAPER_FRAGMENTS
from repro.exceptions import EncodingError, HamiltonianError, LatticeError
from repro.lattice.classical import ClassicalFoldingSolver
from repro.lattice.decoder import ConformationDecoder
from repro.lattice.encoding import (
    FragmentEncoding,
    circuit_depth_for_qubits,
    qubit_count_for_length,
)
from repro.lattice.hamiltonian import HamiltonianWeights, LatticeHamiltonian, encoding_offset
from repro.lattice.reconstruction import reconstruct_structure
from repro.lattice.tetrahedral import CA_VIRTUAL_BOND, turns_to_coords

from _support import codes_of

turn_lists = st.lists(st.integers(0, 3), min_size=2, max_size=13)


# -- lattice geometry ------------------------------------------------------------


@given(turn_lists)
@settings(max_examples=50, deadline=None)
def test_turns_to_coords_bond_lengths(turns):
    coords = turns_to_coords(turns)
    steps = np.diff(coords, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    assert np.allclose(lengths, CA_VIRTUAL_BOND, atol=1e-9)


@given(turn_lists)
@settings(max_examples=50, deadline=None)
def test_tetrahedral_bond_angle(turns):
    coords = turns_to_coords(turns)
    if coords.shape[0] < 3:
        return
    v1 = coords[1:-1] - coords[:-2]
    v2 = coords[2:] - coords[1:-1]
    cos = np.einsum("ij,ij->i", v1, v2) / (CA_VIRTUAL_BOND**2)
    # On the diamond lattice consecutive steps either reverse (cos = -1,
    # backtracking) or form the tetrahedral angle (cos = +1/3).
    assert np.all((np.abs(cos - 1.0 / 3.0) < 1e-9) | (np.abs(cos + 1.0) < 1e-9))


def test_backtracking_detection():
    h = LatticeHamiltonian("ACD")
    terms = h.terms(np.array([[0, 0], [0, 1]]))
    assert terms[0, 1] > 0.0 == terms[1, 1]  # geometric: an immediate reversal
    assert terms[0, 2] > 0.0 == terms[1, 2]  # clash: residues 0 and 2 share a site


def test_invalid_turns_raise():
    with pytest.raises(LatticeError):
        turns_to_coords([0, 5])
    with pytest.raises(LatticeError):
        turns_to_coords([])


# -- encoding / resource model ----------------------------------------------------


def test_qubit_table_matches_paper_for_all_55_fragments():
    for fragment in PAPER_FRAGMENTS:
        enc = FragmentEncoding.for_sequence(fragment.sequence)
        assert enc.total_qubits == fragment.paper.qubits, fragment.pdb_id
        assert enc.circuit_depth == fragment.paper.depth, fragment.pdb_id


def test_depth_formula():
    for q in (12, 23, 38, 46, 54, 63, 72, 82, 92, 102):
        assert circuit_depth_for_qubits(q) == 4 * q + 5


def test_qubit_count_monotone_in_length():
    counts = [qubit_count_for_length(n) for n in range(5, 20)]
    assert counts == sorted(counts)


def test_encoding_roundtrip_bits_turns():
    enc = FragmentEncoding.for_sequence("EDACQGDSGG")
    turns = [[0, 1, 2, 3, 0, 1, 2, 3, 2], [0, 1, 0, 0, 3, 3, 1, 2, 1]]
    assert enc.turns_from_codes(codes_of(turns)).tolist() == turns


def test_encoding_invalid_length():
    with pytest.raises(EncodingError):
        qubit_count_for_length(1)


# -- Hamiltonian --------------------------------------------------------------------


def test_energy_offset_increases_with_qubits():
    assert encoding_offset(102) > encoding_offset(63) > encoding_offset(12) > 0


def test_hamiltonian_penalises_overlap_and_backtracking():
    h = LatticeHamiltonian("ACDEF")
    good, bad = [0, 1, 2, 1], [0, 1, 1, 1]
    terms = h.terms(np.array([good, bad]))
    energies = h.total(terms)
    assert energies[1] > energies[0]
    assert ((terms[:, 1] == 0.0) & (terms[:, 2] == 0.0)).tolist() == [True, False]


def test_hamiltonian_breakdown_consistency():
    h = LatticeHamiltonian("EDACQGDSGG")
    turns = np.array([[0, 1, 2, 3, 0, 1, 2, 3, 2]])
    terms = h.terms(turns)
    assert terms.shape == (1, 4)
    assert h.energies(turns)[0] == pytest.approx(terms.sum() + h.offset)


def test_hamiltonian_weights_scale_terms():
    turns = np.array([[0, 1, 1, 1]])  # has geometric violations
    base = LatticeHamiltonian("ACDEF").terms(turns)[0]
    doubled = LatticeHamiltonian("ACDEF", HamiltonianWeights(geometric=2.0)).terms(turns)[0]
    assert doubled[1] == pytest.approx(2.0 * base[1])


def test_hamiltonian_wrong_turn_count_raises():
    with pytest.raises(HamiltonianError):
        LatticeHamiltonian("ACDEF").terms(np.array([[0, 1]]))


# -- decoder -----------------------------------------------------------------------


def test_decoder_prefers_valid_low_energy():
    h = LatticeHamiltonian("ACDEF")
    bad, good = codes_of([[0, 1, 1, 1], [0, 1, 2, 1]])
    best = ConformationDecoder(h).decode_counts((np.array([bad, good]), np.array([100, 1])))
    assert best.valid
    assert best.turns == (0, 1, 2, 1)
    assert best.bitstring == format(int(good), f"0{h.encoding.configuration_qubits}b")


def test_decoder_empty_counts_raise():
    h = LatticeHamiltonian("ACDEF")
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(LatticeError):
        ConformationDecoder(h).decode_counts((empty, empty))


# -- classical solver -----------------------------------------------------------------


def test_exact_solver_finds_valid_ground_state():
    h = LatticeHamiltonian("RYRDV")
    result = ClassicalFoldingSolver(h).solve()
    assert result.exact
    terms = h.terms(np.array([result.turns]))
    assert terms[0, 1] == 0.0 and terms[0, 2] == 0.0
    # No sampled conformation can beat the exhaustive ground state.
    rng = np.random.default_rng(0)
    samples = np.concatenate([np.tile([0, 1], (50, 1)), rng.integers(0, 4, size=(50, 2))], axis=1)
    assert np.all(h.energies(samples) >= result.energy - 1e-9)


def test_annealing_close_to_exact_on_small_fragment():
    h = LatticeHamiltonian("PWWERYQP")
    solver = ClassicalFoldingSolver(h)
    exact = solver.solve_exact()
    annealed = solver.solve_annealing(seed=1, sweeps=300)
    assert annealed.energy <= exact.energy * 1.02 + 1.0


def test_solver_deterministic():
    h = LatticeHamiltonian("EDACQGDSGG")
    a = ClassicalFoldingSolver(h).solve_annealing(seed=5, sweeps=100)
    b = ClassicalFoldingSolver(h).solve_annealing(seed=5, sweeps=100)
    assert a.turns == b.turns


# -- reconstruction -------------------------------------------------------------------


def test_reconstruct_structure_centres_and_preserves_sequence():
    h = LatticeHamiltonian("RYRDV")
    result = ClassicalFoldingSolver(h).solve()
    structure = reconstruct_structure("RYRDV", result.ca_coords)
    assert structure.sequence == "RYRDV"
    assert np.allclose(structure.all_coords().mean(axis=0), 0.0, atol=1e-9)


def test_reconstruct_jitter_requires_rng():
    from repro.exceptions import StructureError

    with pytest.raises(StructureError):
        reconstruct_structure("RYRDV", turns_to_coords([0, 1, 2, 1]), jitter=0.5)

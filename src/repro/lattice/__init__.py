"""Coarse-grained tetrahedral-lattice protein model and its quantum encoding."""

from repro.lattice.tetrahedral import (
    CA_VIRTUAL_BOND,
    turns_to_coords,
)
from repro.lattice.encoding import FragmentEncoding, qubit_count_for_length, circuit_depth_for_qubits
from repro.lattice.hamiltonian import HamiltonianWeights, LatticeHamiltonian
from repro.lattice.decoder import ConformationDecoder, DecodedConformation
from repro.lattice.reconstruction import reconstruct_structure
from repro.lattice.classical import ClassicalFoldingSolver

__all__ = [
    "CA_VIRTUAL_BOND",
    "turns_to_coords",
    "FragmentEncoding",
    "qubit_count_for_length",
    "circuit_depth_for_qubits",
    "HamiltonianWeights",
    "LatticeHamiltonian",
    "ConformationDecoder",
    "DecodedConformation",
    "reconstruct_structure",
    "ClassicalFoldingSolver",
]

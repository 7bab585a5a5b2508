"""Molecular-biology substrate: amino acids, sequences, structures, PDB I/O, RMSD.

The synthetic "experimental reference" generator lives in
:mod:`repro.bio.reference`; it is not re-exported here because it depends on
the lattice model package (imported lazily to keep the package import graph
acyclic).
"""

from repro.bio.amino_acids import (
    AMINO_ACIDS,
    AminoAcid,
    one_to_three,
    three_to_one,
)
from repro.bio.sequence import ProteinSequence
from repro.bio.geometry import (
    kabsch_rotation,
    superimpose,
    rotation_matrix,
)
from repro.bio.structure import Atom, Residue, Chain, Structure
from repro.bio.pdb import write_pdb, read_pdb, structure_to_pdb_string
from repro.bio.rmsd import rmsd, ca_rmsd, rmsd_without_superposition
from repro.bio.miyazawa_jernigan import MJ_MATRIX

__all__ = [
    "AMINO_ACIDS",
    "AminoAcid",
    "one_to_three",
    "three_to_one",
    "ProteinSequence",
    "kabsch_rotation",
    "superimpose",
    "rotation_matrix",
    "Atom",
    "Residue",
    "Chain",
    "Structure",
    "write_pdb",
    "read_pdb",
    "structure_to_pdb_string",
    "rmsd",
    "ca_rmsd",
    "rmsd_without_superposition",
    "MJ_MATRIX",
]

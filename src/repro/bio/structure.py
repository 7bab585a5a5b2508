"""Hierarchical molecular structure model: Structure > Chain > Residue > Atom.

A deliberately small, NumPy-friendly object model: coordinates live in plain
float arrays, residues know their one-letter type, and the whole hierarchy can
be flattened to an ``(N, 3)`` coordinate array for the vectorised kernels
(RMSD, docking grids) without copying atom-by-atom in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.bio.amino_acids import one_to_three, three_to_one
from repro.exceptions import StructureError


@dataclass
class Atom:
    """A single atom with a name, element, coordinates and partial charge."""

    name: str
    element: str
    coords: np.ndarray
    charge: float = 0.0
    occupancy: float = 1.0
    b_factor: float = 0.0

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float).reshape(3)
        if not np.isfinite(self.coords).all():
            raise StructureError(f"atom {self.name!r} has non-finite coordinates")



@dataclass
class Residue:
    """A residue: one-letter type, sequence number, and its atoms."""

    code: str
    seq_id: int
    atoms: list[Atom] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.code = self.code.upper()
        # Accept three-letter codes transparently.
        if len(self.code) == 3:
            self.code = three_to_one(self.code)

    @property
    def three(self) -> str:
        """Three-letter residue name."""
        return one_to_three(self.code)

    def atom(self, name: str) -> Atom:
        """Return the atom with the given name, raising if absent."""
        for a in self.atoms:
            if a.name == name:
                return a
        raise StructureError(f"residue {self.three}{self.seq_id} has no atom {name!r}")

    @property
    def ca(self) -> Atom:
        """The alpha-carbon atom."""
        return self.atom("CA")


@dataclass
class Chain:
    """A chain of residues."""

    chain_id: str = "A"
    residues: list[Residue] = field(default_factory=list)

    @property
    def sequence(self) -> str:
        """One-letter sequence of the chain."""
        return "".join(r.code for r in self.residues)


@dataclass
class Structure:
    """A complete (fragment) structure with one or more chains."""

    structure_id: str = "FRAG"
    chains: list[Chain] = field(default_factory=list)

    # -- accessors -------------------------------------------------------------

    @property
    def residues(self) -> list[Residue]:
        """All residues across chains, in order."""
        out: list[Residue] = []
        for chain in self.chains:
            out.extend(chain.residues)
        return out

    @property
    def atoms(self) -> list[Atom]:
        """All atoms across residues, in order."""
        out: list[Atom] = []
        for res in self.residues:
            out.extend(res.atoms)
        return out

    @property
    def sequence(self) -> str:
        """Concatenated one-letter sequence."""
        return "".join(c.sequence for c in self.chains)

    def ca_coords(self) -> np.ndarray:
        """(L, 3) array of alpha-carbon coordinates."""
        coords = [r.ca.coords for r in self.residues]
        if not coords:
            raise StructureError("structure has no residues")
        return np.array(coords)

    def all_coords(self) -> np.ndarray:
        """(N, 3) array of every atom coordinate."""
        atoms = self.atoms
        if not atoms:
            raise StructureError("structure has no atoms")
        return np.array([a.coords for a in atoms])

    # -- transforms ------------------------------------------------------------

    def translate(self, vector: Iterable[float]) -> "Structure":
        """Translate every atom in place by ``vector``; returns self."""
        v = np.asarray(list(vector), dtype=float).reshape(3)
        for atom in self.atoms:
            atom.coords += v
        return self

    def center(self) -> "Structure":
        """Translate the structure so its centroid is at the origin; returns self."""
        coords = self.all_coords()
        return self.translate(-coords.mean(axis=0))

"""Ligand representation and the synthetic native-ligand generator.

The paper docks every fragment against "its experimentally identified ligand
from the PDBbind dataset" (Sec. 6.2).  Those ligands cannot be shipped
offline, so :class:`SyntheticLigandGenerator` builds, per PDB entry, a small
molecule that is *complementary to the reference pocket*: its atoms sit at
favourable contact distances from the reference fragment's surface atoms, with
polarity chosen to pair donors with acceptors and hydrophobes with
hydrophobes.  This reproduces the property the paper's evaluation relies on —
a predicted receptor that matches the experimental geometry docks the native
ligand better than one that does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.reference import ReferenceRecord
from repro.exceptions import DockingError
from repro.utils.rng import rng_for

#: Van-der-Waals radii (Å) by element for the scoring function.
VDW_RADII: dict[str, float] = {"C": 1.9, "N": 1.8, "O": 1.7, "S": 2.0, "H": 1.2, "P": 2.1}


@dataclass
class Ligand:
    """A rigid small molecule described by typed atoms.

    Attributes
    ----------
    name:
        Identifier (usually ``<pdb_id>_ligand``).
    coords:
        (N, 3) atom coordinates in Angstroms.
    elements:
        Element symbol per atom.
    hydrophobic, donor, acceptor:
        Boolean per-atom typing flags consumed by the scoring function.
    charges:
        Partial charges per atom.
    num_rotatable_bonds:
        Torsional degrees of freedom (enters Vina's entropy penalty).
    anchor:
        Reference point used when re-centring the ligand for docking (defaults
        to the centroid).  The synthetic generator sets it to the pocket seed
        so that "identity orientation at the receptor's pocket centre" is the
        near-native pose.
    """

    name: str
    coords: np.ndarray
    elements: list[str]
    hydrophobic: np.ndarray
    donor: np.ndarray
    acceptor: np.ndarray
    charges: np.ndarray
    num_rotatable_bonds: int = 0
    anchor: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=float)
        n = self.coords.shape[0]
        if self.coords.ndim != 2 or self.coords.shape[1] != 3 or n == 0:
            raise DockingError(f"ligand coordinates must be a non-empty (N, 3) array, got {self.coords.shape}")
        for attr in ("hydrophobic", "donor", "acceptor"):
            setattr(self, attr, np.asarray(getattr(self, attr), dtype=bool))
            if getattr(self, attr).shape != (n,):
                raise DockingError(f"ligand {attr} flags must have shape ({n},)")
        self.charges = np.asarray(self.charges, dtype=float)
        if self.charges.shape != (n,):
            raise DockingError(f"ligand charges must have shape ({n},)")
        if len(self.elements) != n:
            raise DockingError("ligand elements list must match the number of atoms")
        if self.num_rotatable_bonds < 0:
            raise DockingError("num_rotatable_bonds must be >= 0")
        if self.anchor is not None:
            self.anchor = np.asarray(self.anchor, dtype=float).reshape(3)

    @property
    def num_atoms(self) -> int:
        """Number of atoms."""
        return self.coords.shape[0]

    @property
    def radii(self) -> np.ndarray:
        """Per-atom van-der-Waals radii."""
        return np.array([VDW_RADII.get(e.upper(), 1.9) for e in self.elements])

    def centroid(self) -> np.ndarray:
        """Geometric centre of the ligand."""
        return self.coords.mean(axis=0)

    def centered(self) -> "Ligand":
        """A copy translated so its anchor (or centroid) is at the origin."""
        origin = self.anchor if self.anchor is not None else self.centroid()
        return Ligand(
            name=self.name,
            coords=self.coords - origin,
            elements=list(self.elements),
            hydrophobic=self.hydrophobic.copy(),
            donor=self.donor.copy(),
            acceptor=self.acceptor.copy(),
            charges=self.charges.copy(),
            num_rotatable_bonds=self.num_rotatable_bonds,
            anchor=np.zeros(3),
        )

    def transformed(self, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
        """Coordinates after applying a rigid transform (does not mutate the ligand)."""
        return self.coords @ np.asarray(rotation, dtype=float).T + np.asarray(translation, dtype=float)


class SyntheticLigandGenerator:
    """Builds a pocket-complementary ligand for a reference fragment.

    The ligand is *grown inside the reference fragment's binding groove*: the
    first atom is placed at the detected pocket centre, and every further atom
    is added one covalent-bond length away from an existing ligand atom at the
    candidate position that maximises favourable receptor contacts (atoms in
    the 3.8–5.2 Å shell) while avoiding steric clashes with both the receptor
    and the growing ligand.  Atom polarity is chosen to complement the nearest
    receptor atom (donor across from acceptor and vice versa, carbon next to
    hydrophobic side chains).  The result is a rigid molecule that fits the
    *reference* geometry snugly — so receptors that deviate from the reference
    dock it less favourably, which is the mechanism behind the paper's
    affinity comparison.

    The receptor terms of an atom's 48 growth candidates (clash flag, shell
    and polar contacts) are computed once, when the atom is placed; a growth
    step scores the six newest atoms' candidates in one array and tests only
    their clashes with the ligand, bit-identical to one parent at a time.
    """

    def __init__(self, master_seed: int = 23, min_atoms: int = 8, max_atoms: int = 18):
        if min_atoms < 3 or max_atoms < min_atoms:
            raise DockingError("ligand size bounds must satisfy 3 <= min_atoms <= max_atoms")
        self.master_seed = int(master_seed)
        self.min_atoms = int(min_atoms)
        self.max_atoms = int(max_atoms)

    #: Growth geometry (Å).
    BOND_LENGTH = 1.5
    CLASH_RECEPTOR = 3.9
    CLASH_SELF = 1.3
    SHELL_MIN = 3.8
    SHELL_MAX = 5.2

    def _growth_candidates(
        self, parent: np.ndarray, directions: np.ndarray, receptor: np.ndarray, polar: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A placed atom's growth candidates with their receptor terms (clash
        flags, contact scores), which never change once the atom is placed."""
        candidates = parent + self.BOND_LENGTH * directions
        dist_receptor = np.linalg.norm(candidates[:, None, :] - receptor[None, :, :], axis=2)
        clash = (dist_receptor < self.CLASH_RECEPTOR).any(axis=1)
        in_shell = (dist_receptor >= self.SHELL_MIN) & (dist_receptor <= self.SHELL_MAX)
        # Hydrogen-bond opportunities (polar receptor atoms at contact
        # distance) are worth several generic contacts: they are what makes
        # the designed complex a deep, geometry-specific minimum.
        polar_contacts = (in_shell & polar[None, :]).sum(axis=1)
        return candidates, clash, in_shell.sum(axis=1) + 4.0 * polar_contacts

    def generate(self, reference: ReferenceRecord) -> Ligand:
        """Build the native-like ligand for a reference fragment."""
        from repro.docking.pocket import find_pocket  # local import to avoid a cycle at module load

        rng = rng_for(self.master_seed, "ligand", reference.pdb_id, str(reference.sequence))
        receptor_coords = reference.structure.all_coords()
        receptor_elements = np.array([a.element.upper() for a in reference.structure.atoms])
        receptor_polar = (receptor_elements == "N") | (receptor_elements == "O")

        pocket = find_pocket(reference.structure)
        n_atoms = int(np.clip(self.min_atoms + len(reference.sequence) // 2, self.min_atoms, self.max_atoms))

        # Pre-sample candidate growth directions once (deterministic).
        directions = rng.normal(size=(48, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)

        positions = [pocket.center.copy()]
        grown = [self._growth_candidates(positions[0], directions, receptor_coords, receptor_polar)]
        for _ in range(n_atoms - 1):
            # Growing from every existing atom keeps the molecule centred on
            # the pocket seed, so its centroid stays close to the detected
            # pocket centre — the convention the docking search also uses for
            # its initial poses.  The six newest parents are scored at once,
            # newest first, so ``argmax`` picks the first best candidate.
            candidates, clash, contacts = (np.concatenate(terms) for terms in zip(*grown[::-1][:6]))
            dist_self = np.linalg.norm(
                candidates[:, None, :] - np.array(positions)[None, :, :], axis=2
            )
            clash = clash | (dist_self < self.CLASH_SELF).any(axis=1)
            score = np.where(clash, -np.inf, contacts + 0.01 * rng.random(len(candidates)))
            idx = int(np.argmax(score))
            if not np.isfinite(score[idx]):
                break
            positions.append(candidates[idx])
            grown.append(self._growth_candidates(candidates[idx], directions, receptor_coords, receptor_polar))

        coords = np.array(positions)
        # Type every ligand atom to complement the receptor atoms it touches:
        # a donor across from an acceptor (and vice versa), carbon elsewhere.
        near = np.linalg.norm(coords[:, None, :] - receptor_coords[None, :, :], axis=2) <= 4.5
        donor = (near & (receptor_elements == "O")).any(axis=1)
        acceptor = (near & (receptor_elements == "N")).any(axis=1) & ~donor

        return Ligand(
            name=f"{reference.pdb_id}_ligand",
            coords=coords,
            elements=np.where(donor, "N", np.where(acceptor, "O", "C")).tolist(),
            hydrophobic=~(donor | acceptor),
            donor=donor,
            acceptor=acceptor,
            charges=np.where(donor, 0.3, np.where(acceptor, -0.3, 0.0)),
            num_rotatable_bonds=int(rng.integers(2, 7)),
            anchor=pocket.center.copy(),
        )

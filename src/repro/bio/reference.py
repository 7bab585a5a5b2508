"""Synthetic "experimental X-ray" reference structures.

The paper evaluates every predicted fragment against its experimentally
determined counterpart from PDBbind.  Those crystal structures cannot be
shipped offline, so this module generates a deterministic reference structure
per fragment (see DESIGN.md, substitution table):

* the reference Cα trace is the *ground state* of the same coarse-grained
  physical model the quantum pipeline optimises — which is exactly the
  relationship the paper relies on (the crystal structure is the free-energy
  minimum of the real energy landscape);
* a small, deterministic off-lattice perturbation (default 0.4 Å) emulates the
  deviation of a real crystal structure from an idealised lattice model;
* the generator is keyed on the PDB ID, so repeated calls — in tests, the
  dataset builder and the benchmarks — always produce the same reference.

The generator also exposes the *binding pocket* of the reference fragment
(centroid + principal axis + approach direction), which the synthetic ligand
builder uses to construct a ligand complementary to the experimental geometry.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.bio.sequence import ProteinSequence
from repro.bio.structure import Structure
from repro.exceptions import StructureError
from repro.utils.rng import rng_for


@dataclass(frozen=True)
class BindingPocket:
    """Geometric description of the reference fragment's ligand-binding pocket."""

    center: np.ndarray  # pocket centroid (Angstroms)
    axis: np.ndarray  # principal axis of the fragment (unit vector)
    approach: np.ndarray  # direction from which the ligand approaches (unit vector)
    radius: float  # approximate pocket radius (Angstroms)


@dataclass(frozen=True)
class ReferenceRecord:
    """A generated reference: structure, its Cα ground-state trace and pocket."""

    pdb_id: str
    sequence: ProteinSequence
    structure: Structure
    ca_coords: np.ndarray
    pocket: BindingPocket
    ground_state_energy: float


@functools.lru_cache(maxsize=256)
def _ground_state(sequence: str, master_seed: int, annealing_sweeps: int):
    """The classical ground state behind a reference, memoised per process
    and shared by every caller, hence its read-only Cα trace.  PDB ID,
    numbering and jitter are applied per ``generate`` call."""
    # Imported lazily to keep the bio <-> lattice package graph acyclic.
    from repro.lattice.classical import ClassicalFoldingSolver
    from repro.lattice.hamiltonian import LatticeHamiltonian

    result = ClassicalFoldingSolver(LatticeHamiltonian(sequence)).solve(
        seed=master_seed, sweeps=annealing_sweeps
    )
    result.ca_coords.setflags(write=False)
    return result


class ReferenceStructureGenerator:
    """Deterministic per-PDB-ID reference ("experimental") structure factory.

    Parameters
    ----------
    jitter:
        Standard deviation (Å) of the off-lattice perturbation applied to the
        ground-state Cα trace.
    annealing_sweeps:
        Sweeps used when the fragment is too long for exhaustive enumeration.
    master_seed:
        Master seed from which all per-fragment generators are derived.
    """

    def __init__(self, jitter: float = 0.4, annealing_sweeps: int = 400, master_seed: int = 7):
        if jitter < 0:
            raise StructureError(f"jitter must be >= 0, got {jitter}")
        self.jitter = float(jitter)
        self.annealing_sweeps = int(annealing_sweeps)
        self.master_seed = int(master_seed)

    # -- public API ------------------------------------------------------------

    def generate(self, pdb_id: str, sequence: ProteinSequence | str, start_seq_id: int = 1) -> ReferenceRecord:
        """Generate the reference record for a fragment.

        The ground-state solve is memoised per process (:func:`_ground_state`);
        the jitter, reconstruction and pocket are derived on every call.
        """
        from repro.lattice.reconstruction import reconstruct_structure

        seq = sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
        pdb_id = pdb_id.lower()
        ground = _ground_state(str(seq), self.master_seed, self.annealing_sweeps)
        rng = rng_for(self.master_seed, "reference-jitter", pdb_id, str(seq))
        structure = reconstruct_structure(
            seq,
            ground.ca_coords,
            structure_id=f"{pdb_id}_ref",
            start_seq_id=start_seq_id,
            center=True,
            jitter=self.jitter,
            rng=rng,
        )
        ca = structure.ca_coords()
        return ReferenceRecord(
            pdb_id=pdb_id,
            sequence=seq,
            structure=structure,
            ca_coords=ca,
            pocket=self._pocket_from_ca(ca, rng),
            ground_state_energy=ground.energy,
        )

    # -- implementation ----------------------------------------------------------

    @staticmethod
    def _pocket_from_ca(ca: np.ndarray, rng: np.random.Generator) -> BindingPocket:
        """Derive the binding-pocket geometry from the reference Cα trace."""
        center = ca.mean(axis=0)
        centred = ca - center
        # Principal axis from the covariance of the Cα trace.
        _, _, vt = np.linalg.svd(centred, full_matrices=False)
        axis = vt[0]
        # Ligand approach: perpendicular to the principal axis, on the concave
        # side of the fragment (towards the centroid of the middle residues).
        mid = centred[len(centred) // 3 : 2 * len(centred) // 3 + 1].mean(axis=0)
        approach = mid - np.dot(mid, axis) * axis
        norm = np.linalg.norm(approach)
        if norm < 1e-6:
            # Straight fragments: pick a deterministic perpendicular.
            trial = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
            approach = np.cross(axis, trial)
            norm = np.linalg.norm(approach)
        approach = approach / norm
        radius = float(np.max(np.linalg.norm(centred, axis=1)))
        return BindingPocket(center=center, axis=axis / np.linalg.norm(axis), approach=approach, radius=radius)

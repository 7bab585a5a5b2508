"""Vina-style empirical scoring function.

Implements the functional form of the AutoDock Vina scoring function
(Trott & Olson 2010): a weighted sum of two attractive Gaussians, a quadratic
steric repulsion, a piecewise-linear hydrophobic term and a piecewise-linear
hydrogen-bond term, evaluated over all receptor–ligand atom pairs within a
cutoff on the *surface distance* (centre distance minus the sum of van der
Waals radii), divided by ``1 + w_rot · N_rot`` to penalise ligand flexibility.
The published Vina term weights are used.  Scores are reported in kcal/mol.

All pairwise terms are evaluated with a single broadcast distance tensor and
boolean masks — there is no per-atom Python loop on the scoring hot path.
:meth:`VinaScoringFunction.score_coords_batch` scores a whole batch of poses
in blocks of :data:`CHUNK_ROWS` (one distance tensor per block,
transcendentals restricted to within-cutoff pairs via flat masked indexing);
a pose's score does not depend on the batch it is scored in, so scoring it
alone gives the same bits.  The electrostatic
exponential is skipped entirely when its weight is 0.0 (the default): with a
zero weight the term contributes an exact ±0.0 to every pair, and adding a
signed zero to the partial sum never changes it, because the preceding
Gaussian terms are strictly non-zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.amino_acids import get as get_aa
from repro.bio.structure import Structure
from repro.docking.ligand import Ligand, VDW_RADII
from repro.exceptions import DockingError

#: Pairs beyond this surface distance (Å) contribute nothing.
CUTOFF = 8.0

#: Poses scored per block by :meth:`VinaScoringFunction.score_coords_batch`.
#: The per-pose cost is lowest from about 20 to 100 poses per block and
#: climbs past that, as the distance tensor outgrows the CPU caches.
CHUNK_ROWS = 64


@dataclass(frozen=True)
class ScoringWeights:
    """Term weights of the Vina scoring function (published values)."""

    gauss1: float = -0.0356
    gauss2: float = -0.00516
    repulsion: float = 0.840
    hydrophobic: float = -0.0351
    hbond: float = -0.587
    #: AutoDock4-style screened electrostatics.  Off by default (Vina itself
    #: has no electrostatic term); the ablation benchmarks switch it on to
    #: study charge-complementarity scoring on the coarse-grained receptors.
    electrostatic: float = 0.0
    rotor_penalty: float = 0.0585
    #: Global scale mapping the raw Vina sum to kcal/mol for our coarse-grained
    #: receptors (one pseudo side-chain atom per residue carries less surface
    #: than an all-atom model, so the raw sum is rescaled to land in the
    #: physically meaningful -2..-8 kcal/mol range).
    scale: float = 2.4


@dataclass
class ReceptorModel:
    """Pre-extracted receptor arrays used by the scorer (built once per structure)."""

    coords: np.ndarray
    radii: np.ndarray
    hydrophobic: np.ndarray
    donor: np.ndarray
    acceptor: np.ndarray
    charges: np.ndarray

    @classmethod
    def from_structure(cls, structure: Structure) -> "ReceptorModel":
        """Type every receptor atom from its residue and element."""
        coords = []
        radii = []
        hydrophobic = []
        donor = []
        acceptor = []
        charges = []
        for residue in structure.residues:
            aa = get_aa(residue.code)
            for atom in residue.atoms:
                coords.append(atom.coords)
                radii.append(VDW_RADII.get(atom.element.upper(), 1.9))
                charges.append(atom.charge)
                if atom.name == "CB":
                    hydrophobic.append(aa.hydrophobic)
                    donor.append(aa.hbond_donor)
                    acceptor.append(aa.hbond_acceptor)
                elif atom.name == "N":
                    hydrophobic.append(False)
                    donor.append(True)
                    acceptor.append(False)
                elif atom.name == "O":
                    hydrophobic.append(False)
                    donor.append(False)
                    acceptor.append(True)
                else:  # CA, C
                    hydrophobic.append(False)
                    donor.append(False)
                    acceptor.append(False)
        if not coords:
            raise DockingError("receptor structure has no atoms")
        return cls(
            coords=np.array(coords),
            radii=np.array(radii),
            hydrophobic=np.array(hydrophobic, dtype=bool),
            donor=np.array(donor, dtype=bool),
            acceptor=np.array(acceptor, dtype=bool),
            charges=np.array(charges, dtype=float),
        )


class VinaScoringFunction:
    """Scores a ligand pose against a rigid receptor."""

    def __init__(self, receptor: Structure, ligand: Ligand, weights: ScoringWeights | None = None):
        self.weights = weights or ScoringWeights()
        self.receptor = ReceptorModel.from_structure(receptor)
        self.ligand = ligand
        self._ligand_radii = ligand.radii
        # Precompute pair-type masks (ligand atoms x receptor atoms).
        self._hydrophobic_pair = np.outer(ligand.hydrophobic, self.receptor.hydrophobic)
        self._hbond_pair = np.outer(ligand.donor, self.receptor.acceptor) | np.outer(
            ligand.acceptor, self.receptor.donor
        )
        self._charge_product = np.outer(ligand.charges, self.receptor.charges)
        self._radius_sum = self._ligand_radii[:, None] + self.receptor.radii[None, :]
        # Flattened views for the batched hot path: the masked-pair gathers
        # index one flat (ligand*receptor) axis instead of two fancy axes.
        self._hydrophobic_pair_flat = self._hydrophobic_pair.astype(float).ravel()
        self._charge_product_flat = self._charge_product.ravel()
        self._receptor_sq = np.einsum("ij,ij->i", self.receptor.coords, self.receptor.coords)
        self._receptor_neg2t = np.ascontiguousarray((-2.0 * self.receptor.coords).T)
        # Pair arrays tiled across poses, grown lazily to the largest block
        # seen: masked flat indices then gather pair properties directly,
        # with no per-call modulo to recover the within-pose pair index.
        self._hydrophobic_tile: np.ndarray | None = None
        self._charge_tile: np.ndarray | None = None
        # H-bond-capable pairs are sparse, and the term is zero beyond contact
        # range anyway, so the saturating max is taken over just these pairs
        # (grouped by ligand atom for a reduceat segment max).
        hb_lig, hb_rec = np.nonzero(self._hbond_pair)
        order = np.argsort(hb_lig, kind="stable")
        self._hb_lig = hb_lig[order]
        self._hb_rec = hb_rec[order]
        if self._hb_lig.size:
            self._hb_atoms, self._hb_starts = np.unique(self._hb_lig, return_index=True)
        else:
            self._hb_atoms = np.zeros(0, dtype=int)
            self._hb_starts = np.zeros(0, dtype=int)

    def _surface_distances(self, pose_coords: np.ndarray) -> np.ndarray:
        """Surface-distance tensor ``(P, A, R)`` for a batch of poses.

        Squared centre distances come from the expanded-square identity
        ``|l - r|^2 = |l|^2 + |r|^2 - 2 l·r`` so the cross term is a single
        matrix product instead of a broadcast ``(P, A, R, 3)`` difference
        tensor.  Each element depends only on its own pose's coordinates, so
        the result — like every score derived from it — is independent of the
        batch composition.
        """
        num_poses = pose_coords.shape[0]
        flat = pose_coords.reshape(-1, 3)
        dist_sq = flat @ self._receptor_neg2t
        dist_sq += np.einsum("ij,ij->i", flat, flat)[:, None]
        dist_sq += self._receptor_sq
        # Coincident centres can round to a tiny negative square.
        np.maximum(dist_sq, 0.0, out=dist_sq)
        surf = np.sqrt(dist_sq, out=dist_sq).reshape(num_poses, *self._radius_sum.shape)
        surf -= self._radius_sum
        return surf

    def score_coords_batch(self, pose_coords: np.ndarray) -> np.ndarray:
        """Score ``P`` ligand poses at once: ``(P, A, 3) -> (P,)`` kcal/mol.

        Poses are scored in blocks of :data:`CHUNK_ROWS`.  One distance
        tensor covers a block; the Gaussian, repulsion and hydrophobic terms
        are evaluated only on within-cutoff pairs through flat masked
        indexing and scattered back into a dense contribution tensor, so the
        per-pose reduction order — and therefore every score bit — matches a
        full-matrix evaluation of the same pose, whatever the block.
        """
        pose_coords = np.asarray(pose_coords, dtype=float)
        if pose_coords.ndim != 3 or pose_coords.shape[1:] != self.ligand.coords.shape:
            raise DockingError(
                f"pose batch shape {pose_coords.shape} does not match (P, "
                f"{self.ligand.coords.shape[0]}, 3)"
            )
        out = np.empty(pose_coords.shape[0])
        for start in range(0, len(out), CHUNK_ROWS):
            block = slice(start, start + CHUNK_ROWS)
            out[block] = self._score_block(pose_coords[block])
        return out

    def _score_block(self, pose_coords: np.ndarray) -> np.ndarray:
        """:meth:`score_coords_batch` on one block of at most :data:`CHUNK_ROWS` poses."""
        num_poses = pose_coords.shape[0]
        pairs_per_pose = self._radius_sum.size
        surf = self._surface_distances(pose_coords)
        flat_idx = np.flatnonzero((surf < CUTOFF).ravel())
        sv = surf.ravel()[flat_idx]
        if self._hydrophobic_tile is None or self._hydrophobic_tile.size < surf.size:
            self._hydrophobic_tile = np.tile(self._hydrophobic_pair_flat, num_poses)

        w = self.weights
        raw = sv / 0.5
        np.square(raw, out=raw)
        np.negative(raw, out=raw)
        np.exp(raw, out=raw)
        raw *= w.gauss1
        term = (sv - 3.0) / 2.0
        np.square(term, out=term)
        np.negative(term, out=term)
        np.exp(term, out=term)
        term *= w.gauss2
        raw += term
        term = np.minimum(sv, 0.0)
        np.square(term, out=term)
        term *= w.repulsion
        raw += term
        term = np.subtract(1.5, sv)
        np.maximum(term, 0.0, out=term)
        np.minimum(term, 1.0, out=term)
        term *= self._hydrophobic_tile[flat_idx]
        term *= w.hydrophobic
        raw += term
        if w.electrostatic != 0.0:
            # Screened electrostatics: short-ranged Gaussian envelope on the
            # charge-product, so only contact-distance pairs contribute.
            if self._charge_tile is None or self._charge_tile.size < surf.size:
                self._charge_tile = np.tile(self._charge_product_flat, num_poses)
            term = sv / 1.5
            np.square(term, out=term)
            np.negative(term, out=term)
            np.exp(term, out=term)
            term *= self._charge_tile[flat_idx]
            term *= w.electrostatic
            raw += term
        contrib = np.zeros(num_poses * pairs_per_pose)
        contrib[flat_idx] = raw
        pair_sum = contrib.reshape(num_poses, -1).sum(axis=1)

        # Hydrogen bonds are saturating: each ligand donor/acceptor can form at
        # most one H-bond, so only its best-placed receptor partner counts.
        # This is what makes the score geometry-specific rather than a generic
        # reward for burying polar atoms.  The clipped ramp is exactly zero
        # beyond contact range, so evaluating it on every H-bond-capable pair
        # (cutoff or not) leaves each per-atom maximum unchanged.
        hbond_sum = np.zeros(num_poses)
        if self._hb_lig.size:
            vals = surf[:, self._hb_lig, self._hb_rec]
            vals /= -0.7
            np.maximum(vals, 0.0, out=vals)
            np.minimum(vals, 1.0, out=vals)
            per_atom = np.zeros((num_poses, self._radius_sum.shape[0]))
            per_atom[:, self._hb_atoms] = np.maximum.reduceat(vals, self._hb_starts, axis=1)
            hbond_sum = per_atom.sum(axis=1)

        totals = (pair_sum + w.hbond * hbond_sum) * w.scale
        return totals / (1.0 + w.rotor_penalty * self.ligand.num_rotatable_bonds)

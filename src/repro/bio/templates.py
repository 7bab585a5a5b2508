"""Residue backbone templates and Gasteiger-like partial charges.

The quantum pipeline produces Cα traces on a coarse-grained lattice; the paper
then "refines [them] by applying standard amino acid templates" and adds
hydrogens / charges with Open Babel (Sec. 4.3.3).  This module provides that
substrate:

* ideal backbone internal geometry (bond lengths / angles) used to place
  N, C and O atoms around each Cα given the chain direction;
* a single pseudo side-chain atom (CB) per non-glycine residue, scaled by
  side-chain volume, which is what the coarse-grained docking scorer needs;
* simple per-atom partial charges in the spirit of Gasteiger charges.

Every residue is templated in whole-array steps, bit-identical to one residue
at a time: each row norm and dot product is a stacked ``(1, 3) @ (3, 1)``
matmul, which rounds like the BLAS ``ddot`` behind ``np.linalg.norm`` and
``np.dot`` of one 3-vector (``einsum`` and ``norm(axis=1)`` do not).
"""

from __future__ import annotations

import numpy as np

from repro.bio.amino_acids import get as get_aa
from repro.bio.structure import Atom, Chain, Residue, Structure
from repro.exceptions import StructureError

# Ideal backbone geometry (Angstroms / degrees) from standard peptide geometry.
BOND_N_CA = 1.458
BOND_CA_C = 1.525
BOND_C_O = 1.231
BOND_CA_CB = 1.530

#: Partial charges assigned to backbone atoms (united-atom convention: the
#: amide nitrogen carries its hydrogen, so the NH group is net positive).
BACKBONE_CHARGES: dict[str, float] = {"N": 0.25, "CA": 0.10, "C": 0.45, "O": -0.45, "CB": 0.0}


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.dot(a[i], b[i])`` for every row of two ``(n, 3)`` arrays, bit for bit."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _units(v: np.ndarray) -> np.ndarray:
    """Every row of ``v`` scaled to unit length."""
    n = np.sqrt(_row_dots(v, v))
    if (n < 1e-12).any():
        raise StructureError("degenerate direction vector in backbone templating")
    return v / n[:, None]


def _perpendiculars(v: np.ndarray) -> np.ndarray:
    """A unit vector perpendicular to each row of ``v`` (deterministic choice)."""
    v = _units(v)
    trial = np.tile((1.0, 0.0, 0.0), (len(v), 1))
    trial[np.abs(_row_dots(trial, v)) > 0.9] = (0.0, 1.0, 0.0)
    return _units(trial - _row_dots(trial, v)[:, None] * v)


def sidechain_charge(code: str) -> float:
    """Partial charge placed on the CB pseudo side-chain atom."""
    aa = get_aa(code)
    if aa.charge != 0:
        return 0.5 * aa.charge
    if aa.polar:
        return -0.10
    return 0.0


def build_backbone_from_ca(
    sequence: str,
    ca_coords: np.ndarray,
    structure_id: str = "FRAG",
    start_seq_id: int = 1,
) -> Structure:
    """Expand a Cα trace into a full-backbone structure with pseudo side chains.

    For each residue the N atom is placed towards the previous Cα, the C atom
    towards the next Cα, the carbonyl O off the CA→C direction, and a CB
    pseudo-atom along the local normal (except glycine).  Terminal residues
    reuse the direction of their single neighbour.  The construction is purely
    geometric and deterministic, which is all the rigid-body docking and RMSD
    evaluation downstream require.  Coincident consecutive Cα atoms raise
    :class:`StructureError`.
    """
    ca = np.asarray(ca_coords, dtype=float)
    L = len(sequence)
    if ca.shape != (L, 3):
        raise StructureError(f"expected ({L}, 3) CA coordinates, got {ca.shape}")
    if L < 2:
        raise StructureError("cannot build a backbone for fewer than 2 residues")

    bonds = _units(ca[1:] - ca[:-1])
    prev_dir = np.concatenate([bonds[:1], bonds])
    next_dir = np.concatenate([bonds, bonds[-1:]])

    n_pos = ca - BOND_N_CA * prev_dir
    c_pos = ca + BOND_CA_C * next_dir

    # Carbonyl oxygen: off the CA->C axis, in the plane defined by the
    # backbone direction and a deterministic perpendicular.
    perp = _perpendiculars(next_dir)
    o_dir = perp.copy()
    o_dir[:-1] = _units(0.55 * perp[:-1] - 0.83 * next_dir[:-1])
    o_pos = c_pos + BOND_C_O * _units(o_dir + 1e-6)

    # Pseudo side chain along the local normal, scaled by volume (never for G).
    side = [i for i, code in enumerate(sequence) if code.upper() != "G"]
    normal = np.cross(prev_dir[side], next_dir[side])
    flat = np.sqrt(_row_dots(normal, normal)) < 1e-6
    normal[flat] = perp[side][flat]
    cb_dir = _units(_units(normal) - 0.5 * (prev_dir[side] + next_dir[side]))
    scale = [BOND_CA_CB * (get_aa(sequence[i]).volume / 140.0) ** (1.0 / 3.0) for i in side]
    cb_pos = np.zeros((L, 3))
    cb_pos[side] = ca[side] + np.array(scale).reshape(-1, 1) * cb_dir

    chain = Chain("A")
    for i, code in enumerate(sequence):
        atoms = [
            Atom("N", "N", n_pos[i], BACKBONE_CHARGES["N"]),
            Atom("CA", "C", ca[i], BACKBONE_CHARGES["CA"]),
            Atom("C", "C", c_pos[i], BACKBONE_CHARGES["C"]),
            Atom("O", "O", o_pos[i], BACKBONE_CHARGES["O"]),
        ]
        if code.upper() != "G":
            atoms.append(Atom("CB", "C", cb_pos[i], sidechain_charge(code)))
        chain.residues.append(Residue(code, start_seq_id + i, atoms))

    return Structure(structure_id, [chain])

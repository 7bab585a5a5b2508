"""Miyazawa–Jernigan residue–residue contact energies.

The paper's interaction Hamiltonian term ``H_i`` (Sec. 4.3.1) and its
interaction-coverage analysis (Fig. 5) are both based on the
Miyazawa–Jernigan (MJ) statistical contact potential, the standard 20x20
energy matrix for coarse-grained protein models (Miyazawa & Jernigan, 1985).

Exact published MJ values are a 210-entry table; for a coarse-grained lattice
model only the *relative ordering* of contact energies matters (hydrophobic–
hydrophobic contacts are strongly favourable, polar/charged contacts are weak
or mildly favourable when complementary).  We therefore construct the matrix
from the same physical ingredients MJ encodes — hydropathy-driven burial plus
electrostatic complementarity — and anchor the overall scale to the well-known
MJ extremes (e.g. Leu–Leu / Phe–Phe ≈ −7 RT units, interactions involving Lys
≈ −2 RT units and weaker).  The matrix is symmetric, fully populated for all
400 ordered pairs, and dimensionless (units of RT).
"""

from __future__ import annotations

import numpy as np

from repro.bio.amino_acids import AA_ORDER, AMINO_ACIDS

#: Index of each one-letter code in the 20x20 matrix.
AA_INDEX: dict[str, int] = {code: i for i, code in enumerate(AA_ORDER)}


def _build_matrix() -> np.ndarray:
    """Construct the symmetric 20x20 contact-energy matrix (units of RT)."""
    n = len(AA_ORDER)
    hydro = np.array([AMINO_ACIDS[c].hydropathy for c in AA_ORDER])
    charge = np.array([AMINO_ACIDS[c].charge for c in AA_ORDER], dtype=float)
    aromatic = np.array([AMINO_ACIDS[c].aromatic for c in AA_ORDER], dtype=float)
    polar = np.array([AMINO_ACIDS[c].polar for c in AA_ORDER], dtype=float)

    # Hydrophobic burial: scaled so Ile/Leu/Val/Phe pairs land near -6..-7 RT.
    h_norm = (hydro + 4.5) / 9.0  # 0 (Arg) .. 1 (Ile)
    burial = -7.0 * np.outer(h_norm, h_norm)

    # Electrostatics: opposite charges attract (-1.5), like charges repel (+1.0).
    electro = np.outer(charge, charge)
    electro = np.where(electro < 0, -1.5 * np.abs(electro), 1.0 * electro)

    # Aromatic stacking bonus.
    stacking = -0.8 * np.outer(aromatic, aromatic)

    # Polar-polar hydrogen bonding: mild stabilisation.
    hbond = -0.5 * np.outer(polar, polar)

    matrix = burial + electro + stacking + hbond
    # MJ energies are all attractive or near zero; clip mild repulsion to a cap.
    matrix = np.minimum(matrix, 0.5)
    # Symmetry is exact by construction, but enforce it against rounding.
    matrix = 0.5 * (matrix + matrix.T)
    assert matrix.shape == (n, n)
    return np.ascontiguousarray(matrix)


#: The 20x20 symmetric contact energy matrix indexed by :data:`AA_INDEX`.
MJ_MATRIX: np.ndarray = _build_matrix()
MJ_MATRIX.setflags(write=False)


def interaction_matrix_for_sequence(sequence: str) -> np.ndarray:
    """Return the (L, L) matrix of pairwise contact energies for a sequence."""
    idx = np.array([AA_INDEX[c] for c in sequence.upper()])
    return MJ_MATRIX[np.ix_(idx, idx)].copy()

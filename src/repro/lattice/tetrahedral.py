"""Tetrahedral (diamond) lattice geometry for coarse-grained protein backbones.

Following the paper's Sec. 4.3.1, each residue is a node on a tetrahedral
lattice: every site has four possible extension directions, a fixed virtual
bond length and a bond angle of ~109.47 degrees, matching the stereochemistry
of the Cα trace.  The diamond lattice has two sublattices (A and B); a chain
alternates between them, so steps from even-index residues use one set of four
direction vectors and steps from odd-index residues use their negatives — this
is what produces the tetrahedral bond angle automatically.

A *conformation* of an ``L``-residue fragment is a sequence of ``L-1`` turn
indices in ``{0, 1, 2, 3}``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import LatticeError

#: Cα–Cα virtual bond length in Angstroms.
CA_VIRTUAL_BOND: float = 3.8

#: The four tetrahedral directions of the A sublattice (unnormalised); the B
#: sublattice uses their negatives.
_DIRECTIONS_A = np.array(
    [
        [1.0, 1.0, 1.0],
        [1.0, -1.0, -1.0],
        [-1.0, 1.0, -1.0],
        [-1.0, -1.0, 1.0],
    ]
)


def step_table(n_steps: int, bond_length: float = CA_VIRTUAL_BOND) -> np.ndarray:
    """Step vectors by chain position: ``table[k, t]`` is step ``k`` taken with
    turn ``t`` (A-sublattice directions at even ``k``, their negatives at odd)."""
    signs = np.where(np.arange(n_steps) % 2 == 0, 1.0, -1.0)
    return (_DIRECTIONS_A * (bond_length / np.sqrt(3.0)))[None] * signs[:, None, None]


def coords_from_turns(table: np.ndarray, turns: np.ndarray) -> np.ndarray:
    """Cα coordinates ``[N, L, 3]`` of turn rows ``[N, L-1]`` under a
    :func:`step_table`, every chain starting at the origin."""
    steps = table[np.arange(turns.shape[1]), turns]
    coords = np.zeros((turns.shape[0], turns.shape[1] + 1, 3))
    np.cumsum(steps, axis=1, out=coords[:, 1:])
    return coords


def turns_to_coords(turns: np.ndarray | list[int], bond_length: float = CA_VIRTUAL_BOND) -> np.ndarray:
    """Cα coordinates of one turn sequence (a batch of one of :func:`coords_from_turns`).

    ``turns`` has ``L - 1`` entries in ``{0,1,2,3}``; the returned array has
    shape ``(L, 3)`` with the first residue at the origin.
    """
    turns = np.asarray(turns, dtype=int)
    if turns.ndim != 1:
        raise LatticeError(f"turns must be a 1-D sequence, got shape {turns.shape}")
    if turns.size == 0:
        raise LatticeError("a conformation needs at least one turn")
    if np.any((turns < 0) | (turns > 3)):
        raise LatticeError("turn indices must be in {0, 1, 2, 3}")
    return coords_from_turns(step_table(turns.size, bond_length), turns[None])[0]

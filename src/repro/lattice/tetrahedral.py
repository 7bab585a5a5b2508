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


def is_self_avoiding(coords: np.ndarray, tol: float = 1e-6) -> bool:
    """True when no two residues occupy the same lattice site."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise LatticeError(f"coords must have shape (L, 3), got {coords.shape}")
    diff = coords[:, None, :] - coords[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu = np.triu_indices(coords.shape[0], k=1)
    return bool(np.all(dist2[iu] > tol))


def overlap_count(coords: np.ndarray, tol: float = 1e-6) -> int:
    """Number of residue pairs occupying the same lattice site."""
    coords = np.asarray(coords, dtype=float)
    diff = coords[:, None, :] - coords[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    iu = np.triu_indices(coords.shape[0], k=1)
    return int(np.count_nonzero(dist2[iu] <= tol))


def contact_pairs(coords: np.ndarray, bond_length: float = CA_VIRTUAL_BOND, tol: float = 1e-3) -> list[tuple[int, int]]:
    """Non-bonded residue pairs sitting on adjacent lattice sites.

    A *contact* is a pair ``(i, j)`` with ``j >= i + 3`` whose Cα–Cα distance
    equals the lattice bond length (nearest-neighbour sites).  These pairs are
    the ones that contribute Miyazawa–Jernigan interaction energy in ``H_i``.
    """
    coords = np.asarray(coords, dtype=float)
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    pairs: list[tuple[int, int]] = []
    close = np.abs(dist - bond_length) < max(tol, 1e-6)
    idx_i, idx_j = np.nonzero(np.triu(close, k=3))
    for i, j in zip(idx_i.tolist(), idx_j.tolist()):
        pairs.append((i, j))
    return pairs


def backtracking_count(turns: np.ndarray | list[int]) -> int:
    """Number of immediate reversals (two consecutive identical turn indices).

    On the diamond lattice, step ``k`` with turn ``t`` and step ``k+1`` with the
    same turn ``t`` point in exactly opposite directions, i.e. the chain walks
    straight back onto the previous site.
    """
    turns = np.asarray(turns, dtype=int)
    if turns.size < 2:
        return 0
    return int(np.count_nonzero(turns[1:] == turns[:-1]))


def random_self_avoiding_turns(
    length: int, rng: np.random.Generator, max_attempts: int = 2000
) -> np.ndarray:
    """Sample a self-avoiding conformation (turn sequence) by rejection + growth."""
    if length < 2:
        raise LatticeError("need at least 2 residues")
    n_turns = length - 1
    for _ in range(max_attempts):
        turns = np.empty(n_turns, dtype=int)
        turns[0] = 0
        if n_turns > 1:
            turns[1] = 1
        ok = True
        for k in range(2, n_turns):
            candidates = [t for t in range(4) if t != turns[k - 1]]
            rng.shuffle(candidates)
            placed = False
            for t in candidates:
                turns[k] = t
                coords = turns_to_coords(turns[: k + 1])
                if is_self_avoiding(coords):
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok and is_self_avoiding(turns_to_coords(turns)):
            return turns
    raise LatticeError(f"failed to sample a self-avoiding walk of length {length}")

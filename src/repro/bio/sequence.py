"""Protein sequence value object."""

from __future__ import annotations

from dataclasses import dataclass

from repro.bio.amino_acids import AMINO_ACIDS
from repro.exceptions import SequenceError


@dataclass(frozen=True)
class ProteinSequence:
    """An immutable protein fragment sequence in one-letter codes.

    Parameters
    ----------
    residues:
        One-letter amino-acid string, e.g. ``"YLVTHLMGAD"``.  Validated on
        construction; lowercase input is normalised to uppercase.
    """

    residues: str

    def __post_init__(self) -> None:
        seq = self.residues.upper().strip()
        if not seq:
            raise SequenceError("empty protein sequence")
        bad = sorted({c for c in seq if c not in AMINO_ACIDS})
        if bad:
            raise SequenceError(f"invalid residue codes in sequence {self.residues!r}: {bad}")
        object.__setattr__(self, "residues", seq)

    def __len__(self) -> int:
        return len(self.residues)

    def __str__(self) -> str:
        return self.residues

    def pair_types(self) -> list[tuple[str, str]]:
        """All unordered residue-type pairs occurring within this fragment.

        Used by the interaction-coverage analysis (Fig. 5): every pair of
        residues in a fragment contributes one observed amino-acid interaction
        type (both orderings are counted by the analysis layer).
        """
        pairs = []
        seq = self.residues
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                pairs.append((seq[i], seq[j]))
        return pairs

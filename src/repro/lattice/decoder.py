"""Decoding measured bitstrings into lattice conformations and Cα traces.

The second stage of the paper's hardware workflow (Sec. 5.2) fixes the
optimised circuit parameters, measures 100,000 shots and maps the resulting
low-energy bitstrings to 3D structures.  :class:`ConformationDecoder`
implements that mapping: it scores every distinct measured bitstring with the
diagonal Hamiltonian, discards physically invalid conformations (clashes /
backtracking) when possible, and returns the best decoded conformation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.exceptions import LatticeError
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.lattice.tetrahedral import turns_to_coords


@dataclass(frozen=True)
class DecodedConformation:
    """A decoded conformation with its provenance."""

    turns: tuple[int, ...]
    ca_coords: np.ndarray
    energy: float
    bitstring: str
    valid: bool


class ConformationDecoder:
    """Maps measurement outcomes of one fragment's circuit to conformations."""

    def __init__(self, hamiltonian: LatticeHamiltonian):
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding

    def decode_counts(
        self, counts: Mapping[str, int] | tuple[np.ndarray, np.ndarray]
    ) -> DecodedConformation:
        """Decode measurement counts and return the best conformation.

        ``counts`` maps bitstrings to frequencies, or is the ``(codes,
        counts)`` arrays the VQE's stage 2 groups its shots in: distinct
        configuration codes (:meth:`FragmentEncoding.code_from_bits`) and
        their frequencies.  A mapping's keys become codes in key order, so
        keys differing only in interaction-register bits decode alike.

        Preference order: the lowest-energy *valid* conformation; if every
        measured bitstring decodes to an invalid conformation, the lowest-energy
        invalid one is returned (mirroring the pragmatic behaviour needed on
        noisy hardware).

        Every distinct configuration is scored in one kernel call, then
        scanned in the given order: the 1e-9 energy tie-break is not
        transitive, so a vectorised argmin could pick a different winner.
        """
        if isinstance(counts, Mapping):
            codes = np.fromiter(
                dict.fromkeys(self.encoding.code_from_bits(bits) for bits in counts),
                dtype=np.int64,
            )
        else:
            codes = np.asarray(counts[0], dtype=np.int64)
        if codes.size == 0:
            raise LatticeError("cannot decode an empty set of counts")
        turns = self.encoding.turns_from_codes(codes)
        terms = self.hamiltonian.terms(turns)
        energies = self.hamiltonian.total(terms).tolist()
        valid = ((terms[:, 1] == 0.0) & (terms[:, 2] == 0.0)).tolist()

        def better(candidate: int, incumbent: int | None) -> bool:
            # Degenerate ground states are resolved by the lexicographically
            # smallest turn sequence, the same tie-break the classical solver
            # uses, so quantum and classical pipelines agree on ties.
            if incumbent is None:
                return True
            if energies[candidate] < energies[incumbent] - 1e-9:
                return True
            if abs(energies[candidate] - energies[incumbent]) <= 1e-9:
                return turns[candidate].tolist() < turns[incumbent].tolist()
            return False

        best_valid = best_any = None
        for i in range(codes.size):
            if better(i, best_any):
                best_any = i
            if valid[i] and better(i, best_valid):
                best_valid = i
        best = best_valid if best_valid is not None else best_any
        best_turns = turns[best].tolist()
        return DecodedConformation(
            turns=tuple(best_turns),
            ca_coords=turns_to_coords(best_turns, bond_length=self.hamiltonian.bond_length),
            energy=energies[best],
            bitstring=format(int(codes[best]), f"0{self.encoding.configuration_qubits}b"),
            valid=valid[best],
        )

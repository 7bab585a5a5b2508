"""Sampled expectation values of diagonal Hamiltonians.

The folding Hamiltonian is diagonal in the computational basis, so the
expectation value ⟨ψ(θ)|H|ψ(θ)⟩ is estimated by sampling bitstrings from the
ansatz and averaging their classical energies — exactly the estimator the
paper's hybrid workflow uses on hardware.

Each shot's configuration register is packed into one int64 code
(:func:`~repro.quantum.backend.pack_rows`), and energies are memoised per
distinct code in two arrays: the codes, kept sorted, and their energies.  A
call looks its distinct codes up with ``np.searchsorted``, decodes the misses
to turns with bit operations, scores them in one batched kernel call and
merges them into the arrays once, so repeated evaluation across optimiser
iterations stays cheap even with large shot counts and builds no string.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VQEError
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.backend import MAX_PACKED_BITS, pack_rows


class DiagonalExpectation:
    """Estimates ⟨H⟩ from sampled bitstrings for a diagonal folding Hamiltonian."""

    def __init__(self, hamiltonian: LatticeHamiltonian):
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding
        width = self.encoding.configuration_qubits
        if width > MAX_PACKED_BITS:
            raise VQEError(
                f"a {len(hamiltonian.sequence)}-residue fragment needs a {width}-qubit "
                f"configuration register; sampled energies pack at most "
                f"{MAX_PACKED_BITS} qubits (34 residues)"
            )
        # The memo: ascending configuration codes and their energies.
        self._codes = np.empty(0, dtype=np.int64)
        self._values = np.empty(0)
        self._hits = 0
        self._misses = 0

    @property
    def cache_size(self) -> int:
        """Number of distinct configurations currently cached."""
        return self._codes.size

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters for the energy cache."""
        return {"entries": self._codes.size, "hits": self._hits, "misses": self._misses}

    def energy_of_bits(self, bits: str) -> float:
        """Energy of one bitstring (configuration register prefix), cached."""
        code = self.encoding.code_from_bits(bits)
        return float(self._energies(np.array([code], dtype=np.int64))[0])

    def _energies(self, codes: np.ndarray) -> np.ndarray:
        """Cached energies of distinct, ascending configuration codes.

        Each code counts one hit or one miss, as a one-at-a-time lookup
        would.  The misses are scored in one kernel call (rows are
        batch-independent, so the bits do not depend on the batch) and
        merged into the memo arrays once.
        """
        at = np.searchsorted(self._codes, codes)
        known = at < self._codes.size
        known[known] = self._codes[at[known]] == codes[known]
        energies = np.empty(codes.size)
        energies[known] = self._values[at[known]]
        missing = ~known
        new = codes[missing]
        if new.size:
            scored = self.hamiltonian.energies(self.encoding.turns_from_codes(new))
            energies[missing] = scored
            self._codes = np.insert(self._codes, at[missing], new)
            self._values = np.insert(self._values, at[missing], scored)
        self._hits += codes.size - new.size
        self._misses += new.size
        return energies

    def _unique_config_energies(
        self, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group a sample array by configuration register and score each group once.

        Returns ``(energies, inverse, counts)`` where ``energies[i]`` is the
        energy of the i-th distinct configuration row (rows in lexicographic
        order), ``inverse`` maps every shot back to its row, and ``counts`` is
        the multiplicity of each row.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim != 2 or samples.shape[0] == 0:
            raise VQEError(f"samples must be a non-empty 2-D array, got shape {samples.shape}")
        width = self.encoding.configuration_qubits
        if samples.shape[1] < width:
            raise VQEError(
                f"samples have {samples.shape[1]} qubits, but the configuration "
                f"register needs {width}"
            )
        codes, inverse, counts = np.unique(
            pack_rows(samples[:, :width]), return_inverse=True, return_counts=True
        )
        return self._energies(codes), inverse, counts

    def estimate_from_samples(self, samples: np.ndarray) -> float:
        """Mean energy of a (shots, n) sample array."""
        energies, _, counts = self._unique_config_energies(samples)
        return float(np.dot(energies, counts) / counts.sum())

    def cvar_from_samples(self, samples: np.ndarray, alpha: float = 0.2) -> float:
        """Conditional value-at-risk of the sampled energies (CVaR-VQE objective).

        For a diagonal Hamiltonian the quantity of interest is the *best*
        measurable bitstring, not the mean, so optimising the mean of the
        lowest ``alpha`` fraction of sampled energies (Barkoutsos et al. 2020)
        converges far faster at equal shot budget.  ``alpha = 1`` recovers the
        plain expectation value.
        """
        if not 0.0 < alpha <= 1.0:
            raise VQEError(f"alpha must be in (0, 1], got {alpha}")
        energies = self.per_shot_energies(samples)
        energies.sort()
        k = max(1, int(np.ceil(alpha * energies.size)))
        return float(energies[:k].mean())

    def per_shot_energies(self, samples: np.ndarray) -> np.ndarray:
        """Energy of every individual shot (used for distribution diagnostics)."""
        energies, inverse, _ = self._unique_config_energies(samples)
        return energies[inverse]

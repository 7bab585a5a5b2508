"""Sampled expectation values of diagonal Hamiltonians.

The folding Hamiltonian is diagonal in the computational basis, so the
expectation value ⟨ψ(θ)|H|ψ(θ)⟩ is estimated by sampling bitstrings from the
ansatz and averaging their classical energies — exactly the estimator the
paper's hybrid workflow uses on hardware.  Energies are cached per distinct
configuration-register value, and each call's cache misses are scored in one
batched kernel call, so repeated evaluation across optimiser iterations stays
cheap even with large shot counts.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import VQEError
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.backend import samples_to_bitstrings


class DiagonalExpectation:
    """Estimates ⟨H⟩ from sampled bitstrings for a diagonal folding Hamiltonian."""

    def __init__(self, hamiltonian: LatticeHamiltonian, max_entries: int | None = None):
        if max_entries is not None and int(max_entries) <= 0:
            raise VQEError(f"max_entries must be positive or None, got {max_entries}")
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding
        self.max_entries = int(max_entries) if max_entries is not None else None
        self._cache: dict[str, float] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def cache_size(self) -> int:
        """Number of distinct configuration bitstrings currently cached."""
        return len(self._cache)

    def cache_info(self) -> dict[str, int | None]:
        """Hit/miss/eviction counters for the energy cache.

        Eviction never changes results — an evicted configuration that
        reappears is simply re-decoded to the same energy — so the cap only
        trades CPU for bounded memory on wide (100-qubit) fragments.
        """
        return {
            "entries": len(self._cache),
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "max_entries": self.max_entries,
        }

    def energy_of_bits(self, bits: str) -> float:
        """Energy of one bitstring (configuration register prefix), cached.

        The cache is capped at ``max_entries`` (when set) with FIFO eviction:
        dict insertion order is the arrival order, so the oldest configuration
        is dropped first.
        """
        return self._energies([bits[: self.encoding.configuration_qubits]])[0]

    def _energies(self, keys: list[str]) -> list[float]:
        """Cached energies of configuration keys.  Keys missing from the cache
        are scored in one kernel call, then the cache is updated key by key
        exactly as one-at-a-time lookups would (hits, misses, FIFO order)."""
        missing = [key for key in dict.fromkeys(keys) if key not in self._cache]
        scored = dict(zip(missing, self._score(missing))) if missing else {}
        energies = []
        for key in keys:
            energy = self._cache.get(key)
            if energy is not None:
                self._hits += 1
            else:
                self._misses += 1
                # A key cached at the start may have been evicted by this call.
                energy = scored[key] if key in scored else self._score([key])[0]
                self._cache[key] = energy
                while self.max_entries is not None and len(self._cache) > self.max_entries:
                    self._cache.pop(next(iter(self._cache)))
                    self._evictions += 1
            energies.append(energy)
        return energies

    def _score(self, keys: list[str]) -> list[float]:
        return self.hamiltonian.energies(self.encoding.turns_from_keys(keys)).tolist()

    def estimate_from_counts(self, counts: dict[str, int]) -> float:
        """Shot-weighted mean energy of a counts dictionary."""
        if not counts:
            raise VQEError("cannot estimate an expectation value from empty counts")
        total = 0
        acc = 0.0
        for bits, freq in counts.items():
            if freq < 0:
                raise VQEError(f"negative count for bitstring {bits!r}")
            acc += self.energy_of_bits(bits) * freq
            total += freq
        if total == 0:
            raise VQEError("counts dictionary has zero total shots")
        return acc / total

    def _unique_config_energies(
        self, samples: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group a sample array by configuration register and decode each row once.

        Returns ``(energies, inverse, counts)`` where ``energies[i]`` is the
        energy of the i-th distinct configuration row, ``inverse`` maps every
        shot back to its row, and ``counts`` is the multiplicity of each row.
        Grouping keeps the Python-level decoding work proportional to the
        number of distinct conformations rather than the shot count.
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
        config = samples[:, :width]
        if width <= 63:
            # Pack each configuration row into one MSB-first integer code: a
            # 1-D unique is far cheaper than np.unique(axis=0)'s row sort, and
            # numeric order of the codes IS lexicographic order of the rows,
            # so the grouping (and the energy cache's insertion order) is
            # unchanged bit for bit.
            shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
            codes = config.astype(np.int64) @ (np.int64(1) << shifts)
            uniq_codes, inverse, counts = np.unique(
                codes, return_inverse=True, return_counts=True
            )
            uniq = ((uniq_codes[:, None] >> shifts) & 1).astype(np.uint8)
        else:
            uniq, inverse, counts = np.unique(
                config, axis=0, return_inverse=True, return_counts=True
            )
        energies = np.array(self._energies(samples_to_bitstrings(uniq)))
        return energies, np.ravel(inverse), counts

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

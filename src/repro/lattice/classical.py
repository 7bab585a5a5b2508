"""Classical ground-state solvers for the lattice folding Hamiltonian.

Two roles:

* provide the *reference* conformations used by the synthetic
  "experimental X-ray" structure generator (the crystal structure is, by
  definition, the free-energy minimum of the physical model);
* serve as a classical baseline against which the quantum (VQE) pipeline can
  be compared in the ablation benchmarks.

Two strategies are implemented behind one interface:

* exhaustive enumeration of all ``4^(L-3)`` conformations for short fragments
  (exact ground state);
* simulated annealing with single-turn moves for longer fragments
  (deterministic given the seed, near-optimal in practice).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.lattice.tetrahedral import turns_to_coords
from repro.utils.rng import rng_for


@dataclass(frozen=True)
class ClassicalFoldingResult:
    """Outcome of a classical ground-state search."""

    turns: tuple[int, ...]
    energy: float
    ca_coords: np.ndarray
    exact: bool
    evaluations: int


class ClassicalFoldingSolver:
    """Exact / annealed classical solver for :class:`LatticeHamiltonian`.

    Parameters
    ----------
    hamiltonian:
        The fragment Hamiltonian to minimise.
    exact_max_free_turns:
        Exhaustive enumeration is used when the number of free turns is at
        most this value (``4^n`` conformations; the default 7 caps the search
        at 16,384 evaluations).
    """

    def __init__(self, hamiltonian: LatticeHamiltonian, exact_max_free_turns: int = 7):
        self.hamiltonian = hamiltonian
        self.encoding = hamiltonian.encoding
        self.exact_max_free_turns = int(exact_max_free_turns)

    # -- exhaustive search -----------------------------------------------------

    def solve_exact(self) -> ClassicalFoldingResult:
        """Enumerate every conformation and return the exact ground state.

        All ``4^n`` conformations are scored in one kernel call; the scan stays
        sequential, so degenerate ground states resolve to the
        lexicographically smallest turn sequence (the same tie-break the
        quantum decoder applies).
        """
        n_free = self.encoding.num_free_turns
        # Row c: the fixed turns (0, 1), then c's base-4 digits, least significant first.
        codes = np.arange(4**n_free)[:, None]
        free = ((codes >> (2 * np.arange(n_free))) & 3).astype(np.uint8)
        fixed = np.broadcast_to(np.array([0, 1], dtype=np.uint8), (len(codes), 2))
        turns = np.concatenate([fixed, free], axis=1)[:, : self.encoding.length - 1]
        energies = self.hamiltonian.energies(turns).tolist()
        best = 0
        best_energy = np.inf
        for i, e in enumerate(energies):
            if e < best_energy - 1e-9 or (
                abs(e - best_energy) <= 1e-9 and turns[i].tolist() < turns[best].tolist()
            ):
                best_energy = min(e, best_energy)
                best = i
        best_turns = turns[best].tolist()
        return ClassicalFoldingResult(
            turns=tuple(best_turns),
            energy=float(best_energy),
            ca_coords=turns_to_coords(best_turns, bond_length=self.hamiltonian.bond_length),
            exact=True,
            evaluations=len(energies),
        )

    # -- simulated annealing ---------------------------------------------------

    def solve_annealing(
        self,
        seed: int = 0,
        sweeps: int = 400,
        t_start: float | None = None,
        t_end: float | None = None,
    ) -> ClassicalFoldingResult:
        """Simulated annealing over single-turn moves.

        Every single-turn neighbour of the current conformation is scored in
        one kernel call, re-made only after an accepted move; each proposal
        reads its energy from that table.  ``evaluations`` counts the start
        and the proposals scored.  Temperatures default to fractions of the
        Hamiltonian's clash penalty so the schedule adapts to the per-fragment
        energy scale.
        """
        rng = rng_for(seed, "classical-annealing", str(self.hamiltonian.sequence))
        length = self.encoding.length
        n_turns = length - 1
        n_free = self.encoding.num_free_turns
        first_free = n_turns - n_free

        scale = self.hamiltonian._clash_penalty  # noqa: SLF001 - intentional reuse of the scale
        t_start = scale * 0.5 if t_start is None else t_start
        t_end = scale * 0.005 if t_end is None else t_end

        turns = np.array(([0, 1][: n_turns]) + [0] * n_free, dtype=int)[:n_turns]
        # Start from an alternating pattern which is always backtrack-free.
        for k in range(first_free, n_turns):
            turns[k] = (k % 2) * 2  # 0, 2, 0, 2 ... never equal to the previous index

        # The single-turn neighbours of ``turns``: row 4 * (pos - first_free)
        # + value sets turns[pos] = value; the last row is ``turns`` itself.
        # Kernel rows do not depend on their batch, so one call per accepted
        # move gives every proposal the bits a call of its own would.
        rows = np.arange(4 * n_free)
        columns = first_free + rows // 4

        def neighbourhood() -> list[float]:
            neighbours = np.repeat(turns[None], 4 * n_free + 1, axis=0)
            neighbours[rows, columns] = rows % 4
            return self.hamiltonian.energies(neighbours).tolist()

        table = neighbourhood()
        current_e = table[-1]
        best_turns = turns.copy()
        best_e = current_e
        evaluations = 1

        temperatures = np.geomspace(max(t_start, 1e-9), max(t_end, 1e-9), num=max(1, sweeps))
        for temp in temperatures:
            for pos in range(first_free, n_turns):
                new = int(rng.integers(0, 4))
                if new == turns[pos]:
                    continue
                e = table[4 * (pos - first_free) + new]
                evaluations += 1
                if e <= current_e or rng.random() < np.exp(-(e - current_e) / temp):
                    turns[pos] = new
                    current_e = e
                    if e < best_e:
                        best_e = e
                        best_turns = turns.copy()
                    table = neighbourhood()
        return ClassicalFoldingResult(
            turns=tuple(int(t) for t in best_turns),
            energy=float(best_e),
            ca_coords=turns_to_coords(best_turns, bond_length=self.hamiltonian.bond_length),
            exact=False,
            evaluations=evaluations,
        )

    # -- combined entry point ----------------------------------------------------

    def solve(self, seed: int = 0, sweeps: int = 400) -> ClassicalFoldingResult:
        """Exact enumeration when feasible, annealing otherwise."""
        if self.encoding.num_free_turns <= self.exact_max_free_turns:
            return self.solve_exact()
        return self.solve_annealing(seed=seed, sweeps=sweeps)

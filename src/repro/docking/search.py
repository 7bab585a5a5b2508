"""Monte-Carlo rigid-body pose search with local refinement.

AutoDock Vina explores ligand poses with an iterated local-search /
Metropolis scheme.  For rigid ligands the pose space is 6-dimensional
(rotation + translation); :class:`MonteCarloPoseSearch` runs a Metropolis
random walk in that space from several restarts, keeps the best-scoring
distinct poses it visits, and polishes each of them with a short greedy local
refinement.  Every run is fully determined by its seed, which is how the
paper's per-seed docking reproducibility is achieved.

Streams and runs in lock-step
-----------------------------
One search holds every binding site of a receptor.  One
:meth:`MonteCarloPoseSearch.search` call runs a list of *streams*: a stream
is one docking run at one site, with its own generator (the docking engine
derives it from the run's recorded seed and the site index).  Each stream
has the same number of walkers, and every walker of every stream, across
sites and runs, advances in lock-step: a Metropolis step is one batched
proposal and one
:meth:`~repro.docking.scoring.VinaScoringFunction.score_coords_batch` call.
A *run* owns one or more streams, one per site, and is the unit of
selection: its candidates are the walk visits of all its streams, best
first.  Refinement runs in rounds that span all runs: each run picks its
next candidate distinct from its refined poses, and all picks refine
together.  By default every stream is its own run.

Draws
-----
Walker 0 of a stream draws from the stream's generator, the others from
spawned children (:func:`walker_rngs`).  Each walker draws its start, then
its whole walk in two calls: ``standard_normal((steps, 7))`` for the
proposals and ``random(steps)`` for the Metropolis test, which draws a
uniform on every step, uphill or not.  The stream's generator then draws
``standard_normal((num_poses, refine_steps, 7))``, and the k-th candidate
its run takes from that stream refines with block k.  So the number of
draws follows from the knobs alone, a step runs no per-stream Python, and a
run's poses are the same whichever other runs share its search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.geometry import random_rotation, rotation_matrices, rotation_matrix
from repro.docking.ligand import Ligand
from repro.docking.scoring import VinaScoringFunction
from repro.exceptions import DockingError


@dataclass
class Pose:
    """One candidate ligand pose."""

    rotation: np.ndarray
    translation: np.ndarray
    score: float

    def coordinates(self, ligand: Ligand) -> np.ndarray:
        """Ligand atom coordinates in this pose."""
        return ligand.transformed(self.rotation, self.translation)


def walker_rngs(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Independent per-walker RNG substreams.

    Walker 0 is handed the caller's generator itself; the remaining walkers
    get spawned children.  Spawning derives fresh child seed sequences without
    consuming any draws from the parent stream, so walker 0's sequence — and
    with it the single-walker search output — is unchanged by how many other
    walkers exist.
    """
    if count <= 1:
        return [rng]
    return [rng, *rng.spawn(count - 1)]


class MonteCarloPoseSearch:
    """Metropolis pose search around one or more binding-site centres.

    ``site_centers`` is one centre ``(3,)`` or one per site ``(K, 3)``;
    ``site_radii`` is one radius for every site or one per site.
    """

    def __init__(
        self,
        scorer: VinaScoringFunction,
        site_centers: np.ndarray,
        site_radii: float | np.ndarray = 6.0,
        temperature: float = 1.2,
        translation_step: float = 1.0,
        rotation_step: float = 0.5,
        initial_rotations: list[np.ndarray] | None = None,
    ):
        self.scorer = scorer
        self.site_centers = np.asarray(site_centers, dtype=float).reshape(-1, 3)
        self.site_radii = np.broadcast_to(
            np.asarray(site_radii, dtype=float), len(self.site_centers)
        ).copy()
        if np.any(self.site_radii <= 0):
            raise DockingError(f"site radii must be positive, got {self.site_radii.tolist()}")
        self.temperature = float(temperature)
        self.translation_step = float(translation_step)
        self.rotation_step = float(rotation_step)
        # Deterministic starting orientations tried before random restarts
        # (identity first: ligand and receptor frames are both pocket-derived,
        # so the near-native orientation is always worth probing).
        if initial_rotations is None:
            initial_rotations = [np.eye(3)]
            for axis in (np.array([1.0, 0, 0]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0])):
                initial_rotations.append(rotation_matrix(axis, np.pi))
        self.initial_rotations = [np.asarray(r, dtype=float) for r in initial_rotations]

    # -- proposals ---------------------------------------------------------------

    def _initial_state(
        self, walker: int, site: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Starting (rotation, translation) of one walker at ``site`` (scoring separate)."""
        if walker < len(self.initial_rotations):
            rotation = self.initial_rotations[walker]
            offset = rng.normal(scale=0.5, size=3)
        else:
            rotation = random_rotation(rng)
            offset = rng.normal(scale=self.site_radii[site] / 2.0, size=3)
        return rotation, self.site_centers[site] + offset

    def _propose(
        self, rotations: np.ndarray, translations: np.ndarray, z: np.ndarray, scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perturb and score stacked poses by the standard normals ``z`` ``(P, 7)``.

        Columns: rotation axis (3), angle (1), shift (3).
        """
        turns = rotation_matrices(z[:, :3], (self.rotation_step * scale) * z[:, 3])
        rotations = np.matmul(turns, rotations)
        translations = translations + (self.translation_step * scale) * z[:, 4:]
        return rotations, translations, self._score(rotations, translations)

    def _score(self, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
        """Score stacked poses in one batched call."""
        coords = np.matmul(self.scorer.ligand.coords, rotations.transpose(0, 2, 1))
        return self.scorer.score_coords_batch(coords + translations[:, None, :])

    # -- search ------------------------------------------------------------------

    def _walk(
        self, walkers: int, steps: int, rngs: list, sites: list[int]
    ) -> tuple[np.ndarray, ...]:
        """Advance every walker of every stream in lock-step.

        Row ``i`` is walker ``i % walkers`` of stream ``i // walkers``.
        Returns every visited pose as rows of ``(row, rotations, translations,
        scores)`` in step order: stacked arrays rather than a :class:`Pose`
        per visit keep a many-stream walk's memory small.
        """
        rows = len(rngs) * walkers
        rotations = np.empty((rows, 3, 3))
        translations = np.empty((rows, 3))
        normals = np.empty((steps, rows, 7))
        uniforms = np.empty((steps, rows))
        row = 0
        for rng, site in zip(rngs, sites):
            for walker, walker_rng in enumerate(walker_rngs(rng, walkers)):
                rotations[row], translations[row] = self._initial_state(walker, site, walker_rng)
                normals[:, row] = walker_rng.standard_normal((steps, 7))
                uniforms[:, row] = walker_rng.random(steps)
                row += 1
        current = (rotations, translations, self._score(rotations, translations))
        visited = [(np.arange(rows), *(part.copy() for part in current))]
        for z, u in zip(normals, uniforms):
            proposed = self._propose(current[0], current[1], z)
            # Metropolis: accept with probability min(1, exp(-delta / T)).
            delta = np.maximum(proposed[2] - current[2], 0.0)
            accepted = u < np.exp(-delta / self.temperature)
            _update(current, proposed, accepted)
            visited.append((np.flatnonzero(accepted), *(part[accepted] for part in proposed)))
        return tuple(np.concatenate(parts) for parts in zip(*visited))

    def _refine(self, current: tuple, z: np.ndarray) -> list[Pose]:
        """Greedy lock-step refinement of stacked ``(rotations, translations, scores)``.

        Step ``i`` perturbs pose ``p`` by the standard normals ``z[p, i]``.
        """
        for i in range(z.shape[1]):
            proposed = self._propose(current[0], current[1], z[:, i], scale=0.5 / (1.0 + i))
            _update(current, proposed, proposed[2] < current[2])
        return [Pose(r.copy(), t.copy(), float(s)) for r, t, s in zip(*current)]

    def search(
        self,
        steps: int,
        rngs: list[np.random.Generator],
        sites: list[int],
        num_poses: int = 10,
        restarts: int = 3,
        refine_steps: int = 25,
        runs: list[int] | None = None,
    ) -> list[list[Pose]]:
        """Search stream ``i`` at site ``sites[i]`` with generator ``rngs[i]``
        for run ``runs[i]`` (default: every stream is its own run).

        Runs are numbered from 0 and each owns at least one stream.  Returns
        each run's best distinct poses over all its streams, best first.
        Poses are deduplicated on their translation (two poses closer than
        1.0 Å are considered the same binding mode and only the better one is
        kept), mirroring how Vina clusters its output modes.
        """
        if steps <= 0:
            raise DockingError(f"steps must be positive, got {steps}")
        if not rngs:
            raise DockingError("pose search needs at least one stream")
        if len(sites) != len(rngs) or not all(0 <= s < len(self.site_centers) for s in sites):
            raise DockingError(
                f"need one site in [0, {len(self.site_centers)}) per stream, got {list(sites)}"
            )
        runs = np.arange(len(rngs)) if runs is None else np.asarray(runs, dtype=int)
        run_ids = np.unique(runs)
        if len(runs) != len(rngs) or not np.array_equal(run_ids, np.arange(len(run_ids))):
            raise DockingError(
                f"need one run per stream, numbered from 0 with none left out, got {runs.tolist()}"
            )
        num_runs = len(run_ids)
        walkers = max(restarts, len(self.initial_rotations) + 1)
        row, *poses = self._walk(walkers, max(1, steps // walkers), rngs, sites)
        translations, scores = poses[1:]
        # Each run's candidates best first; ties keep stream-major, then
        # walker-major visit order.
        stream = row // walkers
        run = runs[stream]
        order = np.lexsort((row, scores, run))
        queues = [
            iter(rows)
            for rows in np.split(order, np.searchsorted(run[order], np.arange(1, num_runs)))
        ]
        refine_draws = np.stack(
            [rng.standard_normal((num_poses, max(0, refine_steps), 7)) for rng in rngs]
        )
        # The candidates each stream has handed its run so far.
        taken = np.zeros(len(rngs), dtype=int)
        # Every round picks each run's next candidate that is distinct from
        # its refined poses, then refines all picks together.
        selected: list[list[Pose]] = [[] for _ in range(num_runs)]
        while True:
            picks: dict[int, int] = {}
            for index, (kept, queue) in enumerate(zip(selected, queues)):
                if len(kept) < num_poses:
                    pick = next((r for r in queue if _distinct(translations[r], kept)), None)
                    if pick is not None:
                        picks[index] = pick
            if not picks:
                break
            rows = list(picks.values())
            current = tuple(part[rows] for part in poses)
            # One pick per run, so the picked streams are distinct.
            streams = stream[rows]
            z = refine_draws[streams, taken[streams]]
            taken[streams] += 1
            for index, pose in zip(picks, self._refine(current, z)):
                selected[index].append(pose)
        if not all(selected):
            raise DockingError("pose search produced no candidates")
        for kept in selected:
            kept.sort(key=lambda p: p.score)
        return selected


def _update(current: tuple, proposed: tuple, mask: np.ndarray) -> None:
    """Overwrite the masked rows of the current pose arrays with the proposed ones."""
    for now, new in zip(current, proposed):
        now[mask] = new[mask]


def _distinct(translation: np.ndarray, kept: list[Pose]) -> bool:
    """Whether a pose at ``translation`` is over 1.0 Å from every kept pose."""
    return all(np.linalg.norm(translation - other.translation) > 1.0 for other in kept)

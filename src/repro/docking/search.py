"""Monte-Carlo rigid-body pose search with local refinement.

AutoDock Vina explores ligand poses with an iterated local-search /
Metropolis scheme.  For rigid ligands the pose space is 6-dimensional
(rotation + translation); :class:`MonteCarloPoseSearch` runs a Metropolis
random walk in that space from several restarts, keeps the best-scoring
distinct poses it visits, and polishes each of them with a short greedy local
refinement.  Every run is fully determined by its seed, which is how the
paper's per-seed docking reproducibility is achieved.

Multi-seed lock-step
--------------------
One :meth:`MonteCarloPoseSearch.search` call runs every seed at one site.
All seeds × walkers (20 × 5 under the paper preset) advance in lock-step:
a Metropolis step is one batched proposal and one
:meth:`~repro.docking.scoring.VinaScoringFunction.score_coords_batch` call.
Refinement runs in rounds: each seed picks its next candidate distinct from
its refined poses, and all picks refine together.  Each walker draws from
its own stream (walker 0: the seed's generator; others: spawned children)
in the order a one-seed, one-walker-at-a-time search would, so the output
is bit-identical to it.  Sites stay sequential: walker 0's draws carry from
one site to the next.
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
    """Metropolis pose search around a binding-site centre."""

    def __init__(
        self,
        scorer: VinaScoringFunction,
        site_center: np.ndarray,
        site_radius: float = 6.0,
        temperature: float = 1.2,
        translation_step: float = 1.0,
        rotation_step: float = 0.5,
        initial_rotations: list[np.ndarray] | None = None,
    ):
        if site_radius <= 0:
            raise DockingError(f"site radius must be positive, got {site_radius}")
        self.scorer = scorer
        self.site_center = np.asarray(site_center, dtype=float).reshape(3)
        self.site_radius = float(site_radius)
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
        self, walker: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Starting (rotation, translation) of one walker (scoring separate)."""
        if walker < len(self.initial_rotations):
            rotation = self.initial_rotations[walker]
            offset = rng.normal(scale=0.5, size=3)
        else:
            rotation = random_rotation(rng)
            offset = rng.normal(scale=self.site_radius / 2.0, size=3)
        return rotation, self.site_center + offset

    def _propose(
        self, rotations: np.ndarray, translations: np.ndarray, rngs: list, scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Perturb and score stacked poses; row ``i`` draws ``standard_normal(7)`` from ``rngs[i]``.

        Axis (3), angle (1), shift (3): the bits of separate ``normal`` calls.
        """
        z = np.stack([rng.standard_normal(7) for rng in rngs])
        turns = rotation_matrices(z[:, :3], (self.rotation_step * scale) * z[:, 3])
        rotations = np.matmul(turns, rotations)
        translations = translations + (self.translation_step * scale) * z[:, 4:]
        return rotations, translations, self._score(rotations, translations)

    def _score(self, rotations: np.ndarray, translations: np.ndarray) -> np.ndarray:
        """Score stacked poses in one batched call."""
        coords = np.matmul(self.scorer.ligand.coords, rotations.transpose(0, 2, 1))
        return self.scorer.score_coords_batch(coords + translations[:, None, :])

    # -- search ------------------------------------------------------------------

    def _walk(self, walkers: int, steps: int, rngs: list) -> tuple[np.ndarray, ...]:
        """Advance all streams in lock-step; stream ``i`` is walker ``i % walkers`` of its seed.

        Returns every visited pose as rows of ``(stream, rotations,
        translations, scores)`` in step order: stacked arrays rather than a
        :class:`Pose` per visit keep a many-seed walk's memory small.
        """
        states = [self._initial_state(i % walkers, rng) for i, rng in enumerate(rngs)]
        rotations = np.stack([rotation for rotation, _ in states])
        translations = np.stack([translation for _, translation in states])
        current = (rotations, translations, self._score(rotations, translations))
        visited = [(np.arange(len(rngs)), *(part.copy() for part in current))]
        for _ in range(steps):
            proposed = self._propose(rotations, translations, rngs)
            # Metropolis acceptance draws a uniform only for uphill moves.
            accepted = np.array([
                delta <= 0 or rng.random() < np.exp(-delta / self.temperature)
                for delta, rng in zip(proposed[2] - current[2], rngs)
            ])
            _update(current, proposed, accepted)
            visited.append((np.flatnonzero(accepted), *(part[accepted] for part in proposed)))
        return tuple(np.concatenate(parts) for parts in zip(*visited))

    def _refine(self, current: tuple, rngs: list, steps: int) -> list[Pose]:
        """Greedy lock-step refinement of stacked ``(rotations, translations, scores)``."""
        for i in range(max(0, steps)):
            proposed = self._propose(current[0], current[1], rngs, scale=0.5 / (1.0 + i))
            _update(current, proposed, proposed[2] < current[2])
        return [Pose(r.copy(), t.copy(), float(s)) for r, t, s in zip(*current)]

    def search(
        self,
        steps: int,
        rngs: list[np.random.Generator],
        num_poses: int = 10,
        restarts: int = 3,
        refine_steps: int = 25,
    ) -> list[list[Pose]]:
        """Run one search per seed generator; return each seed's best distinct poses.

        Poses are deduplicated on their translation (two poses closer than
        1.0 Å are considered the same binding mode and only the better one is
        kept), mirroring how Vina clusters its output modes.
        """
        if steps <= 0:
            raise DockingError(f"steps must be positive, got {steps}")
        if not rngs:
            raise DockingError("pose search needs at least one seed generator")
        walkers = max(restarts, len(self.initial_rotations) + 1)
        streams = [stream for rng in rngs for stream in walker_rngs(rng, walkers)]
        stream, *poses = self._walk(walkers, max(1, steps // walkers), streams)
        translations, scores = poses[1:]
        # Each seed's candidates best first; ties keep walker-major visit order.
        queues = []
        for seed in range(len(rngs)):
            rows = np.flatnonzero(stream // walkers == seed)
            queues.append(iter(rows[np.lexsort((stream[rows], scores[rows]))]))
        # Selection and refinement consume each seed's own generator (its
        # walker 0 stream): every round picks each seed's next candidate that
        # is distinct from its refined poses, then refines all picks together.
        selected: list[list[Pose]] = [[] for _ in rngs]
        while True:
            picks: dict[int, int] = {}
            for seed, (kept, queue) in enumerate(zip(selected, queues)):
                if len(kept) < num_poses:
                    row = next((r for r in queue if _distinct(translations[r], kept)), None)
                    if row is not None:
                        picks[seed] = row
            if not picks:
                break
            current = tuple(part[list(picks.values())] for part in poses)
            for seed, pose in zip(picks, self._refine(current, [rngs[s] for s in picks], refine_steps)):
                selected[seed].append(pose)
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

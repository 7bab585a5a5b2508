"""Monte-Carlo rigid-body pose search with local refinement.

AutoDock Vina explores ligand poses with an iterated local-search /
Metropolis scheme.  For rigid ligands the pose space is 6-dimensional
(rotation + translation); :class:`MonteCarloPoseSearch` runs a Metropolis
random walk in that space from several restarts, keeps the best-scoring
distinct poses it visits, and polishes each of them with a short greedy local
refinement.  Every run is fully determined by its seed, which is how the
paper's per-seed docking reproducibility is achieved.

Multi-walker batching
---------------------
The restarts are independent walkers, so they advance in *lock-step*: every
Metropolis step scores all walkers' proposals in one
:meth:`~repro.docking.scoring.VinaScoringFunction.score_coords_batch` call.
Each walker owns its own RNG substream — walker 0 uses the caller's generator
directly and walkers 1..W-1 are spawned children — so the draw sequence per
walker does not depend on how the walkers interleave: the lock-step walk
returns bit-identical poses to advancing the walkers one at a time, and a
single-walker search consumes the caller's generator exactly as a sequential
implementation would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bio.geometry import random_rotation, rotation_matrix
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

    def _proposal_state(
        self, pose: Pose, rng: np.random.Generator, scale: float = 1.0
    ) -> tuple[np.ndarray, np.ndarray]:
        """Perturbed (rotation, translation) of one pose (scoring separate)."""
        axis = rng.normal(size=3)
        angle = rng.normal(scale=self.rotation_step * scale)
        rotation = rotation_matrix(axis, angle) @ pose.rotation
        translation = pose.translation + rng.normal(scale=self.translation_step * scale, size=3)
        return rotation, translation

    def _perturb(self, pose: Pose, rng: np.random.Generator, scale: float = 1.0) -> Pose:
        rotation, translation = self._proposal_state(pose, rng, scale)
        score = self.scorer.score_pose(rotation, translation)
        return Pose(rotation=rotation, translation=translation, score=score)

    def _score_states(self, states: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
        """Score many (rotation, translation) states in one batched call."""
        ligand = self.scorer.ligand
        coords = np.stack([ligand.transformed(r, t) for r, t in states])
        return self.scorer.score_coords_batch(coords)

    def _accept(self, delta: float, rng: np.random.Generator) -> bool:
        """Metropolis acceptance; draws a uniform only for uphill moves."""
        return delta <= 0 or rng.random() < np.exp(-delta / self.temperature)

    # -- walkers -----------------------------------------------------------------

    def _walk_batch(
        self, walkers: int, steps: int, rngs: list[np.random.Generator]
    ) -> list[Pose]:
        """Advance all walkers in lock-step, scoring each step as one batch.

        Candidates are collected per walker and concatenated walker-major, so
        the candidate order — and with it every downstream stable sort — is
        that of advancing the walkers one after another.
        """
        states = [self._initial_state(walker, rngs[walker]) for walker in range(walkers)]
        scores = self._score_states(states)
        current = [
            Pose(rotation, translation, float(score))
            for (rotation, translation), score in zip(states, scores)
        ]
        per_walker: list[list[Pose]] = [[pose] for pose in current]
        for _ in range(steps):
            proposals = [
                self._proposal_state(current[walker], rngs[walker])
                for walker in range(walkers)
            ]
            scores = self._score_states(proposals)
            for walker in range(walkers):
                rotation, translation = proposals[walker]
                proposal = Pose(rotation, translation, float(scores[walker]))
                if self._accept(proposal.score - current[walker].score, rngs[walker]):
                    current[walker] = proposal
                    per_walker[walker].append(proposal)
        return [pose for walker_poses in per_walker for pose in walker_poses]

    # -- search ------------------------------------------------------------------

    def search(
        self,
        steps: int,
        rng: np.random.Generator,
        num_poses: int = 10,
        restarts: int = 3,
        refine_steps: int = 25,
    ) -> list[Pose]:
        """Run the search and return the best ``num_poses`` distinct poses.

        Poses are deduplicated on their translation (two poses closer than
        1.0 Å are considered the same binding mode and only the better one is
        kept), mirroring how Vina clusters its output modes.
        """
        if steps <= 0:
            raise DockingError(f"steps must be positive, got {steps}")
        restarts = max(restarts, len(self.initial_rotations) + 1)
        walkers = max(1, restarts)
        steps_per_restart = max(1, steps // walkers)
        candidates = self._walk_batch(walkers, steps_per_restart, walker_rngs(rng, walkers))

        # Keep the best candidates, deduplicated by binding mode.  Selection
        # and refinement consume the caller's generator (walker 0's stream)
        # sequentially.
        candidates.sort(key=lambda p: p.score)
        selected: list[Pose] = []
        for pose in candidates:
            if len(selected) >= num_poses:
                break
            if all(np.linalg.norm(pose.translation - kept.translation) > 1.0 for kept in selected):
                selected.append(self._refine(pose, rng, refine_steps))
        if not selected:
            raise DockingError("pose search produced no candidates")
        selected.sort(key=lambda p: p.score)
        return selected

    def _refine(self, pose: Pose, rng: np.random.Generator, steps: int) -> Pose:
        """Greedy local refinement with shrinking step size."""
        best = pose
        for i in range(max(0, steps)):
            scale = 0.5 / (1.0 + i)
            trial = self._perturb(best, rng, scale=scale)
            if trial.score < best.score:
                best = trial
        return best

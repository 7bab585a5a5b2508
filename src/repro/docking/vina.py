"""The docking engine: multi-seed runs, top-k poses, pose-RMSD bounds.

Mirrors the paper's docking protocol (Sec. 4.2, 6.1.2): every receptor
structure is docked against its native ligand in ``N`` independent runs, each
initialised with a distinct recorded random seed; each run reports its top 10
poses ranked by affinity together with the RMSD lower/upper bounds of each
pose relative to the best pose of that run (the numbers AutoDock Vina prints).

Engine-job entry point
----------------------
Docking searches are first-class engine jobs (``kind="dock"``, see
:class:`repro.engine.jobs.DockSpec`): :func:`dock_structure` is the
module-level executor entry point — it builds a :class:`DockingEngine` from
the dock-relevant :class:`~repro.config.PipelineConfig` knobs
(``docking_seeds``, ``docking_poses``, ``docking_mc_steps``, ``seed``) and
runs the full multi-seed search.  Every run's seed derives from the master
seed plus the receptor identity plus the run index (``child_seed``), never
from worker assignment, so results are bit-identical for any worker count;
the run searches each binding site on its own stream derived from that seed
and refines its best candidates over all its sites.
:meth:`DockingResult.from_dict` rebuilds a result from its serialised summary,
which is what the engine's persistent cache stores; a warm cache therefore
replays docking results without a single Monte-Carlo step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bio.structure import Structure
from repro.config import PipelineConfig
from repro.docking.ligand import Ligand
from repro.docking.pocket import find_pockets
from repro.docking.scoring import ScoringWeights, VinaScoringFunction
from repro.docking.search import MonteCarloPoseSearch, Pose
from repro.exceptions import DockingError
from repro.utils.rng import child_seed, rng_for


def pose_rmsd_upper(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """Vina's RMSD u.b.: direct per-atom RMSD with identity atom mapping."""
    diff = np.asarray(coords_a, dtype=float) - np.asarray(coords_b, dtype=float)
    return float(np.sqrt(np.mean(np.einsum("ij,ij->i", diff, diff))))


def pose_rmsd_lower(coords_a: np.ndarray, coords_b: np.ndarray) -> float:
    """Vina's RMSD l.b.: each atom matched to its nearest atom in the other pose."""
    a = np.asarray(coords_a, dtype=float)
    b = np.asarray(coords_b, dtype=float)
    diff = a[:, None, :] - b[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    forward = dist2.min(axis=1)
    backward = dist2.min(axis=0)
    return float(np.sqrt(0.5 * (forward.mean() + backward.mean())))


@dataclass
class DockedPose:
    """One output binding mode."""

    rank: int
    affinity: float
    rmsd_lb: float
    rmsd_ub: float
    coordinates: np.ndarray

    def as_dict(self) -> dict:
        """JSON-serialisable view (coordinates rounded to keep files small)."""
        return {
            "rank": int(self.rank),
            "affinity": float(self.affinity),
            "rmsd_lb": float(self.rmsd_lb),
            "rmsd_ub": float(self.rmsd_ub),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DockedPose":
        """Inverse of :meth:`as_dict` (pose coordinates are not serialised)."""
        return cls(
            rank=int(data["rank"]),
            affinity=float(data["affinity"]),
            rmsd_lb=float(data["rmsd_lb"]),
            rmsd_ub=float(data["rmsd_ub"]),
            coordinates=np.empty((0, 3)),
        )


@dataclass
class DockingRun:
    """One seed's docking run."""

    seed: int
    poses: list[DockedPose] = field(default_factory=list)

    @property
    def best_affinity(self) -> float:
        """Affinity of the top pose."""
        if not self.poses:
            raise DockingError("docking run has no poses")
        return self.poses[0].affinity

    @property
    def mean_affinity(self) -> float:
        """Mean affinity over the run's reported poses."""
        return float(np.mean([p.affinity for p in self.poses]))

    def as_dict(self) -> dict:
        """JSON-serialisable view."""
        return {
            "seed": int(self.seed),
            "best_affinity": float(self.best_affinity),
            "mean_affinity": float(self.mean_affinity),
            "poses": [p.as_dict() for p in self.poses],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DockingRun":
        """Inverse of :meth:`as_dict`; aggregates recompute from the poses."""
        return cls(
            seed=int(data["seed"]),
            poses=[DockedPose.from_dict(p) for p in data["poses"]],
        )


@dataclass
class DockingResult:
    """All runs for one receptor/ligand pair plus aggregates."""

    receptor_id: str
    ligand_name: str
    runs: list[DockingRun] = field(default_factory=list)

    @property
    def best_affinity(self) -> float:
        """Best (lowest) affinity over all runs."""
        return min(run.best_affinity for run in self.runs)

    @property
    def mean_best_affinity(self) -> float:
        """Mean of the per-run best affinities (the paper's headline affinity score)."""
        return float(np.mean([run.best_affinity for run in self.runs]))

    @property
    def mean_affinity(self) -> float:
        """Mean affinity over every reported pose of every run."""
        return float(np.mean([p.affinity for run in self.runs for p in run.poses]))

    @property
    def mean_rmsd_lb(self) -> float:
        """Mean pose-RMSD lower bound over non-top poses (Table 4's "RMSD l.b.")."""
        values = [p.rmsd_lb for run in self.runs for p in run.poses[1:]]
        return float(np.mean(values)) if values else 0.0

    @property
    def mean_rmsd_ub(self) -> float:
        """Mean pose-RMSD upper bound over non-top poses (Table 4's "RMSD u.b.")."""
        values = [p.rmsd_ub for run in self.runs for p in run.poses[1:]]
        return float(np.mean(values)) if values else 0.0

    def as_dict(self) -> dict:
        """JSON-serialisable view stored in the dataset's docking JSON files."""
        return {
            "receptor": self.receptor_id,
            "ligand": self.ligand_name,
            "num_runs": len(self.runs),
            "best_affinity": float(self.best_affinity),
            "mean_best_affinity": float(self.mean_best_affinity),
            "mean_affinity": float(self.mean_affinity),
            "mean_rmsd_lb": float(self.mean_rmsd_lb),
            "mean_rmsd_ub": float(self.mean_rmsd_ub),
            "runs": [run.as_dict() for run in self.runs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DockingResult":
        """Rebuild a result from its :meth:`as_dict` summary.

        Every aggregate property recomputes from the restored per-pose numbers
        (floats round-trip JSON exactly), so a deserialised result reports the
        same affinities and RMSD bounds as the fresh search it was saved from.
        """
        return cls(
            receptor_id=data["receptor"],
            ligand_name=data["ligand"],
            runs=[DockingRun.from_dict(run) for run in data["runs"]],
        )


def dock_structure(
    receptor: Structure,
    ligand: Ligand,
    config: PipelineConfig | None = None,
    receptor_id: str | None = None,
) -> DockingResult:
    """Run the full multi-seed docking protocol for one receptor/ligand pair.

    This is the engine's ``dock`` job executor entry point: it constructs a
    :class:`DockingEngine` from the dock-relevant configuration knobs and
    returns the complete :class:`DockingResult`.  Deterministic in
    ``(receptor, ligand, receptor_id, config)`` — the per-run seeds derive
    from ``config.seed`` and ``receptor_id`` only.
    """
    config = config or PipelineConfig()
    engine = DockingEngine(
        num_seeds=config.docking_seeds,
        num_poses=config.docking_poses,
        mc_steps=config.docking_mc_steps,
        master_seed=config.seed,
    )
    return engine.dock(receptor, ligand, receptor_id=receptor_id)


@dataclass
class PreparedDock:
    """The seed-invariant part of a docking task, built once per receptor/ligand.

    Scorer construction (receptor typing plus all precomputed pair-type
    matrices), pocket detection and the search over every site depend only
    on the receptor/ligand pair, never on the run seed — so a multi-seed dock
    prepares them exactly once and replays the same prepared task for every
    seed.
    """

    ligand: Ligand
    scorer: VinaScoringFunction
    search: MonteCarloPoseSearch
    steps_per_site: int


class DockingEngine:
    """Multi-seed rigid docking of one ligand against one receptor structure."""

    def __init__(
        self,
        num_seeds: int = 20,
        num_poses: int = 10,
        mc_steps: int = 200,
        weights: ScoringWeights | None = None,
        master_seed: int = 101,
        site_radius: float = 6.0,
    ):
        if num_seeds <= 0 or num_poses <= 0 or mc_steps <= 0:
            raise DockingError("num_seeds, num_poses and mc_steps must be positive")
        self.num_seeds = int(num_seeds)
        self.num_poses = int(num_poses)
        self.mc_steps = int(mc_steps)
        self.weights = weights or ScoringWeights()
        self.master_seed = int(master_seed)
        self.site_radius = float(site_radius)

    def prepare(self, receptor: Structure, ligand: Ligand) -> PreparedDock:
        """Build the seed-invariant task state: scorer, pockets, search."""
        centered = ligand.centered()
        scorer = VinaScoringFunction(receptor, centered, weights=self.weights)
        # Search every detected binding site (blind docking over the fragment
        # surface), the way Vina explores its whole search box.
        pockets = find_pockets(receptor, num_sites=3)
        search = MonteCarloPoseSearch(
            scorer,
            [p.center for p in pockets],
            site_radii=[min(self.site_radius, p.radius) for p in pockets],
        )
        steps_per_site = max(10, self.mc_steps // len(pockets))
        return PreparedDock(
            ligand=centered, scorer=scorer, search=search, steps_per_site=steps_per_site
        )

    def dock(self, receptor: Structure, ligand: Ligand, receptor_id: str | None = None) -> DockingResult:
        """Dock ``ligand`` against ``receptor`` over all seeds."""
        receptor_id = receptor_id or receptor.structure_id
        prepared = self.prepare(receptor, ligand)
        return self.dock_prepared(prepared, receptor_id, ligand_name=ligand.name)

    def dock_prepared(
        self, prepared: PreparedDock, receptor_id: str, ligand_name: str | None = None
    ) -> DockingResult:
        """Run every seed at every site of an already-prepared docking task in one search.

        Run ``seed`` searches site ``k`` on its own stream,
        ``rng_for(seed, "run", k)``, so a recorded seed reproduces its run,
        and refines its best ``num_poses`` distinct candidates over all its
        sites.
        """
        result = DockingResult(
            receptor_id=receptor_id,
            ligand_name=ligand_name if ligand_name is not None else prepared.ligand.name,
        )
        seeds = [child_seed(self.master_seed, "docking", receptor_id, i) for i in range(self.num_seeds)]
        sites = range(len(prepared.search.site_centers))
        found = prepared.search.search(
            prepared.steps_per_site,
            [rng_for(seed, "run", site) for seed in seeds for site in sites],
            [site for _ in seeds for site in sites],
            num_poses=self.num_poses,
            runs=[run for run in range(len(seeds)) for _ in sites],
        )
        for seed, poses in zip(seeds, found):
            result.runs.append(self._build_run(seed, poses, prepared.ligand))
        return result

    def _build_run(self, seed: int, poses: list[Pose], ligand: Ligand) -> DockingRun:
        best_coords = poses[0].coordinates(ligand)
        docked: list[DockedPose] = []
        for rank, pose in enumerate(poses, start=1):
            coords = pose.coordinates(ligand)
            if rank == 1:
                lb = ub = 0.0
            else:
                lb = pose_rmsd_lower(coords, best_coords)
                ub = pose_rmsd_upper(coords, best_coords)
            docked.append(
                DockedPose(rank=rank, affinity=pose.score, rmsd_lb=lb, rmsd_ub=ub, coordinates=coords)
            )
        return DockingRun(seed=seed, poses=docked)

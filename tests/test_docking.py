"""Tests for the docking engine: ligands, pockets, scoring, search, multi-seed runs."""

import numpy as np
import pytest

from repro.bio.geometry import random_rotation
from repro.bio.reference import ReferenceStructureGenerator
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.docking.pocket import find_pocket, find_pockets
from repro.docking.scoring import CUTOFF, ScoringWeights, VinaScoringFunction
from repro.docking.search import MonteCarloPoseSearch, Pose, walker_rngs
from repro.docking.vina import DockingEngine, pose_rmsd_lower, pose_rmsd_upper
from repro.exceptions import DockingError


@pytest.fixture(scope="module")
def reference_record():
    return ReferenceStructureGenerator().generate("3eax", "RYRDV")


@pytest.fixture(scope="module")
def ligand(reference_record):
    return SyntheticLigandGenerator().generate(reference_record)


# -- ligand model -----------------------------------------------------------------


def test_ligand_validation():
    with pytest.raises(DockingError):
        Ligand("bad", np.zeros((0, 3)), [], np.array([]), np.array([]), np.array([]), np.array([]))
    with pytest.raises(DockingError):
        Ligand(
            "bad",
            np.zeros((2, 3)),
            ["C", "C"],
            np.array([True]),  # wrong length
            np.array([False, False]),
            np.array([False, False]),
            np.array([0.0, 0.0]),
        )


def test_synthetic_ligand_properties(reference_record, ligand):
    assert 3 <= ligand.num_atoms <= 18
    assert ligand.num_rotatable_bonds >= 0
    # Deterministic: regenerating gives the same molecule.
    again = SyntheticLigandGenerator().generate(reference_record)
    assert np.allclose(again.coords, ligand.coords)
    # The ligand does not clash with the reference receptor it was grown in.
    receptor_coords = reference_record.structure.all_coords()
    dist = np.linalg.norm(ligand.coords[:, None, :] - receptor_coords[None, :, :], axis=2)
    assert dist.min() > 3.0


def test_ligand_centered_uses_anchor(ligand):
    centered = ligand.centered()
    assert np.allclose(centered.coords, ligand.coords - ligand.anchor)
    assert np.allclose(centered.anchor, 0.0)


def test_ligand_size_scales_with_fragment_length(reference_record):
    big_ref = ReferenceStructureGenerator().generate("4jpy", "DYLEAYGKGGVKAK")
    small = SyntheticLigandGenerator().generate(reference_record)
    big = SyntheticLigandGenerator().generate(big_ref)
    assert big.num_atoms >= small.num_atoms


# -- pocket detection ---------------------------------------------------------------


def test_find_pocket_outside_receptor(reference_record):
    pocket = find_pocket(reference_record.structure)
    coords = reference_record.structure.all_coords()
    min_dist = np.linalg.norm(coords - pocket.center, axis=1).min()
    assert min_dist > 3.0  # no steric clash
    assert pocket.contact_count > 0


def test_find_pockets_distinct(reference_record):
    sites = find_pockets(reference_record.structure, num_sites=3)
    assert 1 <= len(sites) <= 3
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            assert np.linalg.norm(sites[i].center - sites[j].center) >= 4.0


# -- scoring ---------------------------------------------------------------------------


def test_scoring_clash_is_penalised(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    good = scorer.score_coords(ligand.coords)
    # Slam the ligand into the receptor centre: heavy steric repulsion.
    clashed = ligand.coords - (ligand.coords.mean(axis=0) - reference_record.structure.centroid())
    bad = scorer.score_coords(clashed)
    assert good < bad


def test_scoring_far_away_is_zero(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    far = ligand.coords + np.array([500.0, 0.0, 0.0])
    assert scorer.score_coords(far) == pytest.approx(0.0, abs=1e-6)


def test_scoring_rotor_penalty_reduces_magnitude(reference_record, ligand):
    rigid = Ligand(
        ligand.name, ligand.coords, list(ligand.elements), ligand.hydrophobic,
        ligand.donor, ligand.acceptor, ligand.charges, num_rotatable_bonds=0, anchor=ligand.anchor,
    )
    flexible = Ligand(
        ligand.name, ligand.coords, list(ligand.elements), ligand.hydrophobic,
        ligand.donor, ligand.acceptor, ligand.charges, num_rotatable_bonds=10, anchor=ligand.anchor,
    )
    s_rigid = VinaScoringFunction(reference_record.structure, rigid).score_coords(ligand.coords)
    s_flex = VinaScoringFunction(reference_record.structure, flexible).score_coords(ligand.coords)
    assert abs(s_flex) < abs(s_rigid)


def test_scoring_shape_mismatch_raises(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    with pytest.raises(DockingError):
        scorer.score_coords(np.zeros((2, 3)))


# -- batched scoring ----------------------------------------------------------------------


def _pose_batch(ligand, center, count, seed=0):
    """Random rigid poses: half clustered at the pocket, half scattered wide."""
    rng = np.random.default_rng(seed)
    scales = [2.0 if i % 2 == 0 else 30.0 for i in range(count)]
    return np.stack(
        [
            ligand.transformed(random_rotation(rng), center + rng.normal(scale=scale, size=3))
            for scale in scales
        ]
    )


def _full_matrix_scores(scorer, coords):
    """Reference evaluation: every term on the full (P, A, R) tensor, masked after."""
    w = scorer.weights
    surf = scorer._surface_distances(coords)
    within = surf < CUTOFF
    pair = np.exp(-((surf / 0.5) ** 2)) * w.gauss1
    pair += np.exp(-(((surf - 3.0) / 2.0) ** 2)) * w.gauss2
    pair += np.where(surf < 0.0, surf * surf, 0.0) * w.repulsion
    pair += np.clip(1.5 - surf, 0.0, 1.0) * scorer._hydrophobic_pair * w.hydrophobic
    if w.electrostatic != 0.0:
        pair += np.exp(-((surf / 1.5) ** 2)) * scorer._charge_product * w.electrostatic
    pair_sum = np.where(within, pair, 0.0).reshape(coords.shape[0], -1).sum(axis=1)
    hbond = np.clip(surf / -0.7, 0.0, 1.0) * scorer._hbond_pair
    hbond_sum = np.where(within, hbond, 0.0).max(axis=2).sum(axis=1)
    totals = (pair_sum + w.hbond * hbond_sum) * w.scale
    return totals / (1.0 + w.rotor_penalty * scorer.ligand.num_rotatable_bonds)


def test_batch_scoring_matches_scalar_exactly(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 17)
    batch = scorer.score_coords_batch(coords)
    scalar = np.array([scorer.score_coords(pose) for pose in coords])
    assert np.array_equal(batch, scalar)


def test_batch_scoring_invariant_to_batch_composition(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 13)
    whole = scorer.score_coords_batch(coords)
    # Any slicing of the batch — including after the pair-tile caches have
    # grown to the largest batch — scores each pose identically.
    assert np.array_equal(scorer.score_coords_batch(coords[3:8]), whole[3:8])
    assert np.array_equal(scorer.score_coords_batch(coords[::2]), whole[::2])
    fresh = VinaScoringFunction(reference_record.structure, ligand.centered())
    assert np.array_equal(fresh.score_coords_batch(coords[5:6]), whole[5:6])


@pytest.mark.parametrize("electrostatic", [0.0, 0.5])
def test_batch_scoring_matches_full_matrix_reference(reference_record, ligand, electrostatic):
    weights = ScoringWeights(electrostatic=electrostatic)
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered(), weights=weights)
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 9, seed=2)
    assert np.array_equal(scorer.score_coords_batch(coords), _full_matrix_scores(scorer, coords))


def test_batch_scoring_shape_validation(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    with pytest.raises(DockingError):
        scorer.score_coords_batch(np.zeros((4, 2, 3)))
    with pytest.raises(DockingError):
        scorer.score_coords_batch(np.zeros((ligand.num_atoms, 3)))


# -- pose RMSD bounds ---------------------------------------------------------------------


def test_pose_rmsd_bounds_ordering():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 3))
    b = a + rng.normal(scale=1.0, size=a.shape)
    lb, ub = pose_rmsd_lower(a, b), pose_rmsd_upper(a, b)
    assert 0.0 <= lb <= ub + 1e-9


def test_pose_rmsd_identical_poses_zero():
    a = np.random.default_rng(1).normal(size=(8, 3))
    assert pose_rmsd_upper(a, a) == pytest.approx(0.0)
    assert pose_rmsd_lower(a, a) == pytest.approx(0.0)


# -- search and engine ----------------------------------------------------------------------


def test_monte_carlo_search_returns_sorted_poses(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    search = MonteCarloPoseSearch(scorer, pocket.center)
    poses = search.search(60, np.random.default_rng(0), num_poses=5)
    scores = [p.score for p in poses]
    assert scores == sorted(scores)
    assert 1 <= len(poses) <= 5


def test_docking_engine_end_to_end(reference_record, ligand):
    engine = DockingEngine(num_seeds=2, num_poses=4, mc_steps=60)
    result = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    assert len(result.runs) == 2
    for run in result.runs:
        assert len(run.poses) >= 1
        assert run.poses[0].rmsd_lb == 0.0 and run.poses[0].rmsd_ub == 0.0
        affinities = [p.affinity for p in run.poses]
        assert affinities == sorted(affinities)
    assert result.best_affinity <= result.mean_best_affinity
    assert result.mean_best_affinity < 0.0  # the native-like complex binds favourably
    payload = result.as_dict()
    assert payload["num_runs"] == 2
    assert len(payload["runs"][0]["poses"]) >= 1


def test_docking_engine_deterministic(reference_record, ligand):
    engine = DockingEngine(num_seeds=2, num_poses=3, mc_steps=40)
    r1 = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    r2 = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    assert r1.mean_best_affinity == pytest.approx(r2.mean_best_affinity)


def test_docking_engine_validation():
    with pytest.raises(DockingError):
        DockingEngine(num_seeds=0)


# -- batched walkers ----------------------------------------------------------------------


def test_walker_rngs_single_walker_is_callers_generator():
    rng = np.random.default_rng(5)
    assert walker_rngs(rng, 1) == [rng]
    many = walker_rngs(rng, 4)
    assert many[0] is rng and len(many) == 4


def _scalar_walk(search, walkers, steps, rngs):
    """Reference walk: advance the walkers one at a time, scoring each pose alone."""
    candidates = []
    for walker in range(walkers):
        rng = rngs[walker]
        rotation, translation = search._initial_state(walker, rng)
        current = Pose(rotation, translation, search.scorer.score_pose(rotation, translation))
        candidates.append(current)
        for _ in range(steps):
            proposal = search._perturb(current, rng)
            if search._accept(proposal.score - current.score, rng):
                current = proposal
                candidates.append(current)
    return candidates


def test_search_batch_matches_scalar(reference_record, ligand, monkeypatch):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    # The default 5 lock-step walkers, and a single walker.
    for initial_rotations, restarts in ((None, 3), ([], 1)):
        search = MonteCarloPoseSearch(scorer, pocket.center, initial_rotations=initial_rotations)
        batched = search.search(80, np.random.default_rng(3), num_poses=5, restarts=restarts)
        with monkeypatch.context() as patch:
            patch.setattr(MonteCarloPoseSearch, "_walk_batch", _scalar_walk)
            scalar = search.search(80, np.random.default_rng(3), num_poses=5, restarts=restarts)
        assert len(batched) == len(scalar)
        for a, b in zip(batched, scalar):
            assert a.score == b.score
            assert np.array_equal(a.rotation, b.rotation)
            assert np.array_equal(a.translation, b.translation)


def test_docking_engine_matches_scalar_reference_walk(reference_record, ligand, monkeypatch):
    engine = DockingEngine(num_seeds=2, num_poses=3, mc_steps=40)
    batched = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    monkeypatch.setattr(MonteCarloPoseSearch, "_walk_batch", _scalar_walk)
    scalar = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    assert batched.as_dict() == scalar.as_dict()


def test_prepared_dock_replays_identically(reference_record, ligand):
    engine = DockingEngine(num_seeds=3, num_poses=3, mc_steps=40)
    direct = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    prepared = engine.prepare(reference_record.structure, ligand)
    # One preparation serves every seed: replaying it twice changes nothing.
    replay1 = engine.dock_prepared(prepared, "3eax:REF")
    replay2 = engine.dock_prepared(prepared, "3eax:REF")
    assert replay1.as_dict() == direct.as_dict()
    assert replay2.as_dict() == direct.as_dict()

"""Tests for the docking engine: ligands, pockets, scoring, search, multi-seed runs."""

import numpy as np
import pytest

from repro.bio.geometry import random_rotation, rotation_matrices, rotation_matrix
from repro.bio.reference import ReferenceStructureGenerator
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.docking.pocket import find_pocket, find_pockets
from repro.docking.scoring import CUTOFF, ScoringWeights, VinaScoringFunction
from repro.docking.search import MonteCarloPoseSearch, Pose, walker_rngs
from repro.docking.vina import DockingEngine, DockingResult, pose_rmsd_lower, pose_rmsd_upper
from repro.exceptions import DockingError
from repro.utils.rng import child_seed, rng_for


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
    (poses,) = search.search(60, [np.random.default_rng(0)], num_poses=5)
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
    assert r1.as_dict() == r2.as_dict()


def test_docking_engine_validation():
    with pytest.raises(DockingError):
        DockingEngine(num_seeds=0)


# -- multi-seed lock-step search ----------------------------------------------------------


def test_walker_rngs_single_walker_is_callers_generator():
    rng = np.random.default_rng(5)
    assert walker_rngs(rng, 1) == [rng]
    many = walker_rngs(rng, 4)
    assert many[0] is rng and len(many) == 4


def test_rotation_matrices_match_scalar_rodrigues_bitwise():
    rng = np.random.default_rng(11)
    count = 12_000
    axes = rng.standard_normal((count, 3))
    axes[:1000] *= 1e-9
    axes[1000:2000] *= 1e9
    angles = np.concatenate(
        [
            rng.standard_normal(3000) * 1e-10,  # tiny
            rng.standard_normal(3000) * 0.5,  # the search's step scale
            rng.uniform(-np.pi, np.pi, 3000),
            rng.uniform(-1e6, 1e6, count - 9000),  # large
        ]
    )
    batched = rotation_matrices(axes, angles)
    assert batched.shape == (count, 3, 3)
    for axis, angle, matrix in zip(axes, angles, batched):
        assert np.array_equal(matrix, rotation_matrix(axis, float(angle)))
    with pytest.raises(ValueError):
        rotation_matrices(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.ones(2))


def _score_pose(search, rotation, translation):
    return search.scorer.score_coords(search.scorer.ligand.transformed(rotation, translation))


def _perturb(search, pose, rng, scale=1.0):
    axis = rng.normal(size=3)
    angle = rng.normal(scale=search.rotation_step * scale)
    rotation = rotation_matrix(axis, angle) @ pose.rotation
    translation = pose.translation + rng.normal(scale=search.translation_step * scale, size=3)
    return Pose(rotation, translation, _score_pose(search, rotation, translation))


def _scalar_walk(search, walkers, steps, rngs):
    """Reference walk: advance the walkers one at a time, scoring each pose alone."""
    candidates = []
    for walker in range(walkers):
        rng = rngs[walker]
        rotation, translation = search._initial_state(walker, rng)
        current = Pose(rotation, translation, _score_pose(search, rotation, translation))
        candidates.append(current)
        for _ in range(steps):
            proposal = _perturb(search, current, rng)
            delta = proposal.score - current.score
            if delta <= 0 or rng.random() < np.exp(-delta / search.temperature):
                current = proposal
                candidates.append(current)
    return candidates


def _scalar_refine(search, pose, rng, steps):
    best = pose
    for i in range(max(0, steps)):
        trial = _perturb(search, best, rng, scale=0.5 / (1.0 + i))
        if trial.score < best.score:
            best = trial
    return best


def _reference_search(search, steps, rng, num_poses=10, restarts=3, refine_steps=25):
    """Reference one-seed search: scalar walk, then sequential dedup-then-refine."""
    walkers = max(restarts, len(search.initial_rotations) + 1)
    candidates = _scalar_walk(search, walkers, max(1, steps // walkers), walker_rngs(rng, walkers))
    candidates.sort(key=lambda p: p.score)
    selected = []
    for pose in candidates:
        if len(selected) >= num_poses:
            break
        if all(np.linalg.norm(pose.translation - kept.translation) > 1.0 for kept in selected):
            selected.append(_scalar_refine(search, pose, rng, refine_steps))
    selected.sort(key=lambda p: p.score)
    return selected


def _reference_dock(engine, prepared, receptor_id):
    """Reference engine loop: every seed searched on its own, site after site."""
    result = DockingResult(receptor_id=receptor_id, ligand_name=prepared.ligand.name)
    for i in range(engine.num_seeds):
        seed = child_seed(engine.master_seed, "docking", receptor_id, i)
        rng = rng_for(seed, "run")
        poses = []
        for search in prepared.searches:
            poses.extend(
                _reference_search(search, prepared.steps_per_site, rng, num_poses=engine.num_poses)
            )
        poses.sort(key=lambda p: p.score)
        result.runs.append(engine._build_run(seed, poses[: engine.num_poses], prepared.ligand))
    return result


def _assert_same_poses(batched, reference):
    assert len(batched) == len(reference)
    for a, b in zip(batched, reference):
        assert a.score == b.score
        assert np.array_equal(a.rotation, b.rotation)
        assert np.array_equal(a.translation, b.translation)


def _seed_rngs(count, base=3):
    return [np.random.default_rng(base + k) for k in range(count)]


def test_search_batch_matches_scalar(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    # The default 5 lock-step walkers per seed, a single walker, and a site
    # beyond the scoring cutoff, where every pose scores exactly 0.0 and the
    # candidate order rests on the tie-break alone.
    far = pocket.center + np.array([100.0, 0.0, 0.0])
    for center, initial_rotations, restarts in (
        (pocket.center, None, 3), (pocket.center, [], 1), (far, None, 3)
    ):
        search = MonteCarloPoseSearch(scorer, center, initial_rotations=initial_rotations)
        for seeds in (1, 2, 5):
            batched = search.search(80, _seed_rngs(seeds), num_poses=5, restarts=restarts)
            assert len(batched) == seeds
            for poses, rng in zip(batched, _seed_rngs(seeds)):
                reference = _reference_search(search, 80, rng, num_poses=5, restarts=restarts)
                _assert_same_poses(poses, reference)
                # Returned poses own their arrays: a view would keep the
                # refinement round's stacked arrays alive.
                assert all(p.rotation.base is None and p.translation.base is None for p in poses)


def test_search_seed_running_out_of_candidates_matches_scalar(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    search = MonteCarloPoseSearch(scorer, pocket.center)
    # One Metropolis step per walker leaves at most 10 candidates per seed,
    # and the four near-identity starts collapse under the 1 Å dedup.
    batched = search.search(5, _seed_rngs(6), num_poses=6)
    lengths = [len(poses) for poses in batched]
    assert min(lengths) < 6 and max(lengths) > min(lengths)
    for poses, rng in zip(batched, _seed_rngs(6)):
        _assert_same_poses(poses, _reference_search(search, 5, rng, num_poses=6))


def test_search_validation(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    search = MonteCarloPoseSearch(scorer, find_pocket(reference_record.structure).center)
    with pytest.raises(DockingError):
        search.search(0, _seed_rngs(1))
    with pytest.raises(DockingError):
        search.search(20, [])


def test_docking_engine_matches_scalar_reference_walk(reference_record, ligand):
    engine = DockingEngine(num_seeds=3, num_poses=3, mc_steps=40)
    prepared = engine.prepare(reference_record.structure, ligand)
    batched = engine.dock_prepared(prepared, "3eax:REF")
    assert batched.as_dict() == _reference_dock(engine, prepared, "3eax:REF").as_dict()


def test_prepared_dock_replays_identically(reference_record, ligand):
    engine = DockingEngine(num_seeds=3, num_poses=3, mc_steps=40)
    direct = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    prepared = engine.prepare(reference_record.structure, ligand)
    # One preparation serves every seed: replaying it twice changes nothing.
    replay1 = engine.dock_prepared(prepared, "3eax:REF")
    replay2 = engine.dock_prepared(prepared, "3eax:REF")
    assert replay1.as_dict() == direct.as_dict()
    assert replay2.as_dict() == direct.as_dict()

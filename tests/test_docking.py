"""Tests for the docking engine: ligands, pockets, scoring, search, multi-seed runs."""

from dataclasses import replace

import numpy as np
import pytest

from repro.bio.geometry import random_rotation, rotation_matrices, rotation_matrix
from repro.bio.reference import ReferenceStructureGenerator
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.docking.pocket import find_pocket, find_pockets
from repro.docking.scoring import CHUNK_ROWS, CUTOFF, ScoringWeights, VinaScoringFunction
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


def score_coords(scorer, ligand_coords):
    """One pose's score: a batch of one through ``score_coords_batch``."""
    return float(scorer.score_coords_batch(np.asarray(ligand_coords, dtype=float)[None])[0])



def test_scoring_clash_is_penalised(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    good = score_coords(scorer, ligand.coords)
    # Slam the ligand into the receptor centre: heavy steric repulsion.
    centre = reference_record.structure.all_coords().mean(axis=0)
    clashed = ligand.coords - (ligand.coords.mean(axis=0) - centre)
    bad = score_coords(scorer, clashed)
    assert good < bad


def test_scoring_far_away_is_zero(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    far = ligand.coords + np.array([500.0, 0.0, 0.0])
    assert score_coords(scorer, far) == pytest.approx(0.0, abs=1e-6)


def test_scoring_rotor_penalty_reduces_magnitude(reference_record, ligand):
    rigid = Ligand(
        ligand.name, ligand.coords, list(ligand.elements), ligand.hydrophobic,
        ligand.donor, ligand.acceptor, ligand.charges, num_rotatable_bonds=0, anchor=ligand.anchor,
    )
    flexible = Ligand(
        ligand.name, ligand.coords, list(ligand.elements), ligand.hydrophobic,
        ligand.donor, ligand.acceptor, ligand.charges, num_rotatable_bonds=10, anchor=ligand.anchor,
    )
    s_rigid = score_coords(VinaScoringFunction(reference_record.structure, rigid), ligand.coords)
    s_flex = score_coords(VinaScoringFunction(reference_record.structure, flexible), ligand.coords)
    assert abs(s_flex) < abs(s_rigid)


def test_scoring_shape_mismatch_raises(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand)
    with pytest.raises(DockingError):
        score_coords(scorer, np.zeros((2, 3)))


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
    scalar = np.array([score_coords(scorer, pose) for pose in coords])
    assert np.array_equal(batch, scalar)


def test_batch_scoring_blocks_match_scalar_exactly(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    coords = _pose_batch(ligand.centered(), pocket.center, 3 * CHUNK_ROWS, seed=4)
    scalar = np.array([score_coords(scorer, pose) for pose in coords])
    for count in (CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS):
        assert np.array_equal(scorer.score_coords_batch(coords[:count]), scalar[:count])


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
    (poses,) = search.search(60, [np.random.default_rng(0)], [0], num_poses=5)
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
    with pytest.raises(DockingError):
        DockingEngine(num_poses=0)
    for steps in (0, -5):
        with pytest.raises(DockingError):
            DockingEngine(mc_steps=steps)


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
    return score_coords(search.scorer, search.scorer.ligand.transformed(rotation, translation))


def _perturb(search, pose, z, scale=1.0):
    rotation = rotation_matrix(z[:3], (search.rotation_step * scale) * z[3]) @ pose.rotation
    translation = pose.translation + (search.translation_step * scale) * z[4:]
    return Pose(rotation, translation, _score_pose(search, rotation, translation))


def _scalar_walk(search, site, steps, rngs):
    """Reference walk: advance the walkers one at a time, scoring each pose alone."""
    candidates = []
    for walker, rng in enumerate(rngs):
        rotation, translation = search._initial_state(walker, site, rng)
        current = Pose(rotation, translation, _score_pose(search, rotation, translation))
        candidates.append(current)
        normals = rng.standard_normal((steps, 7))
        uniforms = rng.random(steps)
        for z, u in zip(normals, uniforms):
            proposal = _perturb(search, current, z)
            delta = proposal.score - current.score
            if delta <= 0 or u < np.exp(-delta / search.temperature):
                current = proposal
                candidates.append(current)
    return candidates


def _scalar_refine(search, pose, draws):
    best = pose
    for i, z in enumerate(draws):
        trial = _perturb(search, best, z, scale=0.5 / (1.0 + i))
        if trial.score < best.score:
            best = trial
    return best


def _reference_run(search, streams, steps, num_poses=10, restarts=3, refine_steps=25):
    """Reference one-run search over ``streams``, a list of ``(site, rng)``:
    each stream's scalar walk, then the run's candidates of all its streams,
    best first, deduplicated and refined one at a time.  The k-th candidate
    the run takes from a stream refines with block k of that stream's draw."""
    walkers = max(restarts, len(search.initial_rotations) + 1)
    candidates = []
    for index, (site, rng) in enumerate(streams):
        walk = _scalar_walk(search, site, max(1, steps // walkers), walker_rngs(rng, walkers))
        candidates.extend((pose, index) for pose in walk)
    # Stable: score ties keep stream order, then walker-major visit order.
    candidates.sort(key=lambda candidate: candidate[0].score)
    draws = [rng.standard_normal((num_poses, refine_steps, 7)) for _, rng in streams]
    taken = [0] * len(streams)
    selected = []
    for pose, index in candidates:
        if len(selected) >= num_poses:
            break
        if all(np.linalg.norm(pose.translation - kept.translation) > 1.0 for kept in selected):
            selected.append(_scalar_refine(search, pose, draws[index][taken[index]]))
            taken[index] += 1
    selected.sort(key=lambda p: p.score)
    return selected


def _reference_search(search, site, steps, rng, num_poses=10, restarts=3, refine_steps=25):
    """Reference one-stream search: scalar walk, then sequential dedup-then-refine."""
    return _reference_run(search, [(site, rng)], steps, num_poses, restarts, refine_steps)


def _reference_dock(engine, prepared, receptor_id):
    """Reference engine loop: one run at a time over all its sites, each site on its own stream."""
    result = DockingResult(receptor_id=receptor_id, ligand_name=prepared.ligand.name)
    sites = range(len(prepared.search.site_centers))
    for i in range(engine.num_seeds):
        seed = child_seed(engine.master_seed, "docking", receptor_id, i)
        poses = _reference_run(
            prepared.search,
            [(site, rng_for(seed, "run", site)) for site in sites],
            prepared.steps_per_site,
            num_poses=engine.num_poses,
        )
        result.runs.append(engine._build_run(seed, poses, prepared.ligand))
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
    # The default 5 lock-step walkers per stream over two sites, and a single
    # walker.  The second site lies beyond the scoring cutoff, where every
    # pose scores exactly 0.0 and the candidate order rests on the tie-break
    # alone; it also has its own radius for the random restart.
    far = pocket.center + np.array([100.0, 0.0, 0.0])
    for centers, radii, initial_rotations, restarts in (
        ([pocket.center, far], [6.0, 3.0], None, 3), (pocket.center, 6.0, [], 1)
    ):
        search = MonteCarloPoseSearch(scorer, centers, radii, initial_rotations=initial_rotations)
        for streams in (1, 2, 5):
            sites = [k % len(search.site_centers) for k in range(streams)]
            batched = search.search(80, _seed_rngs(streams), sites, num_poses=5, restarts=restarts)
            assert len(batched) == streams
            for poses, rng, site in zip(batched, _seed_rngs(streams), sites):
                reference = _reference_search(search, site, 80, rng, num_poses=5, restarts=restarts)
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
    batched = search.search(5, _seed_rngs(6), [0] * 6, num_poses=6)
    lengths = [len(poses) for poses in batched]
    assert min(lengths) < 6 and max(lengths) > min(lengths)
    for poses, rng in zip(batched, _seed_rngs(6)):
        _assert_same_poses(poses, _reference_search(search, 0, 5, rng, num_poses=6))


def test_search_validation(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    center = find_pocket(reference_record.structure).center
    search = MonteCarloPoseSearch(scorer, [center, center + 5.0])
    with pytest.raises(DockingError):
        search.search(0, _seed_rngs(1), [0])
    with pytest.raises(DockingError):
        search.search(20, [], [])
    with pytest.raises(DockingError):
        search.search(20, _seed_rngs(2), [0])
    for site in (2, -1):
        with pytest.raises(DockingError):
            search.search(20, _seed_rngs(1), [site])
    with pytest.raises(DockingError):
        MonteCarloPoseSearch(scorer, [center, center + 5.0], site_radii=[6.0, 0.0])


def test_docking_engine_matches_scalar_reference_walk(reference_record, ligand):
    engine = DockingEngine(num_seeds=3, num_poses=3, mc_steps=40)
    prepared = engine.prepare(reference_record.structure, ligand)
    assert len(prepared.search.site_centers) == 3
    batched = engine.dock_prepared(prepared, "3eax:REF")
    assert batched.as_dict() == _reference_dock(engine, prepared, "3eax:REF").as_dict()


def test_stream_poses_do_not_depend_on_the_other_sites(reference_record, ligand):
    engine = DockingEngine(num_seeds=2, num_poses=3, mc_steps=60)
    prepared = engine.prepare(reference_record.structure, ligand)
    search = prepared.search
    seeds = [child_seed(engine.master_seed, "docking", "3eax:REF", i) for i in range(2)]
    sites = range(len(search.site_centers))
    together = search.search(
        prepared.steps_per_site,
        [rng_for(seed, "run", site) for seed in seeds for site in sites],
        [site for _ in seeds for site in sites],
        num_poses=3,
    )
    for site in sites:
        alone = MonteCarloPoseSearch(
            prepared.scorer, search.site_centers[site], search.site_radii[site]
        )
        for run, seed in enumerate(seeds):
            (poses,) = alone.search(
                prepared.steps_per_site, [rng_for(seed, "run", site)], [0], num_poses=3
            )
            _assert_same_poses(together[run * len(sites) + site], poses)


def test_run_poses_do_not_depend_on_the_other_runs(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    # The second site lies beyond the scoring cutoff, where every pose scores
    # exactly 0.0, so the merged order there rests on the tie-break.
    far = pocket.center + np.array([100.0, 0.0, 0.0])
    search = MonteCarloPoseSearch(scorer, [pocket.center, far, pocket.center + 3.0])

    def streams(base):
        return [np.random.default_rng(base + site) for site in range(3)], [0, 1, 2]

    def run_alone(base):
        rngs, sites = streams(base)
        (poses,) = search.search(60, rngs, sites, num_poses=4, runs=[0, 0, 0])
        return poses

    for bases, order in (((10, 20, 30), (0, 1, 2)), ((30, 40), (1, 0)), ((20, 10), (0, 1))):
        rngs, sites, runs = [], [], []
        # Interleave the runs' streams: a run's streams need not be adjacent.
        for site in range(3):
            for run in order:
                rngs.append(np.random.default_rng(bases[run] + site))
                sites.append(site)
                runs.append(run)
        together = search.search(60, rngs, sites, num_poses=4, runs=runs)
        assert len(together) == len(bases)
        for base, poses in zip(bases, together):
            _assert_same_poses(poses, run_alone(base))
            rngs, sites = streams(base)
            reference = _reference_run(search, list(zip(sites, rngs)), 60, num_poses=4)
            _assert_same_poses(poses, reference)


def test_search_run_validation(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    search = MonteCarloPoseSearch(scorer, find_pocket(reference_record.structure).center)
    for runs in ([0], [0, 0, 2], [1, 1, 1], [0, -1, 0]):
        with pytest.raises(DockingError):
            search.search(20, _seed_rngs(3), [0, 0, 0], runs=runs)


def test_dock_job_scorer_calls_follow_from_the_knobs(reference_record, ligand, monkeypatch):
    engine = DockingEngine(num_seeds=2, num_poses=3, mc_steps=150)
    prepared = engine.prepare(reference_record.structure, ligand)
    widths = []
    score = prepared.scorer.score_coords_batch

    def counted_score(coords):
        widths.append(len(coords))
        return score(coords)

    monkeypatch.setattr(prepared.scorer, "score_coords_batch", counted_score)
    walkers = len(prepared.search.initial_rotations) + 1
    walk_calls = 1 + prepared.steps_per_site // walkers
    one_site = MonteCarloPoseSearch(
        prepared.scorer, prepared.search.site_centers[:1], prepared.search.site_radii[:1]
    )
    for search in (prepared.search, one_site):
        widths.clear()
        engine.dock_prepared(replace(prepared, search=search), "3eax:REF")
        streams = engine.num_seeds * len(search.site_centers)
        assert widths[:walk_calls] == [streams * walkers] * walk_calls
        refine_calls = len(widths) - walk_calls
        assert refine_calls == engine.num_poses * 25
        # Refinement picks one candidate per run and round, whatever the sites.
        assert max(widths[walk_calls:]) == engine.num_seeds


def test_stream_generator_state_depends_only_on_the_knobs(reference_record, ligand):
    scorer = VinaScoringFunction(reference_record.structure, ligand.centered())
    pocket = find_pocket(reference_record.structure)
    search = MonteCarloPoseSearch(scorer, [pocket.center, pocket.center + np.array([100.0, 0, 0])])
    expected = np.random.default_rng(9)
    expected.normal(scale=0.5, size=3)
    expected.standard_normal((1, 7))
    expected.random(1)
    expected.standard_normal((6, 25, 7))
    # Walker 0 of the stream draws from the stream's generator: its start,
    # its one walk step and the refinement blocks, at any site, beside any
    # other streams, and however many candidates the walk leaves.
    for site, others in ((0, 0), (1, 0), (0, 3), (1, 5)):
        rng = np.random.default_rng(9)
        search.search(5, [rng, *_seed_rngs(others)], [site] + [0] * others, num_poses=6)
        assert rng.bit_generator.state == expected.bit_generator.state
def test_prepared_dock_replays_identically(reference_record, ligand):
    engine = DockingEngine(num_seeds=3, num_poses=3, mc_steps=40)
    direct = engine.dock(reference_record.structure, ligand, receptor_id="3eax:REF")
    prepared = engine.prepare(reference_record.structure, ligand)
    # One preparation serves every seed: replaying it twice changes nothing.
    replay1 = engine.dock_prepared(prepared, "3eax:REF")
    replay2 = engine.dock_prepared(prepared, "3eax:REF")
    assert replay1.as_dict() == direct.as_dict()
    assert replay2.as_dict() == direct.as_dict()

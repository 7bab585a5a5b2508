"""Tests for the reference generator, the quantum predictor and the baselines."""

import numpy as np
import pytest

from repro.bio.reference import ReferenceStructureGenerator, _ground_state
from repro.bio.rmsd import ca_rmsd
from repro.folding.baselines import (
    AF2LikePredictor,
    AF3LikePredictor,
    ideal_helix_ca,
    extended_strand_ca,
    secondary_structure_prior,
)
from repro.folding.predictor import ClassicalFoldingPredictor, QuantumFoldingPredictor


@pytest.fixture(scope="module")
def refgen():
    return ReferenceStructureGenerator()


# -- reference generator --------------------------------------------------------------


def test_reference_is_deterministic_and_cached(refgen):
    a = refgen.generate("3eax", "RYRDV")
    hits = _ground_state.cache_info().hits
    b = refgen.generate("3eax", "RYRDV")
    assert _ground_state.cache_info().hits == hits + 1  # the solve is memoised
    fresh = ReferenceStructureGenerator().generate("3eax", "RYRDV")
    assert np.array_equal(a.ca_coords, b.ca_coords)
    assert np.array_equal(a.ca_coords, fresh.ca_coords)


def test_reference_numbering_follows_each_call():
    """Regression: a record generated with ``start_seq_id=37`` was served to a
    later call on the same generator that asked for the default numbering."""
    generator = ReferenceStructureGenerator()
    shifted = generator.generate("1e2l", "AQITMGMPY", start_seq_id=37)
    plain = generator.generate("1e2l", "AQITMGMPY")
    fresh = ReferenceStructureGenerator().generate("1e2l", "AQITMGMPY")
    assert [r.seq_id for r in shifted.structure.residues] == list(range(37, 46))
    assert [r.seq_id for r in plain.structure.residues] == list(range(1, 10))
    assert np.array_equal(plain.structure.all_coords(), fresh.structure.all_coords())


def test_memoised_ground_state_is_read_only():
    trace = _ground_state("RYRDV", 7, 400).ca_coords
    with pytest.raises(ValueError):
        trace[0, 0] = 1.0


def test_reference_differs_between_pdb_ids(refgen):
    a = refgen.generate("2bok", "EDACQGDSGG")
    b = refgen.generate("2vwo", "EDACQGDSGG")  # same sequence, different protein
    assert not np.allclose(a.ca_coords, b.ca_coords)


def test_reference_structure_is_physical(refgen):
    record = refgen.generate("1ppi", "PWWERYQP")
    ca = record.ca_coords
    bond_lengths = np.linalg.norm(np.diff(ca, axis=0), axis=1)
    assert np.all(bond_lengths > 2.3) and np.all(bond_lengths < 6.0)
    assert record.pocket.radius > 0
    assert record.ground_state_energy > 0


# -- baselines ------------------------------------------------------------------------------


def test_secondary_structure_priors():
    assert ideal_helix_ca(8).shape == (8, 3)
    assert extended_strand_ca(8).shape == (8, 3)
    # Poly-alanine is a strong helix former; poly-glycine/proline is not.
    assert np.allclose(secondary_structure_prior("AAAAAA"), ideal_helix_ca(6))
    assert np.allclose(secondary_structure_prior("GPGPGP"), extended_strand_ca(6))


def test_baselines_deterministic_and_distinct(refgen):
    af2 = AF2LikePredictor(reference_generator=refgen)
    af3 = AF3LikePredictor(reference_generator=refgen)
    p2a = af2.predict("2bok", "EDACQGDSGG")
    p2b = af2.predict("2bok", "EDACQGDSGG")
    p3 = af3.predict("2bok", "EDACQGDSGG")
    assert np.allclose(p2a.structure.ca_coords(), p2b.structure.ca_coords())
    assert not np.allclose(p2a.structure.ca_coords(), p3.structure.ca_coords())
    assert p2a.method == "AF2" and p3.method == "AF3"


def test_af3_more_accurate_than_af2_on_average(refgen):
    """The AF3-like profile recovers more of the true structure than AF2-like."""
    af2 = AF2LikePredictor(reference_generator=refgen)
    af3 = AF3LikePredictor(reference_generator=refgen)
    fragments = [("2bok", "EDACQGDSGG"), ("2qbs", "HCSAGIGRSGT"), ("5nkc", "MIITEYMENGAL"), ("1yc4", "ELISNSSDALDKI")]
    rmsd2, rmsd3 = [], []
    for pdb, seq in fragments:
        ref = refgen.generate(pdb, seq).structure
        rmsd2.append(ca_rmsd(af2.predict(pdb, seq).structure, ref))
        rmsd3.append(ca_rmsd(af3.predict(pdb, seq).structure, ref))
    assert np.mean(rmsd3) < np.mean(rmsd2)


def test_baseline_structures_have_no_ca_clashes(refgen):
    af2 = AF2LikePredictor(reference_generator=refgen)
    structure = af2.predict("4jpy", "DYLEAYGKGGVKAK").structure
    ca = structure.ca_coords()
    dist = np.linalg.norm(ca[:, None, :] - ca[None, :, :], axis=2)
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 3.0


# -- quantum and classical predictors ------------------------------------------------------------


def test_quantum_predictor_small_fragment_close_to_reference(tiny_config, refgen):
    predictor = QuantumFoldingPredictor(config=tiny_config)
    prediction = predictor.predict("3eax", "RYRDV")
    assert prediction.method == "QDock"
    assert prediction.structure.sequence == "RYRDV"
    reference = refgen.generate("3eax", "RYRDV").structure
    assert ca_rmsd(prediction.structure, reference) < 1.5
    # Resource metadata matches the paper's table for a 5-residue fragment.
    assert prediction.metadata["qubits"] == 12
    assert prediction.metadata["circuit_depth"] == 53
    assert prediction.metadata["execution_time_s"] > 0
    assert prediction.metadata["estimated_cost_usd"] > 0


def test_quantum_predictor_beats_af2_on_small_fragments(tiny_config, refgen):
    quantum = QuantumFoldingPredictor(config=tiny_config)
    af2 = AF2LikePredictor(reference_generator=refgen)
    wins = 0
    fragments = [("3eax", "RYRDV"), ("4mo4", "NIGGF"), ("3ckz", "VKDRS"), ("1e2k", "DGPHGM")]
    for pdb, seq in fragments:
        ref = refgen.generate(pdb, seq).structure
        q = ca_rmsd(quantum.predict(pdb, seq).structure, ref)
        a = ca_rmsd(af2.predict(pdb, seq).structure, ref)
        wins += q < a
    assert wins >= 3  # the paper reports 19/20 S-group wins over AF2


def test_classical_predictor_matches_ground_state(tiny_config, refgen):
    classical = ClassicalFoldingPredictor(config=tiny_config)
    prediction = classical.predict("3eax", "RYRDV")
    assert prediction.metadata["exact"]
    reference = refgen.generate("3eax", "RYRDV").structure
    # The reference is the jittered ground state, so the classical solution is very close.
    assert ca_rmsd(prediction.structure, reference) < 1.0

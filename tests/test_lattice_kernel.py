"""The batched lattice-energy kernel, ``LatticeHamiltonian.terms``.

``scalar_terms`` keeps the per-conformation formulas the kernel replaced, as
the reference.  The kernel agrees with it per term within 1e-9 relative (its
left-to-right sums may round differently from NumPy's pairwise and BLAS
sums), and every row is bit-identical whatever batch or chunk scores it.
The callers moved onto the kernel must decide exactly as their
one-at-a-time versions did.
"""

import itertools

import numpy as np
import pytest

from repro.bio.miyazawa_jernigan import interaction_matrix_for_sequence
from repro.dataset.builder import DatasetBuilder
from repro.lattice import hamiltonian as hamiltonian_module
from repro.lattice.classical import ClassicalFoldingSolver
from repro.lattice.decoder import ConformationDecoder
from repro.lattice.hamiltonian import HamiltonianWeights, LatticeHamiltonian
from repro.lattice.tetrahedral import backtracking_count, turns_to_coords
from repro.vqe.expectation import DiagonalExpectation

#: One sequence per length 5-10; the tests score every encodable conformation.
SEQUENCES = ("RYRDV", "DGPHGM", "ACDEFGH", "PWWERYQP", "AQITMGMPY", "EDACQGDSGG")


def all_turns(length: int) -> np.ndarray:
    """Every encodable conformation: turns 0 and 1, then all 4^(L-3) free turns."""
    codes = np.arange(4 ** (length - 3))[:, None]
    free = (codes >> (2 * np.arange(length - 3))) & 3
    return np.concatenate([np.tile([0, 1], (len(codes), 1)), free], axis=1)


def scalar_terms(h: LatticeHamiltonian, turns) -> np.ndarray:
    """The per-conformation formulas the kernel replaced (test reference only)."""
    turns = np.asarray(turns, dtype=int)
    w = h.weights
    coords = turns_to_coords(turns, bond_length=h.bond_length)
    n = coords.shape[0]
    diff = coords[:, None, :] - coords[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    overlaps = int(np.count_nonzero(dist2[np.triu_indices(n, k=1)] < 1e-6))
    left_handed = 0
    if n >= 4:
        v1 = coords[1:-2] - coords[:-3]
        v2 = coords[2:-1] - coords[1:-2]
        v3 = coords[3:] - coords[2:-1]
        left_handed = int(np.count_nonzero(np.einsum("ij,ij->i", np.cross(v1, v2), v3) < -1e-9))
    contact = np.abs(np.sqrt(dist2) - h.bond_length) < 1e-3
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    mj = interaction_matrix_for_sequence(str(h.sequence))
    energy = float(np.sum(mj[np.triu(contact & (sep >= 3), k=3)]))
    to_centroid = np.linalg.norm(coords - coords.mean(axis=0), axis=1) / h.bond_length
    energy += 0.05 * float(np.dot(h._hydropathy, to_centroid))
    return np.array([
        w.chirality * h._chirality_penalty * left_handed,
        w.geometric * h._geometric_penalty * backtracking_count(turns),
        w.clash * h._clash_penalty * overlaps,
        w.interaction * h._interaction_scale * energy,
    ])


def scalar_energy(h: LatticeHamiltonian, turns) -> float:
    chirality, geometric, clash, interaction = scalar_terms(h, turns)
    return chirality + geometric + clash + interaction + h.offset


@pytest.fixture(scope="module")
def batches():
    """(Hamiltonian, turns): every conformation of lengths 5-10, a reweighted
    8-mer, and 500 random (mostly clashing) 14-mer conformations."""
    cases = [(LatticeHamiltonian(seq), all_turns(len(seq))) for seq in SEQUENCES]
    weights = HamiltonianWeights(chirality=0.5, geometric=2.0, clash=1.5, interaction=0.7)
    cases.append((LatticeHamiltonian("PWWERYQP", weights), all_turns(8)))
    rng = np.random.default_rng(0)
    cases.append((LatticeHamiltonian("DYLEAYGKGGVKAK"), rng.integers(0, 4, size=(500, 13))))
    return cases


# -- the kernel ------------------------------------------------------------------


def test_rows_are_bit_identical_in_any_batch_and_chunk(batches, monkeypatch):
    # The 10-mer batch spans many chunks of the production size.
    assert max(len(turns) for _, turns in batches) > 3 * hamiltonian_module.CHUNK_ROWS
    for h, turns in batches:
        one_by_one = np.concatenate([h.terms(row[None]) for row in turns]).tobytes()
        for chunk in (1, 7, len(turns), hamiltonian_module.CHUNK_ROWS):
            with monkeypatch.context() as m:
                m.setattr(hamiltonian_module, "CHUNK_ROWS", chunk)
                assert h.terms(turns).tobytes() == one_by_one, (str(h.sequence), chunk)


def test_batch_of_one_entry_points_give_the_kernel_bits(batches):
    for h, turns in batches:
        energies = h.energies(turns)
        for row, energy in zip(turns[::53], energies[::53].tolist()):
            breakdown = h.breakdown(row)
            assert h.energy(row) == breakdown.total == energy
            assert h.is_valid(row) == (breakdown.clash == 0.0 and breakdown.geometric == 0.0)


def test_kernel_matches_the_scalar_formulas_per_term(batches):
    for h, turns in batches:
        reference = np.array([scalar_terms(h, row) for row in turns])
        np.testing.assert_allclose(h.terms(turns), reference, rtol=1e-9, atol=1e-12)


def test_slice_ground_states_match_the_scalar_formulas(monkeypatch):
    """The reference solve (exact up to 7 free turns, annealed beyond) finds
    the same ground state for the 9 benchmark-slice sequences when every
    energy comes from the scalar formulas."""
    fragments = DatasetBuilder.select_fragments(groups=["L", "M", "S"], limit_per_group=3)
    sequences = [fragment.sequence for fragment in fragments]
    kernel = [ClassicalFoldingSolver(LatticeHamiltonian(seq)).solve(seed=7) for seq in sequences]
    monkeypatch.setattr(LatticeHamiltonian, "energy", scalar_energy)
    monkeypatch.setattr(
        LatticeHamiltonian,
        "energies",
        lambda self, turns: np.array([scalar_energy(self, row) for row in turns]),
    )
    for seq, expected in zip(sequences, kernel):
        reference = ClassicalFoldingSolver(LatticeHamiltonian(seq)).solve(seed=7)
        assert reference.turns == expected.turns, seq
        assert reference.energy == pytest.approx(expected.energy, rel=1e-9)


# -- the decoder's tie-break -----------------------------------------------------


def _scan_decode(h: LatticeHamiltonian, counts: dict[str, int]) -> tuple:
    """The one-conformation-at-a-time decode the batched one replaced."""
    width = h.encoding.configuration_qubits
    best_valid = best_any = None
    seen = set()

    def better(candidate, incumbent):
        if incumbent is None or candidate[0] < incumbent[0] - 1e-9:
            return True
        return abs(candidate[0] - incumbent[0]) <= 1e-9 and candidate[1] < incumbent[1]

    for bits in counts:
        key = bits[:width]
        if key in seen:
            continue
        seen.add(key)
        turns = tuple(h.encoding.turns_from_bits(key))
        b = h.breakdown(turns)
        conformation = (b.total, turns, key, b.clash == 0.0 and b.geometric == 0.0)
        if better(conformation, best_any):
            best_any = conformation
        if conformation[3] and better(conformation, best_valid):
            best_valid = conformation
    return best_valid if best_valid is not None else best_any


def _decode(h: LatticeHamiltonian, counts: dict[str, int]) -> tuple:
    decoded = ConformationDecoder(h).decode_counts(counts)
    return (decoded.energy, decoded.turns, decoded.bitstring, decoded.valid)


class _ScriptedHamiltonian(LatticeHamiltonian):
    """Physical energies scripted per turn row, to stage near-ties."""

    def __init__(self, sequence, script):
        super().__init__(sequence)
        self.script = script

    def terms(self, turns):
        rows = np.asarray(turns).tolist()
        return np.array([[0.0, 0.0, 0.0, self.script.get(tuple(row), 1.0)] for row in rows])


def test_decoder_keeps_the_order_dependent_near_tie_scan():
    """1e-9 ties are not transitive (a ~ b and b ~ c, but a < c), so the
    winner depends on the scan order, which must stay the counts order."""
    rows = sorted(tuple(row) for row in all_turns(6).tolist())
    c, b, a = rows[10], rows[20], rows[30]  # lexicographic c < b < a, energies a < b < c
    h = _ScriptedHamiltonian("DGPHGM", {a: 0.0, b: 0.6e-9, c: 1.2e-9})
    keys = {row: h.encoding.bits_from_turns(list(row)) for row in rows}
    winners = set()
    for order in itertools.permutations([a, b, c]):
        rest = [row for row in rows if row not in order]
        counts = {keys[row] + suffix: 1 for row in [*order, *rest] for suffix in ("01", "10")}
        decoded = _decode(h, counts)
        assert decoded == _scan_decode(h, counts)
        winners.add(decoded[1])
    assert len(winners) > 1


def test_decoder_matches_the_scalar_scan_on_shuffled_counts():
    h = LatticeHamiltonian("PWWERYQP")
    rows = all_turns(8).tolist()
    keys = [h.encoding.bits_from_turns(row) for row in rows]
    invalid = [key for key, row in zip(keys, rows) if not h.is_valid(row)]
    rng = np.random.default_rng(3)
    for pool in (keys, invalid):
        for _ in range(4):
            order = rng.permutation(len(pool))[:300]
            counts = {pool[i] + suffix: 1 for i in order for suffix in ("0", "1")}
            assert _decode(h, counts) == _scan_decode(h, counts)


def _codes_of(h: LatticeHamiltonian, counts: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """``counts`` in the ``(codes, counts)`` form (keys must be distinct
    configuration registers)."""
    codes = np.array([h.encoding.code_from_bits(bits) for bits in counts], dtype=np.int64)
    return codes, np.array(list(counts.values()))


def _decoded_coords(h: LatticeHamiltonian, counts) -> np.ndarray:
    return ConformationDecoder(h).decode_counts(counts).ca_coords


def test_decoding_codes_matches_decoding_the_counts_dict():
    """Stage 2's ``(codes, counts)`` form and the dict form pick the same
    conformation, on mixed and on all-invalid count sets."""
    h = LatticeHamiltonian("PWWERYQP")
    rows = all_turns(8).tolist()
    keys = [h.encoding.bits_from_turns(row) for row in rows]
    invalid = [key for key, row in zip(keys, rows) if not h.is_valid(row)]
    rng = np.random.default_rng(6)
    for pool in (keys, invalid):
        for _ in range(3):
            chosen = sorted(pool[i] for i in rng.permutation(len(pool))[:300])
            counts = {key: int(n) for key, n in zip(chosen, rng.integers(1, 50, len(chosen)))}
            decoded = _decode(h, _codes_of(h, counts))
            assert decoded == _decode(h, counts) == _scan_decode(h, counts)
            assert decoded[3] == (pool is keys)
            coords = _decoded_coords(h, _codes_of(h, counts))
            assert np.array_equal(coords, _decoded_coords(h, counts))


def test_decoding_codes_breaks_exact_ties_like_the_counts_dict():
    rows = sorted(tuple(row) for row in all_turns(6).tolist())
    low, high = rows[7], rows[40]
    h = _ScriptedHamiltonian("DGPHGM", {low: 0.0, high: 0.0})
    counts = {h.encoding.bits_from_turns(list(row)): 1 for row in rows}
    decoded = _decode(h, _codes_of(h, counts))
    assert decoded == _decode(h, counts) == _scan_decode(h, counts)
    assert decoded[1] == low


# -- the expectation cache -------------------------------------------------------


def _replay(h, cache, counters, key) -> float:
    """One lookup of the one-at-a-time cache the batched lookup replaced."""
    energy = cache.get(key)
    if energy is not None:
        counters["hits"] += 1
        return energy
    counters["misses"] += 1
    energy = cache[key] = h.energy_of_bits(key)
    return energy


def test_expectation_batches_misses_without_changing_cache_or_counters():
    """The code → energy memo holds exactly what the one-at-a-time string
    cache held, kept sorted by code, with the same counters."""
    h = LatticeHamiltonian("PWWERYQP")
    width = h.encoding.configuration_qubits
    rng = np.random.default_rng(5)
    pool = rng.integers(0, 2, size=(12, width)).astype(np.uint8)
    expectation = DiagonalExpectation(h)
    cache, counters = {}, {"hits": 0, "misses": 0}
    for _ in range(8):
        samples = pool[rng.integers(0, len(pool), size=20)]
        energies, _, _ = expectation._unique_config_energies(samples)
        keys = ["".join(map(str, row)) for row in np.unique(samples, axis=0)]
        assert energies.tolist() == [_replay(h, cache, counters, key) for key in keys]
        codes = expectation._codes.tolist()
        assert codes == sorted(codes)
        memo = dict(zip(codes, expectation._values.tolist()))
        assert memo == {int(key, 2): energy for key, energy in cache.items()}
        info = expectation.cache_info()
        assert info == {"entries": len(cache), **counters}

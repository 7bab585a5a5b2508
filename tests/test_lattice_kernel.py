"""The batched lattice-energy kernel, ``LatticeHamiltonian.terms``.

``scalar_terms`` keeps the per-conformation formulas the kernel replaced, as
the reference, and ``sequential_annealing`` the one-proposal-per-call
annealer the neighbour-table one replaced.  The kernel agrees with it per
term within 1e-9 relative (its left-to-right sums may round differently from
NumPy's pairwise and BLAS sums), and every row is bit-identical whatever
batch or chunk scores it.  The callers moved onto the kernel must decide
exactly as their one-at-a-time versions did.
"""

import itertools

import numpy as np
import pytest

from repro.bio.miyazawa_jernigan import interaction_matrix_for_sequence
from repro.dataset.builder import DatasetBuilder
from repro.lattice import hamiltonian as hamiltonian_module
from repro.lattice.classical import ClassicalFoldingResult, ClassicalFoldingSolver
from repro.lattice.decoder import ConformationDecoder
from repro.lattice.hamiltonian import HamiltonianWeights, LatticeHamiltonian
from repro.lattice.tetrahedral import turns_to_coords
from repro.utils.rng import rng_for
from repro.vqe.expectation import DiagonalExpectation

from _support import codes_of

#: One sequence per length 5-10; the tests score every encodable conformation.
SEQUENCES = ("RYRDV", "DGPHGM", "ACDEFGH", "PWWERYQP", "AQITMGMPY", "EDACQGDSGG")


def all_turns(length: int) -> np.ndarray:
    """Every encodable conformation: turns 0 and 1, then all 4^(L-3) free turns."""
    codes = np.arange(4 ** (length - 3))[:, None]
    free = (codes >> (2 * np.arange(length - 3))) & 3
    return np.concatenate([np.tile([0, 1], (len(codes), 1)), free], axis=1)


def backtracking_count(turns) -> int:
    """Immediate reversals: on the diamond lattice, steps ``k`` and ``k + 1``
    with the same turn index point in opposite directions."""
    turns = np.asarray(turns, dtype=int)
    return int(np.count_nonzero(turns[1:] == turns[:-1]))


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


def energy(h: LatticeHamiltonian, turns) -> float:
    """Total energy of one conformation, from the kernel."""
    return float(h.energies(np.asarray(turns)[None])[0])


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


def test_backtracking_count():
    assert backtracking_count([0, 0, 1]) == 1
    assert backtracking_count([0, 1, 2, 3]) == 0
    assert backtracking_count([2]) == 0


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
    monkeypatch.setattr(
        LatticeHamiltonian,
        "energies",
        lambda self, turns: np.array([scalar_energy(self, row) for row in turns]),
    )
    for seq, expected in zip(sequences, kernel):
        reference = ClassicalFoldingSolver(LatticeHamiltonian(seq)).solve(seed=7)
        assert reference.turns == expected.turns, seq
        assert reference.energy == pytest.approx(expected.energy, rel=1e-9)


# -- the annealed reference solve -----------------------------------------------

#: ``(sequence, seed, turns, energy.hex(), evaluations)`` of ``solve`` on the 9
#: benchmark-slice sequences, recorded from the one-proposal-per-call
#: annealer: the 13-14-mers anneal, the rest are enumerated exactly.
PINNED_GROUND_STATES = (
    ("ELISNSSDALDKI", 1, (0, 1, 2, 1, 1, 3, 1, 2, 3, 2, 2, 1), "0x1.72dc6d57f60d9p+13", 2971),
    ("ELISNSSDALDKI", 7, (0, 1, 2, 0, 3, 2, 0, 3, 2, 3, 1, 2), "0x1.79dde3b5b4b46p+13", 2971),
    ("ELISNSSDALDKI", 2025, (0, 1, 0, 3, 1, 0, 2, 1, 3, 1, 1, 2), "0x1.665f75f86a5aep+13", 2988),
    ("YLVTHLMGADLNNI", 1, (0, 1, 1, 2, 2, 1, 0, 3, 1, 0, 2, 1, 3), "0x1.6bce6587bc8dcp+13", 3351),
    ("YLVTHLMGADLNNI", 7, (0, 1, 2, 1, 1, 2, 0, 2, 1, 0, 1, 1, 2), "0x1.99284d8453668p+13", 3261),
    ("YLVTHLMGADLNNI", 2025, (0, 1, 0, 1, 1, 3, 1, 0, 3, 1, 2, 0, 0), "0x1.995570b776390p+13", 3321),
    ("VVLPYMKHGDLRNF", 1, (0, 1, 3, 2, 3, 0, 1, 3, 0, 3, 0, 0, 2), "0x1.0723b6c7aea78p+14", 3339),
    ("VVLPYMKHGDLRNF", 7, (0, 1, 3, 0, 1, 2, 1, 3, 0, 1, 0, 0, 2), "0x1.da5cc54e85828p+13", 3331),
    ("VVLPYMKHGDLRNF", 2025, (0, 1, 0, 0, 1, 3, 0, 1, 1, 0, 2, 1, 3), "0x1.1362219365446p+14", 3346),
    ("AQITMGMPY", 1, (0, 1, 3, 0, 1, 2, 0, 1), "0x1.12c95d87ef4c6p+11", 4096),
    ("AQITMGMPY", 7, (0, 1, 3, 0, 1, 2, 0, 1), "0x1.12c95d87ef4c6p+11", 4096),
    ("AQITMGMPY", 2025, (0, 1, 3, 0, 1, 2, 0, 1), "0x1.12c95d87ef4c6p+11", 4096),
    ("SAPLRVYVE", 1, (0, 1, 3, 0, 1, 2, 0, 1), "0x1.144f59183d2e2p+11", 4096),
    ("SAPLRVYVE", 7, (0, 1, 3, 0, 1, 2, 0, 1), "0x1.144f59183d2e2p+11", 4096),
    ("SAPLRVYVE", 2025, (0, 1, 3, 0, 1, 2, 0, 1), "0x1.144f59183d2e2p+11", 4096),
    ("TAGATSANE", 1, (0, 1, 3, 2, 1, 3, 1, 3), "0x1.10f5f2354b254p+11", 4096),
    ("TAGATSANE", 7, (0, 1, 3, 2, 1, 3, 1, 3), "0x1.10f5f2354b254p+11", 4096),
    ("TAGATSANE", 2025, (0, 1, 3, 2, 1, 3, 1, 3), "0x1.10f5f2354b254p+11", 4096),
    ("DGPHGM", 1, (0, 1, 0, 3, 2), "0x1.ae002cf79264ap+6", 64),
    ("DGPHGM", 7, (0, 1, 0, 3, 2), "0x1.ae002cf79264ap+6", 64),
    ("DGPHGM", 2025, (0, 1, 0, 3, 2), "0x1.ae002cf79264ap+6", 64),
    ("SIHSYS", 1, (0, 1, 3, 0, 1), "0x1.a1e1308e4b641p+6", 64),
    ("SIHSYS", 7, (0, 1, 3, 0, 1), "0x1.a1e1308e4b641p+6", 64),
    ("SIHSYS", 2025, (0, 1, 3, 0, 1), "0x1.a1e1308e4b641p+6", 64),
    ("PWWERYQP", 1, (0, 1, 0, 1, 3, 0, 1), "0x1.428047536ce8dp+10", 1024),
    ("PWWERYQP", 7, (0, 1, 0, 1, 3, 0, 1), "0x1.428047536ce8dp+10", 1024),
    ("PWWERYQP", 2025, (0, 1, 0, 1, 3, 0, 1), "0x1.428047536ce8dp+10", 1024),
)


def sequential_annealing(
    solver: ClassicalFoldingSolver, seed: int, sweeps: int, t_start=None, t_end=None
) -> tuple[ClassicalFoldingResult, int]:
    """The annealer that scored each proposal in a kernel call of its own
    (test reference only), and its number of accepted moves."""
    h = solver.hamiltonian
    rng = rng_for(seed, "classical-annealing", str(h.sequence))
    n_turns = solver.encoding.length - 1
    n_free = solver.encoding.num_free_turns
    first_free = n_turns - n_free
    t_start = h._clash_penalty * 0.5 if t_start is None else t_start
    t_end = h._clash_penalty * 0.005 if t_end is None else t_end
    turns = np.array(([0, 1][:n_turns]) + [0] * n_free, dtype=int)[:n_turns]
    for k in range(first_free, n_turns):
        turns[k] = (k % 2) * 2
    current_e = energy(h, turns)
    best_turns, best_e = turns.copy(), current_e
    evaluations, accepted = 1, 0
    for temp in np.geomspace(max(t_start, 1e-9), max(t_end, 1e-9), num=max(1, sweeps)):
        for pos in range(first_free, n_turns):
            old = turns[pos]
            new = int(rng.integers(0, 4))
            if new == old:
                continue
            turns[pos] = new
            e = energy(h, turns)
            evaluations += 1
            if e <= current_e or rng.random() < np.exp(-(e - current_e) / temp):
                current_e = e
                accepted += 1
                if e < best_e:
                    best_e, best_turns = e, turns.copy()
            else:
                turns[pos] = old
    result = ClassicalFoldingResult(
        turns=tuple(int(t) for t in best_turns),
        energy=float(best_e),
        ca_coords=turns_to_coords(best_turns, bond_length=h.bond_length),
        exact=False,
        evaluations=evaluations,
    )
    return result, accepted


def test_slice_ground_states_are_pinned():
    for sequence, seed, turns, energy, evaluations in PINNED_GROUND_STATES:
        result = ClassicalFoldingSolver(LatticeHamiltonian(sequence)).solve(seed=seed)
        assert (result.turns, result.energy.hex(), result.evaluations) == (
            turns, energy, evaluations
        ), (sequence, seed)
        assert result.exact == (len(sequence) <= 10)


@pytest.mark.parametrize(
    "length, sweeps, hot",
    [(11, 400, False), (12, 1, False), (13, 7, False), (14, 100, False),
     (15, 400, False), (16, 100, False), (12, 100, True), (16, 7, True)],
)
def test_neighbour_table_annealer_matches_the_sequential_one(length, sweeps, hot, monkeypatch):
    """Same turns, energy bits, evaluations and trace as one kernel call per
    proposal, with one kernel call per accepted move plus the start."""
    rng = np.random.default_rng(length * 1000 + sweeps)
    sequence = "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=length))
    solver = ClassicalFoldingSolver(LatticeHamiltonian(sequence))
    # A hot schedule accepts most uphill moves, so the table is re-made often.
    temperatures = (solver.hamiltonian._clash_penalty * 50, solver.hamiltonian._clash_penalty)
    kwargs = dict(zip(("t_start", "t_end"), temperatures)) if hot else {}
    expected, accepted = sequential_annealing(solver, seed=length, sweeps=sweeps, **kwargs)
    calls = []
    energies = LatticeHamiltonian.energies
    monkeypatch.setattr(
        LatticeHamiltonian, "energies", lambda self, turns: calls.append(1) or energies(self, turns)
    )
    result = solver.solve_annealing(seed=length, sweeps=sweeps, **kwargs)
    assert (result.turns, result.energy.hex(), result.evaluations) == (
        expected.turns, expected.energy.hex(), expected.evaluations
    )
    assert result.ca_coords.tobytes() == expected.ca_coords.tobytes()
    assert len(calls) == 1 + accepted
    if hot:
        assert accepted > expected.evaluations // 2


# -- the decoder's tie-break -----------------------------------------------------


def _scan_decode(h: LatticeHamiltonian, codes: np.ndarray) -> tuple:
    """The one-conformation-at-a-time decode the batched one replaced."""
    width = h.encoding.configuration_qubits
    best_valid = best_any = None

    def better(candidate, incumbent):
        if incumbent is None or candidate[0] < incumbent[0] - 1e-9:
            return True
        return abs(candidate[0] - incumbent[0]) <= 1e-9 and candidate[1] < incumbent[1]

    for code in codes.tolist():
        turns = h.encoding.turns_from_codes(np.array([code]))
        terms = h.terms(turns)
        valid = terms[0, 1] == 0.0 and terms[0, 2] == 0.0
        conformation = (
            float(h.total(terms)[0]), tuple(turns[0].tolist()), format(code, f"0{width}b"), valid
        )
        if better(conformation, best_any):
            best_any = conformation
        if valid and better(conformation, best_valid):
            best_valid = conformation
    return best_valid if best_valid is not None else best_any


def _decode(h: LatticeHamiltonian, codes: np.ndarray) -> tuple:
    decoded = ConformationDecoder(h).decode_counts((codes, np.ones(len(codes), dtype=np.int64)))
    assert np.array_equal(decoded.ca_coords, turns_to_coords(decoded.turns, h.bond_length))
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
    winner depends on the scan order, which must stay the codes' order."""
    rows = sorted(tuple(row) for row in all_turns(6).tolist())
    c, b, a = rows[10], rows[20], rows[30]  # lexicographic c < b < a, energies a < b < c
    h = _ScriptedHamiltonian("DGPHGM", {a: 0.0, b: 0.6e-9, c: 1.2e-9})
    winners = set()
    for order in itertools.permutations([a, b, c]):
        codes = codes_of([*order, *(row for row in rows if row not in order)])
        decoded = _decode(h, codes)
        assert decoded == _scan_decode(h, codes)
        winners.add(decoded[1])
    assert len(winners) > 1


def test_decoder_matches_the_scalar_scan_on_shuffled_counts():
    """On mixed and on all-invalid code sets; an all-invalid set decodes to
    its best invalid conformation."""
    h = LatticeHamiltonian("PWWERYQP")
    rows = all_turns(8)
    terms = h.terms(rows)
    codes = codes_of(rows)
    invalid = codes[(terms[:, 1] != 0.0) | (terms[:, 2] != 0.0)]
    rng = np.random.default_rng(3)
    for pool in (codes, invalid):
        for _ in range(4):
            chosen = pool[rng.permutation(len(pool))[:300]]
            decoded = _decode(h, chosen)
            assert decoded == _scan_decode(h, chosen)
            assert decoded[3] == (pool is codes)


def test_decoder_breaks_exact_ties_by_the_smallest_turns():
    rows = sorted(tuple(row) for row in all_turns(6).tolist())
    low, high = rows[7], rows[40]
    h = _ScriptedHamiltonian("DGPHGM", {low: 0.0, high: 0.0})
    codes = codes_of(rows)[::-1].copy()
    decoded = _decode(h, codes)
    assert decoded == _scan_decode(h, codes)
    assert decoded[1] == low


# -- the expectation cache -------------------------------------------------------


def _replay(h, cache, counters, key) -> float:
    """One lookup of the one-at-a-time cache the batched lookup replaced."""
    value = cache.get(key)
    if value is not None:
        counters["hits"] += 1
        return value
    counters["misses"] += 1
    value = cache[key] = float(h.energies(h.encoding.turns_from_codes([int(key, 2)]))[0])
    return value


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

"""The whole-array context kernels: backbone templating and ligand growth.

``scalar_backbone`` keeps the per-residue templating loop that
``build_backbone_from_ca`` replaced, and ``scalar_ligand`` the
parent-by-parent growth loop that ``SyntheticLigandGenerator.generate``
replaced, as references.  The kernels must give the same bits as both on the
paper's fragments and on traces built to hit every branch.
"""

import numpy as np
import pytest

from repro.bio import templates
from repro.bio.amino_acids import get as get_aa
from repro.bio.reference import ReferenceStructureGenerator
from repro.bio.structure import Atom, Chain, Residue, Structure
from repro.bio.templates import (
    BACKBONE_CHARGES,
    BOND_C_O,
    BOND_CA_C,
    BOND_CA_CB,
    BOND_N_CA,
    build_backbone_from_ca,
    sidechain_charge,
)
from repro.dataset.builder import DatasetBuilder
from repro.dataset.fragments import PAPER_FRAGMENTS
from repro.docking.ligand import Ligand, SyntheticLigandGenerator
from repro.exceptions import StructureError
from repro.utils.rng import rng_for

#: The stratified slice the benchmarks build (3 fragments per length group).
SLICE = DatasetBuilder.select_fragments(groups=["L", "M", "S"], limit_per_group=3)


def _unit(v: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise StructureError("degenerate direction vector in backbone templating")
    return v / n


def _perpendicular(v: np.ndarray) -> np.ndarray:
    v = _unit(v)
    trial = np.array([1.0, 0.0, 0.0])
    if abs(np.dot(trial, v)) > 0.9:
        trial = np.array([0.0, 1.0, 0.0])
    return _unit(trial - np.dot(trial, v) * v)


def scalar_backbone(sequence: str, ca_coords: np.ndarray, start_seq_id: int = 1) -> Structure:
    """The templating loop that placed one residue at a time (test reference only)."""
    ca = np.asarray(ca_coords, dtype=float)
    L = len(sequence)
    chain = Chain("A")
    for i, code in enumerate(sequence):
        prev_dir = _unit(ca[i] - ca[i - 1]) if i > 0 else _unit(ca[i + 1] - ca[i])
        next_dir = _unit(ca[i + 1] - ca[i]) if i < L - 1 else _unit(ca[i] - ca[i - 1])
        n_pos = ca[i] - BOND_N_CA * prev_dir
        c_pos = ca[i] + BOND_CA_C * next_dir
        perp = _perpendicular(next_dir)
        o_dir = _unit(0.55 * perp - 0.83 * next_dir) if i < L - 1 else perp
        o_pos = c_pos + BOND_C_O * _unit(o_dir + 1e-6)
        atoms = [
            Atom("N", "N", n_pos, BACKBONE_CHARGES["N"]),
            Atom("CA", "C", ca[i], BACKBONE_CHARGES["CA"]),
            Atom("C", "C", c_pos, BACKBONE_CHARGES["C"]),
            Atom("O", "O", o_pos, BACKBONE_CHARGES["O"]),
        ]
        if code.upper() != "G":
            normal = np.cross(prev_dir, next_dir)
            if np.linalg.norm(normal) < 1e-6:
                normal = _perpendicular(next_dir)
            cb_dir = _unit(_unit(normal) - 0.5 * (prev_dir + next_dir))
            scale = BOND_CA_CB * (get_aa(code).volume / 140.0) ** (1.0 / 3.0)
            atoms.append(Atom("CB", "C", ca[i] + scale * cb_dir, sidechain_charge(code)))
        chain.residues.append(Residue(code, start_seq_id + i, atoms))
    return Structure("FRAG", [chain])


def scalar_ligand(generator: SyntheticLigandGenerator, reference) -> Ligand:
    """The growth loop that scored one parent at a time and recomputed every
    receptor distance at every step (test reference only)."""
    from repro.docking.pocket import find_pocket

    g = generator
    rng = rng_for(g.master_seed, "ligand", reference.pdb_id, str(reference.sequence))
    receptor_coords = reference.structure.all_coords()
    receptor_elements = np.array([a.element.upper() for a in reference.structure.atoms])
    receptor_polar = (receptor_elements == "N") | (receptor_elements == "O")
    pocket = find_pocket(reference.structure)
    n_atoms = int(np.clip(g.min_atoms + len(reference.sequence) // 2, g.min_atoms, g.max_atoms))
    positions = [pocket.center.copy()]
    directions = rng.normal(size=(48, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    for _ in range(n_atoms - 1):
        best_pos, best_score = None, -np.inf
        grown = np.array(positions)
        for parent in positions[::-1][:6]:
            candidates = parent + g.BOND_LENGTH * directions
            dist_receptor = np.linalg.norm(candidates[:, None, :] - receptor_coords[None, :, :], axis=2)
            dist_self = np.linalg.norm(candidates[:, None, :] - grown[None, :, :], axis=2)
            clash = (dist_receptor < g.CLASH_RECEPTOR).any(axis=1) | (dist_self < g.CLASH_SELF).any(axis=1)
            in_shell = (dist_receptor >= g.SHELL_MIN) & (dist_receptor <= g.SHELL_MAX)
            contacts = in_shell.sum(axis=1)
            polar_contacts = (in_shell & receptor_polar[None, :]).sum(axis=1)
            score = np.where(
                clash, -np.inf, contacts + 4.0 * polar_contacts + 0.01 * rng.random(len(candidates))
            )
            idx = int(np.argmax(score))
            if score[idx] > best_score:
                best_score, best_pos = float(score[idx]), candidates[idx]
        if best_pos is None or not np.isfinite(best_score):
            break
        positions.append(best_pos)
    coords = np.array(positions)
    dist_all = np.linalg.norm(coords[:, None, :] - receptor_coords[None, :, :], axis=2)
    typed = []
    for k in range(coords.shape[0]):
        near_elements = set(receptor_elements[dist_all[k] <= 4.5])
        if "O" in near_elements:
            typed.append(("N", False, True, False, 0.3))
        elif "N" in near_elements:
            typed.append(("O", False, False, True, -0.3))
        else:
            typed.append(("C", True, False, False, 0.0))
    elements, hydrophobic, donor, acceptor, charges = (list(col) for col in zip(*typed))
    return Ligand(
        name=f"{reference.pdb_id}_ligand",
        coords=coords,
        elements=elements,
        hydrophobic=np.array(hydrophobic),
        donor=np.array(donor),
        acceptor=np.array(acceptor),
        charges=np.array(charges),
        num_rotatable_bonds=int(rng.integers(2, 7)),
        anchor=pocket.center.copy(),
    )


def _atom_rows(structure: Structure) -> list:
    return [
        (r.code, r.seq_id, a.name, a.element, a.charge, a.coords.tobytes())
        for r in structure.residues
        for a in r.atoms
    ]


def _ligand_bytes(ligand: Ligand) -> tuple:
    arrays = (ligand.coords, ligand.hydrophobic, ligand.donor, ligand.acceptor, ligand.charges, ligand.anchor)
    return (ligand.name, ligand.elements, ligand.num_rotatable_bonds) + tuple(a.tobytes() for a in arrays)


@pytest.mark.parametrize(
    "fragments, seed", [(PAPER_FRAGMENTS, 1), (SLICE, 2025)], ids=["paper-seed1", "slice-seed2025"]
)
def test_kernels_match_the_scalar_loops_on_paper_fragments(fragments, seed):
    generator = SyntheticLigandGenerator(master_seed=seed)
    for fragment in fragments:
        reference = ReferenceStructureGenerator(master_seed=seed).generate(
            fragment.pdb_id, fragment.sequence, start_seq_id=fragment.residue_start
        )
        seq = fragment.sequence
        assert _atom_rows(build_backbone_from_ca(seq, reference.ca_coords, start_seq_id=7)) == _atom_rows(
            scalar_backbone(seq, reference.ca_coords, start_seq_id=7)
        ), fragment.pdb_id
        assert _ligand_bytes(generator.generate(reference)) == _ligand_bytes(
            scalar_ligand(generator, reference)
        ), fragment.pdb_id


def _traces() -> list[tuple[str, np.ndarray]]:
    """Random traces, plus straight and folded-back ones that take the
    perpendicular flip and the flat-normal fallback."""
    rng = np.random.default_rng(11)
    letters = list("ACDEFGHIKLMNPQRSTVWY")
    traces = []
    for length in range(2, 22):
        seq = "".join(rng.choice(letters, size=length))
        traces.append((seq, np.cumsum(rng.normal(scale=2.0, size=(length, 3)), axis=0)))
    straight = np.outer(np.arange(6.0), [3.8, 0.0, 0.0])
    traces.append(("GAGAGA", straight))
    traces.append(("GGGGGG", straight[:, [2, 0, 1]]))
    traces.append(("AGAGAG", straight[:, [1, 0, 2]]))
    traces.append(("KKKK", np.array([[0.0, 0, 0], [3.8, 0, 0], [0, 0, 0], [3.8, 0.1, 0]])))
    return traces


def test_kernels_match_the_scalar_loop_on_every_branch():
    for seq, ca in _traces():
        assert _atom_rows(build_backbone_from_ca(seq, ca)) == _atom_rows(scalar_backbone(seq, ca)), seq


def test_glycine_rows_get_no_side_chain():
    structure = build_backbone_from_ca("GAG", np.outer(np.arange(3.0), [1.0, 2.0, 2.0]))
    assert [[a.name for a in r.atoms] for r in structure.residues] == [
        ["N", "CA", "C", "O"], ["N", "CA", "C", "O", "CB"], ["N", "CA", "C", "O"],
    ]


@pytest.mark.parametrize("duplicate", [0, 2, 4])
def test_coincident_consecutive_ca_atoms_raise(duplicate):
    ca = np.cumsum(np.full((6, 3), 2.0), axis=0)
    ca[duplicate + 1] = ca[duplicate]
    with pytest.raises(StructureError, match="^degenerate direction vector in backbone templating$"):
        build_backbone_from_ca("ACDEFG", ca)
    with pytest.raises(StructureError, match="^degenerate direction vector in backbone templating$"):
        scalar_backbone("ACDEFG", ca)


def test_row_norms_and_dots_match_the_vector_calls():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(20_000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(20_000, 1))
    w = rng.normal(size=(20_000, 3))
    assert np.array_equal(np.sqrt(templates._row_dots(v, v)), [np.linalg.norm(row) for row in v])
    assert np.array_equal(templates._row_dots(v, w), [np.dot(a, b) for a, b in zip(v, w)])


def test_receptor_terms_are_computed_once_per_placed_atom(monkeypatch):
    reference = ReferenceStructureGenerator().generate("1e2l", "AQITMGMPY")
    calls = []
    terms = SyntheticLigandGenerator._growth_candidates
    monkeypatch.setattr(
        SyntheticLigandGenerator,
        "_growth_candidates",
        lambda self, *args: calls.append(1) or terms(self, *args),
    )
    ligand = SyntheticLigandGenerator().generate(reference)
    assert len(ligand.coords) > 1
    assert len(calls) == len(ligand.coords)

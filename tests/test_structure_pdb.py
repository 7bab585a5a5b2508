"""Tests for the structure model, templates, PDB I/O and the MJ matrix."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bio.amino_acids import AA_ORDER
from repro.bio.miyazawa_jernigan import AA_INDEX, MJ_MATRIX, interaction_matrix_for_sequence
from repro.bio.pdb import read_pdb, structure_to_pdb_string, write_pdb
from repro.bio.structure import Atom
from repro.bio.templates import build_backbone_from_ca
from repro.exceptions import PDBFormatError, StructureError

from _support import ca_structure

sequences = st.text(alphabet=list(AA_ORDER), min_size=2, max_size=12)


def _zigzag_ca(n: int) -> np.ndarray:
    t = np.arange(n)
    return np.column_stack([3.8 * t, 1.5 * ((-1.0) ** t), 0.1 * t])


# -- MJ matrix -----------------------------------------------------------------


def test_mj_matrix_symmetric_and_complete():
    assert MJ_MATRIX.shape == (20, 20)
    assert np.allclose(MJ_MATRIX, MJ_MATRIX.T)


def _mj(a: str, b: str) -> float:
    return float(MJ_MATRIX[AA_INDEX[a], AA_INDEX[b]])


def test_mj_hydrophobic_pairs_most_favourable():
    assert _mj("I", "I") < _mj("K", "K")
    assert _mj("L", "F") < _mj("S", "S")


def test_mj_opposite_charges_attract_more_than_like_charges():
    assert _mj("D", "K") < _mj("D", "E")


def test_interaction_matrix_for_sequence_shape():
    m = interaction_matrix_for_sequence("RYRDV")
    assert m.shape == (5, 5)
    assert np.allclose(m, m.T)


# -- structure model -----------------------------------------------------------


def test_structure_sequence_and_ca_coords():
    s = ca_structure("RYRDV", _zigzag_ca(5))
    assert s.sequence == "RYRDV"
    assert s.ca_coords().shape == (5, 3)
    assert len(s.residues) == 5


def test_structure_translate_and_center():
    s = ca_structure("AAA", _zigzag_ca(3))
    s.center()
    assert np.allclose(s.all_coords().mean(axis=0), 0.0, atol=1e-9)
    s.translate([1.0, 2.0, 3.0])
    assert np.allclose(s.all_coords().mean(axis=0), [1.0, 2.0, 3.0], atol=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_atom_non_finite_coords_raise(bad):
    with pytest.raises(StructureError, match="'CA' has non-finite coordinates"):
        Atom("CA", "C", (0, bad, 0))


# -- backbone templates -----------------------------------------------------------


@given(sequences)
@settings(max_examples=20, deadline=None)
def test_backbone_template_atom_counts(seq):
    structure = build_backbone_from_ca(seq, _zigzag_ca(len(seq)))
    expected = sum(4 if c == "G" else 5 for c in seq)
    assert len(structure.atoms) == expected
    # Every residue keeps its CA exactly where the trace put it.
    assert np.allclose(structure.ca_coords(), _zigzag_ca(len(seq)))


def test_backbone_bond_lengths_reasonable():
    structure = build_backbone_from_ca("ACDEF", _zigzag_ca(5))
    for res in structure.residues:
        n, ca, c = res.atom("N"), res.atom("CA"), res.atom("C")
        assert 1.3 < np.linalg.norm(n.coords - ca.coords) < 1.6
        assert 1.3 < np.linalg.norm(ca.coords - c.coords) < 1.7


def test_backbone_single_residue_raises():
    with pytest.raises(StructureError):
        build_backbone_from_ca("A", np.zeros((1, 3)))


# -- PDB round trip -----------------------------------------------------------------


@given(sequences)
@settings(max_examples=20, deadline=None)
def test_pdb_roundtrip_preserves_sequence_and_coords(seq):
    structure = build_backbone_from_ca(seq, _zigzag_ca(len(seq)), structure_id="frag")
    text = structure_to_pdb_string(structure)
    parsed = read_pdb(text)
    assert parsed.sequence == seq
    assert np.allclose(parsed.all_coords(), structure.all_coords(), atol=1e-3)


def test_pdb_write_and_read_file(tmp_path):
    structure = build_backbone_from_ca("RYRDV", _zigzag_ca(5))
    path = write_pdb(structure, tmp_path / "frag.pdb", remarks=["test remark"])
    assert path.exists()
    parsed = read_pdb(path)
    assert parsed.sequence == "RYRDV"


def test_pdb_format_columns():
    structure = build_backbone_from_ca("AC", _zigzag_ca(2))
    lines = [l for l in structure_to_pdb_string(structure).splitlines() if l.startswith("ATOM")]
    for line in lines:
        assert len(line) >= 78
        float(line[30:38]), float(line[38:46]), float(line[46:54])  # coordinates parse


def test_read_pdb_rejects_garbage():
    with pytest.raises(PDBFormatError):
        read_pdb("HEADER only\nEND\n")

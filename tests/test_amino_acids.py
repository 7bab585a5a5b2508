"""Unit tests for the amino-acid tables."""

import pytest

from repro.bio import amino_acids as aa
from repro.exceptions import SequenceError


def test_twenty_standard_amino_acids():
    assert len(aa.AMINO_ACIDS) == 20
    assert len(aa.AA_ORDER) == 20
    assert sorted(aa.AA_ORDER) == list(aa.AA_ORDER)


def test_one_three_roundtrip():
    for code in aa.AA_ORDER:
        assert aa.three_to_one(aa.one_to_three(code)) == code


def test_three_letter_codes_unique():
    threes = [a.three for a in aa.AMINO_ACIDS.values()]
    assert len(set(threes)) == 20


def test_lowercase_accepted():
    assert aa.one_to_three("a") == "ALA"
    assert aa.three_to_one("gly") == "G"


def test_unknown_codes_raise():
    with pytest.raises(SequenceError):
        aa.get("B")
    with pytest.raises(SequenceError):
        aa.one_to_three("X")
    with pytest.raises(SequenceError):
        aa.three_to_one("XYZ")


def test_hydrophobicity_signs():
    # Kyte-Doolittle: Ile most hydrophobic, Arg most hydrophilic.
    assert aa.get("I").hydropathy == pytest.approx(4.5)
    assert aa.get("R").hydropathy == pytest.approx(-4.5)
    assert aa.get("L").hydrophobic
    assert not aa.get("K").hydrophobic


def test_charges():
    assert aa.get("D").charge == -1
    assert aa.get("E").charge == -1
    assert aa.get("K").charge == 1
    assert aa.get("R").charge == 1
    assert aa.get("A").charge == 0
    assert sum(abs(aa.get(c).charge) for c in aa.AA_ORDER) == 4  # D, E, K, R


def test_masses_and_volumes_positive():
    for code in aa.AA_ORDER:
        assert aa.get(code).mass > 50.0
        assert aa.get(code).volume > 50.0


def test_glycine_is_smallest():
    assert min(aa.AA_ORDER, key=lambda c: aa.get(c).mass) == "G"
    assert min(aa.AA_ORDER, key=lambda c: aa.get(c).volume) == "G"

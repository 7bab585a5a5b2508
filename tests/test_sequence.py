"""Unit and property tests for ProteinSequence."""

import pytest
from hypothesis import given, strategies as st

from repro.bio.amino_acids import AA_ORDER
from repro.bio.sequence import ProteinSequence
from repro.exceptions import SequenceError

sequences = st.text(alphabet=list(AA_ORDER), min_size=1, max_size=20)


def test_basic_properties():
    seq = ProteinSequence("RYRDV")
    assert len(seq) == 5
    assert str(seq) == "RYRDV"
    assert seq[0] == "R"


def test_lowercase_normalised():
    assert str(ProteinSequence("ryrdv")) == "RYRDV"


def test_invalid_sequence_raises():
    with pytest.raises(SequenceError):
        ProteinSequence("")
    with pytest.raises(SequenceError):
        ProteinSequence("AXZ")


def test_pair_types_count():
    seq = ProteinSequence("ACD")
    assert sorted(seq.pair_types()) == [("A", "C"), ("A", "D"), ("C", "D")]


@given(sequences)
def test_composition_sums_to_length(s):
    seq = ProteinSequence(s)
    assert sum(seq.composition().values()) == len(seq)


@given(sequences)
def test_pair_types_length(s):
    seq = ProteinSequence(s)
    n = len(seq)
    assert len(seq.pair_types()) == n * (n - 1) // 2


@given(sequences)
def test_mass_positive_and_monotone(s):
    seq = ProteinSequence(s)
    assert seq.mass > 18.0
    assert seq.mass > len(seq) * 50.0

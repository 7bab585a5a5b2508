"""Tests for RMSD evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bio.geometry import random_rotation
from repro.bio.rmsd import ca_rmsd, per_residue_deviation, rmsd, rmsd_without_superposition
from repro.exceptions import StructureError

from _support import ca_structure

finite = st.floats(-30, 30, allow_nan=False, allow_infinity=False)
point_sets = arrays(np.float64, st.tuples(st.integers(3, 10), st.just(3)), elements=finite)


def test_rmsd_identical_is_zero():
    pts = np.random.default_rng(0).normal(size=(6, 3))
    assert rmsd(pts, pts) == pytest.approx(0.0, abs=1e-9)


@given(point_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_rmsd_invariant_to_rigid_motion(points, seed):
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    moved = points @ rot.T + rng.normal(size=3)
    assert rmsd(moved, points) == pytest.approx(0.0, abs=1e-6)


@given(point_sets)
@settings(max_examples=25, deadline=None)
def test_superposition_never_increases_rmsd(points):
    rng = np.random.default_rng(1)
    other = points + rng.normal(scale=1.0, size=points.shape)
    assert rmsd(other, points) <= rmsd_without_superposition(other, points) + 1e-9


def test_rmsd_shape_mismatch_raises():
    with pytest.raises(ValueError):
        rmsd(np.zeros((4, 3)), np.zeros((5, 3)))


def test_ca_rmsd_requires_matching_sequences():
    a = ca_structure("AAA", np.eye(3) * 3.8)
    b = ca_structure("AAC", np.eye(3) * 3.8)
    with pytest.raises(StructureError):
        ca_rmsd(a, b)


def test_per_residue_deviation_length_and_positivity():
    rng = np.random.default_rng(2)
    ca = rng.normal(scale=4.0, size=(7, 3))
    a = ca_structure("ACDEFGH", ca)
    b = ca_structure("ACDEFGH", ca + rng.normal(scale=0.5, size=ca.shape))
    dev = per_residue_deviation(a, b)
    assert dev.shape == (7,)
    assert np.all(dev >= 0.0)


def test_known_rmsd_value():
    a = np.zeros((2, 3))
    b = np.zeros((2, 3))
    b[0, 0] = 2.0  # one atom displaced by 2 A, other identical
    assert rmsd_without_superposition(a, b) == pytest.approx(np.sqrt(2.0))

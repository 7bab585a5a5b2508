"""Unit and property tests for the 3D geometry kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.bio.geometry import (
    kabsch_rotation,
    random_rotation,
    rotation_matrix,
    superimpose,
)

finite_floats = st.floats(-50, 50, allow_nan=False, allow_infinity=False)
point_sets = arrays(np.float64, st.tuples(st.integers(3, 12), st.just(3)), elements=finite_floats)


def test_rotation_matrix_is_orthogonal():
    rot = rotation_matrix(np.array([1.0, 2.0, 3.0]), 0.7)
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    assert np.isclose(np.linalg.det(rot), 1.0)


def test_rotation_matrix_zero_axis_raises():
    with pytest.raises(ValueError):
        rotation_matrix(np.zeros(3), 0.5)


@given(point_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_superimpose_recovers_rigid_transform(points, seed):
    rng = np.random.default_rng(seed)
    rot = random_rotation(rng)
    translation = rng.normal(scale=5.0, size=3)
    moved = points @ rot.T + translation
    aligned, _r, _t = superimpose(moved, points)
    assert np.allclose(aligned, points, atol=1e-6)


@given(point_sets)
@settings(max_examples=25, deadline=None)
def test_kabsch_returns_proper_rotation(points):
    centred = points - points.mean(axis=0)
    rot = kabsch_rotation(centred, centred[::-1] - centred[::-1].mean(axis=0))
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-8)
    assert np.isclose(np.linalg.det(rot), 1.0, atol=1e-8)


@given(point_sets, st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_random_rotation_preserves_distances_to_the_centroid(points, seed):
    rot = random_rotation(np.random.default_rng(seed))
    rotated = points @ rot.T
    before = np.linalg.norm(points - points.mean(axis=0), axis=1)
    after = np.linalg.norm(rotated - rotated.mean(axis=0), axis=1)
    assert np.allclose(before, after, rtol=1e-9, atol=1e-9)


def test_superimpose_shape_mismatch_raises():
    with pytest.raises(ValueError):
        superimpose(np.zeros((4, 3)), np.zeros((5, 3)))

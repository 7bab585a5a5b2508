"""3D geometry kernels: rotations and superposition.

These are the vectorised numerical primitives shared by the lattice decoder,
the backbone reconstruction, the RMSD evaluator and the docking engine.  All
functions operate on ``(N, 3)`` float arrays and avoid Python-level loops.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import as_points


def rotation_matrix(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rotation matrix for a rotation of ``angle`` radians about ``axis``.

    Uses the Rodrigues formula; ``axis`` need not be normalised.
    """
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm == 0:
        raise ValueError("rotation axis must be non-zero")
    x, y, z = axis / norm
    c, s = np.cos(angle), np.sin(angle)
    C = 1.0 - c
    return np.array(
        [
            [x * x * C + c, x * y * C - z * s, x * z * C + y * s],
            [y * x * C + z * s, y * y * C + c, y * z * C - x * s],
            [z * x * C - y * s, z * y * C + x * s, z * z * C + c],
        ]
    )


def rotation_matrices(axes: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Stacked :func:`rotation_matrix`: ``(N, 3)`` axes, ``(N,)`` angles -> ``(N, 3, 3)``.

    Bit-identical to :func:`rotation_matrix` row by row: each row norm is a
    stacked ``matmul`` of the row with itself (the ``dot`` kernel behind
    ``np.linalg.norm``), and every entry keeps the scalar operation order.
    """
    axes = np.asarray(axes, dtype=float)
    norms = np.sqrt(np.matmul(axes[:, None, :], axes[:, :, None])[:, 0, 0])
    if np.any(norms == 0):
        raise ValueError("rotation axis must be non-zero")
    x, y, z = (axes / norms[:, None]).T
    c, s = np.cos(angles), np.sin(angles)
    C = 1.0 - c
    rows = (
        x * x * C + c, x * y * C - z * s, x * z * C + y * s,
        y * x * C + z * s, y * y * C + c, y * z * C - x * s,
        z * x * C - y * s, z * y * C + x * s, z * z * C + c,
    )
    return np.stack(rows, axis=-1).reshape(-1, 3, 3)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """A uniformly distributed random rotation matrix (via QR of a Gaussian)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def centroid(points: np.ndarray) -> np.ndarray:
    """Centroid of an (N, 3) point set."""
    return as_points(points).mean(axis=0)


def kabsch_rotation(mobile: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Optimal rotation aligning centred ``mobile`` onto centred ``reference``.

    Standard Kabsch algorithm via SVD with a proper-rotation (det = +1)
    correction.  Inputs must already be centred on their centroids.
    """
    mobile = as_points(mobile, "mobile")
    reference = as_points(reference, "reference")
    if mobile.shape != reference.shape:
        raise ValueError(
            f"point sets must match in shape: {mobile.shape} vs {reference.shape}"
        )
    h = mobile.T @ reference
    u, _s, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    correction = np.diag([1.0, 1.0, d])
    return vt.T @ correction @ u.T


def superimpose(mobile: np.ndarray, reference: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Superimpose ``mobile`` onto ``reference``.

    Returns ``(transformed, rotation, translation)`` such that
    ``transformed = mobile @ rotation.T + translation`` is optimally aligned
    with ``reference`` in the least-squares sense.
    """
    mobile = as_points(mobile, "mobile")
    reference = as_points(reference, "reference")
    mob_c = centroid(mobile)
    ref_c = centroid(reference)
    rot = kabsch_rotation(mobile - mob_c, reference - ref_c)
    translation = ref_c - rot @ mob_c
    transformed = mobile @ rot.T + translation
    return transformed, rot, translation


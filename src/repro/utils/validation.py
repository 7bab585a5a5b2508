"""Small argument-validation helpers used across subsystems."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def as_points(coords: Sequence, name: str = "coords") -> np.ndarray:
    """Coerce ``coords`` to a contiguous float (N, 3) array, validating shape."""
    arr = np.ascontiguousarray(np.asarray(coords, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise ValueError(f"{name} must have shape (N, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr

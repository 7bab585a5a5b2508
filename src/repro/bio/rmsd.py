"""RMSD evaluation with optional Kabsch superposition.

The paper's structural-accuracy metric (Sec. 6.1.1) is the Cα RMSD between a
predicted fragment and its experimentally determined counterpart after optimal
superposition, computed with Biopython in the original work.  The equivalent
functionality is implemented here on plain coordinate arrays and on
:class:`~repro.bio.structure.Structure` objects.
"""

from __future__ import annotations

import numpy as np

from repro.bio.geometry import superimpose
from repro.bio.structure import Structure
from repro.exceptions import StructureError
from repro.utils.validation import as_points


def rmsd_without_superposition(a: np.ndarray, b: np.ndarray) -> float:
    """Plain coordinate RMSD without any alignment (used for docking pose spread)."""
    a = as_points(a, "a")
    b = as_points(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"coordinate sets must match in shape: {a.shape} vs {b.shape}")
    diff = a - b
    return float(np.sqrt(np.mean(np.einsum("ij,ij->i", diff, diff))))


def rmsd(mobile: np.ndarray, reference: np.ndarray, superimpose_first: bool = True) -> float:
    """RMSD between two (N, 3) coordinate sets, optimally superimposed by default."""
    mobile = as_points(mobile, "mobile")
    reference = as_points(reference, "reference")
    if mobile.shape != reference.shape:
        raise ValueError(
            f"coordinate sets must match in shape: {mobile.shape} vs {reference.shape}"
        )
    if superimpose_first:
        mobile, _rot, _t = superimpose(mobile, reference)
    return rmsd_without_superposition(mobile, reference)


def _matched_ca(predicted: Structure, reference: Structure) -> tuple[np.ndarray, np.ndarray]:
    if predicted.sequence != reference.sequence:
        raise StructureError(
            "cannot compute CA RMSD: sequences differ "
            f"({predicted.sequence!r} vs {reference.sequence!r})"
        )
    return predicted.ca_coords(), reference.ca_coords()


def ca_rmsd(predicted: Structure, reference: Structure) -> float:
    """Cα RMSD between two structures with identical sequences (Kabsch-aligned)."""
    pred, ref = _matched_ca(predicted, reference)
    return rmsd(pred, ref)


def per_residue_deviation(predicted: Structure, reference: Structure) -> np.ndarray:
    """Per-residue Cα deviation (Angstroms) after optimal superposition.

    This is the quantity visualised in the paper's Figure 7 (green = close
    agreement, red = deviation).
    """
    pred, ref = _matched_ca(predicted, reference)
    aligned, _rot, _t = superimpose(pred, ref)
    return np.linalg.norm(aligned - ref, axis=1)

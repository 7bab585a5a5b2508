"""QDock vs baseline comparisons: win rates (Sec. 6.2) and scatter data (Figs. 2–3).

The paper's headline evaluation counts, per metric and per group, how many of
the 55 fragments the quantum prediction handles better than AlphaFold2/3.
"Better" means *lower* for both metrics: Cα RMSD against the experimental
structure and docking binding affinity (kcal/mol).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bio.rmsd import per_residue_deviation
from repro.dataset.bank import QDockBank
from repro.exceptions import AnalysisError

#: Group keys used throughout ("All" plus the paper's three length groups).
COMPARISON_GROUPS: tuple[str, ...] = ("All", "L", "M", "S")


@dataclass
class ScatterSeries:
    """Paired per-fragment values for one metric and one group (one scatter panel)."""

    metric: str
    group: str
    pdb_ids: list[str]
    reference_method: str
    baseline_method: str
    reference_values: np.ndarray
    baseline_values: np.ndarray

    @property
    def wins(self) -> int:
        """Fragments where the reference method (QDock) has the lower value."""
        return int(np.count_nonzero(self.reference_values < self.baseline_values))

    @property
    def total(self) -> int:
        """Number of fragments in the panel."""
        return int(self.reference_values.size)


@dataclass
class MethodComparison:
    """Full comparison of QDock against one baseline across metrics and groups."""

    reference_method: str
    baseline_method: str
    series: dict[tuple[str, str], ScatterSeries] = field(default_factory=dict)

    def panel(self, metric: str, group: str) -> ScatterSeries:
        """One (metric, group) scatter panel."""
        try:
            return self.series[(metric, group)]
        except KeyError:
            raise AnalysisError(
                f"no panel for metric={metric!r}, group={group!r}; "
                f"available: {sorted(self.series)}"
            ) from None

    def wins(self, metric: str, group: str = "All") -> tuple[int, int]:
        """(wins, total) for a metric/group."""
        panel = self.panel(metric, group)
        return panel.wins, panel.total


def _entries_for_group(bank: QDockBank, group: str):
    if group == "All":
        return list(bank.entries)
    return bank.group(group)


def compare_methods(
    bank: QDockBank,
    baseline_method: str,
    reference_method: str = "QDock",
    metrics: tuple[str, ...] = ("affinity", "rmsd"),
) -> MethodComparison:
    """Build the full QDock-vs-baseline comparison from a bank.

    ``metrics`` may contain ``"affinity"`` (docking score) and ``"rmsd"``
    (Cα RMSD to the experimental reference); both are lower-is-better.
    """
    comparison = MethodComparison(reference_method=reference_method, baseline_method=baseline_method)
    for metric in metrics:
        for group in COMPARISON_GROUPS:
            entries = _entries_for_group(bank, group)
            if not entries:
                continue
            pdb_ids, ref_vals, base_vals = [], [], []
            for entry in entries:
                ref = entry.evaluation(reference_method)
                base = entry.evaluation(baseline_method)
                if metric == "affinity":
                    ref_vals.append(ref.affinity)
                    base_vals.append(base.affinity)
                elif metric == "rmsd":
                    ref_vals.append(ref.ca_rmsd)
                    base_vals.append(base.ca_rmsd)
                else:
                    raise AnalysisError(f"unknown metric {metric!r}")
                pdb_ids.append(entry.pdb_id)
            comparison.series[(metric, group)] = ScatterSeries(
                metric=metric,
                group=group,
                pdb_ids=pdb_ids,
                reference_method=reference_method,
                baseline_method=baseline_method,
                reference_values=np.array(ref_vals),
                baseline_values=np.array(base_vals),
            )
    return comparison


@dataclass
class CaseStudy:
    """Per-residue deviation profiles for one fragment (the Fig. 7 content)."""

    pdb_id: str
    methods: dict[str, np.ndarray]
    rmsd: dict[str, float]


def per_residue_case_study(bank: QDockBank, pdb_id: str, methods: tuple[str, ...] = ("QDock", "AF3")) -> CaseStudy:
    """Per-residue Cα deviation of each method's prediction for one fragment.

    Requires the entry to have been built with ``keep_structures=True`` so the
    predicted / baseline / reference structures are available.
    """
    entry = bank.entry(pdb_id)
    if entry.reference_structure is None:
        raise AnalysisError(f"entry {pdb_id} was built without structures; rebuild with keep_structures=True")
    profiles: dict[str, np.ndarray] = {}
    rmsds: dict[str, float] = {}
    for method in methods:
        if method == "QDock":
            structure = entry.predicted_structure
        else:
            structure = entry.baseline_structures.get(method)
        if structure is None:
            raise AnalysisError(f"entry {pdb_id} has no stored structure for method {method!r}")
        deviations = per_residue_deviation(structure, entry.reference_structure)
        profiles[method] = deviations
        rmsds[method] = entry.evaluation(method).ca_rmsd
    return CaseStudy(pdb_id=entry.pdb_id, methods=profiles, rmsd=rmsds)

"""Table / report generation: Tables 1–4 and the Sec. 6.2 win-rate summary."""

from __future__ import annotations

from typing import Any

from repro.analysis.comparison import MethodComparison
from repro.dataset.bank import QDockBank
from repro.dataset.fragments import fragments_by_group
from repro.exceptions import AnalysisError

#: Column order of the paper's per-group fragment tables (Tables 1–3).
GROUP_TABLE_COLUMNS = [
    "pdb_id",
    "sequence",
    "length",
    "residues",
    "qubits",
    "depth",
    "lowest_energy",
    "highest_energy",
    "energy_range",
    "exec_time_s",
]


def format_table(rows: list[dict[str, Any]], columns: list[str] | None = None, floatfmt: str = ".3f") -> str:
    """Render a list of row dicts as a fixed-width text table."""
    if not rows:
        raise AnalysisError("cannot format an empty table")
    columns = columns or list(rows[0].keys())

    def fmt(value: Any) -> str:
        if isinstance(value, float):
            return format(value, floatfmt)
        return str(value)

    rendered = [[fmt(row.get(col, "")) for col in columns] for row in rows]
    widths = [max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered)
    return f"{header}\n{separator}\n{body}"


def build_group_table(group: str, bank: QDockBank | None = None) -> list[dict[str, Any]]:
    """Rows of Table 1/2/3 for a length group.

    When a bank is provided the measured metadata is reported (with the paper
    value alongside as ``paper_*`` columns); otherwise the paper values alone
    are returned.
    """
    rows: list[dict[str, Any]] = []
    for fragment in fragments_by_group(group):
        row: dict[str, Any] = {
            "pdb_id": fragment.pdb_id,
            "sequence": fragment.sequence,
            "length": fragment.length,
            "residues": fragment.residue_range,
            "paper_qubits": fragment.paper.qubits,
            "paper_depth": fragment.paper.depth,
            "paper_lowest_energy": fragment.paper.lowest_energy,
            "paper_highest_energy": fragment.paper.highest_energy,
            "paper_energy_range": fragment.paper.energy_range,
            "paper_exec_time_s": fragment.paper.exec_time_s,
        }
        if bank is not None:
            try:
                entry = bank.entry(fragment.pdb_id)
            except Exception:
                entry = None
            if entry is not None and entry.quantum_metadata:
                meta = entry.quantum_metadata
                row.update(
                    {
                        "qubits": meta.get("qubits"),
                        "depth": meta.get("circuit_depth"),
                        "lowest_energy": meta.get("lowest_energy"),
                        "highest_energy": meta.get("highest_energy"),
                        "energy_range": meta.get("energy_range"),
                        "exec_time_s": meta.get("execution_time_s"),
                    }
                )
        else:
            row.update(
                {
                    "qubits": fragment.paper.qubits,
                    "depth": fragment.paper.depth,
                    "lowest_energy": fragment.paper.lowest_energy,
                    "highest_energy": fragment.paper.highest_energy,
                    "energy_range": fragment.paper.energy_range,
                    "exec_time_s": fragment.paper.exec_time_s,
                }
            )
        rows.append(row)
    return rows


def build_case_study_table(bank: QDockBank, pdb_id: str, methods: tuple[str, ...] = ("QDock", "AF3")) -> list[dict[str, Any]]:
    """Table 4: average docking metrics for one fragment across methods."""
    entry = bank.entry(pdb_id)
    rows = []
    for method in methods:
        evaluation = entry.evaluation(method)
        rows.append(
            {
                "method": method,
                "affinity_kcal_mol": evaluation.affinity,
                "rmsd_lb": evaluation.docking_rmsd_lb,
                "rmsd_ub": evaluation.docking_rmsd_ub,
                "ca_rmsd": evaluation.ca_rmsd,
            }
        )
    return rows


#: Win rates reported in Sec. 6.2, for paper-vs-measured comparison.
PAPER_WIN_RATES: dict[str, dict[str, dict[str, float]]] = {
    "AF2": {
        "affinity": {"All": 53 / 55, "L": 11 / 12, "M": 22 / 23, "S": 20 / 20},
        "rmsd": {"All": 51 / 55, "L": 9 / 12, "M": 23 / 23, "S": 19 / 20},
    },
    "AF3": {
        "affinity": {"All": 50 / 55, "L": 12 / 12, "M": 20 / 23, "S": 18 / 20},
        "rmsd": {"All": 44 / 55, "L": 7 / 12, "M": 19 / 23, "S": 18 / 20},
    },
}


def winrate_report(comparisons: dict[str, MethodComparison]) -> list[dict[str, Any]]:
    """Measured-vs-paper win rates for every baseline, metric and group."""
    rows: list[dict[str, Any]] = []
    for baseline, comparison in comparisons.items():
        for metric in ("affinity", "rmsd"):
            for group in ("All", "L", "M", "S"):
                try:
                    wins, total = comparison.wins(metric, group)
                except AnalysisError:
                    continue
                paper = PAPER_WIN_RATES.get(baseline, {}).get(metric, {}).get(group)
                rows.append(
                    {
                        "baseline": baseline,
                        "metric": metric,
                        "group": group,
                        "wins": wins,
                        "total": total,
                        "win_rate": wins / total if total else 0.0,
                        "paper_win_rate": paper if paper is not None else float("nan"),
                    }
                )
    return rows


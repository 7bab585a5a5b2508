"""The QDockBank container: in-memory access plus on-disk persistence.

The on-disk layout matches Sec. 4.2 of the paper: one folder per S/M/L group,
one sub-folder per PDB ID, each holding the predicted structure (PDB), the
quantum-prediction metadata (JSON) and the docking results (JSON).  An
``index.json`` at the root carries the flat per-entry metric records used by
the analysis layer, so a bank can be re-loaded without re-running the
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from repro.bio.pdb import read_pdb, write_pdb
from repro.dataset.entry import MethodEvaluation, QDockBankEntry
from repro.dataset.fragments import Fragment, PaperRow, fragment_by_pdb_id
from repro.exceptions import DatasetError
from repro.utils.io import ensure_dir, read_json, write_json


@dataclass
class QDockBank:
    """An ordered collection of :class:`QDockBankEntry` objects."""

    entries: list[QDockBankEntry] = field(default_factory=list)

    # -- container protocol --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[QDockBankEntry]:
        return iter(self.entries)

    def entry(self, pdb_id: str) -> QDockBankEntry:
        """Look up an entry by PDB ID."""
        key = pdb_id.lower()
        for e in self.entries:
            if e.pdb_id == key:
                return e
        raise DatasetError(f"no entry with PDB ID {pdb_id!r} in this bank")

    def group(self, group: str) -> list[QDockBankEntry]:
        """All entries of one S/M/L group."""
        return [e for e in self.entries if e.group == group.upper()]

    def methods(self) -> list[str]:
        """Prediction methods evaluated across the bank."""
        names: list[str] = []
        for e in self.entries:
            for m in e.evaluations:
                if m not in names:
                    names.append(m)
        return names

    # -- persistence -----------------------------------------------------------------

    def save(self, root: str | Path) -> Path:
        """Write the bank to disk in the published dataset layout."""
        root = ensure_dir(root)
        index = []
        for entry in self.entries:
            folder = ensure_dir(root / entry.group / entry.pdb_id)
            if entry.predicted_structure is not None:
                write_pdb(
                    entry.predicted_structure,
                    folder / "predicted.pdb",
                    remarks=[
                        f"QDockBank fragment {entry.pdb_id} residues {entry.fragment.residue_range}",
                        "Predicted on the emulated utility-level quantum pipeline",
                    ],
                )
            if entry.reference_structure is not None:
                write_pdb(entry.reference_structure, folder / "reference.pdb")
            for method, structure in entry.baseline_structures.items():
                write_pdb(structure, folder / f"baseline_{method.lower()}.pdb")
            # Key-sorted: metadata rebuilt from a cached or remote payload
            # arrives in the payload's sorted order, so the file must not
            # depend on where the fold ran.
            write_json(folder / "metadata.json", dict(sorted(entry.quantum_metadata.items())))
            write_json(
                folder / "docking.json",
                {m: ev.as_dict() for m, ev in entry.evaluations.items()},
            )
            index.append(entry.metrics_record())
        write_json(root / "index.json", index)
        return root

    @classmethod
    def load(cls, root: str | Path) -> "QDockBank":
        """Re-load a bank previously written with :meth:`save`.

        Structures are loaded when their PDB files are present; unknown PDB IDs
        (fragments not in the paper's tables) are rebuilt from the index record.
        """
        root = Path(root)
        index_path = root / "index.json"
        if not index_path.exists():
            raise DatasetError(f"{root} does not contain an index.json")
        index = read_json(index_path)
        bank = cls()
        for record in index:
            pdb_id = record["pdb_id"]
            try:
                fragment = fragment_by_pdb_id(pdb_id)
            except DatasetError:
                fragment = _fragment_from_record(record)
            folder = root / record["group"] / pdb_id
            metadata = read_json(folder / "metadata.json") if (folder / "metadata.json").exists() else {}
            evaluations = {}
            docking_path = folder / "docking.json"
            if docking_path.exists():
                raw = read_json(docking_path)
                evaluations = {m: MethodEvaluation.from_dict(d) for m, d in raw.items()}
            entry = QDockBankEntry(fragment=fragment, quantum_metadata=metadata, evaluations=evaluations)
            predicted = folder / "predicted.pdb"
            if predicted.exists():
                entry.predicted_structure = read_pdb(predicted)
            reference = folder / "reference.pdb"
            if reference.exists():
                entry.reference_structure = read_pdb(reference)
            bank.entries.append(entry)
        return bank


def _fragment_from_record(record: dict) -> Fragment:
    """Reconstruct a Fragment for entries outside the paper's 55 (custom runs)."""
    length = int(record["length"])
    start = int(record.get("residue_start", 1))
    return Fragment(
        pdb_id=record["pdb_id"],
        sequence=record["sequence"],
        residue_start=start,
        residue_end=start + length - 1,
        group=record["group"],
        functional_class=record.get("functional_class", "other"),
        paper=PaperRow(0, 0, 0.0, 0.0, 0.0, 0.0),
    )

"""The QDockBank dataset: the 55 fragments, the builder pipeline and the container."""

from repro.dataset.fragments import (
    Fragment,
    PAPER_FRAGMENTS,
    fragments_by_group,
    fragment_by_pdb_id,
    GROUPS,
)
from repro.dataset.entry import QDockBankEntry
from repro.dataset.bank import QDockBank
from repro.dataset.builder import DatasetBuilder
from repro.dataset.batch import BatchProcessor

__all__ = [
    "Fragment",
    "PAPER_FRAGMENTS",
    "fragments_by_group",
    "fragment_by_pdb_id",
    "GROUPS",
    "QDockBankEntry",
    "QDockBank",
    "DatasetBuilder",
    "BatchProcessor",
]

"""The dataset-build workloads and one timed ``DatasetBuilder.build`` call.

Every workload builds QDockBank entries through the public API
(:class:`~repro.dataset.builder.DatasetBuilder` over a
:class:`~repro.config.PipelineConfig`); the workload seed becomes
``PipelineConfig.seed``.  The slice workloads build the 9-fragment stratified
slice of the paper-claim benchmarks (3 fragments each of the L, M and S
groups, 54 engine jobs) with the fast preset, ``docking_seeds=4``,
``docking_mc_steps=150`` and session journalling on.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder

#: The stratified slice ``benchmarks/conftest.py`` builds, in build order.
SLICE_IDS = ("1yc4", "3d7z", "4aoi", "1e2l", "1gx8", "1m7y", "1e2k", "1hdq", "1ppi")

#: The M-group fragment built under the paper preset.
PAPER_FRAGMENT = ("1e2l", "AQITMGMPY")

#: Spawned ``repro-worker`` daemons of the file-queue fleet.
FLEET_WORKERS = 2


@dataclass(frozen=True)
class Workload:
    """One set of build inputs and the engine set-up it runs on.

    ``cache`` is ``"fresh"`` (an empty result cache per build), ``"warm"``
    (a cache filled by one cold build during set-up) or ``"none"``.
    """

    name: str
    why: str
    preset: str
    transport: str = "serial"
    cache: str = "fresh"
    journal: bool = True

    @property
    def expected_entries(self) -> int:
        return len(SLICE_IDS) if self.preset == "slice" else 1

    def fragments(self) -> list:
        if self.preset == "slice":
            fragments = DatasetBuilder.select_fragments(
                groups=["L", "M", "S"], limit_per_group=3
            )
            if tuple(f.pdb_id for f in fragments) != SLICE_IDS:
                raise RuntimeError(
                    f"slice changed: {[f.pdb_id for f in fragments]} != {list(SLICE_IDS)}"
                )
            return fragments
        fragments = DatasetBuilder.select_fragments(pdb_ids=[PAPER_FRAGMENT[0]])
        if [(f.pdb_id, f.sequence) for f in fragments] != [PAPER_FRAGMENT]:
            raise RuntimeError(f"paper fragment changed: {fragments}")
        return fragments

    def config(self, seed: int, work: Path) -> PipelineConfig:
        """The build configuration; fresh journal and spool dirs under ``work``."""
        if self.preset == "slice":
            config = PipelineConfig.fast().with_updates(docking_seeds=4, docking_mc_steps=150)
        else:
            config = PipelineConfig.paper()
        updates: dict[str, Any] = {"seed": int(seed), "transport": self.transport}
        if self.journal:
            updates["session_dir"] = str(work / "sessions")
        if self.transport == "filequeue":
            updates["spool_dir"] = str(work / "spool")
            updates["transport_workers"] = FLEET_WORKERS
        return config.with_updates(**updates)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "slice-cold",
            "9-fragment slice, serial, empty cache: lattice energies and VQE dominate",
            preset="slice",
        ),
        Workload(
            "slice-warm",
            "same slice against a cache filled in set-up: zero jobs run, reference derivation dominates",
            preset="slice",
            cache="warm",
        ),
        Workload(
            "paper-fragment",
            "one M-group fragment under the paper preset, no cache: docking dominates",
            preset="paper",
            cache="none",
            journal=False,
        ),
        Workload(
            "slice-filequeue",
            "slice-cold inputs on a 2-worker filequeue fleet: spool enqueue, claims, polling, harvest",
            preset="slice",
            transport="filequeue",
        ),
    )
}


@dataclass
class BuildRecord:
    """What one timed build produced.

    ``ca_rmsd`` and ``affinity`` are the QDock means over the entries, kept in
    the run record as the science summary (they are not metrics).
    """

    build_s: float
    cpu_s: float
    entries: int
    missing: int
    jobs: int
    failed_jobs: int
    executed_jobs: int
    digest: str
    ca_rmsd: float
    affinity: float
    engine_stats: dict[str, Any]
    evaluations: dict[str, dict[str, list[float]]]
    spool: dict[str, float] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        """Failed engine jobs plus fragments missing from the bank."""
        return self.failed_jobs + self.missing

    def science_sane(self) -> bool:
        """Every QDock prediction has a CA-RMSD in [0, 20) A and a negative affinity."""
        return all(
            0.0 <= methods["QDock"][0] < 20.0 and methods["QDock"][1] < 0.0
            for methods in self.evaluations.values()
        )


def make_builder(
    workload: Workload, seed: int, work: Path, cache_dir: Path | None, fill: bool = False
) -> DatasetBuilder:
    """A builder on fresh per-build directories under ``work``.

    ``fill`` builds the set-up run that fills ``slice-warm``'s cache: the same
    jobs on a local process pool of :data:`FLEET_WORKERS` (every transport is
    bit-identical, which the digest check confirms).
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload.cache == "fresh":
        cache_dir = work / "cache"
    config = workload.config(seed, work)
    if fill:
        config = config.with_updates(transport="pool")
    return DatasetBuilder(
        config=config,
        processes=FLEET_WORKERS if fill else 0,
        cache_dir=str(cache_dir) if cache_dir is not None else None,
    )


def evaluations(bank) -> dict[str, dict[str, list[float]]]:
    """Per entry and method: CA-RMSD, affinity and the pose-RMSD bounds."""
    return {
        entry.pdb_id: {
            method: [
                float(ev.ca_rmsd), float(ev.affinity),
                float(ev.docking_rmsd_lb), float(ev.docking_rmsd_ub),
            ]
            for method, ev in sorted(entry.evaluations.items())
        }
        for entry in bank
    }


def result_digest(values: dict[str, dict[str, list[float]]]) -> str:
    """SHA-256 over the exact bits of :func:`evaluations`."""
    rows = [
        "|".join([pdb_id, method, *(v.hex() for v in row)])
        for pdb_id, methods in values.items()
        for method, row in methods.items()
    ]
    return hashlib.sha256("\n".join(rows).encode("utf-8")).hexdigest()


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def spool_artefacts(spool: Path) -> dict[str, float]:
    """Per-job execution time and bytes from the spool's result records."""
    results = spool / "results"
    exec_s = 0.0
    size = 0
    count = 0
    for path in sorted(results.glob("*.json")):
        size += path.stat().st_size
        record = json.loads(path.read_text())
        exec_s += float(record.get("duration_s") or 0.0)
        count += 1
    return {"results": count, "exec_s": exec_s, "bytes": size}


def run_build(builder: DatasetBuilder, workload: Workload, work: Path) -> BuildRecord:
    """Time one ``builder.build`` call and record what it produced."""
    fragments = workload.fragments()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    bank = builder.build(fragments)
    build_s = time.perf_counter() - start
    cpu_s = _cpu_seconds() - cpu0
    stats = builder.engine.stats()
    qdock = [entry.evaluations["QDock"] for entry in bank]
    values = evaluations(bank)
    record = BuildRecord(
        build_s=build_s,
        cpu_s=cpu_s,
        entries=len(bank),
        missing=max(0, workload.expected_entries - len(bank)),
        jobs=stats["completed_jobs"] + stats["failed_jobs"],
        failed_jobs=stats["failed_jobs"],
        executed_jobs=stats["executed_jobs"],
        digest=result_digest(values),
        ca_rmsd=statistics.fmean(ev.ca_rmsd for ev in qdock) if qdock else float("nan"),
        affinity=statistics.fmean(ev.affinity for ev in qdock) if qdock else float("nan"),
        engine_stats=stats,
        evaluations=values,
    )
    if workload.transport == "filequeue":
        record.spool = spool_artefacts(work / "spool")
    return record

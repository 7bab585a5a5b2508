"""Per-layer metrics of a traced build, derived from the tracer's span records.

Each metric family maps to the raw span names it reads (``SPANS``).  When a
family names several spans that nest (``AutoBackend.sample_parameterised``
delegating to ``StatevectorBackend.sample_parameterised``), its ``calls`` and
``total_s`` are the outermost span's (the largest) and its ``self_s`` is the
sum of their self times.

The comment on each metric names the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

from typing import Any

#: Metric family -> raw span names (tracer naming: module path without the
#: ``repro.`` prefix, then the qualified name).
SPANS: dict[str, tuple[str, ...]] = {
    "lattice.breakdown": ("lattice.hamiltonian.LatticeHamiltonian.breakdown",),
    "lattice.decode_counts": ("lattice.decoder.ConformationDecoder.decode_counts",),
    "lattice.classical_solve": ("lattice.classical.ClassicalFoldingSolver.solve",),
    "bio.reference_generate": ("bio.reference.ReferenceStructureGenerator.generate",),
    "dataset.prepare_context": ("dataset.batch.prepare_context",),
    "vqe.run": ("vqe.vqe.VQE.run",),
    "vqe.objective": ("vqe.vqe.VQE._objective",),
    "vqe.cvar": ("vqe.expectation.DiagonalExpectation.cvar_from_samples",),
    "quantum.sample_parameterised": (
        "quantum.backend.AutoBackend.sample_parameterised",
        "quantum.backend.StatevectorBackend.sample_parameterised",
        "quantum.backend.Backend.sample_parameterised",
    ),
    "folding.baseline_fold": ("folding.baselines.baseline_fold_fragment",),
    "docking.dock_prepared": ("docking.vina.DockingEngine.dock_prepared",),
    "docking.search": ("docking.search.MonteCarloPoseSearch.search",),
    "docking.score_coords_batch": ("docking.scoring.VinaScoringFunction.score_coords_batch",),
    "docking.score_pose": ("docking.scoring.VinaScoringFunction.score_pose",),
    "engine.execute.fold": ("engine.execute.fold",),
    "engine.execute.baseline_fold": ("engine.execute.baseline_fold",),
    "engine.execute.dock": ("engine.execute.dock",),
    "engine.cache.get": ("engine.cache.local.LocalDirTier.get",),
    "engine.cache.put": ("engine.cache.local.LocalDirTier.put",),
    "engine.journal.record_job": ("engine.session.SessionJournal.record_job",),
    "engine.transport.submit": ("engine.transports.filequeue.FileQueueTransport.submit",),
    "engine.transport.poll": ("engine.transports.filequeue.FileQueueTransport.poll",),
}

#: Every per-layer metric: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    # build_s on slice-cold and slice-warm (batched lattice energies).
    ("lattice.breakdown.calls", "count", "lower"),
    ("lattice.breakdown.self_s", "s", "lower"),
    # slice-cold.
    ("lattice.decode_counts.total_s", "s", "lower"),
    # slice-warm first, then slice-cold (one derivation per reference).
    ("lattice.classical_solve.calls", "count", "lower"),
    ("lattice.classical_solve.total_s", "s", "lower"),
    ("bio.reference_generate.calls", "count", "lower"),
    ("bio.reference_unique_ratio", "ratio", "higher"),
    # slice-warm.
    ("dataset.prepare_context.total_s", "s", "lower"),
    # slice-cold (VQE stage 1 and 2).
    ("vqe.run.total_s", "s", "lower"),
    ("vqe.run.self_s", "s", "lower"),
    ("vqe.objective.calls", "count", "lower"),
    ("vqe.cvar.total_s", "s", "lower"),
    # No end-to-end move: driven to 0 with ca_rmsd_A unchanged.
    ("vqe.cobyla_warnings", "count", "lower"),
    # slice-cold.
    ("quantum.sample_parameterised.calls", "count", "lower"),
    ("quantum.sample_parameterised.self_s", "s", "lower"),
    ("folding.baseline_fold.total_s", "s", "lower"),
    # paper-fragment, less so slice-cold (docking walk and refinement).
    ("docking.dock_prepared.total_s", "s", "lower"),
    ("docking.search.calls", "count", "lower"),
    ("docking.search.self_s", "s", "lower"),
    ("docking.score_coords_batch.calls", "count", "lower"),
    ("docking.score_coords_batch.self_s", "s", "lower"),
    ("docking.poses_scored", "count", "lower"),
    ("docking.batch_width", "poses/call", "higher"),
    ("docking.score_pose.calls", "count", "lower"),
    ("docking.score_pose.total_s", "s", "lower"),
    # Every workload; 0 calls on slice-warm.
    ("engine.execute.fold.calls", "count", "lower"),
    ("engine.execute.fold.total_s", "s", "lower"),
    ("engine.execute.baseline_fold.calls", "count", "lower"),
    ("engine.execute.baseline_fold.total_s", "s", "lower"),
    ("engine.execute.dock.calls", "count", "lower"),
    ("engine.execute.dock.total_s", "s", "lower"),
    # slice-warm.
    ("engine.cache.get.calls", "count", "lower"),
    ("engine.cache.get.total_s", "s", "lower"),
    ("engine.cache.hit_ratio", "ratio", "higher"),
    # slice-cold.
    ("engine.cache.put.calls", "count", "lower"),
    ("engine.cache.put.total_s", "s", "lower"),
    # slice-cold and slice-warm.
    ("engine.journal.record_job.calls", "count", "lower"),
    ("engine.journal.record_job.total_s", "s", "lower"),
    # slice-filequeue (submitter side; workers are not wrapped).
    ("engine.transport.submit.calls", "count", "lower"),
    ("engine.transport.submit.total_s", "s", "lower"),
    ("engine.transport.poll.calls", "count", "lower"),
    ("engine.transport.poll.total_s", "s", "lower"),
    ("engine.transport.exec_s", "s", "lower"),
    ("engine.transport.idle_ms_per_job", "ms", "lower"),
    ("engine.transport.spool_bytes_per_job", "bytes", "lower"),
    # The trace itself.
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Counters:
    """Argument-derived counters, fed by tracer hooks during one traced build."""

    def __init__(self) -> None:
        self.references: set[tuple] = set()
        self.poses = 0

    def hooks(self) -> dict[str, Any]:
        return {
            "bio.reference.ReferenceStructureGenerator.generate": self._reference,
            "docking.scoring.VinaScoringFunction.score_coords_batch": self._poses,
        }

    def _reference(self, args: tuple, kwargs: dict) -> None:
        generator, *rest = args
        pdb_id = rest[0] if rest else kwargs["pdb_id"]
        sequence = rest[1] if len(rest) > 1 else kwargs["sequence"]
        self.references.add((pdb_id, str(sequence), generator.master_seed))

    def _poses(self, args: tuple, kwargs: dict) -> None:
        coords = args[1] if len(args) > 1 else kwargs["pose_coords"]
        self.poses += len(coords)


def _family(stats: dict[str, list[float]], names: tuple[str, ...]) -> tuple[int, float, float]:
    rows = [stats[name] for name in names if name in stats]
    if not rows:
        return 0, 0.0, 0.0
    return (
        int(max(row[0] for row in rows)),
        max(row[1] for row in rows),
        sum(row[2] for row in rows),
    )


def layer_metrics(
    stats: dict[str, list[float]],
    counters: Counters,
    *,
    build_s: float,
    top_level_s: float,
    cobyla_warnings: int,
    cache_stats: dict[str, Any] | None,
    spool: dict[str, float],
    fleet_workers: int,
) -> dict[str, float]:
    """Every per-layer metric except ``trace.overhead_frac`` for one traced build."""
    out: dict[str, float] = {}
    for family, names in SPANS.items():
        calls, total, self_s = _family(stats, names)
        out[f"{family}.calls"] = calls
        out[f"{family}.total_s"] = total
        out[f"{family}.self_s"] = self_s
    calls = out["bio.reference_generate.calls"]
    out["bio.reference_unique_ratio"] = len(counters.references) / calls if calls else 0.0
    out["vqe.cobyla_warnings"] = cobyla_warnings
    out["docking.poses_scored"] = counters.poses
    calls = out["docking.score_coords_batch.calls"]
    out["docking.batch_width"] = counters.poses / calls if calls else 0.0
    lookups = (cache_stats or {}).get("hits", 0) + (cache_stats or {}).get("misses", 0)
    out["engine.cache.hit_ratio"] = (cache_stats or {}).get("hits", 0) / lookups if lookups else 0.0
    jobs = spool.get("results", 0)
    exec_s = spool.get("exec_s", 0.0)
    out["engine.transport.exec_s"] = exec_s
    out["engine.transport.idle_ms_per_job"] = (
        (fleet_workers * build_s - exec_s) * 1000.0 / jobs if jobs else 0.0
    )
    out["engine.transport.spool_bytes_per_job"] = spool.get("bytes", 0) / jobs if jobs else 0.0
    out["trace.coverage"] = top_level_s / build_s
    return {name: out[name] for name, _, _ in PER_LAYER if name in out}

"""The fixed ``repro-bench`` benchmark suite.

Each benchmark is a module-level function taking ``(config, smoke)`` and
returning ``{metric_name: value}`` for **one** repeat; :func:`run_suite`
executes every benchmark :data:`REPEATS` times (:data:`SMOKE_REPEATS` in
smoke mode) and summarises each metric as median/p10/p90.  The suite covers
the engine's hot paths:

* ``vqe.objective_evals_per_sec.{compiled,rebuild}`` — one CVaR objective
  evaluation through the compiled replay plan vs per-iteration circuit
  rebuild (bind + simulate from scratch);
* ``quantum.statevector_gates_per_sec.{run,compiled}`` — raw gate throughput
  of the statevector simulator vs a compiled plan replay;
* ``docking.poses_scored_per_sec.{batch,scalar}`` — Vina scoring throughput,
  one ``score_coords_batch`` call vs a per-pose ``score_coords`` loop (the
  batch self-checks bit-identity against the scalar scores);
* ``docking.searches_per_sec`` — complete multi-seed Monte-Carlo dock
  searches (each seed is one full search over every pocket);
* ``transport.ms_per_job.{serial,pool,filequeue}`` — per-job wall overhead of
  a small baseline-fold batch on each executor transport (worker spawn and
  spool polling included: that *is* the overhead being measured);
* ``transport.ms_per_job.filequeue_cached`` and
  ``transport.spool_result_bytes_per_job.filequeue_cached`` — the same
  file-queue batch with a result cache attached, and the result bytes it
  sends through the spool (the shared-filesystem traffic) per job;
* ``cache.remote_roundtrip_ops_per_sec`` — ``RemoteTier`` lookups against an
  in-process ``repro-serve`` cache tier (one framed request/reply round trip
  per op).

Smoke mode shrinks repeat counts and workload sizes so the whole suite runs
in well under a minute; the derived speedup ratios stay meaningful because
the pose batch size and circuit shapes are unchanged.  Dataset-build wall
time is measured by ``perfbench`` (the 9-fragment slice, cold and warm), not
here.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time

import numpy as np

from repro.bench.trajectory import summarize
from repro.bio.geometry import random_rotation
from repro.bio.reference import ReferenceStructureGenerator
from repro.config import PipelineConfig
from repro.docking.ligand import SyntheticLigandGenerator
from repro.docking.pocket import find_pocket
from repro.docking.scoring import VinaScoringFunction
from repro.docking.vina import DockingEngine
from repro.exceptions import ReproError
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.ansatz import EfficientSU2
from repro.quantum.backend import StatevectorBackend
from repro.quantum.statevector import StatevectorSimulator
from repro.utils.rng import rng_for
from repro.vqe.expectation import DiagonalExpectation

#: Repeats per benchmark, and in smoke mode.
REPEATS = 5
SMOKE_REPEATS = 2

#: Poses scored per call by the docking-throughput benchmark.
POSE_BATCH = 128

#: Fragment used by the quantum/docking micro-benchmarks (smallest S-group).
_BENCH_PDB = "3eax"
_BENCH_SEQUENCE = "RYRDV"

#: Distinct baseline-fold jobs for the transport benchmark (pdb, sequence).
_TRANSPORT_FRAGMENTS = (
    ("3ckz", "VKDRS"),
    ("3eax", "RYRDV"),
    ("4mo4", "NIGGF"),
    ("1e2k", "DGPHGM"),
    ("1hdq", "SIHSYS"),
    ("2v25", "ATFTIT"),
)


def _bench_receptor_ligand():
    record = ReferenceStructureGenerator().generate(_BENCH_PDB, _BENCH_SEQUENCE)
    ligand = SyntheticLigandGenerator().generate(record).centered()
    return record, ligand


def _timed(fn, repetitions: int) -> float:
    """Wall seconds for ``repetitions`` calls of ``fn`` (at least one)."""
    repetitions = max(1, repetitions)
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    return time.perf_counter() - start


def bench_docking_scoring(config: PipelineConfig, smoke: bool) -> dict[str, float]:
    """Vina scoring throughput: one batched call vs a scalar per-pose loop."""
    record, ligand = _bench_receptor_ligand()
    scorer = VinaScoringFunction(record.structure, ligand)
    pocket = find_pocket(record.structure)
    rng = rng_for(config.seed, "bench-docking-scoring")
    coords = np.stack(
        [
            ligand.transformed(random_rotation(rng), pocket.center + rng.normal(scale=4.0, size=3))
            for _ in range(POSE_BATCH)
        ]
    )
    batch_loops = 2 if smoke else 5
    elapsed_batch = _timed(lambda: scorer.score_coords_batch(coords), batch_loops)
    batch_scores = scorer.score_coords_batch(coords)

    def scalar_pass():
        return [scorer.score_coords(pose) for pose in coords]

    elapsed_scalar = _timed(scalar_pass, 1)
    scalar_scores = np.array(scalar_pass())
    if not np.array_equal(batch_scores, scalar_scores):
        raise ReproError("batched docking scores diverged from the scalar path")
    return {
        "docking.poses_scored_per_sec.batch": POSE_BATCH * batch_loops / elapsed_batch,
        "docking.poses_scored_per_sec.scalar": POSE_BATCH / elapsed_scalar,
    }


def bench_docking_search(config: PipelineConfig, smoke: bool) -> dict[str, float]:
    """Complete multi-seed dock searches per second (batched walkers)."""
    record, ligand = _bench_receptor_ligand()
    seeds = 2 if smoke else max(2, min(4, config.docking_seeds))
    steps = 60 if smoke else max(60, min(150, config.docking_mc_steps))
    engine = DockingEngine(
        num_seeds=seeds,
        num_poses=min(5, config.docking_poses),
        mc_steps=steps,
        master_seed=config.seed,
    )
    elapsed = _timed(
        lambda: engine.dock(record.structure, ligand, receptor_id=f"{_BENCH_PDB}:BENCH"), 1
    )
    return {"docking.searches_per_sec": seeds / elapsed}


def bench_vqe_objective(config: PipelineConfig, smoke: bool) -> dict[str, float]:
    """CVaR objective evaluations per second: compiled plan vs circuit rebuild."""
    hamiltonian = LatticeHamiltonian(_BENCH_SEQUENCE)
    width = hamiltonian.encoding.configuration_qubits
    ansatz = EfficientSU2(width, reps=config.ansatz_reps)
    backend = StatevectorBackend()
    expectation = DiagonalExpectation(hamiltonian)
    shots = 128 if smoke else max(128, min(512, config.optimisation_shots))
    evals = 20 if smoke else 80
    rng_params = rng_for(config.seed, "bench-vqe-params")
    points = [rng_params.normal(scale=0.4, size=ansatz.num_parameters) for _ in range(evals)]

    def eval_compiled(values, rng):
        samples = backend.sample_parameterised(ansatz.circuit, values, shots, rng)
        return expectation.cvar_from_samples(samples, alpha=config.cvar_alpha)

    def eval_rebuild(values, rng):
        samples = backend.sample_array(ansatz.bound(values), shots, rng)
        return expectation.cvar_from_samples(samples, alpha=config.cvar_alpha)

    # Same parameter points and RNG streams through both paths; spot-check
    # that the compiled objective is bit-identical before timing it.
    check = points[0]
    if eval_compiled(check, rng_for(config.seed, "bench-vqe-check")) != eval_rebuild(
        check, rng_for(config.seed, "bench-vqe-check")
    ):
        raise ReproError("compiled VQE objective diverged from the rebuild path")

    rng_a = rng_for(config.seed, "bench-vqe-sample")
    start = time.perf_counter()
    for values in points:
        eval_compiled(values, rng_a)
    elapsed_compiled = time.perf_counter() - start
    rng_b = rng_for(config.seed, "bench-vqe-sample")
    start = time.perf_counter()
    for values in points:
        eval_rebuild(values, rng_b)
    elapsed_rebuild = time.perf_counter() - start
    return {
        "vqe.objective_evals_per_sec.compiled": evals / elapsed_compiled,
        "vqe.objective_evals_per_sec.rebuild": evals / elapsed_rebuild,
    }


def bench_statevector(config: PipelineConfig, smoke: bool) -> dict[str, float]:
    """Raw statevector gate throughput: simulator runs vs compiled replay."""
    ansatz = EfficientSU2(10, reps=2)
    simulator = StatevectorSimulator()
    rng = rng_for(config.seed, "bench-statevector")
    values = rng.normal(scale=0.4, size=ansatz.num_parameters)
    bound = ansatz.bound(values)
    plan = simulator.compile(ansatz.circuit)
    gates = len(bound)
    runs = 10 if smoke else 50
    elapsed_run = _timed(lambda: simulator.run(bound), runs)
    elapsed_plan = _timed(lambda: plan.statevector(values), runs)
    return {
        "quantum.statevector_gates_per_sec.run": gates * runs / elapsed_run,
        "quantum.statevector_gates_per_sec.compiled": gates * runs / elapsed_plan,
    }


def _batch_bench_config(config: PipelineConfig, smoke: bool) -> PipelineConfig:
    iterations = 6 if smoke else 12
    return config.with_updates(
        vqe_iterations=iterations,
        optimisation_shots=48 if smoke else 96,
        final_shots=128 if smoke else 256,
        docking_seeds=2,
        docking_mc_steps=40 if smoke else 80,
        docking_poses=3,
        cache_dir=None,
        session_dir=None,
        transport="serial",
    )


def bench_transport_overhead(config: PipelineConfig, smoke: bool) -> dict[str, float]:
    """Per-job wall overhead (ms) of one baseline-fold batch per transport."""
    from repro.engine.core import Engine

    jobs = _TRANSPORT_FRAGMENTS[: 3 if smoke else len(_TRANSPORT_FRAGMENTS)]
    base = _batch_bench_config(config, smoke)
    results: dict[str, float] = {}

    def run_batch(engine: Engine) -> float:
        specs = [
            engine.baseline_spec(pdb_id, sequence, "AF2")
            for pdb_id, sequence in jobs
        ]
        return _timed(lambda: engine.run(specs), 1)

    serial = Engine(config=base.with_updates(transport="serial"), cache=None, processes=0)
    results["transport.ms_per_job.serial"] = run_batch(serial) * 1000.0 / len(jobs)

    pool = Engine(config=base.with_updates(transport="pool"), cache=None, processes=2)
    results["transport.ms_per_job.pool"] = run_batch(pool) * 1000.0 / len(jobs)

    spool = tempfile.mkdtemp(prefix="repro-bench-spool-")
    try:
        with Engine(
            config=base.with_updates(
                transport="filequeue",
                spool_dir=spool,
                transport_workers=2,
                transport_poll_interval=0.02,
            ),
            cache=None,
            processes=2,
        ) as filequeue:
            results["transport.ms_per_job.filequeue"] = run_batch(filequeue) * 1000.0 / len(jobs)
    finally:
        shutil.rmtree(spool, ignore_errors=True)

    # The same file-queue batch with a result cache attached.  Fresh spool +
    # cache directories keep the run cold (the cache write path is part of
    # what is being measured).
    spool = tempfile.mkdtemp(prefix="repro-bench-spool-")
    cache_dir = tempfile.mkdtemp(prefix="repro-bench-tier-")
    try:
        with Engine(
            config=base.with_updates(
                transport="filequeue",
                spool_dir=spool,
                transport_workers=2,
                transport_poll_interval=0.02,
                cache_dir=cache_dir,
            ),
            processes=2,
        ) as engine:
            results["transport.ms_per_job.filequeue_cached"] = run_batch(engine) * 1000.0 / len(jobs)
        # The bytes that crossed the spool per completion: the shared
        # filesystem traffic.  Result files stay on disk after harvest, so
        # sum them directly.
        spool_bytes = sum(
            entry.stat().st_size
            for entry in os.scandir(os.path.join(spool, "results"))
            if entry.name.endswith(".json")
        )
        results["transport.spool_result_bytes_per_job.filequeue_cached"] = spool_bytes / len(jobs)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        shutil.rmtree(cache_dir, ignore_errors=True)
    return results


def bench_cache_remote(config: PipelineConfig, smoke: bool) -> dict[str, float]:
    """``RemoteTier`` lookup round trips per second against a live server tier."""
    from repro.engine.cache import LocalDirTier, RemoteTier
    from repro.serve.server import ReproServer

    ops = 40 if smoke else 200
    keys = 8
    root = tempfile.mkdtemp(prefix="repro-bench-remote-")
    try:
        local = LocalDirTier(root)
        payloads = {}
        for i in range(keys):
            key = hashlib.sha256(f"bench-remote-{i}".encode("utf-8")).hexdigest()
            payloads[key] = {"spec_hash": key, "schema": "bench/v1", "pad": "x" * 512}
            local.put(key, payloads[key])
        with ReproServer(workers=0, cache=local) as server:
            tier = RemoteTier("127.0.0.1", server.port, timeout=10.0)
            try:
                key_list = list(payloads)
                first = tier.get(key_list[0])  # connect + handshake outside the clock
                if first != payloads[key_list[0]]:
                    raise ReproError("remote tier returned a wrong or missing payload")
                start = time.perf_counter()
                for i in range(ops):
                    if tier.get(key_list[i % keys]) is None:
                        raise ReproError("remote tier missed a warmed key")
                elapsed = time.perf_counter() - start
            finally:
                tier.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {"cache.remote_roundtrip_ops_per_sec": ops / elapsed}


#: Metric name -> unit, for every metric the suite can emit.
METRIC_UNITS: dict[str, str] = {
    "vqe.objective_evals_per_sec.compiled": "evals/s",
    "vqe.objective_evals_per_sec.rebuild": "evals/s",
    "quantum.statevector_gates_per_sec.run": "gates/s",
    "quantum.statevector_gates_per_sec.compiled": "gates/s",
    "docking.poses_scored_per_sec.batch": "poses/s",
    "docking.poses_scored_per_sec.scalar": "poses/s",
    "docking.searches_per_sec": "searches/s",
    "transport.ms_per_job.serial": "ms",
    "transport.ms_per_job.pool": "ms",
    "transport.ms_per_job.filequeue": "ms",
    "transport.ms_per_job.filequeue_cached": "ms",
    "transport.spool_result_bytes_per_job.filequeue_cached": "bytes",
    "cache.remote_roundtrip_ops_per_sec": "ops/s",
}

#: The fixed suite, in execution order (cheap micro-benchmarks first).
BENCHMARKS: tuple[tuple[str, object], ...] = (
    ("docking-scoring", bench_docking_scoring),
    ("statevector", bench_statevector),
    ("vqe-objective", bench_vqe_objective),
    ("docking-search", bench_docking_search),
    ("cache-remote", bench_cache_remote),
    ("transport-overhead", bench_transport_overhead),
)


def derived_metrics(results: dict[str, dict]) -> dict[str, float]:
    """Machine-portable speedup ratios derived from the metric medians."""
    derived: dict[str, float] = {}

    def ratio(name: str, numerator: str, denominator: str) -> None:
        num = results.get(numerator, {}).get("median")
        den = results.get(denominator, {}).get("median")
        if num and den:
            derived[name] = num / den

    ratio(
        "docking.batch_speedup",
        "docking.poses_scored_per_sec.batch",
        "docking.poses_scored_per_sec.scalar",
    )
    ratio(
        "vqe.compiled_speedup",
        "vqe.objective_evals_per_sec.compiled",
        "vqe.objective_evals_per_sec.rebuild",
    )
    ratio(
        "quantum.compiled_gate_speedup",
        "quantum.statevector_gates_per_sec.compiled",
        "quantum.statevector_gates_per_sec.run",
    )
    return derived


def run_suite(
    config: PipelineConfig | None = None,
    smoke: bool = False,
    repeats: int | None = None,
    only: str | None = None,
    progress=None,
) -> tuple[dict[str, dict], dict[str, float]]:
    """Run the suite and return ``(benchmark_results, derived_metrics)``.

    ``benchmark_results`` maps metric name to ``{unit, repeats, values,
    median, p10, p90}``.  ``repeats`` defaults to :data:`REPEATS`
    (:data:`SMOKE_REPEATS` in smoke mode).  ``only`` filters benchmarks by
    substring of their suite name; ``progress`` (when given) receives one
    line per benchmark.
    """
    config = config or PipelineConfig()
    if repeats is None:
        repeats = SMOKE_REPEATS if smoke else REPEATS
    repeats = max(1, int(repeats))
    selected = [
        (name, fn) for name, fn in BENCHMARKS if only is None or only in name
    ]
    if not selected:
        raise ReproError(f"no benchmark matches {only!r}")
    collected: dict[str, list[float]] = {}
    for name, fn in selected:
        start = time.perf_counter()
        for _ in range(repeats):
            for metric, value in fn(config, smoke).items():
                collected.setdefault(metric, []).append(float(value))
        if progress is not None:
            progress(f"{name}: {repeats} repeats in {time.perf_counter() - start:.1f}s")
    results = {
        metric: {
            "unit": METRIC_UNITS.get(metric, ""),
            "repeats": len(values),
            "values": values,
            **summarize(values),
        }
        for metric, values in collected.items()
    }
    return results, derived_metrics(results)

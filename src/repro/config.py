"""Global configuration defaults for the QDockBank reproduction pipeline.

The paper's production runs use 200+ COBYLA iterations and 100,000 final
measurement shots per fragment on a 127-qubit device.  Those settings are far
too expensive for CI-scale runs, so :class:`PipelineConfig` captures every
knob in one place with two presets:

* :func:`PipelineConfig.paper` — the settings reported in the paper
  (Sections 4–5); use these when regenerating the dataset at full fidelity.
* :func:`PipelineConfig.fast` — a scaled-down preset used by the test suite
  and benchmarks; the *shape* of every result is preserved while keeping a
  full 55-fragment sweep to a few minutes of CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any


@dataclass(frozen=True)
class PipelineConfig:
    """All tunables of the fold → reconstruct → dock pipeline.

    Attributes
    ----------
    vqe_iterations:
        Maximum number of classical optimiser iterations (paper: >200).
    optimisation_shots:
        Shots per expectation-value estimate during stage 1.
    final_shots:
        Shots for the stage-2 fixed-parameter sampling (paper: 100,000).
    ansatz_reps:
        Number of EfficientSU2 repetition blocks.
    max_statevector_qubits:
        Above this size the ``auto`` backend samples with the MPS simulator
        instead of the exact statevector simulator.
    mps_bond_dimension:
        Bond-dimension cap of the MPS backend.
    docking_seeds:
        Independent docking runs per structure (paper: 20).
    docking_poses:
        Poses returned per run (paper: top 10).
    docking_mc_steps:
        Monte-Carlo steps per docking run.
    seed:
        Master seed; every task derives its own deterministic child seed.
    backend:
        Name of the simulator backend: ``"statevector"``, ``"mps"`` or
        ``"auto"`` (see :func:`repro.engine.registry.make_backend`).
    cache_dir:
        Directory of the engine's persistent result cache; ``None`` disables
        caching.
    cache_remote:
        One shared ``repro-serve`` cache endpoint (``"HOST:PORT"``), appended
        as the outermost tier behind ``cache_dir`` (or behind an explicit
        ``Engine(cache=DIR)``): local-first reads, promote-on-remote-hit,
        write-through.  Cache topology never changes results, so like every
        cache knob this never enters any job hash.
    session_dir:
        Directory for the engine's streaming-session journals (one JSONL
        status file plus a spec pickle per session, next to the result
        cache).  ``None`` (the default) disables journalling; sessions then
        stream in memory only and cannot be resumed from another process.
    transport:
        Executor transport jobs run on: ``"serial"`` (in-process),
        ``"pool"`` (local process pool), ``"filequeue"`` (a fleet of
        ``repro-worker`` daemons over a shared spool directory),
        ``"network"`` (a running ``repro-serve`` daemon reached over a
        socket), or ``"auto"`` (the default: serial for ``processes <= 1``,
        pool otherwise).  Results are bit-identical on every transport; like
        all transport knobs below, this never enters any job hash.
    spool_dir:
        Shared spool directory of the ``filequeue`` transport (required when
        it is selected; created if absent).
    transport_workers:
        How many local workers the ``filequeue`` transport keeps running:
        the fleet boots at an engine's first batch, serves every batch of
        that engine, and members that exit while work remains are respawned.
        Each member is forked from the submitting process (POSIX only), so
        it inherits the imported modules and executor registry, needs no
        ``--preload``, and exits with its parent.  ``None`` (the default)
        falls back to the engine's ``processes`` value; ``0`` spawns none and
        relies on externally launched ``repro-worker`` daemons watching the
        spool.
    transport_lease_timeout:
        Seconds before an untouched task claim counts as abandoned by a dead
        worker and is requeued (stale-lease reclamation).
    transport_poll_interval:
        Seconds between the submitting transport's spool scans.
    serve_host / serve_port:
        Address of the ``repro-serve`` daemon the ``network`` transport
        submits to (start one with ``repro-serve``).  The client keeps as
        many jobs in flight as the server's ``welcome`` advertises.
    """

    vqe_iterations: int = 60
    optimisation_shots: int = 256
    final_shots: int = 2048
    ansatz_reps: int = 1
    max_statevector_qubits: int = 16
    mps_bond_dimension: int = 8
    docking_seeds: int = 20
    docking_poses: int = 10
    docking_mc_steps: int = 120
    seed: int = 2025
    backend: str = "auto"
    cache_dir: str | None = None
    cache_remote: str | None = None
    session_dir: str | None = None
    transport: str = "auto"
    spool_dir: str | None = None
    transport_workers: int | None = None
    transport_lease_timeout: float = 30.0
    transport_poll_interval: float = 0.05
    serve_host: str = "127.0.0.1"
    serve_port: int = 7377
    #: CVaR fraction used by the stage-1 objective (1.0 = plain expectation).
    cvar_alpha: float = 0.2
    #: Cap applied to the width-scaled stage-2 shot count.
    max_final_shots: int = 100_000

    @classmethod
    def paper(cls) -> "PipelineConfig":
        """Settings matching the paper's production runs."""
        return cls(
            vqe_iterations=220,
            optimisation_shots=4096,
            final_shots=100_000,
            ansatz_reps=1,
            docking_seeds=20,
            docking_poses=10,
            docking_mc_steps=2000,
        )

    @classmethod
    def fast(cls) -> "PipelineConfig":
        """Scaled-down settings for tests and benchmarks."""
        return cls(
            vqe_iterations=30,
            optimisation_shots=192,
            final_shots=1024,
            ansatz_reps=1,
            docking_seeds=4,
            docking_poses=5,
            docking_mc_steps=120,
        )

    def with_updates(self, **kwargs: Any) -> "PipelineConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


DEFAULT_CONFIG = PipelineConfig()

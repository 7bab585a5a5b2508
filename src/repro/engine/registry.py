"""Backend and executor registries: execution strategy resolved by name.

Call sites used to hand-wire simulator objects (``AutoBackend(...)``,
``EagleEmulatorBackend(...)``) wherever a circuit needed sampling.  The
backend registry replaces that with a single factory,
``make_backend(name, config)``, so the backend is a *configuration choice*
(``PipelineConfig.backend``) rather than code: the same pipeline runs on the
exact statevector simulator, the MPS engine, the width-dispatching auto
backend or the noisy Eagle emulator by changing one string.

The *executor registry* is the same idea one level up: every job kind
(``fold``, ``baseline_fold``, ``dock`` — see :mod:`repro.engine.jobs`) maps to
the module-level function that executes one spec of that kind.
:func:`repro.engine.core.execute_job` dispatches through it, which is what
lets one :class:`~repro.engine.core.Engine` run a heterogeneous batch.

Third-party backends and executors can be added at runtime with
:func:`register_backend` / :func:`register_executor`; backend builders receive
the :class:`~repro.config.PipelineConfig` and pull whatever knobs they need
from it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from typing import Any, Callable

from repro.config import PipelineConfig
from repro.exceptions import BackendError, EngineError
from repro.quantum.backend import AutoBackend, Backend, MPSBackend, StatevectorBackend
from repro.utils.logging import get_logger

logger = get_logger(__name__)

BackendBuilder = Callable[[PipelineConfig], Backend]

#: A job executor: one spec of the registered kind in, its result out.
JobExecutor = Callable[[Any], Any]

_REGISTRY: dict[str, BackendBuilder] = {}

_EXECUTORS: dict[str, JobExecutor] = {}


def register_executor(kind: str, executor: JobExecutor, overwrite: bool = False) -> None:
    """Register the executor function for one job ``kind``.

    Raises :class:`EngineError` if the kind is already taken, unless
    ``overwrite`` is set.  Like backend builders, executors must be picklable
    module-level functions for parallel runs to ship them to workers.
    """
    key = kind.strip().lower()
    if not key:
        raise EngineError("job kind must be a non-empty string")
    if key in _EXECUTORS and not overwrite:
        raise EngineError(f"executor for job kind {key!r} is already registered")
    _EXECUTORS[key] = executor


def executor_kinds() -> tuple[str, ...]:
    """The job kinds currently registered, sorted alphabetically."""
    return tuple(sorted(_EXECUTORS))


def executor_for(kind: str) -> JobExecutor:
    """The executor registered for ``kind`` (raising a clear error when absent).

    Normalised the same way :func:`register_executor` stores kinds, so a
    mixed-case kind resolves to its registration.
    """
    executor = _EXECUTORS.get(kind.strip().lower())
    if executor is None:
        raise EngineError(
            f"no executor registered for job kind {kind!r}; "
            f"registered kinds: {', '.join(executor_kinds())}"
        )
    return executor


def register_backend(name: str, builder: BackendBuilder, overwrite: bool = False) -> None:
    """Register ``builder`` under ``name`` (lower-cased).

    Raises :class:`BackendError` if the name is already taken, unless
    ``overwrite`` is set (useful for tests that stub a backend out).

    The engine replicates the registry into its worker processes (spawn-based
    start methods do not inherit parent module state), so builders must be
    picklable — define them at module level, not as lambdas or closures — for
    parallel runs to see them.
    """
    key = name.strip().lower()
    if not key:
        raise BackendError("backend name must be a non-empty string")
    if key in _REGISTRY and not overwrite:
        raise BackendError(f"backend {key!r} is already registered")
    _REGISTRY[key] = builder


def backend_names() -> tuple[str, ...]:
    """The names currently registered, sorted alphabetically."""
    return tuple(sorted(_REGISTRY))


#: Registry entries already warned about as unpicklable — one warning per
#: ``(registry, name)`` for the process lifetime, not one per fan-out.
_PICKLE_WARNED: set[tuple[str, str]] = set()


def _picklable(mapping: dict, what: str) -> dict:
    """The registry entries that can ship to worker processes.

    Unpicklable entries (lambdas, closures) are dropped with a warning rather
    than failing the whole fan-out: they only matter if a job actually selects
    them, in which case the worker raises a clear lookup error.  The warning
    fires once per entry name, not on every fan-out.
    """
    out = {}
    for name, value in mapping.items():
        try:
            pickle.dumps(value)
        except Exception:
            if (what, name) not in _PICKLE_WARNED:
                _PICKLE_WARNED.add((what, name))
                logger.warning(
                    "%s %r is unpicklable; it will be unavailable in engine worker processes",
                    what, name,
                )
            continue
        out[name] = value
    return out


def _restore_registries(
    backends: dict[str, BackendBuilder], executors: dict[str, JobExecutor]
) -> None:
    """Merge both registries into this process (the worker-process initializer).

    The worker also exits when its parent dies: a SIGKILLed parent runs no
    pool shutdown, and its workers would otherwise idle on, orphaned.
    """
    _REGISTRY.update(backends)
    _EXECUTORS.update(executors)
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent,), name="parent-watch", daemon=True
        ).start()


def _exit_with(parent: Any) -> None:
    parent.join()  # returns once the parent's end of the sentinel pipe closes
    os._exit(1)


def pool_initializer() -> dict[str, Any]:
    """``ProcessPoolExecutor`` keyword arguments that replicate both registries.

    Spawn-based start methods do not inherit parent module state, so every
    pool worker merges a picklable snapshot of this process's backend and
    executor registries before running its first job.
    """
    return {
        "initializer": _restore_registries,
        "initargs": (_picklable(_REGISTRY, "backend"), _picklable(_EXECUTORS, "executor")),
    }


def make_backend(name: str | None = None, config: PipelineConfig | None = None) -> Backend:
    """Build the backend registered under ``name``, configured from ``config``.

    ``name`` of ``None`` uses ``config.backend`` (the pipeline's configured
    default); ``config`` of ``None`` uses the default :class:`PipelineConfig`.
    """
    config = config or PipelineConfig()
    key = (name or config.backend).strip().lower()
    builder = _REGISTRY.get(key)
    if builder is None:
        raise BackendError(
            f"unknown backend {key!r}; registered backends: {', '.join(backend_names())}"
        )
    return builder(config)


def _build_statevector(config: PipelineConfig) -> Backend:
    # An explicit statevector choice should not be capped below the simulator's
    # own default limit just because the auto-dispatch threshold is small.
    return StatevectorBackend(max_qubits=max(24, config.max_statevector_qubits))


def _build_mps(config: PipelineConfig) -> Backend:
    return MPSBackend(max_bond_dimension=config.mps_bond_dimension)


def _build_auto(config: PipelineConfig) -> Backend:
    return AutoBackend(
        max_statevector_qubits=config.max_statevector_qubits,
        max_bond_dimension=config.mps_bond_dimension,
    )


def _build_eagle(config: PipelineConfig) -> Backend:
    # Imported lazily: the hardware layer pulls in the full topology /
    # transpiler stack, which most simulator-only runs never need.
    from repro.hardware.eagle import EagleEmulatorBackend

    return EagleEmulatorBackend(
        ancilla_margin=config.ancilla_margin,
        max_bond_dimension=config.mps_bond_dimension,
        noise_enabled=config.noise_enabled,
    )


register_backend("statevector", _build_statevector)
register_backend("mps", _build_mps)
register_backend("auto", _build_auto)
register_backend("eagle", _build_eagle)

"""Backends by name, executors by job kind.

``make_backend(name, config)`` builds every simulator backend from one fixed
table, so the backend is a *configuration choice* (``PipelineConfig.backend``)
rather than code: the same pipeline runs on the exact statevector simulator,
the MPS engine or the width-dispatching auto backend by changing one string.

The *executor registry* maps every job kind (``fold``, ``baseline_fold``,
``dock`` — see :mod:`repro.engine.jobs`) to the module-level function that
executes one spec of that kind.  :func:`repro.engine.core.execute_job`
dispatches through it, which is what lets one
:class:`~repro.engine.core.Engine` run a heterogeneous batch.  Plugin job
kinds are added at runtime with :func:`register_executor` (``repro-worker``
and ``repro-serve`` import them with ``--preload``).
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

#: A job executor: one spec of the registered kind in, its result out.
JobExecutor = Callable[[Any], Any]

_EXECUTORS: dict[str, JobExecutor] = {}


def register_executor(kind: str, executor: JobExecutor, overwrite: bool = False) -> None:
    """Register the executor function for one job ``kind``.

    Raises :class:`EngineError` if the kind is already taken, unless
    ``overwrite`` is set.  Executors must be picklable module-level
    functions for parallel runs to ship them to workers.
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


#: Job kinds already warned about as unpicklable — one warning per kind for
#: the process lifetime, not one per fan-out.
_PICKLE_WARNED: set[str] = set()


def _picklable(executors: dict[str, JobExecutor]) -> dict[str, JobExecutor]:
    """The executors that can ship to worker processes.

    Unpicklable executors (lambdas, closures) are dropped with a warning
    rather than failing the whole fan-out: they only matter if a job of their
    kind is submitted, in which case the worker raises a clear lookup error.
    The warning fires once per kind, not on every fan-out.
    """
    out = {}
    for kind, executor in executors.items():
        try:
            pickle.dumps(executor)
        except Exception:
            if kind not in _PICKLE_WARNED:
                _PICKLE_WARNED.add(kind)
                logger.warning(
                    "executor %r is unpicklable; it will be unavailable in engine worker processes",
                    kind,
                )
            continue
        out[kind] = executor
    return out


def _restore_executors(executors: dict[str, JobExecutor]) -> None:
    """Merge the executor registry into this process (the worker initializer),
    then :func:`watch_parent`."""
    _EXECUTORS.update(executors)
    watch_parent()


def watch_parent() -> None:
    """End this multiprocessing child when its parent dies: a SIGKILLed
    parent runs no shutdown, and its workers would otherwise idle on,
    orphaned."""
    parent = multiprocessing.parent_process()
    if parent is not None:
        threading.Thread(
            target=_exit_with, args=(parent,), name="parent-watch", daemon=True
        ).start()


def _exit_with(parent: Any) -> None:
    parent.join()  # returns once the parent's end of the sentinel pipe closes
    os._exit(1)


def pool_initializer() -> dict[str, Any]:
    """``ProcessPoolExecutor`` keyword arguments that replicate the executors.

    Spawn-based start methods do not inherit parent module state, so every
    pool worker merges a picklable snapshot of this process's executor
    registry before running its first job.  Backends need no snapshot: every
    process builds them from the same fixed table.
    """
    return {"initializer": _restore_executors, "initargs": (_picklable(_EXECUTORS),)}


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


_BACKENDS: dict[str, Callable[[PipelineConfig], Backend]] = {
    "statevector": _build_statevector,
    "mps": _build_mps,
    "auto": _build_auto,
}


def make_backend(name: str | None = None, config: PipelineConfig | None = None) -> Backend:
    """Build the backend called ``name``, configured from ``config``.

    ``name`` of ``None`` uses ``config.backend`` (the pipeline's configured
    default); ``config`` of ``None`` uses the default :class:`PipelineConfig`.
    """
    config = config or PipelineConfig()
    key = (name or config.backend).strip().lower()
    builder = _BACKENDS.get(key)
    if builder is None:
        raise BackendError(f"unknown backend {key!r}; backends: {', '.join(sorted(_BACKENDS))}")
    return builder(config)

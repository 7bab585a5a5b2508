"""Local transports: in-process serial execution and the process pool.

``SerialTransport`` runs each job in the calling process — the reference
execution every other transport must reproduce bit-identically, and the one
unit tests default to.  ``PoolTransport`` fans the batch out over a
:class:`concurrent.futures.ProcessPoolExecutor` (one future per spec, no
chunking, completions in completion order), replicating the parent's
executor registry into every worker — spawn-based start methods do not
inherit parent module state, and unpicklable executors are dropped with a
one-time warning rather than failing the fan-out.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, as_completed
from typing import Any, ClassVar, Generator

from repro.engine.registry import pool_initializer
from repro.engine.transports.base import Completion, Transport


def _execute(spec: Any) -> Any:
    # Late import: transports are imported by repro.engine.core at module
    # load, so the executor dispatch must resolve lazily.
    from repro.engine.core import execute_job

    return execute_job(spec)


class SerialTransport(Transport):
    """Execute jobs one at a time in the calling process (submission order)."""

    name: ClassVar[str] = "serial"

    def run(self, specs: list[Any]) -> Generator[Completion, None, None]:
        """Each completion has either a result or an exception set: an
        exception never stops the batch, isolation is the session's policy."""
        for i, spec in enumerate(specs):
            try:
                result = _execute(spec)
            except Exception as exc:
                yield i, None, exc
            else:
                yield i, result, None


class PoolTransport(Transport):
    """Fan each batch out over a process pool; completions in completion order.

    The pool lives for one batch, so an executor registered between batches
    reaches the next batch's workers.
    """

    name: ClassVar[str] = "pool"

    def __init__(self, processes: int):
        self.processes = max(1, int(processes))

    def run(self, specs: list[Any]) -> Generator[Completion, None, None]:
        if len(specs) <= 1:
            # A single-job batch (e.g. a resume with one never-completed job)
            # gains nothing from a pool: run it in-process, where even
            # unpicklable runtime registrations stay visible.
            yield from SerialTransport().run(specs)
            return
        pool = ProcessPoolExecutor(max_workers=self.processes, **pool_initializer())
        try:
            futures = {pool.submit(_execute, spec): index for index, spec in enumerate(specs)}
            for future in as_completed(futures):
                exc = future.exception()
                yield futures[future], None if exc is not None else future.result(), exc
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

"""Local transports: in-process serial execution and the process pool.

``SerialTransport`` runs each job in the calling process — the reference
execution every other transport must reproduce bit-identically, and the one
unit tests default to.  ``PoolTransport`` fans the batch out over a
:class:`concurrent.futures.ProcessPoolExecutor` (one future per spec, no
chunking, completions in completion order), replicating the parent's
backend/executor registries into every worker the way the PR 3 session loop
did — spawn-based start methods do not inherit parent module state, and
unpicklable registry entries are dropped with a one-time warning rather than
failing the fan-out.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Any, ClassVar, Iterator, Sequence

from repro.engine.registry import pool_initializer
from repro.engine.transports.base import Completion, Transport, register_transport


def _execute(spec: Any) -> Any:
    # Late import: transports are imported by repro.engine.core at module
    # load, so the executor dispatch must resolve lazily.
    from repro.engine.core import execute_job

    return execute_job(spec)


def _serial_stream(specs: list[Any]) -> Iterator[Completion]:
    """Execute ``specs`` in order, yielding one completion per spec.

    Each completion has either a result or an exception set: an exception
    never stops the stream, isolation is the session's policy.
    """
    for i, spec in enumerate(specs):
        try:
            result = _execute(spec)
        except Exception as exc:
            yield i, None, exc
        else:
            yield i, result, None


class SerialTransport(Transport):
    """Execute jobs one at a time in the calling process (submission order)."""

    name: ClassVar[str] = "serial"

    def __init__(self) -> None:
        self._stream: Any = None
        self._remaining = 0

    def submit(self, specs: Sequence[Any]) -> int:
        self._start_batch()
        specs = list(specs)
        self._remaining = len(specs)
        self._stream = _serial_stream(specs)
        return self._remaining

    def poll(self, timeout: float | None = None) -> list[Completion]:
        """Execute the next queued job and return its completion."""
        if self._remaining <= 0:
            return []
        try:
            completion = next(self._stream)
        except StopIteration:
            self._remaining = 0
            return []
        self._remaining -= 1
        return [completion]

    def cancel(self) -> None:
        self._remaining = 0
        if self._stream is not None:
            self._stream.close()

    def outstanding(self) -> int:
        return self._remaining


class PoolTransport(Transport):
    """Fan each batch out over a process pool; completions in completion order.

    The pool lives for one batch: it starts at ``submit`` and shuts down at
    ``cancel``, so an executor registered between batches reaches the next
    batch's workers.
    """

    name: ClassVar[str] = "pool"

    def __init__(self, processes: int):
        self.processes = max(1, int(processes))
        self._pool: ProcessPoolExecutor | None = None
        self._futures: dict[Future, int] = {}
        self._serial: SerialTransport | None = None

    def submit(self, specs: Sequence[Any]) -> int:
        self._start_batch()
        specs = list(specs)
        if len(specs) <= 1:
            # A single-job batch (e.g. a resume with one never-completed job)
            # gains nothing from a pool: run it in-process, where even
            # unpicklable runtime registrations stay visible.
            self._serial = SerialTransport()
            return self._serial.submit(specs)
        self._pool = ProcessPoolExecutor(max_workers=self.processes, **pool_initializer())
        for index, spec in enumerate(specs):
            self._futures[self._pool.submit(_execute, spec)] = index
        return len(self._futures)

    def poll(self, timeout: float | None = None) -> list[Completion]:
        if self._serial is not None:
            return self._serial.poll(timeout)
        if not self._futures:
            return []
        done, _ = wait(self._futures, timeout=timeout, return_when=FIRST_COMPLETED)
        completions: list[Completion] = []
        for future in done:
            index = self._futures.pop(future)
            exc = future.exception()
            if exc is not None:
                completions.append((index, None, exc))
            else:
                completions.append((index, future.result(), None))
        return completions

    def cancel(self) -> None:
        if self._serial is not None:
            self._serial.cancel()
            self._serial = None
        self._futures.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def outstanding(self) -> int:
        if self._serial is not None:
            return self._serial.outstanding()
        return len(self._futures)


def _build_serial(config: Any, processes: int) -> SerialTransport:
    return SerialTransport()


def _build_pool(config: Any, processes: int) -> PoolTransport:
    return PoolTransport(processes=processes)


register_transport("serial", _build_serial)
register_transport("pool", _build_pool)

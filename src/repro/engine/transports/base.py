"""The executor transport protocol: *where* jobs run, behind one interface.

The engine's session loop needs exactly three things from an execution
substrate: hand it a batch of job specs (:meth:`Transport.submit`), harvest
``(index, result, exception)`` completions as they land
(:meth:`Transport.poll`), and abandon whatever is still outstanding when the
consumer walks away (:meth:`Transport.cancel`).  Everything else about a
transport — in-process calls, a process pool, a fleet of independent worker
daemons coordinating over a spool directory — is an implementation detail the
session never sees, which is what keeps the PR 3 determinism contract
transport-agnostic: a job's result depends only on its spec, so serial, pool
and distributed runs are bit-identical.

Transports are *configuration*, not code: they register by name
(:func:`register_transport`) and the engine resolves
``PipelineConfig.transport`` through :func:`make_transport`, exactly like the
backend and executor registries.

The two remote transports (``filequeue`` and ``network``) exchange one
*result record*: a JSON-able dict produced by :func:`execution_record` on the
executing side (a ``repro-worker`` or ``repro-serve``) and turned back into a
completion by :func:`record_completion` on the submitting side.

A transport instance serves **one batch at a time**, for as many batches
as its owner runs: ``submit`` starts a batch (and refuses while the previous
one is still outstanding or its stream still open), ``poll`` drains it
incrementally, ``cancel`` (idempotent) ends it and withdraws whatever never
completed, and ``close`` releases what the transport keeps between batches
(a spawned worker fleet).
:meth:`Transport.stream` packages one batch as the generator the session
consumes — cancellation on early exit comes for free from the ``finally``
clause.  An :class:`~repro.engine.core.Engine` owns one transport for its
whole lifetime and closes it in :meth:`~repro.engine.core.Engine.close`.
"""

from __future__ import annotations

import abc
import json
import time
from typing import Any, Callable, ClassVar, Iterator, Sequence

from repro.engine.jobs import result_from_payload
from repro.exceptions import EngineError
from repro.utils.io import _NumpyJSONEncoder

#: One completion: (submission index, result or None, exception or None).
Completion = tuple[int, Any | None, BaseException | None]


class Transport(abc.ABC):
    """An execution substrate for consecutive batches: submit, poll, cancel.

    Concrete transports implement the three primitives; :meth:`stream` is the
    session-facing generator built on top of them.  ``poll`` may block up to
    ``timeout`` seconds waiting for the first completion, returning however
    many have landed (possibly none on timeout); it must never return a
    completion twice, and must raise :class:`EngineError` if the batch can
    provably never finish (e.g. every worker of a spawned fleet is gone and
    respawning is exhausted).
    """

    #: Registry name of this transport.
    name: ClassVar[str] = "abstract"

    #: True while a :meth:`stream` generator owns the current batch, even
    #: once ``poll`` has harvested all of it but the consumer is suspended
    #: before taking the last completions.
    _streaming: bool = False

    @abc.abstractmethod
    def submit(self, specs: Sequence[Any]) -> int:
        """Start a batch: enqueue ``specs``; returns the number enqueued.

        Raises :class:`EngineError` while the previous batch is outstanding
        or its stream still open (see :meth:`_start_batch`).
        """

    @abc.abstractmethod
    def poll(self, timeout: float | None = None) -> list[Completion]:
        """Harvest completions, waiting up to ``timeout`` seconds for one."""

    @abc.abstractmethod
    def cancel(self) -> None:
        """End the current batch: abandon outstanding work (idempotent)."""

    @abc.abstractmethod
    def outstanding(self) -> int:
        """How many submitted specs have not yet been returned by ``poll``."""

    def close(self) -> None:
        """Release everything, including what outlives a batch (idempotent)."""
        self.cancel()

    def _start_batch(self) -> None:
        """Refuse a new batch while one is outstanding; end the drained one."""
        if self.outstanding() > 0 or self._streaming:
            raise EngineError(
                "a transport runs one batch at a time; drain or cancel the "
                "outstanding batch before submitting another"
            )
        self.cancel()

    def stream(self, specs: Sequence[Any]) -> Iterator[Completion]:
        """Submit ``specs`` and yield every completion, cancelling on exit.

        The generator the session loop consumes: closing it early (the
        consumer broke out of its ``for`` loop) lands in the ``finally``
        clause and abandons whatever has not completed.
        """
        # Refuse an overlapping batch before the try: the finally clause
        # would otherwise end the batch of another stream (a session of the
        # same engine, suspended mid-stream).
        self._start_batch()
        try:
            # submit() inside the try: a mid-enqueue failure (disk full on a
            # shared spool at task 500 of 1000) must still reach cancel(), or
            # the partially enqueued tasks are orphaned for external workers
            # to execute with nobody harvesting the results.
            self.submit(specs)
            self._streaming = True
            while self.outstanding() > 0:
                for completion in self.poll():
                    yield completion
        finally:
            self._streaming = False
            self.cancel()


class RemoteJobError(EngineError):
    """A job failed on a remote worker; the original exception type is gone.

    Remote workers report failures as data (type name + message), not as
    picklable exception objects.  This wrapper carries both so the session
    journal and :class:`~repro.engine.session.JobFailure` records preserve
    the *original* ``error_type``/``error_message`` instead of reporting
    every remote failure as a ``RemoteJobError``.
    """

    def __init__(self, error_type: str, error_message: str, worker: str | None = None):
        where = f" on worker {worker!r}" if worker else ""
        super().__init__(f"{error_type}: {error_message} (remote execution{where})")
        self.error_type = error_type
        self.error_message = error_message
        self.worker = worker


def execution_record(spec: Any, execute: Callable[[Any], Any]) -> dict[str, Any]:
    """Execute one job and return its result record; never raises.

    The record is canonical JSON data (sorted keys, NumPy values as plain
    numbers and lists): ``status`` (``"completed"`` or ``"failed"``),
    ``spec_hash``, ``kind``, ``duration_s``, and either the result's cache
    ``payload`` or ``error_type``/``error_message``.  Every way a job can go
    wrong becomes a failed record instead of an exception: a spec whose
    ``content_hash()`` raises (it would otherwise crash-loop a worker fleet
    on the same task), an executor or ``to_payload()`` that raises, and a
    payload JSON cannot encode.
    """
    started = time.perf_counter()
    try:
        record: dict[str, Any] = {
            "spec_hash": spec.content_hash(), "kind": getattr(spec, "kind", "fold"),
        }
    except Exception as exc:
        record = {
            "status": "failed", "error_type": type(exc).__name__,
            "error_message": f"cannot fingerprint job spec: {exc}",
        }
    else:
        try:
            record.update(status="completed", payload=execute(spec).to_payload())
        except Exception as exc:
            record.update(status="failed", error_type=type(exc).__name__, error_message=str(exc))
    record["duration_s"] = round(time.perf_counter() - started, 6)
    try:
        return json.loads(json.dumps(record, sort_keys=True, cls=_NumpyJSONEncoder))
    except (TypeError, ValueError) as exc:
        return {
            "spec_hash": record.get("spec_hash"), "kind": record.get("kind"),
            "status": "failed", "error_type": type(exc).__name__,
            "error_message": f"result payload is not JSON-serialisable: {exc}",
            "duration_s": record["duration_s"],
        }


def record_completion(index: int, record: dict[str, Any], where: str | None) -> Completion:
    """Turn a result record back into the completion of submission ``index``.

    A completed record's payload is rebuilt through
    :func:`~repro.engine.jobs.result_from_payload`, so remote results are
    byte-identical to serial ones; a failed record, or a payload that cannot
    be rebuilt, becomes a :class:`RemoteJobError` naming ``where`` it ran.
    """
    if record.get("status") == "completed":
        try:
            outcome = result_from_payload(record.get("payload"))
        except Exception as exc:
            return index, None, RemoteJobError(
                "RecordError",
                f"cannot rebuild result of job {index}: {type(exc).__name__}: {exc}",
                where,
            )
        # Executed remotely, not served from this session's cache: the session
        # caches and journals it exactly like a pool completion.
        outcome.from_cache = False
        return index, outcome, None
    return index, None, RemoteJobError(
        record.get("error_type") or "Error",
        record.get("error_message") or "remote job failed",
        where,
    )


#: A transport factory: (config, processes) in, a new transport out.
TransportFactory = Callable[[Any, int], Transport]

_TRANSPORTS: dict[str, TransportFactory] = {}


def register_transport(name: str, factory: TransportFactory, overwrite: bool = False) -> None:
    """Register ``factory`` under ``name`` (lower-cased).

    Factories receive ``(config, processes)`` and must return a *new*
    transport per call: each engine owns the one it gets and runs all its
    batches on it.
    """
    key = name.strip().lower()
    if not key:
        raise EngineError("transport name must be a non-empty string")
    if key in _TRANSPORTS and not overwrite:
        raise EngineError(f"transport {key!r} is already registered")
    _TRANSPORTS[key] = factory


def transport_names() -> tuple[str, ...]:
    """The transport names currently registered, sorted alphabetically."""
    return tuple(sorted(_TRANSPORTS))


def make_transport(name: str | None, config: Any, processes: int = 0) -> Transport:
    """Build a new transport (an engine keeps it for its lifetime).

    ``name`` of ``None`` or ``"auto"`` resolves from the worker count:
    ``processes <= 1`` executes serially, anything larger uses the process
    pool.  The distributed file-queue transport is never auto-selected — it
    needs a spool directory and (usually) externally launched workers, so it
    is an explicit ``config.transport = "filequeue"`` choice.
    """
    key = (name or getattr(config, "transport", None) or "auto").strip().lower()
    if key == "auto":
        key = "pool" if processes > 1 else "serial"
    factory = _TRANSPORTS.get(key)
    if factory is None:
        raise EngineError(
            f"unknown transport {key!r}; registered transports: {', '.join(transport_names())}"
        )
    return factory(config, processes)

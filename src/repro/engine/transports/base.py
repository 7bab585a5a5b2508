"""The executor transport protocol: *where* jobs run, behind one interface.

The engine's session loop needs one thing from an execution substrate: hand
it a batch of job specs and iterate ``(index, result, exception)``
completions as they land, abandoning whatever is still outstanding when the
consumer walks away (:meth:`Transport.stream`).  Everything else about a
transport — in-process calls, a process pool, a fleet of independent worker
daemons coordinating over a spool directory — is an implementation detail the
session never sees, which is what keeps the PR 3 determinism contract
transport-agnostic: a job's result depends only on its spec, so serial, pool
and distributed runs are bit-identical.

Transports are *configuration*, not code: the engine resolves
``PipelineConfig.transport`` to one of the four built-in transports through
:func:`repro.engine.transports.make_transport`.

The two remote transports (``filequeue`` and ``network``) exchange one
*result record*: a JSON-able dict produced by :func:`execution_record` on the
executing side (a ``repro-worker`` or ``repro-serve``) and turned back into a
completion by :func:`record_completion` on the submitting side.

A transport runs **one batch at a time**, for as many batches as its owner
runs.  A batch is one generator (:meth:`Transport.run`): it takes the specs,
yields a completion per spec as each lands, and its ``finally`` clause
withdraws whatever never completed, so every exit (drained, raised, closed
early) ends the batch.  :meth:`Transport.stream` is the session-facing
wrapper: it refuses a batch while another one's stream is open, and
:meth:`Transport.close` closes that open stream before releasing what
outlives a batch (a spawned worker fleet).  An
:class:`~repro.engine.core.Engine` owns one transport for its whole lifetime
and closes it in :meth:`~repro.engine.core.Engine.close`.
"""

from __future__ import annotations

import abc
import json
import time
from typing import Any, Callable, ClassVar, Generator, Iterator, Sequence

from repro.engine.jobs import result_from_payload
from repro.exceptions import EngineError
from repro.utils.io import _NumpyJSONEncoder

#: One completion: (submission index, result or None, exception or None).
Completion = tuple[int, Any | None, BaseException | None]


class Transport(abc.ABC):
    """An execution substrate for consecutive batches, one generator each.

    Concrete transports implement :meth:`run`; :meth:`stream` is the
    session-facing generator built on top of it.
    """

    #: Name of this transport (``PipelineConfig.transport``).
    name: ClassVar[str] = "abstract"

    #: The batch generator of the open :meth:`stream`, if any.
    _active: Generator[Completion, None, None] | None = None

    @abc.abstractmethod
    def run(self, specs: list[Any]) -> Generator[Completion, None, None]:
        """Run one batch: yield one completion per spec as it lands.

        Every spec gets exactly one completion, in any order; a job's
        exception is a completion, never a raise.  The generator raises
        :class:`EngineError` only if the batch can provably never finish
        (e.g. every worker of a spawned fleet is gone and respawning is
        exhausted), and its ``finally`` clause withdraws whatever never
        completed, however the generator ends.
        """

    def close(self) -> None:
        """Withdraw the open batch, then release what outlives a batch.

        Idempotent.  Subclasses that keep something between batches extend
        this.  A consumer of the closed stream sees it end early.
        """
        if self._active is not None:
            self._active.close()
            self._active = None

    def stream(self, specs: Sequence[Any]) -> Iterator[Completion]:
        """Run ``specs`` as one batch and yield every completion.

        The generator the session loop consumes.  Closing it early (the
        consumer broke out of its ``for`` loop) closes the batch, which
        withdraws whatever has not completed.  While one stream is open, a
        second one raises :class:`EngineError` at its first ``next()`` and
        leaves the open batch alone.
        """
        if self._active is not None:
            raise EngineError(
                "a transport runs one batch at a time; drain or close the "
                "open batch before starting another"
            )
        batch = self._active = self.run(list(specs))
        try:
            yield from batch
        finally:
            if self._active is batch:
                self._active = None
            batch.close()


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

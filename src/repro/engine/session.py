"""Streaming engine sessions: incremental results, on-disk journals, resume.

:meth:`Engine.run` is a blocking batch call — fine for short batches, but a
paper-fidelity sweep runs hundreds of fold/baseline/dock jobs for hours, and
one crashed job (or a killed process) used to lose the whole batch with no
progress signal.  A :class:`Session` restructures that into a stream:

* ``Engine.submit(jobs)`` returns a :class:`Session` that yields
  ``(spec, outcome)`` pairs *as they complete* — cache hits first (in
  submission order), then executor-transport completions (in completion
  order; the transport — in-process, process pool, or a distributed
  ``repro-worker`` fleet — is ``config.transport``, see
  :mod:`repro.engine.transports`);
* every completed job is recorded to an append-only on-disk **journal**
  (:class:`SessionJournal`) next to the result cache, so a crashed or
  interrupted sweep can be resumed by re-submitting with the same
  ``session_id`` (or via ``repro-session resume``), from this process or a
  brand-new one, executing **only** the jobs that never completed;
* a failing job is *isolated* as a :class:`JobFailure` record (exception type,
  message, spec hash) instead of aborting the batch
  (``on_error="isolate"``, the default; ``"raise"`` restores the old
  fail-fast behaviour);
* an optional ``progress`` callback receives a :class:`SessionProgress` event
  after every outcome.

Determinism is preserved: each job's result depends only on its spec (never on
scheduling), so a stream consumed serially, in parallel, from a warm cache, or
interrupted-and-resumed produces bit-identical per-job results, and
:meth:`Session.results` returns them in submission order.

The journal format
------------------

One session writes two files under ``session_dir``:

* ``<session_id>.jsonl`` — append-only JSON lines.  The first record is the
  session header (schema version, spec hashes in submission order); every
  completed or failed job appends one ``job`` record; each resume appends a
  ``resume`` marker.  A torn trailing line (the process died mid-write) is
  ignored on re-open, so a crash can never corrupt the journal.
* ``<session_id>.specs.pkl`` — the pickled job specs, written once at session
  creation.  This is what lets a *new process* resume a journal without the
  caller reconstructing the job list.  (Pickles are trusted local state, like
  the result cache: do not resume journals from untrusted directories.)

A job marked completed in the journal is *served from the result cache* on
resume; if its cache payload was evicted or the engine has no cache, the job
re-executes (with a warning) — the journal is bookkeeping, the cache is the
source of results, and losing either only ever costs recompute time.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.engine.jobs import result_from_payload
from repro.exceptions import EngineError
from repro.utils.io import utcnow_iso
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Schema version of the journal header; bump on incompatible format changes.
SESSION_SCHEMA_VERSION = "session/v1"

#: The error-handling policies a session understands.
ON_ERROR_POLICIES: tuple[str, ...] = ("isolate", "raise")


def new_session_id() -> str:
    """A fresh, filesystem-safe session identifier."""
    return uuid.uuid4().hex[:12]


@dataclass(frozen=True)
class JobFailure:
    """One isolated job failure: what crashed, how, and which job it was.

    Takes the failed job's slot in :meth:`Session.results` under
    ``on_error="isolate"`` so the rest of the batch still completes; the
    journal records it as ``failed`` and a resume re-runs it.
    """

    spec_hash: str
    kind: str
    error_type: str
    error_message: str

    #: Failures are never cache hits; mirrors the result types' attribute so
    #: consumers can test ``outcome.from_cache`` uniformly.
    from_cache: bool = False

    def shallow_copy(self) -> "JobFailure":
        """Failures are immutable; duplicates share the record."""
        return self

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (journal record / CLI output)."""
        return {
            "spec_hash": self.spec_hash,
            "kind": self.kind,
            "error_type": self.error_type,
            "error_message": self.error_message,
        }


@dataclass(frozen=True)
class SessionProgress:
    """One progress event: the outcome that just landed plus running totals."""

    session_id: str
    spec_hash: str
    kind: str
    #: ``"cached"`` | ``"executed"`` | ``"failed"`` | ``"duplicate"``
    status: str
    done: int
    total: int
    cached: int
    executed: int
    failed: int

    @property
    def fraction(self) -> float:
        """Completed fraction of the session (0.0 when empty)."""
        return self.done / self.total if self.total else 0.0


class SessionJournal:
    """Append-only on-disk record of one session's per-job status.

    See the module docstring for the file format.  All mutation goes through
    :meth:`record_job` / :meth:`mark_resumed`, each of which appends one
    flushed line — the journal is always consistent up to the last fully
    written record, whatever kills the process.
    """

    def __init__(self, root: str | Path, session_id: str):
        self.root = Path(root).expanduser()
        self.session_id = session_id
        self.path = self.root / f"{session_id}.jsonl"
        self.specs_path = self.root / f"{session_id}.specs.pkl"
        self.created_at: str | None = None
        self.spec_hashes: list[str] = []
        self.completed: dict[str, dict[str, Any]] = {}
        self.failed: dict[str, dict[str, Any]] = {}
        self.resumes = 0
        #: Set by :meth:`open` when the file ends in a torn (newline-less)
        #: record; the next append starts a fresh line so it cannot corrupt
        #: the new record too.
        self._repair_newline = False

    # -- creation / loading ----------------------------------------------------------

    @classmethod
    def exists(cls, root: str | Path, session_id: str) -> bool:
        """Whether a journal for ``session_id`` is present under ``root``."""
        return (Path(root).expanduser() / f"{session_id}.jsonl").is_file()

    @classmethod
    def create(cls, root: str | Path, session_id: str, jobs: Sequence[Any]) -> "SessionJournal":
        """Start a new journal: write the spec pickle and the header record."""
        journal = cls(root, session_id)
        if journal.path.exists():
            raise EngineError(
                f"session journal {journal.path} already exists; "
                "resume it (or pick a different session_id) instead of recreating it"
            )
        journal.root.mkdir(parents=True, exist_ok=True)
        journal.spec_hashes = [job.content_hash() for job in jobs]
        journal.created_at = utcnow_iso()
        with journal.specs_path.open("wb") as fh:
            pickle.dump(list(jobs), fh)
        journal._append(
            {
                "record": "session",
                "schema": SESSION_SCHEMA_VERSION,
                "session_id": session_id,
                "created_at": journal.created_at,
                "total_jobs": len(journal.spec_hashes),
                "spec_hashes": journal.spec_hashes,
            }
        )
        return journal

    @classmethod
    def open(cls, root: str | Path, session_id: str) -> "SessionJournal":
        """Re-open an existing journal, replaying its records.

        Undecodable lines (a torn trailing write from a killed process) are
        skipped; a ``completed`` record always wins over a ``failed`` one for
        the same job (a resume re-ran it successfully).
        """
        journal = cls(root, session_id)
        try:
            raw = journal.path.read_bytes()
        except OSError as exc:
            raise EngineError(
                f"no session journal {journal.path}: {exc}"
            ) from exc
        # Decode permissively: a torn write can leave arbitrary bytes on the
        # tail, and undecodable garbage must invalidate only the lines it
        # lands on (they fail JSON parsing below), never the whole journal.
        text = raw.decode("utf-8", errors="replace")
        journal._repair_newline = bool(text) and not text.endswith("\n")
        saw_header = False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing write; the journal is consistent up to here
            if not isinstance(record, dict):
                continue
            kind = record.get("record")
            if kind == "session":
                schema = record.get("schema")
                if schema != SESSION_SCHEMA_VERSION:
                    raise EngineError(
                        f"session journal {journal.path} has schema {schema!r}; "
                        f"this build reads {SESSION_SCHEMA_VERSION!r}"
                    )
                saw_header = True
                journal.created_at = record.get("created_at")
                journal.spec_hashes = list(record.get("spec_hashes", []))
            elif kind == "job":
                spec_hash = record.get("spec_hash")
                if not spec_hash:
                    continue
                if record.get("status") == "completed":
                    journal.completed[spec_hash] = record
                    journal.failed.pop(spec_hash, None)
                elif record.get("status") == "failed" and spec_hash not in journal.completed:
                    journal.failed[spec_hash] = record
            elif kind == "resume":
                journal.resumes += 1
        if not saw_header:
            raise EngineError(
                f"session journal {journal.path} has no readable header record"
            )
        return journal

    @classmethod
    def list_sessions(cls, root: str | Path) -> list["SessionJournal"]:
        """Every readable journal under ``root``, oldest first."""
        journals = []
        for path in sorted(Path(root).expanduser().glob("*.jsonl")):
            try:
                journals.append(cls.open(path.parent, path.stem))
            except EngineError:
                continue  # not a session journal (or unreadably damaged)
        journals.sort(key=lambda j: (j.created_at or "", j.session_id))
        return journals

    def load_specs(self) -> list[Any]:
        """The job specs this journal was created with (for cross-process resume)."""
        try:
            with self.specs_path.open("rb") as fh:
                return list(pickle.load(fh))
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
            raise EngineError(
                f"cannot load the job specs of session {self.session_id!r} "
                f"from {self.specs_path}: {type(exc).__name__}: {exc}"
            ) from exc

    # -- recording -------------------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        prefix = "\n" if self._repair_newline else ""
        self._repair_newline = False
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(prefix + json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    def record_job(
        self,
        spec_hash: str,
        status: str,
        kind: str,
        from_cache: bool = False,
        error_type: str | None = None,
        error_message: str | None = None,
    ) -> None:
        """Append one job outcome (``status`` is ``"completed"`` or ``"failed"``)."""
        record: dict[str, Any] = {
            "record": "job",
            "spec_hash": spec_hash,
            "status": status,
            "kind": kind,
            "from_cache": bool(from_cache),
        }
        if error_type is not None:
            record["error_type"] = error_type
        if error_message is not None:
            record["error_message"] = error_message
        self._append(record)
        if status == "completed":
            self.completed[spec_hash] = record
            self.failed.pop(spec_hash, None)
        elif spec_hash not in self.completed:
            self.failed[spec_hash] = record

    def mark_resumed(self) -> None:
        """Append a resume marker (kept for audit; resume logic keys off job records)."""
        self.resumes += 1
        self._append({"record": "resume", "resumed_at": utcnow_iso()})

    # -- reporting -------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """Counts for ``repro-session ls`` / ``status`` (unique jobs, not submissions).

        ``completed`` + ``failed`` + ``pending`` partitions ``total_unique``:
        ``pending`` counts jobs with no journal record at all.  A resume
        re-runs both the ``failed`` and the ``pending`` jobs.
        """
        unique = list(dict.fromkeys(self.spec_hashes))
        completed = sum(1 for h in unique if h in self.completed)
        failed = sum(1 for h in unique if h in self.failed)
        return {
            "session_id": self.session_id,
            "created_at": self.created_at,
            "total_submitted": len(self.spec_hashes),
            "total_unique": len(unique),
            "completed": completed,
            "failed": failed,
            "pending": len(unique) - completed - failed,
            "resumes": self.resumes,
        }


class Session:
    """A streaming view of one batch of engine jobs.

    Iterating the session yields ``(spec, outcome)`` pairs as they complete,
    where ``outcome`` is the job's result or a :class:`JobFailure` (under
    ``on_error="isolate"``).  :meth:`results` consumes the stream (if it has
    not been consumed already) and returns outcomes in submission order.

    Sessions are built by :meth:`Engine.submit` (journalled, resumable) and
    by :meth:`Engine.run` (unjournalled, blocking).
    """

    def __init__(
        self,
        engine,
        jobs: Sequence[Any],
        session_id: str | None = None,
        journal: SessionJournal | None = None,
        on_error: str = "isolate",
        progress: Callable[[SessionProgress], None] | None = None,
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise EngineError(
                f"unknown on_error policy {on_error!r}; choose one of {ON_ERROR_POLICIES}"
            )
        self.engine = engine
        self.jobs = list(jobs)
        self.session_id = session_id or new_session_id()
        self.journal = journal
        self.on_error = on_error
        self.progress = progress
        self.keys = [job.content_hash() for job in self.jobs]
        self._outcomes: list[Any] = [None] * len(self.jobs)
        self._state = "new"  # new -> running -> finished
        self._stream_gen: Iterator[tuple[Any, Any]] | None = None
        #: The executor transport of the running stream (set when execution
        #: starts; exposed so tests and tools can inspect/steer the fleet).
        self.transport: Any = None
        #: The transport's own counters (reclaimed leases, respawns, ...),
        #: captured when the stream drains.
        self.transport_stats: dict[str, Any] | None = None
        self.cached = 0
        self.executed = 0
        self.failed = 0
        self.duplicates = 0
        self.done = 0

    # -- streaming -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self) -> Iterator[tuple[Any, Any]]:
        """Iterate outcomes as they complete.

        One underlying stream per session: breaking out of a ``for`` loop
        suspends it, and a later iteration (or :meth:`results`) drains it
        from where it stopped.  A finished session re-yields its stored
        outcomes in submission order.
        """
        if self._state == "finished":
            return iter(list(zip(self.jobs, self._outcomes)))
        if self._state == "closed":
            raise self._closed_error()
        if self._stream_gen is None:
            self._state = "running"
            self._stream_gen = self._stream()
        return self._stream_gen

    def _stream(self) -> Iterator[tuple[Any, Any]]:
        # An abnormal termination — on_error="raise", or a transport error
        # such as the filequeue stop-sentinel / respawn-exhausted raise —
        # must leave the session *closed*: a later results() call on the
        # dead generator would otherwise return a list with silent None
        # holes instead of raising the closed-before-finishing error.
        try:
            yield from self._run_stream()
        except BaseException:
            self._state = "closed"
            raise
        self._state = "finished"

    def _run_stream(self) -> Iterator[tuple[Any, Any]]:
        engine = self.engine
        primary: dict[str, int] = {}
        duplicates_of: dict[int, list[int]] = {}
        served: list[int] = []
        pending: list[int] = []
        journalled_done = self.journal.completed if self.journal is not None else {}

        for i, key in enumerate(self.keys):
            if key in primary:
                duplicates_of.setdefault(primary[key], []).append(i)
                continue
            primary[key] = i
            outcome = self._lookup(self.jobs[i], key, journalled_done)
            if outcome is not None:
                self._outcomes[i] = outcome
                served.append(i)
            else:
                pending.append(i)

        if pending:
            self.transport = engine.transport_for()
            logger.info(
                "session %s: executing %d/%d jobs (%d reusable, %d duplicate) "
                "on the %s transport (%d processes)",
                self.session_id, len(pending), len(self.jobs), len(served),
                len(self.jobs) - len(served) - len(pending),
                self.transport.name, max(1, engine.processes),
            )

        # Cache hits first, in submission order ...
        for i in served:
            yield from self._deliver(i, "cached", duplicates_of)

        # ... then transport completions, in completion order (the serial
        # transport degrades to submission order).  The journal and cache are
        # updated *before* each yield, so breaking out of the stream can
        # never lose a finished result.  Every exit closes the transport
        # stream, which withdraws whatever never completed, so the engine's
        # next batch finds its transport idle.
        if pending:
            with contextlib.closing(
                self.transport.stream([self.jobs[i] for i in pending])
            ) as stream:
                for pos, result, exc in stream:
                    i = pending[pos]
                    key = self.keys[i]
                    kind = getattr(self.jobs[i], "kind", "fold")
                    if exc is None:
                        if engine.cache is not None:
                            engine.cache.put(key, result.to_payload())
                        if self.journal is not None:
                            self.journal.record_job(key, "completed", kind)
                        engine.executed_jobs += 1
                        engine.executed_by_kind[kind] = engine.executed_by_kind.get(kind, 0) + 1
                        self.executed += 1
                        self._outcomes[i] = result
                        yield from self._deliver(i, "executed", duplicates_of)
                    else:
                        # Remote transports report failures as data; preserve the
                        # original error type/message they carried.
                        error_type = getattr(exc, "error_type", type(exc).__name__)
                        error_message = getattr(exc, "error_message", str(exc))
                        if self.journal is not None:
                            self.journal.record_job(
                                key, "failed", kind,
                                error_type=error_type, error_message=error_message,
                            )
                        engine.failed_jobs += 1
                        self.failed += 1
                        if self.on_error == "raise":
                            raise exc
                        self._outcomes[i] = JobFailure(
                            spec_hash=key,
                            kind=kind,
                            error_type=error_type,
                            error_message=error_message,
                        )
                        yield from self._deliver(i, "failed", duplicates_of)
            # Every pending job completes exactly once, as an execution or a
            # failure.  Fewer means the transport was closed under this
            # suspended session (Engine.close()): raise, never finish with
            # None holes.
            if self.executed + self.failed < len(pending):
                raise self._closed_error()
            stats = getattr(self.transport, "stats", None)
            if callable(stats):
                try:
                    self.transport_stats = stats()
                except Exception:  # diagnostics only: never fail a finished batch
                    self.transport_stats = None

    def _closed_error(self) -> EngineError:
        return EngineError(
            f"session {self.session_id!r} was closed before finishing; "
            "re-submit its session_id to complete the batch"
        )

    def _lookup(self, job: Any, key: str, journalled_done: dict[str, Any]) -> Any | None:
        """Resolve a job without executing it: from the result cache."""
        cache = self.engine.cache
        if cache is not None:
            payload = cache.get(key)
            if payload is not None:
                return result_from_payload(payload)
        if key in journalled_done:
            # Journal-aware degradation: the journal promises this job is done,
            # but its payload is gone (cache evicted/disabled) — re-execute.
            logger.warning(
                "session %s: job %s is journalled complete but its cached payload "
                "is unavailable; re-executing",
                self.session_id, key[:16],
            )
        return None

    def _deliver(
        self, i: int, status: str, duplicates_of: dict[int, list[int]]
    ) -> Iterator[tuple[Any, Any]]:
        """Yield outcome ``i`` (journalling cache reuse), then its duplicates."""
        outcome = self._outcomes[i]
        key = self.keys[i]
        kind = getattr(self.jobs[i], "kind", "fold")
        if status == "cached":
            self.cached += 1
            if self.journal is not None and key not in self.journal.completed:
                self.journal.record_job(key, "completed", kind, from_cache=True)
        failed = isinstance(outcome, JobFailure)
        if not failed:
            self.engine.completed_jobs += 1
        self.done += 1
        self._emit(key, kind, status)
        yield self.jobs[i], outcome
        for j in duplicates_of.get(i, ()):
            self._outcomes[j] = outcome.shallow_copy()
            self.duplicates += 1
            self.done += 1
            if not failed:
                self.engine.completed_jobs += 1
            self._emit(self.keys[j], kind, "duplicate")
            yield self.jobs[j], self._outcomes[j]

    def _emit(self, key: str, kind: str, status: str) -> None:
        if self.progress is None:
            return
        self.progress(
            SessionProgress(
                session_id=self.session_id,
                spec_hash=key,
                kind=kind,
                status=status,
                done=self.done,
                total=len(self.jobs),
                cached=self.cached,
                executed=self.executed,
                failed=self.failed,
            )
        )

    # -- blocking views --------------------------------------------------------------

    def results(self) -> list[Any]:
        """All outcomes in submission order, consuming the stream if needed.

        Works on a partially consumed session too: the suspended stream is
        drained from where the last ``for`` loop stopped.
        """
        if self._state != "finished":
            for _ in self:
                pass
        return list(self._outcomes)

    def close(self) -> None:
        """Shut down a partially consumed session's stream.

        Closing ends the batch on the engine's transport: outstanding jobs
        are withdrawn (a spawned fleet running them is stopped), and the
        engine's next batch may reuse the transport.

        A no-op on new or finished sessions.  The journal keeps its records,
        so re-submitting the session id resumes the batch; iterating the
        closed session or calling :meth:`results` raises instead of returning
        a result list with silent ``None`` holes.
        """
        if self._stream_gen is not None and self._state == "running":
            self._stream_gen.close()
            self._state = "closed"

    def failures(self) -> list[JobFailure]:
        """The isolated failures among the outcomes so far, one per failed job.

        In-batch duplicates share their primary's failure record, so the list
        is deduplicated by spec hash — its length matches the ``failed``
        counter and the journal's failed set.
        """
        unique: dict[str, JobFailure] = {}
        for outcome in self._outcomes:
            if isinstance(outcome, JobFailure):
                unique.setdefault(outcome.spec_hash, outcome)
        return list(unique.values())

    # -- reporting -------------------------------------------------------------------

    def summary(self) -> dict[str, Any]:
        """This session's counters (journal-independent, reflects this pass only)."""
        summary = {
            "session_id": self.session_id,
            "total": len(self.jobs),
            "done": self.done,
            "cached": self.cached,
            "executed": self.executed,
            "failed": self.failed,
            "duplicates": self.duplicates,
            "failures": [f.as_dict() for f in self.failures()],
        }
        if self.transport_stats is not None:
            summary["transport"] = self.transport_stats
        return summary

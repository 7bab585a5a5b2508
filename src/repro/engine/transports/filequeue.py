"""Distributed file-queue transport: N worker daemons over a shared spool dir.

The registry/job hashing has been transport-agnostic since PR 1 and the
session journal (PR 3) provides checkpointing; what was missing is a way to
run one engine batch across *independent processes* — worker daemons started
by an operator (or spawned locally by the transport) that share nothing with
the submitting engine but a directory.  This module is that coordination
protocol, built entirely on atomic filesystem operations so it needs no
broker, no sockets and no new dependencies:

``spool/``
    ``tasks/<task_id>.task``
        One pending job: a one-line JSON scheduling header (priority,
        capability requirements — readable without unpickling the spec)
        followed by a pickled envelope holding the spec (trusted local
        state, like the session spec pickle).  Written atomically
        (tmp + ``os.replace``), so a worker never sees a torn task.
        Workers drain the queue in the fleet's claim order
        (:mod:`repro.engine.scheduler`): priority descending, then oldest
        envelope mtime first — *not* name order, because task names start
        with a random per-batch prefix.
    ``claims/<task_id>.claim``
        A **lease**.  A worker claims a task by ``os.rename``-ing it from
        ``tasks/`` into ``claims/`` — rename is atomic, so exactly one
        claimant wins a race.  The winner immediately touches the claim
        (rename preserves the enqueue-time mtime; the lease clock must start
        at *claim* time, or a task that queued longer than the lease timeout
        would be born stale) and records its worker id in a tiny
        ``<task_id>.owner`` sidecar.
        While executing, the worker's heartbeat thread touches the claim
        file; its mtime *is* the lease.  A claim whose mtime is older than
        the lease timeout belongs to a dead worker and is **reclaimed**:
        renamed back into ``tasks/`` (again atomic, one reclaimer wins), so a
        SIGKILLed worker's in-flight job is replayed by the surviving fleet
        exactly once.  Heartbeat and release are ownership-checked: a worker
        whose lease was reclaimed and re-claimed neither refreshes nor
        unlinks the new owner's claim.
    ``results/<task_id>.json``
        The outcome: the result record of
        :func:`~repro.engine.transports.base.execution_record` (the cache
        payload on success, the error type/message on failure) plus the
        task and worker ids — written atomically, after which the claim is
        released.  The submitting transport polls this directory, rebuilds
        completions with
        :func:`~repro.engine.transports.base.record_completion`, and hands
        them to the session loop, which persists them through the existing
        :class:`~repro.engine.cache.LocalDirTier` and session journal — so
        crash/resume semantics are identical to the local transports.
    ``log/<worker_id>.jsonl``
        One record per *finished* execution (appended after the result file
        lands).  A job is executed-to-completion exactly once, so CI can
        assert zero duplicates by grepping these logs.
    ``stop``
        Operator sentinel: workers exit between jobs when this file exists.

Exactly-once argument: a task is either in ``tasks/`` (runnable), ``claims/``
(leased to one live worker, or stale and reclaimable), or has a result.
Claim and reclaim are both single-winner renames; a worker re-checks for an
existing result after claiming (covering the crash window between result
write and claim release); and the session journal records each completion
once, when the transport yields it.  A worker crash before the result write
leaves only a stale claim — replayed once; a crash after it leaves a result
and a stale claim — the claim is dropped, the result stands.  Determinism
makes even the pathological double-execution harmless: both executions would
produce identical bytes.

That double execution does happen: a worker that stalls past its lease (a
long GC pause, a suspended VM) is reclaimed and the task re-runs elsewhere,
but the stalled worker may still finish — before or after the new owner.
Result publication is therefore create-exclusive
(:meth:`FileQueueSpool.publish_result`): the first finisher wins the result
file, the loser's publish is refused and logged as ``superseded`` (never
``completed`` twice), and its release is ownership-checked.

Workers are ``repro-worker`` daemons, started by an operator on any host that
shares the spool, or the local fleet a transport spawns (``workers=N``).  The
local fleet is forked from the submitter (POSIX only): each member runs the
daemon's loop with the modules and executor registry the submitter already
imported, so it needs neither an interpreter boot nor ``--preload``, and it
exits when the submitter dies.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Callable, ClassVar, Generator

from repro.config import PipelineConfig
from repro.engine.registry import watch_parent
from repro.engine.scheduler import (
    DEFAULT_PRIORITY,
    PendingTask,
    capabilities_match,
    job_priority,
    job_requirements,
    order_pending,
)
from repro.engine.transports.base import (
    Completion,
    RemoteJobError,
    Transport,
    execution_record,
    record_completion,
)
from repro.exceptions import EngineError
from repro.utils.io import utcnow_iso
from repro.utils.logging import get_logger

logger = get_logger(__name__)

#: Default lease timeout (seconds): a claim untouched this long is considered
#: abandoned by a dead worker and its task is requeued.  The configuration
#: owns it, so a worker and a submitter left at their defaults agree.
DEFAULT_LEASE_TIMEOUT = PipelineConfig.transport_lease_timeout

#: Default worker scan interval (seconds) between empty queue polls.
DEFAULT_WORKER_POLL_INTERVAL = 0.2

#: Consecutive unreadable reads of an existing result file before the
#: transport surfaces it as a failure instead of polling forever.
_MAX_BAD_RESULT_READS = 50

#: Seconds without any sign of fleet progress (no completions landing, no
#: live claims) before the polling transport logs a stall warning — and the
#: interval at which it repeats while the stall lasts.
_STALL_WARN_INTERVAL = 15.0

#: Measured spool clock offsets smaller than this are treated as zero: local
#: filesystems stamp with the local clock (any measured difference is write
#: latency / coarse-mtime noise), and an offset this small cannot matter
#: against lease timeouts of tens of seconds.
_CLOCK_OFFSET_IGNORE = 1.0

#: Leads every task file: one JSON line of scheduling metadata (priority,
#: capability requirements) a scanning worker can read without unpickling
#: the spec.
_TASK_HEADER_MAGIC = b"#qtask/v1 "


class FileQueueSpool:
    """The on-disk queue: every operation is a single atomic rename/replace."""

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.tasks_dir = self.root / "tasks"
        self.claims_dir = self.root / "claims"
        self.results_dir = self.root / "results"
        self.log_dir = self.root / "log"
        for directory in (self.tasks_dir, self.claims_dir, self.results_dir, self.log_dir):
            directory.mkdir(parents=True, exist_ok=True)
        #: Seconds the spool filesystem's clock runs *ahead of* this process's
        #: ``time.time()``.  On a network filesystem, mtimes are stamped by
        #: the file server; comparing them against an unskewed local clock
        #: can reclaim a whole fleet of live leases at once (file server
        #: behind: every fresh claim is born "stale") or never expire a dead
        #: one (file server ahead).  Measured once at startup via a probe
        #: touch and folded into every staleness comparison.
        self.clock_offset = self._measure_clock_offset()
        #: task_id -> (priority, requires), memoised per spool instance: a
        #: task's scheduling header never changes for a given id (reclaims
        #: rename the same bytes back), so each worker reads it at most once
        #: per task instead of once per poll.  Pruned to the ids currently
        #: pending, so it cannot grow without bound.
        self._meta_cache: dict[str, tuple[int, frozenset[str]]] = {}

    def _measure_clock_offset(self) -> float:
        """One probe write: how far the spool's mtime clock is from ours."""
        probe = self.root / f".clock-probe-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        try:
            before = time.time()
            probe.write_bytes(b"")
            stamped = probe.stat().st_mtime
            after = time.time()
        except OSError:
            return 0.0  # cannot probe: assume synchronised clocks
        finally:
            try:
                probe.unlink()
            except OSError:
                pass
        # The file server stamped the probe somewhere inside [before, after];
        # the midpoint bounds the offset error by half the write latency.
        offset = stamped - (before + after) / 2.0
        if abs(offset) < _CLOCK_OFFSET_IGNORE:
            return 0.0
        logger.warning(
            "spool %s: filesystem clock is %+.1fs from the local clock; "
            "lease staleness will be judged in spool time",
            self.root, offset,
        )
        return offset

    def lease_age(self, mtime: float, now: float | None = None) -> float:
        """Seconds since ``mtime`` on the *spool's* clock (skew-corrected)."""
        now = time.time() if now is None else now
        return (now + self.clock_offset) - mtime

    # -- paths -----------------------------------------------------------------------

    def task_path(self, task_id: str) -> Path:
        return self.tasks_dir / f"{task_id}.task"

    def claim_path(self, task_id: str) -> Path:
        return self.claims_dir / f"{task_id}.claim"

    def owner_path(self, task_id: str) -> Path:
        """Ownership sidecar: just the claimant's worker id, a few bytes —
        so heartbeat/release ownership checks never re-read the spec pickle."""
        return self.claims_dir / f"{task_id}.owner"

    def result_path(self, task_id: str) -> Path:
        return self.results_dir / f"{task_id}.json"

    @property
    def stop_path(self) -> Path:
        return self.root / "stop"

    def stop_requested(self) -> bool:
        """Whether the operator asked the worker fleet to wind down."""
        return self.stop_path.exists()

    # -- enqueue / claim / release ---------------------------------------------------

    def _atomic_write(self, path: Path, data: bytes) -> None:
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:6]}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def enqueue(
        self,
        task_id: str,
        spec: Any,
        priority: int = DEFAULT_PRIORITY,
        requires: Any = (),
    ) -> None:
        """Publish one task (atomically: a worker never sees a torn pickle).

        ``priority`` and ``requires`` are the scheduling header (see
        :mod:`repro.engine.scheduler`): claim precedence and the capability
        tags a worker must declare to claim this task.  Both are
        orchestration metadata — they never enter the spec or its content
        hash.
        """
        envelope: dict[str, Any] = {"task_id": task_id, "spec": spec}
        header = json.dumps(
            {"priority": int(priority), "requires": sorted(str(r) for r in requires)},
            sort_keys=True,
        ).encode("utf-8")
        self._atomic_write(
            self.task_path(task_id),
            _TASK_HEADER_MAGIC + header + b"\n" + pickle.dumps(envelope),
        )

    @staticmethod
    def load_envelope(data: bytes) -> Any:
        """The pickled envelope of a task file, scheduling header stripped."""
        header, sep, envelope = data.partition(b"\n")
        if not (sep and header.startswith(_TASK_HEADER_MAGIC)):
            raise EngineError("task file has no scheduling header")
        return pickle.loads(envelope)

    def _task_meta(self, task_id: str) -> tuple[int, frozenset[str]]:
        """``(priority, requires)`` from the task's scheduling header.

        Defaults — claimable by anyone at priority 0 — when the header is
        missing or unreadable: a corrupt task still gets claimed and
        poisoned into a failed result instead of being silently
        unschedulable.
        """
        cached = self._meta_cache.get(task_id)
        if cached is not None:
            return cached
        priority, requires = DEFAULT_PRIORITY, frozenset()
        try:
            with self.task_path(task_id).open("rb") as fh:
                first = fh.readline(65536)
            if first.startswith(_TASK_HEADER_MAGIC) and first.endswith(b"\n"):
                header = json.loads(first[len(_TASK_HEADER_MAGIC):])
                priority = int(header.get("priority", DEFAULT_PRIORITY))
                requires = frozenset(str(r) for r in header.get("requires", ()))
        except (OSError, ValueError, TypeError):
            pass  # claimed under us, or an unreadable header: use defaults
        meta = (priority, requires)
        self._meta_cache[task_id] = meta
        return meta

    def pending(self) -> list[PendingTask]:
        """Claimable tasks in the fleet's claim order.

        Highest priority class first; within a class, oldest envelope mtime
        first (age on the *spool's* clock via :meth:`lease_age` — the
        measured clock offset is a constant shift, so it cannot reorder
        tasks, it only expresses their ages in spool time); task id as the
        deterministic tie-break.  One directory scan plus one memoised
        header read per never-seen task.
        """
        entries: list[PendingTask] = []
        now = time.time()
        seen: set[str] = set()
        try:
            with os.scandir(self.tasks_dir) as it:
                for entry in it:
                    if not entry.name.endswith(".task"):
                        continue
                    task_id = entry.name[: -len(".task")]
                    try:
                        mtime = entry.stat().st_mtime
                    except OSError:
                        continue  # claimed under us mid-scan
                    seen.add(task_id)
                    priority, requires = self._task_meta(task_id)
                    entries.append(PendingTask(
                        task_id=task_id,
                        priority=priority,
                        requires=requires,
                        age=self.lease_age(mtime, now=now),
                    ))
        except OSError:
            return []
        # Keep the memo bounded by what is actually queued; a task that
        # reappears (stale-lease reclaim) re-reads its unchanged header.
        self._meta_cache = {t: m for t, m in self._meta_cache.items() if t in seen}
        return order_pending(entries)

    def task_ids(self) -> list[str]:
        """Pending task ids in claim order: priority desc, then oldest first.

        Age-ordered, *not* name-sorted: task ids begin with a random batch
        prefix, so name order across concurrent batches is arbitrary and a
        later batch could starve an earlier one (the pre-scheduler bug).
        """
        return [task.task_id for task in self.pending()]

    def claim_ids(self) -> list[str]:
        return sorted(path.stem for path in self.claims_dir.glob("*.claim"))

    def claim(self, task_id: str, owner: str | None = None) -> Path | None:
        """Lease ``task_id``: atomic rename out of ``tasks/``; ``None`` if lost.

        Exactly one concurrent claimant can win — everyone else's rename
        raises ``FileNotFoundError``.  The rename preserves the task file's
        mtime (the *enqueue* time), so the lease clock is restarted here:
        a task that waited in the queue longer than the lease timeout must
        not be born stale and reclaimed out from under its live claimant.
        With ``owner`` given, the claimant's id is written to an ownership
        sidecar so :meth:`heartbeat` and :meth:`release` can refuse to act on
        a lease that was reclaimed and now belongs to another worker.
        """
        source = self.task_path(task_id)
        target = self.claim_path(task_id)
        try:
            os.rename(source, target)
        except OSError:
            return None
        try:
            os.utime(target)  # one syscall: the born-stale window is minimal
        except OSError:
            # The claim vanished in the rename→touch window: a reclaimer saw
            # the preserved enqueue mtime as stale and requeued the task (or
            # the batch was cancelled).  The lease is lost — processing the
            # dangling path would publish a spurious "cannot load task
            # envelope" failure for a perfectly runnable task.
            return None
        if owner is not None:
            self._atomic_write(self.owner_path(task_id), owner.encode("utf-8"))
        return target

    def claim_owner(self, task_id: str) -> str | None:
        """The worker id in the ownership sidecar, or ``None`` when it is
        missing, unreadable, or the claim was taken without an owner."""
        try:
            return self.owner_path(task_id).read_text(encoding="utf-8") or None
        except (OSError, UnicodeDecodeError):
            return None

    def _owned_by_someone_else(self, task_id: str, owner: str | None) -> bool:
        if owner is None:
            return False
        current = self.claim_owner(task_id)
        return current is not None and current != owner

    def heartbeat(self, task_id: str, owner: str | None = None) -> bool:
        """Refresh the lease (claim mtime); False when the claim vanished or
        (with ``owner`` given) was reclaimed and re-claimed by another worker —
        a zombie claimant must not keep the new owner's lease alive."""
        if self._owned_by_someone_else(task_id, owner):
            return False
        try:
            os.utime(self.claim_path(task_id))
        except OSError:
            return False
        return True

    def release(self, task_id: str, owner: str | None = None) -> bool:
        """Drop the lease after the result is safely on disk.

        With ``owner`` given, the claim is only unlinked while this worker
        still owns it: if the lease was reclaimed mid-job and another worker
        holds it now, unlinking would destroy the *new* owner's live claim
        and invite a third execution.  Returns whether the claim was dropped.
        """
        if self._owned_by_someone_else(task_id, owner):
            return False
        self.claim_path(task_id).unlink(missing_ok=True)
        self.owner_path(task_id).unlink(missing_ok=True)
        return True

    def reclaim_stale(self, lease_timeout: float, now: float | None = None) -> list[str]:
        """Requeue every claim whose lease expired; returns the requeued ids.

        A stale claim with a result is a worker that died *after* finishing —
        the claim is dropped and the result stands.  A stale claim without
        one is a worker that died mid-job — the task goes back to ``tasks/``
        (single-winner rename, so concurrent reclaimers cannot double-queue).
        Staleness is judged in spool time (:meth:`lease_age`): claim mtimes
        are stamped by the spool's filesystem, whose clock may be skewed
        from this process's.
        """
        now = time.time() if now is None else now
        requeued: list[str] = []
        for claim in self.claims_dir.glob("*.claim"):
            try:
                age = self.lease_age(claim.stat().st_mtime, now=now)
            except OSError:
                continue  # released under us
            if age <= lease_timeout:
                continue
            task_id = claim.stem
            if self.result_path(task_id).exists():
                claim.unlink(missing_ok=True)
                self.owner_path(task_id).unlink(missing_ok=True)
                continue
            try:
                os.rename(claim, self.task_path(task_id))
            except OSError:
                continue  # another reclaimer (or the worker finishing) won
            # Drop the dead claimant's ownership sidecar: the next claimant
            # writes its own, and a stale one must not linger if it crashes
            # before that.
            self.owner_path(task_id).unlink(missing_ok=True)
            requeued.append(task_id)
        return requeued

    # -- results and logs ------------------------------------------------------------

    def publish_result(self, task_id: str, record: dict[str, Any]) -> bool:
        """Publish one outcome *exclusively*: the first publisher wins.

        A worker whose lease was reclaimed mid-job can still finish, before
        or after the task's new owner.  Exactly one result file is created
        (atomic ``os.link``, which fails with ``FileExistsError`` on a
        loser) and the loser learns it lost — returns ``False`` — so it can
        log ``superseded`` instead of a second completion.  On filesystems
        without hard links it degrades to a checked atomic replace, which
        with determinism still yields identical bytes either way.

        ``record`` is plain JSON data (an
        :func:`~repro.engine.transports.base.execution_record` with its ids).
        """
        data = json.dumps(record, sort_keys=True).encode("utf-8")
        target = self.result_path(task_id)
        tmp = target.with_name(f".{target.name}.pub-{os.getpid()}-{uuid.uuid4().hex[:6]}")
        tmp.write_bytes(data)
        try:
            os.link(tmp, target)
        except FileExistsError:
            return False
        except OSError:
            if target.exists():
                return False
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
        return True

    def read_result(self, task_id: str) -> dict[str, Any] | None:
        """The outcome of ``task_id``, or ``None`` when absent/unreadable."""
        try:
            text = self.result_path(task_id).read_text(encoding="utf-8")
            record = json.loads(text)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        return record if isinstance(record, dict) else None

    def quarantine_result(self, task_id: str) -> Path | None:
        """Move a permanently unreadable result aside as ``<task_id>.json.bad``.

        Called when the submitting transport gives up on a corrupt result
        file: leaving it in ``results/`` would make a worker's
        result-exists check (and ``reclaim_stale``'s result-stands rule)
        treat the task as resolved while the submitter reported it failed.
        The claim and ownership sidecar are dropped with it.  Returns the
        quarantine path, or ``None`` when the rename failed (already
        quarantined by a racing submitter, or the file vanished).
        """
        source = self.result_path(task_id)
        target = source.with_name(source.name + ".bad")
        try:
            os.replace(source, target)
        except OSError:
            return None
        self.claim_path(task_id).unlink(missing_ok=True)
        self.owner_path(task_id).unlink(missing_ok=True)
        return target

    def remove_task(self, task_id: str) -> None:
        self.task_path(task_id).unlink(missing_ok=True)

    def log(self, worker_id: str, record: dict[str, Any]) -> None:
        """Append one execution record to the worker's JSONL log."""
        path = self.log_dir / f"{worker_id}.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()


class _LeaseHeartbeat:
    """Touches a claim file periodically while its job executes."""

    def __init__(
        self,
        spool: FileQueueSpool,
        task_id: str,
        interval: float,
        owner: str | None = None,
    ):
        self._spool = spool
        self._task_id = task_id
        self._owner = owner
        self._interval = max(0.01, float(interval))
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{task_id[:12]}", daemon=True
        )

    def __enter__(self) -> "_LeaseHeartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            if not self._spool.heartbeat(self._task_id, owner=self._owner):
                return  # claim vanished (batch cancelled / lease reclaimed)


class FileQueueWorker:
    """One worker: claim a task, execute it, publish the result, repeat.

    The same loop serves the ``repro-worker`` daemon (via :meth:`serve`) and
    in-process tests (via :meth:`run_once`).  ``execute`` is injectable so
    tests can steer timing and failures; the default resolves each spec's
    registered executor through :func:`repro.engine.core.execute_job`.

    ``tags`` declares this worker's capabilities (``repro-worker --tags``):
    a tagged worker only claims tasks whose declared requirements it covers
    (:func:`repro.engine.scheduler.capabilities_match`) — it skips the rest
    instead of claiming and poisoning them; ``None`` (untagged, the default)
    claims anything.
    """

    def __init__(
        self,
        spool: FileQueueSpool | str | Path,
        worker_id: str | None = None,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        heartbeat_interval: float | None = None,
        poll_interval: float = DEFAULT_WORKER_POLL_INTERVAL,
        execute: Callable[[Any], Any] | None = None,
        tags: Any = None,
    ):
        self.spool = spool if isinstance(spool, FileQueueSpool) else FileQueueSpool(spool)
        self.worker_id = worker_id or f"worker-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self.lease_timeout = float(lease_timeout)
        if self.lease_timeout <= 0:
            raise EngineError(f"lease_timeout must be positive, got {lease_timeout}")
        self.heartbeat_interval = (
            min(1.0, self.lease_timeout / 4.0)
            if heartbeat_interval is None
            else float(heartbeat_interval)
        )
        self.poll_interval = float(poll_interval)
        self._execute = execute
        self.tags = None if tags is None else frozenset(str(t) for t in tags)
        self.executed = 0
        self.failed = 0
        #: Executions whose publish lost the first-publisher race to the
        #: task's other owner (this worker's lease was reclaimed mid-job):
        #: the work ran but the result on disk is someone else's identical
        #: bytes.
        self.superseded = 0
        #: Tasks skipped because their requirements exceed this worker's tags.
        self.skipped = 0

    def _run_spec(self, spec: Any) -> Any:
        if self._execute is not None:
            return self._execute(spec)
        from repro.engine.core import execute_job  # late: registers built-in kinds

        return execute_job(spec)

    def run_once(self) -> str | None:
        """Claim and fully process one task; returns its id (None when idle).

        Tasks are tried in the fleet's claim order — priority descending,
        then oldest envelope first (:meth:`FileQueueSpool.pending`) — and a
        tagged worker skips, without claiming, any task whose requirements
        it does not cover, leaving it runnable for a capable fleet member.
        """
        for task in self.spool.pending():
            if not capabilities_match(task.requires, self.tags):
                self.skipped += 1
                continue  # not capable: leave it for a worker that is
            task_id = task.task_id
            claim = self.spool.claim(task_id, owner=self.worker_id)
            if claim is None:
                continue  # lost the race to another worker
            if self.spool.read_result(task_id) is not None:
                # A previous owner died between writing the result and
                # releasing the claim, and the task was reclaimed: the result
                # stands, nothing re-executes.
                self.spool.release(task_id, owner=self.worker_id)
                continue
            self._process(task_id, claim)
            return task_id
        return None

    def _process(self, task_id: str, claim: Path) -> None:
        started = time.time()
        try:
            spec = self.spool.load_envelope(claim.read_bytes())["spec"]
        except Exception as exc:
            # A poison task (unpicklable spec, unknown class in this worker's
            # environment) must produce a *result*, or it would bounce between
            # reclamation and claiming forever.
            record = {
                "status": "failed",
                "error_type": type(exc).__name__,
                "error_message": f"cannot load task envelope: {exc}",
                "duration_s": round(time.time() - started, 6),
            }
        else:
            with _LeaseHeartbeat(
                self.spool, task_id, self.heartbeat_interval, owner=self.worker_id
            ):
                record = execution_record(spec, self._run_spec)
        record.update(task_id=task_id, worker_id=self.worker_id)
        if not self.spool.publish_result(task_id, record):
            # Lost the first-publisher race: the owner that reclaimed this
            # task (or a prior owner that died after writing) already
            # resolved it with identical bytes.  The execution is
            # *discarded*, not counted — a job is executed-to-completion
            # exactly once in the logs.
            record["status"] = "superseded"
            self.superseded += 1
        elif record["status"] == "completed":
            self.executed += 1
        else:
            self.failed += 1
        self.spool.log(
            self.worker_id,
            {
                "event": "executed",
                "worker_id": self.worker_id,
                "task_id": task_id,
                "spec_hash": record.get("spec_hash"),
                "kind": record.get("kind"),
                "status": record["status"],
                "duration_s": round(time.time() - started, 6),
                "finished_at": utcnow_iso(),
            },
        )
        # Ownership-checked: if the lease was reclaimed mid-job and another
        # worker holds it now, leave the new owner's claim alone — the result
        # written above still resolves the task for both of us.
        self.spool.release(task_id, owner=self.worker_id)

    def serve(self, max_jobs: int | None = None) -> int:
        """Process tasks until told to stop; returns the number processed.

        Stops when the spool's ``stop`` sentinel appears or after ``max_jobs``
        tasks.  Between tasks the worker also reclaims stale leases, so any
        member of the fleet can recover another member's crash.
        """
        processed = 0
        while True:
            if self.spool.stop_requested():
                logger.info("worker %s: stop sentinel found, exiting", self.worker_id)
                break
            if max_jobs is not None and processed >= max_jobs:
                break
            task_id = self.run_once()
            if task_id is not None:
                processed += 1
                continue
            if self.spool.reclaim_stale(self.lease_timeout):
                continue
            time.sleep(self.poll_interval)
        return processed


def _serve_forked(
    log_fd: int, spool_root: Path, worker_id: str, lease_timeout: float, poll_interval: float
) -> None:
    """A spawned fleet member: the ``repro-worker`` loop in a child forked
    from the submitter, so it starts with the submitter's imported modules
    and executor registry instead of booting an interpreter."""
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, signal.SIG_DFL)  # not the submitter's handlers
    os.dup2(log_fd, 1)  # nothing a member prints reaches the submitter's output
    os.dup2(log_fd, 2)
    watch_parent()
    FileQueueWorker(
        spool_root, worker_id=worker_id, lease_timeout=lease_timeout, poll_interval=poll_interval
    ).serve()


class FileQueueTransport(Transport):
    """Submit engine batches to the spool and harvest the fleet's results.

    ``workers > 0`` forks that many local fleet members from this process at
    the first batch (:func:`_serve_forked`; POSIX only, and each member exits
    with its parent) and keeps them across batches until :meth:`close`: each
    batch replaces only members that have exited, and members that die
    while work remains are respawned, up to ``respawn_limit`` per batch.  A
    batch that ends with work outstanding stops the fleet too, so a
    withdrawn job still running can never hold a worker of the next batch.
    ``workers == 0`` relies entirely on externally launched daemons
    watching the same spool.  Each envelope carries the priority stamped on
    its spec by
    :func:`~repro.engine.scheduler.set_priority` (0 when unstamped); like all
    scheduling metadata it never enters a job hash.
    """

    name: ClassVar[str] = "filequeue"

    def __init__(
        self,
        spool_dir: str | Path,
        workers: int = 0,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        poll_interval: float = PipelineConfig.transport_poll_interval,
        respawn_limit: int = 5,
    ):
        self.lease_timeout = float(lease_timeout)
        if self.lease_timeout <= 0:
            # Same rule as the worker: a zero lease would requeue live
            # claims, and spawned workers would refuse to start.
            raise EngineError(f"lease_timeout must be positive, got {lease_timeout}")
        self.spool = FileQueueSpool(spool_dir)
        self.worker_count = max(0, int(workers))
        if self.worker_count and "fork" not in multiprocessing.get_all_start_methods():
            raise EngineError(
                "a local filequeue fleet is forked from the submitter, and this "
                "platform cannot fork; set transport_workers=0 and start "
                f"repro-worker daemons on {self.spool.root}"
            )
        self.poll_interval = max(0.005, float(poll_interval))
        self.respawn_limit = int(respawn_limit)
        self.workers: list[multiprocessing.Process] = []
        self._new_batch()

    def _new_batch(self) -> None:
        """Reset the per-batch counters :meth:`stats` reports."""
        self.batch_id = uuid.uuid4().hex[:8]
        self.reclaimed = 0
        self.respawned = 0
        #: Worker processes started for this batch (fleet top-ups and respawns).
        self.spawned = 0

    def run(self, specs: list[Any]) -> Generator[Completion, None, None]:
        """Enqueue ``specs``, then scan ``results/``, maintain, sleep, repeat."""
        if self.spool.stop_requested():
            # Submitting against a stopped spool can never finish: standing
            # workers exit on the sentinel and spawned ones die immediately.
            raise EngineError(
                f"spool {self.spool.root} has a 'stop' sentinel; remove "
                f"{self.spool.stop_path} before submitting new batches"
            )
        self._new_batch()
        outstanding: dict[str, int] = {}
        try:
            for index, spec in enumerate(specs):
                task_id = f"{self.batch_id}-{index:05d}-{spec.content_hash()[:16]}"
                # Scheduling metadata rides the envelope header, never the hash:
                # the spec's set_priority stamp, plus the capability tags a
                # claiming worker must declare.
                self.spool.enqueue(
                    task_id, spec,
                    priority=job_priority(spec),
                    requires=job_requirements(spec),
                )
                outstanding[task_id] = index
            self.workers = [proc for proc in self.workers if proc.is_alive()]
            for _ in range(self.worker_count - len(self.workers)):
                self._spawn_worker()
            logger.info(
                "filequeue %s: enqueued %d tasks under %s (%d spawned workers, %d new)",
                self.batch_id, len(outstanding), self.spool.root, len(self.workers),
                self.spawned,
            )
            if self.worker_count == 0:
                # An innocuous config (transport_workers=0, no external daemons)
                # would otherwise wait forever with no diagnostics.
                logger.warning(
                    "filequeue %s: no local workers spawned — the batch relies "
                    "entirely on external repro-worker daemons watching %s; "
                    "start one with: repro-worker %s",
                    self.batch_id, self.spool.root, self.spool.root,
                )
            bad_reads: dict[str, int] = {}
            last_activity = time.monotonic()
            while outstanding:
                completions = self._harvest(outstanding, bad_reads)
                if completions:
                    last_activity = time.monotonic()
                    yield from completions
                    continue
                self._maintain(len(outstanding))
                # Warn (periodically) when nothing is completing *and*
                # nothing is claimed: the signature of a fleet that is not
                # there at all.  A live claim is a worker mid-job: progress.
                now = time.monotonic()
                if now - last_activity >= _STALL_WARN_INTERVAL:
                    if not self.spool.claim_ids():
                        logger.warning(
                            "filequeue %s: no progress for %.0fs — %d tasks pending, "
                            "no live claims, %d spawned workers; are repro-worker "
                            "daemons watching %s?",
                            self.batch_id, now - last_activity, len(outstanding),
                            len(self.workers), self.spool.root,
                        )
                    last_activity = now  # re-arm: repeat the warning, don't spam it
                time.sleep(self.poll_interval)
        finally:
            # A batch ending with work outstanding withdraws it and stops the
            # spawned fleet: a withdrawn job may still be running there.
            # Results already on disk stay (an audit trail, and identical
            # bytes would be regenerated anyway); external daemons keep
            # serving other batches.
            if outstanding:
                for task_id in outstanding:
                    self.spool.remove_task(task_id)
                    self.spool.release(task_id)
                self._stop_fleet()

    def _spawn_worker(self) -> None:
        worker_id = f"{self.batch_id}-w{len(self.workers)}-{uuid.uuid4().hex[:4]}"
        # The child keeps its own descriptor of the log; ours closes here.
        with (self.spool.log_dir / f"{worker_id}.out").open("ab") as log:
            proc = multiprocessing.get_context("fork").Process(
                target=_serve_forked,
                args=(log.fileno(), self.spool.root, worker_id, self.lease_timeout,
                      max(0.02, min(self.poll_interval, 0.5))),
                name=worker_id,
                daemon=True,
            )
            proc.start()
        self.workers.append(proc)
        self.spawned += 1

    def _harvest(self, outstanding: dict[str, int], bad_reads: dict[str, int]) -> list[Completion]:
        """Pop and return the completions of every landed task."""
        completions: list[Completion] = []
        # One directory scan per cycle, not an open()+stat() per outstanding
        # task: a large sweep over a network filesystem (the natural home of
        # a shared spool) would otherwise pay thousands of round-trips per
        # poll interval just to learn that nothing landed yet.
        try:
            with os.scandir(self.spool.results_dir) as entries:
                landed = {e.name[: -len(".json")] for e in entries if e.name.endswith(".json")}
        except OSError:
            landed = set()
        for task_id in list(outstanding):
            if task_id not in landed:
                continue
            record = self.spool.read_result(task_id)
            if record is None:
                # Atomic writes make this near-impossible; cap the retries
                # so a hand-corrupted result cannot hang the batch.
                bad_reads[task_id] = bad_reads.get(task_id, 0) + 1
                if bad_reads[task_id] >= _MAX_BAD_RESULT_READS:
                    index = outstanding.pop(task_id)
                    # Quarantine the corrupt file (results/<id>.json.bad):
                    # left in place, a worker's result-exists check and the
                    # reclaimer's result-stands rule would treat the task as
                    # resolved forever while we just reported it failed.
                    quarantined = self.spool.quarantine_result(task_id)
                    logger.warning(
                        "filequeue %s: giving up on unreadable result for %s "
                        "after %d reads; quarantined to %s",
                        self.batch_id, task_id, _MAX_BAD_RESULT_READS,
                        quarantined or "<vanished>",
                    )
                    completions.append((
                        index, None,
                        RemoteJobError("SpoolError", f"unreadable result file for {task_id}"),
                    ))
                continue
            index = outstanding.pop(task_id)
            completions.append(record_completion(index, record, record.get("worker_id")))
        return completions

    def _maintain(self, remaining: int) -> None:
        """Between harvests: recover stale leases, keep the spawned fleet
        alive, and raise instead of waiting on a batch that cannot finish."""
        self.reclaimed += len(self.spool.reclaim_stale(self.lease_timeout))
        if self.spool.stop_requested():
            # Workers (spawned and external alike) exit between jobs on the
            # sentinel, so the rest of the batch can provably never finish —
            # and spawned replacements would exit immediately too, burning
            # respawn_limit on a misleading "workers died" error.
            raise EngineError(
                f"filequeue {self.batch_id}: spool {self.spool.root} was "
                f"stopped by an operator ({self.spool.stop_path} exists) with "
                f"{remaining} tasks outstanding; remove the "
                "sentinel and resume the session to finish the batch"
            )
        self._tend_fleet(remaining)

    def _tend_fleet(self, remaining: int) -> None:
        """Respawn spawned workers that exited while work remains (an
        external fleet has nothing spawned, so nothing to tend)."""
        for i, proc in enumerate(self.workers):
            if proc.is_alive():
                continue
            self.respawned += 1
            if self.respawned > self.respawn_limit:
                raise EngineError(
                    f"filequeue {self.batch_id}: spawned workers died "
                    f"{self.respawned} times (exit code {proc.exitcode}); "
                    f"see {self.spool.log_dir} for worker output"
                )
            logger.warning(
                "filequeue %s: worker exited with code %s while %d tasks remain; respawning",
                self.batch_id, proc.exitcode, remaining,
            )
            del self.workers[i]
            self._spawn_worker()
            return  # list mutated; the next maintenance pass checks the rest

    # -- teardown --------------------------------------------------------------------

    def close(self) -> None:
        """Withdraw the open batch and stop every spawned worker (idempotent)."""
        super().close()
        self._stop_fleet()

    def _stop_fleet(self) -> None:
        for proc in self.workers:
            if proc.is_alive():
                proc.terminate()
        for proc in self.workers:
            proc.join(timeout=5.0)
            if proc.exitcode is None:
                proc.kill()
                proc.join(timeout=5.0)
        self.workers = []

    def stats(self) -> dict[str, Any]:
        """The last batch's counters (for logs and the transport test battery).

        ``spawned`` counts the processes started for this batch;
        ``spawned_workers`` is the size of the spawned fleet.
        """
        return {
            "batch_id": self.batch_id,
            "reclaimed": self.reclaimed,
            "respawned": self.respawned,
            "spawned": self.spawned,
            "spawned_workers": len(self.workers),
        }

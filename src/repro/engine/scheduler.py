"""Fleet scheduling policy: priorities and capability tags.

The file-queue fleet (:mod:`repro.engine.transports.filequeue`) coordinates
entirely through atomic filesystem operations; *which* task a worker claims
next and *whether* it may claim it at all are pure policy decisions.
This module holds that policy so the spool, the worker loop and the
transport all schedule by the same rules:

**Priority classes.**  Every task envelope carries an integer ``priority``
(higher runs first; default 0).  It is orchestration metadata — stamped onto
a spec with :func:`set_priority`, the one way to set it — and **never enters
any job hash**: two submissions of the same spec at different priorities
share one content address, one cache entry, one result.

**Claim order.**  Workers scan the pending tasks once per poll and claim in
``(priority descending, envelope age descending, task id)`` order: the
highest priority class drains first, and within a class the oldest enqueue
wins — age judged by envelope mtime on the *spool's* clock (the transport's
measured clock offset is a constant shift, so it cannot reorder tasks; it
only expresses ages in spool time, like lease staleness).  Task *names* are
``{random batch id}-{index}-{hash}`` and play no part beyond deterministic
tie-breaking: name order across concurrent batches is random-prefix order,
which is exactly the starvation bug this module replaced.

**Capability tags.**  A worker started with ``repro-worker --tags ...``
declares the capabilities it has; a job declares the capabilities it needs
(:func:`job_requirements`: its kind, plus the backend name for folds pinned
to a concrete backend).  A tagged worker claims a task only when the task's
requirements are a subset of its tags — it *skips* tasks it cannot serve
instead of claiming and poisoning them.  An untagged worker (the default)
declares no restriction and claims anything.

None of this affects results: scheduling decides *where and when* a job
runs, never *what it computes* — the determinism harness asserts scheduler
on == scheduler off and heterogeneous fleet == homogeneous fleet,
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

#: Priority of a spec nobody stamped.
DEFAULT_PRIORITY = 0


# -- per-spec priority ----------------------------------------------------------------


def set_priority(spec: Any, priority: int) -> Any:
    """Stamp a scheduling priority onto ``spec`` (higher runs first).

    Stored outside the spec's dataclass fields, so it is invisible to
    equality and — crucially — to ``content_hash()``: priority is pure
    orchestration and must never split the cache by urgency.  Returns the
    spec for chaining.
    """
    object.__setattr__(spec, "_priority", int(priority))
    return spec


def job_priority(spec: Any) -> int:
    """The priority stamped on ``spec``, else :data:`DEFAULT_PRIORITY`."""
    return int(getattr(spec, "_priority", DEFAULT_PRIORITY))


# -- capability tags ------------------------------------------------------------------


def job_requirements(spec: Any) -> frozenset[str]:
    """The capability tags a worker must declare to claim this job.

    Always includes the job's kind (a worker fleet may be partitioned by
    workload: ``--tags dock`` machines with the docking stack, fold machines
    without it).  A fold pinned to a concrete backend additionally requires
    that backend's name, so an MPS-incapable worker never claims — and never
    poisons — an MPS fold; ``backend="auto"`` adds nothing (resolution
    happens on the worker and every full worker serves it).
    """
    requires = set()
    kind = getattr(spec, "kind", None)
    if kind:
        requires.add(str(kind))
    if kind == "fold":
        backend = getattr(getattr(spec, "config", None), "backend", None)
        if backend and backend != "auto":
            requires.add(str(backend))
    return frozenset(requires)


def capabilities_match(requires: Iterable[str], tags: Iterable[str] | None) -> bool:
    """Whether a worker with ``tags`` may claim a task needing ``requires``.

    ``tags=None`` is an *untagged* worker: no declared restriction, claims
    anything (the pre-scheduler default, and the common case).  A tagged
    worker claims only tasks whose requirements it covers.
    """
    if tags is None:
        return True
    return frozenset(requires) <= frozenset(tags)


def parse_tags(text: str | None) -> frozenset[str] | None:
    """``"mps, statevector"`` → ``{"mps", "statevector"}``; empty → ``None``.

    The ``repro-worker --tags`` parser: ``None`` / blank input means
    untagged (unrestricted), matching :func:`capabilities_match`.
    """
    if text is None:
        return None
    tags = frozenset(part.strip() for part in text.split(",") if part.strip())
    return tags or None


# -- claim order ----------------------------------------------------------------------


@dataclass(frozen=True)
class PendingTask:
    """One claimable task as the scheduler sees it: identity plus metadata."""

    task_id: str
    priority: int = DEFAULT_PRIORITY
    requires: frozenset[str] = field(default_factory=frozenset)
    #: Envelope age in seconds on the spool's clock (skew-corrected).
    age: float = 0.0


def order_pending(entries: Iterable[PendingTask]) -> list[PendingTask]:
    """The fleet's claim order: priority desc, oldest first, id tie-break.

    Age (not name) carries the FIFO guarantee: task names start with a
    random per-batch prefix, so name order across concurrent batches is
    arbitrary and can starve an earlier batch behind a later one.
    """
    return sorted(entries, key=lambda t: (-t.priority, -t.age, t.task_id))


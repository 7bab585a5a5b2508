"""The fleet-scheduler battery: claim order (priority classes + the age-order
FIFO fix), hash-neutral priority/requirement stamping, capability-tag
matching, exclusive result publication (first publisher wins, loser
superseded), and crash respawn against the respawn cap."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, ClassVar

import pytest

from repro.config import PipelineConfig
from repro.engine import (
    Engine,
    FileQueueSpool,
    FileQueueTransport,
    FileQueueWorker,
    capabilities_match,
    job_priority,
    job_requirements,
    parse_tags,
    register_executor,
    require_tags,
    set_priority,
)
from repro.engine.scheduler import (
    DEFAULT_PRIORITY,
    PendingTask,
    order_pending,
)
from repro.exceptions import EngineError

# -- a trivial picklable job kind of this module's own ------------------------------
# Its own kind, not test_transports' "echo": executors register process-wide
# at import time, so a shared kind would be won by whichever module imports last.


@dataclass(frozen=True)
class EchoSpec:
    name: str

    kind: ClassVar[str] = "sched_echo"

    def content_hash(self) -> str:
        return hashlib.sha256(f"sched_echo/v1\x1f{self.name}".encode("utf-8")).hexdigest()


class _FakeOutcome:
    def __init__(self, payload: dict[str, Any]):
        self._payload = payload

    def to_payload(self) -> dict[str, Any]:
        return self._payload


def _fake_execute(spec: EchoSpec) -> _FakeOutcome:
    return _FakeOutcome(
        {"spec_hash": spec.content_hash(), "schema": "sched_echo/v1", "name": spec.name}
    )


register_executor("sched_echo", _fake_execute, overwrite=True)

BASE_CONFIG = PipelineConfig(seed=5)


def _baseline_spec(method: str = "AF2"):
    from repro.engine import BaselineFoldSpec

    return BaselineFoldSpec(pdb_id="3eax", sequence="RYRDV", method=method, config=BASE_CONFIG)


# -- pure policy ---------------------------------------------------------------------


def test_order_pending_sorts_by_priority_then_age_then_id():
    entries = [
        PendingTask("c", priority=0, age=50.0),
        PendingTask("b", priority=5, age=1.0),
        PendingTask("a", priority=0, age=50.0),
        PendingTask("d", priority=0, age=90.0),
    ]
    assert [t.task_id for t in order_pending(entries)] == ["b", "d", "a", "c"]


def test_parse_tags_and_capabilities_match():
    assert parse_tags(None) is None
    assert parse_tags("") is None
    assert parse_tags(" , ") is None
    assert parse_tags("mps, statevector") == {"mps", "statevector"}
    # Untagged workers claim anything; tagged ones need a superset.
    assert capabilities_match({"fold", "mps"}, None)
    assert capabilities_match({"fold"}, {"fold", "dock"})
    assert not capabilities_match({"fold", "mps"}, {"fold"})
    assert capabilities_match(frozenset(), {"anything"})


def test_job_requirements_cover_kind_and_pinned_backend():
    assert job_requirements(EchoSpec("a")) == {"sched_echo"}
    auto = Engine(config=BASE_CONFIG.with_updates(backend="auto")).spec("2bok", "EDACQ")
    assert job_requirements(auto) == {"fold"}  # auto resolves on the worker
    pinned = Engine(config=BASE_CONFIG.with_updates(backend="mps")).spec("2bok", "EDACQ")
    assert job_requirements(pinned) == {"fold", "mps"}
    tagged = require_tags(EchoSpec("b"), "gpu", "licensed")
    assert job_requirements(tagged) == {"sched_echo", "gpu", "licensed"}


def test_priority_and_requirements_are_hash_neutral_and_survive_pickling():
    plain = _baseline_spec()
    stamped = set_priority(require_tags(_baseline_spec(), "mps"), 7)
    assert job_priority(plain) == DEFAULT_PRIORITY
    assert job_priority(stamped) == 7
    # Orchestration metadata must never split the cache or break equality.
    assert stamped.content_hash() == plain.content_hash()
    assert stamped == plain
    clone = pickle.loads(pickle.dumps(stamped))
    assert job_priority(clone) == 7
    assert "mps" in job_requirements(clone)


# -- spool claim order ---------------------------------------------------------------


def test_two_interleaved_batches_drain_by_age_not_batch_prefix(tmp_path):
    """The FIFO fix: task ids start with a random batch id, so name order
    across concurrent batches is arbitrary — a later batch whose prefix
    sorts first must not starve the earlier one."""
    spool = FileQueueSpool(tmp_path / "spool")
    now = time.time()
    # "zzz" (the older batch) sorts lexicographically *after* "aaa" (the
    # newer one); interleave their enqueue times.
    ages = {"zzz-00000-x": 40, "aaa-00000-x": 30, "zzz-00001-x": 20, "aaa-00001-x": 10}
    for task_id, age in ages.items():
        spool.enqueue(task_id, EchoSpec(task_id))
        stamp = now - age
        os.utime(spool.task_path(task_id), (stamp, stamp))
    assert spool.task_ids() == [
        "zzz-00000-x", "aaa-00000-x", "zzz-00001-x", "aaa-00001-x",
    ]


def test_priority_classes_claim_before_age_under_contention(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    now = time.time()
    for task_id, priority, age in [("low-old", 0, 40), ("high-new", 5, 10), ("mid", 2, 20)]:
        spool.enqueue(task_id, EchoSpec(task_id), priority=priority)
        stamp = now - age
        os.utime(spool.task_path(task_id), (stamp, stamp))
    ran: list[str] = []

    def recording(spec: EchoSpec) -> _FakeOutcome:
        ran.append(spec.name)
        return _fake_execute(spec)

    worker = FileQueueWorker(spool, worker_id="w", execute=recording)
    while worker.run_once():
        pass
    assert ran == ["high-new", "mid", "low-old"]


# -- capability tags -----------------------------------------------------------------


def test_tagged_worker_skips_tasks_it_cannot_serve_without_poisoning(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spec = require_tags(EchoSpec("needs-mps"), "mps")
    spool.enqueue("t-00000-x", spec, requires=job_requirements(spec))
    limited = FileQueueWorker(
        spool, worker_id="limited", tags={"sched_echo"}, execute=_fake_execute
    )
    assert limited.run_once() is None
    assert limited.skipped == 1 and limited.executed == 0
    # Skipped means *untouched*: still claimable, no claim, no poison result.
    assert spool.task_ids() == ["t-00000-x"]
    assert spool.claim_ids() == []
    assert spool.read_result("t-00000-x") is None
    capable = FileQueueWorker(
        spool, worker_id="capable", tags={"sched_echo", "mps"}, execute=_fake_execute
    )
    assert capable.run_once() == "t-00000-x"
    record = spool.read_result("t-00000-x")
    assert record["status"] == "completed" and record["worker_id"] == "capable"


# -- exclusive publication ----------------------------------------------------------


def test_publish_result_first_publisher_wins(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    assert spool.publish_result("t1", {"status": "completed", "winner": 1}) is True
    assert spool.publish_result("t1", {"status": "completed", "winner": 2}) is False
    assert spool.read_result("t1")["winner"] == 1
    # No temp-file litter either way.
    assert [p.name for p in spool.results_dir.iterdir()] == ["t1.json"]


def test_losing_publisher_logs_superseded_not_completed(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("twin-task", EchoSpec("twin"))
    worker = FileQueueWorker(spool, worker_id="loser", execute=_fake_execute)
    claim = spool.claim("twin-task", owner="loser")
    # Another owner of the task resolves it while this worker executes.
    assert spool.publish_result(
        "twin-task",
        {"task_id": "twin-task", "worker_id": "winner", "status": "completed", "payload": {}},
    )
    worker._process("twin-task", claim)
    assert worker.superseded == 1 and worker.executed == 0 and worker.failed == 0
    records = [
        json.loads(line)
        for line in (spool.log_dir / "loser.jsonl").read_text().splitlines()
    ]
    assert [r["status"] for r in records] == ["superseded"]
    assert spool.read_result("twin-task")["worker_id"] == "winner"


# -- fleet tending -------------------------------------------------------------------


class _FakeProc:
    def __init__(self):
        self.returncode = None

    def poll(self):
        return self.returncode


def test_fleet_respawns_crashed_workers_up_to_the_cap(tmp_path):
    transport = FileQueueTransport(tmp_path / "spool", workers=1, respawn_limit=2)
    spawned: list[_FakeProc] = []

    def fake_spawn() -> None:
        proc = _FakeProc()
        spawned.append(proc)
        transport.workers.append(proc)

    transport._spawn_worker = fake_spawn
    transport.submit([EchoSpec("a"), EchoSpec("b"), EchoSpec("c")])
    transport._tend_fleet()
    assert len(spawned) == 1 and transport.respawned == 0  # a live worker is left alone
    # A crash (nonzero exit) is replaced and burns the respawn budget ...
    for expected in (1, 2):
        transport.workers[0].returncode = 1
        transport._tend_fleet()
        assert transport.respawned == expected and len(transport.workers) == 1
    # ... and exhausting it raises.
    transport.workers[0].returncode = 1
    with pytest.raises(EngineError, match="died"):
        transport._tend_fleet()
    assert len(spawned) == 3


def test_external_fleet_is_left_alone(tmp_path):
    transport = FileQueueTransport(tmp_path / "spool", workers=0)
    transport.submit([EchoSpec("a"), EchoSpec("b")])
    transport._tend_fleet()
    assert transport.workers == [] and transport.respawned == 0


# -- transport stats surface through the session -------------------------------------


def test_session_summary_carries_transport_stats(tmp_path):
    config = BASE_CONFIG.with_updates(
        transport="filequeue",
        spool_dir=str(tmp_path / "spool"),
        transport_workers=1,
        transport_lease_timeout=10.0,
        transport_poll_interval=0.02,
    )
    engine = Engine(config=config, cache=None)
    session = engine.submit([set_priority(_baseline_spec(m), 3) for m in ("AF2", "AF3")])
    results = session.results()
    assert len(results) == 2
    stats = session.summary()["transport"]
    assert stats["outstanding"] == 0
    assert {"reclaimed", "respawned"} <= set(stats)

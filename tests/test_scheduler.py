"""The fleet-scheduler battery: claim order (priority classes + the age-order
FIFO fix), hash-neutral priority stamping, capability-tag
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

from _support import drive, stop_and_join, wait_until
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


def test_priority_and_requirements_are_hash_neutral_and_survive_pickling():
    plain = _baseline_spec()
    stamped = set_priority(_baseline_spec(), 7)
    assert job_priority(plain) == DEFAULT_PRIORITY
    assert job_priority(stamped) == 7
    # Orchestration metadata must never split the cache or break equality.
    assert stamped.content_hash() == plain.content_hash()
    assert stamped == plain
    clone = pickle.loads(pickle.dumps(stamped))
    assert job_priority(clone) == 7


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
    spool.enqueue("t-00000-x", EchoSpec("needs-mps"), requires={"sched_echo", "mps"})
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
        self.exitcode = None

    def is_alive(self):
        return self.exitcode is None

    def join(self, timeout=None):
        pass


def test_fleet_respawns_crashed_workers_up_to_the_cap(tmp_path):
    transport = FileQueueTransport(tmp_path / "spool", workers=1, respawn_limit=2)
    spawned: list[_FakeProc] = []

    def fake_spawn() -> None:
        proc = _FakeProc()
        spawned.append(proc)
        transport.workers.append(proc)

    transport._spawn_worker = fake_spawn
    fake_spawn()  # the fleet a batch starts with
    transport._tend_fleet(remaining=3)
    assert len(spawned) == 1 and transport.respawned == 0  # a live worker is left alone
    # A crash (nonzero exit) is replaced and burns the respawn budget ...
    for expected in (1, 2):
        transport.workers[0].exitcode = 1
        transport._tend_fleet(remaining=3)
        assert transport.respawned == expected and len(transport.workers) == 1
    # ... and exhausting it raises.
    transport.workers[0].exitcode = 1
    with pytest.raises(EngineError, match="died"):
        transport._tend_fleet(remaining=3)
    assert len(spawned) == 3


def test_a_batch_ends_when_its_fleet_cannot_be_respawned(tmp_path):
    """The respawn cap reaches the stream: a fleet that keeps dying raises
    out of the batch, which withdraws its tasks."""
    transport = FileQueueTransport(
        tmp_path / "spool", workers=1, respawn_limit=1, poll_interval=0.01
    )

    def dead_spawn() -> None:
        proc = _FakeProc()
        proc.exitcode = 1
        transport.workers.append(proc)
        transport.spawned += 1

    transport._spawn_worker = dead_spawn
    with pytest.raises(EngineError, match="died 2 times"):
        list(transport.stream([EchoSpec("a"), EchoSpec("b")]))
    assert transport.spool.task_ids() == [] and transport.workers == []
    assert transport.respawned == 2


def test_external_fleet_is_left_alone(tmp_path):
    """A batch on an external fleet (``workers=0``) spawns and tends nothing."""
    transport = FileQueueTransport(tmp_path / "spool", workers=0, poll_interval=0.01)
    thread, _, errors = drive(transport.stream([EchoSpec("a"), EchoSpec("b")]))
    wait_until(transport.spool.task_ids)
    time.sleep(0.05)  # a few maintenance passes over the idle batch
    assert transport.workers == [] and transport.spawned == 0 and transport.respawned == 0
    stop_and_join(transport, thread, errors)


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
    assert {"reclaimed", "respawned", "spawned"} <= set(stats)


def test_transport_stats_are_per_batch_on_one_engine_fleet(tmp_path):
    """Two sessions share one spawned fleet; each reports its own batch."""
    config = BASE_CONFIG.with_updates(
        transport="filequeue",
        spool_dir=str(tmp_path / "spool"),
        transport_workers=2,
        transport_lease_timeout=10.0,
        transport_poll_interval=0.02,
    )
    with Engine(config=config, cache=None) as engine:
        first = engine.submit([_baseline_spec("AF2")])
        first.results()
        second = engine.submit([_baseline_spec("AF3")])
        second.results()
    stats = [first.summary()["transport"], second.summary()["transport"]]
    assert stats[0]["batch_id"] != stats[1]["batch_id"]
    assert [s["spawned"] for s in stats] == [2, 0]
    assert [(s["reclaimed"], s["respawned"]) for s in stats] == [(0, 0)] * 2

"""The executor-transport test battery: the registry, the serial and
pool transports, and the adversarial file-queue cases — single-winner claims,
lease expiry, stale-lease reclamation, heartbeats, dead-worker replay, poison
tasks and the repro-worker CLI."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, ClassVar

import pytest

from _support import drive, orphans_of_killed_parent, stop_and_join, wait_until
from repro.cli.worker import main as worker_cli_main
from repro.config import PipelineConfig
from repro.engine import (
    Engine,
    FileQueueSpool,
    FileQueueTransport,
    FileQueueWorker,
    JobFailure,
    PoolTransport,
    RemoteJobError,
    SerialTransport,
    make_transport,
    register_executor,
)
from repro.engine import registry
from repro.engine.core import execute_baseline_job
from repro.exceptions import EngineError
from repro.serve import ReproServer
from repro.utils.io import _NumpyJSONEncoder

# -- a trivial picklable job kind for the local transports ---------------------------


@dataclass(frozen=True)
class EchoSpec:
    """A spec whose executor returns its name (and crashes on ``boom*``)."""

    name: str

    kind: ClassVar[str] = "echo"

    def content_hash(self) -> str:
        return hashlib.sha256(f"echo/v1\x1f{self.name}".encode("utf-8")).hexdigest()


@dataclass
class EchoResult:
    spec_hash: str
    name: str
    from_cache: bool = False
    kind: str = "echo"

    def shallow_copy(self) -> "EchoResult":
        return replace(self)


def execute_echo(spec: EchoSpec) -> EchoResult:
    if spec.name.startswith("boom"):
        raise ValueError(f"echo job {spec.name} exploded")
    if spec.name.startswith("slow"):
        time.sleep(30.0)  # outlives any test that abandons it
    return EchoResult(spec_hash=spec.content_hash(), name=spec.name)


register_executor("echo", execute_echo, overwrite=True)


@dataclass(frozen=True)
class PoisonHashSpec:
    """Unpickles fine, but fingerprinting it explodes (the crash-loop bug)."""

    name: str

    kind: ClassVar[str] = "echo"

    def content_hash(self) -> str:
        raise RuntimeError(f"hash of {self.name} exploded")


class _FakeOutcome:
    """A minimal result object for injected-execute worker tests."""

    def __init__(self, payload: dict[str, Any]):
        self._payload = payload

    def to_payload(self) -> dict[str, Any]:
        return self._payload


def _fake_execute(spec: EchoSpec) -> _FakeOutcome:
    return _FakeOutcome({"spec_hash": spec.content_hash(), "schema": "echo/v1", "name": spec.name})


BASE_CONFIG = PipelineConfig(seed=5)


def _baseline_spec(pdb_id: str = "3eax", sequence: str = "RYRDV", method: str = "AF2"):
    from repro.engine import BaselineFoldSpec

    return BaselineFoldSpec(pdb_id=pdb_id, sequence=sequence, method=method, config=BASE_CONFIG)


def _canonical(outcome) -> str:
    return json.dumps(outcome.to_payload(), sort_keys=True, cls=_NumpyJSONEncoder)


# -- resolution by name ------------------------------------------------------------


def test_transport_registry_and_auto_resolution():
    config = PipelineConfig()
    assert isinstance(make_transport("serial", config), SerialTransport)
    assert isinstance(make_transport("pool", config, processes=2), PoolTransport)
    assert isinstance(make_transport("auto", config, processes=0), SerialTransport)
    assert isinstance(make_transport("auto", config, processes=4), PoolTransport)
    # None resolves through config.transport (default "auto").
    assert isinstance(make_transport(None, config, processes=0), SerialTransport)
    with pytest.raises(
        EngineError, match="unknown transport 'teleport'; transports: auto, filequeue, network, pool, serial"
    ):
        make_transport("teleport", config)
    with pytest.raises(EngineError, match="spool_dir"):
        make_transport("filequeue", config)  # filequeue is never implicit
    with pytest.raises(EngineError, match="serve_port"):
        make_transport("network", config.with_updates(serve_port=0))  # nor is network


# -- serial transport ----------------------------------------------------------------


def test_serial_transport_polls_in_submission_order():
    transport = SerialTransport()
    completions = list(transport.stream([EchoSpec("a"), EchoSpec("b"), EchoSpec("c")]))
    assert [index for index, _, _ in completions] == [0, 1, 2]
    assert [result.name for _, result, _ in completions] == ["a", "b", "c"]
    # Batches run one after another on the same transport, never overlapping.
    running = transport.stream([EchoSpec("again"), EchoSpec("more")])
    assert next(running)[1].name == "again"
    with pytest.raises(EngineError, match="one batch at a time"):
        next(transport.stream([EchoSpec("overlap")]))
    assert [result.name for _, result, _ in running] == ["more"]


def test_serial_transport_isolates_exceptions_and_cancels():
    transport = SerialTransport()
    stream = transport.stream([EchoSpec("a"), EchoSpec("boom"), EchoSpec("b")])
    _, result, exc = next(stream)
    assert result.name == "a" and exc is None
    index, result, exc = next(stream)
    assert (index, result) == (1, None)
    assert isinstance(exc, ValueError)
    stream.close()  # abandon "b"
    assert list(stream) == []
    # The closed batch is over: the next one is not refused.
    assert [result.name for _, result, _ in transport.stream([EchoSpec("c")])] == ["c"]


# -- pool transport ------------------------------------------------------------------


def test_pool_transport_completes_every_item():
    transport = PoolTransport(processes=2)
    specs = [EchoSpec(f"job{i}") for i in range(4)]
    completions = list(transport.stream(specs))
    assert {index for index, _, _ in completions} == {0, 1, 2, 3}
    for index, result, exc in completions:
        assert exc is None
        assert result.name == f"job{index}"
    transport.close()  # idempotent after the stream's own teardown


def test_pool_transport_degrades_to_inprocess_for_a_single_job(monkeypatch):
    """One pending job (e.g. a resume's last stray) never pays for a pool —
    it runs in the calling process, where runtime registrations stay live."""
    import repro.engine.transports.local as local

    def no_pool(*args, **kwargs):
        raise AssertionError("a single-job batch built a ProcessPoolExecutor")

    monkeypatch.setattr(local, "ProcessPoolExecutor", no_pool)
    transport = PoolTransport(processes=4)
    completions = list(transport.stream([EchoSpec("only")]))
    assert completions[0][1].name == "only"


def test_pool_transport_ships_exceptions_back():
    transport = PoolTransport(processes=2)
    completions = list(transport.stream([EchoSpec("boom0"), EchoSpec("ok")]))
    by_index = {index: (result, exc) for index, result, exc in completions}
    assert isinstance(by_index[0][1], ValueError)
    assert by_index[1][0].name == "ok"


# -- spool mechanics: claims are single-winner atomic renames ------------------------


def test_spool_claim_is_single_winner(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    assert spool.task_ids() == ["t1"]
    claim = spool.claim("t1")
    assert claim is not None and claim.exists()
    assert spool.task_ids() == []
    assert spool.claim("t1") is None  # the second claimant loses the rename race
    assert spool.claim_ids() == ["t1"]
    spool.release("t1")
    assert spool.claim_ids() == []


def test_fresh_lease_is_not_reclaimed(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    spool.claim("t1")
    assert spool.reclaim_stale(lease_timeout=30.0) == []
    assert spool.claim_ids() == ["t1"]


def test_stale_lease_is_reclaimed_exactly_once(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    claim = spool.claim("t1")
    stale = time.time() - 100
    os.utime(claim, (stale, stale))
    assert spool.reclaim_stale(lease_timeout=5.0) == ["t1"]
    assert spool.task_ids() == ["t1"] and spool.claim_ids() == []
    # A second (racing) reclaimer finds nothing left to requeue.
    assert spool.reclaim_stale(lease_timeout=5.0) == []


def test_stale_claim_with_result_is_dropped_not_requeued(tmp_path):
    """A worker that died *after* publishing its result: the result stands."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    claim = spool.claim("t1")
    assert spool.publish_result("t1", {"task_id": "t1", "status": "completed", "payload": {}})
    stale = time.time() - 100
    os.utime(claim, (stale, stale))
    assert spool.reclaim_stale(lease_timeout=5.0) == []
    assert spool.task_ids() == [] and spool.claim_ids() == []
    assert spool.read_result("t1")["status"] == "completed"


def test_heartbeat_refreshes_the_lease_mtime(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    claim = spool.claim("t1")
    stale = time.time() - 100
    os.utime(claim, (stale, stale))
    assert spool.heartbeat("t1")
    assert spool.reclaim_stale(lease_timeout=5.0) == []
    spool.release("t1")
    assert not spool.heartbeat("t1")  # no claim left to refresh


def test_claim_restarts_the_lease_clock(tmp_path):
    """Rename preserves the task file's mtime — the *enqueue* time — so a
    task that queued longer than the lease timeout must be re-stamped at
    claim time, not reclaimed from its live claimant before the first
    heartbeat fires (the born-stale duplicate-execution bug)."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    old = time.time() - 100  # waited in the queue far longer than any lease
    os.utime(spool.task_path("t1"), (old, old))
    assert spool.claim("t1", owner="w1") is not None
    assert spool.reclaim_stale(lease_timeout=5.0) == []  # lease is fresh
    assert spool.claim_ids() == ["t1"]
    assert spool.claim_owner("t1") == "w1"


def test_claim_lost_before_the_lease_touch_returns_none(tmp_path, monkeypatch):
    """A reclaimer can steal a just-renamed claim in the window before the
    lease touch lands (the preserved enqueue mtime looks stale).  The
    claimant must see a lost claim — processing the dangling path would
    publish a spurious 'cannot load task envelope' failure for a perfectly
    runnable task."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    real_utime = os.utime

    def reclaimed_under_us(path, *args, **kwargs):
        claim = spool.claim_path("t1")
        if Path(path) == claim:
            claim.rename(spool.task_path("t1"))  # the racing reclaimer
            raise FileNotFoundError(path)
        return real_utime(path, *args, **kwargs)

    monkeypatch.setattr(os, "utime", reclaimed_under_us)
    assert spool.claim("t1", owner="w1") is None
    assert spool.task_ids() == ["t1"]  # still runnable for the fleet
    assert spool.read_result("t1") is None  # and nobody poisoned it


def test_reclaimed_lease_belongs_to_its_new_owner(tmp_path):
    """After a reclaim + re-claim, the previous claimant (alive but presumed
    dead) must neither refresh nor unlink the new owner's claim."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    claim = spool.claim("t1", owner="w1")
    stale = time.time() - 100
    os.utime(claim, (stale, stale))  # w1 stops heartbeating (or so it looks)
    assert spool.reclaim_stale(lease_timeout=5.0) == ["t1"]
    assert spool.claim("t1", owner="w2") is not None
    assert spool.claim_owner("t1") == "w2"
    assert not spool.heartbeat("t1", owner="w1")  # zombie can't extend it
    assert not spool.release("t1", owner="w1")  # ...or destroy it
    assert spool.claim_ids() == ["t1"]  # w2's live claim is untouched
    assert spool.heartbeat("t1", owner="w2")
    assert spool.release("t1", owner="w2")
    assert spool.claim_ids() == []


# -- the worker loop -----------------------------------------------------------------


def test_worker_executes_and_publishes_result(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0, execute=_fake_execute)
    assert worker.run_once() == "t1"
    record = spool.read_result("t1")
    assert record["status"] == "completed"
    assert record["worker_id"] == "w1"
    assert record["payload"]["name"] == "a"
    # The spool alone tells how long each job ran.
    assert isinstance(record["duration_s"], float)
    assert spool.claim_ids() == [] and spool.task_ids() == []
    log_lines = (spool.log_dir / "w1.jsonl").read_text().splitlines()
    assert len(log_lines) == 1
    assert json.loads(log_lines[0])["status"] == "completed"
    assert worker.run_once() is None  # queue drained


def test_worker_publishes_failures_with_the_original_error_type(tmp_path):
    def explode(spec):
        raise ValueError("kapow")

    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0, execute=explode)
    assert worker.run_once() == "t1"
    record = spool.read_result("t1")
    assert record["status"] == "failed"
    assert record["error_type"] == "ValueError"
    assert "kapow" in record["error_message"]
    assert worker.failed == 1 and worker.executed == 0
    assert spool.claim_ids() == []  # the lease is released either way


def test_worker_skips_a_task_whose_result_already_exists(tmp_path):
    """The crash window between result write and claim release never re-runs."""
    calls: list[str] = []

    def recording(spec):
        calls.append(spec.name)
        return _fake_execute(spec)

    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    assert spool.publish_result(
        "t1", {"task_id": "t1", "status": "completed", "payload": {"x": 1}}
    )
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0, execute=recording)
    assert worker.run_once() is None
    assert calls == []  # nothing re-executed
    assert spool.task_ids() == [] and spool.claim_ids() == []
    assert spool.read_result("t1")["payload"] == {"x": 1}  # the old result stands


def test_worker_poisons_an_unreadable_task_instead_of_looping(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool._atomic_write(spool.task_path("bad"), b"this is not a pickle")
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0, execute=_fake_execute)
    assert worker.run_once() == "bad"
    record = spool.read_result("bad")
    assert record["status"] == "failed"
    assert "cannot load task envelope" in record["error_message"]
    assert spool.task_ids() == []  # it will not bounce back into the queue


def test_worker_serialises_numpy_payloads_like_the_cache(tmp_path):
    """A payload with numpy scalars/arrays (legal in cache files) must cross
    the spool too, not crash the worker at result-write time."""
    import numpy as np

    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    payload = {"spec_hash": "x", "schema": "echo/v1",
               "value": np.float64(1.5), "coords": np.arange(3.0)}
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0,
                             execute=lambda spec: _FakeOutcome(payload))
    assert worker.run_once() == "t1"
    record = spool.read_result("t1")
    assert record["status"] == "completed"
    assert record["payload"]["value"] == 1.5
    assert record["payload"]["coords"] == [0.0, 1.0, 2.0]


def test_worker_turns_an_unserialisable_payload_into_a_failure(tmp_path):
    """A result that cannot be encoded resolves the task as failed instead of
    killing the worker and crash-looping the fleet on the reclaimed lease."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    worker = FileQueueWorker(
        spool, worker_id="w1", lease_timeout=5.0,
        execute=lambda spec: _FakeOutcome({"oops": object()}),
    )
    assert worker.run_once() == "t1"
    record = spool.read_result("t1")
    assert record["status"] == "failed"
    assert "not JSON-serialisable" in record["error_message"]
    assert spool.task_ids() == [] and spool.claim_ids() == []


def test_worker_survives_a_spec_whose_content_hash_raises(tmp_path):
    """The fleet crash-loop regression: a spec that unpickles but whose
    ``content_hash()`` raises used to kill the worker before any heartbeat —
    the lease went stale, the next fleet member died the same way, and one
    task burned the entire respawn budget.  It must resolve as a failed
    *result*, exactly like an unpicklable envelope."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("1-poison", PoisonHashSpec("p"))
    spool.enqueue("2-good", EchoSpec("a"))
    worker = FileQueueWorker(spool, worker_id="w1", lease_timeout=5.0, execute=_fake_execute)
    assert worker.run_once() == "1-poison"  # no exception escaped
    record = spool.read_result("1-poison")
    assert record["status"] == "failed"
    assert record["error_type"] == "RuntimeError"
    assert "cannot fingerprint job spec" in record["error_message"]
    assert "exploded" in record["error_message"]
    # The same worker keeps serving — no crash, no stale lease left behind.
    assert worker.run_once() == "2-good"
    assert spool.read_result("2-good")["status"] == "completed"
    assert spool.task_ids() == [] and spool.claim_ids() == []
    assert worker.failed == 1 and worker.executed == 1


def test_worker_heartbeat_keeps_a_long_job_leased(tmp_path):
    """Reclamation must never steal a lease whose worker is alive but slow."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("slow"))
    finish = threading.Event()

    def slow(spec):
        finish.wait(timeout=5.0)
        return _fake_execute(spec)

    worker = FileQueueWorker(
        spool, worker_id="w1", lease_timeout=0.3, heartbeat_interval=0.05, execute=slow
    )
    thread = threading.Thread(target=worker.run_once, daemon=True)
    thread.start()
    deadline = time.monotonic() + 0.9  # three lease lifetimes
    stolen = []
    while time.monotonic() < deadline:
        stolen.extend(spool.reclaim_stale(lease_timeout=0.3))
        time.sleep(0.05)
    finish.set()
    thread.join(timeout=5.0)
    assert stolen == []  # the heartbeat kept the lease fresh throughout
    assert spool.read_result("t1")["status"] == "completed"


def test_dead_workers_job_is_replayed_exactly_once(tmp_path):
    """SIGKILL mid-job: the stale lease requeues and one survivor re-runs it."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("t1", EchoSpec("a"))
    claim = spool.claim("t1")  # a worker claimed it, then died without a result
    stale = time.time() - 100
    os.utime(claim, (stale, stale))

    survivor = FileQueueWorker(spool, worker_id="w2", lease_timeout=5.0, execute=_fake_execute)
    assert survivor.run_once() is None  # still leased until someone reclaims
    assert spool.reclaim_stale(lease_timeout=5.0) == ["t1"]
    assert survivor.run_once() == "t1"
    assert survivor.run_once() is None  # replayed once, not twice
    assert spool.read_result("t1")["status"] == "completed"
    log_lines = (spool.log_dir / "w2.jsonl").read_text().splitlines()
    assert len(log_lines) == 1  # exactly one completed execution on the fleet


def test_zombie_worker_finish_spares_the_new_owners_claim(tmp_path):
    """A worker whose lease was reclaimed mid-job can still finish.  Finishing
    before its replacement, it must not unlink the claim the replacement now
    holds — that would invite a third execution.  Finishing after it, its
    publish is refused and it logs ``superseded``: exactly one execution of
    the task is logged ``completed``."""
    spool = FileQueueSpool(tmp_path / "spool")

    def stall_and_steal(task_id):
        """w1 claims ``task_id`` and stalls mid-job; w2 takes over its lease."""
        spool.enqueue(task_id, EchoSpec(task_id))
        running, gate = threading.Event(), threading.Event()

        def slow(spec):
            running.set()
            gate.wait(timeout=5.0)
            return _fake_execute(spec)

        zombie = FileQueueWorker(
            spool, worker_id="w1", lease_timeout=5.0, heartbeat_interval=60.0, execute=slow
        )
        thread = threading.Thread(target=zombie.run_once, daemon=True)
        thread.start()
        assert running.wait(timeout=5.0)
        assert spool.claim_owner(task_id) == "w1"
        # Mid-job, the lease looks stale (no heartbeat yet) and is stolen:
        stale = time.time() - 100
        os.utime(spool.claim_path(task_id), (stale, stale))
        assert spool.reclaim_stale(lease_timeout=5.0) == [task_id]
        claim = spool.claim(task_id, owner="w2")
        assert claim is not None
        return zombie, thread, gate, claim

    # The zombie finishes first.
    _, thread, gate, _ = stall_and_steal("t1")
    gate.set()
    thread.join(timeout=5.0)
    assert spool.read_result("t1")["status"] == "completed"  # w1 published
    assert spool.claim_ids() == ["t1"]  # but left w2's live claim alone
    assert spool.claim_owner("t1") == "w2"
    assert spool.release("t1", owner="w2")

    # The new owner finishes first.
    zombie, thread, gate, claim = stall_and_steal("t2")
    FileQueueWorker(spool, worker_id="w2", execute=_fake_execute)._process("t2", claim)
    gate.set()
    thread.join(timeout=5.0)
    assert zombie.superseded == 1 and zombie.executed == 0
    assert spool.read_result("t2")["worker_id"] == "w2"
    statuses = [
        json.loads(line)["status"]
        for log in spool.log_dir.glob("*.jsonl")
        for line in log.read_text().splitlines()
        if json.loads(line)["task_id"] == "t2"
    ]
    assert sorted(statuses) == ["completed", "superseded"]
    assert spool.claim_ids() == [] and spool.task_ids() == []


def test_worker_serve_honours_stop_sentinel_and_max_jobs(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.stop_path.touch()
    worker = FileQueueWorker(spool, lease_timeout=5.0, execute=_fake_execute)
    assert worker.serve() == 0  # exits immediately, processes nothing

    spool.stop_path.unlink()
    for i in range(3):
        spool.enqueue(f"t{i}", EchoSpec(f"j{i}"))
    assert worker.serve(max_jobs=2) == 2
    assert len(spool.task_ids()) == 1  # the third task is left for the fleet


# -- the filequeue transport ---------------------------------------------------------


def test_filequeue_transport_withdraws_unclaimed_tasks_on_early_exit(tmp_path):
    """Closing a batch early withdraws the task no worker has claimed."""
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=5.0,
                                   poll_interval=0.01)
    worker = FileQueueWorker(transport.spool, lease_timeout=5.0, poll_interval=0.01)
    thread = threading.Thread(target=worker.serve, kwargs={"max_jobs": 1}, daemon=True)
    thread.start()
    stream = transport.stream([_baseline_spec(method="AF2"), _baseline_spec(method="AF3")])
    _, result, exc = next(stream)  # one worker job, then the other task waits
    thread.join(timeout=30.0)
    assert not thread.is_alive() and exc is None
    assert len(transport.spool.task_ids()) == 1
    stream.close()
    assert transport.spool.task_ids() == []  # the unclaimed task was withdrawn
    transport.close()  # idempotent


def test_filequeue_transport_refuses_a_stopped_spool(tmp_path):
    """Submitting against a spool whose fleet was wound down would hang
    forever (workers=0) or crash-loop respawns — refuse it up front."""
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=5.0)
    transport.spool.stop_path.touch()
    with pytest.raises(EngineError, match="stop"):
        next(transport.stream([_baseline_spec()]))
    assert transport.spool.task_ids() == []  # nothing was enqueued


def test_filequeue_transport_raises_when_spool_stopped_mid_batch(tmp_path):
    """A 'stop' sentinel appearing mid-batch means the rest of the batch can
    never finish; the stream must say so instead of burning respawn_limit
    (spawned workers exit 0 on the sentinel) or hanging forever (external
    fleets)."""
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=5.0,
                                   poll_interval=0.01)
    thread, completions, errors = drive(transport.stream([_baseline_spec()]))
    wait_until(transport.spool.task_ids)
    stop_and_join(transport, thread, errors)
    assert isinstance(errors[0], EngineError) and completions == []


def test_filequeue_transport_warns_on_external_reliance_and_stall(tmp_path, caplog, monkeypatch):
    """workers=0 with no external daemons must not hang silently: the batch
    warns about the reliance at its start and periodically while stalled."""
    import repro.engine.transports.filequeue as fq

    monkeypatch.setattr(fq, "_STALL_WARN_INTERVAL", 0.05)
    monkeypatch.setattr(fq.logger, "propagate", True)  # let caplog see it
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=5.0,
                                   poll_interval=0.01)
    with caplog.at_level("WARNING", logger=fq.logger.name):
        thread, completions, errors = drive(transport.stream([_baseline_spec()]))
        wait_until(lambda: any("no progress for" in r.getMessage() for r in caplog.records))
        stop_and_join(transport, thread, errors)
    messages = [record.getMessage() for record in caplog.records]
    assert any("relies entirely on external repro-worker daemons" in m for m in messages)
    assert completions == []


def test_filequeue_transport_end_to_end_with_inprocess_worker(tmp_path):
    specs = [_baseline_spec(method="AF2"), _baseline_spec(method="AF3")]
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=5.0,
                                   poll_interval=0.01)
    worker = FileQueueWorker(transport.spool, lease_timeout=5.0, poll_interval=0.01)
    thread = threading.Thread(target=worker.serve, kwargs={"max_jobs": 2}, daemon=True)
    thread.start()
    completions = sorted(transport.stream(specs), key=lambda c: c[0])
    thread.join(timeout=30.0)

    assert [index for index, _, _ in completions] == [0, 1]
    for (index, result, exc), spec in zip(completions, specs):
        assert exc is None
        assert not result.from_cache  # executed remotely, not a cache hit
        assert _canonical(result) == _canonical(execute_baseline_job(spec))


@pytest.mark.parametrize("lease_timeout", [0, -1])
def test_filequeue_transport_rejects_a_non_positive_lease_timeout(tmp_path, lease_timeout):
    """A zero lease would requeue live claims, and spawned workers would
    refuse to start and burn the respawn budget: refuse it up front."""
    config = BASE_CONFIG.with_updates(
        transport="filequeue",
        spool_dir=str(tmp_path / "spool"),
        transport_lease_timeout=lease_timeout,
    )
    with pytest.raises(EngineError, match="lease_timeout must be positive"):
        make_transport("filequeue", config, processes=0)
    with pytest.raises(EngineError, match="lease_timeout must be positive"):
        FileQueueTransport(tmp_path / "spool", lease_timeout=lease_timeout)
    assert not (tmp_path / "spool").exists()  # refused before touching the disk


def test_filequeue_transport_reclaims_a_stale_lease_while_polling(tmp_path):
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=0.2,
                                   poll_interval=0.01)
    thread, completions, errors = drive(transport.stream([_baseline_spec()]))
    wait_until(transport.spool.task_ids)
    (task_id,) = transport.spool.task_ids()
    claim = transport.spool.claim(task_id)  # a doomed worker grabs it and dies
    stale = time.time() - 100
    os.utime(claim, (stale, stale))
    wait_until(lambda: transport.reclaimed >= 1)  # maintenance ran while waiting
    assert transport.spool.task_ids() == [task_id]  # requeued for the fleet
    stop_and_join(transport, thread, errors)


def test_filequeue_quarantines_a_permanently_corrupt_result(tmp_path, monkeypatch):
    """When the transport gives up on an unreadable result file, the file
    must be moved aside (``.json.bad``) and the claim sidecars dropped —
    left in place, a worker's result-exists check would treat the task as
    resolved forever while the submitter just reported it failed."""
    import repro.engine.transports.filequeue as fq

    monkeypatch.setattr(fq, "_MAX_BAD_RESULT_READS", 3)
    transport = FileQueueTransport(tmp_path / "spool", workers=0, lease_timeout=5.0,
                                   poll_interval=0.01)
    spool = transport.spool
    thread, completions, errors = drive(transport.stream([_baseline_spec()]))
    wait_until(spool.task_ids)
    (task_id,) = spool.task_ids()
    spool.claim(task_id, owner="w1")  # the (doomed) worker held the lease
    spool._atomic_write(spool.result_path(task_id), b"this is not json")
    thread.join(timeout=10.0)
    assert not thread.is_alive() and errors == []

    (index, result, exc) = completions[0]
    assert result is None
    assert exc.error_type == "SpoolError"
    assert "unreadable result file" in exc.error_message
    # The corrupt file was quarantined, not left masquerading as a result.
    assert spool.read_result(task_id) is None
    assert not spool.result_path(task_id).exists()
    bad = spool.result_path(task_id).with_suffix(".json.bad")
    assert bad.read_bytes() == b"this is not json"
    assert spool.claim_ids() == [] and spool.claim_owner(task_id) is None


def test_spool_clock_offset_protects_live_leases_from_skew(tmp_path, monkeypatch):
    """The clock-skew mass-reclaim regression: claim mtimes are stamped by
    the (possibly remote) filesystem while staleness was judged with the
    worker-local clock — a worker 30 s ahead reclaimed every live lease in
    the spool at once.  The startup probe folds the measured offset into
    lease ages, so a fresh claim stays fresh under ±30 s of skew."""
    real_time = time.time
    monkeypatch.setattr(time, "time", lambda: real_time() + 30.0)
    spool = FileQueueSpool(tmp_path / "spool")  # probe runs under skew
    assert -31.0 < spool.clock_offset < -29.0  # spool clock ≈ local - 30 s
    spool.enqueue("t1", EchoSpec("a"))
    spool.claim("t1", owner="w1")  # mtime stamped by the "file server"
    # Naive staleness (offset forced to zero) would mass-reclaim right now:
    spool.clock_offset = 0.0
    assert spool.lease_age(spool.claim_path("t1").stat().st_mtime) > 25.0
    spool.clock_offset = -30.0
    # ...but judged in spool time, the lease is seconds old and survives.
    assert spool.reclaim_stale(lease_timeout=5.0) == []
    assert spool.claim_ids() == ["t1"]
    # Genuinely stale leases are still reclaimed under the same skew.
    stamp = real_time() - 100
    os.utime(spool.claim_path("t1"), (stamp, stamp))
    assert spool.reclaim_stale(lease_timeout=5.0) == ["t1"]


def test_spool_clock_offset_is_zero_on_a_local_filesystem(tmp_path):
    """Sub-second probe differences are write latency, not skew."""
    spool = FileQueueSpool(tmp_path / "spool")
    assert spool.clock_offset == 0.0
    assert not list(spool.root.glob(".clock-probe-*"))  # probe cleaned up


def test_filequeue_failure_keeps_original_error_type_through_the_engine(tmp_path):
    config = BASE_CONFIG.with_updates(
        transport="filequeue", spool_dir=str(tmp_path / "spool"),
        transport_workers=0, transport_lease_timeout=5.0, transport_poll_interval=0.01,
    )
    engine = Engine(config=config)
    bad = engine.baseline_spec("3eax", "RYRDV", "AF9")  # unknown baseline method
    worker = FileQueueWorker(str(tmp_path / "spool"), lease_timeout=5.0, poll_interval=0.01)
    thread = threading.Thread(target=worker.serve, kwargs={"max_jobs": 1}, daemon=True)
    thread.start()
    outcomes = engine.run([bad], on_error="isolate")
    thread.join(timeout=30.0)

    failure = outcomes[0]
    assert isinstance(failure, JobFailure)
    # The worker's EngineError crossed the spool as data, not as a pickle,
    # and the failure record still names the original type.
    assert failure.error_type == "EngineError"
    assert "AF9" in failure.error_message
    assert engine.stats()["failed_jobs"] == 1


# -- one spawned fleet per engine ----------------------------------------------------


@pytest.mark.parametrize("abandon", ["close", "raise"])
def test_abandoned_batch_withdraws_its_tasks_and_stops_the_fleet(
    tmp_path, monkeypatch, abandon
):
    """A batch left unfinished stops the fleet that may still run its
    withdrawn job; the engine's next batch runs on a freshly spawned worker."""
    config = BASE_CONFIG.with_updates(
        transport="filequeue", spool_dir=str(tmp_path / "spool"),
        transport_workers=1, transport_lease_timeout=10.0, transport_poll_interval=0.02,
    )
    spawned: list = []
    spawn = FileQueueTransport._spawn_worker

    def recording_spawn(self) -> None:
        spawn(self)
        spawned.append(self.workers[-1])

    monkeypatch.setattr(FileQueueTransport, "_spawn_worker", recording_spawn)
    spool = FileQueueSpool(config.spool_dir)
    with Engine(config=config) as engine:
        if abandon == "raise":
            session = engine.submit([EchoSpec("boom"), EchoSpec("slow")], on_error="raise")
            with pytest.raises(RemoteJobError, match="exploded"):
                next(iter(session))
        else:
            session = engine.submit([_baseline_spec(method="AF2"), EchoSpec("slow")])
            next(iter(session))
            deadline = time.monotonic() + 20.0
            while not spool.claim_ids() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert spool.claim_ids(), "the slow job never started"
            session.close()
        assert len(spawned) == 1 and not spawned[0].is_alive()
        assert spool.task_ids() == [] and spool.claim_ids() == []

        second = engine.submit([_baseline_spec(method="AF3")])
        (outcome,) = second.results()
        assert _canonical(outcome) == _canonical(execute_baseline_job(_baseline_spec(method="AF3")))
        assert second.transport is session.transport
        assert second.summary()["transport"]["spawned"] == 1
        assert len(spawned) == 2 and spawned[1].is_alive()
    assert spawned[1].exitcode is not None
    slow = EchoSpec("slow").content_hash()[:16]
    assert not list(spool.results_dir.glob(f"*-{slow}.json"))  # withdrawn, never finished


def test_drained_batches_share_one_fleet_and_a_dropped_engine_reaps_it(tmp_path):
    config = BASE_CONFIG.with_updates(
        transport="filequeue", spool_dir=str(tmp_path / "spool"),
        transport_workers=2, transport_lease_timeout=10.0, transport_poll_interval=0.02,
    )
    engine = Engine(config=config)
    engine.run([_baseline_spec(method="AF2")])
    fleet = list(engine.transport_for().workers)
    engine.run([_baseline_spec(method="AF3")])
    assert engine.transport_for().workers == fleet  # kept across drained batches
    assert len(fleet) == 2 and all(proc.is_alive() for proc in fleet)
    assert len(list((tmp_path / "spool" / "log").glob("*.out"))) == 2
    del engine
    gc.collect()
    assert all(proc.exitcode is not None for proc in fleet)


_FLEET_CHILD = """
import sys, time
from repro.engine import FileQueueTransport

transport = FileQueueTransport(sys.argv[1], workers=2)
for _ in range(2):
    transport._spawn_worker()
print(*[proc.pid for proc in transport.workers], flush=True)
time.sleep(600)
"""


def test_fleet_members_exit_when_their_submitter_is_killed(tmp_path):
    """A SIGKILLed submitter never stops its fleet; each member's parent
    watch must take it down, or it would poll the spool forever."""
    assert not orphans_of_killed_parent(_FLEET_CHILD, str(tmp_path / "spool"))


def test_a_closed_engine_opens_a_new_transport():
    engine = Engine(config=BASE_CONFIG)
    first = engine.transport_for()
    assert engine.transport_for() is first
    engine.close()
    engine.close()  # idempotent
    assert engine.transport_for() is not first


@contextlib.contextmanager
def _engine_on(transport: str, tmp_path, **updates):
    """An engine on ``transport``; ``network`` gets an in-process repro-serve."""
    with contextlib.ExitStack() as stack:
        if transport == "network":
            updates["serve_port"] = stack.enter_context(ReproServer(workers=0)).port
        config = BASE_CONFIG.with_updates(
            transport=transport, spool_dir=str(tmp_path / "spool"),
            transport_workers=1, transport_lease_timeout=10.0, transport_poll_interval=0.02,
            **updates,
        )
        yield stack.enter_context(Engine(config=config))


@pytest.mark.parametrize("transport", ["serial", "pool", "filequeue", "network"])
def test_a_refused_overlapping_batch_leaves_the_running_one_alone(tmp_path, transport):
    """A second session submitted while the first is suspended mid-stream is
    refused, and the first still finishes with every outcome."""
    specs = [_baseline_spec(method="AF2"), _baseline_spec(method="AF3"),
             _baseline_spec(sequence="RYRDVA")]
    other = _baseline_spec(sequence="RYRDVA", method="AF3")
    with _engine_on(transport, tmp_path) as engine:
        first = engine.submit(specs)
        next(iter(first))
        with pytest.raises(EngineError, match="one batch at a time"):
            engine.submit([other]).results()
        outcomes = first.results()
        assert [_canonical(o) for o in outcomes] == [
            _canonical(execute_baseline_job(spec)) for spec in specs
        ]
        if transport == "filequeue":
            workers = engine.transport_for().workers
            assert len(workers) == 1 and workers[0].is_alive()  # fleet kept
        (outcome,) = engine.submit([other]).results()
        assert _canonical(outcome) == _canonical(execute_baseline_job(other))


@pytest.mark.parametrize("transport", ["serial", "filequeue"])
def test_closing_the_engine_under_a_suspended_session_raises(tmp_path, transport):
    """Engine.close() withdraws a suspended session's batch.  The session then
    raises instead of finishing with None holes, and its journal resumes
    exactly the jobs that never completed."""
    specs = [_baseline_spec(method="AF2"), _baseline_spec(method="AF3"),
             _baseline_spec(sequence="RYRDVA")]
    dirs = {"session_dir": str(tmp_path / "sessions"), "cache_dir": str(tmp_path / "cache")}
    with _engine_on(transport, tmp_path, **dirs) as engine:
        session = engine.submit(specs, session_id="cut")
        next(iter(session))
        engine.close()
        with pytest.raises(EngineError, match="closed before finishing"):
            session.results()
        assert session.summary()["done"] == 1
    with _engine_on(transport, tmp_path, **dirs) as engine:
        resumed = engine.submit(session_id="cut")
        assert [_canonical(o) for o in resumed.results()] == [
            _canonical(execute_baseline_job(spec)) for spec in specs
        ]
        assert (resumed.summary()["cached"], resumed.summary()["executed"]) == (1, 2)


# -- the repro-worker CLI ------------------------------------------------------------


def test_worker_cli_serves_a_task_and_exits(tmp_path, capsys):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("task-1", _baseline_spec())
    rc = worker_cli_main([
        str(tmp_path / "spool"), "--worker-id", "cli-w", "--max-jobs", "1",
        "--lease-timeout", "5", "--poll-interval", "0.01",
    ])
    assert rc == 0
    assert spool.read_result("task-1")["status"] == "completed"
    assert "processed 1 tasks" in capsys.readouterr().err


def test_worker_cli_stops_on_sentinel(tmp_path, capsys):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("task-1", _baseline_spec())
    spool.stop_path.touch()
    rc = worker_cli_main([str(tmp_path / "spool"), "--max-jobs", "5"])
    assert rc == 0
    assert spool.read_result("task-1") is None  # wound down before claiming it


@dataclass(frozen=True)
class PluginSpec:
    """A job kind only a preloaded plugin can execute.  Defined here, not in
    the plugin, so unpickling a task never imports (and registers) it."""

    name: str

    kind: ClassVar[str] = "preload-plugin"

    def content_hash(self) -> str:
        return hashlib.sha256(f"plugin/v1\x1f{self.name}".encode("utf-8")).hexdigest()


_PLUGIN_SOURCE = """
from repro.engine import register_executor


class _Outcome:
    def __init__(self, spec):
        self.spec = spec

    def to_payload(self):
        return {"spec_hash": self.spec.content_hash(), "schema": "plugin/v1", "name": self.spec.name}


register_executor("preload-plugin", _Outcome)
"""


def test_worker_cli_preload_registers_a_custom_job_kind(tmp_path, monkeypatch):
    module = "repro_preload_plugin"
    (tmp_path / f"{module}.py").write_text(_PLUGIN_SOURCE)
    monkeypatch.syspath_prepend(str(tmp_path))
    spool = FileQueueSpool(tmp_path / "spool")
    argv = [str(spool.root), "--max-jobs", "1", "--poll-interval", "0.01"]
    try:
        spool.enqueue("task-1", PluginSpec("a"))
        assert worker_cli_main(argv) == 0
        failed = spool.read_result("task-1")
        assert failed["status"] == "failed"
        assert "no executor registered for job kind 'preload-plugin'" in failed["error_message"]

        spool.enqueue("task-2", PluginSpec("b"))
        assert worker_cli_main(argv + ["--preload", module]) == 0
        done = spool.read_result("task-2")
        assert done["status"] == "completed"
        assert done["payload"] == {
            "spec_hash": PluginSpec("b").content_hash(), "schema": "plugin/v1", "name": "b",
        }
    finally:
        registry._EXECUTORS.pop("preload-plugin", None)
        sys.modules.pop(module, None)


def test_worker_cli_rejects_a_bad_preload(tmp_path, capsys):
    rc = worker_cli_main([str(tmp_path / "spool"), "--preload", "no.such.module"])
    assert rc == 2
    assert "cannot preload" in capsys.readouterr().err

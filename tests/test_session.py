"""Tests for streaming engine sessions: failure isolation, journals, resume,
progress events, the streaming BatchProcessor and the repro-session CLI."""

from __future__ import annotations

import hashlib
import json
import random
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar

import pytest

from repro.cli.session import main as session_cli_main
from repro.config import PipelineConfig
from repro.dataset import batch as batch_module
from repro.dataset.batch import BatchProcessor
from repro.dataset.builder import DatasetBuilder
from repro.engine import Engine, JobFailure, SessionJournal
from repro.engine.core import execute_fold_job
from repro.engine.registry import register_executor
from repro.exceptions import EngineError

# -- a deliberately crashing job kind ------------------------------------------------
#
# ``flaky`` jobs execute in-process (serial sessions), so the tests can steer
# failures through FAIL_NAMES and observe execution order through EXECUTED.

FAIL_NAMES: set[str] = set()
EXECUTED: list[str] = []


@dataclass(frozen=True)
class FlakySpec:
    """A trivial job spec whose executor crashes when told to."""

    name: str

    kind: ClassVar[str] = "flaky"

    def content_hash(self) -> str:
        return hashlib.sha256(f"flaky/v1\x1f{self.name}".encode("utf-8")).hexdigest()


@dataclass
class FlakyResult:
    spec_hash: str
    name: str
    value: float
    from_cache: bool = False
    kind: str = "flaky"

    def shallow_copy(self) -> "FlakyResult":
        return replace(self)

    def to_payload(self) -> dict:
        return {"schema": "flaky/v1", "spec_hash": self.spec_hash, "name": self.name, "value": self.value}


def execute_flaky(spec: FlakySpec) -> FlakyResult:
    EXECUTED.append(spec.name)
    if spec.name in FAIL_NAMES:
        raise ValueError(f"flaky job {spec.name} exploded")
    return FlakyResult(spec_hash=spec.content_hash(), name=spec.name, value=float(len(spec.name)))


register_executor("flaky", execute_flaky, overwrite=True)


@pytest.fixture(autouse=True)
def _reset_flaky_state():
    FAIL_NAMES.clear()
    EXECUTED.clear()
    yield
    FAIL_NAMES.clear()


@pytest.fixture
def session_engine(tmp_path) -> Engine:
    """A serial engine journalling to a tmp session_dir (no result cache)."""
    return Engine(
        config=PipelineConfig(session_dir=str(tmp_path / "sessions")), processes=0
    )


@pytest.fixture
def replay_engine(tmp_path) -> Engine:
    """A serial journalling engine with a result cache, so resumes replay.

    Replayed jobs are baseline folds: the cache rebuilds fold and dock
    payloads only, so a flaky job may be cached but never replayed.
    """
    config = PipelineConfig(
        seed=9,
        session_dir=str(tmp_path / "replay-sessions"),
        cache_dir=str(tmp_path / "replay-cache"),
    )
    return Engine(config=config, processes=0)


def _baselines(engine: Engine, n: int) -> list:
    """``n`` distinct baseline-fold jobs (cheap, and replayable from the cache)."""
    pairs = [("3eax", "RYRDV"), ("3ckz", "VKDRS")]
    return [
        engine.baseline_spec(pdb_id, seq, method)
        for pdb_id, seq in pairs for method in ("AF2", "AF3")
    ][:n]


# -- failure isolation ---------------------------------------------------------------


def test_failing_job_is_isolated_and_batch_completes(session_engine):
    FAIL_NAMES.add("bad")
    jobs = [FlakySpec("a"), FlakySpec("bad"), FlakySpec("b")]
    outcomes = session_engine.submit(jobs, session_id="iso").results()

    assert EXECUTED == ["a", "bad", "b"]  # the crash did not stop the batch
    assert isinstance(outcomes[0], FlakyResult) and outcomes[0].name == "a"
    assert isinstance(outcomes[2], FlakyResult) and outcomes[2].name == "b"
    failure = outcomes[1]
    assert isinstance(failure, JobFailure)
    assert failure.spec_hash == FlakySpec("bad").content_hash()
    assert failure.kind == "flaky"
    assert failure.error_type == "ValueError"
    assert "bad exploded" in failure.error_message

    stats = session_engine.stats()
    assert stats["executed_jobs"] == 2
    assert stats["failed_jobs"] == 1
    assert stats["completed_jobs"] == 2


def test_duplicates_of_a_failed_job_share_the_failure_record(session_engine):
    FAIL_NAMES.add("bad")
    session = session_engine.submit(
        [FlakySpec("bad"), FlakySpec("a"), FlakySpec("bad")], session_id="dup"
    )
    outcomes = session.results()
    assert EXECUTED == ["bad", "a"]  # the duplicate never re-executes
    assert isinstance(outcomes[0], JobFailure)
    assert outcomes[2] is outcomes[0]
    assert isinstance(outcomes[1], FlakyResult)
    # failures() reports the shared record once, agreeing with the counter.
    assert len(session.failures()) == 1
    summary = session.summary()
    assert summary["failed"] == 1 and len(summary["failures"]) == 1


def test_on_error_raise_propagates_the_original_exception(session_engine):
    FAIL_NAMES.add("bad")
    session = session_engine.submit(
        [FlakySpec("a"), FlakySpec("bad"), FlakySpec("b")],
        session_id="raise",
        on_error="raise",
    )
    with pytest.raises(ValueError, match="bad exploded"):
        session.results()
    assert EXECUTED == ["a", "bad"]  # fail-fast: the batch stopped at the crash
    # The journal still knows what finished and what crashed.
    journal = SessionJournal.open(session_engine.config.session_dir, "raise")
    assert len(journal.completed) == 1
    assert [r["error_type"] for r in journal.failed.values()] == ["ValueError"]


def test_aborted_stream_closes_the_session_instead_of_none_holes(session_engine):
    """After on_error="raise" aborts the stream (or a transport raises, e.g.
    the filequeue stop sentinel), a later results() call must raise the
    closed-session error — not return a list with silent None holes."""
    FAIL_NAMES.add("bad")
    session = session_engine.submit(
        [FlakySpec("a"), FlakySpec("bad"), FlakySpec("b")],
        session_id="aborted",
        on_error="raise",
    )
    with pytest.raises(ValueError, match="bad exploded"):
        session.results()
    with pytest.raises(EngineError, match="closed before finishing"):
        session.results()
    # Re-submitting the session id still works and completes the remainder.
    FAIL_NAMES.clear()
    outcomes = session_engine.submit(session_id="aborted").results()
    assert [getattr(o, "name", None) for o in outcomes] == ["a", "bad", "b"]


def test_unknown_on_error_policy_is_rejected(session_engine):
    with pytest.raises(EngineError):
        session_engine.submit([FlakySpec("a")], on_error="explode")


# -- resume: exactly the failed / incomplete jobs re-run ------------------------------


def test_resume_reruns_exactly_the_failed_jobs(replay_engine):
    FAIL_NAMES.add("bad")
    first, second = _baselines(replay_engine, 2)
    jobs = [first, FlakySpec("bad"), second]
    outcomes = replay_engine.submit(jobs, session_id="rerun").results()
    assert isinstance(outcomes[1], JobFailure)

    FAIL_NAMES.clear()
    EXECUTED.clear()
    resumed = replay_engine.submit(session_id="rerun")
    outcomes = resumed.results()

    assert EXECUTED == ["bad"]  # nothing else re-ran
    assert [o.spec_hash for o in outcomes] == [job.content_hash() for job in jobs]
    assert outcomes[0].from_cache and outcomes[2].from_cache  # replayed, not re-executed
    assert not outcomes[1].from_cache and outcomes[1].name == "bad"
    assert resumed.summary()["failed"] == 0
    assert replay_engine.stats()["executed_jobs"] == 3  # 2 + the one re-run


def test_interrupted_stream_resumes_only_incomplete_jobs(replay_engine):
    jobs = _baselines(replay_engine, 4)
    session = replay_engine.submit(jobs, session_id="interrupt")
    for done, _pair in enumerate(session, start=1):
        if done == 2:
            break  # simulate Ctrl-C after two completions
    session.close()
    assert replay_engine.stats()["executed_jobs"] == 2

    resumed = replay_engine.submit(session_id="interrupt")
    outcomes = resumed.results()
    assert [o.spec_hash for o in outcomes] == [job.content_hash() for job in jobs]
    # Only the never-completed jobs executed; the rest replayed.
    assert [o.from_cache for o in outcomes] == [True, True, False, False]
    assert resumed.summary()["cached"] == 2
    assert resumed.summary()["executed"] == 2
    assert replay_engine.stats()["executed_jobs"] == 4


def test_cache_hits_stream_before_pool_completions(replay_engine):
    events = []
    jobs = _baselines(replay_engine, 2)
    replay_engine.submit(jobs, session_id="order1").results()
    # Resuming the finished session replays every job from the cache.
    replay_engine.submit(
        session_id="order1", progress=lambda e: events.append(e.status)
    ).results()
    assert events == ["cached", "cached"]

    events.clear()
    mixed = replay_engine.submit(
        [FlakySpec("c"), jobs[0]], session_id="order2",
        progress=lambda e: events.append(e.status),
    )
    # The cached job streams first, though it was submitted second.
    assert [spec for spec, _outcome in mixed] == [jobs[0], FlakySpec("c")]
    assert events == ["cached", "executed"]
    assert EXECUTED == ["c"]


def test_progress_events_carry_running_totals(session_engine):
    FAIL_NAMES.add("bad")
    events = []
    session_engine.submit(
        [FlakySpec("a"), FlakySpec("bad"), FlakySpec("a")],
        session_id="progress",
        progress=events.append,
    ).results()
    assert [(e.status, e.done, e.total) for e in events] == [
        ("executed", 1, 3),
        ("duplicate", 2, 3),
        ("failed", 3, 3),
    ]
    last = events[-1]
    assert last.executed == 1 and last.failed == 1 and last.cached == 0


def test_partially_consumed_session_is_drainable(session_engine):
    session = session_engine.submit(
        [FlakySpec("a"), FlakySpec("b"), FlakySpec("c")], session_id="drain"
    )
    for _spec, outcome in session:
        assert outcome.name == "a"
        break  # suspends the stream mid-batch
    # results() picks the stream up where the loop stopped — no re-execution,
    # no "already consumed" error.
    outcomes = session.results()
    assert [o.name for o in outcomes] == ["a", "b", "c"]
    assert EXECUTED == ["a", "b", "c"]
    # A finished session re-yields its stored outcomes in submission order.
    assert [outcome.name for _spec, outcome in session] == ["a", "b", "c"]


def test_close_stops_a_partially_consumed_session(replay_engine):
    jobs = _baselines(replay_engine, 2)
    session = replay_engine.submit(jobs, session_id="closed")
    next(iter(session))
    session.close()
    assert replay_engine.stats()["executed_jobs"] == 1  # the second job never ran
    # A closed session refuses to hand out a result list with silent holes.
    with pytest.raises(EngineError, match="closed"):
        session.results()
    # The journal kept what finished; a resume runs only the remainder.
    resumed = replay_engine.submit(session_id="closed")
    outcomes = resumed.results()
    assert [o.spec_hash for o in outcomes] == [job.content_hash() for job in jobs]
    assert resumed.summary()["cached"] == 1 and resumed.summary()["executed"] == 1
    assert replay_engine.stats()["executed_jobs"] == 2


# -- the journal on disk -------------------------------------------------------------


def test_journal_records_survive_and_tolerate_torn_writes(session_engine):
    FAIL_NAMES.add("bad")
    session_engine.submit(
        [FlakySpec("a"), FlakySpec("bad")], session_id="torn"
    ).results()
    root = session_engine.config.session_dir
    journal = SessionJournal.open(root, "torn")
    assert set(journal.completed) == {FlakySpec("a").content_hash()}
    assert set(journal.failed) == {FlakySpec("bad").content_hash()}

    # A process killed mid-write leaves a torn trailing line; re-open skips it.
    with journal.path.open("a", encoding="utf-8") as fh:
        fh.write('{"record": "job", "spec_hash": "abc", "status": "comp')
    reopened = SessionJournal.open(root, "torn")
    assert set(reopened.completed) == set(journal.completed)
    assert reopened.summary()["failed"] == 1

    # A later completed record for a previously failed job wins.
    reopened.record_job(FlakySpec("bad").content_hash(), "completed", "flaky")
    again = SessionJournal.open(root, "torn")
    assert again.summary() == {
        "session_id": "torn",
        "created_at": again.created_at,
        "total_submitted": 2,
        "total_unique": 2,
        "completed": 2,
        "failed": 0,
        "pending": 0,
        "resumes": 0,
    }


def test_run_never_journals_even_with_session_dir(session_engine):
    """run() is one-shot: journalling its random ids would litter session_dir."""
    results = session_engine.run([FlakySpec("a")])
    assert isinstance(results[0], FlakyResult)
    root = Path(session_engine.config.session_dir)
    assert not root.exists() or list(root.glob("*.jsonl")) == []


def test_empty_session_journal_reopens_cleanly(session_engine):
    assert session_engine.submit([], session_id="empty").results() == []
    journal = SessionJournal.open(session_engine.config.session_dir, "empty")
    assert journal.summary()["total_unique"] == 0
    assert session_engine.submit(session_id="empty").results() == []


def test_submit_rejects_a_mismatched_journal(session_engine):
    session_engine.submit([FlakySpec("a")], session_id="fixed").results()
    with pytest.raises(EngineError, match="different"):
        session_engine.submit([FlakySpec("other")], session_id="fixed")


def test_submit_without_jobs_requires_a_journal(session_engine):
    with pytest.raises(EngineError):
        session_engine.submit(session_id="never-created")
    engine = Engine(config=PipelineConfig())  # no session_dir at all
    with pytest.raises(EngineError):
        engine.submit()


def test_journalled_complete_but_uncached_job_reexecutes(session_engine):
    """The journal is bookkeeping, not storage: no cache => re-execute."""
    session_engine.submit([FlakySpec("a")], session_id="lost").results()
    EXECUTED.clear()
    fresh = Engine(config=session_engine.config, processes=0)
    outcomes = fresh.submit(session_id="lost").results()
    assert EXECUTED == ["a"]  # journalled complete, but there is nothing to replay
    assert isinstance(outcomes[0], FlakyResult)
    assert fresh.stats()["executed_jobs"] == 1


# -- journal fuzzing: torn/garbled tails never crash or re-execute -------------------


def _garble_tail(rng: random.Random, data: bytes, protect: int) -> bytes:
    """Randomly damage the journal's tail (never the first ``protect`` bytes).

    Models everything a dying process / torn filesystem can leave behind:
    truncation mid-record, flipped bytes, appended garbage, a torn JSON
    prefix, and a duplicated partial line.
    """
    tail_start = max(protect, len(data) - 200)
    for _ in range(rng.randrange(1, 4)):
        op = rng.choice(["truncate", "flip", "garbage", "torn_json", "dup_partial"])
        if op == "truncate" and len(data) > tail_start:
            data = data[: rng.randrange(tail_start, len(data))]
        elif op == "flip" and len(data) > tail_start:
            flipped = bytearray(data)
            for _ in range(rng.randrange(1, 6)):
                pos = rng.randrange(tail_start, len(flipped))
                flipped[pos] = rng.randrange(256)
            data = bytes(flipped)
        elif op == "garbage":
            data += bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        elif op == "torn_json":
            data += b'{"record": "job", "spec_hash": "deadbeef", "status": "comp'
        elif op == "dup_partial" and len(data) > tail_start:
            line = data.splitlines(keepends=True)[-1]
            data += line[: rng.randrange(1, max(2, len(line)))]
    return data


def test_journal_fuzz_resume_never_reexecutes_or_crashes(tmp_path):
    """~50 seeds of tail damage on a real interrupted session's journal:
    re-opening never crashes, resume serves every completed (cached) job
    without re-execution, and the final results stay bit-identical."""
    from repro.utils.io import _NumpyJSONEncoder

    config = PipelineConfig(
        seed=9,
        session_dir=str(tmp_path / "sessions"),
        cache_dir=str(tmp_path / "cache"),
    )
    engine = Engine(config=config)
    jobs = [
        engine.baseline_spec("3eax", "RYRDV", "AF2"),
        engine.baseline_spec("3eax", "RYRDV", "AF3"),
        engine.baseline_spec("3ckz", "VKDRS", "AF2"),
        engine.baseline_spec("3ckz", "VKDRS", "AF3"),
    ]
    session = engine.submit(jobs, session_id="fuzz")
    for done, _pair in enumerate(session, start=1):
        if done == 2:
            break  # interrupt: 2 completed (and cached), 2 never started
    session.close()

    reference_engine = Engine(config=PipelineConfig(seed=9))
    reference = [
        json.dumps(r.to_payload(), sort_keys=True, cls=_NumpyJSONEncoder)
        for r in reference_engine.run(jobs)
    ]

    journal_path = Path(config.session_dir) / "fuzz.jsonl"
    original = journal_path.read_bytes()
    header_end = original.index(b"\n") + 1
    # Snapshot the interrupted run's cache (exactly the 2 completed payloads):
    # every seed resumes against its own copy, so one seed's executions can
    # never warm another seed's lookups.
    cache_snapshot = tmp_path / "cache-snapshot"
    shutil.copytree(config.cache_dir, cache_snapshot)

    for seed in range(50):
        rng = random.Random(seed)
        root = tmp_path / f"fuzz-root-{seed}"
        root.mkdir()
        (root / "fuzz.jsonl").write_bytes(_garble_tail(rng, original, header_end))
        shutil.copy(Path(config.session_dir) / "fuzz.specs.pkl", root / "fuzz.specs.pkl")
        shutil.copytree(cache_snapshot, root / "cache")

        # Re-opening tolerates any tail damage (the header is intact).
        reopened = SessionJournal.open(root, "fuzz")
        assert len(reopened.completed) <= 2

        fresh = Engine(
            config=config.with_updates(
                session_dir=str(root), cache_dir=str(root / "cache")
            )
        )
        resumed = fresh.submit(session_id="fuzz")
        outcomes = resumed.results()
        canonical = [
            json.dumps(o.to_payload(), sort_keys=True, cls=_NumpyJSONEncoder)
            for o in outcomes
        ]
        assert canonical == reference, f"seed {seed}: results diverged"
        # The two completed jobs live in the result cache: whatever the
        # journal's tail claims, they replay without re-executing.
        assert resumed.summary()["cached"] == 2, f"seed {seed}"
        assert fresh.stats()["executed_jobs"] == 2, f"seed {seed}"

    # Destroying the *header* is refused cleanly, never a crash or a re-run.
    root = tmp_path / "fuzz-root-header"
    root.mkdir()
    (root / "fuzz.jsonl").write_bytes(b'{"torn header')
    shutil.copy(Path(config.session_dir) / "fuzz.specs.pkl", root / "fuzz.specs.pkl")
    with pytest.raises(EngineError, match="header"):
        SessionJournal.open(root, "fuzz")
    with pytest.raises(EngineError):
        Engine(config=config.with_updates(session_dir=str(root))).submit(session_id="fuzz")


# -- cross-process resume through the CLI --------------------------------------------


@pytest.fixture
def fold_config(tmp_path) -> PipelineConfig:
    return PipelineConfig(
        vqe_iterations=4,
        optimisation_shots=24,
        final_shots=48,
        ansatz_reps=1,
        seed=9,
        session_dir=str(tmp_path / "sessions"),
        cache_dir=str(tmp_path / "cache"),
    )


def test_cli_resume_executes_only_pending_jobs(fold_config, capsys):
    engine = Engine(config=fold_config)
    jobs = [engine.spec("3eax", "RYRDV"), engine.spec("3ckz", "VKDRS")]
    session = engine.submit(jobs, session_id="cli-sweep")
    for _spec, _outcome in session:
        break  # interrupt after the first fold

    rc = session_cli_main(
        ["resume", fold_config.session_dir, "cli-sweep", "--json", "--quiet"]
    )
    summary = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert summary["total"] == 2
    assert summary["cached"] == 1  # the interrupted run's completed fold replays
    assert summary["executed"] == 1  # only the pending fold executed
    assert summary["failed"] == 0
    assert summary["engine"]["executed_jobs"] == 1

    rc = session_cli_main(
        ["status", fold_config.session_dir, "cli-sweep", "--json"]
    )
    status = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert status["pending"] == 0
    assert status["replayable_from_cache"] == 2

    rc = session_cli_main(["ls", fold_config.session_dir, "--json"])
    sessions = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [s["session_id"] for s in sessions] == ["cli-sweep"]
    assert sessions[0]["pending"] == 0


def test_cli_resume_reexecutes_jobs_whose_hash_inputs_changed(fold_config, capsys, monkeypatch):
    """A journal written before a hash-input change (here: a fold field list
    that still named ``docking_seeds``) resumes: its fold re-executes under
    the new hash, once."""
    from repro.engine import jobs as jobs_module

    with monkeypatch.context() as patch:
        patch.setattr(
            jobs_module, "_FOLD_CONFIG_FIELDS", (*jobs_module._FOLD_CONFIG_FIELDS, "docking_seeds")
        )
        engine = Engine(config=fold_config)
        engine.submit([engine.spec("3eax", "RYRDV")], session_id="moved").results()

    for executed, cached in ((1, 0), (0, 1)):
        rc = session_cli_main(["resume", fold_config.session_dir, "moved", "--json", "--quiet"])
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert (summary["executed"], summary["cached"], summary["failed"]) == (executed, cached, 0)


def test_cli_status_counts_only_current_hashes_after_a_hash_input_change(
    fold_config, capsys, monkeypatch
):
    """After a hash-input change the journal holds the old hash and, once
    resumed, the new one too; status counts what resume would replay, so it
    never reports more replayable jobs than completed ones."""
    from repro.engine import jobs as jobs_module

    with monkeypatch.context() as patch:
        patch.setattr(
            jobs_module, "_FOLD_CONFIG_FIELDS", (*jobs_module._FOLD_CONFIG_FIELDS, "docking_seeds")
        )
        engine = Engine(config=fold_config)
        engine.submit([engine.spec("3eax", "RYRDV")], session_id="moved").results()

    def replayable_and_completed() -> tuple[int, int]:
        assert session_cli_main(["status", fold_config.session_dir, "moved", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        return status["replayable_from_cache"], status["completed"]

    # The old hash's payload is cached, but resume executes the fold afresh.
    assert replayable_and_completed() == (0, 1)
    session_cli_main(["resume", fold_config.session_dir, "moved", "--json", "--quiet"])
    capsys.readouterr()
    assert replayable_and_completed() == (1, 1)


def test_cli_rejects_missing_directory_and_journal(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        session_cli_main(["ls", str(tmp_path / "nope")])
    assert exc.value.code == 2
    (tmp_path / "empty").mkdir()
    with pytest.raises(SystemExit) as exc:
        session_cli_main(["status", str(tmp_path / "empty"), "ghost"])
    assert exc.value.code == 2


def test_cli_status_reports_failures_with_exit_code(session_engine, capsys):
    FAIL_NAMES.add("bad")
    session_engine.submit([FlakySpec("a"), FlakySpec("bad")], session_id="sad").results()
    rc = session_cli_main(
        ["status", session_engine.config.session_dir, "sad", "--json"]
    )
    status = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert status["failed"] == 1
    assert status["failures"][0]["error_type"] == "ValueError"


def test_cli_resume_on_error_raise_reports_the_abort(session_engine, capsys):
    """A job failing under ``--on-error raise`` aborts the resume with a
    one-line report and exit status 1, and the summary is still printed."""
    session_engine.submit([FlakySpec("a"), FlakySpec("b")], session_id="abort").close()
    FAIL_NAMES.add("a")
    root = session_engine.config.session_dir
    rc = session_cli_main(
        ["resume", root, "abort", "--on-error", "raise", "--json", "--quiet"]
    )
    captured = capsys.readouterr()
    assert rc == 1
    assert (
        "repro-session: session abort aborted: ValueError: flaky job a exploded"
        in captured.err
    )
    summary = json.loads(captured.out)
    assert summary["session_id"] == "abort"
    assert summary["failed"] == 1 and summary["executed"] == 0
    assert EXECUTED == ["a"]  # fail-fast: "b" never ran

    rc = session_cli_main(["resume", root, "abort", "--on-error", "raise", "--quiet"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "aborted: ValueError" in captured.err
    assert "session abort: " in captured.out


def test_builder_cache_dir_reaches_the_journals_of_every_build_phase(tmp_path, capsys):
    """A cache passed as ``DatasetBuilder(cache_dir=...)`` rides in the
    journalled specs' config, so ``repro-session`` finds it: status counts
    every completed job as replayable and a resume executes nothing."""
    root = tmp_path / "sessions"
    config = PipelineConfig.fast().with_updates(session_dir=str(root))
    builder = DatasetBuilder(config=config, cache_dir=tmp_path / "cache")
    builder.build(builder.select_fragments(pdb_ids=["3eax"]), keep_structures=False)

    session_ids = sorted(j.session_id for j in SessionJournal.list_sessions(root))
    assert [s.split("-")[1] for s in session_ids] == ["dock", "fold"]
    for session_id in session_ids:
        assert session_cli_main(["status", str(root), session_id, "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert status["completed"] > 0
        assert status["replayable_from_cache"] == status["completed"]

        assert session_cli_main(["resume", str(root), session_id, "--json", "--quiet"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["executed"] == 0
        assert summary["cached"] == summary["total"] > 0


def test_cli_status_peeks_a_remote_only_cache_like_resume_replays_it(tmp_path, capsys):
    """A session whose only cache is a repro-serve tier: status counts as
    replayable exactly the jobs resume replays from that tier."""
    from repro.engine import BaselineFoldSpec
    from repro.serve import ReproServer

    root = str(tmp_path / "sessions")
    with ReproServer(workers=0, cache=tmp_path / "serve-cache") as server:
        config = PipelineConfig(session_dir=root, cache_remote=f"127.0.0.1:{server.port}")
        jobs = [
            BaselineFoldSpec(pdb_id="3eax", sequence="RYRDV", method=method, config=config)
            for method in ("AF2", "AF3")
        ]
        with Engine(config=config) as engine:
            engine.submit(jobs, session_id="remote").results()
        assert session_cli_main(["status", root, "remote", "--json"]) == 0
        status = json.loads(capsys.readouterr().out)
        assert session_cli_main(["resume", root, "remote", "--json", "--quiet"]) == 0
        summary = json.loads(capsys.readouterr().out)
    assert status["completed"] == 2
    assert status["replayable_from_cache"] == summary["cached"] == 2
    assert summary["executed"] == 0


# -- the streaming BatchProcessor ----------------------------------------------------


def _exploding_fold(spec):
    if spec.pdb_id == "1e2k":
        raise RuntimeError("injected fold crash")
    return execute_fold_job(spec)


def test_batch_processor_isolates_a_failed_fragment():
    """One crashing fold drops only its fragment; the rest of the build completes."""
    register_executor("fold", _exploding_fold, overwrite=True)
    try:
        config = PipelineConfig(
            vqe_iterations=4,
            optimisation_shots=24,
            final_shots=48,
            ansatz_reps=1,
            docking_seeds=2,
            docking_poses=2,
            docking_mc_steps=20,
            seed=9,
        )
        fragments = DatasetBuilder.select_fragments(pdb_ids=["3eax", "1e2k"])
        engine = Engine(config=config)
        entries = BatchProcessor(engine).build_entries(fragments)
        assert [entry.fragment.pdb_id for entry in entries] == ["3eax"]
        assert engine.stats()["failed_jobs"] == 1
        # The surviving fragment was fully evaluated (quantum + 2 baselines)
        # and docked; the crashed fragment never reached the docking phase.
        assert set(entries[0].evaluations) == {"QDock", "AF2", "AF3"}
        assert engine.stats()["executed_by_kind"]["dock"] == 3
    finally:
        register_executor("fold", execute_fold_job, overwrite=True)


def test_batch_processor_isolates_a_dropped_fragments_context_error(monkeypatch):
    """Contexts are derived during the fold phase, before anyone knows which
    fragments survive: a context error of a dropped fragment stays isolated,
    one of a surviving fragment still fails the build."""
    prepare_context = batch_module.prepare_context

    def exploding_context(fragment, seed):
        if fragment.pdb_id in doomed:
            raise RuntimeError(f"injected context crash for {fragment.pdb_id}")
        return prepare_context(fragment, seed)

    monkeypatch.setattr(batch_module, "prepare_context", exploding_context)
    register_executor("fold", _exploding_fold, overwrite=True)
    try:
        config = PipelineConfig(
            vqe_iterations=4, optimisation_shots=24, final_shots=48, ansatz_reps=1,
            docking_seeds=2, docking_poses=2, docking_mc_steps=20, seed=9,
        )
        fragments = DatasetBuilder.select_fragments(pdb_ids=["3eax", "1e2k"])
        doomed = {"1e2k"}
        entries = BatchProcessor(Engine(config=config)).build_entries(fragments)
        assert [entry.fragment.pdb_id for entry in entries] == ["3eax"]
        doomed = {"3eax"}
        with pytest.raises(RuntimeError, match="context crash for 3eax"):
            BatchProcessor(Engine(config=config)).build_entries(fragments)
    finally:
        register_executor("fold", execute_fold_job, overwrite=True)

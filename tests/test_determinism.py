"""The determinism harness (docs/ARCHITECTURE.md contract, systematically).

One mixed fold / baseline-fold / dock batch — including an in-batch duplicate
— is executed every way the engine can execute it:

* serially (the reference run),
* on a 2-worker and a 4-worker process pool,
* against a cold then a warm persistent cache,
* interrupted partway and resumed by a brand-new engine over the journal,
* on the distributed file-queue transport with a 2-daemon worker fleet —
  cold, and with one fleet member SIGKILLed mid-sweep followed by an
  interrupt and a cross-engine resume,
* with the fleet scheduler's priority classes set versus every knob off —
  plus a warm rerun executing zero jobs — and on a heterogeneous
  capability-tagged fleet (one fold-only worker, one generalist) versus the
  homogeneous fleet,
* over a socket against a live ``repro-serve`` daemon (the ``network``
  transport) — cold, warm through the server's shared cache, with the
  client disconnecting mid-batch and resuming, and with the *server* killed
  mid-batch then restarted before a cross-engine resume.

Every mode must produce results *bit-identical* to the reference, asserted on
the canonical JSON serialisation of each result payload (the same bytes the
persistent cache stores).  The resumed mode additionally proves it executed
only the jobs the interrupted run never completed.
"""

from __future__ import annotations

import json

import pytest

from repro.bio.reference import ReferenceStructureGenerator
from repro.config import PipelineConfig
from repro.docking.ligand import SyntheticLigandGenerator
from repro.engine import Engine, SessionJournal
from repro.utils.io import _NumpyJSONEncoder

CONFIG = PipelineConfig(
    vqe_iterations=5,
    optimisation_shots=24,
    final_shots=48,
    ansatz_reps=1,
    docking_seeds=2,
    docking_poses=2,
    docking_mc_steps=25,
    seed=13,
)


def _mixed_jobs(engine: Engine) -> list:
    """Two quantum folds, two baselines, one dock and one duplicate fold."""
    reference = ReferenceStructureGenerator(master_seed=CONFIG.seed).generate("3eax", "RYRDV")
    ligand = SyntheticLigandGenerator(master_seed=CONFIG.seed).generate(reference)
    return [
        engine.spec("3eax", "RYRDV"),
        engine.spec("3ckz", "VKDRS", start_seq_id=149),
        engine.baseline_spec("3eax", "RYRDV", "AF2"),
        engine.baseline_spec("3eax", "RYRDV", "AF3"),
        engine.dock_spec("3eax", reference.structure, ligand, receptor_id="3eax:QDock"),
        engine.spec("3eax", "RYRDV"),  # in-batch duplicate of job 0
    ]


def _canonical(results: list) -> list[str]:
    """Bit-stable serialisation of each result (the cache's own payload bytes)."""
    return [
        json.dumps(result.to_payload(), sort_keys=True, cls=_NumpyJSONEncoder)
        for result in results
    ]


@pytest.fixture(scope="module")
def reference_run() -> list[str]:
    """The serial, cache-less execution every other mode must reproduce."""
    engine = Engine(config=CONFIG, processes=0)
    return _canonical(engine.run(_mixed_jobs(engine)))


@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_runs_are_bit_identical_to_serial(reference_run, workers):
    engine = Engine(config=CONFIG, processes=workers)
    assert _canonical(engine.run(_mixed_jobs(engine))) == reference_run


@pytest.mark.parametrize("workers", [0, 2])
def test_cold_and_warm_cache_runs_are_bit_identical_to_serial(
    reference_run, tmp_path, workers
):
    cold_engine = Engine(config=CONFIG, cache=tmp_path / "cache", processes=workers)
    cold = _canonical(cold_engine.run(_mixed_jobs(cold_engine)))
    assert cold == reference_run
    assert cold_engine.stats()["executed_jobs"] == 5  # the duplicate never executes

    warm_engine = Engine(config=CONFIG, cache=tmp_path / "cache", processes=workers)
    warm = _canonical(warm_engine.run(_mixed_jobs(warm_engine)))
    assert warm == reference_run
    assert warm_engine.stats()["executed_jobs"] == 0
    assert warm_engine.stats()["cache"]["misses"] == 0


def test_interrupted_then_resumed_run_is_bit_identical_to_serial(
    reference_run, tmp_path
):
    """The acceptance criterion: resume executes only the not-yet-completed
    jobs and the full result set matches an uninterrupted serial run."""
    config = CONFIG.with_updates(
        session_dir=str(tmp_path / "sessions"), cache_dir=str(tmp_path / "cache")
    )
    engine = Engine(config=config, processes=0)
    session = engine.submit(_mixed_jobs(engine), session_id="harness")
    for count, _pair in enumerate(session, start=1):
        if count == 3:
            break  # interrupt mid-sweep (after the duplicate has streamed too)

    journal = SessionJournal.open(config.session_dir, "harness")
    completed_before = len(journal.completed)
    unique_jobs = len(set(journal.spec_hashes))
    assert 0 < completed_before < unique_jobs

    # A brand-new engine (a new process, in effect) re-opens the journal: the
    # job specs come from the journal's spec pickle, completed jobs replay
    # from the cache, and only the remainder executes.
    resumed_engine = Engine(config=config, processes=0)
    resumed = resumed_engine.submit(session_id="harness")
    outcomes = resumed.results()

    assert _canonical(outcomes) == reference_run
    stats = resumed_engine.stats()
    assert stats["executed_jobs"] == unique_jobs - completed_before
    assert stats["failed_jobs"] == 0
    # Every job the interrupted run completed was served, not re-executed.
    assert resumed.summary()["cached"] == completed_before

    # The journal is now fully complete: one more resume executes nothing.
    final_engine = Engine(config=config, processes=0)
    final = final_engine.submit(session_id="harness")
    assert _canonical(final.results()) == reference_run
    assert final_engine.stats()["executed_jobs"] == 0


def _filequeue_config(tmp_path, **updates) -> PipelineConfig:
    """CONFIG on the distributed transport with a 2-daemon spawned fleet."""
    return CONFIG.with_updates(
        transport="filequeue",
        spool_dir=str(tmp_path / "spool"),
        transport_workers=2,
        transport_lease_timeout=5.0,
        transport_poll_interval=0.02,
        **updates,
    )


def test_filequeue_two_worker_fleet_is_bit_identical_to_serial(reference_run, tmp_path):
    """The distributed clause: a 2-daemon repro-worker fleet over a shared
    spool directory reproduces the serial reference bit-for-bit."""
    engine = Engine(config=_filequeue_config(tmp_path))
    assert _canonical(engine.run(_mixed_jobs(engine))) == reference_run
    assert engine.stats()["executed_jobs"] == 5  # the duplicate never executes


def _bank_view(bank) -> list:
    """Every number an entry carries: metrics, docking summaries, coordinates."""
    return [
        (
            entry.metrics_record(),
            {m: ev.docking_summary for m, ev in sorted(entry.evaluations.items())},
            entry.predicted_structure.all_coords().tolist(),
            entry.reference_structure.all_coords().tolist(),
        )
        for entry in bank
    ]


def test_dataset_build_on_one_spawned_fleet_is_bit_identical_to_serial(tmp_path, monkeypatch):
    """A build boots its fleet once for both engine phases and stops it when
    it returns or raises; its entries equal the serial build's bit for bit."""
    from repro.dataset.builder import DatasetBuilder
    from repro.engine import FileQueueTransport

    spawned: list = []
    spawn = FileQueueTransport._spawn_worker

    def recording_spawn(self) -> None:
        spawn(self)
        spawned.append(self.workers[-1])

    monkeypatch.setattr(FileQueueTransport, "_spawn_worker", recording_spawn)
    fragments = DatasetBuilder.select_fragments(groups=["S"], limit_per_group=2)
    serial = DatasetBuilder(config=CONFIG).build(fragments)
    fleet = DatasetBuilder(config=_filequeue_config(tmp_path)).build(fragments)
    assert len(serial) == 2 and _bank_view(fleet) == _bank_view(serial)
    assert len(list((tmp_path / "spool" / "log").glob("*.out"))) == 2
    assert len(spawned) == 2 and all(proc.exitcode is not None for proc in spawned)

    def interrupt(event) -> None:
        raise KeyboardInterrupt  # a user stopping the build mid-phase

    builder = DatasetBuilder(config=_filequeue_config(tmp_path / "interrupted"))
    with pytest.raises(KeyboardInterrupt):
        builder.build(fragments, progress=interrupt)
    assert len(spawned) == 4 and all(proc.exitcode is not None for proc in spawned)


def test_filequeue_worker_kill_then_resume_is_bit_identical_to_serial(
    reference_run, tmp_path
):
    """SIGKILL one fleet member mid-sweep, interrupt the stream, resume from a
    brand-new engine: still bit-identical, and completed jobs never re-run."""
    config = _filequeue_config(
        tmp_path,
        session_dir=str(tmp_path / "sessions"),
        cache_dir=str(tmp_path / "cache"),
    )
    engine = Engine(config=config)
    session = engine.submit(_mixed_jobs(engine), session_id="fq-kill")
    stream = iter(session)
    next(stream)  # at least one outcome landed, so the fleet is live
    session.transport.workers[0].kill()  # SIGKILL mid-sweep; lease goes stale
    next(stream)
    next(stream)
    session.close()  # interrupt: abandon the stream with work outstanding

    journal = SessionJournal.open(config.session_dir, "fq-kill")
    completed_before = len(journal.completed)
    assert 0 < completed_before < 5

    resumed_engine = Engine(config=config)
    resumed = resumed_engine.submit(session_id="fq-kill")
    assert _canonical(resumed.results()) == reference_run
    # Every journalled completion replayed from the cache; only the remainder
    # executed (on a fresh worker fleet), and nothing executed twice.
    assert resumed.summary()["cached"] == completed_before
    assert resumed_engine.stats()["executed_jobs"] == 5 - completed_before
    assert resumed_engine.stats()["failed_jobs"] == 0


def test_scheduler_knobs_on_are_bit_identical_to_scheduler_off(reference_run, tmp_path):
    """The scheduler clause: priority classes decide *when* jobs run, never
    what they compute — every knob on must equal every knob off, and a warm
    rerun executes zero jobs."""
    from repro.engine import set_priority

    config = _filequeue_config(tmp_path, cache_dir=str(tmp_path / "cache"))
    engine = Engine(config=config)
    jobs = [set_priority(job, 3) for job in _mixed_jobs(engine)]
    set_priority(jobs[2], 9)  # mixed priority classes within one batch
    set_priority(jobs[4], 1)
    assert _canonical(engine.run(jobs)) == reference_run
    assert engine.stats()["executed_jobs"] == 5  # the duplicate never executes

    warm = Engine(config=config)
    assert _canonical(warm.run(_mixed_jobs(warm))) == reference_run
    assert warm.stats()["executed_jobs"] == 0
    assert warm.stats()["cache"]["misses"] == 0


def test_heterogeneous_tagged_fleet_is_bit_identical_to_homogeneous(
    reference_run, tmp_path
):
    """A capability-partitioned fleet (one fold-only worker, one untagged)
    with mixed priorities drains the same batch to the same bytes as the
    homogeneous fleet and the serial reference."""
    import os
    import subprocess
    import sys

    import repro
    from repro.engine import set_priority

    config = _filequeue_config(tmp_path).with_updates(
        transport_workers=0  # the heterogeneous fleet below replaces the spawned one
    )
    engine = Engine(config=config)
    spool_dir = config.spool_dir
    env = dict(os.environ)
    src_dir = str(__import__("pathlib").Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )

    def spawn(tags: str | None) -> subprocess.Popen:
        args = [
            sys.executable, "-m", "repro.cli.worker", spool_dir,
            "--poll-interval", "0.02", "--lease-timeout", "5",
        ]
        if tags:
            args += ["--tags", tags]
        return subprocess.Popen(
            args, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )

    workers = [spawn("fold"), spawn(None)]  # restricted + generalist
    try:
        jobs = [set_priority(job, 2) for job in _mixed_jobs(engine)]
        assert _canonical(engine.run(jobs)) == reference_run
        assert engine.stats()["executed_jobs"] == 5
    finally:
        for proc in workers:
            proc.terminate()
        for proc in workers:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()


def _network_config(port: int, **updates) -> PipelineConfig:
    """CONFIG on the network transport against a repro-serve at ``port``."""
    return CONFIG.with_updates(
        transport="network",
        serve_host="127.0.0.1",
        serve_port=port,
        transport_poll_interval=0.02,
        **updates,
    )


def test_network_serve_cold_and_warm_runs_are_bit_identical_to_serial(
    reference_run, tmp_path
):
    """The network clause: a repro-serve daemon with a 2-process shared pool
    reproduces the serial reference bit-for-bit, and a second client session
    is served entirely from the server's shared cache — same bytes."""
    from repro.serve import ReproServer

    with ReproServer(workers=2, cache=tmp_path / "serve-cache") as server:
        engine = Engine(config=_network_config(server.port))
        assert _canonical(engine.run(_mixed_jobs(engine))) == reference_run
        assert engine.stats()["executed_jobs"] == 5  # the duplicate never executes

        warm_engine = Engine(config=_network_config(server.port))
        assert _canonical(warm_engine.run(_mixed_jobs(warm_engine))) == reference_run
        assert server.stats()["cache_hits"] == 5  # all served, none re-executed


def test_network_client_disconnect_then_resume_is_bit_identical_to_serial(
    reference_run, tmp_path
):
    """A client that walks away mid-batch resumes from its journal against
    the same server: bit-identical, completed jobs never re-run."""
    from repro.serve import ReproServer

    with ReproServer(workers=2) as server:
        config = _network_config(
            server.port,
            session_dir=str(tmp_path / "sessions"),
            cache_dir=str(tmp_path / "cache"),
        )
        engine = Engine(config=config)
        session = engine.submit(_mixed_jobs(engine), session_id="net-drop")
        stream = iter(session)
        next(stream)
        next(stream)
        session.close()  # the client disconnects with work outstanding

        journal = SessionJournal.open(config.session_dir, "net-drop")
        completed_before = len(journal.completed)
        assert 0 < completed_before < 5

        resumed_engine = Engine(config=config)
        resumed = resumed_engine.submit(session_id="net-drop")
        assert _canonical(resumed.results()) == reference_run
        assert resumed.summary()["cached"] == completed_before
        assert resumed_engine.stats()["executed_jobs"] == 5 - completed_before
        assert resumed_engine.stats()["failed_jobs"] == 0


def test_network_server_kill_then_restart_resume_is_bit_identical_to_serial(
    reference_run, tmp_path
):
    """Kill the *server* mid-batch: the session finishes with journalled
    failures instead of hanging; restart the server on the same port and a
    cross-engine resume is bit-identical with zero re-executed completions."""
    from repro.engine import JobFailure
    from repro.serve import ReproServer

    server = ReproServer(workers=2).start()
    config = _network_config(
        server.port,
        session_dir=str(tmp_path / "sessions"),
        cache_dir=str(tmp_path / "cache"),
    )
    engine = Engine(config=config)
    session = engine.submit(_mixed_jobs(engine), session_id="net-srv-kill")
    stream = iter(session)
    next(stream)  # at least one completion landed
    server.shutdown()  # the service dies with the batch in flight
    outcomes = session.results()  # finishes as failures — never a hang

    failures = [outcome for outcome in outcomes if isinstance(outcome, JobFailure)]
    assert failures
    assert all(failure.error_type == "ServerDisconnected" for failure in failures)

    journal = SessionJournal.open(config.session_dir, "net-srv-kill")
    completed_before = len(journal.completed)
    assert 0 < completed_before < 5

    restarted = ReproServer(port=server.port, workers=2).start()
    try:
        resumed_engine = Engine(config=config)
        resumed = resumed_engine.submit(session_id="net-srv-kill")
        assert _canonical(resumed.results()) == reference_run
        # Journalled completions replayed from the local cache; only the
        # never-completed jobs executed on the restarted service.
        assert resumed.summary()["cached"] == completed_before
        assert resumed_engine.stats()["executed_jobs"] == 5 - completed_before
        assert resumed_engine.stats()["failed_jobs"] == 0
    finally:
        restarted.shutdown()


def test_cache_topology_flat_vs_tiered_is_bit_identical(reference_run, tmp_path):
    """The cache-topology clause, local half: a serial run over a flat
    ``LocalDirTier`` and a pool run over a ``TieredCache`` wrapping the same
    kind of local tier are bit-identical — cold and warm — and the warm
    tiered run executes zero jobs."""
    from repro.engine import LocalDirTier, TieredCache

    flat_engine = Engine(config=CONFIG, cache=LocalDirTier(tmp_path / "flat"), processes=0)
    assert _canonical(flat_engine.run(_mixed_jobs(flat_engine))) == reference_run
    assert flat_engine.stats()["executed_jobs"] == 5

    tiered = TieredCache([LocalDirTier(tmp_path / "tiered")])
    tiered_engine = Engine(config=CONFIG.with_updates(transport="pool"), cache=tiered, processes=2)
    assert _canonical(tiered_engine.run(_mixed_jobs(tiered_engine))) == reference_run
    assert tiered_engine.stats()["executed_jobs"] == 5

    warm = Engine(
        config=CONFIG.with_updates(transport="pool"),
        cache=TieredCache([LocalDirTier(tmp_path / "tiered")]),
        processes=2,
    )
    assert _canonical(warm.run(_mixed_jobs(warm))) == reference_run
    assert warm.stats()["executed_jobs"] == 0
    assert warm.stats()["cache"]["misses"] == 0


def test_cache_topology_remote_tier_is_bit_identical(reference_run, tmp_path):
    """The cache-topology clause, network half: a run whose cache stack ends
    in a ``RemoteTier`` against the serving daemon is bit-identical, and a
    second machine holding *only* the remote tier warm-runs with zero
    executions — served entirely over cache frames."""
    from repro.serve import ReproServer

    with ReproServer(workers=2, cache=tmp_path / "serve-cache") as server:
        config = _network_config(
            server.port,
            cache_dir=str(tmp_path / "client-cache"),
            cache_remote=f"127.0.0.1:{server.port}",
        )
        with Engine(config=config) as engine:
            assert _canonical(engine.run(_mixed_jobs(engine))) == reference_run
            assert engine.stats()["executed_jobs"] == 5
            # The session writes every executed result through every tier,
            # the serving daemon's included.
            remote_tier = engine.cache.tiers[-1]
            assert remote_tier.stats.writes == 5

        # "Another machine": no local cache at all, just the remote tier.
        with Engine(config=_network_config(
            server.port, cache_remote=f"127.0.0.1:{server.port}"
        )) as warm:
            assert _canonical(warm.run(_mixed_jobs(warm))) == reference_run
            assert warm.stats()["executed_jobs"] == 0
            assert warm.stats()["cache"]["misses"] == 0


def test_session_knobs_never_enter_job_hashes():
    """session_dir / transport / cache-topology knobs are orchestration detail:
    switching transports (or retuning the fleet) must not invalidate caches."""
    engine = Engine(config=CONFIG)
    tweaked = Engine(
        config=CONFIG.with_updates(
            session_dir="/elsewhere",
            transport="filequeue",
            spool_dir="/spool/elsewhere",
            transport_workers=7,
            transport_lease_timeout=1.5,
            transport_poll_interval=0.5,
            serve_host="10.1.2.3",
            serve_port=9999,
            cache_remote="10.1.2.3:7401",
        )
    )
    for base_job, tweaked_job in zip(_mixed_jobs(engine), _mixed_jobs(tweaked)):
        assert base_job.content_hash() == tweaked_job.content_hash()

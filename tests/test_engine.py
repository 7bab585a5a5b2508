"""Tests for the job engine: backends by name, content hashing, cache, fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from _support import orphans_of_killed_parent
from repro.config import PipelineConfig
from repro.engine import (
    Engine,
    JobResult,
    JobSpec,
    LocalDirTier,
    execute_job,
    make_backend,
)
from repro.engine.registry import executor_kinds, pool_initializer
from repro.exceptions import BackendError
from repro.folding.predictor import QuantumFoldingPredictor
from repro.quantum.backend import AutoBackend, MPSBackend, StatevectorBackend
from repro.quantum.circuit import QuantumCircuit


@pytest.fixture(scope="module")
def engine_config() -> PipelineConfig:
    """A minimal configuration keeping fold jobs cheap."""
    return PipelineConfig(
        vqe_iterations=6,
        optimisation_shots=32,
        final_shots=64,
        ansatz_reps=1,
        seed=11,
    )


def _structures_identical(a, b) -> bool:
    return (
        np.array_equal(a.structure.all_coords(), b.structure.all_coords())
        and a.structure.sequence == b.structure.sequence
        and a.metadata == b.metadata
    )


# -- backends by name --------------------------------------------------------------


def test_registry_knows_all_builtin_backends(engine_config):
    for name in ("statevector", "mps", "auto"):
        assert make_backend(name, engine_config) is not None
    for name in ("teleport", "eagle"):
        with pytest.raises(BackendError, match="backends: auto, mps, statevector"):
            make_backend(name, engine_config)


def test_make_backend_types_and_config_wiring(engine_config):
    assert isinstance(make_backend("statevector", engine_config), StatevectorBackend)
    assert isinstance(make_backend("auto", engine_config), AutoBackend)
    mps = make_backend("mps", engine_config.with_updates(mps_bond_dimension=5))
    assert isinstance(mps, MPSBackend)
    assert mps.max_bond_dimension == 5


def test_make_backend_defaults_to_config_backend(engine_config):
    backend = make_backend(config=engine_config.with_updates(backend="mps"))
    assert isinstance(backend, MPSBackend)


def test_make_backend_unknown_name_raises(engine_config):
    with pytest.raises(BackendError):
        make_backend("no_such_backend", engine_config)


def test_auto_backend_selection_at_exact_boundary():
    boundary = 9
    auto = AutoBackend(max_statevector_qubits=boundary)
    # Exactly at the limit the exact simulator is still used; one past it
    # falls over to MPS.
    assert auto.chosen_backend(QuantumCircuit(boundary - 1)) == "statevector"
    assert auto.chosen_backend(QuantumCircuit(boundary)) == "statevector"
    assert auto.chosen_backend(QuantumCircuit(boundary + 1)) == "mps"


def test_make_backend_auto_respects_boundary_from_config(engine_config):
    auto = make_backend("auto", engine_config.with_updates(max_statevector_qubits=7))
    assert auto.chosen_backend(QuantumCircuit(7)) == "statevector"
    assert auto.chosen_backend(QuantumCircuit(8)) == "mps"


# -- job hashing --------------------------------------------------------------------


def test_job_hash_is_stable_and_identity_sensitive(engine_config):
    spec = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config)
    assert spec.content_hash() == spec.content_hash()
    assert JobSpec(pdb_id="3EAX", sequence="RYRDV", config=engine_config).content_hash() == spec.content_hash()
    assert JobSpec(pdb_id="3ckz", sequence="RYRDV", config=engine_config).content_hash() != spec.content_hash()
    assert JobSpec(pdb_id="3eax", sequence="VKDRS", config=engine_config).content_hash() != spec.content_hash()


def test_job_hash_covers_fold_knobs_only(engine_config):
    base = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config)
    # Orchestration and docking knobs must not invalidate cached folds ...
    for irrelevant in (
        engine_config.with_updates(docking_seeds=99),
        engine_config.with_updates(transport_workers=8),
        engine_config.with_updates(cache_dir="/somewhere/else"),
    ):
        assert JobSpec("3eax", "RYRDV", config=irrelevant).content_hash() == base.content_hash()
    # ... while anything that changes the fold result must.
    for relevant in (
        engine_config.with_updates(seed=12),
        engine_config.with_updates(backend="mps"),
        engine_config.with_updates(final_shots=128),
    ):
        assert JobSpec("3eax", "RYRDV", config=relevant).content_hash() != base.content_hash()


def test_content_hash_memo_is_dropped_on_pickle(engine_config):
    """Journal spec pickles can outlive a schema bump: the memoized hash must
    not ride along, or stale hashes would match stale cache payloads."""
    import pickle

    spec = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config)
    first = spec.content_hash()
    assert "_hash_memo" in spec.__dict__  # memoized on the live object ...
    clone = pickle.loads(pickle.dumps(spec))
    assert "_hash_memo" not in clone.__dict__  # ... but re-derived after unpickling
    assert clone.content_hash() == first


def test_registry_snapshot_roundtrips_through_restore():
    initializer = pool_initializer()
    (executors,) = initializer["initargs"]
    assert {"fold", "baseline_fold", "dock"} <= set(executors)
    before = executor_kinds()
    initializer["initializer"](*initializer["initargs"])  # idempotent merge
    assert executor_kinds() == before


_POOL_CHILD = """
import multiprocessing, sys, time
from concurrent.futures import ProcessPoolExecutor, wait
from repro.engine.registry import pool_initializer

method = sys.argv[1]
pool = ProcessPoolExecutor(2, mp_context=multiprocessing.get_context(method), **pool_initializer())
wait([pool.submit(time.sleep, 0.5) for _ in range(2)], timeout=120)
print(*[p.pid for p in multiprocessing.active_children()], flush=True)
time.sleep(600)
"""


@pytest.mark.parametrize("method", ["spawn", "fork"])  # repro-serve's, the pool transport's
def test_pool_workers_exit_when_their_parent_is_killed(method):
    """A SIGKILLed parent runs no pool shutdown; the initializer's parent
    watch must still take its workers down."""
    assert not orphans_of_killed_parent(_POOL_CHILD, method)


# -- cache --------------------------------------------------------------------------


def test_result_cache_roundtrip_and_stats(tmp_path, engine_config):
    cache = LocalDirTier(tmp_path / "cache")
    spec = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config)
    key = spec.content_hash()
    assert cache.get(key) is None
    result = execute_job(spec)
    cache.put(key, result.to_payload())
    assert key in cache
    assert [entry.key for entry in cache.entries()] == [key]
    restored = JobResult.from_payload(cache.get(key))
    assert restored.from_cache
    assert _structures_identical(restored.prediction, result.prediction)
    assert cache.stats.as_dict() == {
        "hits": 1, "misses": 1, "writes": 1, "evictions": 0, "hit_rate": 0.5,
    }
    cache.entries()[0].path.unlink()
    assert cache.get(key) is None


def test_verify_flags_truncated_payload_and_wrong_hash(tmp_path, engine_config):
    cache = LocalDirTier(tmp_path)
    key = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config).content_hash()
    payload = {
        "spec_hash": key,
        "schema": "fold/v1",
        "conformation_coords": [[0.0, 0.0, float(i)] for i in range(16)],
    }
    cache.put(key, payload)
    assert cache.verify() == ([key], [])

    # Truncated payload (a torn write or a partially synced disk).
    path = cache._path(key)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    valid, corrupt = cache.verify()
    assert valid == []
    assert corrupt[0][0] == key and "unreadable" in corrupt[0][1]
    assert cache.get(key) is None  # a lookup degrades to a miss, never an error
    assert cache.peek(key) is None

    # Valid JSON whose spec_hash does not match the file name.
    import json as _json

    path.write_text(_json.dumps({**payload, "spec_hash": "f" * 64}))
    valid, corrupt = cache.verify()
    assert valid == []
    assert corrupt == [(key, "spec_hash does not match file name")]
    assert cache.get(key) is None

    cache.verify(delete=True)
    assert key not in cache
    assert cache.verify() == ([], [])


def test_cache_peek_is_stat_and_recency_neutral(tmp_path, engine_config):
    cache = LocalDirTier(tmp_path)
    key = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config).content_hash()
    cache.put(key, {"spec_hash": key, "schema": "fold/v1"})
    before = cache.entries()[0].mtime
    assert cache.peek(key) is not None
    assert cache.peek("0" * 64) is None
    assert cache.stats.lookups == 0  # no hit, no miss
    assert cache.entries()[0].mtime == before  # no LRU refresh either


def test_result_cache_treats_corrupt_entry_as_miss(tmp_path, engine_config):
    cache = LocalDirTier(tmp_path)
    key = JobSpec(pdb_id="3eax", sequence="RYRDV", config=engine_config).content_hash()
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("{ not json")
    assert cache.get(key) is None
    path.write_text('{"spec_hash": "someone-else"}')
    assert cache.get(key) is None
    assert cache.stats.misses == 2


def test_picklable_warns_once_per_entry_name():
    import logging

    from repro.engine import registry

    class _Capture(logging.Handler):
        def __init__(self):
            super().__init__()
            self.messages: list[str] = []

        def emit(self, record):
            self.messages.append(record.getMessage())

    capture = _Capture()
    target = logging.getLogger("repro.engine.registry")
    target.addHandler(capture)
    try:
        mapping = {"unpicklable_entry_for_test": lambda spec: None}
        # Every fan-out drops the entry, but only the first one warns.
        for _ in range(3):
            assert registry._picklable(mapping) == {}
        warnings = [m for m in capture.messages if "unpicklable_entry_for_test" in m]
        assert len(warnings) == 1
    finally:
        target.removeHandler(capture)


# -- engine -------------------------------------------------------------------------


def test_engine_warm_cache_performs_zero_vqe_executions(tmp_path, engine_config):
    engine = Engine(config=engine_config, cache=tmp_path / "cache")
    specs = [engine.spec("3eax", "RYRDV"), engine.spec("3ckz", "VKDRS", start_seq_id=149)]

    cold = engine.run(specs)
    stats = engine.stats()
    assert stats["executed_jobs"] == 2
    assert stats["cache"] == {
        "hits": 0, "misses": 2, "writes": 2, "evictions": 0, "hit_rate": 0.0,
    }
    assert not any(r.from_cache for r in cold)

    warm = engine.run(specs)
    stats = engine.stats()
    assert stats["executed_jobs"] == 2  # unchanged: no new VQE executions
    assert stats["cache"]["hits"] == 2
    assert all(r.from_cache for r in warm)
    for a, b in zip(cold, warm):
        assert a.spec_hash == b.spec_hash
        assert _structures_identical(a.prediction, b.prediction)

    # A brand-new engine over the same cache directory also executes nothing.
    fresh = Engine(config=engine_config, cache=tmp_path / "cache")
    again = fresh.run(specs)
    assert fresh.stats()["executed_jobs"] == 0
    assert all(r.from_cache for r in again)


def test_engine_serial_and_parallel_runs_are_bit_identical(engine_config):
    engine = Engine(config=engine_config)
    specs = [
        engine.spec("3eax", "RYRDV"),
        engine.spec("3ckz", "VKDRS"),
        engine.spec("4mo4", "NIGGF"),
    ]
    serial = engine.run(specs)
    parallel = Engine(config=engine_config, processes=2).run(specs)
    assert [r.pdb_id for r in parallel] == [r.pdb_id for r in serial]
    for a, b in zip(serial, parallel):
        assert a.spec_hash == b.spec_hash
        assert np.array_equal(a.conformation_coords, b.conformation_coords)
        assert _structures_identical(a.prediction, b.prediction)


def test_engine_deduplicates_identical_jobs_within_a_batch(engine_config):
    engine = Engine(config=engine_config)
    spec = engine.spec("3eax", "RYRDV")
    results = engine.run([spec, spec, spec])
    assert engine.stats()["executed_jobs"] == 1
    assert len(results) == 3
    assert _structures_identical(results[0].prediction, results[2].prediction)


def test_engine_cache_dir_from_config(tmp_path, engine_config):
    config = engine_config.with_updates(cache_dir=str(tmp_path / "implicit"))
    engine = Engine(config=config)
    engine.run([engine.spec("3eax", "RYRDV")])
    assert Engine(config=config).stats()["cache"] is not None
    rerun = Engine(config=config).run([JobSpec("3eax", "RYRDV", config=config)])
    assert rerun[0].from_cache


# -- predictor integration ----------------------------------------------------------


def test_predictor_reuses_engine_and_accumulates_stats(engine_config):
    predictor = QuantumFoldingPredictor(config=engine_config)
    predictor.predict("3eax", "RYRDV")
    predictor.predict("3ckz", "VKDRS")
    assert predictor.engine.stats()["completed_jobs"] == 2


"""Tests for the typed job family: baseline folds and docking as engine jobs,
cross-kind hashing, LRU cache bounds, and the warm-cache batch guarantee."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import random
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro.bio.reference import ReferenceStructureGenerator
from repro.config import PipelineConfig
from repro.dataset.batch import BatchProcessor
from repro.dataset.builder import DatasetBuilder
from repro.docking.ligand import SyntheticLigandGenerator
from repro.docking.vina import dock_structure
from repro.engine import (
    BaselineFoldSpec,
    DockSpec,
    Engine,
    JobSpec,
    LocalDirTier,
    executor_kinds,
)
from repro.engine.jobs import (
    _BASELINE_CONFIG_FIELDS,
    _DOCK_CONFIG_FIELDS,
    _FOLD_CONFIG_FIELDS,
)
from repro.exceptions import EngineError
from repro.folding.baselines import AF2LikePredictor, baseline_fold_fragment


@pytest.fixture(scope="module")
def job_config() -> PipelineConfig:
    """A minimal configuration keeping fold and dock jobs cheap."""
    return PipelineConfig(
        vqe_iterations=6,
        optimisation_shots=32,
        final_shots=64,
        ansatz_reps=1,
        docking_seeds=2,
        docking_poses=3,
        docking_mc_steps=30,
        seed=11,
    )


@pytest.fixture(scope="module")
def dock_inputs(job_config):
    """A (reference, ligand) pair for docking-job tests."""
    reference = ReferenceStructureGenerator(master_seed=job_config.seed).generate("3eax", "RYRDV")
    ligand = SyntheticLigandGenerator(master_seed=job_config.seed).generate(reference)
    return reference, ligand


def _dock_spec(job_config, dock_inputs, config=None, receptor_id="3eax:QDock") -> DockSpec:
    reference, ligand = dock_inputs
    return DockSpec(
        pdb_id="3eax",
        receptor_id=receptor_id,
        receptor=reference.structure,
        ligand=ligand,
        config=config or job_config,
    )


# -- executor registry ---------------------------------------------------------------


def test_all_builtin_kinds_have_executors():
    assert {"fold", "baseline_fold", "dock"} <= set(executor_kinds())


def test_unknown_baseline_method_raises(job_config):
    with pytest.raises(EngineError):
        baseline_fold_fragment("AF9", "3eax", "RYRDV", config=job_config)


# -- cross-kind hashing --------------------------------------------------------------


def test_cross_kind_hashes_do_not_collide(job_config, dock_inputs):
    fold = JobSpec(pdb_id="3eax", sequence="RYRDV", config=job_config)
    af2 = BaselineFoldSpec(pdb_id="3eax", sequence="RYRDV", method="AF2", config=job_config)
    af3 = BaselineFoldSpec(pdb_id="3eax", sequence="RYRDV", method="AF3", config=job_config)
    dock = _dock_spec(job_config, dock_inputs)
    hashes = [spec.content_hash() for spec in (fold, af2, af3, dock)]
    assert len(set(hashes)) == 4


def test_baseline_hash_covers_baseline_knobs_only(job_config):
    base = BaselineFoldSpec(pdb_id="3eax", sequence="RYRDV", method="AF2", config=job_config)
    # VQE and docking knobs must not invalidate cached baseline folds ...
    for irrelevant in (
        job_config.with_updates(vqe_iterations=99),
        job_config.with_updates(docking_seeds=99),
        job_config.with_updates(transport_workers=8),
    ):
        assert (
            BaselineFoldSpec("3eax", "RYRDV", method="AF2", config=irrelevant).content_hash()
            == base.content_hash()
        )
    # ... while the master seed and identity must.
    assert (
        BaselineFoldSpec("3eax", "RYRDV", method="AF2", config=job_config.with_updates(seed=12)).content_hash()
        != base.content_hash()
    )
    assert (
        BaselineFoldSpec("3ckz", "RYRDV", method="AF2", config=job_config).content_hash()
        != base.content_hash()
    )


def test_dock_hash_covers_dock_knobs_and_inputs(job_config, dock_inputs):
    base = _dock_spec(job_config, dock_inputs)
    # VQE knobs must not invalidate cached docking searches ...
    for irrelevant in (
        job_config.with_updates(vqe_iterations=99),
        job_config.with_updates(final_shots=9999),
        job_config.with_updates(cache_dir="/somewhere/else"),
    ):
        assert _dock_spec(job_config, dock_inputs, config=irrelevant).content_hash() == base.content_hash()
    # ... while the docking protocol, receptor identity and receptor content must.
    for relevant in (
        job_config.with_updates(docking_seeds=3),
        job_config.with_updates(docking_mc_steps=31),
        job_config.with_updates(seed=12),
    ):
        assert _dock_spec(job_config, dock_inputs, config=relevant).content_hash() != base.content_hash()
    assert (
        _dock_spec(job_config, dock_inputs, receptor_id="3eax:AF2").content_hash()
        != base.content_hash()
    )
    reference, ligand = dock_inputs
    moved = copy.deepcopy(reference.structure)
    moved.atoms[0].coords[0] += 0.5
    other = DockSpec(
        pdb_id="3eax", receptor_id="3eax:QDock", receptor=moved, ligand=ligand, config=job_config
    )
    assert other.content_hash() != base.content_hash()


# -- property-based hashing (seeded random spec generators, no new deps) -------------
#
# Each property sweeps ~25 seeded-random specs: content hashes must be stable
# under any construction order, must differ across kinds on identical
# payloads, and must ignore every session/transport-only orchestration knob.

_AMINO = "ACDEFGHIKLMNPQRSTVWY"

#: The config fields that are pure orchestration: mutating any of them (to an
#: arbitrary valid value) must leave every job hash unchanged.
_ORCHESTRATION_MUTATIONS = {
    "cache_dir": lambda rng: f"/cache/{rng.randrange(1 << 30):x}",
    "cache_remote": lambda rng: f"10.0.0.{rng.randrange(256)}:{rng.randrange(1, 1 << 16)}",
    "session_dir": lambda rng: f"/sessions/{rng.randrange(1 << 30):x}",
    "transport": lambda rng: rng.choice(["auto", "serial", "pool", "filequeue", "network"]),
    "spool_dir": lambda rng: f"/spool/{rng.randrange(1 << 30):x}",
    "transport_workers": lambda rng: rng.choice([None, rng.randrange(0, 8)]),
    "transport_lease_timeout": lambda rng: rng.uniform(0.1, 120.0),
    "transport_poll_interval": lambda rng: rng.uniform(0.005, 1.0),
    "serve_host": lambda rng: f"10.0.0.{rng.randrange(256)}",
    "serve_port": lambda rng: rng.randrange(1, 1 << 16),
}


def test_every_config_field_is_hashed_or_an_orchestration_mutation():
    """Each PipelineConfig field either enters some kind's hash or is swept by
    the hash-neutrality property below — a new field cannot skip both."""
    hashed = {*_FOLD_CONFIG_FIELDS, *_BASELINE_CONFIG_FIELDS, *_DOCK_CONFIG_FIELDS}
    fields = {f.name for f in dataclasses.fields(PipelineConfig)}
    assert hashed.isdisjoint(_ORCHESTRATION_MUTATIONS)
    assert fields == hashed | set(_ORCHESTRATION_MUTATIONS)


def _random_identity(rng: random.Random) -> tuple[str, str]:
    pdb_id = "".join(rng.choices("0123456789abcdefghijklmnopqrstuvwxyz", k=4))
    sequence = "".join(rng.choices(_AMINO, k=rng.randrange(3, 9)))
    return pdb_id, sequence


def _random_config_fields(rng: random.Random) -> dict:
    return {
        "vqe_iterations": rng.randrange(1, 300),
        "optimisation_shots": rng.randrange(16, 4096),
        "final_shots": rng.randrange(64, 100_000),
        "docking_seeds": rng.randrange(1, 20),
        "docking_mc_steps": rng.randrange(10, 2000),
        "seed": rng.randrange(1, 1 << 31),
    }


def _specs_for(config: PipelineConfig, pdb_id: str, sequence: str) -> list:
    return [
        JobSpec(pdb_id=pdb_id, sequence=sequence, config=config),
        BaselineFoldSpec(pdb_id=pdb_id, sequence=sequence, method="AF2", config=config),
        BaselineFoldSpec(pdb_id=pdb_id, sequence=sequence, method="AF3", config=config),
    ]


def test_property_hashes_are_stable_across_field_insertion_order():
    """The same logical config, assembled in any order (one-shot kwargs vs.
    field-by-field with_updates), hashes every kind of spec identically."""
    for seed in range(25):
        rng = random.Random(seed)
        pdb_id, sequence = _random_identity(rng)
        fields = _random_config_fields(rng)

        one_shot = PipelineConfig(**fields)
        rebuilt = PipelineConfig()
        items = list(fields.items())
        rng.shuffle(items)
        for name, value in items:
            rebuilt = rebuilt.with_updates(**{name: value})

        for a, b in zip(_specs_for(one_shot, pdb_id, sequence),
                        _specs_for(rebuilt, pdb_id, sequence)):
            assert a.content_hash() == b.content_hash(), f"seed {seed}"


def test_property_hashes_differ_across_kinds_on_identical_payloads():
    """One identity + one config, hashed as every kind: the schema version
    leads each hash, so kinds can never collide (and all specs in the pool
    are pairwise distinct)."""
    pool: set[str] = set()
    for seed in range(25):
        rng = random.Random(1000 + seed)
        pdb_id, sequence = _random_identity(rng)
        config = PipelineConfig(**_random_config_fields(rng))
        hashes = [spec.content_hash() for spec in _specs_for(config, pdb_id, sequence)]
        assert len(set(hashes)) == len(hashes), f"seed {seed}: kinds collided"
        pool.update(hashes)
    assert len(pool) == 25 * 3  # no accidental collisions across the sweep


def test_property_hashes_ignore_session_and_transport_knobs(dock_inputs):
    """Random mutations of every orchestration-only knob leave every kind's
    hash unchanged, while touching the master seed changes them all."""
    reference, ligand = dock_inputs
    for seed in range(25):
        rng = random.Random(2000 + seed)
        pdb_id, sequence = _random_identity(rng)
        config = PipelineConfig(**_random_config_fields(rng))
        mutated = config
        for name in rng.sample(list(_ORCHESTRATION_MUTATIONS),
                               k=rng.randrange(1, len(_ORCHESTRATION_MUTATIONS) + 1)):
            mutated = mutated.with_updates(**{name: _ORCHESTRATION_MUTATIONS[name](rng)})

        base_specs = _specs_for(config, pdb_id, sequence) + [
            DockSpec(pdb_id=pdb_id, receptor_id="r", receptor=reference.structure,
                     ligand=ligand, config=config),
        ]
        tweaked_specs = _specs_for(mutated, pdb_id, sequence) + [
            DockSpec(pdb_id=pdb_id, receptor_id="r", receptor=reference.structure,
                     ligand=ligand, config=mutated),
        ]
        for a, b in zip(base_specs, tweaked_specs):
            assert a.content_hash() == b.content_hash(), f"seed {seed}"

        reseeded = mutated.with_updates(seed=config.seed + 1)
        for a, b in zip(base_specs, _specs_for(reseeded, pdb_id, sequence)):
            assert a.content_hash() != b.content_hash(), f"seed {seed}"


# -- baseline jobs through the engine ------------------------------------------------


def test_baseline_job_cache_hit_miss_roundtrip(tmp_path, job_config):
    engine = Engine(config=job_config, cache=tmp_path / "cache")
    spec = engine.baseline_spec("3eax", "RYRDV", method="AF2")

    cold = engine.run([spec])[0]
    assert engine.stats()["executed_by_kind"] == {"baseline_fold": 1}
    assert not cold.from_cache

    fresh = Engine(config=job_config, cache=tmp_path / "cache")
    warm = fresh.run([spec])[0]
    assert fresh.stats()["executed_jobs"] == 0
    assert warm.from_cache
    assert warm.kind == "baseline_fold"
    assert np.array_equal(
        warm.prediction.structure.all_coords(), cold.prediction.structure.all_coords()
    )
    assert warm.prediction.metadata == cold.prediction.metadata

    # The engine result equals a direct predictor call with the same seeding.
    direct = AF2LikePredictor(
        reference_generator=ReferenceStructureGenerator(master_seed=job_config.seed)
    ).predict("3eax", "RYRDV")
    assert np.array_equal(
        warm.prediction.structure.all_coords(), direct.structure.all_coords()
    )


# -- dock jobs through the engine ----------------------------------------------------


def test_dock_job_cache_hit_miss_roundtrip(tmp_path, job_config, dock_inputs):
    engine = Engine(config=job_config, cache=tmp_path / "cache")
    spec = _dock_spec(job_config, dock_inputs)

    cold = engine.run([spec])[0]
    assert engine.stats()["executed_by_kind"] == {"dock": 1}
    assert not cold.from_cache
    assert len(cold.docking.runs) == job_config.docking_seeds

    fresh = Engine(config=job_config, cache=tmp_path / "cache")
    warm = fresh.run([spec])[0]
    assert fresh.stats()["executed_jobs"] == 0
    assert warm.from_cache
    assert warm.kind == "dock"
    # The cached summary replays the search bit-identically.
    assert warm.docking.as_dict() == cold.docking.as_dict()
    assert warm.docking.mean_best_affinity == cold.docking.mean_best_affinity

    # And matches a direct in-process docking run.
    reference, ligand = dock_inputs
    direct = dock_structure(reference.structure, ligand, config=job_config, receptor_id="3eax:QDock")
    assert warm.docking.as_dict() == direct.as_dict()


def test_mixed_kind_batch_dedups_and_orders(tmp_path, job_config, dock_inputs):
    engine = Engine(config=job_config, cache=tmp_path / "cache")
    dock = _dock_spec(job_config, dock_inputs)
    af2 = engine.baseline_spec("3eax", "RYRDV", method="AF2")
    results = engine.run([af2, dock, af2])
    assert engine.stats()["executed_by_kind"] == {"baseline_fold": 1, "dock": 1}
    assert results[0].kind == "baseline_fold"
    assert results[1].kind == "dock"
    assert np.array_equal(
        results[2].prediction.structure.all_coords(),
        results[0].prediction.structure.all_coords(),
    )


# -- cache size bounds ---------------------------------------------------------------


def _fake_payload(key: str, pad: int) -> dict:
    return {"spec_hash": key, "schema": "fold/v1", "pad": "x" * pad}


def _keys(n: int) -> list[str]:
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


def test_lru_eviction_keeps_recently_used_entries(tmp_path):
    k1, k2, k3 = _keys(3)
    cache = LocalDirTier(tmp_path)
    cache.put(k1, _fake_payload(k1, 128))
    entry_size = cache.entries()[0].size_bytes
    cache.put(k2, _fake_payload(k2, 128))
    time.sleep(0.02)
    assert cache.get(k1) is not None  # refreshes k1; k2 becomes least recently used
    time.sleep(0.02)
    cache.put(k3, _fake_payload(k3, 128))
    assert cache.prune(int(2.5 * entry_size)) == [k2]
    assert k1 in cache and k3 in cache
    assert k2 not in cache
    assert cache.stats.evictions == 1


def test_prune_spares_entries_rewritten_at_the_eviction_window(tmp_path):
    """Crash-consistency of prune vs. a concurrent writer: the ``_before_evict``
    hook interleaves a second cache handle at the exact race point.  An entry
    that vanished under a concurrent pruner is skipped (not counted as our
    eviction), and an entry re-written since the scan is spared — the fresh
    payload must survive the prune."""
    k1, k2, k3 = _keys(3)
    pruner = LocalDirTier(tmp_path)
    writer = LocalDirTier(tmp_path)
    for key in (k1, k2, k3):
        pruner.put(key, _fake_payload(key, 128))
        time.sleep(0.02)  # deterministic eviction order: k1 oldest

    rewritten = _fake_payload(k2, 400)

    def interleave(entry):
        if entry.key == k1:
            entry.path.unlink()  # a concurrent pruner evicted it first
        elif entry.key == k2:
            time.sleep(0.02)
            writer.put(k2, rewritten)  # a concurrent writer re-writes it now

    pruner._before_evict = interleave
    evicted = pruner.prune(0)  # bound 0: tries to evict everything scanned

    assert evicted == [k3]  # k1 vanished (not ours), k2 was spared
    assert pruner.stats.evictions == 1
    assert k1 not in pruner and k3 not in pruner
    assert pruner.get(k2) == rewritten  # the fresh write survived the prune


def test_prune_spares_a_same_tick_rewrite(tmp_path):
    """On coarse-mtime filesystems (1s ticks, 2s on exFAT) a concurrent
    rewrite can land with exactly the scanned mtime.  Change detection must
    compare more than float ``st_mtime`` — here the rewrite is pinned to the
    scanned entry's nanosecond mtime, and only its size gives it away."""
    import os

    (key,) = _keys(1)
    cache = LocalDirTier(tmp_path)
    writer = LocalDirTier(tmp_path)
    cache.put(key, _fake_payload(key, 64))

    rewritten = _fake_payload(key, 400)

    def same_tick_rewrite(entry):
        writer.put(key, rewritten)
        os.utime(entry.path, ns=(entry.mtime_ns, entry.mtime_ns))

    cache._before_evict = same_tick_rewrite
    assert cache.prune(0) == []  # spared: same mtime tick, different size
    assert cache.stats.evictions == 0
    assert cache.get(key) == rewritten


def test_prune_tolerates_every_entry_vanishing(tmp_path):
    """A racing deletion of every entry between scan and eviction must not
    error or miscount: nothing is left, nothing was 'evicted' by this prune."""
    cache = LocalDirTier(tmp_path)
    for key in _keys(3):
        cache.put(key, _fake_payload(key, 64))
    cache._before_evict = lambda entry: [path.unlink() for path in tmp_path.glob("*/*.json")]
    assert cache.prune(0) == []
    assert cache.stats.evictions == 0
    assert cache.entries() == []


def test_prune_rejects_negative_bound(tmp_path):
    cache = LocalDirTier(tmp_path)
    with pytest.raises(EngineError):
        cache.prune(-1)


def test_verify_delete_removes_misrenamed_files(tmp_path):
    k1, k2 = _keys(2)
    cache = LocalDirTier(tmp_path)
    cache.put(k1, _fake_payload(k1, 64))
    cache.put(k2, _fake_payload(k2, 64))
    # Rename k2's file to a key whose canonical shard is elsewhere: the entry
    # is corrupt (stem != spec_hash) and deleting via _path(stem) would miss
    # the actual file — verify must unlink the path it scanned.
    i = 0
    while True:
        k3 = hashlib.sha256(f"other{i}".encode()).hexdigest()
        if k3[:2] != k2[:2]:
            break
        i += 1
    misrenamed = cache._path(k2).parent / f"{k3}.json"
    cache._path(k2).rename(misrenamed)
    valid, corrupt = cache.verify(delete=True)
    assert valid == sorted([k1])
    assert [key for key, _ in corrupt] == [k3]
    assert not misrenamed.exists()  # the scanned file itself was deleted
    assert cache.verify() == ([k1], [])


def test_cache_verify_flags_and_deletes_corruption(tmp_path):
    k1, k2 = _keys(2)
    cache = LocalDirTier(tmp_path)
    cache.put(k1, _fake_payload(k1, 64))
    cache.put(k2, _fake_payload(k2, 64))
    valid, corrupt = cache.verify()
    assert sorted(valid) == sorted([k1, k2]) and corrupt == []

    cache._path(k2).write_text("{ torn write")
    valid, corrupt = cache.verify()
    assert valid == [k1] or sorted(valid) == [k1]
    assert [key for key, _ in corrupt] == [k2]

    cache.verify(delete=True)
    assert k2 not in cache
    assert cache.verify() == ([k1], [])


# -- the warm-cache batch guarantee (acceptance criterion) ---------------------------


@pytest.mark.parametrize("processes", [0, 2])
def test_build_entries_warm_cache_runs_zero_vqe_and_zero_docking(
    tmp_path, job_config, processes, monkeypatch
):
    config = job_config.with_updates(cache_dir=str(tmp_path / "cache"))
    fragments = DatasetBuilder.select_fragments(pdb_ids=["3eax", "1e2k"])

    # The cold build runs both engine phases on one transport of the engine's
    # worker count, and derives the contexts in this process; the warm build
    # below stays serial.
    cold_engine = Engine(config=config, processes=processes)
    transports: list = []
    transport_for = cold_engine.transport_for

    def recording_transport_for():
        transport = transport_for()
        transports.append(transport)
        return transport

    pools: list = []
    pool_init = ProcessPoolExecutor.__init__

    def recording_pool_init(self, *args, **kwargs):
        pools.append(kwargs.get("max_workers"))
        pool_init(self, *args, **kwargs)

    monkeypatch.setattr(cold_engine, "transport_for", recording_transport_for)
    monkeypatch.setattr(ProcessPoolExecutor, "__init__", recording_pool_init)
    cold = BatchProcessor(cold_engine).build_entries(fragments)
    cold_stats = cold_engine.stats()
    assert cold_stats["executed_by_kind"] == {"fold": 2, "baseline_fold": 4, "dock": 6}
    assert len(transports) == 2 and transports[0] is transports[1]
    assert transports[0].name == ("pool" if processes > 1 else "serial")
    # The only process pools are the pool transport's, one per phase: the
    # batch module starts none for its contexts.
    assert pools == ([processes] * 2 if processes > 1 else [])

    # A brand-new engine over the same cache executes nothing at all.
    warm_engine = Engine(config=config)
    warm = BatchProcessor(warm_engine).build_entries(fragments)
    warm_stats = warm_engine.stats()
    assert warm_stats["executed_jobs"] == 0
    assert warm_stats["executed_by_kind"] == {}
    assert warm_stats["cache"]["hits"] == 12
    assert warm_stats["cache"]["misses"] == 0

    # Warm-cache entries are bit-identical to the cold build.
    assert len(cold) == len(warm) == 2
    for a, b in zip(cold, warm):
        assert a.metrics_record() == b.metrics_record()
        assert np.array_equal(
            a.reference_structure.all_coords(), b.reference_structure.all_coords()
        )
        for method in ("QDock", "AF2", "AF3"):
            assert (
                a.evaluations[method].docking_summary == b.evaluations[method].docking_summary
            )
        assert np.array_equal(
            a.predicted_structure.all_coords(), b.predicted_structure.all_coords()
        )

"""Round-trip tests for the ``repro-cache`` command-line tool."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cli.cache import main
from repro.config import PipelineConfig
from repro.engine import Engine, LocalDirTier


@pytest.fixture(scope="module")
def populated_cache_dir(tmp_path_factory):
    """A cache holding one real baseline-fold entry and one real dock entry."""
    cache_dir = tmp_path_factory.mktemp("repro_cache")
    config = PipelineConfig(
        vqe_iterations=6, optimisation_shots=32, final_shots=64,
        docking_seeds=2, docking_poses=3, docking_mc_steps=30, seed=11,
    )
    engine = Engine(config=config, cache=cache_dir)

    from repro.bio.reference import ReferenceStructureGenerator
    from repro.docking.ligand import SyntheticLigandGenerator

    reference = ReferenceStructureGenerator(master_seed=config.seed).generate("3eax", "RYRDV")
    ligand = SyntheticLigandGenerator(master_seed=config.seed).generate(reference)
    engine.run([
        engine.baseline_spec("3eax", "RYRDV", method="AF2"),
        engine.dock_spec("3eax", reference.structure, ligand, receptor_id="3eax:QDock"),
    ])
    return cache_dir


def test_ls_lists_entries_with_kinds(populated_cache_dir, capsys):
    assert main(["ls", str(populated_cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "baseline_fold" in out
    assert "dock" in out
    assert "3eax" in out
    assert "2 entries shown" in out


def test_ls_respects_limit(populated_cache_dir, capsys):
    assert main(["ls", str(populated_cache_dir), "--limit", "1"]) == 0
    assert "1 entries shown" in capsys.readouterr().out


def test_stats_reports_counts_and_bytes(populated_cache_dir, capsys):
    assert main(["stats", str(populated_cache_dir), "--json"]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["entries"] == 2
    assert stats["total_bytes"] > 0
    assert stats["by_kind"] == {"baseline_fold": 1, "dock": 1}


def test_missing_cache_dir_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats", str(tmp_path / "nope")])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err


def test_verify_then_corrupt_then_delete_roundtrip(populated_cache_dir, capsys):
    # Pristine cache: everything valid, exit 0.
    assert main(["verify", str(populated_cache_dir)]) == 0
    assert "0 corrupt" in capsys.readouterr().out

    # Corrupt one entry: verify flags it and exits 1 without deleting.
    cache = LocalDirTier(populated_cache_dir)
    victim = cache.entries()[0]
    victim.path.write_text("{ torn write")
    assert main(["verify", str(populated_cache_dir)]) == 1
    assert "1 corrupt" in capsys.readouterr().out
    assert victim.path.exists()

    # --delete removes it and exits 0; the survivor still verifies.
    assert main(["verify", str(populated_cache_dir), "--delete"]) == 0
    out = capsys.readouterr().out
    assert "deleted" in out
    assert not victim.path.exists()
    assert main(["verify", str(populated_cache_dir)]) == 0


def _misplaced_cache(tmp_path):
    """A cache with one well-placed entry and one hand-moved into a foreign shard."""
    cache_dir = tmp_path / "sharded"
    cache = LocalDirTier(cache_dir)
    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(2)]
    for key in keys:
        cache.put(key, {"spec_hash": key, "schema": "fold/v1", "pad": "x" * 64})
    victim = cache.entries()[0]
    foreign = cache_dir / ("zz" if victim.key[:2] != "zz" else "qq")
    foreign.mkdir()
    victim.path.rename(foreign / victim.path.name)
    return cache_dir, victim.key


def test_ls_shows_the_shard_and_warns_on_misplaced_entries(tmp_path, capsys):
    cache_dir, misplaced_key = _misplaced_cache(tmp_path)
    assert main(["ls", str(cache_dir)]) == 0
    captured = capsys.readouterr()
    assert "shard" in captured.out  # the column header
    assert "2 entries shown" in captured.out
    assert misplaced_key[:2] in captured.err  # names the shard it should be in
    assert "lookups will miss it" in captured.err


def test_stats_skips_misplaced_entries_with_a_warning(tmp_path, capsys):
    cache_dir, _ = _misplaced_cache(tmp_path)
    assert main(["stats", str(cache_dir), "--json"]) == 0
    captured = capsys.readouterr()
    stats = json.loads(captured.out)
    assert stats["entries"] == 1  # the misplaced file serves no lookups
    assert "skipping" in captured.err and "move or delete it" in captured.err


def test_stats_reaches_a_remote_tier_and_local_subcommands_refuse_one(tmp_path, capsys):
    from repro.serve import ReproServer

    key = hashlib.sha256(b"remote-cli").hexdigest()
    LocalDirTier(tmp_path / "serve-cache").put(
        key, {"spec_hash": key, "schema": "fold/v1", "pad": "x" * 64}
    )
    with ReproServer(workers=0, cache=tmp_path / "serve-cache") as server:
        spec = f"remote:127.0.0.1:{server.port}"
        assert main(["stats", spec, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["tier"] == spec
        assert stats["entries"] == 1 and stats["total_bytes"] > 0

        # Maintenance needs local files: remote specs are a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["ls", spec])
        assert exc.value.code == 2
        assert "only 'stats' works" in capsys.readouterr().err

    # An unreachable server is exit 2, not a stack trace.
    with pytest.raises(SystemExit) as exc:
        main(["stats", "remote:127.0.0.1:1"])
    assert exc.value.code == 2
    assert "cannot reach" in capsys.readouterr().err


def test_prune_rejects_negative_max_bytes(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    LocalDirTier(cache_dir)  # create the directory
    assert main(["prune", str(cache_dir), "--max-bytes", "-5"]) == 2
    assert "must be >= 0" in capsys.readouterr().err


def test_prune_round_trip(tmp_path, capsys):
    cache_dir = tmp_path / "prune_cache"
    cache = LocalDirTier(cache_dir)
    keys = [hashlib.sha256(str(i).encode()).hexdigest() for i in range(4)]
    for key in keys:
        cache.put(key, {"spec_hash": key, "schema": "fold/v1", "pad": "x" * 128})
    entry_size = cache.entries()[0].size_bytes

    assert main(["prune", str(cache_dir), "--max-bytes", str(int(2.5 * entry_size))]) == 0
    assert "evicted 2 entries" in capsys.readouterr().out
    assert len(LocalDirTier(cache_dir).entries()) == 2

    # Pruning to zero empties the cache; a second prune is a no-op.
    assert main(["prune", str(cache_dir), "--max-bytes", "0"]) == 0
    assert len(LocalDirTier(cache_dir).entries()) == 0
    assert main(["prune", str(cache_dir), "--max-bytes", "0"]) == 0
    assert "evicted 0 entries" in capsys.readouterr().out

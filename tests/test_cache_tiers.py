"""The cache-tier battery: spec parsing and config resolution, the tiered
stack (local-first reads, promotion, write-through to every member), two
tiers racing put/prune on one shared directory,
and the remote tier against a live ``repro-serve`` (including a server
restart mid-lookup)."""

from __future__ import annotations

import hashlib
import threading
import time

import pytest

from repro.config import PipelineConfig
from repro.engine import (
    LocalDirTier,
    RemoteTier,
    TieredCache,
    parse_tier_spec,
    resolve_cache,
)
from repro.exceptions import EngineError

def _key(seed: str) -> str:
    return hashlib.sha256(seed.encode("utf-8")).hexdigest()


def _payload(key: str, pad: str = "x", size: int = 256) -> dict:
    return {"spec_hash": key, "schema": "echo/v1", "blob": pad * size}


def _where(tier) -> tuple:
    """Which store a single tier talks to: its resolved directory or address."""
    if isinstance(tier, RemoteTier):
        return ("remote", tier.host, tier.port)
    return ("local", str(tier.root.resolve()))


# -- spec parsing and config resolution ----------------------------------------------


def test_parse_tier_spec_local_variants(tmp_path):
    plain = parse_tier_spec(tmp_path / "a")
    assert isinstance(plain, LocalDirTier)
    assert _where(plain) == ("local", str((tmp_path / "a").resolve()))


def test_parse_tier_spec_remote_variants():
    tier = parse_tier_spec("remote:10.0.0.9:7377")
    assert isinstance(tier, RemoteTier)
    assert _where(tier) == ("remote", "10.0.0.9", 7377)
    # A bare port defaults the host.
    assert _where(parse_tier_spec("remote::7377")) == ("remote", "127.0.0.1", 7377)


@pytest.mark.parametrize(
    "spec", ["", "   ", "remote:", "remote:hostonly", "remote:host:NaN", "remote://10.0.0.9:7377"]
)
def test_parse_tier_spec_rejects_bad_specs(spec):
    with pytest.raises(EngineError):
        parse_tier_spec(spec)


def test_resolve_cache_maps_config_knobs_onto_tiers(tmp_path):
    # Cacheless stays cacheless.
    assert resolve_cache(PipelineConfig()) is None

    # A single cache_dir resolves to one bare local tier — not a 1-stack.
    single = resolve_cache(PipelineConfig(cache_dir=str(tmp_path / "one")))
    assert isinstance(single, LocalDirTier)

    # cache_remote is appended outermost behind cache_dir ...
    stacked = resolve_cache(PipelineConfig(
        cache_dir=str(tmp_path / "local"), cache_remote="10.0.0.9:7377",
    ))
    assert isinstance(stacked, TieredCache)
    assert [_where(t) for t in stacked.tiers] == [
        ("local", str((tmp_path / "local").resolve())), ("remote", "10.0.0.9", 7377),
    ]
    # ... and stands alone without one.
    remote_only = resolve_cache(PipelineConfig(cache_remote="remote:10.0.0.9:7377"))
    assert _where(remote_only) == ("remote", "10.0.0.9", 7377)

    # An explicit instance passes through untouched.
    mine = LocalDirTier(tmp_path / "mine")
    assert resolve_cache(PipelineConfig(cache_dir="/elsewhere"), cache=mine) is mine


def test_explicit_cache_dir_keeps_config_cache_remote(tmp_path):
    """An explicit directory stands in for cache_dir; cache_remote is still
    appended, on every path that takes one."""
    from repro.dataset.builder import DatasetBuilder
    from repro.engine import Engine

    config = PipelineConfig(cache_remote="10.0.0.9:7377")
    expected = [
        ("local", str((tmp_path / "d").resolve())), ("remote", "10.0.0.9", 7377),
    ]
    caches = [
        resolve_cache(config, cache=tmp_path / "d"),
        Engine(config=config, cache=str(tmp_path / "d")).cache,
        DatasetBuilder(config=config, cache_dir=tmp_path / "d").engine.cache,
    ]
    for cache in caches:
        assert isinstance(cache, TieredCache)
        assert [_where(t) for t in cache.tiers] == expected


# -- the tiered stack ----------------------------------------------------------------


def test_tiered_reads_are_local_first_and_promote_later_hits(tmp_path):
    fast = LocalDirTier(tmp_path / "fast")
    slow = LocalDirTier(tmp_path / "slow")
    stack = TieredCache([fast, slow])
    key = _key("promote")
    slow.put(key, _payload(key))

    assert stack.get(key) == _payload(key)
    # The hit was promoted: the next lookup is served by the fast tier.
    assert fast.peek(key) == _payload(key)
    assert stack.stats.hits == 1 and stack.stats.misses == 0
    assert stack.get(_key("absent")) is None
    assert stack.stats.misses == 1


def test_tiered_write_through_and_covers_semantics(tmp_path):
    """A put writes every member, even one that already holds the payload."""
    fast = LocalDirTier(tmp_path / "fast")
    slow = LocalDirTier(tmp_path / "slow")
    stack = TieredCache([fast, slow])
    key = _key("through")
    assert stack.put(key, _payload(key))
    assert fast.peek(key) == _payload(key) and slow.peek(key) == _payload(key)

    other = _key("held-by-one")
    slow.put(other, _payload(other))
    assert stack.put(other, _payload(other))
    assert fast.peek(other) == _payload(other)
    assert (fast.stats.writes, slow.stats.writes, stack.stats.writes) == (2, 3, 2)


def test_tiered_put_reports_a_member_that_dropped_the_payload(tmp_path):
    """All-held is the contract: a dead member makes ``put`` return False so
    the caller can tell the payload is not everywhere it asked for."""
    stack = TieredCache([LocalDirTier(tmp_path / "ok"), RemoteTier("127.0.0.1", 1, timeout=0.5)])
    key = _key("degraded")
    assert stack.put(key, _payload(key)) is False
    assert stack.tiers[0].peek(key) == _payload(key)  # the live member still filled


def test_two_stacks_racing_put_and_prune_on_one_shared_tier(tmp_path):
    """Two LocalDirTier instances over the same directory: a key one rewrites
    while the other is mid-prune survives (the prune re-validates stat
    identity before unlinking), and nothing is ever torn."""
    shared = tmp_path / "shared"
    tier_a = LocalDirTier(shared)
    tier_b = LocalDirTier(shared)
    keys = [_key(f"race-{i}") for i in range(4)]
    for key in keys:
        assert tier_a.put(key, _payload(key))
    assert tier_b.get(keys[0]) == _payload(keys[0])  # shared through the directory

    rewritten = keys[1]
    fresh = _payload(rewritten, pad="y", size=512)  # different size: provably newer

    def interleave(entry):
        if entry.key == rewritten:
            tier_b.put(rewritten, fresh)

    tier_a._before_evict = interleave
    evicted = tier_a.prune(0)
    assert rewritten not in evicted  # the concurrent rewrite was not destroyed
    assert set(evicted) == set(keys) - {rewritten}
    assert tier_b.get(rewritten) == fresh
    valid, corrupt = tier_b.verify()
    assert corrupt == [] and valid == [rewritten]


def test_concurrent_put_get_prune_threads_never_corrupt_the_shared_tier(tmp_path):
    shared = tmp_path / "shared"
    tier_a = LocalDirTier(shared)
    tier_b = LocalDirTier(shared)
    keys = [_key(f"thread-{i}") for i in range(16)]
    stop = threading.Event()
    errors: list[BaseException] = []

    def writer():
        i = 0
        try:
            while not stop.is_set():
                key = keys[i % len(keys)]
                tier_a.put(key, _payload(key))
                got = tier_a.get(key)  # evicted-mid-read is a miss, never a crash
                assert got is None or got == _payload(key)
                i += 1
        except BaseException as exc:  # pragma: no cover - the assertion channel
            errors.append(exc)

    def pruner():
        try:
            while not stop.is_set():
                tier_b.prune(4 * 300)  # keep ~4 entries' worth, evict the rest
        except BaseException as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=writer), threading.Thread(target=pruner)]
    for thread in threads:
        thread.start()
    time.sleep(0.4)
    stop.set()
    for thread in threads:
        thread.join(timeout=10)
    assert errors == []
    _, corrupt = LocalDirTier(shared).verify()
    assert corrupt == []


# -- the remote tier against a live server -------------------------------------------


def test_remote_tier_roundtrip_against_a_live_server(tmp_path):
    from repro.serve import ReproServer

    key = _key("remote-roundtrip")
    with ReproServer(workers=0, cache=tmp_path / "serve-cache") as server:
        tier = RemoteTier("127.0.0.1", server.port, timeout=5.0)
        try:
            assert tier.get(key) is None  # cold miss
            assert tier.put(key, _payload(key)) is True
            assert tier.get(key) == _payload(key)
            assert tier.peek(key) == _payload(key)  # stat-neutral
            assert tier.stats.hits == 1 and tier.stats.misses == 1 and tier.stats.writes == 1

            stats = tier.remote_stats()
            assert stats["entries"] == 1 and stats["total_bytes"] > 0
        finally:
            tier.close()


def test_remote_tier_survives_a_server_restart_mid_lookup(tmp_path):
    """Kill the server between requests: lookups degrade to misses (never an
    exception), puts report False, and the same tier object transparently
    reconnects to a replacement server on the same port."""
    from repro.serve import ReproServer

    cache_dir = tmp_path / "serve-cache"
    key = _key("restart")
    server = ReproServer(workers=0, cache=cache_dir).start()
    port = server.port
    tier = RemoteTier("127.0.0.1", port, timeout=5.0)
    try:
        assert tier.put(key, _payload(key)) is True
        server.shutdown()

        assert tier.get(key) is None  # down: a miss, not a crash
        assert tier.put(key, _payload(key)) is False

        restarted = ReproServer(host="127.0.0.1", port=port, workers=0, cache=cache_dir).start()
        try:
            assert tier.get(key) == _payload(key)  # reconnected, served from disk
        finally:
            restarted.shutdown()
    finally:
        tier.close()


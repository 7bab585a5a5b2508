"""The engine's result cache, structured as composable tiers.

Public surface:

* :class:`LocalDirTier` — the content-addressed on-disk store (one JSON
  file per content hash, sharded, optionally size-bounded).
* :class:`RemoteTier` — the same interface over a ``repro-serve`` socket
  (``cache_get``/``cache_put``/``cache_stats`` frames), so N machines share
  one cache without a shared filesystem.
* :class:`TieredCache` — an ordered stack of tiers: local-first reads,
  promote-on-remote-hit, write-through.
* :class:`CacheTier` — the protocol all of the above implement
  (``get/peek/put/entries/prune/verify/stats`` plus the
  ``location``/``covers`` write-through bookkeeping).

Tiers are *configuration*: :func:`parse_tier_spec` turns a spec string — a
directory path, ``local:DIR`` or ``remote:HOST:PORT`` — into a tier, and
:func:`resolve_cache` maps ``PipelineConfig.cache_tiers`` /
``cache_remote`` / ``cache_dir`` (or an explicit ``Engine(cache=...)``
argument) onto a single tier or a :class:`TieredCache`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

from repro.engine.cache.base import CacheEntry, CacheStats, CacheTier, LocationToken
from repro.engine.cache.local import (
    EVICTION_POLICIES,
    LOW_WATER_FRACTION,
    LocalDirTier,
)
from repro.engine.cache.remote import RemoteTier
from repro.engine.cache.tiered import TieredCache
from repro.exceptions import EngineError

__all__ = [
    "EVICTION_POLICIES",
    "LOW_WATER_FRACTION",
    "CacheEntry",
    "CacheStats",
    "CacheTier",
    "LocalDirTier",
    "LocationToken",
    "RemoteTier",
    "TieredCache",
    "parse_tier_spec",
    "resolve_cache",
]


def parse_tier_spec(spec: str | Path, config: Any = None) -> CacheTier:
    """Build one cache tier from a spec string.

    * ``remote:HOST:PORT`` (``remote://HOST:PORT`` also accepted) — a
      :class:`RemoteTier` against that ``repro-serve`` endpoint;
    * ``local:DIR`` or a plain directory path — a :class:`LocalDirTier`.

    With ``config`` given, local tiers inherit its ``cache_max_bytes`` /
    ``cache_eviction``; without it they are unbounded LRU (the right default
    for worker-side write-through, where eviction policy belongs to the
    owning session, not to every writer).
    """
    text = str(spec).strip()
    if not text:
        raise EngineError("cache tier spec must be a non-empty string")
    if text.startswith("remote:"):
        address = text[len("remote:"):].lstrip("/")
        host, sep, port = address.rpartition(":")
        if not sep or not port.isdigit():
            raise EngineError(
                f"cannot parse cache tier spec {text!r}: expected remote:HOST:PORT"
            )
        return RemoteTier(host or "127.0.0.1", int(port))
    if text.startswith("local:"):
        text = text[len("local:"):]
        if not text:
            raise EngineError("cache tier spec 'local:' is missing its directory")
    if config is not None:
        return LocalDirTier(
            text,
            max_bytes=getattr(config, "cache_max_bytes", None),
            eviction=getattr(config, "cache_eviction", "lru"),
        )
    return LocalDirTier(text)


def resolve_cache(config: Any, cache: Any = None) -> CacheTier | None:
    """Resolve the engine's ``cache`` argument + config knobs into one tier.

    ``cache`` may be ``None`` (use the config: ``cache_tiers`` if set, else
    ``cache_dir``, appending ``cache_remote`` as the outermost tier), a spec
    string / path (one tier), a sequence of specs or tier instances (a
    :class:`TieredCache`), or an already built tier (returned as-is).
    Returns ``None`` for a cacheless engine.
    """
    if cache is None:
        tiers = getattr(config, "cache_tiers", None)
        if tiers:
            specs = [str(s) for s in tiers]
        else:
            cache_dir = getattr(config, "cache_dir", None)
            specs = [str(cache_dir)] if cache_dir else []
        remote = getattr(config, "cache_remote", None)
        if remote:
            remote_spec = str(remote)
            if not remote_spec.startswith("remote:"):
                remote_spec = f"remote:{remote_spec}"
            if remote_spec not in specs:
                specs.append(remote_spec)
        if not specs:
            return None
        if len(specs) == 1:
            return parse_tier_spec(specs[0], config=config)
        cache = specs
    if isinstance(cache, (str, Path)):
        return parse_tier_spec(cache, config=config)
    if isinstance(cache, Sequence):
        members = [
            parse_tier_spec(item, config=config) if isinstance(item, (str, Path)) else item
            for item in cache
        ]
        return TieredCache(members)
    return cache

"""The engine's result cache, structured as composable tiers.

Public surface:

* :class:`LocalDirTier` — the content-addressed on-disk store (one JSON
  file per content hash, sharded; ``repro-cache prune`` bounds it).
* :class:`RemoteTier` — the same interface over a ``repro-serve`` socket
  (``cache_get``/``cache_put``/``cache_stats`` frames), so N machines share
  one cache without a shared filesystem.
* :class:`TieredCache` — an ordered stack of tiers (the engine's is the
  local tier in front of the remote one): local-first reads,
  promote-on-remote-hit, write-through.
* :class:`CacheTier` — the protocol all of the above implement
  (``get/peek/put/stats``).

Tiers are *configuration*: :func:`parse_tier_spec` turns a spec string — a
directory path or ``remote:HOST:PORT`` — into a tier, and
:func:`resolve_cache` maps ``PipelineConfig.cache_dir`` plus
``cache_remote`` onto a single tier or a :class:`TieredCache`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.engine.cache.base import CacheEntry, CacheStats, CacheTier
from repro.engine.cache.local import LocalDirTier
from repro.engine.cache.remote import RemoteTier
from repro.engine.cache.tiered import TieredCache
from repro.exceptions import EngineError

__all__ = [
    "CacheEntry",
    "CacheStats",
    "CacheTier",
    "LocalDirTier",
    "RemoteTier",
    "TieredCache",
    "parse_tier_spec",
    "resolve_cache",
]


def parse_tier_spec(spec: str | Path) -> CacheTier:
    """Build one cache tier from a spec string.

    * ``remote:HOST:PORT`` — a :class:`RemoteTier` against that
      ``repro-serve`` endpoint (an empty host means ``127.0.0.1``);
    * anything else is a directory path — a :class:`LocalDirTier`.
    """
    text = str(spec).strip()
    if not text:
        raise EngineError("cache tier spec must be a non-empty string")
    if not text.startswith("remote:"):
        return LocalDirTier(text)
    host, sep, port = text[len("remote:"):].rpartition(":")
    if not sep or not port.isdigit() or "/" in host:
        raise EngineError(f"cannot parse cache tier spec {text!r}: expected remote:HOST:PORT")
    return RemoteTier(host or "127.0.0.1", int(port))


def resolve_cache(config: Any, cache: Any = None) -> CacheTier | None:
    """The engine's cache: ``cache`` if it is a built tier, else the config's.

    The first tier is ``config.cache_dir``, or ``cache`` when that is a
    directory or spec string; ``config.cache_remote`` is appended as the
    outermost one, and two tiers make a :class:`TieredCache`.  Returns
    ``None`` for a cacheless engine.
    """
    if cache is not None and not isinstance(cache, (str, Path)):
        return cache
    local = cache or getattr(config, "cache_dir", None)
    specs = [str(local)] if local else []
    remote = getattr(config, "cache_remote", None)
    if remote:
        remote_spec = str(remote)
        if not remote_spec.startswith("remote:"):
            remote_spec = f"remote:{remote_spec}"
        if remote_spec not in specs:
            specs.append(remote_spec)
    if not specs:
        return None
    tiers = [parse_tier_spec(spec) for spec in specs]
    return tiers[0] if len(tiers) == 1 else TieredCache(tiers)

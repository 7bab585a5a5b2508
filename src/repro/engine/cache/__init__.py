"""The engine's result cache, structured as composable tiers.

Public surface:

* :class:`LocalDirTier` — the content-addressed on-disk store (one JSON
  file per content hash, sharded; ``repro-cache prune`` bounds it).
* :class:`RemoteTier` — the same interface over a ``repro-serve`` socket
  (``cache_get``/``cache_put``/``cache_stats`` frames), so N machines share
  one cache without a shared filesystem.
* :class:`TieredCache` — an ordered stack of tiers: local-first reads,
  promote-on-remote-hit, write-through.
* :class:`CacheTier` — the protocol all of the above implement
  (``get/peek/put/entries/prune/verify/stats``).

Tiers are *configuration*: :func:`parse_tier_spec` turns a spec string — a
directory path, ``local:DIR`` or ``remote:HOST:PORT`` — into a tier, and
:func:`resolve_cache` maps ``PipelineConfig.cache_dir`` (or an explicit
``Engine(cache=...)`` argument) plus ``cache_remote`` onto a single tier or a
:class:`TieredCache`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Sequence

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

    * ``remote:HOST:PORT`` (``remote://HOST:PORT`` also accepted) — a
      :class:`RemoteTier` against that ``repro-serve`` endpoint;
    * ``local:DIR`` or a plain directory path — a :class:`LocalDirTier`.
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
    return LocalDirTier(text)


def resolve_cache(config: Any, cache: Any = None) -> CacheTier | None:
    """Resolve the engine's ``cache`` argument + config knobs into one tier.

    ``cache`` may be ``None`` (use ``config.cache_dir``) or a spec string /
    path that stands in for ``cache_dir``; either way ``config.cache_remote``
    is appended as the outermost tier.  An explicit stack — a sequence of
    specs or tier instances, composed into a :class:`TieredCache` in order —
    and an already built tier are taken as they are.  Returns ``None`` for a
    cacheless engine.
    """
    if cache is not None and not isinstance(cache, (str, Path)):
        if isinstance(cache, Sequence):
            return TieredCache([
                parse_tier_spec(item) if isinstance(item, (str, Path)) else item
                for item in cache
            ])
        return cache
    if cache is None:
        cache = getattr(config, "cache_dir", None) or None
    specs = [] if cache is None else [str(cache)]
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

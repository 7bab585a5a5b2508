"""The :class:`CacheTier` protocol and the bookkeeping types tiers share.

A *cache tier* is any store that maps a job's content hash to its canonical
JSON payload.  The engine, the session layer, the transports and the
``repro-cache`` CLI all speak this one protocol; whether the bytes live in a
local sharded directory (:class:`~repro.engine.cache.local.LocalDirTier`), on
the other end of a ``repro-serve`` socket
(:class:`~repro.engine.cache.remote.RemoteTier`), or across an ordered stack
of both (:class:`~repro.engine.cache.tiered.TieredCache`) is invisible to
them — that invisibility is asserted bit-for-bit by the determinism harness's
cache-topology clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, runtime_checkable


@dataclass
class CacheStats:
    """Hit / miss / write / eviction counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never queried)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for logs and reports."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


@dataclass(frozen=True)
class CacheEntry:
    """One on-disk cache entry's bookkeeping view (no payload)."""

    key: str
    path: Path
    size_bytes: int
    mtime: float
    #: Nanosecond mtime, for change detection: float ``st_mtime`` loses
    #: precision and coarse-granularity filesystems (1s, 2s on exFAT) make
    #: same-tick rewrites indistinguishable by ``mtime`` alone.
    mtime_ns: int = 0


@runtime_checkable
class CacheTier(Protocol):
    """What every cache tier provides; see the module docstring.

    ``entries``/``prune``/``verify`` are maintenance surface: tiers without
    local state (a remote client) implement them as documented no-ops rather
    than raising, so tier-generic tooling never needs isinstance checks.
    """

    stats: CacheStats

    def get(self, key: str) -> dict[str, Any] | None:
        """The payload under ``key`` or ``None``; counts a hit or miss."""
        ...

    def peek(self, key: str) -> dict[str, Any] | None:
        """Stat-neutral ``get``: no counters, no recency refresh."""
        ...

    def put(self, key: str, payload: dict[str, Any]) -> bool:
        """Store ``payload`` under ``key``; ``True`` when it is durably held."""
        ...

    def entries(self) -> list[CacheEntry]:
        """Locally enumerable entries, eviction order first (``[]`` if none)."""
        ...

    def prune(self, max_bytes: int) -> list[str]:
        """Evict down to ``max_bytes`` where supported; evicted keys."""
        ...

    def verify(self, delete: bool = False) -> tuple[list[str], list[tuple[str, str]]]:
        """Audit locally held entries: ``(valid_keys, corrupt_pairs)``."""
        ...

"""An ordered stack of cache tiers behind the single-tier interface.

:class:`TieredCache` composes tiers the way a CPU cache hierarchy does:

* **reads** are local-first — the first tier to hold a key wins, and a hit in
  a later (slower) tier is *promoted* into every earlier tier so the next
  lookup stays local;
* **writes** go through every tier (write-through), so a result computed
  anywhere becomes visible everywhere a tier is shared.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.engine.cache.base import CacheStats, CacheTier
from repro.exceptions import EngineError


class TieredCache:
    """Compose an ordered list of cache tiers; see the module docstring."""

    def __init__(self, tiers: Iterable[CacheTier]):
        self.tiers: tuple[CacheTier, ...] = tuple(tiers)
        if not self.tiers:
            raise EngineError("TieredCache needs at least one tier")
        self.stats = CacheStats()

    def get(self, key: str) -> dict[str, Any] | None:
        """First tier holding ``key`` wins; later-tier hits are promoted."""
        for position, tier in enumerate(self.tiers):
            payload = tier.get(key)
            if payload is None:
                continue
            self.stats.hits += 1
            for earlier in self.tiers[:position]:
                earlier.put(key, payload)
            return payload
        self.stats.misses += 1
        return None

    def peek(self, key: str) -> dict[str, Any] | None:
        """Stat-neutral lookup across the stack — no counters, no promotion."""
        for tier in self.tiers:
            payload = tier.peek(key)
            if payload is not None:
                return payload
        return None

    def put(self, key: str, payload: dict[str, Any]) -> bool:
        """Write through every tier; ``True`` when all of them hold it."""
        stored = True
        for tier in self.tiers:
            stored = tier.put(key, payload) and stored
        self.stats.writes += 1
        return stored

    def close(self) -> None:
        """Close every member tier that holds a connection."""
        for tier in self.tiers:
            close = getattr(tier, "close", None)
            if close is not None:
                close()

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

from repro.engine.cache.base import CacheEntry, CacheStats, CacheTier
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

    # -- introspection / maintenance ---------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Union of member entries, deduplicated by key (earliest tier wins)."""
        seen: dict[str, CacheEntry] = {}
        for tier in self.tiers:
            for entry in tier.entries():
                seen.setdefault(entry.key, entry)
        return sorted(seen.values(), key=lambda e: (e.mtime, e.key))

    def total_bytes(self) -> int:
        """Total bytes across all locally enumerable member entries."""
        return sum(e.size_bytes for e in self.entries())

    def prune(self, max_bytes: int) -> list[str]:
        """Prune every member to ``max_bytes``; evicted keys."""
        evicted: list[str] = []
        for tier in self.tiers:
            evicted.extend(tier.prune(max_bytes))
        return evicted

    def verify(self, delete: bool = False) -> tuple[list[str], list[tuple[str, str]]]:
        """Combined audit of every member tier."""
        valid: list[str] = []
        corrupt: list[tuple[str, str]] = []
        for tier in self.tiers:
            tier_valid, tier_corrupt = tier.verify(delete=delete)
            valid.extend(tier_valid)
            corrupt.extend(tier_corrupt)
        return valid, corrupt

    def __contains__(self, key: str) -> bool:
        return any(key in tier for tier in self.tiers)

    def __len__(self) -> int:
        return len({entry.key for tier in self.tiers for entry in tier.entries()})

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"TieredCache({list(self.tiers)!r})"

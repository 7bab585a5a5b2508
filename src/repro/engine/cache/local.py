"""Content-addressed on-disk cache tier.

Each cached result lives in its own JSON file named by the job's content hash
(sharded by the first two hex characters to keep directories small), so the
cache is safe to share between concurrent builder processes: writes of the
same key produce identical bytes and a torn read is treated as a miss.

A hit refreshes the entry's file mtime, so the file mtimes record recency of
use.  :meth:`LocalDirTier.prune` bounds the cache on demand by evicting the
least-recently-used entries first, and :meth:`LocalDirTier.verify` audits
entry integrity — both are surfaced by the ``repro-cache`` command-line tool
(:mod:`repro.cli.cache`).  Eviction only ever costs recompute time, never
correctness: an evicted job re-executes to a bit-identical result.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.engine.cache.base import CacheEntry, CacheStats
from repro.exceptions import EngineError
from repro.utils.io import read_json, write_json


class LocalDirTier:
    """Content-addressed JSON store keyed by job hash, in directory ``root``
    (created if absent)."""

    def __init__(self, root: str | Path):
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        # Test-only crash-consistency hook: called with each CacheEntry just
        # before prune() considers evicting it, so tests can interleave a
        # concurrent writer/pruner at the exact race window.
        self._before_evict = None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """Return the payload stored under ``key``, or ``None`` on a miss.

        Unreadable or mismatched files (torn writes, stale schema) count as
        misses rather than errors so a damaged cache degrades to recompute.
        A hit refreshes the entry's mtime (its place in the eviction order).
        """
        payload = self.peek(key)
        if payload is None:
            self.stats.misses += 1
            return None
        try:
            os.utime(self._path(key))
        except OSError:
            pass  # a concurrent prune may have removed the file; the payload is already read
        self.stats.hits += 1
        return payload

    def peek(self, key: str) -> dict[str, Any] | None:
        """Stat-neutral :meth:`get`: no hit/miss counted, no mtime refresh.

        Used by ``repro-session status`` (does a journalled-complete job
        still have its cached payload?) and by ``repro-serve``'s ``peek``
        frame — lookups that must not skew the hit-rate counters or the
        eviction order.
        """
        path = self._path(key)
        try:
            payload = read_json(path)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(payload, dict) or payload.get("spec_hash") != key:
            return None
        return payload

    def put(self, key: str, payload: dict[str, Any]) -> bool:
        """Store ``payload`` under ``key``."""
        write_json(self._path(key), payload)
        self.stats.writes += 1
        return True

    # -- introspection / maintenance ---------------------------------------------------

    def entries(self) -> list[CacheEntry]:
        """Every entry on disk, least recently touched first (eviction order)."""
        found = []
        for path in self.root.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # racing writer/pruner
            found.append(CacheEntry(
                key=path.stem, path=path, size_bytes=stat.st_size,
                mtime=stat.st_mtime, mtime_ns=stat.st_mtime_ns,
            ))
        return sorted(found, key=lambda e: (e.mtime, e.key))

    def total_bytes(self) -> int:
        """Total size of all cached entries in bytes."""
        return sum(e.size_bytes for e in self.entries())

    def prune(self, max_bytes: int) -> list[str]:
        """Evict least-recently-used entries until the cache fits ``max_bytes``.

        Returns the evicted keys, oldest first.

        The cache is shared between concurrent builder processes, so the scan
        is re-validated per entry at eviction time: an entry that *vanished*
        since the scan (a concurrent pruner evicted it) is skipped without
        counting an eviction here, and an entry *re-written or refreshed*
        since the scan (its mtime moved — a concurrent writer just produced
        or touched it) is spared rather than evicting bytes the scan never
        saw.  Either way the freshly written payload survives and the
        running total stays honest.
        """
        bound = int(max_bytes)
        if bound < 0:
            raise EngineError(f"cache prune bound must be >= 0, got {bound}")
        entries = self.entries()
        total = sum(e.size_bytes for e in entries)
        evicted: list[str] = []
        for entry in entries:
            if total <= bound:
                break
            if self._before_evict is not None:
                self._before_evict(entry)
            try:
                current = entry.path.stat()
            except OSError:
                total -= entry.size_bytes  # vanished under a concurrent pruner
                continue
            if (current.st_mtime_ns, current.st_size) != (entry.mtime_ns, entry.size_bytes):
                # Re-written (or LRU-refreshed) since the scan: keep it, and
                # account for its current size instead of the stale one.
                # Nanosecond mtime plus size, not float st_mtime: on coarse
                # filesystems a same-tick rewrite is invisible to st_mtime
                # and the fresh payload would be evicted anyway.
                total += current.st_size - entry.size_bytes
                continue
            try:
                entry.path.unlink()
            except OSError:
                total -= entry.size_bytes  # lost the unlink race; already gone
                continue
            total -= entry.size_bytes
            evicted.append(entry.key)
            self.stats.evictions += 1
        return evicted

    def verify(self, delete: bool = False) -> tuple[list[str], list[tuple[str, str]]]:
        """Audit every entry: parseable JSON whose ``spec_hash`` matches its key.

        Returns ``(valid_keys, corrupt)`` where ``corrupt`` pairs each bad key
        with the reason.  With ``delete`` set, corrupt entries are removed so
        subsequent lookups recompute them cleanly.
        """
        valid: list[str] = []
        corrupt: list[tuple[str, str]] = []
        corrupt_paths: list[Path] = []
        for entry in self.entries():
            reason: str | None = None
            try:
                payload = read_json(entry.path)
            except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
                reason = f"unreadable: {type(exc).__name__}"
            else:
                if not isinstance(payload, dict):
                    reason = "payload is not a JSON object"
                elif payload.get("spec_hash") != entry.key:
                    reason = "spec_hash does not match file name"
                elif "schema" not in payload:
                    reason = "payload has no schema"
            if reason is None:
                valid.append(entry.key)
            else:
                corrupt.append((entry.key, reason))
                # The scanned path, not _path(key): a file in the wrong shard
                # directory must still be the one deleted.
                corrupt_paths.append(entry.path)
        if delete and corrupt_paths:
            for path in corrupt_paths:
                path.unlink(missing_ok=True)
        return valid, corrupt

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

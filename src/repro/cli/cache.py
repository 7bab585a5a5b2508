"""``repro-cache`` — inspect and maintain the engine's persistent result cache.

Subcommands
-----------
* ``repro-cache ls DIR`` — list cached entries (shard, kind, identity, size,
  age);
* ``repro-cache stats TIER`` — aggregate counters (entries, bytes, per-kind);
* ``repro-cache prune DIR --max-bytes N`` — evict least-recently-used entries
  until the cache fits the bound (``--max-bytes 0`` empties it);
* ``repro-cache verify DIR [--delete]`` — audit entry integrity (parseable
  JSON whose ``spec_hash`` matches the file name), optionally deleting
  corrupt entries.

``TIER`` is a cache-tier spec: a local directory, or
``remote:HOST:PORT`` to query a running ``repro-serve`` daemon's tier over
the wire.  ``stats`` accepts both; ``ls``/``prune``/``verify`` need local
files to walk and refuse remote specs with a pointer to run them on the
server's own directory.

Exit status: 0 on success; 1 when ``verify`` finds corrupt entries it was not
asked to delete; 2 on usage errors (e.g. the directory does not exist).

The cache layout is the engine's: one JSON payload per job, named by the
job's content hash and sharded by its first two hex characters (see
:mod:`repro.engine.cache`).  Everything here degrades safely — pruning or
deleting entries only ever costs recompute time on the next run.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from repro.engine.cache import LocalDirTier, RemoteTier, parse_tier_spec
from repro.exceptions import EngineError
from repro.utils.io import read_json


def _human_bytes(n: int) -> str:
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024.0 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{int(n)} B"


def _is_remote_spec(cache_dir: str) -> bool:
    return str(cache_dir).strip().startswith("remote:")


def _open_cache(cache_dir: str) -> LocalDirTier:
    if _is_remote_spec(cache_dir):
        print(
            f"repro-cache: {cache_dir!r} is a remote tier; only 'stats' works "
            "over the wire — run this subcommand on the server's cache "
            "directory instead",
            file=sys.stderr,
        )
        raise SystemExit(2)
    path = Path(cache_dir).expanduser()
    if not path.is_dir():
        print(f"repro-cache: cache directory {cache_dir!r} does not exist", file=sys.stderr)
        raise SystemExit(2)
    return LocalDirTier(path)


def _entry_summary(path: Path) -> tuple[str, str]:
    """(kind, identity) of one entry file, tolerating unreadable payloads."""
    try:
        payload = read_json(path)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return "?", "?"
    if not isinstance(payload, dict):
        return "?", "?"
    kind = str(payload.get("schema", "?")).split("/")[0]
    identity = payload.get("receptor_id") or payload.get("pdb_id") or "?"
    method = payload.get("method")
    if method and kind == "baseline_fold":
        identity = f"{identity}:{method}"
    return kind, str(identity)


def _misplaced(entry) -> bool:
    """A file whose shard directory does not match its key prefix.

    The engine only ever writes ``root/<key[:2]>/<key>.json``; anything else
    was hand-moved or produced by a foreign tool, and lookups for its key
    will never find it where it sits.
    """
    return entry.path.parent.name != entry.key[:2]


def cmd_ls(args: argparse.Namespace) -> int:
    """List cached entries, least recently touched first."""
    cache = _open_cache(args.cache_dir)
    entries = cache.entries()
    if args.limit is not None:
        entries = entries[: args.limit]
    print(f"{'key':<16} {'shard':<5} {'kind':<14} {'identity':<24} {'size':>10}  last touched (UTC)")
    for entry in entries:
        kind, identity = _entry_summary(entry.path)
        touched = datetime.fromtimestamp(entry.mtime, tz=timezone.utc).strftime("%Y-%m-%d %H:%M:%S")
        shard = entry.path.parent.name
        print(
            f"{entry.key[:16]:<16} {shard:<5} {kind:<14} {identity:<24} "
            f"{_human_bytes(entry.size_bytes):>10}  {touched}"
        )
        if _misplaced(entry):
            print(
                f"repro-cache: warning: {entry.path} sits in shard "
                f"{shard!r} but its key starts with {entry.key[:2]!r}; "
                "lookups will miss it",
                file=sys.stderr,
            )
    print(f"{len(entries)} entries shown")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Print aggregate cache statistics (local directory or remote tier)."""
    if _is_remote_spec(args.cache_dir):
        return _remote_stats(args)
    cache = _open_cache(args.cache_dir)
    by_kind: dict[str, int] = {}
    counted = []
    for entry in cache.entries():
        if _misplaced(entry):
            # A misplaced file is invisible to lookups; counting it would
            # report capacity the cache cannot actually serve.
            print(
                f"repro-cache: warning: skipping {entry.path} — it sits in "
                f"shard {entry.path.parent.name!r} but its key starts with "
                f"{entry.key[:2]!r} (move or delete it)",
                file=sys.stderr,
            )
            continue
        counted.append(entry)
        kind, _ = _entry_summary(entry.path)
        by_kind[kind] = by_kind.get(kind, 0) + 1
    total = sum(e.size_bytes for e in counted)
    stats = {
        "cache_dir": str(cache.root),
        "entries": len(counted),
        "total_bytes": total,
        "by_kind": dict(sorted(by_kind.items())),
    }
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"cache directory : {stats['cache_dir']}")
        print(f"entries         : {stats['entries']}")
        print(f"total size      : {_human_bytes(total)}")
        for kind, count in stats["by_kind"].items():
            print(f"  {kind:<14}: {count}")
    return 0


def _remote_stats(args: argparse.Namespace) -> int:
    """``stats`` against a running ``repro-serve`` daemon's cache tier."""
    try:
        tier = parse_tier_spec(args.cache_dir)
    except EngineError as exc:
        print(f"repro-cache: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc
    assert isinstance(tier, RemoteTier)
    stats = tier.remote_stats()
    tier.close()
    if stats is None:
        print(
            f"repro-cache: cannot reach repro-serve at {tier.host}:{tier.port} "
            "(or it serves without a cache)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    stats = {"tier": args.cache_dir, **stats}
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"remote tier     : {tier.host}:{tier.port}")
        print(f"server cache    : {stats.get('root') or '?'}")
        print(f"entries         : {stats.get('entries')}")
        print(f"total size      : {_human_bytes(int(stats.get('total_bytes') or 0))}")
        print(
            f"server counters : {stats.get('hits')} hits, {stats.get('misses')} misses, "
            f"{stats.get('writes')} writes, {stats.get('evictions')} evictions"
        )
    return 0


def cmd_prune(args: argparse.Namespace) -> int:
    """Evict entries until the cache fits the requested bound."""
    if args.max_bytes < 0:
        print("repro-cache: --max-bytes must be >= 0", file=sys.stderr)
        return 2
    cache = _open_cache(args.cache_dir)
    before = cache.total_bytes()
    evicted = cache.prune(args.max_bytes)
    after = cache.total_bytes()
    print(
        f"evicted {len(evicted)} entries "
        f"({_human_bytes(before)} -> {_human_bytes(after)}, bound {_human_bytes(args.max_bytes)})"
    )
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Audit entry integrity; report (and optionally delete) corrupt entries."""
    cache = _open_cache(args.cache_dir)
    valid, corrupt = cache.verify(delete=args.delete)
    print(f"{len(valid)} valid, {len(corrupt)} corrupt")
    for key, reason in corrupt:
        action = "deleted" if args.delete else "corrupt"
        print(f"  {action}: {key[:16]} ({reason})")
    if corrupt and not args.delete:
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-cache`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-cache",
        description="Inspect and maintain the QDockBank engine's persistent result cache.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list cached entries")
    ls.add_argument("cache_dir", help="cache directory")
    ls.add_argument("--limit", type=int, default=None, help="show at most N entries")
    ls.set_defaults(func=cmd_ls)

    stats = sub.add_parser("stats", help="aggregate cache statistics")
    stats.add_argument(
        "cache_dir",
        help="cache directory, or remote:HOST:PORT for a running repro-serve tier",
    )
    stats.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    stats.set_defaults(func=cmd_stats)

    prune = sub.add_parser("prune", help="evict entries down to a size bound")
    prune.add_argument("cache_dir", help="cache directory")
    prune.add_argument(
        "--max-bytes", type=int, required=True,
        help="target total size in bytes (0 empties the cache)",
    )
    prune.set_defaults(func=cmd_prune)

    verify = sub.add_parser("verify", help="audit entry integrity")
    verify.add_argument("cache_dir", help="cache directory")
    verify.add_argument("--delete", action="store_true", help="delete corrupt entries")
    verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-cache``)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

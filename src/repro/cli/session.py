"""``repro-session`` — inspect and resume the engine's streaming-session journals.

Subcommands
-----------
* ``repro-session ls DIR`` — list session journals (created, completed /
  failed / pending counts, resumes);
* ``repro-session status DIR SESSION_ID`` — one journal in detail, including
  how many completed jobs still have their cached payload (i.e. resume cost)
  and the recorded failures;
* ``repro-session resume DIR SESSION_ID`` — re-open the journal, rebuild the
  engine from the journalled job specs, and execute **only** the jobs that
  never completed (failed jobs re-run; completed jobs replay from the result
  cache).  This is the same resume as ``Engine.submit(session_id=...)``.

Exit status: 0 on success; 1 when ``resume`` leaves failed jobs behind or is
aborted by a failing job under ``--on-error raise`` (or ``status`` finds
recorded failures); 2 on usage errors (missing directory or journal).

Journals are written by ``Engine.submit`` whenever
``PipelineConfig.session_dir`` is set — one append-only ``<id>.jsonl`` status
file plus one ``<id>.specs.pkl`` spec pickle per session (see
:mod:`repro.engine.session` for the format).  Spec pickles are trusted local
state: only resume journals from directories you wrote.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.config import PipelineConfig
from repro.engine.cache import resolve_cache
from repro.engine.core import Engine
from repro.engine.session import ON_ERROR_POLICIES, SessionJournal, SessionProgress
from repro.exceptions import EngineError


def _session_root(session_dir: str) -> Path:
    path = Path(session_dir).expanduser()
    if not path.is_dir():
        print(f"repro-session: session directory {session_dir!r} does not exist", file=sys.stderr)
        raise SystemExit(2)
    return path


def _open_journal(root: Path, session_id: str) -> SessionJournal:
    try:
        return SessionJournal.open(root, session_id)
    except EngineError as exc:
        print(f"repro-session: {exc}", file=sys.stderr)
        raise SystemExit(2) from exc


def _print_progress(event: SessionProgress) -> None:
    """One line per outcome, to stderr (stdout stays clean for ``--json``)."""
    print(
        f"[{event.done}/{event.total}] {event.status:<9} {event.kind:<13} "
        f"{event.spec_hash[:16]}",
        file=sys.stderr,
        flush=True,
    )


def cmd_ls(args: argparse.Namespace) -> int:
    """List every session journal in the directory, oldest first."""
    root = _session_root(args.session_dir)
    summaries = [j.summary() for j in SessionJournal.list_sessions(root)]
    if args.json:
        print(json.dumps(summaries, indent=2))
        return 0
    print(f"{'session':<28} {'created (UTC)':<26} {'jobs':>5} {'done':>5} {'fail':>5} {'pend':>5}  resumes")
    for s in summaries:
        print(
            f"{s['session_id']:<28} {s['created_at'] or '?':<26} {s['total_unique']:>5} "
            f"{s['completed']:>5} {s['failed']:>5} {s['pending']:>5}  {s['resumes']}"
        )
    print(f"{len(summaries)} sessions")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show one journal in detail (resume cost and recorded failures)."""
    root = _session_root(args.session_dir)
    journal = _open_journal(root, args.session_id)
    summary = journal.summary()

    # Journal-aware cache lookup: which completed jobs can actually replay
    # from the cache (stat-neutral peek — status must not skew hit rates or
    # LRU order), and which would re-execute on resume.  It peeks the stack
    # resume opens: cache_dir (or --cache-dir) in front of cache_remote.
    # Resume runs the specs under their current hashes, which differ from
    # the journalled ones after a hash-input change, so only those count.
    replayable = None
    try:
        specs = journal.load_specs()
        config = getattr(specs[0], "config", None) if specs else None
        keys = dict.fromkeys(spec.content_hash() for spec in specs)
    except EngineError:
        config = None
        keys = dict.fromkeys(journal.spec_hashes)
    config = config if config is not None else PipelineConfig()
    cache_dir = args.cache_dir or config.cache_dir
    if cache_dir and not Path(cache_dir).expanduser().is_dir():
        cache_dir = None  # an absent directory holds nothing; status creates none
    cache = resolve_cache(config.with_updates(cache_dir=cache_dir))
    if cache is not None:
        try:
            replayable = sum(
                1 for key in keys if key in journal.completed and cache.peek(key) is not None
            )
        finally:
            if hasattr(cache, "close"):
                cache.close()
    summary["replayable_from_cache"] = replayable
    summary["failures"] = [
        {
            "spec_hash": key,
            "kind": record.get("kind"),
            "error_type": record.get("error_type"),
            "error_message": record.get("error_message"),
        }
        for key, record in sorted(journal.failed.items())
    ]

    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"session    : {summary['session_id']}")
        print(f"created    : {summary['created_at']}")
        print(f"jobs       : {summary['total_unique']} unique ({summary['total_submitted']} submitted)")
        print(f"completed  : {summary['completed']}")
        print(f"failed     : {summary['failed']}")
        print(f"pending    : {summary['pending']}")
        print(f"resumes    : {summary['resumes']}")
        if replayable is not None:
            print(f"replayable : {replayable}/{summary['completed']} completed jobs still cached")
        for failure in summary["failures"]:
            print(f"  failed {failure['spec_hash'][:16]} ({failure['error_type']}: {failure['error_message']})")
    return 1 if summary["failures"] else 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Resume a journalled session: execute only its unfinished jobs."""
    root = _session_root(args.session_dir)
    if not SessionJournal.exists(root, args.session_id):
        print(
            f"repro-session: no session journal for {args.session_id!r} under {root}",
            file=sys.stderr,
        )
        return 2
    try:
        # The specs supply the engine's configuration.  submit() loads them
        # again itself: handed this list, it would check their hashes against
        # the journal's and refuse a journal written before a hash-input
        # change, whose jobs should re-execute under their new hashes.
        specs = SessionJournal(root, args.session_id).load_specs()
    except EngineError as exc:
        print(f"repro-session: {exc}", file=sys.stderr)
        return 2

    config = getattr(specs[0], "config", None) if specs else None
    config = config if config is not None else PipelineConfig()
    config = config.with_updates(session_dir=str(root))
    if args.cache_dir is not None:
        config = config.with_updates(cache_dir=args.cache_dir)
    with Engine(config=config, processes=args.processes) as engine:
        try:
            session = engine.submit(
                None,
                session_id=args.session_id,
                on_error=args.on_error,
                progress=None if args.quiet else _print_progress,
            )
        except EngineError as exc:
            print(f"repro-session: {exc}", file=sys.stderr)
            return 2
        aborted = False
        try:
            session.results()
        except Exception as exc:  # --on-error raise: the first failing job aborts
            aborted = True
            print(
                f"repro-session: session {args.session_id} aborted: {type(exc).__name__}: {exc}",
                file=sys.stderr,
            )

    summary = session.summary()
    summary["engine"] = engine.stats()
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"session {summary['session_id']}: {summary['done']}/{summary['total']} jobs "
            f"({summary['cached']} from cache, {summary['executed']} executed, "
            f"{summary['failed']} failed)"
        )
        for failure in summary["failures"]:
            print(f"  failed {failure['spec_hash'][:16]} ({failure['error_type']}: {failure['error_message']})")
    return 1 if aborted or summary["failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-session`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-session",
        description="Inspect and resume the QDockBank engine's streaming-session journals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ls = sub.add_parser("ls", help="list session journals")
    ls.add_argument("session_dir", help="session journal directory")
    ls.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    ls.set_defaults(func=cmd_ls)

    status = sub.add_parser("status", help="show one session journal in detail")
    status.add_argument("session_dir", help="session journal directory")
    status.add_argument("session_id", help="session identifier (journal file stem)")
    status.add_argument("--cache-dir", default=None, help="result cache to audit replayability against")
    status.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    status.set_defaults(func=cmd_status)

    resume = sub.add_parser("resume", help="execute only a session's unfinished jobs")
    resume.add_argument("session_dir", help="session journal directory")
    resume.add_argument("session_id", help="session identifier (journal file stem)")
    resume.add_argument("--processes", type=int, default=None, help="engine worker processes")
    resume.add_argument("--cache-dir", default=None, help="override the journalled cache directory")
    resume.add_argument(
        "--on-error", choices=ON_ERROR_POLICIES, default="isolate",
        help="failure policy (default: isolate)",
    )
    resume.add_argument("--quiet", action="store_true", help="suppress per-job progress lines")
    resume.add_argument("--json", action="store_true", help="emit a machine-readable summary")
    resume.set_defaults(func=cmd_resume)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-session``)."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""``repro-worker`` — a file-queue execution daemon for the engine.

Point any number of workers at one spool directory and they cooperatively
drain it: each worker claims tasks by atomic rename (exactly one winner per
task), heartbeats its claim while executing, publishes the result atomically,
and reclaims the stale leases of crashed fleet members so no task is ever
lost or run twice to completion.  The submitting side is
``PipelineConfig.transport = "filequeue"`` — see
:mod:`repro.engine.transports.filequeue` for the spool protocol and the
exactly-once argument.

Typical fleet::

    repro-worker /shared/spool --lease-timeout 60 &
    repro-worker /shared/spool --lease-timeout 60 &

Workers claim in scheduler order (priority class first, then oldest
envelope).  ``--tags`` declares the capabilities a worker has — e.g.
``--tags fold,dock,mps`` — and a tagged worker *skips* tasks whose declared
requirements it cannot cover instead of claiming and poisoning them; an
untagged worker claims anything.

Workers exit cleanly when ``<spool>/stop`` exists (``touch /shared/spool/stop``)
or after ``--max-jobs`` tasks.
``--preload`` imports modules before serving, so daemons can register
third-party job kinds (task pickles are trusted local state — only
serve spool directories you or your tooling wrote).

Exit status: 0 on a clean stop, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.engine.scheduler import parse_tags
from repro.engine.transports.filequeue import (
    DEFAULT_LEASE_TIMEOUT,
    DEFAULT_WORKER_POLL_INTERVAL,
    FileQueueWorker,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-worker`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-worker",
        description="Serve engine jobs from a shared file-queue spool directory.",
    )
    parser.add_argument("spool_dir", help="shared spool directory (created if absent)")
    parser.add_argument("--worker-id", default=None, help="stable worker identity (default: generated)")
    parser.add_argument(
        "--lease-timeout", type=float, default=DEFAULT_LEASE_TIMEOUT,
        help="seconds before an untouched claim counts as abandoned (default %(default)s)",
    )
    parser.add_argument(
        "--heartbeat-interval", type=float, default=None,
        help="seconds between lease refreshes while executing (default: lease/4, capped at 1s)",
    )
    parser.add_argument(
        "--poll-interval", type=float, default=DEFAULT_WORKER_POLL_INTERVAL,
        help="seconds between scans of an empty queue (default %(default)s)",
    )
    parser.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after processing this many tasks (default: serve forever)",
    )
    parser.add_argument(
        "--tags", default=None, metavar="TAG[,TAG...]",
        help="capabilities this worker declares (e.g. fold,dock,mps); tasks "
             "requiring anything else are skipped, never claimed "
             "(default: untagged — claim anything)",
    )
    parser.add_argument(
        "--preload", action="append", default=[], metavar="MODULE",
        help="import MODULE before serving (registers custom job kinds; repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-worker``)."""
    args = build_parser().parse_args(argv)
    for module in args.preload:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            print(f"repro-worker: cannot preload {module!r}: {exc}", file=sys.stderr)
            return 2
    try:
        worker = FileQueueWorker(
            args.spool_dir,
            worker_id=args.worker_id,
            lease_timeout=args.lease_timeout,
            heartbeat_interval=args.heartbeat_interval,
            poll_interval=args.poll_interval,
            tags=parse_tags(args.tags),
        )
    except Exception as exc:
        print(f"repro-worker: {exc}", file=sys.stderr)
        return 2
    processed = worker.serve(max_jobs=args.max_jobs)
    print(
        f"repro-worker {worker.worker_id}: processed {processed} tasks "
        f"({worker.executed} completed, {worker.failed} failed)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

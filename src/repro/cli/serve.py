"""``repro-serve`` — the always-on network job service for the engine.

Start one daemon and point any number of client sessions at it; no shared
filesystem is needed.  The server multiplexes every client onto one shared
worker pool and one shared result cache (admitting up to ``--max-inflight``
jobs per client), and streams results back as they complete — see
:mod:`repro.serve.server` for the service semantics and
:mod:`repro.serve.protocol` for the wire format.

Typical service::

    repro-serve --port 7377 --workers 4 --cache-dir /var/cache/repro &

Clients submit with ``PipelineConfig.transport = "network"`` (plus
``serve_host``/``serve_port``).  Frames are trusted local state, exactly
like spool pickles: bind to localhost or a private network you control.

``--preload`` imports modules before serving, so the daemon can register
third-party job kinds (their executors are snapshot-replicated into the
worker pool, like the local ``pool`` transport).  The server runs until
SIGINT/SIGTERM, then prints its service counters.

Exit status: 0 on a clean stop, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys

from repro.config import PipelineConfig
from repro.serve.server import DEFAULT_MAX_INFLIGHT, ReproServer


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-serve`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve engine jobs to network clients from one shared pool and cache.",
    )
    parser.add_argument(
        "--host", default=PipelineConfig.serve_host,
        help="bind address (default %(default)s; only bind networks you trust)",
    )
    parser.add_argument(
        "--port", type=int, default=PipelineConfig.serve_port,
        help="bind port (default %(default)s; 0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes in the shared pool (default %(default)s: execute in-process)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="shared result-cache directory (default: serve without a cache)",
    )
    parser.add_argument(
        "--max-inflight", type=int, default=DEFAULT_MAX_INFLIGHT,
        help="per-client in-flight job window, the only admission rule (default %(default)s)",
    )
    parser.add_argument(
        "--preload", action="append", default=[], metavar="MODULE",
        help="import MODULE before serving (registers custom job kinds; repeatable)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-serve``)."""
    args = build_parser().parse_args(argv)
    for module in args.preload:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            print(f"repro-serve: cannot preload {module!r}: {exc}", file=sys.stderr)
            return 2
    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_inflight=args.max_inflight,
            cache=args.cache_dir,
        ).start()
    except Exception as exc:
        print(f"repro-serve: {exc}", file=sys.stderr)
        return 2
    print(
        f"repro-serve {server.server_id}: listening on {server.host}:{server.port}",
        file=sys.stderr,
        flush=True,
    )
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: server.shutdown())
    try:
        server.serve_forever()
    finally:
        server.shutdown()
    print(f"repro-serve: {json.dumps(server.stats(), sort_keys=True)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""A resumable benchmark sweep driven through streaming engine sessions.

Runs a mixed fold + baseline-fold batch as one journalled session, printing a
progress line per completed job.  Killed partway (Ctrl-C / SIGTERM), the
journal under ``--session-dir`` records exactly which jobs completed; running
the same command again — or ``repro-session resume`` — executes only the
remainder and replays the rest from the result cache.

CI's ``session-resume`` job uses this script end-to-end: start, SIGTERM,
resume, then assert via the emitted stats JSON that zero completed jobs were
re-executed.  The ``distributed-sweep`` job runs the same sweep on the
``filequeue`` transport against externally launched ``repro-worker`` daemons
(``--transport filequeue --spool-dir ...``), SIGKILLs one daemon mid-job, and
diffs the ``--results-json`` canonical payloads against a serial run — then
repeats the sweep on a heterogeneous fleet (one ``--tags baseline_fold``
worker and one generalist, baselines at ``--baseline-priority 5``),
asserting the same bit-identity with zero duplicate completions.  The
``network-serve`` job does the same
against a ``repro-serve`` daemon (``--transport network --serve-port ...``),
killing and restarting the *server* mid-batch, and finishes with a warm
client whose cache stack ends in the server's own tier (``--cache-remote``):
the whole sweep must resolve over cache frames with zero executions.

Usage::

    PYTHONPATH=src python examples/resumable_sweep.py \
        --session-dir .sweep/sessions --cache-dir .sweep/cache

    repro-worker .sweep/spool &  # then, distributed:
    PYTHONPATH=src python examples/resumable_sweep.py \
        --session-dir .sweep/sessions --cache-dir .sweep/cache \
        --transport filequeue --spool-dir .sweep/spool --results-json out.json
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

from repro.config import PipelineConfig
from repro.engine import Engine

#: The sweep's fragments: long enough that a fold takes a few seconds, so an
#: interrupt signal lands mid-sweep rather than after it.
FRAGMENTS = [
    ("3eax", "RYRDVAEAVRKM"),
    ("3ckz", "VKDRSLHFAGEL"),
    ("4mo4", "NIGGFDEKLWQA"),
    ("1e2k", "TMLKHEQRVGDY"),
    ("2bok", "EDACQGDSGGPL"),
    ("5hvs", "KFWNAPRETIVD"),
]

BASELINE_METHODS = ("AF2", "AF3")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--session-dir", required=True, help="session journal directory")
    parser.add_argument("--cache-dir", required=True, help="persistent result cache directory")
    parser.add_argument("--session-id", default="resumable-sweep", help="journal identifier")
    parser.add_argument("--processes", type=int, default=0, help="engine worker processes")
    parser.add_argument("--seed", type=int, default=2025, help="master seed")
    parser.add_argument(
        "--transport", default=None,
        choices=["auto", "serial", "pool", "filequeue", "network"],
        help="executor transport (default: the engine's auto resolution)",
    )
    parser.add_argument("--spool-dir", default=None, help="filequeue spool directory")
    parser.add_argument("--serve-host", default=None, help="repro-serve host (network transport)")
    parser.add_argument("--serve-port", type=int, default=None, help="repro-serve port (network transport)")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="repro-worker daemons the filequeue transport spawns itself "
             "(default 0: rely on externally launched workers)",
    )
    parser.add_argument(
        "--lease-timeout", type=float, default=30.0,
        help="filequeue stale-lease timeout in seconds",
    )
    parser.add_argument(
        "--baseline-priority", type=int, default=None,
        help="priority class stamped on the baseline-fold jobs (higher "
             "drains first; hash-neutral, the fold jobs keep priority 0)",
    )
    parser.add_argument(
        "--cache-remote", default=None, metavar="HOST:PORT",
        help="append a repro-serve cache tier behind --cache-dir "
             "(reads fall through to it; writes go through both)",
    )
    parser.add_argument(
        "--results-json", default=None,
        help="write the canonical per-job result payloads here (bit-identity audits)",
    )
    args = parser.parse_args(argv)

    warnings.filterwarnings("ignore", message="COBYLA")
    config = PipelineConfig.fast().with_updates(
        seed=args.seed,
        session_dir=args.session_dir,
        cache_dir=args.cache_dir,
    )
    if args.transport:
        config = config.with_updates(transport=args.transport)
    if args.spool_dir:
        config = config.with_updates(
            spool_dir=args.spool_dir,
            transport_workers=args.workers,
            transport_lease_timeout=args.lease_timeout,
        )
    if args.serve_host:
        config = config.with_updates(serve_host=args.serve_host)
    if args.serve_port is not None:
        config = config.with_updates(serve_port=args.serve_port)
    if args.cache_remote:
        config = config.with_updates(cache_remote=args.cache_remote)
    with Engine(config=config, processes=args.processes) as engine:
        jobs = [
            engine.spec(pdb_id, sequence) for pdb_id, sequence in FRAGMENTS
        ] + [
            engine.baseline_spec(pdb_id, sequence, method)
            for pdb_id, sequence in FRAGMENTS
            for method in BASELINE_METHODS
        ]
        if args.baseline_priority is not None:
            from repro.engine import set_priority

            for job in jobs[len(FRAGMENTS):]:
                set_priority(job, args.baseline_priority)

        def progress(event):
            print(
                f"[{event.done}/{event.total}] {event.status:<9} {event.kind:<13} "
                f"{event.spec_hash[:16]}",
                flush=True,
            )

        # Same session id every run: the first run creates the journal, any later
        # run (after a crash or kill) resumes it and executes only the remainder.
        session = engine.submit(jobs, session_id=args.session_id, progress=progress)
        outcomes = session.results()

    if args.results_json:
        from repro.engine import JobFailure
        from repro.utils.io import _NumpyJSONEncoder

        canonical = [
            {"failed": outcome.as_dict()}
            if isinstance(outcome, JobFailure)
            else json.dumps(outcome.to_payload(), sort_keys=True, cls=_NumpyJSONEncoder)
            for outcome in outcomes
        ]
        Path(args.results_json).write_text(
            json.dumps(canonical, indent=2) + "\n", encoding="utf-8"
        )

    summary = session.summary()
    summary["engine"] = engine.stats()
    stats_path = Path(args.session_dir) / f"{args.session_id}-last-run.json"
    stats_path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=2))
    return 1 if summary["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())

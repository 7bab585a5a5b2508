"""``repro-bench`` — run the performance suite and maintain the trajectory.

Run mode (the default) executes the fixed benchmark suite
(:mod:`repro.bench.suite`) and writes a schema-versioned ``BENCH_<n>.json``
report at the trajectory root, embedding a comparison against the previous
report when one exists::

    repro-bench                      # full suite, next trajectory number
    repro-bench --smoke              # shrunk workloads (CI-sized, <1 min)
    repro-bench --only docking       # substring filter on benchmark names
    repro-bench --out /tmp/b.json    # write elsewhere (root still scanned)

Validate mode checks an existing report against the ``bench/v1`` schema and,
optionally, gates it against a previous report::

    repro-bench --validate BENCH_6.json
    repro-bench --validate BENCH_6.json --against BENCH_5.json --max-regression 2.0

The baseline is schema-checked too, and an invalid one fails the gate.
The regression gate compares machine-dependent medians only when both reports
carry the same machine fingerprint and the same smoke flag (smoke mode shrinks
the workloads); the derived speedup ratios (batched vs scalar docking, compiled
vs rebuild VQE, ...) are dimensionless and are always gated — that is what lets
CI gate a smoke report generated on different hardware against the committed
full-mode trajectory.

Exit status: 0 on success; 1 when validation or the regression gate fails;
2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.suite import POSE_BATCH, REPEATS, SMOKE_REPEATS, run_suite
from repro.bench.trajectory import (
    build_report,
    compare_reports,
    find_previous_report,
    load_report,
    next_bench_id,
    regressions,
    validate_report,
    write_report,
)
from repro.exceptions import ReproError


def _cmd_validate(args: argparse.Namespace) -> int:
    """Schema-validate a report and its baseline; optionally gate one against the other."""
    reports = []
    for path in [args.validate] if args.against is None else [args.validate, args.against]:
        try:
            report = load_report(path)
        except (OSError, ValueError) as exc:
            print(f"repro-bench: cannot read {path!r}: {exc}", file=sys.stderr)
            return 1
        errors = validate_report(report)
        for error in errors:
            print(f"invalid: {path}: {error}")
        if errors:
            return 1
        reports.append(report)
    print(f"{args.validate}: valid ({len(reports[0].get('benchmarks', {}))} metrics)")
    if args.against is None:
        return 0
    failures = regressions(*reports, max_ratio=args.max_regression)
    for failure in failures:
        print(f"regression: {failure}")
    if failures:
        return 1
    print(f"no metric regressed more than {args.max_regression:g}x vs {args.against}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run the suite and write the next trajectory report."""
    root = Path(args.root)
    if not root.is_dir():
        print(f"repro-bench: trajectory root {args.root!r} does not exist", file=sys.stderr)
        return 2
    repeats = args.repeats
    if repeats is None:
        repeats = SMOKE_REPEATS if args.smoke else REPEATS
    bench_id = args.bench_id if args.bench_id is not None else next_bench_id(root)
    try:
        results, derived = run_suite(
            smoke=args.smoke,
            repeats=repeats,
            only=args.only,
            progress=lambda line: print(f"  {line}", file=sys.stderr),
        )
    except ReproError as exc:
        print(f"repro-bench: {exc}", file=sys.stderr)
        return 2 if "no benchmark matches" in str(exc) else 1
    report = build_report(
        bench_id=bench_id,
        results=results,
        derived=derived,
        repeats=repeats,
        pose_batch=POSE_BATCH,
        smoke=args.smoke,
    )
    previous_path = find_previous_report(root, before_id=bench_id)
    if previous_path is not None:
        report["comparison"] = compare_reports(
            report, load_report(previous_path), previous_path.name
        )
    out = Path(args.out) if args.out else root / f"BENCH_{bench_id}.json"
    write_report(out, report)

    for metric, entry in report["benchmarks"].items():
        print(f"{metric:<44} {entry['median']:>12.4g} {entry['unit']}")
    for name, value in report["derived"].items():
        print(f"{'derived.' + name:<44} {value:>11.3g}x")
    if previous_path is not None:
        print(f"compared against {previous_path.name} "
              f"(medians compared: {report['comparison']['medians_compared']})")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-bench`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Run the QDockBank performance suite and maintain the BENCH_<n>.json trajectory.",
    )
    parser.add_argument(
        "--root", default=".",
        help="trajectory root scanned for BENCH_<n>.json files (default: .)",
    )
    parser.add_argument(
        "--out", default=None,
        help="report output path (default: <root>/BENCH_<id>.json)",
    )
    parser.add_argument(
        "--bench-id", type=int, default=None,
        help="trajectory number to write (default: one past the newest committed report)",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunk workloads and 2 repeats (CI-sized; ratios stay meaningful)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help=f"repeats per benchmark (default: {REPEATS}, {SMOKE_REPEATS} with --smoke)",
    )
    parser.add_argument(
        "--only", default=None,
        help="run only benchmarks whose suite name contains this substring",
    )
    parser.add_argument(
        "--validate", metavar="REPORT", default=None,
        help="validate an existing report instead of running the suite",
    )
    parser.add_argument(
        "--against", metavar="PREVIOUS", default=None,
        help="with --validate: gate REPORT against a previous report",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="with --against: fail if any metric worsened by more than this ratio (default: 2.0)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Console entry point (``repro-bench``)."""
    args = build_parser().parse_args(argv)
    if args.against is not None and args.validate is None:
        print("repro-bench: --against requires --validate", file=sys.stderr)
        return 2
    if args.validate is not None:
        return _cmd_validate(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())

"""Dataset-build benchmark: wall time of ``DatasetBuilder.build`` and its layers.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload slice-cold --seed 1 --seconds 15 --trace 0

One run sets up (imports, builder and cache set-up, and for ``slice-warm`` one
filling cold build), then repeats timed builds until ``--seconds`` would be
exceeded (at least one).  ``--trace 0`` reports the end-to-end metrics of
untraced builds.  ``--trace 1`` alternates untraced and traced builds and
reports the per-layer metrics of the traced ones (see ``layers.py``); no
wrapper is active during an untraced build.

Every build's output is checked: the expected entry count, zero failed jobs,
zero executed jobs on ``slice-warm``, and one result digest for every build of
the run.  Slice workloads also record their digest per source tree and seed
under ``.perfbench_runs/digests/`` and compare it with the digests other
slice workloads recorded for the same tree and seed, so cold == warm ==
filequeue is checked across runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted`` (engine jobs submitted), ``failed`` (failed jobs
plus missing entries) and ``metrics``.  A full record of the run (seed,
machine, every build, set-up parts, checks and, when traced, the raw per-span
records of every traced build) goes to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"

#: Set-ups measured per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5

#: The end-to-end metrics and their units.  The science results (mean QDock
#: CA-RMSD and docking affinity) are not among them: they are exact for a
#: seed but differ from seed to seed far beyond any regression bound (one
#: fragment's CA-RMSD lands near 0.6 A or near 4.1 A depending on the seed),
#: so they go to the run record and the output checks instead.
END_TO_END = {
    "build_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _time_import() -> float:
    """Wall seconds for a fresh interpreter to import the build pipeline."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    start = time.perf_counter()
    # No timeout: with one, the wait polls in sleeps of up to 50 ms, which
    # would quantise the measurement.
    subprocess.run(
        [sys.executable, "-c", "import repro.dataset.builder"], cwd=ROOT, env=env, check=True
    )
    return time.perf_counter() - start


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def _check_digests(workload, seed: int, digest: str, checks: dict) -> None:
    """Compare this run's digest with other slice workloads' for this tree and seed."""
    path = RUNS / "digests" / f"{_source_hash()}-seed{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    others = {name: d for name, d in known.items() if name != workload.name}
    checks["digest_compared_with"] = sorted(others)
    checks["digest_matches_other_workloads"] = all(d == digest for d in others.values())
    known[workload.name] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=2, sort_keys=True) + "\n")


class Run:
    """One benchmark run: set-up, timed builds, checks and the result record."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.warm_cache: Path | None = None
        self.fill_digest: str | None = None
        self.setup: dict = {}
        self.builds: list = []
        self.traced: list[dict] = []
        self._count = 0

    def _builder(self, fill: bool = False):
        from workloads import make_builder

        self._count += 1
        return make_builder(
            self.workload, self.seed, self.work / f"b{self._count}", self.warm_cache, fill=fill
        )

    def _build(self, fill: bool = False, tracer=None):
        """One timed build on fresh directories, traced while ``tracer`` is given."""
        from workloads import run_build

        builder = self._builder(fill)
        work = self.work / f"b{self._count}"
        try:
            with tracer or contextlib.nullcontext():
                return run_build(builder, self.workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def set_up(self) -> None:
        imports = [_time_import() for _ in range(SETUP_REPEATS)]
        if self.workload.cache == "warm":
            self.warm_cache = self.work / "warm-cache"
        builders = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self._builder()
            builders.append(time.perf_counter() - start)
            shutil.rmtree(self.work / f"b{self._count}", ignore_errors=True)
        fill_s = 0.0
        if self.workload.cache == "warm":
            start = time.perf_counter()
            fill = self._build(fill=True)
            fill_s = time.perf_counter() - start
            self.fill_digest = fill.digest
            self.setup["fill_build"] = fill.__dict__
        self.setup.update(
            import_s=imports,
            builder_s=builders,
            fill_s=fill_s,
            setup_s=statistics.median(imports) + statistics.median(builders) + fill_s,
        )

    def measure(self) -> None:
        start = time.perf_counter()
        steps: list[float] = []
        while True:
            step_start = time.perf_counter()
            self.builds.append(self._build())
            if self.trace:
                self.traced.append(self._traced_build())
            steps.append(time.perf_counter() - step_start)
            if time.perf_counter() - start + statistics.median(steps) > self.seconds:
                break

    def _traced_build(self) -> dict:
        from layers import Counters, layer_metrics
        from tracer import Tracer
        from workloads import FLEET_WORKERS

        counters = Counters()
        tracer = Tracer(hooks=counters.hooks())
        # "always" so every COBYLA warning is recorded, not once per call site;
        # nothing is ignored.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            record = self._build(tracer=tracer)
        cobyla = sum(1 for w in caught if "cobyla" in str(w.message).lower())
        metrics = layer_metrics(
            tracer.stats,
            counters,
            build_s=record.build_s,
            top_level_s=tracer.top_level_s,
            cobyla_warnings=cobyla,
            cache_stats=record.engine_stats.get("cache"),
            spool=record.spool,
            fleet_workers=FLEET_WORKERS if self.workload.transport == "filequeue" else 0,
        )
        return {
            "build": record,
            "spans": tracer.records(),
            "top_level_s": tracer.top_level_s,
            "cobyla_warnings": cobyla,
            "warnings": sorted({str(w.message)[:120] for w in caught})[:10],
            "metrics": metrics,
        }

    # -- results -------------------------------------------------------------------

    def checks(self) -> dict:
        builds = self.builds + [t["build"] for t in self.traced]
        digests = {b.digest for b in builds}
        checks = {
            "entries_expected": self.workload.expected_entries,
            "entries_ok": all(b.entries == self.workload.expected_entries for b in builds),
            "no_failures": all(b.failures == 0 for b in builds),
            "one_digest": len(digests) == 1,
            "science_sane": all(b.science_sane() for b in builds),
        }
        if self.workload.cache == "warm":
            checks["warm_executed_zero"] = all(b.executed_jobs == 0 for b in builds)
            checks["warm_matches_fill"] = digests == {self.fill_digest}
        if self.workload.preset == "slice" and len(digests) == 1:
            _check_digests(self.workload, self.seed, next(iter(digests)), checks)
        return checks

    def end_to_end(self) -> dict[str, float]:
        builds = self.builds
        attempted = sum(b.jobs for b in builds)
        failures = sum(b.failures for b in builds)
        return {
            "build_s": statistics.median(b.build_s for b in builds),
            "cpu_s": statistics.median(b.cpu_s for b in builds),
            "setup_s": self.setup["setup_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failures / attempted if attempted else 0.0,
        }

    def per_layer(self) -> dict[str, float]:
        metrics = {
            name: statistics.median(t["metrics"][name] for t in self.traced)
            for name in self.traced[0]["metrics"]
        }
        untraced = statistics.median(b.build_s for b in self.builds)
        traced = statistics.median(t["build"].build_s for t in self.traced)
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from layers import UNITS
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    work = RUNS / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    run = Run(workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        run.set_up()
        run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = run.checks()
    correct = all(v for k, v in checks.items() if isinstance(v, bool))
    if args.trace:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in run.per_layer().items()}
        builds = [t["build"] for t in run.traced]
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in run.end_to_end().items()}
        builds = run.builds
    attempted = sum(b.jobs for b in builds)
    failed = sum(b.failures for b in builds)

    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "source_hash": _source_hash(),
        "setup": run.setup,
        "builds": [b.__dict__ for b in run.builds],
        "checks": checks,
        "metrics": metrics,
    }
    if args.trace:
        record["trace"] = {
            "coverage_base": "summed time of spans with no traced caller / traced build_s "
                             "(DatasetBuilder.build and BatchProcessor.build_entries are the "
                             "root and not wrapped)",
            "overhead_base": "median traced build_s / median untraced build_s - 1, "
                             "builds alternating in this run",
            "repeats": [
                {**{k: v for k, v in t.items() if k != "build"}, "build": t["build"].__dict__}
                for t in run.traced
            ],
        }
    RUNS.mkdir(exist_ok=True)
    out = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"perfbench: {workload.name} seed={args.seed} builds={len(builds)} "
          f"correct={correct} record={out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

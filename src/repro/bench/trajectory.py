"""The benchmark trajectory: schema, machine fingerprint, comparison, gating.

Every ``repro-bench`` run emits one schema-versioned report.  Committed at the
repo root as ``BENCH_<n>.json`` (one file per PR that touches performance),
the reports form a *trajectory*: each records the machine it ran on,
median/p10/p90 per benchmark over N repeats, a set of derived speedup ratios,
and deltas against the previous report.

Report layout (``bench/v1``)
----------------------------
::

    {
      "schema": "bench/v1",
      "bench_id": 6,
      "generated_at": "2026-08-07T12:00:00Z",
      "smoke": false,
      "machine": {"platform": ..., "machine": ..., "python": ...,
                  "numpy": ..., "cpu_count": ...},
      "config": {"repeats": 5, "pose_batch": 128},
      "benchmarks": {
        "docking.poses_scored_per_sec.batch": {
            "unit": "poses/s", "repeats": 5, "values": [...],
            "median": ..., "p10": ..., "p90": ...},
        ...
      },
      "derived": {"docking.batch_speedup": ..., "vqe.compiled_speedup": ...},
      "comparison": {"previous": "BENCH_5.json", "deltas": {...}}   # optional
    }

Comparison semantics
--------------------
Absolute throughput/latency numbers are machine- and workload-dependent, so
deltas and the regression gate only compare them when both reports carry the
*same* machine fingerprint **and** the same ``smoke`` flag (smoke mode shrinks
the workloads, which skews fixed-overhead metrics like per-job transport
latency).  The ``derived`` speedup ratios (batched vs scalar, compiled vs
rebuild) are dimensionless and portable across machines and modes, so they
are always compared — that is what lets CI gate a smoke report generated on a
different machine against the committed full-mode trajectory.
"""

from __future__ import annotations

import json
import platform
import re
import time
from pathlib import Path

import numpy as np

BENCH_SCHEMA_VERSION = "bench/v1"

#: Units whose metrics improve downward (latencies, wall times).
_LOWER_IS_BETTER_UNITS = ("s", "ms", "us", "bytes")

_BENCH_FILE_RE = re.compile(r"^BENCH_(\d+)\.json$")


def lower_is_better(unit: str) -> bool:
    """Whether smaller values of a metric with this unit are better."""
    return unit in _LOWER_IS_BETTER_UNITS


def machine_fingerprint() -> dict:
    """Identity of the benchmark machine (decides delta comparability)."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": __import__("os").cpu_count(),
    }


def summarize(values: list[float]) -> dict:
    """Median / p10 / p90 summary of one benchmark's repeat values."""
    arr = np.asarray(values, dtype=float)
    return {
        "median": float(np.median(arr)),
        "p10": float(np.percentile(arr, 10)),
        "p90": float(np.percentile(arr, 90)),
    }


def build_report(
    bench_id: int,
    results: dict[str, dict],
    derived: dict[str, float],
    repeats: int,
    pose_batch: int,
    smoke: bool,
) -> dict:
    """Assemble the schema-versioned report body (without comparison)."""
    return {
        "schema": BENCH_SCHEMA_VERSION,
        "bench_id": int(bench_id),
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "smoke": bool(smoke),
        "machine": machine_fingerprint(),
        "config": {"repeats": int(repeats), "pose_batch": int(pose_batch)},
        "benchmarks": results,
        "derived": {k: float(v) for k, v in sorted(derived.items())},
    }


def _numbered_reports(root: str | Path) -> list[tuple[int, Path]]:
    """Every ``BENCH_<n>.json`` under ``root`` with its number, highest first."""
    matches = ((_BENCH_FILE_RE.match(path.name), path) for path in Path(root).glob("BENCH_*.json"))
    return sorted(((int(m.group(1)), path) for m, path in matches if m), reverse=True)


def find_previous_report(root: str | Path, before_id: int | None = None) -> Path | None:
    """The highest-numbered ``bench/v1`` report under ``root`` (below ``before_id``);
    other schemas are skipped, as a gate against one compares almost no keys."""
    for n, path in _numbered_reports(root):
        if before_id is not None and n >= before_id:
            continue
        try:
            report = load_report(path)
        except (OSError, ValueError):
            continue
        if isinstance(report, dict) and report.get("schema") == BENCH_SCHEMA_VERSION:
            return path
    return None


def next_bench_id(root: str | Path) -> int:
    """One past the highest trajectory number of any schema (1 when none exist)."""
    numbered = _numbered_reports(root)
    return numbered[0][0] + 1 if numbered else 1


def same_machine(a: dict, b: dict) -> bool:
    """Whether two reports carry identical machine fingerprints."""
    return a.get("machine") == b.get("machine")


def medians_comparable(a: dict, b: dict) -> bool:
    """Whether two reports' absolute medians can be meaningfully compared.

    Requires the same machine fingerprint *and* the same ``smoke`` flag: smoke
    mode shrinks each benchmark's workload, so fixed-overhead metrics (e.g.
    per-job transport latency) are not comparable against a full-mode run even
    on the same hardware.  Derived ratios never need this test.
    """
    return same_machine(a, b) and bool(a.get("smoke")) == bool(b.get("smoke"))


def compare_reports(current: dict, previous: dict, previous_name: str) -> dict:
    """Per-metric deltas of ``current`` against ``previous``.

    ``ratio`` is current/previous of the median; ``improved`` honours the
    metric's direction.  Machine-dependent benchmark medians are only listed
    when the reports are median-comparable (same machine, same smoke mode);
    derived ratios are always listed.
    """
    comparable = medians_comparable(current, previous)
    deltas: dict[str, dict] = {}
    if comparable:
        prev_benchmarks = previous.get("benchmarks", {})
        for name, entry in current.get("benchmarks", {}).items():
            prev = prev_benchmarks.get(name)
            if not prev or not prev.get("median"):
                continue
            ratio = entry["median"] / prev["median"]
            better_down = lower_is_better(entry.get("unit", ""))
            deltas[name] = {
                "previous_median": prev["median"],
                "ratio": ratio,
                "improved": ratio < 1.0 if better_down else ratio > 1.0,
            }
    prev_derived = previous.get("derived", {})
    for name, value in current.get("derived", {}).items():
        prev_value = prev_derived.get(name)
        if not prev_value:
            continue
        ratio = value / prev_value
        deltas[f"derived.{name}"] = {
            "previous": prev_value,
            "ratio": ratio,
            "improved": ratio > 1.0,
        }
    return {
        "previous": previous_name,
        "same_machine": same_machine(current, previous),
        "medians_compared": comparable,
        "deltas": deltas,
    }


def validate_report(report: object) -> list[str]:
    """Validate a report against the ``bench/v1`` schema; returns error strings."""
    errors: list[str] = []
    if not isinstance(report, dict):
        return ["report is not a JSON object"]
    if report.get("schema") != BENCH_SCHEMA_VERSION:
        errors.append(f"schema is {report.get('schema')!r}, expected {BENCH_SCHEMA_VERSION!r}")
    for field, kind in (("bench_id", int), ("smoke", bool), ("machine", dict),
                        ("config", dict), ("benchmarks", dict), ("derived", dict)):
        if not isinstance(report.get(field), kind):
            errors.append(f"missing or mistyped field {field!r} (want {kind.__name__})")
    if not isinstance(report.get("generated_at"), str):
        errors.append("missing or mistyped field 'generated_at' (want str)")
    benchmarks = report.get("benchmarks")
    if isinstance(benchmarks, dict):
        if not benchmarks:
            errors.append("benchmarks section is empty")
        for name, entry in benchmarks.items():
            if not isinstance(entry, dict):
                errors.append(f"benchmark {name!r} is not an object")
                continue
            if not isinstance(entry.get("unit"), str):
                errors.append(f"benchmark {name!r} has no unit")
            values = entry.get("values")
            if not isinstance(values, list) or not values:
                errors.append(f"benchmark {name!r} has no repeat values")
            for stat in ("median", "p10", "p90"):
                if not isinstance(entry.get(stat), (int, float)):
                    errors.append(f"benchmark {name!r} is missing {stat}")
    derived = report.get("derived")
    if isinstance(derived, dict):
        for name, value in derived.items():
            if not isinstance(value, (int, float)) or value <= 0:
                errors.append(f"derived metric {name!r} must be a positive number")
    return errors


def regressions(current: dict, previous: dict, max_ratio: float) -> list[str]:
    """Metrics of ``current`` that are worse than ``previous`` by > ``max_ratio``.

    Benchmark medians participate only when the reports are median-comparable
    (same machine fingerprint and same smoke mode); the portable derived
    ratios always participate.  Returns human-readable descriptions, empty
    when the gate passes.
    """
    failures: list[str] = []
    if medians_comparable(current, previous):
        prev_benchmarks = previous.get("benchmarks", {})
        for name, entry in current.get("benchmarks", {}).items():
            prev = prev_benchmarks.get(name)
            if not prev or not prev.get("median") or not entry.get("median"):
                continue
            if lower_is_better(entry.get("unit", "")):
                worsening = entry["median"] / prev["median"]
            else:
                worsening = prev["median"] / entry["median"]
            if worsening > max_ratio:
                failures.append(
                    f"{name}: {worsening:.2f}x worse than previous "
                    f"({entry['median']:.4g} vs {prev['median']:.4g} {entry.get('unit', '')})"
                )
    prev_derived = previous.get("derived", {})
    for name, value in current.get("derived", {}).items():
        prev_value = prev_derived.get(name)
        if not prev_value or not value:
            continue
        worsening = prev_value / value  # derived speedups improve upward
        if worsening > max_ratio:
            failures.append(
                f"derived.{name}: {worsening:.2f}x worse than previous "
                f"({value:.3g}x vs {prev_value:.3g}x)"
            )
    return failures


def load_report(path: str | Path) -> dict:
    """Read one trajectory file."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_report(path: str | Path, report: dict) -> Path:
    """Write one trajectory file (stable key order, trailing newline)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return path

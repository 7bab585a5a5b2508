"""Tests for the repro-bench suite, trajectory schema and CLI."""

import json

import pytest

from repro.bench.suite import BENCHMARKS, METRIC_UNITS, POSE_BATCH, derived_metrics, run_suite
from repro.bench.trajectory import (
    BENCH_SCHEMA_VERSION,
    build_report,
    compare_reports,
    find_previous_report,
    load_report,
    machine_fingerprint,
    next_bench_id,
    regressions,
    validate_report,
    write_report,
)
from repro.cli.bench import main
from repro.exceptions import ReproError


@pytest.fixture(scope="module")
def scoring_results():
    """One cheap real suite run (docking scoring only, single repeat)."""
    return run_suite(smoke=True, repeats=1, only="docking-scoring")


def _report_from(results, derived, bench_id=3):
    return build_report(
        bench_id=bench_id, results=results, derived=derived,
        repeats=1, pose_batch=POSE_BATCH, smoke=True,
    )


# -- suite ------------------------------------------------------------------------


def test_run_suite_docking_scoring_metrics(scoring_results):
    results, derived = scoring_results
    assert set(results) == {
        "docking.poses_scored_per_sec.batch",
        "docking.poses_scored_per_sec.scalar",
    }
    for metric, entry in results.items():
        assert entry["unit"] == METRIC_UNITS[metric]
        assert entry["repeats"] == len(entry["values"]) == 1
        assert entry["median"] > 0
        assert entry["p10"] <= entry["median"] <= entry["p90"]
    assert derived["docking.batch_speedup"] > 1.0


def test_run_suite_unknown_filter_raises():
    with pytest.raises(ReproError):
        run_suite(smoke=True, repeats=1, only="no-such-benchmark")


def test_every_benchmark_has_units_registered():
    assert len(BENCHMARKS) == 6
    names = {name for name, _fn in BENCHMARKS}
    assert names == {
        "docking-scoring", "statevector", "vqe-objective",
        "docking-search", "cache-remote", "transport-overhead",
    }
    # derived_metrics only emits ratios whose inputs exist.
    assert derived_metrics({}) == {}


# -- report schema ----------------------------------------------------------------


def test_build_validate_write_load_roundtrip(scoring_results, tmp_path):
    results, derived = scoring_results
    report = _report_from(results, derived)
    assert report["schema"] == BENCH_SCHEMA_VERSION
    assert report["machine"] == machine_fingerprint()
    assert validate_report(report) == []
    path = write_report(tmp_path / "BENCH_3.json", report)
    assert load_report(path) == report


def test_validate_report_failure_modes(scoring_results):
    results, derived = scoring_results
    good = _report_from(results, derived)
    assert validate_report("not a dict")
    assert validate_report({**good, "schema": "bench/v0"})
    assert validate_report({**good, "benchmarks": {}})
    broken = json.loads(json.dumps(good))
    del broken["benchmarks"]["docking.poses_scored_per_sec.batch"]["median"]
    assert validate_report(broken)
    assert validate_report({**good, "derived": {"docking.batch_speedup": -1.0}})


def test_trajectory_numbering(tmp_path):
    assert find_previous_report(tmp_path) is None
    assert next_bench_id(tmp_path) == 1
    stub = json.dumps({"schema": BENCH_SCHEMA_VERSION})
    (tmp_path / "BENCH_2.json").write_text(stub)
    (tmp_path / "BENCH_5.json").write_text(stub)
    (tmp_path / "BENCH_x.json").write_text(stub)  # ignored: not a trajectory file
    assert find_previous_report(tmp_path).name == "BENCH_5.json"
    assert find_previous_report(tmp_path, before_id=5).name == "BENCH_2.json"
    assert next_bench_id(tmp_path) == 6


def test_foreign_schema_reports_are_never_a_baseline(tmp_path, scoring_results):
    """A perfbench-shaped record numbered above the last ``bench/v1`` report
    is neither picked as the previous report nor accepted by ``--against``."""
    results, derived = scoring_results
    write_report(tmp_path / "BENCH_9.json", _report_from(results, derived, bench_id=9))
    foreign = {"schema": "perfbench/v1", "runs": [{"workload": "slice-warm", "build_s": [0.15]}]}
    write_report(tmp_path / "BENCH_10.json", foreign)
    (tmp_path / "BENCH_11.json").write_text("not json")
    assert find_previous_report(tmp_path).name == "BENCH_9.json"
    assert next_bench_id(tmp_path) == 12
    current = write_report(tmp_path / "smoke.json", _report_from(results, derived, bench_id=12))
    assert main(["--validate", str(current), "--against", str(tmp_path / "BENCH_9.json")]) == 0
    assert main(["--validate", str(current), "--against", str(tmp_path / "BENCH_10.json")]) == 1


# -- comparison and gating --------------------------------------------------------


def test_compare_reports_same_machine_lists_benchmark_deltas(scoring_results):
    results, derived = scoring_results
    previous = _report_from(results, derived, bench_id=2)
    current = _report_from(results, derived, bench_id=3)
    comparison = compare_reports(current, previous, "BENCH_2.json")
    assert comparison["same_machine"] is True
    deltas = comparison["deltas"]
    assert deltas["docking.poses_scored_per_sec.batch"]["ratio"] == pytest.approx(1.0)
    assert deltas["derived.docking.batch_speedup"]["ratio"] == pytest.approx(1.0)


def test_compare_reports_different_machine_keeps_only_derived(scoring_results):
    results, derived = scoring_results
    previous = _report_from(results, derived, bench_id=2)
    previous["machine"] = {**previous["machine"], "processor": "other-cpu"}
    comparison = compare_reports(_report_from(results, derived), previous, "BENCH_2.json")
    assert comparison["same_machine"] is False
    assert set(comparison["deltas"]) == {"derived.docking.batch_speedup"}


def test_regressions_gate_derived_ratios_on_any_machine(scoring_results):
    results, derived = scoring_results
    current = _report_from(results, derived)
    previous = _report_from(results, {"docking.batch_speedup": derived["docking.batch_speedup"] * 10})
    previous["machine"] = {**previous["machine"], "processor": "other-cpu"}
    failures = regressions(current, previous, max_ratio=2.0)
    assert failures and "derived.docking.batch_speedup" in failures[0]
    # A generous ceiling passes.
    assert regressions(current, previous, max_ratio=20.0) == []


def test_smoke_vs_full_compares_only_derived_even_on_same_machine(scoring_results):
    # A smoke run shrinks the workloads, so its absolute medians must not be
    # gated against a committed full-mode report even on the same hardware.
    results, derived = scoring_results
    previous = _report_from(results, derived, bench_id=2)
    previous["smoke"] = False
    current = _report_from(results, derived, bench_id=3)
    comparison = compare_reports(current, previous, "BENCH_2.json")
    assert comparison["same_machine"] is True
    assert comparison["medians_compared"] is False
    assert set(comparison["deltas"]) == {"derived.docking.batch_speedup"}
    slow = json.loads(json.dumps(results))
    for entry in slow.values():
        entry["median"] = entry["median"] / 10.0
    assert regressions(_report_from(slow, derived), previous, max_ratio=2.0) == []


def test_regressions_gate_medians_only_on_same_machine(scoring_results):
    results, derived = scoring_results
    slow = json.loads(json.dumps(results))
    for entry in slow.values():
        entry["median"] = entry["median"] / 10.0
    current = _report_from(slow, derived)
    previous = _report_from(results, derived, bench_id=2)
    assert regressions(current, previous, max_ratio=2.0)  # same machine: gated
    current["machine"] = {**current["machine"], "processor": "other-cpu"}
    assert regressions(current, previous, max_ratio=2.0) == []  # different: skipped


# -- CLI --------------------------------------------------------------------------


def test_cli_run_writes_valid_report(tmp_path, capsys):
    root = tmp_path / "traj"
    root.mkdir()
    code = main(["--root", str(root), "--smoke", "--repeats", "1", "--only", "docking-scoring"])
    assert code == 0
    report = load_report(root / "BENCH_1.json")
    assert validate_report(report) == []
    assert report["bench_id"] == 1
    assert "comparison" not in report  # nothing to compare against
    assert "docking.batch_speedup" in capsys.readouterr().out


def test_cli_run_embeds_comparison_against_previous(tmp_path, scoring_results):
    results, derived = scoring_results
    write_report(tmp_path / "BENCH_1.json", _report_from(results, derived, bench_id=1))
    code = main(["--root", str(tmp_path), "--smoke", "--repeats", "1", "--only", "docking-scoring"])
    assert code == 0
    report = load_report(tmp_path / "BENCH_2.json")
    assert report["comparison"]["previous"] == "BENCH_1.json"
    assert report["comparison"]["same_machine"] is True


def test_cli_validate_and_gate(tmp_path, scoring_results):
    results, derived = scoring_results
    good = write_report(tmp_path / "BENCH_3.json", _report_from(results, derived))
    previous = write_report(tmp_path / "BENCH_2.json", _report_from(results, derived, bench_id=2))
    assert main(["--validate", str(good)]) == 0
    assert main(["--validate", str(good), "--against", str(previous)]) == 0
    bad = _report_from(results, derived)
    bad["schema"] = "bench/v0"
    bad_path = write_report(tmp_path / "bad.json", bad)
    assert main(["--validate", str(bad_path)]) == 1


def test_cli_gate_failure_exits_nonzero(tmp_path, scoring_results):
    results, derived = scoring_results
    current = write_report(tmp_path / "BENCH_3.json", _report_from(results, derived))
    inflated = _report_from(results, {k: v * 10 for k, v in derived.items()}, bench_id=2)
    previous = write_report(tmp_path / "BENCH_2.json", inflated)
    assert main(["--validate", str(current), "--against", str(previous)]) == 1


def test_cli_usage_errors(tmp_path):
    assert main(["--against", "whatever.json"]) == 2  # --against needs --validate
    assert main(["--root", str(tmp_path / "missing")]) == 2
    assert main(["--root", str(tmp_path), "--only", "no-such-benchmark"]) == 2
    assert main(["--validate", str(tmp_path / "missing.json")]) == 1

"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  They share
a single QDockBank built once per session over a stratified subset of the 55
fragments (3 per length group by default) with the fast pipeline preset; set
``QDOCKBANK_BENCH_FULL=1`` in the environment to sweep all 55 fragments at the
cost of a much longer run.

The bank build is routed through the job engine.  Two environment knobs make
repeat benchmark sessions cheap:

* ``QDOCKBANK_BENCH_CACHE=<dir>`` — persistent result cache; a warm cache
  skips every VQE execution, baseline fold and docking search on later
  sessions (CI's ``bench-warm-cache`` job exercises exactly this).
* ``QDOCKBANK_BENCH_PROCESSES=<n>`` — fan engine jobs and entry assembly out
  over ``n`` worker processes (results are bit-identical to a serial run).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.analysis.comparison import compare_methods
from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder

#: Stratified subset used by default (3 fragments per group, ordered as in the paper).
DEFAULT_SUBSET_PER_GROUP = 3


@pytest.fixture(scope="session")
def bench_config() -> PipelineConfig:
    """Pipeline settings used for benchmark runs."""
    return PipelineConfig.fast().with_updates(docking_seeds=4, docking_mc_steps=150)


@pytest.fixture(scope="session")
def bench_bank(bench_config):
    """The QDockBank slice every table/figure benchmark reads from."""
    builder = DatasetBuilder(
        config=bench_config,
        processes=int(os.environ.get("QDOCKBANK_BENCH_PROCESSES", "0")),
        cache_dir=os.environ.get("QDOCKBANK_BENCH_CACHE") or None,
    )
    if os.environ.get("QDOCKBANK_BENCH_FULL") == "1":
        fragments = builder.select_fragments()
    else:
        fragments = builder.select_fragments(
            groups=["L", "M", "S"], limit_per_group=DEFAULT_SUBSET_PER_GROUP
        )
    bank = builder.build(fragments)
    cache_dir = os.environ.get("QDOCKBANK_BENCH_CACHE")
    if cache_dir:
        # Record this session's engine counters next to the cache (outside the
        # */*.json entry layout) so CI's warm-cache job can assert that a warm
        # session executed zero jobs — see .github/workflows/ci.yml.
        Path(cache_dir, "last-session-stats.json").write_text(
            json.dumps(builder.engine.stats(), indent=2) + "\n"
        )
    return bank


@pytest.fixture(scope="session")
def bench_comparisons(bench_bank):
    """QDock-vs-AF2 and QDock-vs-AF3 comparisons over the benchmark bank."""
    return {name: compare_methods(bench_bank, name) for name in ("AF2", "AF3")}

"""The committed golden job record (``tests/golden/jobs.json``).

Rebuilding each recorded build must reproduce every row, so a change to any
job hash or payload that is consistent within one tree still fails here.
The same build must do exactly the recorded work: a count that moves means
the code scored, evaluated or compiled more (or less) than before.
Regenerate the record with ``PYTHONPATH=src python tests/golden/regenerate.py``.
"""

from __future__ import annotations

import pytest

from golden import regenerate


def _check_build(name: str, jobs: int) -> None:
    golden = regenerate.load()
    rows = golden["builds"][name]["rows"]
    assert len(rows) == jobs
    # Fold and baseline hashes need no execution, so they hold everywhere.
    hashed = [{k: r[k] for k in ("kind", "identity", "content_hash")} for r in rows]
    assert regenerate.hash_rows(regenerate.BUILDS[name]) == [
        r for r in hashed if r["kind"] != "dock"
    ]
    built, counts = regenerate.build(name)
    # Counts that follow from the config hold everywhere too.
    moved = regenerate.count_diff(name, golden["builds"][name]["counts"], counts, ("config",))
    assert not moved, "\n".join(moved)
    # Payloads and the float counts follow BLAS and SciPy's COBYLA, which can
    # flip a discrete outcome between versions, so they are compared only
    # where the record was written.
    here = regenerate.fingerprint()
    if here != golden["fingerprint"]:
        differing = ", ".join(
            f"{key} {golden['fingerprint'].get(key)} (record) vs {value} (here)"
            for key, value in here.items()
            if golden["fingerprint"].get(key) != value
        )
        pytest.skip(f"payload rows and float counts not compared: {differing}")
    changed = regenerate.build_diff(
        name, golden["builds"][name], regenerate.entry(name, built, counts)
    )
    assert not changed, "\n".join(changed)


def test_golden_job_record():
    """The S-group build under the fast preset: 3 folds, 6 baselines, 9 docks."""
    _check_build("s-group", 18)


def test_golden_paper_fragment_record():
    """perfbench's paper fragment under the paper preset: the docking at paper scale."""
    _check_build("paper-fragment", 6)


def test_golden_mps_fold_record():
    """One L-group fold under the fast preset: an MPS plan compiled and sampled."""
    _check_build("mps-fold", 1)

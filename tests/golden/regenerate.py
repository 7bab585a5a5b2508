"""Write or check the golden job record of the S-group build.

The record (``tests/golden/jobs.json``) lists every engine job of a dataset
build of the three S-group fragments under ``PipelineConfig.fast()`` at seed
1: 3 ``fold``, 6 ``baseline_fold`` and 9 ``dock`` jobs.  Each row holds the
job's kind, its identity (pdb id, ``pdb:method`` or receptor id), its content
hash and the SHA-256 of its canonical payload.  The record also stores the
fingerprint of the machine that wrote it, because payload floats pass through
BLAS and SciPy's COBYLA.  It also holds the result digest of one seed-1 build
of perfbench's ``slice-cold`` and ``paper-fragment`` workloads, which CI's
``bench-smoke`` compares with its own perfbench runs where the fingerprint
matches.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite the record
    PYTHONPATH=src python tests/golden/regenerate.py --check  # exit 1 if stale

Both print a row-level diff against the committed record.  A change that
regenerates the record says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder
from repro.dataset.fragments import fragments_by_group
from repro.engine import Engine
from repro.folding.baselines import BASELINE_PREDICTORS

RECORD = Path(__file__).with_name("jobs.json")
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
PERFBENCH_WORKLOADS = ("slice-cold", "paper-fragment")
SCHEMA = "golden/v1"
SEED = 1
PDB_IDS = ("1e2k", "1hdq", "1ppi")
KINDS = ("fold", "baseline_fold", "dock")


def config() -> PipelineConfig:
    return PipelineConfig.fast().with_updates(seed=SEED)


def fragments() -> list:
    """The first three S-group fragments, as ``--groups S --per-group 3`` picks them."""
    picked = fragments_by_group("S")[: len(PDB_IDS)]
    if tuple(f.pdb_id for f in picked) != PDB_IDS:
        raise RuntimeError(f"S group changed: {[f.pdb_id for f in picked]}")
    return picked


def fingerprint() -> dict[str, str]:
    """The versions and architecture payload digests depend on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _sort(rows: list[dict]) -> list[dict]:
    return sorted(rows, key=lambda r: (KINDS.index(r["kind"]), r["identity"]))


def hash_rows() -> list[dict]:
    """The fold and baseline rows' kind, identity and content hash, without
    executing a job: the specs come from the helpers the build uses."""
    engine = Engine(config())
    rows = []
    for f in fragments():
        spec = engine.spec(f.pdb_id, f.sequence, start_seq_id=f.residue_start)
        rows.append({"kind": "fold", "identity": f.pdb_id, "content_hash": spec.content_hash()})
        for method in BASELINE_PREDICTORS:
            spec = engine.baseline_spec(f.pdb_id, f.sequence, method, start_seq_id=f.residue_start)
            rows.append({
                "kind": "baseline_fold",
                "identity": f"{f.pdb_id}:{method}",
                "content_hash": spec.content_hash(),
            })
    return _sort(rows)


def _row(payload: dict) -> dict:
    schema = payload["schema"]
    kind = schema.split("/")[0]
    if kind == "dock":
        identity = payload["receptor_id"]
    elif kind == "baseline_fold":
        identity = f"{payload['pdb_id']}:{payload['method']}"
    else:
        identity = payload["pdb_id"]
    # The content hash has its own column, so the digest leaves it out: a
    # hash-input change then moves only that cell.
    body = {k: v for k, v in payload.items() if k != "spec_hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return {
        "kind": kind,
        "identity": identity,
        "content_hash": payload["spec_hash"],
        "payload_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
    }


def build_rows() -> list[dict]:
    """Build the S group serially into a fresh cache and read back every job."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        DatasetBuilder(config(), cache_dir=cache).build(fragments())
        rows = [_row(json.loads(p.read_text())) for p in cache.glob("*/*.json")]
    return _sort(rows)


def perfbench_digests() -> dict[str, str]:
    """The result digest of one seed-1 build of each of
    :data:`PERFBENCH_WORKLOADS`, as ``perfbench/run.py --seed 1`` records it."""
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS, make_builder, run_build

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in PERFBENCH_WORKLOADS:
            work = Path(tmp) / name
            builder = make_builder(WORKLOADS[name], SEED, work, None)
            digests[name] = run_build(builder, WORKLOADS[name], work).digest
    return digests


def record(rows: list[dict], perfbench: dict[str, str] | None = None) -> dict:
    new = {
        "schema": SCHEMA,
        "build": "S-group fragments, PipelineConfig.fast(), seed 1, serial",
        "fingerprint": fingerprint(),
        "rows": rows,
    }
    if perfbench is not None:
        new["perfbench_seed1"] = perfbench
    return new


def load() -> dict:
    return json.loads(RECORD.read_text())


def diff(old: dict, new: dict) -> list[str]:
    """Row-level differences between two records, one line per changed cell."""
    lines = []
    for key in sorted(set(old["fingerprint"]) | set(new["fingerprint"])):
        a, b = old["fingerprint"].get(key), new["fingerprint"].get(key)
        if a != b:
            lines.append(f"~ fingerprint {key}: {a} -> {b}")
    index = lambda rows: {(r["kind"], r["identity"]): r for r in rows}  # noqa: E731
    before, after = index(old["rows"]), index(new["rows"])
    for key in sorted(before.keys() | after.keys(), key=lambda k: (KINDS.index(k[0]), k[1])):
        label = f"{key[0]} {key[1]}"
        if key not in after:
            lines.append(f"- {label}")
        elif key not in before:
            lines.append(f"+ {label}")
        else:
            for cell in ("content_hash", "payload_sha256"):
                if before[key][cell] != after[key][cell]:
                    lines.append(f"~ {label} {cell}: {before[key][cell]} -> {after[key][cell]}")
    if "perfbench_seed1" in new:
        recorded = old.get("perfbench_seed1", {})
        for name, digest in new["perfbench_seed1"].items():
            if recorded.get(name) != digest:
                lines.append(f"~ perfbench {name} digest: {recorded.get(name)} -> {digest}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 when the record is stale")
    args = parser.parse_args(argv)
    new = record(build_rows(), perfbench_digests())
    old = load() if RECORD.exists() else {"fingerprint": {}, "rows": []}
    lines = diff(old, new)
    print("\n".join(lines) if lines else "record is current")
    if args.check:
        return 1 if lines else 0
    if lines:
        RECORD.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {RECORD}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write or check the golden job record.

The record (``tests/golden/jobs.json``) lists every engine job of three
serial builds at seed 1, each into a fresh cache:

* ``s-group``: the three S-group fragments under ``PipelineConfig.fast()``,
  3 ``fold``, 6 ``baseline_fold`` and 9 ``dock`` jobs;
* ``paper-fragment``: perfbench's paper fragment (1e2l) under
  ``PipelineConfig.paper()``, 1 fold, 2 baseline folds and 3 docks;
* ``mps-fold``: one L-group fold under ``PipelineConfig.fast()``, too wide
  for the statevector simulator, so its plan is an MPS plan.

Each row holds the job's kind, its identity (pdb id, ``pdb:method`` or
receptor id), its content hash and the SHA-256 of its canonical payload.  The
record also stores the fingerprint of the machine that wrote it, because
payload floats pass through BLAS and SciPy's COBYLA.  It also holds the
result digest of one seed-1 build of perfbench's ``slice-cold`` and
``paper-fragment`` workloads, which CI's ``perfbench-smoke`` compares with its
own perfbench runs where the fingerprint matches.

Each build's ``counts`` block holds exact work counts of that build (jobs
executed, docking scorer calls, poses and scoring blocks, VQE objective
evaluations, plan compiles by backend, lattice-energy rows), collected by
wrappers this script patches onto the package's classes for the build.
``counts.config`` follows from the configuration and is compared on every
machine; ``counts.float`` follows float results and is compared only where
the fingerprint matches.  A count that moves means the code did more or less
work, whatever the timing noise.

Usage (from the repository root)::

    PYTHONPATH=src python tests/golden/regenerate.py          # rewrite the record
    PYTHONPATH=src python tests/golden/regenerate.py --check  # exit 1 if stale

Both print a row-level diff against the committed record.  A change that
regenerates the record says why in CHANGES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import scipy

from repro.bio import reference
from repro.config import PipelineConfig
from repro.dataset.builder import DatasetBuilder
from repro.dataset.fragments import fragments_by_group
from repro.docking.scoring import VinaScoringFunction
from repro.docking.search import MonteCarloPoseSearch
from repro.engine import Engine
from repro.folding.baselines import BASELINE_PREDICTORS
from repro.lattice.hamiltonian import LatticeHamiltonian
from repro.quantum.backend import MPSBackend, StatevectorBackend
from repro.vqe.vqe import VQE

RECORD = Path(__file__).with_name("jobs.json")
PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
PERFBENCH_WORKLOADS = ("slice-cold", "paper-fragment")
SCHEMA = "golden/v2"
SEED = 1
KINDS = ("fold", "baseline_fold", "dock")


@dataclass(frozen=True)
class Build:
    """One recorded build: fragments of one group under one preset, serial.

    ``fold_only`` runs the fragments' fold jobs alone, without baselines or
    docking.
    """

    what: str
    preset: str
    group: str
    pdb_ids: tuple[str, ...]
    fold_only: bool = False

    def config(self) -> PipelineConfig:
        return getattr(PipelineConfig, self.preset)().with_updates(seed=SEED)

    def fragments(self) -> list:
        by_id = {f.pdb_id: f for f in fragments_by_group(self.group)}
        missing = [pdb_id for pdb_id in self.pdb_ids if pdb_id not in by_id]
        if missing:
            raise RuntimeError(f"{self.group} group has no {missing}")
        return [by_id[pdb_id] for pdb_id in self.pdb_ids]


BUILDS = {
    "s-group": Build(
        "S-group fragments, PipelineConfig.fast(), seed 1, serial", "fast", "S",
        ("1e2k", "1hdq", "1ppi"),
    ),
    "paper-fragment": Build(
        "1e2l, PipelineConfig.paper(), seed 1, serial", "paper", "M", ("1e2l",),
    ),
    "mps-fold": Build(
        "1yc4's fold job, PipelineConfig.fast(), seed 1: an MPS plan", "fast", "L",
        ("1yc4",), fold_only=True,
    ),
}

#: A build's work counts and the kind of each.  A ``config`` count follows
#: from the configuration and the fragments alone, so it is exact on every
#: machine.  A ``float`` count follows float results, which BLAS and SciPy's
#: COBYLA can move between machines, so it is compared only where the
#: record's fingerprint matches.
COUNTS = {
    # Engine jobs executed, by kind (3 fold, 6 baseline_fold, 9 dock for the
    # S group).
    "jobs.fold": "config",
    "jobs.baseline_fold": "config",
    "jobs.dock": "config",
    # MonteCarloPoseSearch._score calls of the Metropolis walks: one per step
    # plus the starts, as the docking knobs set them.
    "dock.walk.score_calls": "config",
    # Poses those calls score: walkers x streams per call, the streams being
    # seeds x the receptors' binding sites.
    "dock.walk.poses": "config",
    # VinaScoringFunction._score_block calls of the walks: each call's poses
    # in blocks of CHUNK_ROWS.
    "dock.walk.blocks": "config",
    # The same three counts of refinement: which candidates stay distinct,
    # and so how many rounds run, follows the walk's float scores.
    "dock.refine.score_calls": "float",
    "dock.refine.poses": "float",
    "dock.refine.blocks": "float",
    # VQE._objective calls: COBYLA stops on float tolerances.
    "vqe.objective_evals": "float",
    # Plan compiles by the backend that compiles (an AutoBackend hands each
    # circuit to one of these): one plan per ansatz structure, so one per
    # fold, on the simulator its qubit count picks.
    "quantum.plan_compiles.statevector": "config",
    "quantum.plan_compiles.mps": "config",
    # LatticeHamiltonian.energies calls and conformations scored: the
    # reference solver's annealing moves and the distinct conformations the
    # VQE samples both follow float results.
    "lattice.energies.calls": "float",
    "lattice.energies.rows": "float",
}


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


def hash_rows(build: Build) -> list[dict]:
    """The fold and baseline rows' kind, identity and content hash, without
    executing a job: the specs come from the helpers the build uses."""
    engine = Engine(build.config())
    rows = []
    for f in build.fragments():
        spec = engine.spec(f.pdb_id, f.sequence, start_seq_id=f.residue_start)
        rows.append({"kind": "fold", "identity": f.pdb_id, "content_hash": spec.content_hash()})
        if build.fold_only:
            continue
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


def _wrapped(owner, name: str, enter, leave=None):
    """Patch ``owner.name`` with a wrapper that calls ``enter(*args)`` before
    the original and ``leave()`` after it returns or raises."""
    original = getattr(owner, name)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        enter(*args, **kwargs)
        try:
            return original(*args, **kwargs)
        finally:
            if leave is not None:
                leave()

    return mock.patch.object(owner, name, wrapper)


@contextlib.contextmanager
def counting():
    """Count the work of the :data:`COUNTS` callables while open.

    Yields the counts dict, filled in as the build runs.  The ground-state
    memo of the references is emptied first, so the counts do not depend on
    what ran earlier in the process.
    """
    counts = dict.fromkeys(COUNTS, 0)
    # The docking phase running: "walk", "refine" or None.
    state = {"phase": None}

    def add(name: str, value: int = 1) -> None:
        counts[name] += value

    def phase(name: str | None):
        return lambda *args: state.update(phase=name)

    def score(search, rotations, translations):
        add(f"dock.{state['phase']}.score_calls")
        add(f"dock.{state['phase']}.poses", len(rotations))

    patches = [
        _wrapped(MonteCarloPoseSearch, "_walk", phase("walk"), phase(None)),
        _wrapped(MonteCarloPoseSearch, "_refine", phase("refine"), phase(None)),
        _wrapped(MonteCarloPoseSearch, "_score", score),
        _wrapped(VinaScoringFunction, "_score_block",
                 lambda *args: add(f"dock.{state['phase']}.blocks")),
        _wrapped(VQE, "_objective", lambda *args: add("vqe.objective_evals")),
        _wrapped(LatticeHamiltonian, "energies", lambda hamiltonian, turns: (
            add("lattice.energies.calls"), add("lattice.energies.rows", len(turns)))),
        _wrapped(StatevectorBackend, "_compile",
                 lambda *args: add("quantum.plan_compiles.statevector")),
        _wrapped(MPSBackend, "_compile", lambda *args: add("quantum.plan_compiles.mps")),
    ]
    reference._ground_state.cache_clear()
    with contextlib.ExitStack() as stack:
        for patch in patches:
            stack.enter_context(patch)
        yield counts


def build(name: str) -> tuple[list[dict], dict[str, dict[str, int]]]:
    """Run build ``name`` into a fresh cache while :func:`counting`; every
    job's row, and the counts split by kind as the record stores them."""
    spec = BUILDS[name]
    with tempfile.TemporaryDirectory() as tmp:
        cache = Path(tmp) / "cache"
        with counting() as counts:
            if spec.fold_only:
                engine = Engine(spec.config(), cache=cache)
                engine.run([
                    engine.spec(f.pdb_id, f.sequence, start_seq_id=f.residue_start)
                    for f in spec.fragments()
                ])
            else:
                builder = DatasetBuilder(spec.config(), cache_dir=cache)
                builder.build(spec.fragments())
                engine = builder.engine
        for kind, executed in engine.stats()["executed_by_kind"].items():
            counts[f"jobs.{kind}"] = executed
        rows = [_row(json.loads(p.read_text())) for p in cache.glob("*/*.json")]
    split = {"config": {}, "float": {}}
    for count, kind in COUNTS.items():
        split[kind][count] = counts[count]
    return _sort(rows), split


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


def entry(name: str, rows: list[dict], counts: dict[str, dict[str, int]]) -> dict:
    """Build ``name``'s part of the record."""
    return {"build": BUILDS[name].what, "rows": rows, "counts": counts}


def record(builds: dict[str, dict], perfbench: dict[str, str] | None = None) -> dict:
    new = {"schema": SCHEMA, "fingerprint": fingerprint(), "builds": builds}
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
    for name, built in new["builds"].items():
        lines += build_diff(name, old.get("builds", {}).get(name, {}), built)
    if "perfbench_seed1" in new:
        recorded = old.get("perfbench_seed1", {})
        for name, digest in new["perfbench_seed1"].items():
            if recorded.get(name) != digest:
                lines.append(f"~ perfbench {name} digest: {recorded.get(name)} -> {digest}")
    return lines


def build_diff(name: str, old: dict, new: dict) -> list[str]:
    """Differences between two records' entries of build ``name``."""
    lines = []
    index = lambda rows: {(r["kind"], r["identity"]): r for r in rows}  # noqa: E731
    before, after = index(old.get("rows", [])), index(new["rows"])
    for key in sorted(before.keys() | after.keys(), key=lambda k: (KINDS.index(k[0]), k[1])):
        label = f"{name} {key[0]} {key[1]}"
        if key not in after:
            lines.append(f"- {label}")
        elif key not in before:
            lines.append(f"+ {label}")
        else:
            for cell in ("content_hash", "payload_sha256"):
                if before[key][cell] != after[key][cell]:
                    lines.append(f"~ {label} {cell}: {before[key][cell]} -> {after[key][cell]}")
    lines += count_diff(name, old.get("counts", {}), new["counts"], ("config", "float"))
    return lines


def count_diff(name: str, old: dict, new: dict, kinds: tuple[str, ...]) -> list[str]:
    """One line per count of ``kinds`` that differs between two counts
    blocks of build ``name``."""
    lines = []
    for kind in kinds:
        before, after = old.get(kind, {}), new.get(kind, {})
        for count in sorted(before.keys() | after.keys()):
            if before.get(count) != after.get(count):
                lines.append(
                    f"~ {name} {kind} count {count}: {before.get(count)} -> {after.get(count)}"
                )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="exit 1 when the record is stale")
    args = parser.parse_args(argv)
    new = record({name: entry(name, *build(name)) for name in BUILDS}, perfbench_digests())
    old = load() if RECORD.exists() else {"fingerprint": {}}
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

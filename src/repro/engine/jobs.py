"""Job specifications and results for the execution engine.

The engine executes a small *typed family* of jobs — every expensive unit of
work in the pipeline is one of these kinds:

* ``fold`` (:class:`JobSpec`) — a two-stage VQE fold of one fragment;
* ``baseline_fold`` (:class:`BaselineFoldSpec`) — an AF2-like / AF3-like
  prior-biased baseline prediction of one fragment;
* ``dock`` (:class:`DockSpec`) — a multi-seed docking search of one ligand
  against one receptor structure.

Each spec hashes to a deterministic content address covering *only the knobs
that kind depends on*: a fold hash ignores docking knobs, a dock hash ignores
VQE shot counts, and orchestration detail (worker count, cache location) never
enters any hash.  Two specs with the same hash are guaranteed to produce
bit-identical results, which is what lets the engine deduplicate work within a
batch and reuse results across runs through the persistent cache.  The kind's
schema version is the first hash component, so hashes of different kinds can
never collide.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, ClassVar

import numpy as np

from repro.config import PipelineConfig
from repro.folding.predictor import FoldingPrediction
from repro.lattice.hamiltonian import HamiltonianWeights

#: Schema versions of the content hashes / cache payloads, one per job kind.
#: Bump a kind's version whenever its pipeline changes in a way that
#: invalidates previously cached results of that kind.
#: fold/v2: the batched lattice-energy kernel sums strictly left to right,
#: where the scalar path used NumPy's pairwise sum and a BLAS dot whose order
#: depends on the length and the run-time kernel.  Energies (and so the
#: energy metadata) can differ in the last bits from fold/v1 at equal knobs.
FOLD_SCHEMA_VERSION = "fold/v2"
BASELINE_SCHEMA_VERSION = "baseline_fold/v1"
#: dock/v4: a docking run refines its ``docking_poses`` best distinct walk
#: candidates over all its sites, where dock/v3 refined that many at each
#: site and kept the best of them.  Every (run, site) pair still draws from
#: its own stream, derived from the run's recorded seed and the site index,
#: with the Metropolis test drawing a uniform on every step (dock/v3); a
#: candidate refines with the next refinement block of its site's stream.
#: Docking outputs differ from dock/v3 at equal knobs (dock/v2 carried one
#: stream per run from site to site; dock/v1 shared one stream among all
#: restarts).
DOCK_SCHEMA_VERSION = "dock/v4"

#: The configuration fields that influence a quantum fold result (and
#: therefore the fold job hash).  Everything else — docking knobs, worker
#: counts, cache paths — is orchestration detail.
_FOLD_CONFIG_FIELDS: tuple[str, ...] = (
    "vqe_iterations",
    "optimisation_shots",
    "final_shots",
    "ansatz_reps",
    "max_statevector_qubits",
    "mps_bond_dimension",
    "seed",
    "cvar_alpha",
    "max_final_shots",
    "backend",
)

#: A baseline fold depends only on the master seed (it keys the reference
#: generator the baselines blend towards); the baselines' own blend / noise
#: seeds are per-method constants.
_BASELINE_CONFIG_FIELDS: tuple[str, ...] = ("seed",)

#: A docking search depends on the docking protocol knobs and the master seed
#: (per-run seeds derive from it and the receptor identity).
_DOCK_CONFIG_FIELDS: tuple[str, ...] = (
    "docking_seeds",
    "docking_poses",
    "docking_mc_steps",
    "seed",
)


def config_fingerprint(
    config: PipelineConfig, fields: tuple[str, ...] = _FOLD_CONFIG_FIELDS
) -> str:
    """Canonical JSON string of the ``fields`` subset of the configuration."""
    payload = {name: getattr(config, name) for name in fields}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _weights_key(weights: HamiltonianWeights | None) -> str:
    if weights is None:
        return "default"
    return f"{weights.chirality!r}/{weights.geometric!r}/{weights.clash!r}/{weights.interaction!r}"


def _hash_parts(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode("utf-8")).hexdigest()


def _memoize_hash(spec: Any, compute: Any) -> str:
    """Per-instance memo for ``content_hash``.

    Specs are immutable by contract, and one submission needs the hash at
    several layers (in-batch dedup, cache key, journal, session keys) —
    for a :class:`DockSpec` each recomputation would re-digest the full
    receptor and ligand.  Stored via ``object.__setattr__`` because the spec
    dataclasses are frozen.
    """
    cached = spec.__dict__.get("_hash_memo")
    if cached is None:
        cached = compute()
        object.__setattr__(spec, "_hash_memo", cached)
    return cached


class _DropHashMemoOnPickle:
    """Excludes the content-hash memo from pickles.

    Specs travel as pickles — to worker processes and into a session
    journal's spec pickle.  A journal can outlive a code upgrade that bumps a
    kind's schema version, and a memo baked into the pickle would then replay
    the *old* schema's hash, matching stale cache payloads instead of
    invalidating them.  Unpickled specs therefore always re-derive their hash
    under the current schema versions.
    """

    def __getstate__(self) -> dict[str, Any]:
        state = dict(self.__dict__)
        state.pop("_hash_memo", None)
        return state


def structure_digest(structure) -> str:
    """Content digest of a :class:`~repro.bio.structure.Structure`.

    Covers the sequence, every atom's name/element and the full coordinate
    array, so two receptors dock-hash equal exactly when they are the same
    molecule in the same conformation.
    """
    h = hashlib.sha256()
    h.update(str(structure.sequence).encode("utf-8"))
    for atom in structure.atoms:
        h.update(f"{atom.name}/{atom.element}".encode("utf-8"))
    coords = np.ascontiguousarray(structure.all_coords(), dtype=np.float64)
    h.update(coords.tobytes())
    return h.hexdigest()


def ligand_digest(ligand) -> str:
    """Content digest of a :class:`~repro.docking.ligand.Ligand`."""
    h = hashlib.sha256()
    h.update(ligand.name.encode("utf-8"))
    h.update("".join(ligand.elements).encode("utf-8"))
    h.update(np.ascontiguousarray(ligand.coords, dtype=np.float64).tobytes())
    for flags in (ligand.hydrophobic, ligand.donor, ligand.acceptor):
        h.update(np.asarray(flags, dtype=bool).tobytes())
    h.update(np.ascontiguousarray(ligand.charges, dtype=np.float64).tobytes())
    h.update(str(int(ligand.num_rotatable_bonds)).encode("utf-8"))
    if ligand.anchor is not None:
        h.update(np.ascontiguousarray(ligand.anchor, dtype=np.float64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class JobSpec(_DropHashMemoOnPickle):
    """One quantum fold job: a fragment plus everything that determines its result."""

    pdb_id: str
    sequence: str
    config: PipelineConfig = field(default_factory=PipelineConfig)
    weights: HamiltonianWeights | None = None
    register: str = "configuration"
    start_seq_id: int = 1

    kind: ClassVar[str] = "fold"

    def content_hash(self) -> str:
        """Deterministic SHA-256 content address of this job.

        Covers the fragment identity (the PDB ID seeds the VQE child RNG, so
        it is part of the result), the sequence, the Hamiltonian weights, the
        simulated register, the residue numbering and the fold-relevant
        configuration including the backend name.
        """
        return _memoize_hash(self, lambda: _hash_parts(
            FOLD_SCHEMA_VERSION,
            self.pdb_id.lower(),
            str(self.sequence),
            self.register,
            str(int(self.start_seq_id)),
            _weights_key(self.weights),
            config_fingerprint(self.config, _FOLD_CONFIG_FIELDS),
        ))


@dataclass(frozen=True)
class BaselineFoldSpec(_DropHashMemoOnPickle):
    """One deep-learning-baseline fold job (AF2-like or AF3-like).

    ``method`` selects the accuracy profile by name (``"AF2"`` / ``"AF3"``,
    see :data:`repro.folding.baselines.BASELINE_PREDICTORS`).  The result
    depends only on the fragment identity, the method and the master seed, so
    the hash ignores every VQE and docking knob.
    """

    pdb_id: str
    sequence: str
    method: str = "AF2"
    config: PipelineConfig = field(default_factory=PipelineConfig)
    start_seq_id: int = 1

    kind: ClassVar[str] = "baseline_fold"

    def content_hash(self) -> str:
        """Deterministic SHA-256 content address of this baseline fold."""
        return _memoize_hash(self, lambda: _hash_parts(
            BASELINE_SCHEMA_VERSION,
            self.method,
            self.pdb_id.lower(),
            str(self.sequence),
            str(int(self.start_seq_id)),
            config_fingerprint(self.config, _BASELINE_CONFIG_FIELDS),
        ))


@dataclass(frozen=True, eq=False)
class DockSpec(_DropHashMemoOnPickle):
    """One docking job: a receptor structure, a ligand and the search knobs.

    The receptor and ligand travel *by value* (both are picklable), so a dock
    job is self-contained on any worker; the hash covers their content
    digests, the receptor identity (per-run docking seeds derive from it) and
    the dock-relevant configuration.
    """

    pdb_id: str
    receptor_id: str
    receptor: Any  # repro.bio.structure.Structure
    ligand: Any  # repro.docking.ligand.Ligand
    config: PipelineConfig = field(default_factory=PipelineConfig)

    kind: ClassVar[str] = "dock"

    def content_hash(self) -> str:
        """Deterministic SHA-256 content address of this docking job."""
        return _memoize_hash(self, lambda: _hash_parts(
            DOCK_SCHEMA_VERSION,
            self.pdb_id.lower(),
            self.receptor_id,
            structure_digest(self.receptor),
            ligand_digest(self.ligand),
            config_fingerprint(self.config, _DOCK_CONFIG_FIELDS),
        ))


@dataclass
class JobResult:
    """The outcome of one fold job (quantum or baseline).

    ``conformation_coords`` holds the raw Cα trace the prediction was
    reconstructed from — the minimal datum from which the full structure is
    deterministically re-derived, which is what the persistent cache stores
    instead of serialising whole structures.  For quantum folds that trace is
    the decoded lattice conformation; for baseline folds it is the blended
    prior/reference trace.
    """

    spec_hash: str
    pdb_id: str
    sequence: str
    prediction: FoldingPrediction
    conformation_coords: np.ndarray
    start_seq_id: int = 1
    from_cache: bool = False
    kind: str = "fold"

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable form of this result (the cache file contents)."""
        schema = (
            BASELINE_SCHEMA_VERSION if self.kind == "baseline_fold" else FOLD_SCHEMA_VERSION
        )
        return {
            "schema": schema,
            "spec_hash": self.spec_hash,
            "pdb_id": self.pdb_id,
            "sequence": self.sequence,
            "start_seq_id": int(self.start_seq_id),
            "method": self.prediction.method,
            "structure_id": self.prediction.structure.structure_id,
            "metadata": self.prediction.metadata,
            "conformation_coords": np.asarray(self.conformation_coords, dtype=float).tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "JobResult":
        """Rebuild a result from a cache payload.

        The structure is re-derived by running the (cheap, deterministic)
        reconstruction over the stored Cα trace, so a cache hit is
        bit-identical to a fresh fold without ever re-running the VQE or the
        baseline blend.
        """
        from repro.bio.sequence import ProteinSequence
        from repro.lattice.reconstruction import reconstruct_structure

        coords = np.asarray(payload["conformation_coords"], dtype=float)
        structure = reconstruct_structure(
            ProteinSequence(payload["sequence"]),
            coords,
            structure_id=payload["structure_id"],
            start_seq_id=int(payload["start_seq_id"]),
            center=True,
        )
        prediction = FoldingPrediction(
            pdb_id=payload["pdb_id"],
            sequence=payload["sequence"],
            method=payload["method"],
            structure=structure,
            metadata=dict(payload["metadata"]),
        )
        schema = payload.get("schema", FOLD_SCHEMA_VERSION)
        return cls(
            spec_hash=payload["spec_hash"],
            pdb_id=payload["pdb_id"],
            sequence=payload["sequence"],
            prediction=prediction,
            conformation_coords=coords,
            start_seq_id=int(payload["start_seq_id"]),
            from_cache=True,
            kind="baseline_fold" if schema.startswith("baseline_fold/") else "fold",
        )

    def shallow_copy(self) -> "JobResult":
        """A copy sharing the prediction object (used for in-batch duplicates)."""
        return replace(self)


@dataclass
class DockJobResult:
    """The outcome of one docking job: the full multi-seed docking summary.

    Cached payloads persist the per-run / per-pose *summary* (seeds,
    affinities, RMSD bounds) — everything the dataset and analysis layers
    consume, and every aggregate recomputes identically.  Raw pose coordinate
    arrays are not persisted: poses restored from the cache carry empty
    coordinate arrays, so consumers needing pose geometry must dock fresh
    (as the figure benchmarks do).
    """

    spec_hash: str
    pdb_id: str
    receptor_id: str
    docking: Any  # repro.docking.vina.DockingResult
    from_cache: bool = False
    kind: str = "dock"

    def to_payload(self) -> dict[str, Any]:
        """JSON-serialisable form of this result (the cache file contents).

        Stores the docking summary (per-run seeds, per-pose affinities and
        RMSD bounds) without pose coordinates — exactly the numbers the
        dataset's ``docking.json`` files and the analysis layer consume.
        """
        return {
            "schema": DOCK_SCHEMA_VERSION,
            "spec_hash": self.spec_hash,
            "pdb_id": self.pdb_id,
            "receptor_id": self.receptor_id,
            "docking": self.docking.as_dict(),
        }

    @classmethod
    def from_payload(cls, payload: dict[str, Any]) -> "DockJobResult":
        """Rebuild a result from a cache payload (aggregates are recomputed
        from the stored per-pose numbers, so they match a fresh run exactly)."""
        from repro.docking.vina import DockingResult

        return cls(
            spec_hash=payload["spec_hash"],
            pdb_id=payload["pdb_id"],
            receptor_id=payload["receptor_id"],
            docking=DockingResult.from_dict(payload["docking"]),
            from_cache=True,
        )

    def shallow_copy(self) -> "DockJobResult":
        """A copy sharing the docking object (used for in-batch duplicates)."""
        return replace(self)


def result_from_payload(payload: dict[str, Any]) -> JobResult | DockJobResult:
    """Rebuild the right result type for a cache payload from its schema."""
    schema = payload.get("schema", FOLD_SCHEMA_VERSION)
    if schema.startswith("dock/"):
        return DockJobResult.from_payload(payload)
    return JobResult.from_payload(payload)

"""Quickstart: fold one pocket fragment with the quantum pipeline and evaluate it.

Run with:  python examples/quickstart.py

All fold work — this single fragment as much as the 55-fragment dataset build —
is routed through the job engine (``repro.engine``), which resolves the
simulator backend by name from ``PipelineConfig.backend`` (``"statevector"``,
``"mps"`` or ``"auto"``), fans batches out over worker processes,
and reuses previously folded fragments from a persistent on-disk cache::

    from repro.engine import Engine

    engine = Engine(config=PipelineConfig.fast(), cache="qdockbank_cache", processes=4)
    specs = [engine.spec("2bok", "EDACQGDSGG"), engine.spec("3eax", "RYRDV")]
    results = engine.run(specs)   # bit-identical to processes=0
    print(engine.stats())         # executed vs cache-hit counts

A second ``engine.run`` over the same specs (or a later process pointed at the
same cache directory) performs zero VQE executions.
"""

from __future__ import annotations

from repro import PipelineConfig
from repro.bio.reference import ReferenceStructureGenerator
from repro.bio.rmsd import ca_rmsd
from repro.bio.pdb import structure_to_pdb_string
from repro.docking.ligand import SyntheticLigandGenerator
from repro.docking.vina import DockingEngine
from repro.dataset.fragments import fragment_by_pdb_id
from repro.engine import Engine


def main() -> None:
    fragment = fragment_by_pdb_id("2bok")  # EDACQGDSGG, a 10-residue protease-core motif
    config = PipelineConfig.fast()

    print(f"Folding {fragment.pdb_id} ({fragment.sequence}, residues {fragment.residue_range}) ...")
    engine = Engine(config=config)
    prediction = engine.fold(fragment.pdb_id, fragment.sequence, start_seq_id=fragment.residue_start)

    meta = prediction.metadata
    print(f"  qubits: {meta['qubits']}  circuit depth: {meta['circuit_depth']}")
    print(f"  lowest energy seen: {meta['lowest_energy']:.1f}  highest: {meta['highest_energy']:.1f}")
    print(f"  modelled hardware execution time: {meta['execution_time_s']:.0f} s "
          f"(~{meta['estimated_cost_usd']:.0f} USD)")

    reference = ReferenceStructureGenerator().generate(fragment.pdb_id, fragment.sequence)
    rmsd = ca_rmsd(prediction.structure, reference.structure)
    print(f"  CA RMSD to the experimental reference: {rmsd:.2f} A")

    ligand = SyntheticLigandGenerator().generate(reference)
    docking = DockingEngine(num_seeds=4, num_poses=5, mc_steps=150).dock(
        prediction.structure, ligand, receptor_id=f"{fragment.pdb_id}:QDock"
    )
    print(f"  docking affinity (mean best over {len(docking.runs)} seeds): "
          f"{docking.mean_best_affinity:.2f} kcal/mol")
    print(f"  pose RMSD bounds: l.b. {docking.mean_rmsd_lb:.2f} A  u.b. {docking.mean_rmsd_ub:.2f} A")

    print("\nFirst lines of the predicted PDB file:")
    print("\n".join(structure_to_pdb_string(prediction.structure).splitlines()[:8]))


if __name__ == "__main__":
    main()

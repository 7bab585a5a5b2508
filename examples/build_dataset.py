"""Build a slice of the QDockBank dataset and write it in the published layout.

Run with:  python examples/build_dataset.py [output_dir] [--groups S,M,L] [--per-group N]

Building all 55 fragments at paper fidelity takes a long time; by default this
example builds two fragments per group with the fast preset (a couple of
minutes) and writes the S/M/L folder structure, per-entry PDB files, quantum
metadata JSON and docking JSON plus the index used by the analysis layer, then
reloads the written bank and checks that it holds the built entries.
"""

from __future__ import annotations

import argparse

from repro import DatasetBuilder, PipelineConfig, QDockBank
from repro.analysis.comparison import compare_methods
from repro.analysis.report import format_table, winrate_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("output", nargs="?", default="qdockbank_out")
    parser.add_argument("--groups", default="S,M,L", help="comma-separated length groups")
    parser.add_argument("--per-group", type=int, default=2, help="fragments per group")
    parser.add_argument("--processes", type=int, default=0, help="worker processes (0 = serial)")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persistent result cache; re-runs skip already-computed folds, baselines and docking searches",
    )
    args = parser.parse_args()

    builder = DatasetBuilder(
        config=PipelineConfig.fast(), processes=args.processes, cache_dir=args.cache_dir
    )
    fragments = builder.select_fragments(groups=args.groups.split(","), limit_per_group=args.per_group)
    print(f"Building {len(fragments)} fragments: {[f.pdb_id for f in fragments]}")

    bank = builder.build(fragments)
    bank.save(args.output)
    built = [e.pdb_id for e in bank.entries]
    reloaded = [e.pdb_id for e in QDockBank.load(args.output).entries]
    if reloaded != built:
        raise SystemExit(f"{args.output}/ reloads as {reloaded}, but the build made {built}")
    print(f"Dataset written to {args.output}/ and reloaded ({len(reloaded)} entries)")
    print(f"Engine stats: {builder.engine.stats()}")

    comparisons = {m: compare_methods(bank, m) for m in ("AF2", "AF3")}
    print("\nWin rates on this slice (measured vs paper):")
    print(format_table(winrate_report(comparisons)))


if __name__ == "__main__":
    main()

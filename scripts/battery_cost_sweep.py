#!/usr/bin/env python3
"""Run the three-step battery cost sweep and print the headline movements.

Creates (or reuses) an example1 project under the given work directory,
solves runs S0/S1/S2, and prints objective, installed Li-ion power and
solar capacity per run. Full stores and report tables land in the project
directory.
"""

import argparse
from pathlib import Path

from voltaic.pipeline import run_project
from voltaic.scenarios import MODES
from voltaic.store import read_all_stores
from voltaic.symbols import SymbolsHandler, aggregate
from voltaic.templates import create_project


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="experiments", help="parent directory for the project")
    parser.add_argument("--mode", default="single_instance", choices=MODES)
    args = parser.parse_args()

    root = Path(args.workdir) / "battery_cost_sweep"
    if not root.exists():
        create_project("battery_cost_sweep", "example1", args.workdir)
        print(f"created {root}")

    summary = run_project(root, mode=args.mode)
    handler = SymbolsHandler(read_all_stores(root / "results"))
    li_power = aggregate(handler.lookup("N_STO_P"), "n", "sum")
    capacity = aggregate(handler.lookup("N"), "n", "sum")

    print(f"\n{'run':8s} {'objective':>14s} {'Li-ion MW':>10s} {'solar MW':>10s}")
    for result in summary.results:
        run = result.run_id
        print(
            f"{run:8s} {result.objective:14.2f} "
            f"{li_power.records.get((run, 'Li-ion'), 0.0):10.1f} "
            f"{capacity.records.get((run, 'solar'), 0.0):10.1f}"
        )
    print(f"\nstores: {root / 'results'}\nreport: {root / 'report'}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Two-country renewable-share sweep: DE 50-80 %, FR 40-70 %, one week.

Prints the cost of each share level and the implied system cost of the
marginal share step (EUR per percentage point of the DE requirement).
"""

import argparse
from pathlib import Path

from voltaic.pipeline import run_project
from voltaic.scenarios import MODES
from voltaic.templates import create_project


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="experiments")
    parser.add_argument("--mode", default="single_instance", choices=MODES)
    args = parser.parse_args()

    root = Path(args.workdir) / "share_sweep"
    if not root.exists():
        create_project("share_sweep", "example2", args.workdir)
        print(f"created {root}")

    summary = run_project(root, mode=args.mode)
    print(f"\n{'run':10s} {'objective':>14s} {'step cost/%pt':>14s}")
    previous = None
    for result in summary.results:
        step = "" if previous is None else f"{(result.objective - previous) / 10.0:14.2f}"
        print(f"{result.run_id:10s} {result.objective:14.2f} {step:>14s}")
        previous = result.objective
    print(f"\nstores: {root / 'results'}\nreport: {root / 'report'}")


if __name__ == "__main__":
    main()

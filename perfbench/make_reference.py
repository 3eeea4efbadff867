#!/usr/bin/env python3
"""Record the reference objectives of the default seed in reference.json.

Runs ``voltaic run`` (single_instance mode) on the default-seed projects of
``invest_week`` and ``sweep_wide``, reads every store's objective and
writes them. Re-record only when a change is meant to move
the optimum, and say so in the change.

Run from the root of a voltaic checkout: python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import gate
from run import DEFAULT_SEED

HERE = Path(__file__).resolve().parent


def main() -> None:
    work = Path.cwd() / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(Path.cwd() / "src"))
    objectives = {}
    for workload in ("invest_week", "sweep_wide"):
        root = work / workload
        subprocess.run([sys.executable, str(HERE / "gen.py"), workload, str(DEFAULT_SEED), str(root)],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        subprocess.run([sys.executable, "-m", "voltaic.cli", "run", str(root), "--mode", "single_instance"],
                       env=env, check=True, stdout=subprocess.DEVNULL)
        runs = gate.store_objectives(root / "results")
        bad = [r for r, (status, _) in runs.items() if status != "optimal"]
        if bad:
            raise SystemExit(f"{workload}: runs without an optimal solution: {bad}")
        objectives[workload] = {r: objective for r, (_, objective) in runs.items()}
    record = {"seed": DEFAULT_SEED, "objectives": objectives}
    (HERE / "reference.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()

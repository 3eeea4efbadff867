#!/usr/bin/env python3
"""One-shot scaling ladder, kept outside the gated workloads.

1. Solve the ``invest_week`` shape at H in {24, 48, 96, 168}: solve time,
   IPM iterations and LP size.
2. Report over {4, 16, 32} of ``sweep_wide``'s stores: report time.
3. ``highs-ds`` against ``highs-ipm`` through ``scipy.optimize.linprog`` on
   the same arrays at H in {4, 8, 12, 24, 48}, to place the dual simplex /
   interior point switch (``rows + cols > 4000`` in ``voltaic.solver``).

Prints each step's numbers and the fitted growth exponents (least-squares
slope of log time over log size), and writes them to
``.perfbench_work/ladder.json``. Each point is one measurement.

Run from the root of a voltaic checkout: python3 perfbench/ladder.py [--seed N]
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path.cwd() / "src"))

import gen  # noqa: E402
from run import DEFAULT_SEED  # noqa: E402
from voltaic import SymbolsHandler, build_model, certify, solve  # noqa: E402
from voltaic.pipeline import run_project  # noqa: E402
from voltaic.project import load_project  # noqa: E402
from voltaic.reports import standard_report  # noqa: E402
from voltaic.solver import classify_rows, matrix  # noqa: E402
from voltaic.store import read_all_stores  # noqa: E402
from voltaic.templates import write_project  # noqa: E402
from scipy.optimize import linprog  # noqa: E402
import scipy.sparse as sp  # noqa: E402

SOLVE_HOURS = (24, 48, 96, 168)
REPORT_RUNS = (4, 16, 32)
METHOD_HOURS = (4, 8, 12, 24, 48)


def exponent(sizes, times) -> float:
    return float(np.polyfit(np.log(sizes), np.log(times), 1)[0])


def invest_lp(work: Path, seed: int, hours: int):
    root = write_project(gen.build("invest_week", seed, hours=hours), work / f"invest_h{hours}")
    project = load_project(root)
    return build_model(project.data, project.config, project.features)


def solve_ladder(work: Path, seed: int) -> list[dict]:
    rows = []
    for hours in SOLVE_HOURS:
        lp = invest_lp(work, seed, hours)
        started = time.perf_counter()
        solution = solve(lp)
        elapsed = time.perf_counter() - started
        rows.append({
            "hours": hours, "solve_s": elapsed, "iterations": solution.stats.iterations,
            "rows": lp.n_rows, "cols": lp.n_cols, "nnz": int(len(lp.a_vals)),
            "certified": certify(lp, solution).ok(1e-6),
        })
        print(f"solve   H={hours:4d}  {elapsed:8.3f} s  {solution.stats.iterations:4d} it  "
              f"{lp.n_rows} rows  {lp.n_cols} cols  {len(lp.a_vals)} nnz", flush=True)
    return rows


def report_ladder(work: Path, seed: int) -> list[dict]:
    root = write_project(gen.build("sweep_wide", seed), work / "sweep")
    summary = run_project(root, mode="parallel", threads=2)
    if not summary.all_optimal:
        raise SystemExit("sweep for the report ladder has runs without an optimal solution")
    stores = read_all_stores(root / "results")
    rows = []
    for runs in REPORT_RUNS:
        started = time.perf_counter()
        standard_report(SymbolsHandler(stores[:runs]), work / f"report{runs}")
        elapsed = time.perf_counter() - started
        rows.append({"runs": runs, "report_s": elapsed})
        print(f"report  runs={runs:3d}  {elapsed:8.3f} s", flush=True)
    return rows


def method_ladder(work: Path, seed: int) -> list[dict]:
    rows = []
    for hours in METHOD_HOURS:
        lp = invest_lp(work, seed, hours)
        a = matrix(lp)
        eq, le, ge, _ = classify_rows(lp)
        a_ub = sp.vstack([a[le], -a[ge]], format="csr")
        b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]])
        row = {"hours": hours, "size": lp.n_rows + lp.n_cols}
        for method in ("highs-ds", "highs-ipm"):
            started = time.perf_counter()
            res = linprog(lp.obj, A_ub=a_ub, b_ub=b_ub, A_eq=a[eq], b_eq=lp.rhs[eq],
                          bounds=np.column_stack([lp.lo, lp.hi]), method=method)
            row[method] = {"s": time.perf_counter() - started, "iterations": int(res.nit),
                           "status": int(res.status), "objective": float(res.fun)}
        ds, ipm = row["highs-ds"], row["highs-ipm"]
        row["agree"] = abs(ds["objective"] - ipm["objective"]) <= 1e-6 * max(1.0, abs(ds["objective"]))
        rows.append(row)
        print(f"method  H={hours:4d}  rows+cols={row['size']:6d}  ds {ds['s']:7.3f} s ({ds['iterations']} it)  "
              f"ipm {ipm['s']:7.3f} s ({ipm['iterations']} it)  agree={row['agree']}", flush=True)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    args = parser.parse_args()
    work = Path.cwd() / ".perfbench_work" / "ladder"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    solves = solve_ladder(work, args.seed)
    reports = report_ladder(work, args.seed)
    methods = method_ladder(work, args.seed)
    fits = {
        "solve_s ~ H^k": exponent([r["hours"] for r in solves], [r["solve_s"] for r in solves]),
        "report_s ~ runs^k": exponent([r["runs"] for r in reports], [r["report_s"] for r in reports]),
        "highs-ds ~ size^k": exponent([r["size"] for r in methods], [r["highs-ds"]["s"] for r in methods]),
        "highs-ipm ~ size^k": exponent([r["size"] for r in methods], [r["highs-ipm"]["s"] for r in methods]),
    }
    for name, k in fits.items():
        print(f"fit     {name:<20s} k = {k:.2f}")
    out = {"seed": args.seed, "solve": solves, "report": reports, "methods": methods, "exponents": fits}
    (work.parent / "ladder.json").write_text(json.dumps(out, indent=1) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()

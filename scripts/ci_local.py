#!/usr/bin/env python3
"""Run every check of the CI workflow that needs no download, in one command.

    python scripts/ci_local.py              # every check
    python scripts/ci_local.py warm_phi     # only the named checks

Run it from anywhere, with numpy, scipy, pytest and hypothesis installed;
it puts the repository's ``src`` on ``PYTHONPATH`` for every process it
starts. The checks are tier-1, the benchmark's own tests, and the warm
sweep determinism projects: stores and reports that must not depend on
the mode or the worker count, rebuild objectives that must match the warm
ones for cost, rhs, coefficient and bound deltas, a row that falls back
cold, and rows that cannot run. Each prints ``ok`` or ``FAIL`` with its
time, and the script exits 1 if any failed.

The workflow's ``tests-oldest-highs-object`` job (tier-1 on
``scipy==1.15.*``, the oldest bundled HiGHS object) needs a download to
install that scipy, so it is not run here; the script names it at the end.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
NOT_RUN = ("tests-oldest-highs-object: tier-1 on scipy==1.15.*, the oldest bundled HiGHS object "
           "(installing that scipy needs a download)")


class Failed(Exception):
    pass


def sh(*args, code: int = 0, show: bool = False) -> str:
    """Run ``args`` from the repository root; its stdout. Fails unless it
    exits ``code``. With ``show`` its output goes to the terminal."""
    args = [str(a) for a in args]
    done = subprocess.run(args, cwd=REPO, env=ENV, text=True, capture_output=not show)
    if done.returncode != code:
        command = " ".join("<snippet>" if "\n" in a else a for a in args)
        output = "" if show else (done.stdout + done.stderr)[-4000:]
        raise Failed(f"{command} exited {done.returncode}, not {code}\n{output}")
    return "" if show else done.stdout


def voltaic(*args, code: int = 0) -> None:
    sh(sys.executable, "-m", "voltaic.cli", *args, code=code)


def python(snippet: str, *args) -> None:
    """Run ``snippet`` in a fresh interpreter and print what it printed."""
    print(sh(sys.executable, "-c", snippet, *args), end="")


def gen(seed: int, out: Path) -> None:
    sh(sys.executable, "perfbench/gen.py", "sweep_wide", seed, out)


def diff(a: Path, b: Path) -> None:
    sh("diff", "-r", a, b)


def edit(path: Path, pattern: str, replacement: str) -> None:
    """``sed -i 's/pattern/replacement/'`` on each line; the pattern must match."""
    text, found = re.subn(pattern, replacement, path.read_text(), flags=re.M)
    if not found:
        raise Failed(f"{path}: no line matches {pattern!r}")
    path.write_text(text)


def table(root: Path, *rows: str) -> None:
    (root / "iterationfiles" / "iteration_table.csv").write_text("".join(row + "\n" for row in rows))


def tier1(tmp: Path) -> None:
    sh(sys.executable, "-m", "pytest", "-q", show=True)


def benchmark_tests(tmp: Path) -> None:
    sh(sys.executable, "-m", "pytest", "-q", "perfbench/tests", show=True)


def warm_sweep(tmp: Path) -> None:
    """sweep_wide's 32 rows share one instance, so they re-solve warm, each
    from its tree parent's basis, in whichever worker the ready queue gives
    them to: the stores and report must not depend on the mode or on the
    worker count, and ``report`` must rewrite the report ``run`` made in
    memory byte for byte, both from the stores as written (``report``
    prefers each ``store.npz``) and from a copy of them whose stores are
    CSV only. Seed 2 has 5 base roots against seed 1's 2, so rows reach
    both workers at once and sibling starts cross processes."""
    for seed in (1, 2):
        single, parallel = tmp / f"warm_single_{seed}", tmp / f"warm_parallel_{seed}"
        gen(seed, single)
        gen(seed, parallel)
        voltaic("run", single, "--mode", "single_instance")
        shutil.copytree(single / "report", tmp / f"warm_run_report_{seed}")
        voltaic("report", single)
        diff(tmp / f"warm_run_report_{seed}", single / "report")
        csv_only = tmp / f"warm_csv_{seed}"
        shutil.copytree(single / "results", csv_only / "results", ignore=shutil.ignore_patterns("store.npz"))
        if not any((single / "results").rglob("store.npz")):
            raise Failed(f"{single / 'results'}: no store.npz, so the CSV copy reads the same files")
        voltaic("report", csv_only)
        diff(tmp / f"warm_run_report_{seed}", csv_only / "report")
        for threads in (1, 2, 3, 5):
            voltaic("run", parallel, "--mode", "parallel", "--threads", threads)
            diff(single / "results", parallel / "results")
            diff(single / "report", parallel / "report")


REBUILD_MATCHES_WARM = """
import json, pathlib, sys
warm, cold = (pathlib.Path(root, "results") for root in sys.argv[1:])
runs = sorted(p.name for p in warm.iterdir())
assert runs == sorted(p.name for p in cold.iterdir()) and len(runs) == 9, runs
for run in runs:
    a, b = (json.loads((root / run / "run.meta").read_text())["objective"] for root in (warm, cold))
    assert abs(a - b) <= 1e-6 * max(1.0, abs(a)), (run, a, b)
print(f"{len(runs)} rebuild objectives match single_instance to 1e-6")
"""


def warm_phi(tmp: Path) -> None:
    """Coefficient deltas: example1 at 24 h with nine rows, so they re-solve
    warm. Rows that name cf_wind_DE as DE's solar availability change
    matrix cells; the others leave them at base. This project also runs in
    rebuild mode, which solves every row cold: two runs from fresh copies
    must agree byte for byte, and each row's objective must match the warm
    single_instance one to 1e-6 relative."""
    root = tmp / "warm_phi"
    voltaic("create_project", "-n", "warm_phi", "-t", "example1", "--path", tmp)
    edit(root / "settings" / "project_variables.csv", r"^end_hour,h48", "end_hour,h24")
    table(root, "run,\"phi('solar','DE')\",\"c_var(n,'ccgt')\"", "P0,cf_wind_DE,", "P1,,40",
          "P2,cf_wind_DE,42", "P3,,", "P4,cf_wind_DE,36", "P5,,44", "P6,cf_wind_DE,", "P7,,38", "P8,cf_wind_DE,40")
    for copy in ("parallel", "rebuild_a", "rebuild_b"):
        shutil.copytree(root, tmp / f"warm_phi_{copy}")
    voltaic("run", root, "--mode", "single_instance")
    for threads in (2, 3):
        voltaic("run", tmp / "warm_phi_parallel", "--mode", "parallel", "--threads", threads)
        diff(root / "results", tmp / "warm_phi_parallel" / "results")
        diff(root / "report", tmp / "warm_phi_parallel" / "report")
    voltaic("run", tmp / "warm_phi_rebuild_a", "--mode", "rebuild")
    voltaic("run", tmp / "warm_phi_rebuild_b", "--mode", "rebuild")
    diff(tmp / "warm_phi_rebuild_a" / "results", tmp / "warm_phi_rebuild_b" / "results")
    diff(tmp / "warm_phi_rebuild_a" / "report", tmp / "warm_phi_rebuild_b" / "report")
    python(REBUILD_MATCHES_WARM, root, tmp / "warm_phi_rebuild_a")


EVERY_ROW_WARM = """
import sys
from voltaic import pipeline, solver, sweep
bases, base_statuses = [], sweep.base_statuses
sweep.base_statuses = lambda lp: bases.append(lp) or base_statuses(lp)
cold, cold_highs = [], solver._cold_highs
solver._cold_highs = lambda lp: cold.append(lp) or cold_highs(lp)
summary = pipeline.run_project(sys.argv[1], mode="single_instance")
assert summary.all_optimal and len(summary.results) == 9
fell = [lp for lp in cold if all(lp is not base for base in bases)]
assert len(bases) == 1 and not fell, f"{len(fell)} rows solved cold"
iterations = [r.solution.stats.simplex_iterations for r in summary.results]
print(f"every row solved warm, in {min(iterations)}-{max(iterations)} simplex iterations")
"""


def warm_bounds(tmp: Path) -> None:
    """Bound deltas: example1 at 24 h with nine rows that raise FR's ccgt
    capacity floor (``N.lo``), cap IT's (``N.up``) and fix ES's solar
    capacity (``N.fx``), alone and together, so they re-solve warm. Every
    row must solve warm in single_instance; parallel runs at 2 and 3
    workers must write the same stores and report, and each rebuild
    objective must match the warm one to 1e-6 relative."""
    root = tmp / "warm_bounds"
    voltaic("create_project", "-n", "warm_bounds", "-t", "example1", "--path", tmp)
    edit(root / "settings" / "project_variables.csv", r"^end_hour,h48", "end_hour,h24")
    table(root, "run,\"N.lo('ccgt','FR')\",\"N.up('ccgt','IT')\",\"N.fx('solar','ES')\"", "B0,,,",
          "B1,40,,", "B2,45,,", "B3,,45,", "B4,,40,", "B5,,,120", "B6,,,160", "B7,40,45,130", "B8,45,30,")
    for copy in ("parallel", "rebuild"):
        shutil.copytree(root, tmp / f"warm_bounds_{copy}")
    python(EVERY_ROW_WARM, root)
    for threads in (2, 3):
        voltaic("run", tmp / "warm_bounds_parallel", "--mode", "parallel", "--threads", threads)
        diff(root / "results", tmp / "warm_bounds_parallel" / "results")
        diff(root / "report", tmp / "warm_bounds_parallel" / "report")
    voltaic("run", tmp / "warm_bounds_rebuild", "--mode", "rebuild")
    python(REBUILD_MATCHES_WARM, root, tmp / "warm_bounds_rebuild")


ONE_ROW_FALLS_BACK = """
import sys
from voltaic import pipeline, solver, sweep
bases, base_statuses = [], sweep.base_statuses
sweep.base_statuses = lambda lp: bases.append(lp) or base_statuses(lp)
cold, cold_highs = [], solver._cold_highs

def counted(lp):
    result = cold_highs(lp)
    if all(lp is not base for base in bases):
        cold.append(result)
    return result

solver._cold_highs = counted
summary = pipeline.run_project(sys.argv[1], mode="single_instance")
assert summary.all_optimal
fell = [r.run_id for r in summary.results if any(sol.objective == r.objective for sol, _ in cold)]
assert len(cold) == 1 and fell == ["L25"] and cold[0][1] is not None, fell
print(f"{fell[0]} fell back cold; its basis seeded L24 ({summary.results[-1].solution.stats.iterations} iterations)")
"""


def warm_fallback(tmp: Path) -> None:
    """A warm fallback: example1 at 48 h, where L25 (a quarter of the Li-ion
    cost) passes the warm iteration guard and is solved cold. Its basis
    must seed its tree child L24, so L24 does not fall back too; the
    single_instance run counts the rows' cold solves (the base's cold
    solve, on the program given to base_statuses, aside)."""
    root = tmp / "warm_fallback"
    voltaic("create_project", "-n", "warm_fallback", "-t", "example1", "--path", tmp)
    edit(root / "settings" / "project_variables.csv", r"^end_hour,h[0-9]*", "end_hour,h48")
    table(root, "run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\"", "L100,20029,15021",
          "L95,19028,14270", "L90,18026,13519", "L85,17025,12768", "L80,16023,12017", "L75,15022,11266",
          "L25,5007,3755", "L24,4807,3605")
    shutil.copytree(root, tmp / "warm_fallback_parallel")
    python(ONE_ROW_FALLS_BACK, root)
    for threads in (2, 3):
        voltaic("run", tmp / "warm_fallback_parallel", "--mode", "parallel", "--threads", threads)
        diff(root / "results", tmp / "warm_fallback_parallel" / "results")
        diff(root / "report", tmp / "warm_fallback_parallel" / "report")


ADD_FAILING_ROWS = """
import csv, io, pathlib, sys
from voltaic import scenarios, sweep
from voltaic.model import build_model
from voltaic.project import load_project
table = pathlib.Path(sys.argv[1], "iterationfiles", "iteration_table.csv")
rows = list(csv.reader(io.StringIO(table.read_text())))
rows = [rows[0] + ["N.lo('ocgt','DE')", "N.up('ocgt','DE')", "country_set"]] + [
    row + ["", "", ""] for row in rows[1:]]
rows += [["E", *rows[1][1:3], "", "", "60", "50", ""], ["C", *rows[1][1:3], "", "", "61", "", ""],
         ["X", "", "", "", "nope", "", "", ""], ["Z", "", "", "", "", "", "", "ZZ"]]
out = io.StringIO()
csv.writer(out, lineterminator="\\n").writerows(rows)
table.write_text(out.getvalue())
project = load_project(sys.argv[1])
data, config, specs = project.data, project.config, [s for s in project.specs if s.country_set is None]
lp = build_model(data, config, project.features)
deltas = [[] if s.run_id == "X" else scenarios.expand_overrides(s, lp, data, config) for s in specs]
_, parents = sweep._tree(lp, deltas)
names = [s.run_id for s in specs]
assert names[parents[names.index("C")]] == "E", "C is not E's tree child"
"""

ONLY_FAILING_ROWS_FAIL = """
import json, pathlib, sys
meta = {p.name: json.loads((p / "run.meta").read_text()) for p in pathlib.Path(sys.argv[1]).iterdir()}
assert len(meta) == 36, sorted(meta)
failed = {run: m["error"] for run, m in meta.items() if m.get("error") is not None}
assert sorted(failed) == ["E", "X", "Z"], sorted(failed)
assert failed["E"] == "delta produces lo > hi on N(ocgt,DE): [60.0, 50.0]", failed["E"]
assert "unknown series 'nope'" in failed["X"] and "ZZ" in failed["Z"], failed
print("E, X and Z fail in planning; the other 33 rows are solved")
"""


def failing_rows(tmp: Path) -> None:
    """Rows that cannot run: sweep_wide's table (seed 1) plus E, whose N.lo
    lies above its N.up, E's tree child C, X, which names an unknown
    series, and Z, whose country set does not build. The plan finds all
    three, the calling process finishes them, and C starts from the base
    basis: every mode writes the same stores."""
    single, parallel = tmp / "failing_single", tmp / "failing_parallel"
    gen(1, single)
    python(ADD_FAILING_ROWS, single)
    shutil.copytree(single, parallel)
    voltaic("run", single, "--mode", "single_instance", code=2)
    for threads in (2, 3):
        voltaic("run", parallel, "--mode", "parallel", "--threads", threads, code=2)
        diff(single / "results", parallel / "results")
    python(ONLY_FAILING_ROWS_FAIL, single / "results")


CHECKS = {check.__name__: check for check in (tier1, benchmark_tests, warm_sweep, warm_phi, warm_bounds,
                                               warm_fallback, failing_rows)}


def main(names: list[str]) -> int:
    unknown = [name for name in names if name not in CHECKS]
    if unknown:
        print(f"unknown check(s) {', '.join(unknown)}; the checks are {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    failed = []
    for name in names or CHECKS:
        started = time.perf_counter()
        try:
            with tempfile.TemporaryDirectory(prefix=f"ci_local_{name}_") as tmp:
                CHECKS[name](Path(tmp))
        except Failed as exc:
            failed.append(name)
            print(f"FAIL {name} ({time.perf_counter() - started:.1f} s): {exc}", flush=True)
        else:
            print(f"ok   {name} ({time.perf_counter() - started:.1f} s)", flush=True)
    print(f"not run here: {NOT_RUN}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

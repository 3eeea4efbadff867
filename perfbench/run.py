#!/usr/bin/env python3
"""The voltaic benchmark: two seeded workloads, end to end and per layer.

Run from the root of a voltaic checkout; the program under test is the
``src/voltaic`` found there, driven through its CLI (``python3 -m
voltaic.cli``) in fresh processes.

    python3 perfbench/run.py --workload invest_week --seed 1 --seconds 50 --trace 0

Workloads (inputs made by ``gen.py`` from the seed):

``invest_week``  one scenario row at H = 168, ``voltaic run``.
``sweep_wide``   32 rows at H = 24, ``voltaic run --mode parallel --threads 2``.

With ``--trace 0`` the workload's CLI command is repeated, at least twice,
until ``--seconds`` would be exceeded, and the end-to-end metrics are
medians over the repetitions. With ``--trace 1`` one traced run makes the
same work as timed calls into each module's public functions
(``child.py traced``) and gives the per-layer metrics; an untraced run of
the same work gives the trace overhead.

Every run checks its outputs (``gate.py``) and exits 1 when a check fails.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the machine and versions,
goes to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("invest_week", "sweep_wide")
DEFAULT_SEED = 1
WORKERS = 2  # sweep_wide's worker count, pinned so numbers compare across machines
MIN_REPS = 2
SETUP_REPS = 4
BUDGET_S = 170.0  # the whole invocation, preparation included
REPORT_TABLES = ("capacity.csv", "generation.csv", "storage.csv", "rldc.csv", "summary.csv")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "project.load_s": "s",
    "model.build_s": "s",
    "model.rows": "count",
    "model.cols": "count",
    "model.nnz": "count",
    "solver.compile_s": "s",
    "solver.solve_s": "s",
    "solver.solve_p50_s": "s",
    "solver.iterations": "count",
    "solver.certify_s": "s",
    "solver.cert_residual_max": "ratio",
    "scenarios.expand_s": "s",
    "scenarios.deltas": "count",
    "scenarios.result_mb": "MB",
    "scenarios.parallel_eff": "ratio",
    "store.extract_s": "s",
    "store.write_s": "s",
    "store.csv_mb": "MB",
    "store.npz_mb": "MB",
    "store.read_s": "s",
    "symbols.lookup_s": "s",
    "symbols.records": "count",
    "reports.report_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "failed_share": "ratio",
}
MB = float(1 << 20)


class BenchError(RuntimeError):
    """The benchmark could not complete a step; no result is printed."""


class Runner:
    """Starts child processes in the checkout and waits for each to end."""

    def __init__(self, checkout: Path, work: Path, deadline: float):
        self.checkout = checkout
        self.work = work
        self.deadline = deadline
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ, PYTHONPATH=str(checkout / "src"), TMPDIR=str(tmp))
        self.env.pop("VOLTAIC_THREADS", None)
        self._logs = 0

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, argv: list[str]) -> tuple[int, float, float, Path]:
        """Run ``argv`` to completion: exit code, wall seconds, peak RSS (MB), log.

        The peak RSS is ``ru_maxrss`` of the waited-for child, which covers
        the child's own waited-for children (the sweep workers).
        """
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("time budget exhausted")
        self._logs += 1
        log = self.work / f"child{self._logs:03d}.log"
        with log.open("wb") as out:
            started = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=self.checkout, env=self.env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            watchdog = threading.Timer(timeout, _kill_group, (proc.pid,))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: take the child down too
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # anything the child left behind
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, log

    def check(self, argv: list[str]) -> tuple[float, float]:
        """Run a step that must succeed; returns wall seconds and peak RSS."""
        code, wall, rss, log = self.run(argv)
        if code != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"{' '.join(argv[1:])} exited {code}:\n{tail}")
        return wall, rss


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def machine() -> dict:
    import numpy
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": "unknown",
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            info["cpu"] = models[0]
    except OSError:
        pass
    try:
        from scipy.optimize._highspy import _core

        info["highs"] = f"{_core.HIGHS_VERSION_MAJOR}.{_core.HIGHS_VERSION_MINOR}.{_core.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        pass
    return info


def _run_ids(project: Path) -> list[str]:
    with (project / "iterationfiles" / "iteration_table.csv").open(newline="") as fh:
        return [row[0] for row in list(csv.reader(fh))[1:] if row]


def _tree_mb(root: Path, suffix: str) -> float:
    return sum(p.stat().st_size for p in root.rglob(f"*{suffix}") if p.is_file()) / MB


class Bench:
    def __init__(self, checkout: Path, work: Path, args: argparse.Namespace):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = work
        self.runner = Runner(checkout, work, time.monotonic() + BUDGET_S)
        refs = json.loads((HERE / "reference.json").read_text())
        self.reference = refs["objectives"][self.workload] if args.seed == refs["seed"] else None
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.extra: dict = {}

    def project(self) -> Path:
        root = self.work / "project"
        self.runner.check([sys.executable, str(HERE / "gen.py"), self.workload, str(self.seed), str(root)])
        return root

    def cli(self, root: Path, *extra: str) -> list[str]:
        return [sys.executable, "-m", "voltaic.cli", "run", str(root), *extra]

    def run_command(self, root: Path) -> list[str]:
        if self.workload == "sweep_wide":
            return self.cli(root, "--mode", "parallel", "--threads", str(WORKERS))
        return self.cli(root)

    def child(self, verb: str, root: Path) -> dict:
        out = self.work / f"{verb}.json"
        self.runner.check([sys.executable, str(HERE / "child.py"), verb, str(root), str(out)])
        return json.loads(out.read_text())

    # -- checks ----------------------------------------------------------

    def count_failed(self, problems: list[str], expected: list[str]) -> None:
        """A problem naming a run fails that run; any other fails them all."""
        bad = {r for r in expected for p in problems if p.startswith(f"run {r}:")}
        unnamed = [p for p in problems if not any(p.startswith(f"run {r}:") for r in expected)]
        self.failed += len(expected) if unnamed else len(bad)
        self.problems += problems

    def check_cli(self, root: Path, code: int, expected: list[str]) -> dict[str, float]:
        """Check one CLI run's stores and report; returns the objectives by run id."""
        self.attempted += len(expected)
        if code != 0:
            self.count_failed([f"{self.workload}: CLI exited {code}"], expected)
            return {}
        runs = gate.store_objectives(root / "results")
        objectives = {r: o for r, (_, o) in runs.items()}
        problems = gate.status_problems(runs, expected) + gate.objective_problems(objectives, self.reference)
        manifest = root / "report" / "manifest.json"
        tables = [t["name"] for t in json.loads(manifest.read_text())["tables"]] if manifest.is_file() else []
        problems += [f"report table {t} missing" for t in REPORT_TABLES if t not in tables]
        self.count_failed(problems, expected)
        return objectives

    def check_digests(self, digests: dict[str, str], what: str, units: int) -> None:
        problems = gate.digest_problems(digests, what)
        if problems:
            first = next(iter(digests.values()))
            self.failed += units * sum(1 for d in digests.values() if d != first)
        self.problems += problems

    # -- end to end --------------------------------------------------------

    def end_to_end(self) -> dict:
        root = self.project()
        expected = _run_ids(root)
        command = self.run_command(root)
        # Set-up probes run between the repetitions, so that they sample the
        # same stretch of machine time as the command does.
        probe = [sys.executable, str(HERE / "child.py"), "setup", str(root), str(self.work / "setup.json")]
        setups: list[float] = []
        walls: list[float] = []
        rss: list[float] = []
        digests: dict[str, str] = {}
        started = time.perf_counter()
        while len(walls) < MIN_REPS or time.perf_counter() - started + walls[-1] <= self.seconds:
            if walls and walls[-1] * 1.2 > self.runner.remaining():
                break
            setups.append(self.runner.check(probe)[0])
            shutil.rmtree(root / "results", ignore_errors=True)
            shutil.rmtree(root / "report", ignore_errors=True)
            code, wall, peak, _ = self.runner.run(command)
            walls.append(wall)
            rss.append(peak)
            self.check_cli(root, code, expected)
            if code == 0:
                digests[f"rep{len(walls)}"] = gate.tree_digest(root / "results") + gate.tree_digest(root / "report")
        while len(setups) < SETUP_REPS:
            setups.append(self.runner.check(probe)[0])
        self.check_digests(digests, "stores and report across repetitions", len(expected))
        self.extra = {"walls_s": walls, "setups_s": setups, "peak_rss_mb": rss, "reps": len(walls)}
        return {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        }

    # -- traced ------------------------------------------------------------

    def traced(self) -> dict:
        root = self.project()
        expected = _run_ids(root)
        started = time.perf_counter()
        record = self.child("traced", root)
        total = time.perf_counter() - started
        counts = record["counts"]
        tree = list(record["spans"])
        root_span = {"id": len(tree), "name": "trace.total", "start": started, "end": started + total,
                     "parent": None, "trace": "main"}
        for s in tree:
            if s["parent"] is None:
                s["parent"] = root_span["id"]
        tree.append(root_span)
        selfs = spans.self_times(tree)
        named = spans.by_name(tree, selfs)
        m = {name: 0.0 for name in PER_LAYER}
        for metric in ("cli.import", "project.load", "model.build", "solver.compile", "solver.solve",
                       "solver.certify", "scenarios.expand", "store.extract", "store.write", "store.read",
                       "symbols.lookup", "reports.report"):
            m[metric + "_s"] = named.get(metric, 0.0)
        m.update({
            "model.rows": float(counts["rows"]),
            "model.cols": float(counts["cols"]),
            "model.nnz": float(counts["nnz"]),
            "solver.iterations": float(counts["iterations"]),
            "solver.solve_p50_s": statistics.median(counts["solve_times"]),
            "solver.cert_residual_max": max((max(r) for r in counts["residuals"].values()), default=0.0),
            "scenarios.deltas": float(counts["deltas"]),
            "symbols.records": float(counts["records"]),
            "store.csv_mb": _tree_mb(root / "results", ".csv"),
            "store.npz_mb": _tree_mb(root / "results", ".npz"),
            "trace.unattributed_s": selfs[root_span["id"]],
        })

        objectives = counts["objectives"]
        self.attempted += len(expected)
        uncertified = [r for r in expected if max(counts["residuals"].get(r, [float("inf")])) > gate.RTOL]
        problems = gate.size_problems(counts["rows"], counts["cols"], counts["count_rows"], counts["count_columns"])
        problems += [f"run {r}: certificate fails at {gate.RTOL}" for r in uncertified]
        problems += gate.objective_problems(objectives, self.reference)
        problems += [f"traced report: table {t} missing" for t in REPORT_TABLES if t not in counts.get("tables", ())]
        self.count_failed(problems, expected)

        # The traced run solves the rows one after another on one instance,
        # so its untraced twin for sweep_wide is the single_instance mode.
        shutil.rmtree(root / "results")
        shutil.rmtree(root / "report", ignore_errors=True)
        if self.workload == "sweep_wide":
            command = self.cli(root, "--mode", "single_instance")
        else:
            command = self.run_command(root)
        code, wall, _, _ = self.runner.run(command)
        cli_objectives = self.check_cli(root, code, expected)
        if code == 0:
            self.problems += gate.agreement_problems(objectives, cli_objectives, "traced vs CLI objectives")
        if self.workload == "sweep_wide" and code == 0:
            single = gate.tree_digest(root / "results")
            shutil.rmtree(root / "results")
            par = self.child("parallel", root)
            m["scenarios.parallel_eff"] = par["busy"] / (par["workers"] * par["wall"])
            m["scenarios.result_mb"] = par["result_bytes"] / MB
            self.check_digests({"single_instance": single, "parallel": gate.tree_digest(root / "results")},
                               "stores of single_instance and parallel", len(expected))
            self.problems += gate.agreement_problems(objectives, par["objectives"], "traced vs parallel objectives")
        m["trace.overhead_s"] = total - wall
        m["failed_share"] = self.failed / self.attempted
        self.extra = {
            "traced_total_s": total,
            "untraced_wall_s": wall,
            "layer_self_s": spans.by_layer(tree, selfs),
            "span_self_s": named,
            "spans": tree,
        }
        return m


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=50, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _terminate(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    checkout = Path.cwd()
    if not (checkout / "src" / "voltaic" / "__init__.py").is_file():
        print(f"error: {checkout} holds no src/voltaic; run from the root of a voltaic checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    state = checkout / ".perfbench_work"
    work = state / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(checkout, work, args)
    try:
        values = bench.traced() if args.trace else bench.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work / "project", ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }
    info = machine()
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "problems": bench.problems, "machine": info, "detail": bench.extra}
    results_dir = state / "results"
    results_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} on {info['cpu']} "
          f"(nproc {info['nproc']}), python {info['python']}, numpy {info['numpy']}, "
          f"scipy {info['scipy']}, HiGHS {info['highs']}")
    for problem in bench.problems:
        print(f"# FAILED CHECK: {problem}")
    if args.trace:
        for layer, value in sorted(bench.extra["layer_self_s"].items()):
            print(f"# self time  {layer:<12s} {value:10.4f} s")
    for name, metric in metrics.items():
        print(f"{name:<26s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"# record: {path.relative_to(checkout)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

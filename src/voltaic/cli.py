"""Command-line entry point.

Verbs: ``create_project`` scaffolds a new project from a template, ``run``
executes the configured scenario set, ``report`` rebuilds the report tables
from existing stores, and ``validate`` runs all load-time checks and plans
every scenario row, without solving.

Exit codes: 0 success, 1 validation failure, 2 a run that is not optimal
or a scenario row that cannot run, 3 I/O failure. Diagnostics go to
stderr, summaries to stdout. ``VOLTAIC_THREADS`` provides a default worker
count when ``--threads`` is not given; command-line overrides always win
over project settings.
"""

from __future__ import annotations

import argparse
import os
import sys

from .pipeline import report_project, run_project, validate_project
from .sweep import MODES
from .system import ValidationError
from .templates import TEMPLATES, create_project

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVE = 2
EXIT_IO = 3


def _default_threads() -> int | None:
    """VOLTAIC_THREADS as an int; None if it is unset or not an integer (``run`` warns of that)."""
    try:
        return int(os.environ["VOLTAIC_THREADS"])
    except (KeyError, ValueError):
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voltaic",
        description="Power sector dispatch and investment optimization with scenario sweeps.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    create = sub.add_parser("create_project", help="scaffold a new project directory")
    create.add_argument("-n", "--name", required=True, help="project directory name")
    create.add_argument(
        "-t",
        "--template",
        default="minimal",
        help=f"project template ({', '.join(sorted(TEMPLATES))}); default: minimal",
    )
    create.add_argument("--path", default=".", help="parent directory (default: current)")

    run = sub.add_parser("run", help="run the configured scenario set", epilog=(
        "exit status: 0 if every run is optimal, 1 if the project does not validate, 2 if a run is not optimal "
        "or a scenario row cannot run (a bad cell, an unknown series, a country set that does not build), 3 on "
        "an I/O failure"))
    run.add_argument("root", nargs="?", default=".", help="project root (default: current)")
    run.add_argument(
        "--mode",
        choices=MODES,
        help="override the solve mode from project_variables.csv",
    )
    run.add_argument(
        "--threads",
        type=int,
        default=_default_threads(),
        help="override worker count (0 = all cores); beats project settings and VOLTAIC_THREADS",
    )

    report = sub.add_parser("report", help="write report tables from existing stores")
    report.add_argument("root", nargs="?", default=".", help="project root (default: current)")

    validate = sub.add_parser("validate", help="run load-time checks and plan every row, without solving")
    validate.add_argument("root", nargs="?", default=".", help="project root (default: current)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "create_project":
            root = create_project(args.name, args.template, args.path)
            print(f"created project {root}")
            return EXIT_OK

        if args.verb == "run":
            if args.threads is None and "VOLTAIC_THREADS" in os.environ:
                print(f"warning: ignoring non-integer VOLTAIC_THREADS={os.environ['VOLTAIC_THREADS']!r}",
                      file=sys.stderr)
            summary = run_project(args.root, mode=args.mode, threads=args.threads)
            for result in summary.results:
                objective = "-" if result.objective is None else f"{result.objective:.6f}"
                print(
                    f"{result.run_id}  status={result.status}  objective={objective}  "
                    f"wall={result.wall_time:.3f}s"
                )
            if not summary.all_optimal:
                failed = [r.run_id for r in summary.results if r.status != "optimal"]
                print(f"error: runs without optimal solution: {', '.join(failed)}", file=sys.stderr)
                for r in summary.results:
                    if r.error:
                        print(f"error: {r.run_id}: {r.error}", file=sys.stderr)
                return EXIT_SOLVE
            return EXIT_OK

        if args.verb == "report":
            manifest = report_project(args.root)
            for table in manifest["tables"]:
                print(f"wrote report/{table['name']}")
            return EXIT_OK

        if args.verb == "validate":
            project = validate_project(args.root)
            print(
                f"ok: {len(project.data.nodes)} nodes, {len(project.data.technologies)} "
                f"technologies, {len(project.specs)} runs, end_hour={project.config.end_hour}"
            )
            return EXIT_OK
    except ValidationError as exc:
        for issue in exc.issues:
            print(f"error: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

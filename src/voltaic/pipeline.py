"""End-to-end project execution: load, build, sweep, extract, write, report."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .project import Project, load_project
from .reports import PartialReport, clear_report, merge_report, partial_report
from .scenarios import RunResult, _plan, _row_issue, _run_and_finish
from .store import CSV_FORMAT, NPZ_FORMAT, extract_symbols, read_run, write_store
from .system import ValidationError


@dataclass
class RunSummary:
    results: list[RunResult]
    store_dirs: list[Path]

    @property
    def all_optimal(self) -> bool:
        return all(r.status == "optimal" for r in self.results)


def pick_mode(project: Project, override: str | None = None) -> str:
    if override:
        return override
    config = project.config
    if config.guss and config.guss_parallel:
        return "parallel"
    if config.guss:
        return "single_instance"
    return "rebuild"


def run_project(
    root: Path | str,
    mode: str | None = None,
    threads: int | None = None,
) -> RunSummary:
    """Run a project's configured scenario set and write the result stores.

    ``mode`` and ``threads`` override the project settings when given.
    Existing stores for the same run ids are overwritten; results land under
    ``<root>/results/<run_id>/``. Each row's store is extracted and written,
    and the row's share of the report made from it, by the process that
    solved the row (a worker in ``parallel`` mode), which hands back that
    share with the result and drops the store; a row that cannot run (see
    :func:`~voltaic.scenarios.run_scenarios`), or whose worker died, is
    finished here, as an error. This process only merges the shares: the
    report covers the runs of this call only, in run-id order, and equals
    what :func:`report_project` makes from their stores on disk.
    If a run is not optimal there is no report, and the tables and manifest
    an earlier call left in ``<root>/report`` are removed.
    """
    project = load_project(root)
    config = project.config
    finish = partial(
        _finish_row,
        reporting=project.reporting,
        config_echo=project.config_echo,
        results_dir=project.layout.results,
        formats=(CSV_FORMAT, NPZ_FORMAT) if config.write_npz else (CSV_FORMAT,),
        report=config.report_data,
    )
    rows = _run_and_finish(
        specs=project.specs,
        mode=pick_mode(project, mode),
        threads=config.guss_parallel_threads if threads is None else threads,
        finish=finish,
        **_sweep_inputs(project),
    )
    results = [result for result, _ in rows]
    summary = RunSummary(results, [project.layout.results / r.run_id for r in results])
    if config.report_data and summary.all_optimal:
        merge_report(sorted((part for _, part in rows), key=lambda part: part.run_id), project.layout.report)
    elif config.report_data:
        clear_report(project.layout.report)
    return summary


def _sweep_inputs(project: Project) -> dict:
    """What a sweep over ``project``'s rows is planned from: the system,
    its constraint blocks (None: the defaults) and, in dispatch-only runs,
    the fixed capacities."""
    config = project.config
    return dict(data=project.data, config=config, features=project.features,
                constraint_blocks=project.constraint_blocks or None,
                fixed_capacities=project.fixed_capacities if config.dispatch_only else None)


def _finish_row(
    result: RunResult, reporting, config_echo, results_dir, formats, report: bool = True
) -> PartialReport | None:
    """Extract one row's symbols and write its store; returns the row's
    share of the report if ``report``."""
    [store] = extract_symbols([result], reporting, config_echo=config_echo)
    write_store(store, results_dir, formats)
    return partial_report(store) if report else None


def report_project(root: Path | str) -> dict:
    """Build the standard report from every store under ``<root>/results``,
    reading one store at a time (its ``store.npz`` if it has one of this
    version's layout, else its CSVs) and keeping only its share of the
    report."""
    root = Path(root)
    results_dir = root / "results"
    if not results_dir.is_dir() or not any(results_dir.iterdir()):
        raise ValidationError(f"{results_dir}: no result stores found (run the project first)")
    parts = [partial_report(read_run(run_dir)) for run_dir in sorted(p for p in results_dir.iterdir() if p.is_dir())]
    return merge_report(parts, root / "report")


def validate_project(root: Path | str) -> Project:
    """Load the project, then plan its sweep with no solve (see
    :func:`~voltaic.scenarios.run_scenarios`): each country set is built
    once, and each row expanded and applied against it. Raises
    :class:`ValidationError` naming every load issue, followed by every
    row's issue (see :func:`~voltaic.project.load_project`), or, if the
    project loads, every row that cannot run, in table order."""
    project = load_project(root)
    sweep = _plan(project.specs, warm=False, **_sweep_inputs(project))
    issues = [_row_issue(spec.run_id, d) for spec, d in zip(sweep.specs, sweep.deltas) if isinstance(d, str)]
    if issues:
        raise ValidationError(issues)
    return project

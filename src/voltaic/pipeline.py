"""End-to-end project execution: load, build, sweep, extract, write, report."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

from .project import Project, load_project
from .reports import standard_report
from .scenarios import RunResult, _run_and_finish
from .store import CSV_FORMAT, NPZ_FORMAT, SymbolStore, extract_symbols, read_all_stores, write_store
from .symbols import SymbolsHandler
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
    backend: str = "highs",
) -> RunSummary:
    """Run a project's configured scenario set and write the result stores.

    ``mode`` and ``threads`` override the project settings when given.
    Existing stores for the same run ids are overwritten; results land under
    ``<root>/results/<run_id>/``. Each row's store is extracted and written
    by the process that solved the row (a worker in ``parallel`` mode),
    which hands the store back with the result. The report covers the runs
    of this call only, in run-id order, and is made from those stores in
    memory: it equals what :func:`report_project` makes from them on disk.
    """
    project = load_project(root)
    config = project.config
    finish = partial(
        _finish_row,
        reporting=project.reporting,
        threads=config.gdx_convert_parallel_threads,
        config_echo=project.config_echo,
        results_dir=project.layout.results,
        formats=(CSV_FORMAT, NPZ_FORMAT) if config.write_npz else (CSV_FORMAT,),
    )
    rows = _run_and_finish(
        project.data,
        config,
        project.features,
        project.specs,
        mode=pick_mode(project, mode),
        threads=config.guss_parallel_threads if threads is None else threads,
        constraint_blocks=project.constraint_blocks or None,
        backend=backend,
        fixed_capacities=project.fixed_capacities if config.dispatch_only else None,
        finish=finish,
    )
    stores = [store for _, store in rows]
    summary = RunSummary([result for result, _ in rows], [project.layout.results / s.run_id for s in stores])
    if config.report_data and summary.all_optimal:
        stores = sorted(stores, key=lambda store: store.run_id)
        standard_report(SymbolsHandler(stores), project.layout.report)
    return summary


def _finish_row(result: RunResult, reporting, threads, config_echo, results_dir, formats) -> SymbolStore:
    """Extract one row's symbols and write its store; returns the store."""
    [store] = extract_symbols([result], reporting, threads=threads, config_echo=config_echo)
    write_store(store, results_dir, formats)
    return store


def report_project(root: Path | str) -> dict:
    """Build the standard report from every store under ``<root>/results``."""
    root = Path(root)
    results_dir = root / "results"
    if not results_dir.is_dir() or not any(results_dir.iterdir()):
        raise ValidationError(f"{results_dir}: no result stores found (run the project first)")
    handler = SymbolsHandler(read_all_stores(results_dir))
    return standard_report(handler, root / "report")


def validate_project(root: Path | str) -> Project:
    """Load-time checks only; raises :class:`ValidationError` on any issue."""
    return load_project(root)

"""Work the benchmark runs in fresh interpreters, one verb per process.

``setup``    import voltaic and make the workload's set-up calls,
             ``load_project``, ``build_model`` and ``compile``. The parent
             times the whole process.
``traced``   the workload's CLI work as timed calls into each module's
             public functions, one span per call; the spans and counts go
             to OUT_JSON when the work is done.
``parallel`` the sweep through ``run_scenarios`` in parallel mode with two
             workers, then extraction and writing as the pipeline does it;
             records what the workers ship back and how busy they were.

Usage: python3 perfbench/child.py VERB PROJECT_ROOT OUT_JSON
"""

from __future__ import annotations

import json
import pickle
import sys
import time
from pathlib import Path

from run import WORKERS
from spans import Tracer


def setup(root: Path) -> dict:
    from voltaic import build_model, compile
    from voltaic.project import load_project

    project = load_project(root)
    compile(build_model(project.data, project.config, project.features))
    return {}


def _echo(spec) -> tuple[tuple[str, str], ...]:
    """The override echo a run's store carries, from the public spec fields."""
    echo = [(ref.render(), str(value)) for ref, value in spec.overrides]
    if spec.country_set is not None:
        echo.append(("country_set", ",".join(spec.country_set)))
    echo.extend(sorted(spec.constraint_choices.items()))
    return tuple(echo)


def _report(tracer: Tracer, root: Path, counts: dict) -> None:
    """Read the stores back and write the standard report, as ``run`` does."""
    from voltaic.reports import standard_report
    from voltaic.store import read_all_stores
    from voltaic.symbols import SymbolsHandler

    class TracedHandler(SymbolsHandler):
        def lookup(self, name):
            with tracer.span("symbols.lookup"):
                symbol = super().lookup(name)
            counts["records"] += len(symbol)
            return symbol

    with tracer.span("store.read"):
        stores = read_all_stores(root / "results")
    with tracer.span("symbols.handler"):
        handler = TracedHandler(stores)
    with tracer.span("reports.report"):
        manifest = standard_report(handler, root / "report")
    counts["tables"] = [t["name"] for t in manifest["tables"]]


def traced(root: Path) -> dict:
    tracer = Tracer()
    counts: dict = {"records": 0}
    with tracer.span("cli.import"):
        import voltaic.cli  # noqa: F401 - the import the CLI pays for
        from voltaic import RunResult, build_model, certify, compile, expand_overrides, extract_symbols, write_store
        from voltaic.model import count_columns, count_rows
        from voltaic.project import load_project
        from voltaic.store import CSV_FORMAT, NPZ_FORMAT

    with tracer.span("project.load"):
        project = load_project(root)
    data, config = project.data, project.config
    with tracer.span("model.build"):
        lp = build_model(data, config, project.features)
    with tracer.span("solver.compile"):
        inst = compile(lp)
    res = [t for t in data.technologies if t.kind == "variable_renewable"]
    counts.update(
        rows=lp.n_rows,
        cols=lp.n_cols,
        nnz=int(len(lp.a_vals)),
        count_rows=count_rows(
            len(data.nodes), len(data.technologies) - len(res), len(res), len(data.storages),
            len(data.lines), config.end_hour,
            sum(1 for n in data.nodes if n.min_renewable_share > 0), sum(1 for n in data.nodes if n.co2_cap is not None),
        ),
        count_columns=count_columns(
            len(data.nodes), len(data.technologies), len(res), len(data.storages), len(data.lines),
            config.end_hour, config.infeasibility,
        ),
        deltas=0,
        iterations=0,
        solve_times=[],
        residuals={},
        objectives={},
    )

    results = []
    for spec in project.specs:
        with tracer.span("scenarios.row", trace=spec.run_id):
            started = time.perf_counter()
            inst.reset()
            with tracer.span("scenarios.expand"):
                deltas = expand_overrides(spec, inst.lp, data, config, project.constraint_blocks or None)
            with tracer.span("solver.solve") as solve_span:
                solution = inst.update_and_resolve(deltas)
            counts["deltas"] += len(deltas)
            counts["iterations"] += solution.stats.iterations
            counts["solve_times"].append(solve_span["end"] - solve_span["start"])
            counts["objectives"][spec.run_id] = solution.objective
            if solution.is_optimal:
                with tracer.span("solver.certify"):
                    cert = certify(inst.lp, solution)
                counts["residuals"][spec.run_id] = [
                    cert.primal_residual, cert.bound_residual, cert.duality_gap, cert.complementarity
                ]
            results.append(
                RunResult(spec.run_id, solution, _echo(spec), lp=inst.snapshot(),
                          wall_time=time.perf_counter() - started)
            )

    with tracer.span("store.extract"):
        stores = extract_symbols(
            results, project.reporting, threads=config.gdx_convert_parallel_threads,
            config_echo=project.config_echo,
        )
    formats = (CSV_FORMAT, NPZ_FORMAT) if config.write_npz else (CSV_FORMAT,)
    with tracer.span("store.write"):
        for store in stores:
            write_store(store, root / "results", formats)
    if config.report_data and all(r.status == "optimal" for r in results):
        _report(tracer, root, counts)
    return {"spans": tracer.spans, "counts": counts}


def parallel(root: Path) -> dict:
    from voltaic import extract_symbols, run_scenarios, write_store
    from voltaic.project import load_project
    from voltaic.store import CSV_FORMAT, NPZ_FORMAT

    project = load_project(root)
    config = project.config
    started = time.perf_counter()
    results = run_scenarios(
        project.data, config, project.features, project.specs, mode="parallel", threads=WORKERS,
        constraint_blocks=project.constraint_blocks or None,
    )
    wall = time.perf_counter() - started
    shipped = sum(len(pickle.dumps(r, protocol=pickle.HIGHEST_PROTOCOL)) for r in results)
    stores = extract_symbols(
        results, project.reporting, threads=config.gdx_convert_parallel_threads,
        config_echo=project.config_echo,
    )
    formats = (CSV_FORMAT, NPZ_FORMAT) if config.write_npz else (CSV_FORMAT,)
    for store in stores:
        write_store(store, root / "results", formats)
    return {
        "workers": WORKERS,
        "wall": wall,
        "busy": sum(r.wall_time for r in results),
        "result_bytes": shipped,
        "objectives": {r.run_id: r.objective for r in results},
    }


VERBS = {"setup": setup, "traced": traced, "parallel": parallel}

if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in VERBS:
        sys.exit(f"usage: child.py {{{','.join(VERBS)}}} PROJECT_ROOT OUT_JSON")
    verb, root, out = sys.argv[1:]
    Path(out).write_text(json.dumps(VERBS[verb](Path(root))))

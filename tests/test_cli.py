import json
import os
import re

import pytest

from conftest import run_python
from voltaic.cli import main
from voltaic.store import read_store
from voltaic.templates import create_project


def run_cli(*argv):
    return main(list(argv))


class TestCreateProject:
    def test_creates_layout(self, tmp_path, capsys):
        assert run_cli("create_project", "-n", "demo", "--path", str(tmp_path)) == 0
        root = tmp_path / "demo"
        for rel in (
            "settings/project_variables.csv",
            "settings/features_node_selection.csv",
            "settings/reporting_symbols.csv",
            "settings/constraints_list.csv",
            "data_input/static_input/nodes.csv",
            "data_input/timeseries_input/series.csv",
            "iterationfiles/iteration_table.csv",
            "model/formulation.md",
        ):
            assert (root / rel).exists(), rel
        assert "created" in capsys.readouterr().out

    def test_default_template_is_minimal(self, tmp_path):
        run_cli("create_project", "-n", "demo", "--path", str(tmp_path))
        table = (tmp_path / "demo" / "iterationfiles" / "iteration_table.csv").read_text()
        assert table.splitlines()[1] == "base"

    def test_example1_carries_cost_sweep(self, tmp_path):
        run_cli("create_project", "-n", "demo", "-t", "example1", "--path", str(tmp_path))
        table = (tmp_path / "demo" / "iterationfiles" / "iteration_table.csv").read_text()
        assert "S0,20029,15021" in table
        assert "S2,5007,3755" in table

    def test_existing_directory_refused(self, tmp_path, capsys):
        (tmp_path / "demo").mkdir()
        code = run_cli("create_project", "-n", "demo", "--path", str(tmp_path))
        assert code == 3
        assert "exists" in capsys.readouterr().err

    def test_unknown_template_refused(self, tmp_path, capsys):
        code = run_cli("create_project", "-n", "demo", "-t", "bogus", "--path", str(tmp_path))
        assert code == 1
        assert "unknown template" in capsys.readouterr().err


class TestRun:
    def test_minimal_run_succeeds(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        assert run_cli("run", str(root)) == 0
        out = capsys.readouterr().out
        assert "base" in out and "optimal" in out
        assert (root / "results" / "base" / "run.meta").exists()
        assert (root / "results" / "base" / "store.npz").exists()
        assert (root / "report" / "capacity.csv").exists()  # report_data = yes

    def test_run_validation_failure_names_file(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        series = root / "data_input" / "timeseries_input" / "series.csv"
        lines = series.read_text().splitlines()
        series.write_text("\n".join(lines[:-5]) + "\n")
        assert run_cli("run", str(root)) == 1
        assert "19 hours" in capsys.readouterr().err

    def test_infeasible_run_exits_two(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        nodes = root / "data_input" / "static_input" / "nodes.csv"
        nodes.write_text(nodes.read_text().replace("load_DE", "load_huge"))
        series = root / "data_input" / "timeseries_input" / "series.csv"
        text = series.read_text().splitlines()
        header = text[0] + ",load_huge"
        rows = [line + ",99000.0" for line in text[1:]]
        series.write_text("\n".join([header, *rows]) + "\n")
        assert run_cli("run", str(root)) == 2
        captured = capsys.readouterr()
        assert "infeasible" in captured.out
        assert "without optimal solution" in captured.err

    def test_project_without_renewables_reports(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        static = root / "data_input" / "static_input"
        for name in ("technologies.csv", "availability.csv"):
            path = static / name
            lines = path.read_text().splitlines()
            path.write_text("\n".join(l for l in lines if not l.startswith("solar")) + "\n")
        assert run_cli("run", str(root)) == 0
        assert (root / "report" / "rldc.csv").exists()
        manifest = json.loads((root / "report" / "manifest.json").read_text())
        assert any("CU" in notice for notice in manifest["notices"])

    def test_mode_and_threads_overrides(self, tmp_path):
        root = create_project("demo", "minimal", tmp_path)
        assert run_cli("run", str(root), "--mode", "rebuild", "--threads", "1") == 0

    def test_worker_count_does_not_change_stores(self, tmp_path):
        def tree(root):
            return {
                str(p.relative_to(root)): p.read_bytes()
                for p in sorted(root.rglob("*"))
                if p.is_file()
            }

        roots = []
        for threads in ("1", "2"):
            root = create_project(f"d{threads}", "example2", tmp_path)
            assert run_cli("run", str(root), "--mode", "parallel", "--threads", threads) == 0
            roots.append(root)
        assert tree(roots[0] / "results") == tree(roots[1] / "results")

    def test_single_instance_and_parallel_write_the_same_trees(self, tmp_path):
        """Nine rows re-solve warm along their tree; in ``parallel`` each
        worker writes the stores of its rows, and nothing may differ."""
        def tree(root):
            return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

        table = "run,min_renewable_share('DE'),min_renewable_share('FR')\n" + "".join(
            f"s{i},{0.50 + 0.02 * i:.2f},{0.40 + 0.01 * i:.2f}\n" for i in range(9)
        )
        trees = []
        for mode, threads in (("single_instance", "0"), ("parallel", "2"), ("parallel", "3")):
            root = create_project(f"{mode}{threads}", "example2", tmp_path)
            variables = root / "settings" / "project_variables.csv"
            variables.write_text(variables.read_text().replace("end_hour,h168", "end_hour,h12"))
            (root / "iterationfiles" / "iteration_table.csv").write_text(table)
            assert run_cli("run", str(root), "--mode", mode, "--threads", threads) == 0
            trees.append({part: tree(root / part) for part in ("results", "report")})
        assert len({path.split("/")[0] for path in trees[0]["results"]}) == 9 and len(trees[0]["report"]) == 6
        assert trees[0] == trees[1] == trees[2]

    def test_rerun_leaves_no_stale_store_or_table(self, tmp_path):
        root = create_project("demo", "example2", tmp_path)
        variables = root / "settings" / "project_variables.csv"
        variables.write_text(variables.read_text().replace("end_hour,h168", "end_hour,h12"))
        assert run_cli("run", str(root)) == 0
        assert (root / "results" / "share50" / "G.csv").exists() and (root / "report" / "rldc.csv").exists()
        reporting = root / "settings" / "reporting_symbols.csv"
        reporting.write_text("".join(line + "\n" for line in reporting.read_text().splitlines() if line != "G,level"))
        variables.write_text(variables.read_text().replace("gdx_convert_to_pickle,yes", "gdx_convert_to_pickle,no"))
        assert run_cli("run", str(root)) == 0
        symbols = sorted(f"{line.split(',')[0]}.csv" for line in reporting.read_text().splitlines()[1:])
        for run_dir in (root / "results").iterdir():
            assert sorted(p.name for p in run_dir.iterdir()) == sorted([*symbols, "run.meta"])
        run_report = {p.name: p.read_bytes() for p in (root / "report").iterdir()}
        assert "generation.csv" not in run_report and "rldc.csv" not in run_report
        assert run_cli("report", str(root)) == 0
        assert {p.name: p.read_bytes() for p in (root / "report").iterdir()} == run_report

    def test_report_covers_only_this_run(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        assert run_cli("run", str(root)) == 0
        rewrite = root / "settings" / "project_variables.csv"
        rewrite.write_text(rewrite.read_text().replace("scenarios_iteration,no", "scenarios_iteration,yes"))
        (root / "iterationfiles" / "iteration_table.csv").write_text("run\nX0\n")
        capsys.readouterr()
        assert run_cli("run", str(root)) == 0
        assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == ["X0"]
        assert sorted(p.name for p in (root / "results").iterdir()) == ["X0", "base"]
        summary = (root / "report" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["X0"]
        assert run_cli("report", str(root)) == 0
        summary = (root / "report" / "summary.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in summary[1:]] == ["X0", "base"]

    def test_failed_run_leaves_no_earlier_report(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        assert run_cli("run", str(root)) == 0
        report = root / "report"
        assert (report / "summary.csv").exists() and (report / "manifest.json").exists()
        rewrite = root / "settings" / "project_variables.csv"
        rewrite.write_text(rewrite.read_text().replace("scenarios_iteration,no", "scenarios_iteration,yes"))
        (root / "iterationfiles" / "iteration_table.csv").write_text("run,country_set\nbase,ZZ\n")
        capsys.readouterr()
        assert run_cli("run", str(root)) == 2
        assert "ZZ" in capsys.readouterr().err
        assert sorted(p.name for p in report.iterdir()) == []

    def test_a_crashed_worker_fails_only_its_row(self, tmp_path, monkeypatch, capsys):
        from voltaic import pipeline

        root = create_project("demo", "example2", tmp_path)
        variables = root / "settings" / "project_variables.csv"
        variables.write_text(variables.read_text().replace("end_hour,h168", "end_hour,h12"))
        table = "run,min_renewable_share('DE'),min_renewable_share('FR')\n" + "".join(
            f"s{i},{0.50 + 0.02 * i:.2f},{0.40 + 0.01 * i:.2f}\n" for i in range(9)
        )
        (root / "iterationfiles" / "iteration_table.csv").write_text(table)
        finish = pipeline._finish_row

        def crashing(result, *args, **kwargs):
            if result.run_id == "s4" and result.error is None:
                os._exit(1)  # the forked worker dies, as on a segfault or a kill
            return finish(result, *args, **kwargs)  # s4's error store is written by the parent

        monkeypatch.setattr(pipeline, "_finish_row", crashing)
        assert run_cli("run", str(root), "--mode", "parallel", "--threads", "2") == 2
        out, err = capsys.readouterr()
        assert "error: s4: the worker process running this row died (exit code 1)" in err
        assert sum("status=optimal" in line for line in out.splitlines()) == 8
        assert sorted(p.name for p in (root / "results").iterdir()) == [f"s{i}" for i in range(9)]
        assert "worker process running this row died" in read_store(root / "results" / "s4").meta["error"]
        assert not (root / "report" / "manifest.json").exists()

    def test_stores_and_report_hold_no_negative_zero(self, tmp_path):
        root = create_project("demo", "example1", tmp_path)
        assert run_cli("run", str(root)) == 0
        negative_zero = re.compile(r"(^|,)-0(\.0*)?(,|$)", re.M)
        paths = sorted((root / "results").rglob("*.csv")) + sorted((root / "report").glob("*.csv"))
        assert len(paths) > 30
        offending = [str(p.relative_to(root)) for p in paths if negative_zero.search(p.read_text())]
        assert offending == []

    def test_threads_default_from_environment(self, tmp_path, monkeypatch):
        from voltaic import cli

        monkeypatch.setenv("VOLTAIC_THREADS", "1")
        parser = cli.build_parser()
        args = parser.parse_args(["run", str(tmp_path)])
        assert args.threads == 1
        monkeypatch.setenv("VOLTAIC_THREADS", "many")
        assert cli._default_threads() is None

    def test_negative_threads_rejected(self, tmp_path, monkeypatch, capsys):
        root = create_project("demo", "minimal", tmp_path)
        assert run_cli("run", str(root), "--threads", "-1") == 1
        assert "threads must be 0 (all cores) or more, got -1" in capsys.readouterr().err
        monkeypatch.setenv("VOLTAIC_THREADS", "-1")
        assert run_cli("run", str(root)) == 1
        assert "got -1" in capsys.readouterr().err
        assert not (root / "results").exists()
        assert run_cli("run", str(root), "--threads", "0") == 0


class TestReport:
    def test_report_before_run_fails(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        assert run_cli("report", str(root)) == 1
        assert "no result stores" in capsys.readouterr().err

    def test_report_after_run(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        run_cli("run", str(root))
        capsys.readouterr()
        assert run_cli("report", str(root)) == 0
        assert "capacity.csv" in capsys.readouterr().out


class TestValidate:
    def test_ok_project(self, tmp_path, capsys):
        root = create_project("demo", "example2", tmp_path)
        assert run_cli("validate", str(root)) == 0
        out = capsys.readouterr().out
        assert "2 nodes" in out and "4 runs" in out

    def test_non_numeric_slack_penalty(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        settings = root / "settings" / "project_variables.csv"
        settings.write_text(settings.read_text() + "slack_penalty,abc\n")
        assert run_cli("validate", str(root)) == 1
        assert "project_variables:slack_penalty: expected a number, got 'abc'" in capsys.readouterr().err

    def test_nan_static_cell_names_object_and_field(self, tmp_path, capsys):
        root = create_project("demo", "minimal", tmp_path)
        techs = root / "data_input" / "static_input" / "technologies.csv"
        techs.write_text(techs.read_text().replace("gas,dispatchable,42000.0,12000.0,70.0,", "gas,dispatchable,42000.0,12000.0,nan,"))
        assert run_cli("validate", str(root)) == 1
        assert "technology gas: c_var must be finite and >= 0, got nan" in capsys.readouterr().err

    def test_nan_override_names_run_and_column(self, tmp_path, capsys):
        root = create_project("demo", "example1", tmp_path)
        table = root / "iterationfiles" / "iteration_table.csv"
        table.write_text(table.read_text().replace("S1,10014,", "S1,nan,"))
        assert run_cli("validate", str(root)) == 1
        assert "run S1: value nan for column \"c_i_sto_e(n,'Li-ion')\"" in capsys.readouterr().err

    def test_not_a_project(self, tmp_path, capsys):
        assert run_cli("validate", str(tmp_path)) == 1
        assert "missing file" in capsys.readouterr().err


# A whole CLI session in one fresh interpreter: validate, run an example1
# project at 6 h in one process and on two workers, and report it.
_SESSION = """
import json, shutil, sys
from pathlib import Path

import voltaic
import voltaic.cli
from voltaic.cli import main
from voltaic.templates import create_project

root = create_project("demo", "example1", sys.argv[1])
settings = root / "settings" / "project_variables.csv"
text = settings.read_text()
assert "end_hour,h48" in text
settings.write_text(text.replace("end_hour,h48", "end_hour,h6"))
parallel = shutil.copytree(root, Path(sys.argv[1]) / "demo_parallel")
codes = [
    main(["validate", str(root)]),
    main(["run", str(root), "--mode", "single_instance"]),
    main(["run", str(parallel), "--mode", "parallel", "--threads", "2"]),
    main(["report", str(root)]),
]
# The HiGHS binding is registered under its own name, inside scipy.optimize.
core = "scipy.optimize._highspy._core"
binding = sorted(n for n in sys.modules if n == core or n.startswith(core + "."))
loaded = sorted(n for n in sys.modules if n.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"])
                and n not in binding)
print(json.dumps({"codes": codes, "binding": core in binding, "loaded": loaded}, separators=(",", ":")))
"""


class TestImportFootprint:
    def test_cli_session_loads_neither_scipy_optimize_nor_sparse(self, tmp_path):
        # Without the bundled HiGHS object every solve imports linprog.
        pytest.importorskip("scipy.optimize._highspy._core")
        result = json.loads(run_python(_SESSION, str(tmp_path))[-1])
        assert result == {"codes": [0, 0, 0, 0], "binding": True, "loaded": []}

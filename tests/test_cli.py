import json
import os
import re
from pathlib import Path

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

    @pytest.mark.parametrize("mode, threads", [("single_instance", "0"), ("parallel", "2")])
    def test_rerun_leaves_no_stale_store_or_table(self, tmp_path, mode, threads):
        """A re-run without ``G`` and without the binary store removes each
        run's ``G.csv`` and ``store.npz`` and the report tables built from
        ``G``; ``report`` then rewrites ``run``'s report byte for byte."""
        root = create_project("demo", "example2", tmp_path)
        variables = root / "settings" / "project_variables.csv"
        variables.write_text(variables.read_text().replace("end_hour,h168", "end_hour,h12"))
        assert run_cli("run", str(root), "--mode", mode, "--threads", threads) == 0
        assert (root / "results" / "share50" / "store.npz").exists()
        assert (root / "results" / "share50" / "G.csv").exists() and (root / "report" / "rldc.csv").exists()
        reporting = root / "settings" / "reporting_symbols.csv"
        reporting.write_text("".join(line + "\n" for line in reporting.read_text().splitlines() if line != "G,level"))
        variables.write_text(variables.read_text().replace("gdx_convert_to_pickle,yes", "gdx_convert_to_pickle,no"))
        assert run_cli("run", str(root), "--mode", mode, "--threads", threads) == 0
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
        (root / "iterationfiles" / "iteration_table.csv").write_text("run,country_set\nS0,\nSX,ZZ\n")
        capsys.readouterr()
        assert run_cli("run", str(root)) == 2
        out, err = capsys.readouterr()
        assert [line.split()[:2] for line in out.splitlines()] == [["S0", "status=optimal"], ["SX", "status=error"]]
        assert "error: SX: country_set: unknown node 'ZZ'" in err.splitlines()
        assert sorted(p.name for p in report.iterdir()) == []

    def test_help_gives_exit_two_for_a_row_that_cannot_run(self, capsys):
        with pytest.raises(SystemExit):
            run_cli("run", "--help")
        assert "2 if a run is not optimal or a scenario row cannot run" in " ".join(capsys.readouterr().out.split())

    @pytest.mark.parametrize("mode", ["rebuild", "single_instance", "parallel"])
    def test_rows_that_cannot_run_fail_before_any_solve(self, tmp_path, capsys, mode):
        root = create_project("demo", "minimal", tmp_path)
        rewrite = root / "settings" / "project_variables.csv"
        rewrite.write_text(rewrite.read_text().replace("scenarios_iteration,no", "scenarios_iteration,yes"))
        (root / "iterationfiles" / "iteration_table.csv").write_text(
            "run,\"N.lo('gas','DE')\",\"N.up('gas','DE')\",\"d('DE')\",country_set\n"
            "ok,,,,\nE,60,50,,\nX,,,nope,\nZ,,,,ZZ\n"
        )
        assert run_cli("run", str(root), "--mode", mode, "--threads", "2") == 2
        out, err = capsys.readouterr()
        lines = dict(line.split("  ", 1) for line in out.splitlines())
        assert lines["ok"].startswith("status=optimal")
        for run_id in "EXZ":
            assert lines[run_id] == "status=error  objective=-  wall=0.000s"
        assert "error: E: delta produces lo > hi on N(gas,DE): [60.0, 50.0]" in err
        assert "error: X: column \"d('DE')\": demand references unknown series 'nope'" in err
        assert "error: Z: " in err and "ZZ" in err
        for run_id in "EXZ":
            assert read_store(root / "results" / run_id).meta["error"] in err

    def test_rows_that_cannot_run_fail_alone_whatever_the_cause(self, tmp_path, capsys):
        """A value out of its field's domain, a cell that does not read, an
        unknown series and a value beyond the header each fail their own
        row, and the other rows solve."""
        root = _example1_at_24h(tmp_path)
        (root / "iterationfiles" / "iteration_table.csv").write_text(_ROWS_THAT_CANNOT_RUN)
        assert run_cli("run", str(root)) == 2
        out, err = capsys.readouterr()
        assert [line.split()[:2] for line in out.splitlines()] == [
            ["S0", "status=optimal"], *([f"S{k}", "status=error"] for k in range(1, 5))
        ]
        meta = {run_id: read_store(root / "results" / run_id).meta for run_id in ("S0", "S1", "S2", "S3", "S4")}
        assert meta["S0"]["status"] == "optimal" and meta["S0"].get("error") is None
        errors = [meta[run_id]["error"] for run_id in ("S1", "S2", "S3", "S4")]
        assert errors == [message.split(": ", 2)[2] for message in _ROWS_THAT_CANNOT_RUN_MESSAGES]
        for run_id, error in zip(("S1", "S2", "S3", "S4"), errors):
            assert f"error: {run_id}: {error}" in err.splitlines()

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


def _example1_at_24h(tmp_path, name="demo"):
    root = create_project(name, "example1", tmp_path)
    settings = root / "settings" / "project_variables.csv"
    settings.write_text(settings.read_text().replace("end_hour,h48", "end_hour,h24"))
    return root


# example1 rows at 24 h: a valid one, then one that cannot run for each
# cause: a value out of its field's domain, a cell that does not read, an
# unknown series and a value beyond the header.
_ROWS_THAT_CANNOT_RUN = "run,\"c_var(n,'ocgt')\",d('DE')\nS0,40,\nS1,-40,\nS2,often,\nS3,,nope\nS4,40,,99\n"
_ROWS_THAT_CANNOT_RUN_MESSAGES = [
    "iteration_table: run S1: column \"c_var(n,'ocgt')\": c_var must be finite and >= 0, got -40.0",
    "iteration_table: run S2: column \"c_var(n,'ocgt')\": non-numeric value 'often'",
    "iteration_table: run S3: column \"d('DE')\": demand references unknown series 'nope'",
    "iteration_table: run S4: value '99' in column 4, beyond the 3 columns of the header",
]


class TestValidate:
    def test_ok_project(self, tmp_path, capsys):
        root = create_project("demo", "example2", tmp_path)
        assert run_cli("validate", str(root)) == 0
        out = capsys.readouterr().out
        assert "2 nodes" in out and "4 runs" in out

    def test_ignores_voltaic_threads(self, tmp_path, capsys, monkeypatch):
        """Only ``run`` uses VOLTAIC_THREADS, so only it warns about a bad one."""
        root = create_project("demo", "minimal", tmp_path)
        monkeypatch.setenv("VOLTAIC_THREADS", "many")
        assert run_cli("validate", str(root)) == 0
        assert capsys.readouterr().err == ""
        assert run_cli("run", str(root)) == 0
        assert capsys.readouterr().err == "warning: ignoring non-integer VOLTAIC_THREADS='many'\n"

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
        assert ("error: iteration_table: run S1: column \"c_i_sto_e(n,'Li-ion')\": c_i_sto_e must be finite "
                "and >= 0, got nan") in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize(
        "edits, issue",
        [
            ({"data_input/static_input/nodes.csv": ("DE,", '"D,E",'),
              "data_input/static_input/availability.csv": (",DE,", ',"D,E",'),
              "settings/features_node_selection.csv": (",DE", ',"D,E"')},
             "nodes.csv:2: id 'D,E' holds a comma"),
            ({"data_input/static_input/technologies.csv": ("gas,", '"g,as",')},
             "technologies.csv:2: id 'g,as' holds a comma"),
            ({"data_input/static_input/storage.csv": ("Li-ion,", '"Li,ion",')},
             "storage.csv:2: id 'Li,ion' holds a comma"),
            ({"settings/project_variables.csv": ("scenarios_iteration,no", "scenarios_iteration,yes"),
              "iterationfiles/iteration_table.csv": (None, 'run\n"S,1"\n')},
             "iteration_table: run id 'S,1' holds a comma"),
        ],
        ids=["node", "technology", "storage", "run"],
    )
    def test_id_with_a_comma(self, tmp_path, capsys, edits, issue):
        """The stores and the report write ids as CSV cells, so an id that
        holds a comma would write a store that does not read back."""
        root = create_project("demo", "minimal", tmp_path)
        for name, (old, new) in edits.items():
            path = root / name
            path.write_text(new if old is None else path.read_text().replace(old, new))
        assert run_cli("validate", str(root)) == 1
        assert f"error: {issue}" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize(
        "header, cell, rule",
        [
            ("c_var(n,'ocgt')", "-40", "c_var must be finite and >= 0, got -40.0"),
            ("c_i_sto_e(n,'Li-ion')", "-100", "c_i_sto_e must be finite and >= 0, got -100.0"),
            ("min_renewable_share('DE')", "1.5", "min_renewable_share must be in [0, 1], got 1.5"),
            ("co2_cap('DE')", "-5", "co2_cap must be >= 0, got -5.0"),
        ],
        ids=["c_var", "c_i_sto_e", "min_renewable_share", "co2_cap"],
    )
    def test_override_outside_its_field_domain(self, tmp_path, capsys, header, cell, rule):
        root = _example1_at_24h(tmp_path)
        (root / "iterationfiles" / "iteration_table.csv").write_text(f'run,"{header}"\nS1,{cell}\n')
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: iteration_table: run S1: column {header!r}: {rule}"]

    def test_every_row_that_cannot_run_is_named(self, tmp_path, capsys):
        root = _example1_at_24h(tmp_path)
        (root / "iterationfiles" / "iteration_table.csv").write_text(
            "run,\"c_var(n,'ocgt')\",d('DE'),\"N.up('ocgt','DE')\",country_set\n"
            "S0,,,inf,\nS1,-40,,,\nS2,,nope,,\nS3,,,,DE;XX\nS4,,load_DE,,\n"
        )
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: iteration_table: run S1: column \"c_var(n,'ocgt')\": c_var must be finite and >= 0, got -40.0",
            "error: iteration_table: run S2: column \"d('DE')\": demand references unknown series 'nope'",
            "error: iteration_table: run S3: country_set: unknown node 'XX'",
        ]

    def test_rows_that_cannot_run_are_named_in_table_order(self, tmp_path, capsys):
        root = _example1_at_24h(tmp_path)
        (root / "iterationfiles" / "iteration_table.csv").write_text(_ROWS_THAT_CANNOT_RUN)
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {m}" for m in _ROWS_THAT_CANNOT_RUN_MESSAGES]

    def test_invalid_inputs_are_named(self, tmp_path, capsys):
        """A minimal project with a zero charge efficiency, a repeated node
        row and its series cut to 12 of the 24 hours it runs, then an
        example1 project at 24 h with a negative cost in one row and an
        unknown series in another: ``validate`` exits 1 and names each fault
        once, in its own words."""
        root = create_project("invalid", "minimal", tmp_path)
        static = root / "data_input" / "static_input"
        storage = static / "storage.csv"
        storage.write_text(re.sub(r"^(Li-ion,[^,]*,[^,]*,[^,]*),[^,]*,", r"\1,0,", storage.read_text(), flags=re.M))
        nodes = static / "nodes.csv"
        nodes.write_text(nodes.read_text() + nodes.read_text().splitlines()[-1] + "\n")
        series = root / "data_input" / "timeseries_input" / "series.csv"
        series.write_text("".join(series.read_text().splitlines(keepends=True)[:13]))
        rows = _example1_at_24h(tmp_path, "invalid_rows")
        table = "run,\"c_var(n,'ocgt')\",d('DE')\nS1,-40,\nS2,,nope\n"
        (rows / "iterationfiles" / "iteration_table.csv").write_text(table)
        for project, messages in [
            (root, ["error: storage Li-ion: eta_in must be in (0, 1], got 0.0",
                    "error: node DE: id duplicated",
                    "error: node DE: demand series 'load_DE' has 12 hours, end_hour needs 24",
                    "error: technology solar: availability series 'cf_solar_DE' has 12 hours, end_hour needs 24"]),
            (rows, ["error: iteration_table: run S1: column \"c_var(n,'ocgt')\": c_var must be finite and >= 0, "
                    "got -40.0",
                    "error: iteration_table: run S2: column \"d('DE')\": demand references unknown series 'nope'"]),
        ]:
            assert run_cli("validate", str(project)) == 1
            err = capsys.readouterr().err.splitlines()
            assert [err.count(message) for message in messages] == [1] * len(messages), err

    def test_load_issues_and_rejected_rows_together(self, tmp_path, capsys):
        root = _example1_at_24h(tmp_path)
        techs = root / "data_input" / "static_input" / "technologies.csv"
        techs.write_text(re.sub(r"^(ocgt,dispatchable,[^,]*,[^,]*),[^,]*,", r"\1,-1,", techs.read_text(), flags=re.M))
        (root / "iterationfiles" / "iteration_table.csv").write_text("run,\"c_var(n,'ocgt')\"\nS0,-40\nS1,40\n")
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: technology ocgt: c_var must be finite and >= 0, got -1.0",
            "error: iteration_table: run S0: column \"c_var(n,'ocgt')\": c_var must be finite and >= 0, got -40.0",
        ]

    def test_demand_swap_at_a_node_without_share_target(self, tmp_path, capsys):
        root = _example1_at_24h(tmp_path)
        nodes = root / "data_input" / "static_input" / "nodes.csv"
        nodes.write_text(re.sub(r"^FR,([^,]*),0\.3,", r"FR,\1,0.0,", nodes.read_text(), flags=re.M))
        (root / "iterationfiles" / "iteration_table.csv").write_text("run,d('FR')\nS0,load_DE\n")
        assert run_cli("validate", str(root)) == 0
        capsys.readouterr()
        (root / "iterationfiles" / "iteration_table.csv").write_text("run,min_renewable_share('FR')\nS0,0.5\n")
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: iteration_table: run S0: column \"min_renewable_share('FR')\": the base model has no share row "
            "for node 'FR' (base share is zero)"
        ]

    def test_not_a_project(self, tmp_path, capsys):
        assert run_cli("validate", str(tmp_path)) == 1
        assert "missing file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edits, issues",
        [
            ([(r"^base_year,.*\n", ""), ("^GUSS,yes", "GUSS,maybe"),
              ("^GUSS_parallel_threads,0", "GUSS_parallel_threads,-2")],
             ["project_variables: missing required key 'base_year'",
              "project_variables:GUSS: expected yes/no, got 'maybe'",
              "project_variables:GUSS_parallel_threads: expected an integer >= 0 (0 = all cores), got '-2'"]),
            ([("^end_hour,h24", "end_hour,hx")], ["project_variables:end_hour: expected h<hours>, got 'hx'"]),
            ([(r"\Z", "end_hour,h12\n")], ["project_variables:end_hour: set more than once"]),
            ([("^infeasibility,no", "infeasibility,yes"), (r"\Z", "slack_penalty,inf\n")],
             ["project_variables:slack_penalty: expected a finite number, got 'inf'"]),
        ],
        ids=["three_faults", "end_hour", "repeated_key", "infinite_slack_penalty"],
    )
    def test_settings_issues_stop_the_load(self, tmp_path, capsys, edits, issues):
        """Every issue of a minimal project's settings is named, and nothing
        else: no later file or check runs against a setting that did not read."""
        root = create_project("demo", "minimal", tmp_path)
        settings = root / "settings" / "project_variables.csv"
        text = settings.read_text()
        for pattern, replacement in edits:
            text, found = re.subn(pattern, replacement, text, count=1, flags=re.M)
            assert found, pattern
        settings.write_text(text)
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {issue}" for issue in issues]

    @pytest.mark.parametrize(
        "value, issue",
        [
            ("nan", "fixed_capacities.csv:2: value must be finite and >= 0, got nan"),
            ("-50", "fixed_capacities.csv:2: value must be finite and >= 0, got -50.0"),
            ("", "fixed_capacities.csv:2: column 'value': empty"),
        ],
        ids=["nan", "negative", "empty"],
    )
    def test_fixed_capacity_outside_its_domain(self, tmp_path, capsys, value, issue):
        root = create_project("demo", "minimal", tmp_path)
        settings = root / "settings" / "project_variables.csv"
        settings.write_text(settings.read_text().replace("dispatch_only,no", "dispatch_only,yes"))
        fixed = root / "data_input" / "static_input" / "fixed_capacities.csv"
        fixed.write_text("variable,element,node,value\nN,gas,DE,60\nN,solar,DE,100\n"
                         "N_STO_E,Li-ion,DE,10\nN_STO_P,Li-ion,DE,10\n")
        assert run_cli("validate", str(root)) == 0
        capsys.readouterr()
        fixed.write_text(fixed.read_text().replace("N,gas,DE,60", f"N,gas,DE,{value}"))
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {issue}"]

    @pytest.mark.parametrize(
        "row, issue",
        [
            ("N,nuclear,DE,50", "fixed_capacities.csv:6: unknown technology 'nuclear'"),
            ("N,gas,FR,50", "fixed_capacities.csv:6: unknown node 'FR'"),
            ("N_STO_E,gas,DE,5", "fixed_capacities.csv:6: unknown storage 'gas'"),
            ("NTC,DE-FR,,10", "fixed_capacities.csv:6: unknown line 'DE-FR'"),
        ],
        ids=["technology", "node", "storage", "line"],
    )
    def test_fixed_capacity_of_no_column(self, tmp_path, capsys, row, issue):
        """A row beside a full table whose element is not a record of its
        variable's owner, or whose node is not a node, fixes no column."""
        root = create_project("demo", "minimal", tmp_path)
        settings = root / "settings" / "project_variables.csv"
        settings.write_text(settings.read_text().replace("dispatch_only,no", "dispatch_only,yes"))
        fixed = root / "data_input" / "static_input" / "fixed_capacities.csv"
        fixed.write_text("variable,element,node,value\nN,gas,DE,60\nN,solar,DE,100\n"
                         f"N_STO_E,Li-ion,DE,10\nN_STO_P,Li-ion,DE,10\n{row}\n")
        assert run_cli("validate", str(root)) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {issue}"]

    def test_generated_inputs_are_deterministic(self, tmp_path, capsys):
        """``perfbench/gen.py`` writes through the static-table schema: the
        same workload and seed, written by two interpreters, give the same
        files, and they validate."""
        gen = str(Path(__file__).parents[1] / "perfbench" / "gen.py")
        trees = []
        for name in ("gen_a", "gen_b"):
            run_python("import runpy, sys; sys.argv = sys.argv[1:]; runpy.run_path(sys.argv[0], run_name='__main__')",
                       gen, "sweep_wide", "1", str(tmp_path / name))
            root = tmp_path / name
            trees.append({str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()})
        assert len(trees[0]) > 10 and trees[0] == trees[1]
        assert run_cli("validate", str(tmp_path / "gen_a")) == 0
        assert "32 runs" in capsys.readouterr().out


# A whole CLI session in one fresh interpreter: validate, run an example1
# project at 6 h in one process and on two workers, and report it. Each
# forked worker writes the modules it holds as it exits.
_SESSION = """
import json, os, shutil, sys
from pathlib import Path

import voltaic
import voltaic.cli
from voltaic import engine
from voltaic.cli import main
from voltaic.templates import create_project

worker = engine._worker

def reporting(run, conn):
    worker(run, conn)
    Path(sys.argv[1], f"modules_{os.getpid()}.json").write_text(json.dumps(sorted(sys.modules)))

engine._worker = reporting
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
workers = [json.loads(path.read_text()) for path in Path(sys.argv[1]).glob("modules_*.json")]
modules = set(sys.modules).union(*workers)
# The HiGHS binding is registered under its own name, inside scipy.optimize.
core = "scipy.optimize._highspy._core"
binding = {n for n in modules if n == core or n.startswith(core + ".")}
loaded = sorted(n for n in modules if n.split(".")[:2] in (["scipy", "optimize"], ["scipy", "sparse"])
                and n not in binding)
ma = sorted(n for n in modules if n == "numpy.ma" or n.startswith("numpy.ma."))
print(json.dumps({"codes": codes, "binding": core in sys.modules, "workers": len(workers), "loaded": loaded,
                  "ma": ma}, separators=(",", ":")))
"""


class TestImportFootprint:
    @pytest.fixture(scope="class")
    def session(self, tmp_path_factory):
        return json.loads(run_python(_SESSION, str(tmp_path_factory.mktemp("session")))[-1])

    def test_cli_session_loads_neither_scipy_optimize_nor_sparse(self, session):
        """Neither in the calling process nor in either worker."""
        assert (session["codes"], session["binding"], session["workers"]) == ([0, 0, 0, 0], True, 2)
        assert session["loaded"] == []

    def test_cli_session_loads_no_numpy_ma(self, session):
        # ``np.unique`` imports numpy.ma (15 ms, 1.3 MB under numpy 2.4).
        assert session["codes"] == [0, 0, 0, 0] and session["ma"] == []

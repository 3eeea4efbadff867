"""Tests of the benchmark itself: generator, span accounting, correctness gate.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _span(id, name, start, end, parent=None, trace="main"):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "trace": trace}


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("workload", ["invest_week", "sweep_wide"])
def test_generator_same_seed_same_bytes(tmp_path, workload):
    import gen

    a = gen.generate(workload, 7, tmp_path / "a")
    b = gen.generate(workload, 7, tmp_path / "b")
    c = gen.generate(workload, 8, tmp_path / "c")
    assert gate.tree_digest(a) == gate.tree_digest(b)
    assert gate.tree_digest(a) != gate.tree_digest(c)


def test_generated_project_loads_with_overrides_of_several_kinds(tmp_path):
    import gen
    from voltaic.project import load_project
    from voltaic.scenarios import PARAMETER, TIMESERIES

    project = load_project(gen.generate("sweep_wide", run.DEFAULT_SEED, tmp_path / "p"))
    assert len(project.specs) == 32
    assert project.config.end_hour == 24
    kinds = {(ref.target_kind, ref.name) for spec in project.specs for ref, _ in spec.overrides}
    assert {(PARAMETER, "c_i_sto_e"), (PARAMETER, "c_var"), (TIMESERIES, "d")} <= kinds


# -- spans -------------------------------------------------------------------


def test_self_time_subtracts_covered_child_time():
    tree = [
        _span(0, "trace.total", 0.0, 10.0),
        _span(1, "solver.solve", 1.0, 4.0, parent=0),
        _span(2, "solver.certify", 3.0, 6.0, parent=0),  # overlaps its sibling
        _span(3, "reports.report", 8.0, 12.0, parent=0),  # runs past its parent
        _span(4, "symbols.lookup", 2.0, 3.0, parent=1),
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    layers = spans.by_layer(tree, selfs)
    assert layers == pytest.approx({"trace": 3.0, "solver": 5.0, "reports": 4.0, "symbols": 1.0})


def test_self_times_of_a_nested_trace_add_up_to_its_root():
    tree = [
        _span(0, "trace.total", 0.0, 9.0),
        _span(1, "scenarios.row", 1.0, 8.0, parent=0, trace="r0"),
        _span(2, "scenarios.expand", 1.5, 2.0, parent=1, trace="r0"),
        _span(3, "solver.solve", 2.0, 7.0, parent=1, trace="r0"),
    ]
    assert sum(spans.self_times(tree).values()) == pytest.approx(9.0)


def test_tracer_records_parents_and_inherits_trace_ids():
    tracer = spans.Tracer()
    with tracer.span("project.load"):
        pass
    with tracer.span("scenarios.row", trace="r7"):
        with tracer.span("solver.solve"):
            pass
    load, row, solve = tracer.spans
    assert load["parent"] is None and load["trace"] == "main"
    assert solve["parent"] == row["id"] and solve["trace"] == "r7"
    assert row["start"] <= solve["start"] <= solve["end"] <= row["end"]


# -- gate --------------------------------------------------------------------


def test_gate_rejects_a_perturbed_objective():
    reference = {"r0": 3_799_110.8345453097, "r1": 553_062.111663}
    assert gate.objective_problems(dict(reference), reference) == []
    close = {"r0": reference["r0"] * (1 + 5e-7), "r1": reference["r1"]}
    assert gate.objective_problems(close, reference) == []
    perturbed = {"r0": reference["r0"] * (1 + 2e-6), "r1": reference["r1"]}
    problems = gate.objective_problems(perturbed, reference)
    assert len(problems) == 1 and problems[0].startswith("run r0:")
    assert gate.objective_problems({"r0": reference["r0"]}, reference)
    assert gate.objective_problems({"r0": float("nan")}, None)
    assert gate.agreement_problems(perturbed, reference, "paths")


def test_gate_rejects_a_mismatched_store_digest(tmp_path):
    for name, value in (("a", "1.0"), ("b", "1.0"), ("c", "1.0000001")):
        store = tmp_path / name / "r0"
        store.mkdir(parents=True)
        (store / "N.csv").write_text(f"tech,n,value\nccgt,DE,{value}\n")
    same = {k: gate.tree_digest(tmp_path / k) for k in ("a", "b")}
    assert gate.digest_problems(same, "stores") == []
    mixed = {k: gate.tree_digest(tmp_path / k) for k in ("a", "c")}
    assert gate.digest_problems(mixed, "stores")


def test_gate_checks_status_and_model_size():
    runs = {"r0": ("optimal", 1.0), "r1": ("infeasible", None)}
    assert gate.status_problems(runs, ["r0", "r1"]) == ["run r1: status infeasible"]
    assert gate.status_problems({"r0": ("optimal", 1.0)}, ["r0", "r1"])
    assert gate.size_problems(10, 20, 10, 20) == []
    assert len(gate.size_problems(11, 19, 10, 20)) == 2


# -- contract ----------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_outside_a_checkout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "sweep_wide", "--seed", "1", "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""

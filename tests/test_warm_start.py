"""Warm re-solves on a persistent HiGHS handle: agreement, determinism, fallback."""

import hashlib
import json
import os
import sys
import time
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_sweep_table, two_node_sweep_system
from voltaic import scenarios, solver
from voltaic.model import build_model
from voltaic.scenarios import ScenarioSpec, expand_overrides, parse_iteration_table, run_scenarios
from voltaic.solver import Delta, certify, compile as compile_instance, solve
from voltaic.store import read_store
from voltaic.system import ModelConfig, Node, SystemData, Technology, TimeSeries

_CORE = "scipy.optimize._highspy._core"


def _one_node_system():
    """Gas, peaker and wind on one node over five hours, with a share floor."""
    data = SystemData(
        nodes=(Node("N1", "load", min_renewable_share=0.2),),
        technologies=(
            Technology("gas", "dispatchable", c_inv_power=30_000.0, c_var=40.0, cap_max=80.0),
            Technology("peak", "dispatchable", c_inv_power=5_000.0, c_var=90.0, cap_max=80.0),
            Technology("wind", "variable_renewable", c_inv_power=60_000.0, c_var=0.0, cap_max=200.0,
                       availability={"N1": "cf"}),
        ),
        series={
            "load": TimeSeries("load", (30.0, 45.0, 60.0, 40.0, 35.0)),
            "cf": TimeSeries("cf", (0.2, 0.6, 0.1, 0.9, 0.4)),
        },
    )
    return data, ModelConfig(end_hour=5, network_transfer=False)


def _toys():
    data, config = two_node_sweep_system(hours=8)
    return {"two_node_sweep": (data, replace(config, end_hour=8)), "one_node": _one_node_system()}


_BASES = {name: build_model(*system) for name, system in _toys().items()}


@pytest.fixture(scope="module")
def instances():
    """One compiled instance per toy, shared by every example so the handle persists."""
    return {name: compile_instance(lp) for name, lp in _BASES.items()}


@st.composite
def deltas_for(draw, lp):
    """Random cost, rhs and bound changes against the base program ``lp``."""
    out = []
    for col in draw(st.lists(st.integers(0, lp.n_cols - 1), max_size=6, unique=True)):
        factor = draw(st.floats(0.1, 3.0))  # costs stay non-negative: no unbounded programs
        out.append(Delta("obj", col=col, value=float(lp.obj[col] * factor + draw(st.floats(0, 5)))))
    for row in draw(st.lists(st.integers(0, lp.n_rows - 1), max_size=4, unique=True)):
        base = lp.rhs[row]
        out.append(Delta("rhs", row=row, value=float(base * draw(st.floats(0.5, 1.5)) + draw(st.floats(-2, 2)))))
    for col in draw(st.lists(st.integers(0, lp.n_cols - 1), max_size=4, unique=True)):
        lo = lp.lo[col] if np.isfinite(lp.lo[col]) else -500.0
        top = lp.hi[col] if np.isfinite(lp.hi[col]) else lo + 1000.0
        out.append(Delta("up", col=col, value=float(lo + (top - lo) * draw(st.floats(0.0, 1.0)))))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_warm_cold_and_dense_agree(instances, data):
    name = data.draw(st.sampled_from(sorted(instances)))
    inst = instances[name]
    inst.reset()
    inst.apply(data.draw(deltas_for(inst._base)))
    warm = inst._warm.solve(inst.lp) if inst._warm not in (None, solver._UNOPENED) else None
    got = inst.resolve()
    cold = solve(inst.lp)
    dense = solve(inst.lp, "dense")
    assert got.status == cold.status == dense.status
    if cold.is_optimal:
        assert got.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)
        assert dense.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)
        assert certify(inst.lp, got).ok(1e-6)
    if warm is not None:
        assert warm.is_optimal and certify(inst.lp, warm).ok(1e-6)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)


@pytest.fixture(scope="module")
def sweep():
    data, config = two_node_sweep_system(hours=24)
    config = replace(config, end_hour=24)
    table = random_sweep_table(9, seed=5).splitlines()
    # Availability swaps change matrix cells, the remaining path through the handle.
    table[0] += ",\"phi('solar','DE')\""
    table = [table[0]] + [row + (",cf_wind" if i % 2 else ",") for i, row in enumerate(table[1:])]
    return data, config, parse_iteration_table("\n".join(table) + "\n")


def _same(a, b):
    return a.status == b.status and np.array_equal(a.primal, b.primal) and np.array_equal(a.dual, b.dual)


class TestDeterminism:
    def test_row_order_and_fresh_instances_do_not_matter(self, sweep):
        data, config, specs = sweep
        lp = build_model(data, config)

        def run(order, fresh):
            inst, out = compile_instance(lp), {}
            for i in order:
                if fresh:
                    inst = compile_instance(lp)
                inst.reset()
                out[i] = inst.update_and_resolve(expand_overrides(specs[i], inst.lp, data, config))
            return out

        forward = run(range(len(specs)), fresh=False)
        assert all(s.is_optimal for s in forward.values())
        for other in (run(reversed(range(len(specs))), False), run(range(len(specs)), True)):
            assert all(_same(forward[i], other[i]) for i in forward)

    def test_parallel_equals_single_instance_bitwise(self, sweep):
        data, config, specs = sweep
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        # Up to five workers over nine rows: each runs its rows warm on a
        # handle opened from the base statuses it was sent.
        for threads in (1, 2, 3, 5):
            par = run_scenarios(data, config, None, specs, mode="parallel", threads=threads)
            assert all(_bitwise(a.solution, b.solution) for a, b in zip(single, par)), threads


    def test_statuses_shipped_to_another_handle_solve_as_the_basis(self, sweep):
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        lp = build_model(data, config)
        solved, seeded = compile_instance(lp), compile_instance(lp)
        base = solved.open()
        assert all(np.array_equal(a, b) for a, b in zip(seeded.open(base), base))
        previous = None  # each row also starts from the basis the row before left
        for spec in specs:
            for inst in (solved, seeded):
                inst.reset()
                inst.apply(expand_overrides(spec, inst.lp, data, config))
            assert _bitwise(solved.resolve(), seeded.resolve())
            if previous is not None:
                shipped = solver.basis_statuses(previous)
                assert _bitwise(solved.resolve(previous), seeded.resolve(shipped))
            previous = solved.basis


    def test_a_handle_that_first_solves_a_coefficient_row_solves_as_one_that_first_ran_the_base(self, tmp_path):
        # A handle runs the base once from its statuses before any row:
        # solving a row with coefficient deltas first would otherwise leave
        # it other than a handle that ran the base first.
        pytest.importorskip(_CORE)
        from voltaic.project import load_project
        from voltaic.templates import create_project

        root = create_project("phi", "example1", tmp_path)
        settings = root / "settings" / "project_variables.csv"
        settings.write_text(settings.read_text().replace("end_hour,h48", "end_hour,h24"))
        project = load_project(root)
        lp = build_model(project.data, project.config, project.features)
        [spec] = parse_iteration_table("run,\"phi('solar','DE')\"\nP0,cf_wind_DE\n")
        deltas = expand_overrides(spec, lp, project.data, project.config)
        assert deltas and {d.kind for d in deltas} == {"coef"}
        solved, seeded = compile_instance(lp), compile_instance(lp)
        seeded.open(solved.open())
        assert solved.resolve().stats.iterations == 0  # the base, from its own basis
        for inst in (solved, seeded):
            inst.apply(deltas)
        assert _bitwise(solved.resolve(), seeded.resolve())
        assert solved.basis is not None  # solved warm


class TestFallback:
    def test_missing_highs_object_falls_back_to_cold(self, sweep, monkeypatch, solves):
        data, config, specs = sweep
        cold = run_scenarios(data, config, None, specs, mode="rebuild")
        # Only the HiGHS object goes missing: the linprog fallback, imported
        # before, stays importable whatever tests ran earlier.
        import scipy.optimize  # noqa: F401
        monkeypatch.setitem(sys.modules, _CORE, None)
        for mode, threads in (("single_instance", 0), ("parallel", 2)):
            warmless = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
            assert [r.objective for r in warmless] == [r.objective for r in cold]
            assert all(_same(a.solution, b.solution) for a, b in zip(warmless, cold))
        # In each mode the base task left no statuses, no handle was opened,
        # and every row, in whichever process, was solved cold (as in
        # rebuild, logged first).
        assert [base for _, base in solves.read("base")] == [None] * 2 and solves.read("open") == []
        rows = solves.read("row")
        assert len(rows) == 3 * len(specs) and not any(warm for _, _, warm, _, _ in rows)

    def test_uncertified_warm_result_falls_back_to_cold(self, sweep, monkeypatch):
        pytest.importorskip(_CORE)  # the warm path needs the bundled HiGHS object
        data, config, specs = sweep
        original = solver._WarmStart.solve
        calls = []

        def corrupted(self, lp, start=None):
            calls.append(lp)
            sol = original(self, lp, start)
            sol.primal = sol.primal + 1.0
            return sol

        monkeypatch.setattr(solver._WarmStart, "solve", corrupted)
        inst = compile_instance(build_model(data, config))
        inst.apply(expand_overrides(specs[1], inst.lp, data, config))
        assert _same(inst.resolve(), solve(inst.lp))
        assert calls

    def test_non_optimal_warm_result_falls_back_to_cold(self, sweep):
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        inst = compile_instance(build_model(data, config))
        inst.resolve()  # opens the handle on the base program
        inst._warm.highs.setOptionValue("simplex_iteration_limit", 1)
        inst.apply(expand_overrides(specs[1], inst.lp, data, config))
        assert inst._warm.solve(inst.lp) is None
        assert _same(inst.resolve(), solve(inst.lp))

    def test_uncertified_cold_fallback_is_numerical(self, sweep, monkeypatch):
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        inst = compile_instance(build_model(data, config))
        inst.resolve()  # opens the handle on the base program
        inst._warm.highs.setOptionValue("simplex_iteration_limit", 1)  # every warm attempt fails
        original = solver._cold_highs

        def corrupted(lp):
            sol, basis = original(lp)
            sol.primal = sol.primal + 1.0
            return sol, basis

        # All rhs are finite: the fallback runs on a fresh handle, whose
        # basis an uncertified optimum does not hand on.
        monkeypatch.setattr(solver, "_cold_highs", corrupted)
        inst.apply(expand_overrides(specs[1], inst.lp, data, config))
        assert inst._warm.solve(inst.lp) is None
        assert inst.resolve().status == solver.NUMERICAL
        assert inst.basis is None

    def test_missing_highs_member_falls_back_to_cold(self, sweep, monkeypatch):
        core = pytest.importorskip(_CORE)
        data, config, specs = sweep
        monkeypatch.delattr(core._Highs, "clearSolver")
        inst = compile_instance(build_model(data, config))
        inst.apply(expand_overrides(specs[1], inst.lp, data, config))
        assert _same(inst.resolve(), solve(inst.lp))
        assert inst._warm is None

    def test_handle_that_cannot_be_built_falls_back_to_cold(self, sweep, monkeypatch):
        data, config, specs = sweep

        def unbuildable(cls, inst, statuses):
            raise AttributeError("module 'scipy.optimize._highspy._core' has no attribute 'HighsLp'")

        monkeypatch.setattr(solver._WarmStart, "open", classmethod(unbuildable))
        inst = compile_instance(build_model(data, config))
        inst.apply(expand_overrides(specs[1], inst.lp, data, config))
        assert _same(inst.resolve(), solve(inst.lp))
        assert inst._warm is None

    def test_handle_that_cannot_be_driven_falls_back_to_cold(self, sweep, monkeypatch):
        core = pytest.importorskip(_CORE)
        data, config, specs = sweep
        cold = run_scenarios(data, config, None, specs, mode="rebuild")

        class Drifted(core._Highs):
            def setBasis(self, *args):
                raise TypeError("setBasis(): incompatible function arguments")

        monkeypatch.setattr(core, "_Highs", Drifted)
        warmless = run_scenarios(data, config, None, specs, mode="single_instance")
        assert all(_same(a.solution, b.solution) for a, b in zip(warmless, cold))

    def test_infinite_rhs_solves_cold(self, one_node):
        inst = compile_instance(build_model(*one_node))
        row = inst.lp.row_index("RES_SHARE", ("N1",))
        inst.apply([Delta("rhs", row=row, value=-np.inf)])
        assert _same(inst.resolve(), solve(inst.lp))
        assert inst.basis is None  # the model leaves the row out: no warm handle can start from it


@pytest.fixture
def one_node():
    return _one_node_system()


class TestWhereWarmRuns:
    """Warm only where eight or more rows share an instance; fewer rows and
    rebuild stay cold."""

    @pytest.fixture
    def opened(self, monkeypatch):
        """The programs solved as warm bases."""
        calls = []
        _patch_base(monkeypatch, lambda base_statuses: lambda lp: calls.append(lp) or base_statuses(lp))
        return calls

    @pytest.mark.parametrize(
        "runs, mode, expected",
        [(1, "single_instance", 0), (7, "single_instance", 0), (8, "single_instance", 1),
         (8, "rebuild", 0), (8, "parallel", 1)],
    )
    def test_open_count(self, one_node, opened, runs, mode, expected):
        specs = [ScenarioSpec(f"R{i}") for i in range(runs)]
        results = run_scenarios(*one_node, None, specs, mode=mode, threads=1)
        assert all(r.status == "optimal" for r in results)
        assert len(opened) == expected

    def test_lone_country_set_row_stays_cold(self, sweep, opened):
        data, config, specs = sweep
        lone = replace(specs[0], run_id="DE_only", country_set=("DE",))
        results = run_scenarios(data, config, None, [lone, *specs[1:]], mode="single_instance")
        cold = solve(results[0].lp)
        assert _same(results[0].solution, cold)
        assert len(opened) == 1


def test_rebuild_compiles_one_instance_per_country_set(monkeypatch):
    """Every mode resets one instance per country set between rows; a reset
    instance is bitwise its build, so ``rebuild`` needs no fresh one. The
    plan tries each row's deltas on one scratch overlay per set of its own."""
    data, config = two_node_sweep_system(hours=24)
    config = replace(config, end_hour=24)
    specs = parse_iteration_table(random_sweep_table(3, seed=2))
    compiled, planned, plan = [], [], scenarios._plan

    class Counted(solver.ModelInstance):
        def __init__(self, *args, **kwargs):
            compiled.append(self)
            super().__init__(*args, **kwargs)

    def planning(*args, **kwargs):
        sweep = plan(*args, **kwargs)
        planned.extend(compiled)
        compiled.clear()
        return sweep

    monkeypatch.setattr(scenarios, "ModelInstance", Counted)
    monkeypatch.setattr(scenarios, "_plan", planning)
    rows = scenarios._run_and_finish(data, config, None, specs, "rebuild", 0)
    assert len(planned) == 1 and planned[0]._warm is solver._UNOPENED
    assert len(compiled) == 1 and all(result.status == "optimal" for result, _ in rows)
    assert compiled[0].basis is None and compiled[0]._warm is solver._UNOPENED  # every row cold


def test_a_warm_row_with_phi_deltas_builds_no_highs_model(monkeypatch):
    """A warm row pushes only the cells its coefficient deltas change: it
    does not lay out the whole HiGHS matrix again."""
    pytest.importorskip("scipy.optimize._highspy._core")
    data, config = two_node_sweep_system(hours=24)
    config = replace(config, end_hour=24)
    lp = build_model(data, config)
    [spec] = parse_iteration_table("run,\"phi('solar','DE')\"\nr0,cf_wind\n")
    deltas = expand_overrides(spec, lp, data, config)
    assert len(deltas) == 24 and {d.kind for d in deltas} == {"coef"}
    inst = compile_instance(lp)
    assert inst.open() is not None
    laid_out, highs_model = [], solver._highs_model
    monkeypatch.setattr(solver, "_highs_model", lambda lp: laid_out.append(lp) or highs_model(lp))
    inst.apply(deltas)
    sol = inst.resolve()
    assert inst.basis is not None and sol.is_optimal  # solved warm
    assert laid_out == []
    assert sol.objective == pytest.approx(solve(inst.lp).objective, rel=1e-9)


# --- Warm starts planned as a tree over the rows ----------------------------


def _bitwise(a, b):
    return (
        a.status == b.status
        and a.objective == b.objective
        and all(np.array_equal(getattr(a, name), getattr(b, name))
                for name in ("primal", "dual", "lower_duals", "upper_duals"))
        and a.stats.iterations == b.stats.iterations
    )


def _far_table():
    """Eight Li-ion cost rows at 20-30 % of the base cost, close to each
    other: at 12 h each takes about twenty simplex iterations from the base
    basis and none from its neighbour's."""
    rows = ["run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\""]
    rows += [f"F{i},{4000 + 150 * i},{3000 + 100 * (i % 3)}" for i in range(8)]
    return parse_iteration_table("\n".join(rows) + "\n")


@pytest.fixture(scope="module")
def far():
    data, config = two_node_sweep_system(hours=12)
    return data, replace(config, end_hour=12), _far_table()


_basis_statuses = solver.basis_statuses  # not the logging stand-in of ``TestStatusesMade.made``


def _fingerprint(basis):
    """A basis, or its statuses, as one digest that compares across
    processes; None stays None (the base basis, or no basis)."""
    if basis is None:
        return None
    cols, rows = basis if isinstance(basis, tuple) else _basis_statuses(basis)
    return hashlib.sha1(cols.tobytes() + rows.tobytes()).hexdigest()


class _Log:
    """Events written by this process and by every worker forked from it,
    one JSON line each, led by the writer's process id."""

    def __init__(self, path):
        self.path = path

    def __call__(self, kind, *fields):
        with open(self.path, "a") as out:
            out.write(json.dumps([os.getpid(), kind, *fields]) + "\n")

    def read(self, kind):
        """The events of ``kind`` in the order written, each ``[pid, *fields]``."""
        lines = self.path.read_text().splitlines() if self.path.exists() else []
        return [[pid, *fields] for pid, k, *fields in map(json.loads, lines) if k == kind]


def _patch_base(monkeypatch, wrap):
    """Route every base's cold solve through ``wrap(base_statuses)``: the
    sweep's base task and :meth:`ModelInstance.open` without statuses."""
    patched = wrap(solver.base_statuses)
    monkeypatch.setattr(solver, "base_statuses", patched)
    monkeypatch.setattr(scenarios, "base_statuses", patched)


@pytest.fixture
def solves(monkeypatch, tmp_path):
    """Logs, in every process, each base solved cold (``base``: the
    fingerprint of the statuses it left, None for none), each warm handle
    opened (``open``: the fingerprint of the statuses it opened from) and
    each row solved (``row``: run id, whether it ran warm, the fingerprint
    of its start, None for the base basis, and of the basis it left)."""
    log = _Log(tmp_path / "solves.jsonl")
    open_, run = solver._WarmStart.open.__func__, scenarios._run_on_instance

    def solving(base_statuses):
        def logged(lp):
            statuses = None
            try:
                statuses = base_statuses(lp)
            finally:
                log("base", _fingerprint(statuses))
            return statuses
        return logged

    def opening(cls, inst, statuses):
        log("open", _fingerprint(statuses))
        return open_(cls, inst, statuses)

    def running(inst, spec, deltas, warm=False, start=None):
        result, basis = run(inst, spec, deltas, warm, start)
        log("row", spec.run_id, warm, _fingerprint(start), _fingerprint(basis))
        return result, basis

    _patch_base(monkeypatch, solving)
    monkeypatch.setattr(solver._WarmStart, "open", classmethod(opening))
    monkeypatch.setattr(scenarios, "_run_on_instance", running)
    return log


def _solved(log) -> dict:
    """Each solved row's ``(pid, warm, start, left)``; no row is solved twice."""
    rows = {}
    for pid, run_id, warm, start, left in log.read("row"):
        assert run_id not in rows, f"{run_id} solved twice"
        rows[run_id] = pid, warm, start, left
    return rows


def _assert_tree_starts(log, parents) -> dict:
    """Across all processes: each row was solved once, from the basis its
    planned parent left, or from the base basis if that is the base or left
    none; the one warm country set's base was solved once, never in this
    process unless it ran the rows itself, and every handle opened from its
    statuses. Returns the solved rows (see :func:`_solved`)."""
    rows = _solved(log)
    for run_id, (_, _, start, _) in rows.items():
        parent = parents[run_id]
        assert start == (rows[parent][3] if parent in rows else None), run_id
    [(solver_pid, base)] = log.read("base")
    assert all(statuses == base for _, statuses in log.read("open"))
    workers = {solver_pid} | {pid for pid, *_ in rows.values()}
    assert os.getpid() not in workers or workers == {os.getpid()}
    return rows


def _plan_of(data, config, specs):
    sweep = scenarios._plan(specs, data, config)
    names = [s.run_id for s in specs]
    return ([names[i] for i in sweep.order],
            {names[i]: None if p is None else names[p] for i, p in enumerate(sweep.parents)})


class TestTreePlan:
    def test_far_rows_chain_through_their_neighbours(self, far):
        data, config, specs = far
        order, parents = _plan_of(data, config, specs)
        assert order == [f"F{i}" for i in range(7, -1, -1)]
        assert parents == {f"F{i}": f"F{i + 1}" if i < 7 else None for i in range(8)}

    def test_identical_rows_are_zero_apart(self, far):
        data, config, specs = far
        copies = [replace(specs[3], run_id=f"F3{c}") for c in "bc"]
        _, parents = _plan_of(data, config, [*specs, *copies])
        # F3b ties with F3 and F3c with both at distance zero: the lower index wins.
        assert parents["F3b"] == parents["F3c"] == "F3"

    @pytest.mark.parametrize("first", ["A", "B"])
    def test_ties_go_to_the_lower_row_index(self, one_node, first):
        lp = build_model(*one_node)
        c1, c2 = np.flatnonzero(lp.obj >= 1.0)[:2]
        moved = {"A": [Delta("obj", col=c1, value=0.5 * lp.obj[c1])],
                 "B": [Delta("obj", col=c2, value=0.5 * lp.obj[c2])]}
        moved["C"] = moved["A"] + moved["B"]  # as far from A as from B
        names = [first, "AB".replace(first, ""), "C", "C2", "C3"]
        rows = [moved[name[0]] for name in names]
        order, parents = scenarios._tree(lp, rows)
        # Rows 0 and 1 tie for the base and for C's parent; C2 and C3 tie
        # with C at distance zero.
        assert parents == [None, None, 0, 2, 2]
        assert order == [0, 2, 3, 4, 1]

    def test_a_tied_parent_is_the_lower_row_index_not_the_earlier_added(self, one_node):
        lp = build_model(*one_node)
        cols = np.flatnonzero(lp.obj >= 1.0)[:4]

        def halved(*which):
            return [Delta("obj", col=cols[k], value=0.5 * lp.obj[cols[k]]) for k in which]

        # Q joins the tree first, then P; C is as far from P as from Q.
        rows = [halved(0, 1, 2), halved(0), halved(0, 2, 3)]  # P, Q, C
        order, parents = scenarios._tree(lp, rows)
        assert parents == [1, None, 0]
        assert order == [1, 0, 2]

    def test_rows_that_do_not_expand_plan_as_the_base(self, far):
        data, config, specs = far
        bad = ScenarioSpec("bad", ((specs[0].overrides[0][0], float("nan")),))
        _, parents = _plan_of(data, config, [bad, *specs])
        assert parents["bad"] is None
        assert "bad" not in parents.values()


class TestTreeStarts:
    @pytest.mark.parametrize("mode, threads", [("single_instance", 0), ("parallel", 1), ("parallel", 2),
                                               ("parallel", 3), ("parallel", 5)])
    def test_each_row_starts_from_its_planned_parent(self, far, solves, mode, threads):
        data, config, specs = far
        results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
        assert all(r.status == "optimal" for r in results)
        _, parents = _plan_of(data, config, specs)
        rows = _assert_tree_starts(solves, parents)
        # F0..F7 form one chain: nothing to share, and nothing solved twice.
        assert len(rows) == len(specs)
        assert (os.getpid() in {pid for pid, *_ in rows.values()}) == (threads < 2)

    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_branching_rows_start_from_their_planned_parents_in_any_worker(self, sweep, solves, threads):
        data, config, specs = sweep
        results = run_scenarios(data, config, None, specs, mode="parallel", threads=threads)
        assert all(r.status == "optimal" for r in results)
        _, parents = _plan_of(data, config, specs)
        assert len(_assert_tree_starts(solves, parents)) == len(specs)

    def test_a_subtree_moves_with_its_start_as_statuses(self, sweep):
        # Two task runners take turns on one ready queue, as two workers do.
        # A row's first tree child comes straight back to the runner that
        # ran it; a sibling waits in the queue with the basis the row left,
        # as statuses, and may run in the other runner. Each runner holds
        # its own handle, opened from the base statuses it was sent.
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        plan = scenarios._plan(specs, data, config)
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        ready, runners = scenarios._Ready(plan), (scenarios._Tasks(plan), scenarios._Tasks(plan))
        held, ran = [None, None], []
        while ready.heap or any(held):
            for k, run in enumerate(runners):
                if (task := held[k] or (ready.pop() if ready.heap else None)) is not None:
                    ran.append((k, task))
                    held[k] = ready.receive(run(task))
        assert [task[0] for _, task in ran].count("base") == 1 and ran[0][1][0] == "base"
        assert all(statuses.dtype == np.int8 for statuses in ready.bases[None])
        last = {}  # runner -> the row it ran last
        for k, task in ran:
            if task[0] == "row":
                if task[2] == scenarios._LEFT:
                    assert last[k] == plan.parents[task[1]]  # straight back to the runner that ran its parent
                last[k] = task[1]
        shipped = [task for _, task in ran if task[0] == "row" and isinstance(task[2], tuple)]
        assert shipped and all(statuses.dtype == np.int8 for task in shipped for statuses in task[2])
        assert {k for k, task in ran if task[0] == "row"} == {0, 1}
        assert runners[0].instances[None]._warm.basis is not runners[1].instances[None]._warm.basis
        assert all(_bitwise(single[i].solution, ready.done[i][0].solution) for i in range(len(specs)))

    def test_a_worker_ships_each_row_on_its_own(self, sweep, monkeypatch, tmp_path):
        # A worker finishes a row only once the parent has received every
        # row it finished before, so results sent in a batch would stall it.
        data, config, specs = sweep
        received = tmp_path / "received"
        received.mkdir()
        receive = scenarios._Ready.receive

        def recording(self, message):
            if message[0] == "row":
                (received / message[2].run_id).touch()
            return receive(self, message)

        finished = []  # each worker appends to its own copy

        def finish(result):
            deadline = time.monotonic() + 60
            while not all((received / run_id).exists() for run_id in finished):
                assert time.monotonic() < deadline, f"{finished} not all received"
                time.sleep(0.002)
            finished.append(result.run_id)
            return os.getpid()

        monkeypatch.setattr(scenarios._Ready, "receive", recording)
        rows = scenarios._run_and_finish(data, config, None, specs, "parallel", 2, finish=finish)
        assert all(result.status == "optimal" for result, _ in rows)
        assert os.getpid() not in {pid for _, pid in rows}

    def test_parallel_equals_single_instance_bitwise(self, far):
        data, config, specs = far
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        for threads in (1, 2, 3, 5):
            par = run_scenarios(data, config, None, specs, mode="parallel", threads=threads)
            assert all(_bitwise(a.solution, b.solution) for a, b in zip(single, par)), threads

    def test_tree_needs_fewer_iterations_than_the_base_start(self, far):
        pytest.importorskip(_CORE)
        data, config, specs = far
        tree = run_scenarios(data, config, None, specs, mode="single_instance")
        inst = compile_instance(build_model(data, config))
        from_base = []
        for spec in specs:
            inst.reset()
            from_base.append(inst.update_and_resolve(expand_overrides(spec, inst.lp, data, config)))
        assert inst.basis is not None  # the last row was solved warm
        for a, b in zip(tree, from_base):
            assert a.objective == pytest.approx(b.objective, rel=1e-9)
        assert sum(r.solution.stats.iterations for r in tree) < sum(s.stats.iterations for s in from_base) / 2

    def test_children_of_a_failed_row_start_from_the_base(self, far, solves):
        data, config, _ = far
        # E fails (lo > hi) when applied; C lies nearer to E than to the
        # base, and the base is nearer to E than to C.
        table = ["run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\",\"N.lo('gas','DE')\",\"N.up('gas','DE')\""]
        table += [f"F{i},{4000 + 150 * i},{3000 + 100 * (i % 3)},," for i in range(8)]
        specs = parse_iteration_table("\n".join([*table, "E,,,60,50", "C,4000,,60,"]) + "\n")
        lp = build_model(data, config)
        _, tree = scenarios._tree(lp, [expand_overrides(spec, lp, data, config) for spec in specs])
        assert tree[-1] == len(specs) - 2  # E is C's tree parent
        # The plan finds that E cannot run, so C is planned from the base.
        order, planned = _plan_of(data, config, specs)
        assert planned["C"] is None and "E" not in order
        results = {r.run_id: r for r in run_scenarios(data, config, None, specs, mode="parallel", threads=3)}
        assert results["E"].status == "error" and results["C"].status == "optimal"
        assert results["E"].error == "delta produces lo > hi on N(gas,DE): [60.0, 50.0]"
        rows = _assert_tree_starts(solves, planned)
        assert "E" not in rows and rows["C"][2] is None
        inst = compile_instance(build_model(data, config))
        fresh = inst.update_and_resolve(expand_overrides(specs[-1], inst.lp, data, config))
        assert _bitwise(results["C"].solution, fresh)

    def test_a_fallback_hands_its_basis_to_its_children(self, far, solves, monkeypatch, tmp_path):
        pytest.importorskip(_CORE)
        data, config, _ = far
        # G1 takes 81 warm iterations from its parent F0, past a guard lowered
        # to 40 for this toy (F7, the next dearest row, takes 20), and falls
        # back cold; G0 is G1's child.
        rows = ["run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\",\"c_var(n,'gas')\""]
        rows += [f"F{i},{4000 + 150 * i},{3000 + 100 * (i % 3)}," for i in range(8)]
        specs = parse_iteration_table("\n".join([*rows, "G0,4000,3000,5", "G1,4000,3000,6"]) + "\n")
        _, planned = _plan_of(data, config, specs)
        assert planned["G1"] == "F0" and planned["G0"] == "G1"
        open_, cold_highs, cold = solver._WarmStart.open.__func__, solver._cold_highs, _Log(tmp_path / "cold.jsonl")
        bases = []  # the programs this process solved as bases

        def guarded(cls, inst, statuses):
            warm = open_(cls, inst, statuses)
            if warm is not None:
                warm.highs.setOptionValue("simplex_iteration_limit", 40)
            return warm

        def logged(lp):
            sol, basis = cold_highs(lp)
            if not any(lp is base for base in bases):  # a row's fallback
                cold("cold", sol.objective, _fingerprint(basis))
            return sol, basis

        monkeypatch.setattr(solver._WarmStart, "open", classmethod(guarded))
        monkeypatch.setattr(solver, "_cold_highs", logged)
        _patch_base(monkeypatch, lambda base_statuses: lambda lp: bases.append(lp) or base_statuses(lp))
        single = None
        for mode, threads in (("single_instance", 0), ("parallel", 1), ("parallel", 2), ("parallel", 3)):
            results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
            assert all(r.status == "optimal" for r in results)
            solved = _assert_tree_starts(solves, planned)
            [(_, objective, left)] = cold.read("cold")
            assert objective == results[-1].objective and solved["G1"][1]  # G1 fell back from a warm attempt
            assert left is not None and solved["G1"][3] == left and solved["G0"][2] == left
            if single is None:
                single = results
                assert _bitwise(results[-1].solution, solve(results[-1].lp))
            assert all(_bitwise(a.solution, b.solution) for a, b in zip(single, results)), (mode, threads)
            solves.path.unlink()
            cold.path.unlink()

    def test_rows_with_infinite_rhs_solve_cold_and_start_their_children_from_the_base(self, solves):
        data, config = two_node_sweep_system(hours=12)
        data = replace(
            data,
            nodes=tuple(replace(n, co2_cap=2_000.0) for n in data.nodes),
            technologies=tuple(replace(t, co2_intensity=0.4) if t.id == "gas" else t for t in data.technologies),
        )
        config = replace(config, end_hour=12)
        rows = ["run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\",co2_cap"]
        rows += [f"F{i},{4000 + 150 * i},{3000 + 100 * (i % 3)}," for i in range(6)]
        rows += ["X1,10000,9000,off", "X2,10500,9000,off"]
        specs = parse_iteration_table("\n".join(rows) + "\n")
        _, planned = _plan_of(data, config, specs)
        assert planned["X2"] == "X1"
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        assert _assert_tree_starts(solves, planned)["X2"][2] is None
        for threads in (2, 3):
            par = run_scenarios(data, config, None, specs, mode="parallel", threads=threads)
            assert all(_bitwise(a.solution, b.solution) for a, b in zip(single, par))
        for result in single[-2:]:
            assert _bitwise(result.solution, solve(result.lp))


class TestRetiredBase:
    """With two or more workers, the process that solved a warm set's base
    is replaced once it has replied: every row runs in a process that
    opened its handle from the base's statuses."""

    @pytest.mark.parametrize("threads", [2, 3, 5])
    def test_no_process_solves_a_base_and_runs_a_row(self, sweep, solves, threads):
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        # Two warm sets: all nodes, and the same rows on DE alone.
        specs = [*specs, *(replace(spec, run_id=f"DE_{spec.run_id}", country_set=("DE",)) for spec in specs)]
        results = run_scenarios(data, config, None, specs, mode="parallel", threads=threads)
        assert all(r.status == "optimal" for r in results)
        bases = {pid for pid, _ in solves.read("base")}
        rows = {pid for pid, *_ in _solved(solves).values()}
        assert len(solves.read("base")) == len(bases) == 2 and os.getpid() not in bases | rows
        assert not bases & rows
        assert rows <= {pid for pid, _ in solves.read("open")}  # each opened a handle from statuses
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        assert all(_bitwise(a.solution, b.solution) for a, b in zip(single, results))

    def test_a_rows_wall_time_leaves_out_the_base_solve(self, far, monkeypatch):
        data, config, specs = far
        def slow(base_statuses):
            def solving(lp):
                time.sleep(0.5)
                return base_statuses(lp)
            return solving

        _patch_base(monkeypatch, slow)
        for mode, threads in (("single_instance", 0), ("parallel", 2)):
            results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
            assert all(r.status == "optimal" for r in results)
            assert max(r.wall_time for r in results) < 0.5, mode


class TestPlannedOnce:
    """The parent builds each country set once and expands each row once;
    workers only compile, apply and solve, and solve each row once."""

    @pytest.fixture
    def calls(self, monkeypatch, tmp_path):
        log = _Log(tmp_path / "calls.jsonl")
        for name in ("build_model", "expand_overrides"):
            def counting(*args, _name=name, _original=getattr(scenarios, name), **kwargs):
                log("call", _name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scenarios, name, counting)
        return log

    @pytest.mark.parametrize("mode, threads", [("rebuild", 0), ("single_instance", 0), ("parallel", 1),
                                               ("parallel", 2), ("parallel", 3)])
    def test_one_build_per_country_set_and_one_expansion_per_row(self, far, solves, calls, mode, threads):
        data, config, specs = far
        # The eight far rows share the warm, unrestricted set; two more rows
        # form a cold DE-only set.
        specs = [*specs, *(replace(spec, run_id=f"DE{i}", country_set=("DE",)) for i, spec in enumerate(specs[:2]))]
        results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
        assert all(r.status == "optimal" for r in results)
        made = calls.read("call")
        assert Counter(name for _, name in made) == {"build_model": 2, "expand_overrides": len(specs)}
        assert {pid for pid, _ in made} == {os.getpid()}
        rows = _solved(solves)
        assert sorted(rows) == sorted(spec.run_id for spec in specs)
        # One base solve for the warm set; the one chain of far rows runs in
        # one process, which opens its handle once from the base's statuses
        # if the base left any.
        bases = [base for _, base in solves.read("base")]
        assert len(bases) == (mode != "rebuild")
        assert len(solves.read("open")) == (mode != "rebuild" and bases[0] is not None)

    def test_a_set_that_does_not_build_is_built_once_and_not_expanded(self, far, calls):
        data, config, specs = far
        specs = [*specs, *(replace(spec, run_id=f"XX{i}", country_set=("XX",)) for i, spec in enumerate(specs[:2]))]
        results = run_scenarios(data, config, None, specs, mode="rebuild")
        assert [r.status for r in results[-2:]] == ["error", "error"]
        assert results[-1].error == results[-2].error and "XX" in results[-1].error
        assert Counter(name for _, name in calls.read("call")) == {"build_model": 2, "expand_overrides": len(specs) - 2}

    @pytest.mark.parametrize("mode, threads", [("single_instance", 0), ("parallel", 2)])
    def test_a_warm_set_with_no_row_that_can_run_solves_no_base(self, far, solves, monkeypatch, mode, threads):
        data, config, _ = far
        table = ["run,\"N.lo('gas','DE')\",\"N.up('gas','DE')\""] + [f"E{i},{60 + i},50" for i in range(8)]
        specs = parse_iteration_table("\n".join(table) + "\n")
        sweep = scenarios._plan(specs, data, config)
        assert sweep.warm_keys == {None} and sweep.order == []
        assert scenarios._Ready(sweep).heap == []
        forked = []
        monkeypatch.setattr(scenarios._Ready, "serve_forked", lambda self, run, workers: forked.append(workers))
        results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
        assert [r.error for r in results] == [f"delta produces lo > hi on N(gas,DE): [{60 + i}.0, 50.0]"
                                              for i in range(8)]
        assert solves.read("base") == solves.read("row") == [] and forked == []  # no worker for no row


def _table_with_failures():
    """The far rows plus E, which fails when applied (lo > hi), and X,
    whose override does not expand."""
    table = ["run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\",\"N.lo('gas','DE')\",\"N.up('gas','DE')\","
             "\"c_var(n,'nuclear')\""]
    table += [f"F{i},{4000 + 150 * i},{3000 + 100 * (i % 3)},,," for i in range(8)]
    return parse_iteration_table("\n".join([*table, "E,,,60,50,", "X,4200,,,,9"]) + "\n")


class TestRowsFinishWhereSolved:
    """Each row's store is extracted and written by the process that solved
    the row, and a worker ships each row back without its program."""

    @pytest.mark.parametrize("threads", [1, 2, 3, 5])
    def test_each_store_is_written_once_by_the_process_that_solved_it(self, far, monkeypatch, tmp_path, solves,
                                                                       threads):
        from voltaic import pipeline

        data, config, _ = far
        specs = _table_with_failures()
        writes, write = _Log(tmp_path / "writes.jsonl"), pipeline.write_store

        def recording_write(store, root, formats):
            writes("write", store.run_id)
            return write(store, root, formats)

        monkeypatch.setattr(pipeline, "write_store", recording_write)
        stores = tmp_path / "stores"
        finish = partial(pipeline._finish_row, reporting=[("G", "level")], config_echo=None,
                         results_dir=stores, formats=("csv",))
        rows = scenarios._run_and_finish(data, config, None, specs, "parallel", threads, finish=finish)

        written = writes.read("write")
        assert sorted(run_id for _, run_id in written) == sorted(spec.run_id for spec in specs)
        solved = _solved(solves)
        # E's deltas do not apply and X does not expand: the plan finds
        # both, and this process finishes them without a solve.
        assert sorted(solved) == sorted(spec.run_id for spec in specs if spec.run_id not in ("E", "X"))
        assert all(solved[run_id][0] == pid for pid, run_id in written if run_id in solved)
        here = {run_id for pid, run_id in written if pid == os.getpid()}
        assert here == ({spec.run_id for spec in specs} if threads == 1 else {"E", "X"})
        assert [part.run_id for _, part in rows] == [spec.run_id for spec in specs]
        errors = {result.run_id: result.error for result, _ in rows if result.error is not None}
        assert sorted(errors) == ["E", "X"] and "lo > hi" in errors["E"]
        assert sorted(p.name for p in stores.iterdir()) == sorted(spec.run_id for spec in specs)
        for result, part in rows:
            store = read_store(stores / result.run_id)
            assert store.meta.get("error") == result.error
            assert sorted(store.symbols) == ([] if result.error else ["G"])
            assert sorted(part.symbols) == sorted(store.symbols)

    @pytest.mark.parametrize("mode, threads", [("rebuild", 0), ("single_instance", 0), ("parallel", 2),
                                               ("parallel", 3)])
    def test_no_row_is_finished_by_a_replay_or_twice_in_one_process(self, far, tmp_path, mode, threads):
        data, config, _ = far
        specs = _table_with_failures()
        finished = _Log(tmp_path / "finished.jsonl")

        def finish(result):
            finished("finish", result.run_id)
            return result.run_id

        rows = scenarios._run_and_finish(data, config, None, specs, mode, threads, finish=finish)
        assert sorted(run_id for _, run_id in finished.read("finish")) == sorted(spec.run_id for spec in specs)
        assert [done for _, done in rows] == [spec.run_id for spec in specs]

    def test_workers_ship_no_programs(self, far, monkeypatch):
        data, config, _ = far
        specs = _table_with_failures()
        shipped, replied, receive = [], [], scenarios._Ready.receive

        def recording(self, message):
            if message[0] == "row":
                shipped.append(message[2].lp)
            if message[0] != "base":
                replied.append(self.sweep.specs[message[1]].run_id)
            return receive(self, message)

        monkeypatch.setattr(scenarios._Ready, "receive", recording)
        rows = scenarios._run_and_finish(data, config, None, specs, "parallel", 3)
        # E and X never reach a worker: the plan finds they cannot run.
        assert sorted(replied) == sorted(spec.run_id for spec in specs if spec.run_id not in ("E", "X"))
        assert shipped == [None] * len(replied)
        assert all((result.lp is None) == (result.error is not None) for result, _ in rows)

    def test_reattached_programs_equal_single_instance_bitwise(self, far):
        # No result keeps the copy of its program it was finished with: in
        # every mode a row's program is derived from the plan when first
        # read, bitwise the program the single instance solved.
        data, config, _ = far
        specs = _table_with_failures()
        held = scenarios._run_and_finish(data, config, None, specs, "single_instance", 0,
                                         finish=lambda result: result.lp)
        assert sum(lp is not None for _, lp in held) == len(specs) - 2
        for mode, threads in (("rebuild", 0), ("single_instance", 0), ("parallel", 1), ("parallel", 2),
                              ("parallel", 3)):
            got = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
            for (a, lp), b in zip(held, got):
                assert (lp is None) == (b.lp is None) == (a.error is not None), a.run_id
                if lp is not None:
                    assert _same_program(lp, b.lp)
                    assert mode == "rebuild" or _bitwise(a.solution, b.solution)

    def test_run_project_parent_makes_no_program_lookup_or_store(self, tmp_path, monkeypatch):
        # In parallel mode the parent only merges the report shares the
        # workers made; the results' programs are derived on first read.
        import gc
        import pickle

        from voltaic import pipeline
        from voltaic.project import load_project
        from voltaic.reports import PartialReport
        from voltaic.store import SymbolStore
        from voltaic.symbols import SymbolsHandler
        from voltaic.templates import create_project

        root = create_project("demo", "example2", tmp_path)
        calls = Counter()
        for owner, name in ((solver.ModelInstance, "snapshot"), (SymbolsHandler, "lookup"),
                            (scenarios, "_program")):
            def counting(*args, _name=name, _original=getattr(owner, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counting)
        before = {id(o) for o in gc.get_objects() if isinstance(o, SymbolStore)}
        merged, merge = [], pipeline.merge_report

        def recording_merge(parts, out_dir):
            held = [o for o in gc.get_objects() if isinstance(o, SymbolStore) and id(o) not in before]
            merged.append((list(parts), held))
            return merge(parts, out_dir)

        monkeypatch.setattr(pipeline, "merge_report", recording_merge)
        summary = pipeline.run_project(root, mode="parallel", threads=2)
        assert summary.all_optimal
        assert calls == Counter()
        [(parts, held)] = merged
        assert held == [] and all(isinstance(part, PartialReport) for part in parts)
        assert sorted(part.run_id for part in parts) == sorted(r.run_id for r in summary.results)

        project = load_project(root)
        reference = scenarios._run_and_finish(
            project.data, project.config, project.features, project.specs, "single_instance", 0,
            finish=lambda result: result.lp,
        )
        swept = run_scenarios(project.data, project.config, project.features, project.specs,
                              mode="parallel", threads=2)
        for (_, lp), from_project, from_sweep in zip(reference, summary.results, swept):
            assert _same_program(lp, from_project.lp)
            assert _same_program(lp, from_sweep.lp)
            assert _same_program(lp, pickle.loads(pickle.dumps(from_sweep)).lp)
        assert calls["_program"] == 2 * len(project.specs)


class TestCrashedWorker:
    """A worker that dies loses only the row it was running, which the
    parent fails and finishes, so its store is this sweep's. Only that
    row's tree children start from the base basis; every other row starts
    from its planned parent's basis."""

    def test_other_rows_finish_and_the_lost_rows_descendants_start_from_the_base(self, far, solves, tmp_path):
        from voltaic import pipeline

        data, config, specs = far  # the chain F7 -> F6 -> ... -> F0
        stores = tmp_path / "stores"
        finish = partial(pipeline._finish_row, reporting=[("G", "level")], config_echo=None,
                         results_dir=stores, formats=("csv",))
        scenarios._run_and_finish(data, config, None, specs, "parallel", 2, finish=finish)  # an earlier sweep
        assert read_store(stores / "F5").meta.get("error") is None
        solves.path.unlink()

        def crashing(result):
            if result.run_id == "F5" and result.error is None:  # the parent finishes F5's error
                os._exit(1)
            return finish(result)

        rows = scenarios._run_and_finish(data, config, None, specs, "parallel", 2, finish=crashing)
        results = {result.run_id: result for result, _ in rows}
        assert results["F5"].status == "error"
        assert "worker process running this row died (exit code 1)" in results["F5"].error
        assert all(r.status == "optimal" for run_id, r in results.items() if run_id != "F5")
        assert sorted(p.name for p in stores.iterdir()) == sorted(results)
        assert read_store(stores / "F5").meta["error"] == results["F5"].error  # not the earlier sweep's store
        assert all(part is not None for _, part in rows)

        solved = _solved(solves)  # F5 included: it died while it was being finished
        assert sorted(solved) == sorted(spec.run_id for spec in specs)
        _, parents = _plan_of(data, config, specs)
        assert parents["F4"] == "F5" and solved["F4"][2] is None
        for run_id in ("F6", "F5", "F3", "F2", "F1", "F0"):
            assert solved[run_id][2] == solved[parents[run_id]][3], run_id
        assert solved["F4"][0] != solved["F5"][0]
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        for reference in single:
            if reference.run_id != "F5":
                assert results[reference.run_id].objective == pytest.approx(reference.objective, rel=1e-6)

    def test_a_lost_row_changes_only_the_starts_below_it(self, sweep, solves):
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        plan = scenarios._plan(specs, data, config)
        names = [spec.run_id for spec in specs]
        # The first child of a row with two: its sibling waits in the queue
        # when it dies, and it has children of its own.
        [fork] = [idx for idx, children in enumerate(plan.children) if len(children) > 1]
        lost, sibling = plan.children[fork][:2]
        assert plan.children[lost]

        def crashing(result):
            if result.run_id == names[lost] and result.error is None:
                os._exit(1)
            return result.run_id

        rows = scenarios._run_and_finish(data, config, None, specs, "parallel", 2, finish=crashing)
        assert [result.status == "error" for result, _ in rows] == [idx == lost for idx in range(len(specs))]
        assert [done for _, done in rows] == names  # the lost row finished in the parent
        solved = _solved(solves)
        assert sorted(solved) == sorted(names)
        for idx, parent in enumerate(plan.parents):
            planned = None if parent in (None, lost) else solved[names[parent]][3]
            assert solved[names[idx]][2] == planned, names[idx]
        assert solved[names[sibling]][2] is not None
        single = run_scenarios(data, config, None, specs, mode="single_instance")
        for idx, (result, _) in enumerate(rows):
            if idx != lost and plan.parents[idx] != lost:
                assert _bitwise(single[idx].solution, result.solution), names[idx]

    def test_a_death_in_the_base_solve_leaves_its_rows_cold(self, far, monkeypatch, solves):
        data, config, specs = far
        parent = os.getpid()

        def dying(base_statuses):
            def solving(lp):
                if os.getpid() != parent:
                    os._exit(3)
                return base_statuses(lp)
            return solving

        _patch_base(monkeypatch, dying)
        results = run_scenarios(data, config, None, specs, mode="parallel", threads=2)
        assert all(r.status == "optimal" for r in results)
        assert not any(warm for _, _, warm, _, _ in solves.read("row"))
        cold = run_scenarios(data, config, None, specs, mode="rebuild")
        assert all(_same(a.solution, b.solution) for a, b in zip(results, cold))


class TestRowExceptions:
    """An exception while a row is solved or finished, in a worker or in
    the calling process, fails that row alone: the parent finishes it as an
    error that names the exception, and its tree children start from the
    base basis. A base solve that raises leaves its set's rows cold."""

    @pytest.mark.parametrize("mode, threads", [("single_instance", 0), ("parallel", 2), ("parallel", 3)])
    def test_an_exception_in_a_row_fails_that_row_alone(self, far, solves, tmp_path, mode, threads):
        pytest.importorskip(_CORE)  # F5 must leave a basis
        data, config, specs = far  # the chain F7 -> F6 -> ... -> F0

        def failing(result):
            if result.run_id == "F5" and result.error is None:  # the parent finishes F5's error
                raise OSError(28, "No space left on device")
            return result.run_id

        rows = scenarios._run_and_finish(data, config, None, specs, mode, threads, finish=failing)
        results = {result.run_id: result for result, _ in rows}
        assert results["F5"].error == "OSError: [Errno 28] No space left on device"
        assert all(r.status == "optimal" for run_id, r in results.items() if run_id != "F5")
        assert [done for _, done in rows] == [spec.run_id for spec in specs]  # F5's error finished once
        solved = _solved(solves)
        _, parents = _plan_of(data, config, specs)
        assert parents["F4"] == "F5" and solved["F4"][2] is None and solved["F5"][3] is not None
        for run_id in ("F6", "F5", "F3", "F2", "F1", "F0"):
            assert solved[run_id][2] == solved[parents[run_id]][3], run_id
        single = {r.run_id: r for r in run_scenarios(data, config, None, specs, mode="single_instance")}
        for run_id in ("F7", "F6"):  # above F5: their starts are unchanged
            assert _bitwise(results[run_id].solution, single[run_id].solution), run_id
        for run_id in ("F4", "F3", "F2", "F1", "F0"):
            assert results[run_id].objective == pytest.approx(single[run_id].objective, rel=1e-6)

    @pytest.mark.parametrize("mode, threads", [("single_instance", 0), ("parallel", 2)])
    def test_an_exception_in_the_base_solve_leaves_its_rows_cold(self, far, monkeypatch, solves, mode, threads):
        data, config, specs = far
        def raising(lp):
            raise MemoryError("base solve")

        _patch_base(monkeypatch, lambda base_statuses: raising)
        results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
        assert all(r.status == "optimal" for r in results)
        assert not any(warm for _, _, warm, _, _ in solves.read("row"))
        cold = run_scenarios(data, config, None, specs, mode="rebuild")
        assert all(_same(a.solution, b.solution) for a, b in zip(results, cold))

    @pytest.mark.parametrize("where", ["solve", "finish"])
    @pytest.mark.parametrize("mode, threads", [("single_instance", "0"), ("parallel", "2")])
    def test_run_project_fails_the_row_and_keeps_every_other_store(self, tmp_path, monkeypatch, capsys, where,
                                                                   mode, threads):
        import shutil

        from voltaic import pipeline
        from voltaic.cli import main
        from voltaic.project import load_project
        from voltaic.templates import create_project

        # L100 is a leaf of the plan: the children of a failed row start
        # from the base basis, and on a degenerate program may stop at
        # another optimum, so only a leaf leaves every other store as it was.
        root = create_project("faults", "example1", tmp_path)
        settings = root / "settings" / "project_variables.csv"
        settings.write_text(settings.read_text().replace("end_hour,h48", "end_hour,h12"))
        rows = ["run,\"c_i_sto_e(n,'Li-ion')\",\"c_i_sto_p(n,'Li-ion')\""]
        rows += [f"L{k},{20029 * k // 100},{15021 * k // 100}" for k in (100, 95, 90, 85, 80, 75, 25, 24)]
        (root / "iterationfiles" / "iteration_table.csv").write_text("\n".join(rows) + "\n")
        project = load_project(root)
        plan = scenarios._plan(project.specs, project.data, project.config, project.features)
        assert project.specs[0].run_id == "L100" and plan.children[0] == [] and plan.warm_keys
        clean, faulty = (shutil.copytree(root, tmp_path / name) for name in ("clean", "faulty"))
        assert main(["run", str(clean), "--mode", mode, "--threads", threads]) == 0

        if where == "finish":
            finish_row = pipeline._finish_row

            def faulting(result, **kwargs):
                if result.run_id == "L100" and result.error is None:
                    raise RuntimeError("injected")
                return finish_row(result, **kwargs)

            monkeypatch.setattr(pipeline, "_finish_row", faulting)
        else:
            run_on_instance = scenarios._run_on_instance

            def faulting(inst, spec, *args, **kwargs):
                if spec.run_id == "L100":
                    raise RuntimeError("injected")
                return run_on_instance(inst, spec, *args, **kwargs)

            monkeypatch.setattr(scenarios, "_run_on_instance", faulting)
        capsys.readouterr()
        assert main(["run", str(faulty), "--mode", mode, "--threads", threads]) == 2
        assert "error: L100: RuntimeError: injected" in capsys.readouterr().err
        assert read_store(faulty / "results" / "L100").meta["error"] == "RuntimeError: injected"
        assert not (faulty / "report" / "manifest.json").exists()
        runs = sorted(p.name for p in (clean / "results").iterdir())
        assert runs == sorted(p.name for p in (faulty / "results").iterdir()) and len(runs) == 8
        for run in runs:
            if run != "L100":
                files = sorted(p.name for p in (clean / "results" / run).iterdir())
                assert files == sorted(p.name for p in (faulty / "results" / run).iterdir()), run
                for name in files:
                    assert (clean / "results" / run / name).read_bytes() == \
                        (faulty / "results" / run / name).read_bytes(), (run, name)


def _sweep_wide(seed, root):
    """The benchmark's ``sweep_wide`` project for ``seed`` (32 rows at 24 h,
    made by ``perfbench/gen.py``): data, config, features and specs."""
    import importlib.util
    from pathlib import Path

    from voltaic.project import load_project

    spec = importlib.util.spec_from_file_location("_gen", Path(__file__).parents[1] / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    project = load_project(gen.generate("sweep_wide", seed, root / f"sweep_wide_{seed}"))
    return project.data, project.config, project.features, project.specs


class TestStatusesMade:
    """Basis statuses are made, in any process, only for a warm base (once
    per base solved; a handle opened with shipped statuses keeps them) and
    for a row with two or more tree children (once, for the siblings that
    wait in the queue)."""

    @pytest.fixture
    def made(self, monkeypatch, tmp_path):
        log = _Log(tmp_path / "statuses.jsonl")

        def making(basis):
            statuses = _basis_statuses(basis)
            log("statuses", _fingerprint(statuses))
            return statuses

        monkeypatch.setattr(solver, "basis_statuses", making)
        monkeypatch.setattr(scenarios, "basis_statuses", making)
        return log

    def _check(self, made, solves, data, config, features, specs, branching):
        plan = scenarios._plan(specs, data, config, features)
        rows = _solved(solves)
        forks = [specs[idx].run_id for idx, children in enumerate(plan.children) if len(children) > 1]
        assert len(forks) == branching and all(rows[run_id][3] is not None for run_id in forks)
        bases = [base for _, base in solves.read("base") if base is not None]
        expected = Counter(bases) + Counter(rows[run_id][3] for run_id in forks)
        assert Counter(fingerprint for _, fingerprint in made.read("statuses")) == expected

    @pytest.mark.parametrize("mode, threads", [("single_instance", 0), ("parallel", 2), ("parallel", 3)])
    def test_sweep(self, sweep, solves, made, mode, threads):
        pytest.importorskip(_CORE)
        data, config, specs = sweep
        results = run_scenarios(data, config, None, specs, mode=mode, threads=threads)
        assert all(r.status == "optimal" for r in results)
        self._check(made, solves, data, config, None, specs, branching=1)

    @pytest.mark.parametrize("seed, branching", [(1, 6), (2, 5)])
    def test_sweep_wide(self, solves, made, tmp_path, seed, branching):
        pytest.importorskip(_CORE)
        data, config, features, specs = _sweep_wide(seed, tmp_path)
        results = run_scenarios(data, config, features, specs, mode="parallel", threads=2)
        assert all(r.status == "optimal" for r in results)
        self._check(made, solves, data, config, features, specs, branching)


def _digests(builds) -> dict:
    """Each build's arrays as one digest."""
    arrays = ("obj", "lo", "hi", "rhs", "sense", "a_rows", "a_cols", "a_vals")
    return {key: hashlib.sha1(b"".join(getattr(lp, name).tobytes() for name in arrays)).hexdigest()
            for key, lp in builds.items()}


class TestBuildsStayUnwritten:
    """A sweep never writes its builds in place: each row's deltas go to the
    copies its instance makes of the vectors they change."""

    @pytest.mark.parametrize("mode, threads", [("rebuild", 0), ("single_instance", 0), ("parallel", 2)])
    def test_after_every_row_in_every_process(self, monkeypatch, mode, threads):
        data, config = two_node_sweep_system(hours=24)
        config = replace(config, end_hour=24)
        # Cost, share (rhs), capacity bound (up) and availability (coef) columns.
        table = random_sweep_table(9, seed=5).splitlines()
        table[0] += ",\"phi('solar','DE')\",\"N.up('gas','DE')\""
        table[1:] = [row + (",cf_wind" if i % 2 else ",") + f",{1_500 + 50 * i}" for i, row in enumerate(table[1:])]
        specs = parse_iteration_table("\n".join(table) + "\n")
        planned, plan = [], scenarios._plan

        def planning(*args, **kwargs):
            sweep = plan(*args, **kwargs)
            planned.append((sweep, _digests(sweep.builds)))
            return sweep

        monkeypatch.setattr(scenarios, "_plan", planning)
        rows = scenarios._run_and_finish(data, config, None, specs, mode, threads,
                                         finish=lambda result: _digests(planned[0][0].builds))
        [(sweep, before)] = planned
        kinds = {d.kind for deltas in sweep.deltas for d in deltas}
        assert kinds == {"obj", "rhs", "up", "coef"}
        assert all(result.status == "optimal" for result, _ in rows)
        assert all(done == before for _, done in rows)
        build = sweep.builds[None]
        for result, _ in rows:  # each row's program shares what its deltas leave unchanged
            assert result.lp.a_rows is build.a_rows and result.lp.sense is build.sense
        assert _digests(sweep.builds) == before


def _same_program(a, b):
    fields = ("obj", "lo", "hi", "rhs", "sense", "a_rows", "a_cols", "a_vals")
    return (
        all(getattr(a, f).tobytes() == getattr(b, f).tobytes() for f in fields)
        and a.sets == b.sets
        and a.var_families.keys() == b.var_families.keys()
        and a.row_families.keys() == b.row_families.keys()
    )


@st.composite
def tables_for(draw, lp):
    return [draw(deltas_for(lp)) for _ in range(draw(st.integers(2, 5)))]


def _slightly_infeasible_table():
    """A row the dense backend once called optimal: solar in DE must stay
    1.06e-4 below its zero availability in h1, which only a phase-1
    tolerance scaled by the largest right-hand side of the program let pass."""
    lp = _BASES["two_node_sweep"]
    bal, cap = lp.row_families["BAL"], lp.row_families["CAP_RES"]
    row = [Delta("rhs", row=bal.index(("DE", f"h{h}")), value=v)
           for h, v in ((1, 34.6077), (2, 33.4089), (3, 33.0))]
    row.append(Delta("rhs", row=cap.index(("solar", "DE", "h1")), value=-1.06e-4))
    return [row, []]


@settings(max_examples=30, deadline=None)
@given(case=st.sampled_from(sorted(_BASES)).flatmap(lambda name: st.tuples(st.just(name), tables_for(_BASES[name]))))
@example(case=("two_node_sweep", _slightly_infeasible_table()))
def test_tree_warm_cold_and_dense_agree(instances, case):
    """Every row of a planned table, each warm from its parent's basis."""
    name, rows = case
    inst = instances[name]
    order, parents = scenarios._tree(inst._base, rows)
    bases = {}
    for j in order:
        inst.reset()
        inst.apply(rows[j])
        start = bases.get(parents[j])
        warm = inst._warm.solve(inst.lp, start) if inst._warm not in (None, solver._UNOPENED) else None
        got = inst.resolve(start)
        if inst.basis is not None:
            bases[j] = inst.basis
        cold, dense = solve(inst.lp), solve(inst.lp, "dense")
        assert got.status == cold.status == dense.status
        if cold.is_optimal:
            assert got.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)
            assert dense.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)
            assert certify(inst.lp, got).ok(1e-6)
        if warm is not None:
            assert warm.is_optimal and certify(inst.lp, warm).ok(1e-6)
            assert warm.objective == pytest.approx(cold.objective, rel=1e-6, abs=1e-6)


def _scipy_tree(lp, rows):
    """``scenarios._tree`` as it was written on ``scipy.sparse``: the reference."""
    import scipy.sparse as sp

    from voltaic.solver import matrix

    fields, far = scenarios._FIELDS, scenarios._FAR
    changes = [
        {(fields[d.kind], -1 if d.row is None else d.row, -1 if d.col is None else d.col): d.value
         for d in deltas}
        for deltas in rows
    ]
    positions = sorted(set().union(*changes))
    field_, row, col = np.array(positions, dtype=np.int64).reshape(-1, 3).T
    base = np.zeros(len(positions))
    for k, values in enumerate((lp.obj, lp.lo, lp.hi)):
        base[field_ == k] = values[col[field_ == k]]
    base[field_ == 3] = lp.rhs[row[field_ == 3]]
    cells = field_ == 4
    if cells.any():
        base[cells] = np.asarray(matrix(lp)[row[cells], col[cells]]).ravel()

    column = {p: k for k, p in enumerate(positions)}
    n = len(rows)
    at = np.repeat(np.arange(n), [len(c) for c in changes])
    k = np.fromiter((column[p] for c in changes for p in c), np.int64, len(at))
    v = np.fromiter((x for c in changes for x in c.values()), float, len(at))
    b = base[k]
    with np.errstate(invalid="ignore"):
        rel = (v - b) / np.maximum(1.0, np.abs(b))
        rel = np.where(v == b, 0.0, np.where(np.isfinite(rel), rel, np.copysign(far, v - b)))
    d = sp.csr_matrix((rel, (at, k)), shape=(n, len(positions)))
    near = np.asarray(d.multiply(d).sum(axis=1)).ravel()
    parent, dist, free = np.full(n, -1), near.copy(), np.ones(n, dtype=bool)
    for _ in range(n):
        u = int(np.argmin(np.where(free, dist, np.inf)))
        free[u] = False
        to_u = np.maximum(near + near[u] - 2.0 * (d @ d[u].toarray().ravel()), 0.0)
        closer = free & ((to_u < dist) | ((to_u == dist) & (u < parent)))
        dist[closer], parent[closer] = to_u[closer], u

    children = [[] for _ in range(n + 1)]
    for j in sorted(range(n), key=lambda j: (dist[j], j)):
        children[parent[j]].append(j)
    order, stack = [], children[-1][::-1]
    while stack:
        j = stack.pop()
        order.append(j)
        stack.extend(reversed(children[j]))
    return order, [None if p < 0 else int(p) for p in parent]


@st.composite
def _planning_delta(draw, lp):
    """A delta at any kind of position, often at the base value, at a value
    shared with other deltas, or at an infinity (a ``_FAR`` move)."""
    kind = draw(st.sampled_from(sorted(scenarios._FIELDS)))
    row = col = None
    if kind == "coef":
        entry = draw(st.integers(0, len(lp.a_vals) - 1))
        row, col = int(lp.a_rows[entry]), int(lp.a_cols[entry])
        base = float(lp.a_vals[entry])
    elif kind == "rhs":
        row = draw(st.integers(0, lp.n_rows - 1))
        base = float(lp.rhs[row])
    else:
        col = draw(st.integers(0, lp.n_cols - 1))
        base = float({"obj": lp.obj, "lo": lp.lo, "up": lp.hi}[kind][col])
    value = draw(st.one_of(
        st.sampled_from([0.0, 1.0, -2.5, 1e3, np.inf, -np.inf]),
        st.sampled_from([0.5, 1.0, 1.5, 3.0]).map(lambda f: base * f if np.isfinite(base) else f),
        st.floats(-1e4, 1e4),
    ))
    return Delta(kind, col=col, row=row, value=float(value))


@st.composite
def planning_tables(draw, lp):
    pool = draw(st.lists(_planning_delta(lp), min_size=1, max_size=10))
    rows = draw(st.lists(st.lists(st.sampled_from(pool), max_size=5), min_size=1, max_size=12))
    copies = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))  # identical rows
    return rows + [list(rows[j]) for j in copies]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tree_equals_the_scipy_reference(instances, data):
    name = data.draw(st.sampled_from(sorted(instances)))
    lp = instances[name]._base
    rows = data.draw(planning_tables(lp))
    assert scenarios._tree(lp, rows) == _scipy_tree(lp, rows)

"""Warm re-solves on a persistent HiGHS handle: agreement, determinism, fallback."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sweep_table, two_node_sweep_system
from voltaic import solver
from voltaic.model import build_model
from voltaic.scenarios import ScenarioSpec, expand_overrides, parse_iteration_table, run_scenarios
from voltaic.solver import Delta, certify, compile as compile_instance, solve
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


@pytest.fixture(scope="module")
def instances():
    """One compiled instance per toy, shared by every example so the handle persists."""
    return {name: compile_instance(build_model(*system)) for name, system in _toys().items()}


@st.composite
def deltas_for(draw, inst):
    """Random cost, rhs and bound changes against the base program."""
    lp = inst.lp
    out = []
    for col in draw(st.lists(st.integers(0, lp.n_cols - 1), max_size=6, unique=True)):
        factor = draw(st.floats(0.1, 3.0))  # costs stay non-negative: no unbounded programs
        out.append(Delta("obj", col=col, value=float(inst._base.obj[col] * factor + draw(st.floats(0, 5)))))
    for row in draw(st.lists(st.integers(0, lp.n_rows - 1), max_size=4, unique=True)):
        base = inst._base.rhs[row]
        out.append(Delta("rhs", row=row, value=float(base * draw(st.floats(0.5, 1.5)) + draw(st.floats(-2, 2)))))
    for col in draw(st.lists(st.integers(0, lp.n_cols - 1), max_size=4, unique=True)):
        lo = inst._base.lo[col] if np.isfinite(inst._base.lo[col]) else -500.0
        top = inst._base.hi[col] if np.isfinite(inst._base.hi[col]) else lo + 1000.0
        out.append(Delta("up", col=col, value=float(lo + (top - lo) * draw(st.floats(0.0, 1.0)))))
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_warm_cold_and_dense_agree(instances, data):
    name = data.draw(st.sampled_from(sorted(instances)))
    inst = instances[name]
    inst.reset()
    inst.apply(data.draw(deltas_for(inst)))
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
        # Five workers over nine rows: one shard holds a single row, which
        # must still run warm because the whole table shares the instance.
        par = run_scenarios(data, config, None, specs, mode="parallel", threads=5)
        assert all(_same(a.solution, b.solution) for a, b in zip(single, par))


class TestFallback:
    def test_missing_highs_object_falls_back_to_cold(self, sweep, monkeypatch):
        data, config, specs = sweep
        cold = run_scenarios(data, config, None, specs, mode="rebuild")
        monkeypatch.setitem(sys.modules, _CORE, None)
        warmless = run_scenarios(data, config, None, specs, mode="single_instance")
        assert [r.objective for r in warmless] == [r.objective for r in cold]
        assert all(_same(a.solution, b.solution) for a, b in zip(warmless, cold))

    def test_uncertified_warm_result_falls_back_to_cold(self, sweep, monkeypatch):
        pytest.importorskip(_CORE)  # the warm path needs the bundled HiGHS object
        data, config, specs = sweep
        original = solver._WarmStart.solve
        calls = []

        def corrupted(self, lp):
            calls.append(lp)
            sol = original(self, lp)
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
        original = solver.solve

        def corrupted(lp, backend="highs"):
            sol = original(lp, backend)
            sol.primal = sol.primal + 1.0
            return sol

        monkeypatch.setattr(solver, "solve", corrupted)
        inst.apply(expand_overrides(specs[1], inst.lp, data, config))
        assert inst._warm.solve(inst.lp) is None
        assert inst.resolve().status == solver.NUMERICAL

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

        def unbuildable(cls, inst):
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

    def test_dense_backend_and_infinite_rhs_solve_cold(self, one_node):
        inst = compile_instance(build_model(*one_node), backend="dense")
        assert _same(inst.resolve(), solve(inst.lp, "dense"))
        assert inst._warm is None
        inst = compile_instance(build_model(*one_node))
        row = inst.lp.row_index("RES_SHARE", ("N1",))
        inst.apply([Delta("rhs", row=row, value=-np.inf)])
        assert _same(inst.resolve(), solve(inst.lp))


@pytest.fixture
def one_node():
    return _one_node_system()


class TestWhereWarmRuns:
    """Warm only where eight or more rows share an instance; fewer rows and
    rebuild stay cold."""

    @pytest.fixture
    def opened(self, monkeypatch):
        calls = []
        original = solver._WarmStart.open.__func__

        def counting(cls, inst):
            calls.append(inst)
            return original(cls, inst)

        monkeypatch.setattr(solver._WarmStart, "open", classmethod(counting))
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


def test_coef_delta_on_a_split_cell_sets_its_first_entry(one_node):
    """A cell stored as several entries takes the value once, in its first entry."""
    lp = build_model(*one_node)
    first = 0
    lp.a_rows = np.append(lp.a_rows, lp.a_rows[first])
    lp.a_cols = np.append(lp.a_cols, lp.a_cols[first])
    lp.a_vals = np.append(lp.a_vals, 0.5 * lp.a_vals[first])
    lp.a_vals[first] *= 0.5
    inst = compile_instance(lp)
    row, col = int(lp.a_rows[first]), int(lp.a_cols[first])
    inst.apply([Delta("coef", row=row, col=col, value=7.0)])
    assert inst.lp.a_vals[first] == 7.0 and inst.lp.a_vals[-1] == 0.0
    assert np.array_equal(np.delete(inst.lp.a_vals, [first, -1]), np.delete(lp.a_vals, [first, len(lp.a_vals) - 1]))
    with pytest.raises(KeyError):
        inst.apply([Delta("coef", row=lp.n_rows, col=col, value=1.0)])

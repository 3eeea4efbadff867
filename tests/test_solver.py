import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import run_python, two_node_sweep_system
from voltaic import solver
from voltaic.model import CAPACITY_FAMILIES, apply_dispatch_only, build_model
from voltaic.project import load_project
from voltaic.solver import (
    _IPM_THRESHOLD,
    Delta,
    _highs_model,
    certify,
    compile as compile_instance,
    matrix,
    solve,
    update_and_resolve,
)
from voltaic.templates import TEMPLATES, create_project
from voltaic.system import ModelConfig, Node, SystemData, Technology, TimeSeries

BACKENDS = ["highs", "dense"]


class RawLp:
    """Hand-written program in the compiled-array form."""

    def __init__(self, obj, lo, hi, rows):
        self.obj = np.asarray(obj, dtype=float)
        self.n_cols = len(obj)
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        senses, rhs, triplets = [], [], []
        for i, (coeffs, sense, b) in enumerate(rows):
            senses.append(sense)
            rhs.append(b)
            for j, v in enumerate(coeffs):
                if v != 0.0:
                    triplets.append((i, j, v))
        self.n_rows = len(rows)
        self.sense = np.array(senses, dtype="<U1")
        self.rhs = np.asarray(rhs, dtype=float)
        self.a_rows = np.array([t[0] for t in triplets], dtype=np.int64)
        self.a_cols = np.array([t[1] for t in triplets], dtype=np.int64)
        self.a_vals = np.array([t[2] for t in triplets], dtype=float)


@pytest.mark.parametrize("backend", BACKENDS)
def test_min_x_at_least_three(backend):
    lp = RawLp(obj=[1.0], lo=[-np.inf], hi=[np.inf], rows=[([1.0], "G", 3.0)])
    sol = solve(lp, backend)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert sol.dual[0] == pytest.approx(1.0, abs=1e-9)


from conftest import merit_order_oracle


@pytest.mark.parametrize("backend", BACKENDS)
def test_merit_order_toy(merit_toy, backend):
    data, config = merit_toy
    lp = build_model(data, config)
    sol = solve(lp, backend)
    assert sol.is_optimal

    expected_obj, expected_dispatch = merit_order_oracle([10, 20, 30], [15, 20], [10, 50])
    assert expected_obj == 1400.0
    assert sol.objective == pytest.approx(1400.0, abs=1e-6)
    for h, hour in enumerate(("h1", "h2", "h3")):
        assert sol.level(lp, "G", ("base", "N1", hour)) == pytest.approx(
            expected_dispatch[0][h], abs=1e-6
        )
        assert sol.level(lp, "G", ("peak", "N1", hour)) == pytest.approx(
            expected_dispatch[1][h], abs=1e-6
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_infeasible_demand_detected(backend):
    data = SystemData(
        nodes=(Node("N1", "load"),),
        technologies=(
            Technology("only", "dispatchable", c_inv_power=0.0, c_var=10.0, cap_min=15.0, cap_max=15.0),
        ),
        series={"load": TimeSeries("load", (30.0,))},
    )
    lp = build_model(data, ModelConfig(end_hour=1, network_transfer=False))
    assert solve(lp, backend).status == "infeasible"


@pytest.mark.parametrize("backend", BACKENDS)
def test_unbounded_detected(backend):
    lp = RawLp(obj=[-1.0], lo=[0.0], hi=[np.inf], rows=[])
    assert solve(lp, backend).status == "unbounded"


@pytest.mark.parametrize("backend", BACKENDS)
def test_empty_program(backend):
    lp = RawLp(obj=[], lo=[], hi=[], rows=[])
    sol = solve(lp, backend)
    assert sol.is_optimal
    assert sol.objective == 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_infinite_rhs_relaxes_row(backend):
    # A <= row against +inf binds nothing; used to switch constraint blocks off.
    lp = RawLp(
        obj=[1.0],
        lo=[0.0],
        hi=[np.inf],
        rows=[([1.0], "L", np.inf), ([1.0], "G", 2.0)],
    )
    sol = solve(lp, backend)
    assert sol.is_optimal
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.dual[0] == 0.0

    impossible = RawLp(obj=[1.0], lo=[0.0], hi=[np.inf], rows=[([1.0], "E", np.inf)])
    assert solve(impossible, backend).status == "infeasible"


def test_backends_agree_on_toys(merit_toy, storage_toy, two_node_toy):
    for data, config in (merit_toy, storage_toy, two_node_toy):
        lp = build_model(data, config)
        a = solve(lp, "highs")
        b = solve(lp, "dense")
        assert a.status == b.status == "optimal"
        assert a.objective == pytest.approx(b.objective, rel=1e-9, abs=1e-9)


def test_compile_resolve_matches_cold_solve(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    first = inst.resolve()
    second = inst.resolve()
    cold = solve(lp)
    assert first.objective == pytest.approx(cold.objective, rel=1e-9)
    assert second.objective == pytest.approx(first.objective, rel=1e-9)


def test_empty_delta_list_is_identity(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    base = inst.resolve()
    again = update_and_resolve(inst, [])
    assert again.objective == pytest.approx(base.objective, rel=1e-12)


def test_cost_update_sequence_non_increasing(sweep_toy):
    data, config = sweep_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    scale = config.horizon_share()
    col_e = lp.col_index("N_STO_E", ("Li-ion", "DE"))
    col_p = lp.col_index("N_STO_P", ("Li-ion", "DE"))
    objectives = []
    for cost_e, cost_p in ((20029.0, 15021.0), (10014.0, 7511.0), (5007.0, 3755.0)):
        sol = inst.update_and_resolve(
            [
                Delta("obj", col=col_e, value=scale * cost_e),
                Delta("obj", col=col_p, value=scale * cost_p),
            ]
        )
        assert sol.is_optimal
        objectives.append(sol.objective)
        # Warm path must agree with a cold solve of the same program.
        assert sol.objective == pytest.approx(solve(inst.lp).objective, rel=1e-6)
    assert objectives[0] >= objectives[1] >= objectives[2]


def test_rhs_update_tightens_until_binding(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    row = lp.row_index("CAP_DISP", ("base", "N1", "h3"))
    base = inst.resolve()
    assert base.dual[row] == pytest.approx(-40.0, abs=1e-6)  # peak displaces base
    sol = inst.update_and_resolve([Delta("rhs", row=row, value=-5.0)])
    cold = solve(inst.lp)
    assert sol.objective == pytest.approx(cold.objective, rel=1e-9)
    assert sol.objective > base.objective


def test_unknown_delta_target_rejected(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    with pytest.raises(KeyError):
        inst.apply([Delta("obj", col=10_000)])
    with pytest.raises(KeyError):
        inst.apply([Delta("coef", row=0, col=lp.n_cols - 1)])


def test_bound_crossing_rejected(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    col = lp.col_index("N", ("base", "N1"))
    with pytest.raises(ValueError, match="lo > hi"):
        inst.apply([Delta("lo", col=col, value=20.0)])


def test_reset_restores_base(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    inst = compile_instance(lp)
    base = inst.resolve().objective
    inst.apply([Delta("obj", col=lp.col_index("G", ("base", "N1", "h1")), value=99.0)])
    assert inst.resolve().objective != pytest.approx(base)
    inst.reset()
    assert inst.resolve().objective == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("backend", BACKENDS)
def test_certificates_on_toys(merit_toy, storage_toy, two_node_toy, backend):
    for data, config in (merit_toy, storage_toy, two_node_toy):
        lp = build_model(data, config)
        sol = solve(lp, backend)
        cert = certify(lp, sol)
        assert cert.ok(1e-6), cert


def test_dense_backend_agrees_with_highs_on_random_programs():
    # Status and objective must match on arbitrary small programs with mixed
    # senses and bound shapes (finite, free, upper-only, boxed).
    rng = np.random.default_rng(42)
    optimal_seen = 0
    for _ in range(200):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 9))
        density = rng.uniform(0.3, 1.0)
        a = np.where(rng.random((m, n)) < density, rng.integers(-4, 5, (m, n)).astype(float), 0.0)
        lo = np.zeros(n)
        hi = np.full(n, np.inf)
        for j in range(n):
            kind = rng.integers(0, 4)
            if kind == 1:
                lo[j], hi[j] = -np.inf, np.inf
            elif kind == 2:
                hi[j] = float(rng.integers(1, 10))
            elif kind == 3:
                lo[j], hi[j] = -np.inf, float(rng.integers(0, 10))

        class P:
            pass

        P.n_rows, P.n_cols = m, n
        P.obj = rng.integers(-5, 6, n).astype(float)
        P.sense = rng.choice(list("LGE"), m).astype("<U1")
        P.rhs = rng.integers(-10, 11, m).astype(float)
        P.lo, P.hi = lo, hi
        rows, cols = np.nonzero(a)
        P.a_rows = rows.astype(np.int64)
        P.a_cols = cols.astype(np.int64)
        P.a_vals = a[rows, cols]

        ref = solve(P, "highs")
        mine = solve(P, "dense")
        assert ref.status == mine.status
        if ref.status == "optimal":
            optimal_seen += 1
            assert mine.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)
            assert certify(P, mine).ok(1e-6)
    assert optimal_seen >= 20  # the generator must actually exercise optima


def test_determinism_bitwise(merit_toy):
    data, config = merit_toy
    lp = build_model(data, config)
    a = solve(lp)
    b = solve(lp)
    assert a.status == b.status
    assert a.objective == b.objective
    assert np.array_equal(a.primal, b.primal)


_CORE = "scipy.optimize._highspy._core"


def _split_first_entry(lp):
    """``lp`` with its first matrix cell stored as two half entries."""
    lp.a_rows = np.append(lp.a_rows, lp.a_rows[0])
    lp.a_cols = np.append(lp.a_cols, lp.a_cols[0])
    lp.a_vals = np.append(lp.a_vals, 0.5 * lp.a_vals[0])
    lp.a_vals[0] *= 0.5
    return lp


def _mixed_rows():
    """``<=``, ``>=`` and ``=`` rows with a bounded column; optimum (1.5, 1.5)."""
    return RawLp(
        obj=[1.0, 2.0],
        lo=[0.0, 0.0],
        hi=[np.inf, 5.0],
        rows=[([1.0, 1.0], "G", 3.0), ([1.0, -1.0], "L", 1.0), ([0.0, 1.0], "E", 1.5)],
    )


_RAW_PROGRAMS = {
    "ge_rows": (_mixed_rows, "optimal"),
    "vacuous_row": (
        lambda: RawLp([1.0], [0.0], [np.inf], [([1.0], "L", np.inf), ([1.0], "G", 2.0)]),
        "optimal",
    ),
    "impossible_row": (lambda: RawLp([1.0], [0.0], [np.inf], [([1.0], "E", np.inf)]), "infeasible"),
    "infeasible": (
        lambda: RawLp([1.0], [0.0], [np.inf], [([1.0], "L", 1.0), ([1.0], "G", 2.0)]),
        "infeasible",
    ),
    "unbounded": (lambda: RawLp([-1.0], [0.0], [np.inf], [([1.0], "G", 1.0)]), "unbounded"),
    "split_cell": (lambda: _split_first_entry(_mixed_rows()), "optimal"),
}


def _two_node_week():
    data, config = two_node_sweep_system(hours=144)
    return build_model(data, replace(config, end_hour=144))


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _handle_and_fallback(lp, monkeypatch):
    """Solve ``lp`` on the HiGHS handle, then through the ``linprog`` fallback."""
    pytest.importorskip(_CORE)
    optimize = pytest.importorskip("scipy.optimize")  # where the fallback imports linprog from

    def no_linprog(*args, **kwargs):
        raise AssertionError("the handle path called linprog")

    with monkeypatch.context() as m:
        m.setattr(optimize, "linprog", no_linprog)
        handle = solve(lp)
    with monkeypatch.context() as m:
        m.setitem(sys.modules, _CORE, None)
        fallback = solve(lp)
    return handle, fallback


def _assert_bitwise(a, b):
    assert a.status == b.status
    assert a.stats.iterations == b.stats.iterations
    if a.is_optimal:
        assert _bits(a.objective) == _bits(b.objective)
        for field in ("primal", "dual", "lower_duals", "upper_duals"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field


class TestHandleMatchesLinprogFallback:
    """The HiGHS handle and the ``linprog`` fallback solve the same layout and
    must agree bit for bit, whichever one a scipy release provides."""

    @pytest.mark.parametrize("toy", ["merit_toy", "storage_toy", "two_node_toy", "sweep_toy"])
    def test_toys(self, request, monkeypatch, toy):
        lp = build_model(*request.getfixturevalue(toy))
        handle, fallback = _handle_and_fallback(lp, monkeypatch)
        assert handle.is_optimal
        _assert_bitwise(handle, fallback)

    def test_interior_point_size(self, monkeypatch):
        lp = _two_node_week()
        assert lp.n_rows + lp.n_cols > _IPM_THRESHOLD
        handle, fallback = _handle_and_fallback(lp, monkeypatch)
        assert handle.is_optimal and certify(lp, handle).ok(1e-6)
        _assert_bitwise(handle, fallback)

    @pytest.mark.parametrize("name", sorted(_RAW_PROGRAMS))
    def test_raw_programs(self, monkeypatch, name):
        make, status = _RAW_PROGRAMS[name]
        lp = make()
        handle, fallback = _handle_and_fallback(lp, monkeypatch)
        assert handle.status == status
        if handle.is_optimal:
            assert certify(lp, handle).ok(1e-9)
        _assert_bitwise(handle, fallback)


# -- the HiGHS matrix, built in numpy ------------------------------------------


def _with_vacuous_rows(lp):
    """``lp`` with every third ``<=`` row against +inf and ``>=`` row against -inf."""
    for sense, inf in (("L", np.inf), ("G", -np.inf)):
        lp.rhs[np.flatnonzero(lp.sense == sense)[::3]] = inf
    return lp


def _with_explicit_zeros(lp):
    """``lp`` with every fifth entry zero and its first cell split into a
    value and a zero entry, as a coefficient delta leaves a split cell."""
    lp = _split_first_entry(lp)
    lp.a_vals[0] *= 2.0
    lp.a_vals[-1] = 0.0
    lp.a_vals[1::5] = 0.0
    return lp


def _three_entry_cell():
    """A cell stored as three entries, out of order among the others."""
    lp = _mixed_rows()
    lp.a_rows = np.concatenate([[2, 0], lp.a_rows, [0]])
    lp.a_cols = np.concatenate([[0, 1], lp.a_cols, [1]])
    lp.a_vals = np.concatenate([[0.0, 0.25], lp.a_vals, [0.5]])
    return lp


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    root = tmp_path_factory.mktemp("templates")
    out = {}
    for name in sorted(TEMPLATES):
        project = load_project(create_project(name, name, root))
        out[name] = build_model(project.data, project.config, project.features)
    lp = out["example1"]
    capacities = {(family, key): 10.0 for family in CAPACITY_FAMILIES if family in lp.var_families
                  for key in lp.var_families[family].keys()}
    out["dispatch_only"] = apply_dispatch_only(lp, capacities)
    out["vacuous_rows"] = _with_vacuous_rows(lp.copy())
    out["split_entry"] = _split_first_entry(lp.copy())
    out["explicit_zeros"] = _with_explicit_zeros(lp.copy())
    out["three_entry_cell"] = _three_entry_cell()
    out["raw_vacuous_row"] = _RAW_PROGRAMS["vacuous_row"][0]()
    return out


_PROGRAMS = [*sorted(TEMPLATES), "dispatch_only", "vacuous_rows", "split_entry", "explicit_zeros",
             "three_entry_cell", "raw_vacuous_row"]


def _scipy_highs_matrix(lp, model):
    """The model matrix as scipy built it: program rows in model order, signed, column-wise."""
    a = matrix(lp)[model.rows]
    a.data *= np.repeat(model.sign, np.diff(a.indptr))
    return a.tocsc()


class TestHighsMatrix:
    @pytest.mark.parametrize("name", _PROGRAMS)
    def test_equals_the_scipy_matrix(self, programs, name):
        lp = programs[name]
        model = _highs_model(lp)
        reference = _scipy_highs_matrix(lp, model)
        assert np.array_equal(model.start, reference.indptr)
        assert np.array_equal(model.index, reference.indices)
        assert np.array_equal(model.value, reference.data)

    def test_explicit_zeros_are_kept(self, programs):
        model = _highs_model(programs["explicit_zeros"])
        assert (model.value == 0.0).sum() > 1

    def test_vacuous_rows_are_left_out(self, programs):
        lp = programs["vacuous_rows"]
        model = _highs_model(lp)
        assert len(model.rows) < lp.n_rows and np.isfinite(lp.rhs[model.rows]).all()

    def test_a_three_entry_cell_is_one_entry(self):
        model = _highs_model(_three_entry_cell())
        # Model rows: the <= row 1, the >= row 0 negated, the = row 2.
        # Column 1 holds 1 + 0.25 + 0.5 in row 0.
        assert model.value[model.start[1]:model.start[2]].tolist() == [-1.0, -1.75, 1.0]
        assert model.index[model.start[1]:model.start[2]].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("name", ["minimal", "split_entry", "explicit_zeros", "vacuous_rows"])
    def test_certify_matches_the_scipy_product(self, programs, name):
        lp = programs[name]
        sol = solve(lp)
        assert sol.is_optimal
        sol.primal = sol.primal * (1.0 + 1e-4 * np.random.default_rng(3).standard_normal(lp.n_cols))
        got = certify(lp, sol)
        ax = matrix(lp) @ sol.primal
        scale = np.maximum(1.0, np.abs(lp.rhs))
        with np.errstate(invalid="ignore"):
            violation = np.select(
                [lp.sense == "E", lp.sense == "L"],
                [np.abs(ax - lp.rhs), np.maximum(0.0, ax - lp.rhs)],
                np.maximum(0.0, lp.rhs - ax),
            )
        ineq = (lp.sense != "E") & np.isfinite(lp.rhs)
        slackness = np.abs(sol.dual[ineq]) * np.abs(ax[ineq] - lp.rhs[ineq]) / scale[ineq]
        assert got.primal_residual > 1e-9
        assert got.primal_residual == pytest.approx(float((violation / scale).max()), rel=0, abs=1e-12)
        assert got.complementarity >= slackness.max() - 1e-12
        unperturbed_bounds = certify(lp, replace(sol, dual=np.zeros(lp.n_rows)))
        expected = max(float(slackness.max()), unperturbed_bounds.complementarity)
        assert got.complementarity == pytest.approx(expected, rel=0, abs=1e-12)


class TestBasisStatuses:
    @pytest.mark.parametrize("name", sorted(TEMPLATES))
    def test_statuses_read_as_numpy_reads_them_and_rebuild_the_basis(self, programs, name):
        pytest.importorskip(_CORE)
        inst = compile_instance(programs[name])
        statuses = inst.open()
        basis = inst._warm.basis
        for got, listed in zip(statuses, (basis.col_status, basis.row_status)):
            assert got.dtype == np.int8 and np.array_equal(got, np.array(listed, dtype=np.int8))
        assert {int(s) for s in np.concatenate(statuses)} >= {0, 1}  # at bound and basic
        rebuilt = solver._basis(inst._warm.core, statuses)
        assert (rebuilt.valid, rebuilt.alien, rebuilt.was_alien) == (True, False, False)
        assert list(rebuilt.col_status) == list(basis.col_status)
        assert list(rebuilt.row_status) == list(basis.row_status)


# -- loading scipy's HiGHS binding ---------------------------------------------

class TestHighsCore:
    def test_loads_the_extension_without_scipy_optimize(self):
        pytest.importorskip(_CORE)
        out = run_python(
            "import sys\n"
            "from voltaic import solver\n"
            "core = solver._highs_core()\n"
            "print(core is sys.modules[solver._CORE], hasattr(core, '_Highs'), 'scipy.optimize' in sys.modules)\n"
        )
        assert out == ["True", "True", "False"]

    def test_a_missing_file_falls_back_to_the_import_statement(self):
        pytest.importorskip(_CORE)
        out = run_python(
            "import sys\n"
            "from voltaic import solver\n"
            "solver.EXTENSION_SUFFIXES = ['.missing']\n"
            "core = solver._highs_core()\n"
            "print(core is sys.modules[solver._CORE], hasattr(core, '_Highs'), 'scipy.optimize' in sys.modules)\n"
        )
        assert out == ["True", "True", "True"]

    def test_a_failed_load_leaves_no_entry(self):
        pytest.importorskip(_CORE)
        out = run_python(
            "import sys\n"
            "from voltaic import solver\n"
            "real = solver.spec_from_file_location\n"
            "class Broken:\n"
            "    def create_module(self, spec):\n"
            "        return None\n"
            "    def exec_module(self, module):\n"
            "        sys.modules[solver._CORE + '.cb'] = module\n"
            "        raise ImportError('broken extension')\n"
            "def broken(name, path):\n"
            "    spec = real(name, path)\n"
            "    spec.loader = Broken()\n"
            "    return spec\n"
            "solver.spec_from_file_location = broken\n"
            "sys.modules['scipy.optimize'] = None  # the import statement fails too, as before scipy 1.15\n"
            "try:\n"
            "    solver._highs_core()\n"
            "except ImportError:\n"
            "    print('ImportError')\n"
            "print(sorted(n for n in sys.modules if n.startswith(solver._CORE)))\n"
            "del sys.modules['scipy.optimize']\n"
            "core = solver._highs_core()  # the statement now imports the real module\n"
            "print(hasattr(core, '_Highs'), core is sys.modules[solver._CORE])\n"
        )
        assert out == ["ImportError", "[]", "True", "True"]

    def test_an_existing_entry_is_used(self, monkeypatch):
        sentinel = object()
        monkeypatch.setitem(sys.modules, _CORE, sentinel)
        assert solver._highs_core() is sentinel

    def test_a_none_entry_gives_the_linprog_fallback(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        calls, real = [], optimize.linprog

        def counted(*args, **kwargs):
            calls.append(kwargs["method"])
            return real(*args, **kwargs)

        monkeypatch.setattr(optimize, "linprog", counted)
        monkeypatch.setitem(sys.modules, _CORE, None)
        with pytest.raises(ImportError):
            solver._highs_core()
        sol = solve(_mixed_rows())
        assert sol.is_optimal and sol.objective == pytest.approx(4.5)
        assert calls == ["highs-ds"]


class TestIterationCounts:
    def test_simplex_size(self):
        data, config = two_node_sweep_system(hours=24)
        lp = build_model(data, replace(config, end_hour=24))
        assert lp.n_rows + lp.n_cols <= _IPM_THRESHOLD
        stats = self._handle_stats(lp)
        assert stats.simplex_iterations > 0
        assert stats.ipm_iterations == stats.crossover_iterations == 0
        assert stats.iterations == stats.simplex_iterations

    def test_interior_point_size(self):
        stats = self._handle_stats(_two_node_week())
        assert stats.ipm_iterations > 0
        assert stats.iterations == (stats.simplex_iterations or stats.ipm_iterations)

    @staticmethod
    def _handle_stats(lp):
        pytest.importorskip(_CORE)
        sol = solve(lp)
        assert sol.is_optimal
        return sol.stats

import pickle
import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import run_python, two_node_sweep_system
from voltaic import scenarios, solver
from voltaic.model import CAPACITY_FAMILIES, VECTORS, LinearProgram, apply_dispatch_only, build_model
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


class TestProgramSharing:
    """A build is the one full copy of its program: instances, snapshots and
    dispatch-only variants share every array they do not change."""

    ARRAYS = (*VECTORS, "sense", "a_rows", "a_cols")

    @pytest.fixture
    def lp(self, two_node_toy):
        return build_model(*two_node_toy)

    def test_an_instance_shares_the_build(self, lp):
        inst = compile_instance(lp)
        for name in self.ARRAYS:
            assert np.shares_memory(getattr(inst.lp, name), getattr(lp, name)), name
        assert inst.resolve().is_optimal
        for name in self.ARRAYS:  # the warm handle's base solve wrote nothing either
            assert getattr(inst.lp, name) is getattr(lp, name), name

    def test_a_coef_delta_copies_a_vals_and_reset_restores_it(self, lp):
        before = {name: getattr(lp, name).copy() for name in self.ARRAYS}
        inst = compile_instance(lp)
        row, col = lp.row_index("BAL", ("DE", "h1")), lp.col_index("F", ("DE-FR", "h1"))
        inst.apply([Delta("coef", row=row, col=col, value=-0.5)])
        [entry] = solver._cell_index(lp).find(lp, [row], [col])
        assert inst.lp.a_vals[entry] == -0.5 and lp.a_vals[entry] == before["a_vals"][entry]
        assert not np.shares_memory(inst.lp.a_vals, lp.a_vals)
        for name in ("obj", "lo", "hi", "rhs", "sense", "a_rows", "a_cols"):
            assert getattr(inst.lp, name) is getattr(lp, name), name
        snap = inst.snapshot()
        assert snap.a_vals[entry] == -0.5
        assert not np.shares_memory(snap.a_vals, inst.lp.a_vals) and not np.shares_memory(snap.a_vals, lp.a_vals)
        assert all(getattr(snap, name) is getattr(lp, name) for name in ("obj", "lo", "hi", "rhs"))
        inst.apply([Delta("coef", row=row, col=col, value=-0.25)])
        assert snap.a_vals[entry] == -0.5  # a snapshot outlives later updates
        inst.reset()
        assert inst.lp.a_vals is lp.a_vals
        for name in self.ARRAYS:
            assert getattr(lp, name).tobytes() == before[name].tobytes(), name

    def test_each_delta_kind_copies_only_its_vector(self, lp):
        inst = compile_instance(lp)
        col, row = lp.col_index("N", ("cheap", "DE")), lp.row_index("BAL", ("FR", "h2"))
        for delta, name in ((Delta("obj", col=col, value=1.0), "obj"), (Delta("lo", col=col, value=1.0), "lo"),
                            (Delta("up", col=col, value=2.0), "hi"), (Delta("rhs", row=row, value=3.0), "rhs")):
            inst.reset()
            inst.apply([delta])
            assert [n for n in VECTORS if getattr(inst.lp, n) is not getattr(lp, n)] == [name]

    def test_dispatch_only_copies_only_the_bounds(self, lp):
        fixed = apply_dispatch_only(lp, {(fam, key): 1.0 for fam in CAPACITY_FAMILIES
                                         if fam in lp.var_families for key in lp.var_families[fam].keys()})
        assert not np.shares_memory(fixed.lo, lp.lo) and not np.shares_memory(fixed.hi, lp.hi)
        assert all(getattr(fixed, name) is getattr(lp, name) for name in self.ARRAYS if name not in ("lo", "hi"))
        assert fixed.lo[lp.col_index("N", ("cheap", "DE"))] == 1.0 != lp.lo[lp.col_index("N", ("cheap", "DE"))]

    def test_matrix_indices_are_int32(self, lp):
        assert lp.a_rows.dtype == lp.a_cols.dtype == np.int32

    def test_one_cell_index_per_build_never_pickled(self, lp):
        index = solver._cell_index(lp)
        assert index._fields == ("order", "rank") and index.order.dtype == index.rank.dtype == np.int32
        inst = compile_instance(lp)
        row, col = lp.row_index("BAL", ("DE", "h1")), lp.col_index("F", ("DE-FR", "h1"))
        inst.apply([Delta("coef", row=row, col=col, value=-0.5)])
        fixed = apply_dispatch_only(lp, {(fam, key): 1.0 for fam in CAPACITY_FAMILIES
                                         if fam in lp.var_families for key in lp.var_families[fam].keys()})
        for program in (inst.lp, inst.snapshot(), fixed):
            assert solver._cell_index(program) is index
        assert pickle.loads(pickle.dumps(inst.snapshot()))._derived == {}
        assert solver._cell_index(lp.copy()) is not index


def _wide_program():
    """A program whose cell ids (col * n_rows + row) pass 2**31: 60,000 rows
    by 60,000 columns, a few entries in the first and last columns and rows."""
    n = 60_000
    lp = LinearProgram()
    lp.n_rows = lp.n_cols = n
    lp.obj, lp.lo, lp.hi = np.zeros(n), np.zeros(n), np.full(n, np.inf)
    lp.rhs, lp.sense = np.ones(n), np.full(n, "E", dtype="<U1")
    cells = [(n - 1, n - 1), (0, n - 1), (n - 1, 0), (5, 40_000), (n - 2, 35_792), (0, 0)]
    lp.a_rows = np.array([r for r, _ in cells], dtype=np.int32)
    lp.a_cols = np.array([c for _, c in cells], dtype=np.int32)
    lp.a_vals = np.arange(1.0, len(cells) + 1.0)
    return lp, cells


class TestCellsPastInt32:
    def test_highs_model_orders_cells_by_column_then_row(self):
        lp, cells = _wide_program()
        assert lp.n_rows * lp.n_cols > 2**31
        model = _highs_model(lp)
        expected = sorted((c, r, v) for (r, c), v in zip(cells, lp.a_vals.tolist()))
        got = [(col, int(model.index[p]), float(model.value[p]))
               for col in range(lp.n_cols) if model.start[col] < model.start[col + 1]
               for p in range(model.start[col], model.start[col + 1])]
        assert got == expected
        assert model.start[-1] == len(expected)

    def test_instance_entries_find_each_cell(self):
        lp, cells = _wide_program()
        rows, cols = np.array(cells).T
        assert solver._cell_index(lp).find(lp, rows, cols).tolist() == list(range(len(cells)))
        assert solver._cell_index(lp).find(lp, [1], [lp.n_cols - 1]).tolist() == [-1]


def _cells_stored_twice():
    """``_mixed_rows`` with two cells stored again: (2, 1), then (0, 0), which
    comes first in index order (column 0; rows in class order 1, 0, 2)."""
    lp = _as_program(_mixed_rows())
    lp.a_rows = np.append(lp.a_rows, [2, 0])
    lp.a_cols = np.append(lp.a_cols, [1, 0])
    lp.a_vals = np.append(lp.a_vals, [0.5, 0.5])
    return lp


class TestOneEntryPerCell:
    """A program stores each (row, column) cell as one entry; every path that
    reads the matrix rejects a cell stored twice, naming it."""

    CELL = r"matrix cell \(row 0, column 0\) is stored as more than one entry"

    def test_the_cell_index_names_the_first_repeated_cell(self):
        with pytest.raises(ValueError, match=self.CELL):
            solver._cell_index(_cells_stored_twice())

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_solve(self, backend):
        with pytest.raises(ValueError, match=self.CELL):
            solve(_cells_stored_twice(), backend)

    def test_opening_a_handle(self):
        with pytest.raises(ValueError, match=self.CELL):
            compile_instance(_cells_stored_twice()).open()

    def test_a_coef_delta(self):
        inst = compile_instance(_cells_stored_twice())
        with pytest.raises(ValueError, match=self.CELL):
            inst.apply([Delta("coef", row=2, col=0, value=1.0)])

    def test_the_sweep_planner(self):
        with pytest.raises(ValueError, match=self.CELL):
            scenarios._tree(_cells_stored_twice(), [[Delta("coef", row=2, col=1, value=1.0)]])

    def test_a_coef_delta_writes_its_one_entry(self, two_node_toy):
        lp = build_model(*two_node_toy)
        inst = compile_instance(lp)
        row, col = lp.row_index("BAL", ("DE", "h1")), lp.col_index("F", ("DE-FR", "h1"))
        inst.apply([Delta("coef", row=row, col=col, value=7.0)])
        changed = np.flatnonzero(inst.lp.a_vals != lp.a_vals)
        assert changed.tolist() == solver._cell_index(lp).find(lp, [row], [col]).tolist()
        assert inst.lp.a_vals[changed].tolist() == [7.0]
        with pytest.raises(KeyError):
            inst.apply([Delta("coef", row=lp.n_rows, col=col, value=1.0)])

    def test_an_open_handle_holds_no_matrix(self, two_node_toy):
        pytest.importorskip(_CORE)
        lp = build_model(*two_node_toy)
        inst = compile_instance(lp)
        statuses = inst.open()
        seeded = compile_instance(lp)
        seeded.open(statuses)
        for warm in (inst._warm, seeded._warm):
            assert warm.model.start is warm.model.index is warm.model.value is None
        assert inst.resolve().is_optimal and inst.basis is not None


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
    """``lp`` with every fifth entry zero, each still its cell's one entry,
    as a coefficient delta to 0 leaves a cell."""
    lp.a_vals[1::5] = 0.0
    return lp


def _shuffled_entries(lp):
    """``lp`` with its entries in random order: the cell index, not the
    entry order, decides where each one goes."""
    order = np.random.default_rng(13).permutation(len(lp.a_vals))
    lp.a_rows, lp.a_cols, lp.a_vals = lp.a_rows[order], lp.a_cols[order], lp.a_vals[order]
    return lp


def _as_program(raw):
    """``raw`` as a :class:`LinearProgram`, which an instance can hold."""
    lp = LinearProgram()
    for name in ("n_rows", "n_cols", *VECTORS, "sense", "a_rows", "a_cols"):
        setattr(lp, name, getattr(raw, name))
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
    out["explicit_zeros"] = _with_explicit_zeros(lp.copy())
    out["shuffled_entries"] = _shuffled_entries(lp.copy())
    out["raw_vacuous_row"] = _as_program(_RAW_PROGRAMS["vacuous_row"][0]())
    return out


_PROGRAMS = [*sorted(TEMPLATES), "dispatch_only", "vacuous_rows", "explicit_zeros", "shuffled_entries",
             "raw_vacuous_row"]


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

    @pytest.mark.parametrize("name", _PROGRAMS)
    def test_instance_entries_make_the_scipy_cells(self, programs, name):
        lp = programs[name]
        reference = matrix(lp).tocoo()
        index = solver._cell_index(lp)
        picked = np.random.default_rng(7).permutation(reference.nnz)[:200]
        rows, cols = reference.row[picked], reference.col[picked]
        entries = index.find(lp, rows, cols)
        for r, c, entry in zip(rows.tolist(), cols.tolist(), entries.tolist()):
            assert entry == np.flatnonzero((lp.a_rows == r) & (lp.a_cols == c)).item()
        assert _bits(lp.a_vals[entries]) == _bits(reference.data[picked])
        empty = np.flatnonzero(matrix(lp).getnnz(axis=1) < lp.n_cols)
        if empty.size:
            row = int(empty[0])
            col = int(np.setdiff1d(np.arange(lp.n_cols), lp.a_cols[lp.a_rows == row])[0])
            assert index.find(lp, [row], [col]).tolist() == [-1]
        assert index.find(lp, [lp.n_rows, -1], [0, 0]).tolist() == [-1, -1]

    @pytest.mark.parametrize("name", _PROGRAMS)
    def test_the_tree_reads_cell_values_as_the_scipy_matrix(self, programs, name):
        lp = programs[name]
        reference = matrix(lp).tocoo()
        picked = np.random.default_rng(11).permutation(reference.nnz)[:50]
        # A row that sets a cell to its value changes nothing: it is as far
        # from the base as the base is, nearer than a row that moves a cost
        # by one unit in the last place, which comes last.
        nudge = Delta("obj", col=0, value=float(np.nextafter(lp.obj[0], np.inf)))
        rows = [[nudge]] + [[Delta("coef", row=int(reference.row[k]), col=int(reference.col[k]),
                                   value=float(reference.data[k]))] for k in picked]
        order, parents = scenarios._tree(lp, rows)
        assert order == [*range(1, len(rows)), 0] and parents == [None] * len(rows)

    @pytest.mark.parametrize("name", ["minimal", "explicit_zeros", "shuffled_entries", "vacuous_rows",
                                      "raw_vacuous_row"])
    def test_warm_pushes_the_changed_scipy_cells(self, programs, name):
        pytest.importorskip(_CORE)
        lp = programs[name]
        inst = compile_instance(lp)
        if not np.isfinite(lp.rhs).all():
            assert inst.open() is None  # no handle holds a vacuous row
            return
        assert inst.open() is not None
        warm = inst._warm
        reference = matrix(lp).tocoo()
        # The first cell, zeros and random cells; the last one is set to its
        # own value, which pushes nothing.
        cells = [(int(lp.a_rows[0]), int(lp.a_cols[0]))]
        cells += [(int(reference.row[k]), int(reference.col[k])) for k in np.flatnonzero(reference.data == 0)[:3]]
        cells += [(int(reference.row[k]), int(reference.col[k]))
                  for k in np.random.default_rng(5).permutation(reference.nnz)[:20]]
        deltas = [Delta("coef", row=r, col=c, value=0.5 + 0.25 * k) for k, (r, c) in enumerate(cells)]
        deltas.append(Delta("coef", row=int(reference.row[-1]), col=int(reference.col[-1]),
                            value=float(reference.data[-1])))
        inst.apply(deltas)

        class Recording:
            """The handle, recording its coefficient changes and not running."""

            def __init__(self, highs):
                self.highs, self.pushed = highs, []

            def __getattr__(self, name):
                return getattr(self.highs, name)

            def changeCoeff(self, row, col, value):
                self.pushed.append((row, col, _bits(value)))
                return self.highs.changeCoeff(row, col, value)

            def run(self):
                pass

        warm.highs = recording = Recording(warm.highs)
        warm.solve(inst.lp)
        before, after = _scipy_highs_matrix(lp, warm.model).tocoo(), _scipy_highs_matrix(inst.lp, warm.model).tocoo()
        moved = after.data != before.data
        expected = list(zip(after.col[moved].tolist(), after.row[moved].tolist()))
        assert sorted(expected) == expected  # the model's matrix order: column, then model row
        assert len(expected) >= 3
        assert recording.pushed == [(r, c, _bits(v)) for (c, r), v in zip(expected, after.data[moved])] + [
            (r, c, _bits(v)) for (c, r), v in zip(expected, before.data[moved])]

    @pytest.mark.parametrize("name", ["minimal", "explicit_zeros", "vacuous_rows"])
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

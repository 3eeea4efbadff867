"""Solve compiled linear programs and re-solve them after in-place updates.

Two interchangeable backends sit behind the same interface: ``highs`` (the
default, the HiGHS bundled with scipy: dual simplex up to 4,000 rows plus
columns, interior point with crossover above) and ``dense`` (the
self-contained tableau simplex in :mod:`voltaic.simplex`, used as an
independent cross-check on small instances).

Every HiGHS solve, cold or warm, passes one model in ``linprog``'s row
layout, its matrix built column-wise in numpy, to a handle of scipy's HiGHS
object, and one reader maps the result back to program rows. A program
stores each matrix cell as one entry. Where each cell's entry is, and where
it sits in that column-wise layout, is held in one place: the build's cell
index (:func:`_cell_index`), which rejects a cell stored twice and which
the model matrix, coefficient deltas, warm updates and the sweep planner
all read. The binding is
loaded from its extension file (:func:`_highs_core`), so neither
``scipy.optimize`` nor ``scipy.sparse`` is imported on this path;
``scipy.optimize.linprog`` on the same layout, which it matches bit for
bit, is only the fallback (see :func:`_solve_highs`), and :func:`matrix`,
which returns a scipy sparse matrix, is a helper for callers outside it.
A :class:`ModelInstance` holds one built program, which it never writes,
plus an overlay of bound/cost/rhs/coefficient updates that copies only the
vectors they write, so a scenario sweep reuses a single build; its
:meth:`~ModelInstance.resolve` re-solves warm from the base program's
optimal basis, or from the basis of an earlier warm solve.

Duals follow the sensitivity convention throughout: the marginal of a row
is the derivative of the optimal objective with respect to that row's
right-hand side. For the hourly balance rows this is the zonal electricity
price.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from functools import cached_property
from importlib import import_module
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol

import numpy as np

from .model import VECTORS

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NUMERICAL = "numerical"  # singular/failed solve; never silently "optimal"


class LpLike(Protocol):
    """Anything that exposes the compiled-program arrays."""

    n_cols: int
    n_rows: int
    obj: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    rhs: np.ndarray
    sense: np.ndarray
    a_rows: np.ndarray
    a_cols: np.ndarray
    a_vals: np.ndarray


@dataclass(frozen=True)
class Delta:
    """One pending update against a compiled instance.

    ``kind`` is one of ``obj`` / ``lo`` / ``up`` (column targets), ``rhs``
    (row target) or ``coef`` (matrix cell target, needs row and col).
    """

    kind: str
    col: int | None = None
    row: int | None = None
    value: float = 0.0


@dataclass
class SolveStats:
    """Work of one solve. ``iterations`` counts simplex iterations if any
    were made, else interior-point ones; the per-method counts are read
    from HiGHS on a handle and stay 0 on the ``linprog`` fallback."""

    iterations: int = 0
    wall_time: float = 0.0
    ipm_iterations: int = 0
    crossover_iterations: int = 0
    simplex_iterations: int = 0


@dataclass
class Solution:
    status: str
    objective: float | None = None
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    lower_duals: np.ndarray | None = None
    upper_duals: np.ndarray | None = None
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def is_optimal(self) -> bool:
        return self.status == OPTIMAL

    def level(self, lp, name: str, key: tuple[str, ...] = ()) -> float:
        return float(self.primal[lp.col_index(name, key)])

    def marginal(self, lp, name: str, key: tuple[str, ...] = ()) -> float:
        return float(self.dual[lp.row_index(name, key)])


def _trivial_solution(lp: LpLike) -> Solution | None:
    """Handle programs with no columns without bothering a backend."""
    if lp.n_cols > 0:
        return None
    ok = np.ones(lp.n_rows, dtype=bool)
    ok &= ~((lp.sense == "E") & (lp.rhs != 0.0))
    ok &= ~((lp.sense == "L") & (lp.rhs < 0.0))
    ok &= ~((lp.sense == "G") & (lp.rhs > 0.0))
    if not ok.all():
        return Solution(INFEASIBLE)
    return Solution(OPTIMAL, 0.0, np.zeros(0), np.zeros(lp.n_rows), np.zeros(0), np.zeros(0))


def matrix(lp: LpLike):
    """Assemble the sparse constraint matrix as a scipy CSR matrix, one
    stored element per entry: a program stores each cell as one entry (see
    :func:`_cell_index`)."""
    import scipy.sparse as sp

    return sp.coo_matrix(
        (lp.a_vals, (lp.a_rows, lp.a_cols)), shape=(lp.n_rows, lp.n_cols)
    ).tocsr()


# Above this size the hourly models are degenerate enough that interior
# point with crossover beats the dual simplex by a wide margin; both yield
# basic optimal solutions with full duals.
_IPM_THRESHOLD = 4000

# What the private scipy bindings raise when their members differ from the
# ones used here.
_BINDING_ERRORS = (AttributeError, TypeError, ValueError, RuntimeError)

# scipy's HiGHS binding (scipy >= 1.15). Its package ``__init__`` is empty
# and the extension needs only numpy, but importing it by name runs all of
# ``scipy.optimize/__init__`` first: 0.43 s and 321 scipy modules after
# numpy on a 2-vCPU Xeon VM, against 8 ms to load the file alone.
_CORE = "scipy.optimize._highspy._core"


def _highs_core():
    """scipy's HiGHS binding, loaded from its extension file without
    importing ``scipy.optimize``.

    An entry already in ``sys.modules`` is used as it is (a None entry
    raises ImportError). Where the file is missing (scipy < 1.15) or fails
    to load, any entry it left is removed and the module is imported by
    name, parents first, which raises ImportError where no binding exists."""
    if _CORE not in sys.modules:
        package = find_spec("scipy")
        folders = package.submodule_search_locations if package is not None else None
        files = [Path(folder, "optimize", "_highspy", "_core" + suffix)
                 for folder in folders or () for suffix in EXTENSION_SUFFIXES]
        path = next((f for f in files if f.is_file()), None)
        if path is not None:
            try:
                spec = spec_from_file_location(_CORE, path)
                module = module_from_spec(spec)
                sys.modules[_CORE] = module
                spec.loader.exec_module(module)
                return module
            except (ImportError, OSError, *_BINDING_ERRORS):
                for name in [n for n in sys.modules if n == _CORE or n.startswith(_CORE + ".")]:
                    del sys.modules[name]
    return import_module(_CORE)


def classify_rows(lp: LpLike) -> tuple[np.ndarray, np.ndarray, np.ndarray, bool]:
    """Split rows by sense, dropping vacuous ones with infinite rhs.

    A ``<=`` row with rhs ``+inf`` (or ``>=`` with ``-inf``) constrains
    nothing and is excluded; its dual is zero. Returns (eq, le, ge) masks
    and whether any row is unsatisfiable outright (infinite rhs with the
    wrong sign, or an equality against infinity).
    """
    pos_inf = np.isposinf(lp.rhs)
    neg_inf = np.isneginf(lp.rhs)
    eq = (lp.sense == "E") & np.isfinite(lp.rhs)
    le = (lp.sense == "L") & ~pos_inf
    ge = (lp.sense == "G") & ~neg_inf
    impossible = bool(
        ((lp.sense == "E") & ~np.isfinite(lp.rhs)).any()
        | ((lp.sense == "L") & neg_inf).any()
        | ((lp.sense == "G") & pos_inf).any()
    )
    return eq, le, ge, impossible


class _Cells(NamedTuple):
    """Where each matrix cell's entry is: the one map from cells to entries,
    made once per build (see :func:`_cell_index`). A program stores each
    (row, column) cell as one entry, so the cells are the entries.

    ``order`` lists the entries by column, then row class (``<=``, ``>=``,
    ``=``: the HiGHS model's row order), then row, and ``rank`` is each
    program row's place in class order. The senses and the matrix pattern
    are fixed at build, so the rhs plays no part: dropping vacuous rows
    never reorders the rest. Both arrays are int32."""

    order: np.ndarray
    rank: np.ndarray

    def find(self, lp: LpLike, rows, cols) -> np.ndarray:
        """The entries at program ``rows`` and ``cols``, -1 where the matrix
        has no entry or there is no such row or column. Each call computes
        every cell's key, so callers look up their targets in one batch."""
        rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
        ok = (0 <= rows) & (rows < lp.n_rows) & (0 <= cols) & (cols < lp.n_cols)
        want = np.full(len(rows), -1)
        want[ok] = cols[ok] * lp.n_rows + self.rank[rows[ok]]
        keys = lp.a_cols[self.order].astype(np.int64) * lp.n_rows + self.rank[lp.a_rows[self.order]]  # ascending
        at = np.searchsorted(keys, want)
        return np.where(ok & (np.append(keys, -1)[at] == want), np.append(self.order, -1)[at], -1)


def _cell_index(lp: LpLike) -> _Cells:
    """``lp``'s :class:`_Cells`, made on first use and kept in its
    ``_derived`` store, which every program made from the same build shares
    (a program without that store gets a fresh index). Raises ValueError
    naming the first cell, in index order, stored as more than one entry."""
    derived = getattr(lp, "_derived", {})
    if "cells" not in derived:
        # A permutation's argsort is its inverse: each row's place in class order.
        rank = np.argsort(np.concatenate([np.flatnonzero(lp.sense == s) for s in "LGE"])).astype(np.int32)
        key = lp.a_cols.astype(np.int64) * lp.n_rows + rank[lp.a_rows]
        order = np.argsort(key, kind="stable")
        repeated = np.flatnonzero(np.diff(key[order]) == 0)
        if repeated.size:
            entry = order[repeated[0]]
            raise ValueError(f"matrix cell (row {lp.a_rows[entry]}, column {lp.a_cols[entry]}) "
                             "is stored as more than one entry")
        derived["cells"] = _Cells(order.astype(np.int32), rank)
    return derived["cells"]


@dataclass
class _HighsModel:
    """A program in the row layout ``linprog`` hands to HiGHS, and the HiGHS
    solver a cold solve of it uses. Model row ``k`` is program row
    ``rows[k]`` times ``sign[k]``: the ``<=`` rows, then the ``>=`` rows
    negated (these first ``n_ub`` rows are bounded above only), then the
    ``=`` rows. Vacuous rows are left out. The matrix is held column-wise,
    in :func:`_cell_index` order: column ``j``'s entries are
    ``start[j]:start[j + 1]`` of ``index`` (model rows, ascending) and
    ``value``, the program's entries, one per cell, zeros kept. A handle
    drops the matrix once HiGHS has copied it (see :func:`_open_handle`)."""

    rows: np.ndarray
    sign: np.ndarray
    n_ub: int
    start: np.ndarray | None
    index: np.ndarray | None
    value: np.ndarray | None
    method: str

    def bounds(self, k: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper bounds of model rows ``k`` at program rhs ``rhs``."""
        upper = rhs * self.sign[k]
        return np.where(k < self.n_ub, -np.inf, upper), upper


def _highs_model(lp: LpLike) -> _HighsModel | None:
    """``lp`` in ``linprog``'s row layout; None if a row is unsatisfiable."""
    eq, le, ge, impossible = classify_rows(lp)
    if impossible:
        return None
    # The model rows and signs are held while HiGHS runs, so they are held small.
    rows = np.concatenate([np.flatnonzero(le), np.flatnonzero(ge), np.flatnonzero(eq)]).astype(np.int32)
    n_le, n_ub = int(le.sum()), int(le.sum() + ge.sum())
    sign = np.ones(len(rows), dtype=np.int8)
    sign[n_le:n_ub] = -1
    position = np.full(lp.n_rows, -1, dtype=np.int32)
    position[rows] = np.arange(len(rows))
    order = _cell_index(lp).order
    kept = order[position[lp.a_rows[order]] >= 0]  # the entries of vacuous rows are left out
    index = position[lp.a_rows[kept]]
    value = lp.a_vals[kept] * sign[index]
    start = np.r_[0, np.cumsum(np.bincount(lp.a_cols[kept], minlength=lp.n_cols))].astype(np.int32)
    method = "ipm" if lp.n_rows + lp.n_cols > _IPM_THRESHOLD else "simplex"
    return _HighsModel(rows, sign, n_ub, start, index, value, method)


# HiGHS model statuses as linprog reads them; any other is numerical.
_HIGHS_STATUS = {"kInfeasible": INFEASIBLE, "kModelError": INFEASIBLE, "kUnbounded": UNBOUNDED}


def _status_array(statuses) -> np.ndarray:
    """HiGHS basis statuses as an int8 array, equal to ``np.array(statuses,
    dtype=np.int8)`` but read through one bytes object: 3.3 ms against 4.7
    ms for the 4,740 column and 5,484 row statuses of a 24 h sweep base
    (2-vCPU Xeon VM)."""
    return np.frombuffer(bytes(map(int, statuses)), np.int8)


def basis_statuses(basis) -> tuple[np.ndarray, np.ndarray]:
    """A HiGHS basis as the int8 arrays of its column and row statuses: the
    form in which a basis crosses processes (see :meth:`ModelInstance.resolve`)."""
    return _status_array(basis.col_status), _status_array(basis.row_status)


def _optimal(lp: LpLike, model: _HighsModel, objective, primal, row_dual, lower, upper, stats) -> Solution:
    """An optimal solution of ``lp`` from one of ``model``: duals un-permuted."""
    dual = np.zeros(lp.n_rows)
    dual[model.rows] = np.asarray(row_dual, dtype=float) * model.sign
    primal, lower, upper = (np.asarray(x, dtype=float) for x in (primal, lower, upper))
    return Solution(OPTIMAL, float(objective), primal, dual, lower, upper, stats)


def _open_handle(core, lp: LpLike, model: _HighsModel):
    """A new HiGHS handle holding ``model`` with ``linprog``'s options; None
    if HiGHS rejects the model. ``model`` then drops its matrix: HiGHS holds
    its own copy."""
    highs = core._Highs()
    for option, value in (("output_flag", False), ("presolve", "on"), ("solver", model.method),
                          ("simplex_strategy", 1)):  # 1: dual simplex
        highs.setOptionValue(option, value)
    n_rows = len(model.rows)
    hlp = core.HighsLp()
    hlp.num_col_, hlp.num_row_ = lp.n_cols, n_rows
    hlp.col_cost_, hlp.col_lower_, hlp.col_upper_ = lp.obj, lp.lo, lp.hi
    hlp.row_lower_, hlp.row_upper_ = model.bounds(np.arange(n_rows), lp.rhs[model.rows])
    m = hlp.a_matrix_
    m.format_, m.num_col_, m.num_row_ = core.MatrixFormat.kColwise, lp.n_cols, n_rows
    m.start_, m.index_, m.value_ = model.start, model.index, model.value
    status = highs.passModel(hlp)
    model.start = model.index = model.value = None
    return None if status == core.HighsStatus.kError else highs


def _run(core, highs, lp: LpLike, model: _HighsModel) -> Solution:
    """Run the handle and read its result back in program row order."""
    start = time.perf_counter()
    highs.run()
    elapsed = time.perf_counter() - start
    info = highs.getInfo()
    ipm, crossover, simplex = (int(n) for n in (
        info.ipm_iteration_count, info.crossover_iteration_count, info.simplex_iteration_count))
    stats = SolveStats(simplex or ipm, elapsed, ipm, crossover, simplex)
    status = highs.getModelStatus()
    if status != core.HighsModelStatus.kOptimal:
        return Solution(_HIGHS_STATUS.get(status.name, NUMERICAL), stats=stats)
    result = highs.getSolution()
    col_status = _status_array(highs.getBasis().col_status)
    col_dual = np.asarray(result.col_dual, dtype=float)
    lower = np.where(col_status == int(core.HighsBasisStatus.kLower), col_dual, 0.0)
    upper = np.where(col_status == int(core.HighsBasisStatus.kUpper), col_dual, 0.0)
    return _optimal(lp, model, info.objective_function_value, result.col_value, result.row_dual, lower, upper, stats)


def _solve_linprog(lp: LpLike, model: _HighsModel) -> Solution:
    """``scipy.optimize.linprog`` on the same layout: the fallback."""
    import scipy.sparse as sp
    from scipy.optimize import linprog

    n_rows = len(model.rows)
    _, upper = model.bounds(np.arange(n_rows), lp.rhs[model.rows])
    a = sp.csc_matrix((model.value, model.index, model.start), shape=(n_rows, lp.n_cols))
    ub, eq, blocks = slice(None, model.n_ub), slice(model.n_ub, None), {}
    if model.n_ub:
        blocks.update(A_ub=a[ub], b_ub=upper[ub])
    if n_rows > model.n_ub:
        blocks.update(A_eq=a[eq], b_eq=upper[eq])
    method = {"ipm": "highs-ipm", "simplex": "highs-ds"}[model.method]
    start = time.perf_counter()
    res = linprog(lp.obj, bounds=np.column_stack([lp.lo, lp.hi]), method=method, **blocks)
    stats = SolveStats(int(getattr(res, "nit", 0) or 0), time.perf_counter() - start)
    if res.status != 0:
        return Solution({2: INFEASIBLE, 3: UNBOUNDED}.get(res.status, NUMERICAL), stats=stats)
    row_dual = np.concatenate([res.ineqlin.marginals, res.eqlin.marginals])
    return _optimal(lp, model, res.fun, res.x, row_dual, res.lower.marginals, res.upper.marginals, stats)


def _solve_highs(lp: LpLike) -> Solution:
    """A cold solve on a fresh HiGHS handle, bit for bit what ``linprog``
    returns; ``linprog`` runs instead for scipy before 1.15, which bundles
    no HiGHS object, or when the private bindings raise. (``linprog``'s row
    order is the faster one: 9.1–9.3 s against 10.4 s in natural order on
    the 168 h benchmark investment LP.)"""
    return _cold_highs(lp)[0]


def _cold_highs(lp: LpLike) -> tuple[Solution, object]:
    """:func:`_solve_highs`, and the handle's optimal basis: None if the
    solve is not optimal, left no valid basis or ran on ``linprog``."""
    model = _highs_model(lp)
    if model is None:
        return Solution(INFEASIBLE), None
    try:
        core = _highs_core()
        highs = _open_handle(core, lp, model)
        if highs is None:
            return Solution(INFEASIBLE), None
        sol, basis = _run(core, highs, lp, model), highs.getBasis()
        return sol, basis if sol.is_optimal and basis.valid else None
    except (ImportError, *_BINDING_ERRORS):
        return _solve_linprog(lp, _highs_model(lp)), None


def _solve_dense(lp: LpLike) -> Solution:
    from . import simplex

    return simplex.solve_dense(lp)

BACKENDS = {"highs": _solve_highs, "dense": _solve_dense}


def solve(lp: LpLike, backend: str = "highs") -> Solution:
    """Solve from scratch; deterministic for identical input arrays."""
    trivial = _trivial_solution(lp)
    if trivial is not None:
        return trivial
    try:
        runner = BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown solver backend {backend!r}") from None
    return runner(lp)


_UNOPENED = object()


def _basis(core, statuses):
    """The HiGHS basis with these column and row statuses (int8 arrays)."""
    members = {int(status): status for status in core.HighsBasisStatus.__members__.values()}
    basis = core.HighsBasis()
    cols, rows = statuses
    basis.col_status = [members[k] for k in cols.tolist()]
    basis.row_status = [members[k] for k in rows.tolist()]
    basis.valid, basis.alien, basis.was_alien = True, False, False
    return basis


class _WarmStart:
    """A persistent HiGHS handle on a base program and its optimal basis.

    Each warm solve pushes the difference between the current program and
    the base into the handle, re-solves with primal simplex from the base
    basis or a given start basis, and restores the base program, so a run's
    result depends only on its program and its start, whatever ran before.
    """

    def __init__(self, core, highs, base, model: _HighsModel, basis):
        self.core, self.highs, self.base, self.model, self.basis = core, highs, base, model, basis
        self.solved = None  # the basis of the last optimal warm solve

    @classmethod
    def open(cls, inst: "ModelInstance", statuses=None) -> "_WarmStart | None":
        """Solve the as-compiled program cold and keep the handle and its
        optimal basis, or, given that basis's ``statuses`` (see
        :func:`basis_statuses`), take it without a solve: the handle runs
        once from it, making no iterations. None if unusable."""
        core = _highs_core()
        base = inst._base
        if base.n_cols == 0 or base.n_rows == 0 or not np.isfinite(base.rhs).all():
            return None
        model = _highs_model(base)  # every row is in it: all rhs are finite
        highs = _open_handle(core, base, model)
        if highs is None:
            return None
        if statuses is None:
            if not _run(core, highs, base, model).is_optimal:
                return None
            basis = highs.getBasis()
            if not basis.valid:
                return None
        else:
            basis = _basis(core, statuses)
        highs.setOptionValue("solver", "simplex")
        # Primal simplex: a cost-only change leaves the base basis primal
        # feasible; over a 32-row, 24 h cost sweep it needed 2.9 s against
        # 7.0 s for dual simplex.
        highs.setOptionValue("simplex_strategy", 4)
        # A guard, not a tuning. Started from their tree parents' bases, the
        # rows of the 32-row, 24 h benchmark sweep (5,484 rows) need at most
        # 0.25 (seed 1) and 0.77 (seed 2) of the row count in iterations;
        # from the base basis they needed up to 0.60 and 0.78. Quartering
        # example1's Li-ion cost at 48 h needs 1.6 times it from the base
        # (6.0 s against 1.4 s cold). Past the limit the row is solved cold.
        highs.setOptionValue("simplex_iteration_limit", base.n_rows)
        if statuses is not None:
            # One run from the given basis, which makes no iterations, as a
            # handle that solved the base has run: HiGHS keeps some of what
            # it derives from the model at a handle's first run, so without
            # it a row with coefficient deltas solved first would change the
            # later rows (on example1 at 24 h, swapping DE's solar
            # availability for its wind took 4,602 warm iterations on such a
            # handle against 4,290 on the one that solved the base).
            highs.setBasis(basis)
            if not _run(core, highs, base, model).is_optimal:
                return None
        warm = cls(core, highs, base, model, basis)
        if statuses is not None:
            warm.statuses = statuses
        return warm

    @cached_property
    def statuses(self) -> tuple[np.ndarray, np.ndarray]:
        """The statuses of the base basis (see :func:`basis_statuses`): the
        ones the handle was opened with, else read from the basis once."""
        return basis_statuses(self.basis)

    def _load(self, diff, lp, coefficients) -> None:
        """Push ``lp``'s values at the ``diff`` positions, and the model
        ``coefficients`` of its cells, into the handle."""
        cols, bounded, rows, (cell_rows, cell_cols) = diff
        highs = self.highs
        if cols.size:
            highs.changeColsCost(cols.size, cols, lp.obj[cols])
        if bounded.size:
            highs.changeColsBounds(bounded.size, bounded, lp.lo[bounded], lp.hi[bounded])
        # Every base row is in the model (all rhs are finite), so a row's
        # model row is its place in class order.
        k = _cell_index(self.base).rank[rows]
        lower, upper = self.model.bounds(k, lp.rhs[rows])
        for r, lw, up in zip(k.tolist(), lower.tolist(), upper.tolist()):
            highs.changeRowBounds(r, lw, up)
        for r, col, value in zip(cell_rows.tolist(), cell_cols.tolist(), coefficients.tolist()):
            highs.changeCoeff(r, col, value)

    def solve(self, lp, start=None) -> Solution | None:
        """Warm-solve ``lp`` (the instance's program) from ``start``, a basis
        of this program or its statuses (see :func:`basis_statuses`), or
        from the base basis; None unless optimal. An optimal solve leaves its
        basis in :attr:`solved`."""
        if not np.isfinite(lp.rhs).all():
            return None
        if isinstance(start, tuple):
            start = _basis(self.core, start)
        base = self.base
        # The changed entries, one per cell, are pushed in model matrix order.
        changed = np.flatnonzero(lp.a_vals != base.a_vals)
        k, cols = _cell_index(base).rank[base.a_rows[changed]], base.a_cols[changed]
        in_order = np.lexsort((k, cols))
        k, cols, changed = k[in_order], cols[in_order], changed[in_order]
        values, before = (v[changed] * self.model.sign[k] for v in (lp.a_vals, base.a_vals))
        diff = (
            np.flatnonzero(lp.obj != base.obj).astype(np.int32),
            np.flatnonzero((lp.lo != base.lo) | (lp.hi != base.hi)).astype(np.int32),
            np.flatnonzero(lp.rhs != base.rhs),
            (k, cols),
        )
        highs = self.highs
        try:
            self._load(diff, lp, values)
            highs.clearSolver()
            highs.setBasis(self.basis if start is None else start)
            sol = _run(self.core, highs, lp, self.model)
            if sol.is_optimal:
                self.solved = highs.getBasis()
        finally:
            self._load(diff, base, before)
        return sol if sol.is_optimal else None


class ModelInstance:
    """One built program plus a resettable overlay of pending updates.

    The build is the instance's base and is never written in place. ``lp``,
    which carries the overlay, shares every array with the build until a
    delta writes one of its vectors (``obj``, ``lo``, ``hi``, ``rhs``,
    ``a_vals``), which it then copies; :meth:`reset` gives back only the
    copied vectors, so an instance holds no array the rows leave unchanged.
    """

    def __init__(self, lp, backend: str = "highs"):
        self._base = lp
        self.lp = lp.replace()
        self.backend = backend
        self._warm: _WarmStart | None | object = _UNOPENED
        self.basis = None  # the optimal basis of the last resolve, if it was warm

    def _written(self) -> dict[str, np.ndarray]:
        """The overlay's own vectors: the ones a delta wrote since :meth:`reset`."""
        lp, base = self.lp, self._base
        return {name: getattr(lp, name) for name in VECTORS if getattr(lp, name) is not getattr(base, name)}

    def _vector(self, name: str) -> np.ndarray:
        """The overlay's vector ``name`` to write, copied from the build first
        if the overlay still shares it."""
        vector = getattr(self.lp, name)
        if vector is getattr(self._base, name):
            vector = vector.copy()
            setattr(self.lp, name, vector)
        return vector

    def reset(self) -> None:
        """Drop the overlay: restore the program exactly as compiled."""
        for name in self._written():
            setattr(self.lp, name, getattr(self._base, name))

    def apply(self, deltas: Iterable[Delta]) -> None:
        """Apply updates to the overlay, validating every target first."""
        deltas = list(deltas)
        lp = self.lp
        coefs = [(-1 if d.row is None else d.row, -1 if d.col is None else d.col) for d in deltas if d.kind == "coef"]
        coef_entries = _cell_index(lp).find(lp, *np.reshape(coefs, (-1, 2)).T).tolist() if coefs else []
        found = iter(coef_entries)
        for d in deltas:
            if d.kind in ("obj", "lo", "up"):
                if d.col is None or not 0 <= d.col < lp.n_cols:
                    raise KeyError(f"delta targets unknown column {d.col}")
            elif d.kind == "rhs":
                if d.row is None or not 0 <= d.row < lp.n_rows:
                    raise KeyError(f"delta targets unknown row {d.row}")
            elif d.kind == "coef":
                if next(found) < 0:
                    raise KeyError(f"delta targets unknown coefficient ({d.row}, {d.col})")
            else:
                raise ValueError(f"unknown delta kind {d.kind!r}")

        coef_entries = iter(coef_entries)
        touched_cols: set[int] = set()
        for d in deltas:
            if d.kind == "obj":
                self._vector("obj")[d.col] = d.value
            elif d.kind == "lo":
                self._vector("lo")[d.col] = d.value
                touched_cols.add(d.col)
            elif d.kind == "up":
                self._vector("hi")[d.col] = d.value
                touched_cols.add(d.col)
            elif d.kind == "rhs":
                self._vector("rhs")[d.row] = d.value
            elif d.kind == "coef":
                self._vector("a_vals")[next(coef_entries)] = d.value
        for col in touched_cols:
            if lp.lo[col] > lp.hi[col]:
                raise ValueError(
                    f"delta produces lo > hi on {lp.col_label(col)}: "
                    f"[{lp.lo[col]}, {lp.hi[col]}]"
                )

    def snapshot(self):
        """The current program, safe from later updates: a copy of each
        vector the overlay wrote, sharing every other array with the build.

        Results that outlive the next :meth:`apply` must hold a snapshot,
        never ``self.lp``, whose own vectors are written in place.
        """
        return self.lp.replace(**{name: vector.copy() for name, vector in self._written().items()})

    def open(self, statuses=None):
        """Open the warm handle of :meth:`resolve` now, unless it is open:
        solve the as-compiled program cold, as :func:`solve` does, or, given
        the ``statuses`` of its optimal basis (see :func:`basis_statuses`),
        take that basis without a solve. Returns the statuses of the
        handle's base basis (the given ones, if it was opened with them),
        None if there is no handle (no bundled HiGHS object, the ``dense``
        backend, a row with infinite rhs, a base that is not solved to
        optimality)."""
        warm = self._open(statuses)
        return None if warm is None else warm.statuses

    def _open(self, statuses=None) -> _WarmStart | None:
        if self._warm is _UNOPENED:
            if self.backend == "highs":
                # A repeated cell raises here: the handler below would take
                # its ValueError for a binding's and drop the handle.
                _cell_index(self._base)
            try:
                self._warm = _WarmStart.open(self, statuses) if self.backend == "highs" else None
            except (ImportError, *_BINDING_ERRORS):
                # scipy < 1.15 bundles no HiGHS object, and the private
                # bindings' members vary between releases; a handle that
                # cannot be built or driven, or whose state is unknown after
                # a failure, is dropped for good.
                self._warm = None
        return self._warm

    def resolve(self, start=None) -> Solution:
        """Solve the current program warm from the base basis, else cold.

        The first call opens the warm handle (:meth:`open`) unless it is
        open. Each call pushes the overlay into the handle, runs primal
        simplex from the base basis, or from ``start`` (the :attr:`basis`
        left by an earlier call on this program, or its statuses), and
        restores the base program. :attr:`basis` then holds the optimal
        basis of the returned solution if it was solved warm, and None if
        not. The warm solution is returned only if it is optimal and
        certifies at 1e-6; otherwise (no handle, a handle whose members
        differ from those used here, a row with infinite rhs, a warm solve
        that fails, hits its iteration limit or does not certify) the
        program is solved cold, bit for bit as :func:`solve` solves it; a
        cold optimum that does not certify at 1e-6 either comes back
        ``numerical``, so every optimal result of this method is certified.
        A cold fallback on a program whose rhs are all finite, with the
        handle open, runs on a fresh handle whose optimal basis it keeps in
        :attr:`basis`: it has the handle's row layout, so a later call can
        start from it. A single call on a fresh instance therefore costs a
        base solve on top of its own; callers that solve once should use
        :func:`solve`.
        """
        self.basis = None
        warm = self._open()
        try:
            sol = warm.solve(self.lp, start) if warm is not None else None
        except (ImportError, *_BINDING_ERRORS):
            self._warm, sol = None, None  # dropped for good, as in :meth:`_open`
        if sol is not None and certify(self.lp, sol).ok(1e-6):
            self.basis = warm.solved
            return sol
        if self._warm is None or not np.isfinite(self.lp.rhs).all():
            return certified(self.lp, solve(self.lp, self.backend))
        sol, basis = _cold_highs(self.lp)
        sol = certified(self.lp, sol)
        self.basis = basis if sol.is_optimal else None
        return sol

    def update_and_resolve(self, deltas: Iterable[Delta]) -> Solution:
        self.apply(deltas)
        return self.resolve()


def certified(lp, sol: Solution) -> Solution:
    """``sol``, or ``numerical`` if it is optimal but fails :func:`certify` at 1e-6."""
    if sol.is_optimal and not certify(lp, sol).ok(1e-6):
        return Solution(NUMERICAL, stats=sol.stats)
    return sol


# ``compile(lp, backend)`` makes a program's repeatedly solvable instance, and
# ``update_and_resolve(instance, deltas)`` applies and re-solves: thin aliases.
compile = ModelInstance  # noqa: A001 - domain verb
update_and_resolve = ModelInstance.update_and_resolve


@dataclass
class Certificate:
    """Numerical quality of an optimal solution, all residuals scaled."""

    primal_residual: float  # worst row violation / max(1, |rhs|)
    bound_residual: float
    duality_gap: float  # |primal obj - dual obj| / max(1, |obj|)
    complementarity: float

    def ok(self, tol: float = 1e-6) -> bool:
        return (
            self.primal_residual <= tol
            and self.bound_residual <= tol
            and self.duality_gap <= tol
            and self.complementarity <= tol
        )


def certify(lp: LpLike, sol: Solution) -> Certificate:
    """Check feasibility, strong duality and complementary slackness."""
    if not sol.is_optimal:
        raise ValueError(f"cannot certify a solution with status {sol.status!r}")
    x = sol.primal
    ax = np.bincount(lp.a_rows, weights=lp.a_vals * x[lp.a_cols], minlength=lp.n_rows)
    scale_r = np.maximum(1.0, np.abs(lp.rhs))
    viol = np.zeros(lp.n_rows)
    eq = lp.sense == "E"
    le = lp.sense == "L"
    ge = lp.sense == "G"
    viol[eq] = np.abs(ax[eq] - lp.rhs[eq])
    viol[le] = np.maximum(0.0, ax[le] - lp.rhs[le])
    viol[ge] = np.maximum(0.0, lp.rhs[ge] - ax[ge])
    primal_residual = float((viol / scale_r).max()) if lp.n_rows else 0.0

    scale_x = np.maximum(1.0, np.abs(x)) if lp.n_cols else np.ones(0)
    bound_violation = np.maximum(
        np.maximum(lp.lo - x, x - lp.hi), 0.0
    )
    bound_residual = float((bound_violation / scale_x).max()) if lp.n_cols else 0.0

    lam_lo = sol.lower_duals if sol.lower_duals is not None else np.zeros(lp.n_cols)
    lam_hi = sol.upper_duals if sol.upper_duals is not None else np.zeros(lp.n_cols)
    y = sol.dual if sol.dual is not None else np.zeros(lp.n_rows)
    finite_lo = np.isfinite(lp.lo)
    finite_hi = np.isfinite(lp.hi)
    finite_rhs = np.isfinite(lp.rhs)  # vacuous rows carry zero duals
    dual_obj = float(y[finite_rhs] @ lp.rhs[finite_rhs])
    dual_obj += float(lam_lo[finite_lo] @ lp.lo[finite_lo])
    dual_obj += float(lam_hi[finite_hi] @ lp.hi[finite_hi])
    gap = abs(sol.objective - dual_obj) / max(1.0, abs(sol.objective))

    comp = 0.0
    ineq = (le | ge) & finite_rhs
    if ineq.any():
        slack = np.abs(ax[ineq] - lp.rhs[ineq])
        comp = float(np.max(np.abs(y[ineq]) * slack / scale_r[ineq]))
    if lp.n_cols:
        comp = max(
            comp,
            float(np.max(np.abs(lam_lo[finite_lo]) * np.abs(x - lp.lo)[finite_lo] / scale_x[finite_lo], initial=0.0)),
            float(np.max(np.abs(lam_hi[finite_hi]) * np.abs(lp.hi - x)[finite_hi] / scale_x[finite_hi], initial=0.0)),
        )
    return Certificate(primal_residual, bound_residual, float(gap), comp)

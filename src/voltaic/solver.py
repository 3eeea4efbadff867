"""Solve compiled linear programs and re-solve them after in-place updates.

Two interchangeable backends sit behind the same interface: ``highs`` (the
default, scipy's HiGHS: dual simplex up to 4,000 rows plus columns,
interior point with crossover above) and ``dense`` (the self-contained
tableau simplex in :mod:`voltaic.simplex`, used as an independent
cross-check on small instances). :func:`solve` always starts cold. A
:class:`ModelInstance` keeps copies of one built program's arrays plus a
mutable overlay of bound/cost/rhs/coefficient updates, so a scenario sweep
reuses a single build. Its :meth:`~ModelInstance.resolve` keeps a
persistent HiGHS handle on the as-compiled program and re-solves each
overlay with primal simplex from the base program's optimal basis; a warm
result that is not optimal or does not certify is replaced by a cold solve.
Where the program has alternative optima, a warm solve may pick a different
optimal vertex than a cold one: objectives and prices agree, levels such
as capacities need not.

Duals follow the sensitivity convention throughout: the marginal of a row
is the derivative of the optimal objective with respect to that row's
right-hand side. For the hourly balance rows this is the zonal electricity
price.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Protocol

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

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
    iterations: int = 0
    wall_time: float = 0.0


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
    lhs = np.zeros(lp.n_rows)
    ok = np.ones(lp.n_rows, dtype=bool)
    ok &= ~((lp.sense == "E") & (lp.rhs != 0.0))
    ok &= ~((lp.sense == "L") & (lp.rhs < 0.0))
    ok &= ~((lp.sense == "G") & (lp.rhs > 0.0))
    if not ok.all():
        return Solution(INFEASIBLE)
    return Solution(OPTIMAL, 0.0, np.zeros(0), np.zeros(lp.n_rows), np.zeros(0), np.zeros(0))


def matrix(lp: LpLike) -> sp.csr_matrix:
    """Assemble the sparse constraint matrix (duplicate cells are summed)."""
    return sp.coo_matrix(
        (lp.a_vals, (lp.a_rows, lp.a_cols)), shape=(lp.n_rows, lp.n_cols)
    ).tocsr()


# Above this size the hourly models are degenerate enough that interior
# point with crossover beats the dual simplex by a wide margin; both yield
# basic optimal solutions with full duals.
_IPM_THRESHOLD = 4000


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


def _solve_highs(lp: LpLike) -> Solution:
    a = matrix(lp)
    eq, le, ge, impossible = classify_rows(lp)
    if impossible:
        return Solution(INFEASIBLE)
    n_le = int(le.sum())

    blocks = []
    if n_le:
        blocks.append(a[le])
    if ge.any():
        blocks.append(-a[ge])
    a_ub = sp.vstack(blocks, format="csr") if blocks else None
    b_ub = np.concatenate([lp.rhs[le], -lp.rhs[ge]]) if blocks else None
    a_eq = a[eq] if eq.any() else None
    b_eq = lp.rhs[eq] if eq.any() else None

    method = "highs-ipm" if lp.n_rows + lp.n_cols > _IPM_THRESHOLD else "highs-ds"
    start = time.perf_counter()
    res = linprog(
        lp.obj,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=np.column_stack([lp.lo, lp.hi]),
        method=method,
    )
    elapsed = time.perf_counter() - start
    stats = SolveStats(iterations=int(getattr(res, "nit", 0) or 0), wall_time=elapsed)

    if res.status == 2:
        return Solution(INFEASIBLE, stats=stats)
    if res.status == 3:
        return Solution(UNBOUNDED, stats=stats)
    if res.status != 0:
        return Solution(NUMERICAL, stats=stats)

    dual = np.zeros(lp.n_rows)
    if eq.any():
        dual[np.nonzero(eq)[0]] = res.eqlin.marginals
    if blocks is not None and (n_le or ge.any()):
        ub_marg = res.ineqlin.marginals
        if n_le:
            dual[np.nonzero(le)[0]] = ub_marg[:n_le]
        if ge.any():
            dual[np.nonzero(ge)[0]] = -ub_marg[n_le:]
    return Solution(
        OPTIMAL,
        objective=float(res.fun),
        primal=np.asarray(res.x, dtype=float),
        dual=dual,
        lower_duals=np.asarray(res.lower.marginals, dtype=float),
        upper_duals=np.asarray(res.upper.marginals, dtype=float),
        stats=stats,
    )


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


def _row_bounds(sense: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """HiGHS row bounds ``lower <= a x <= upper`` of sense/rhs rows."""
    lower = np.where(sense == "L", -np.inf, rhs)
    upper = np.where(sense == "G", np.inf, rhs)
    return lower, upper


class _WarmStart:
    """A persistent HiGHS handle on a base program and its optimal basis.

    Each warm solve pushes the difference between the current program and
    the base into the handle, re-solves from the base basis with primal
    simplex and restores the base program, so every run starts from the
    same handle state whatever ran before it.
    """

    def __init__(self, core, highs, inst: "ModelInstance", basis, cell_row, cell_col, cell_of, base_cells):
        self.core = core
        self.highs = highs
        self.inst = inst
        self.basis = basis
        self.cell_row = cell_row
        self.cell_col = cell_col
        self.cell_of = cell_of  # entry position -> cell
        self.base_cells = base_cells

    @classmethod
    def open(cls, inst: "ModelInstance") -> "_WarmStart | None":
        """Solve the as-compiled program cold on a new handle; None if unusable."""
        try:
            import scipy.optimize._highspy._core as core
        except ImportError:  # scipy < 1.15 bundles no HiGHS object
            return None
        lp = inst.lp
        if lp.n_cols == 0 or lp.n_rows == 0 or not np.isfinite(inst._base_rhs).all():
            return None
        # Duplicate entries of one cell are summed into one HiGHS entry.
        cells, cell_of, _, _ = inst._cell_index()
        cell_row = (cells % lp.n_rows).astype(np.int32)
        cell_col = (cells // lp.n_rows).astype(np.int32)
        base_cells = np.bincount(cell_of, weights=inst._base_vals, minlength=len(cells))
        model = core.HighsLp()
        model.num_col_ = lp.n_cols
        model.num_row_ = lp.n_rows
        model.col_cost_ = inst._base_obj
        model.col_lower_ = inst._base_lo
        model.col_upper_ = inst._base_hi
        model.row_lower_, model.row_upper_ = _row_bounds(lp.sense, inst._base_rhs)
        matrix_ = model.a_matrix_
        matrix_.format_ = core.MatrixFormat.kColwise
        matrix_.num_col_ = lp.n_cols
        matrix_.num_row_ = lp.n_rows
        matrix_.start_ = np.searchsorted(cell_col, np.arange(lp.n_cols + 1)).astype(np.int32)
        matrix_.index_ = cell_row
        matrix_.value_ = base_cells

        highs = core._Highs()
        highs.setOptionValue("output_flag", False)
        ipm = lp.n_rows + lp.n_cols > _IPM_THRESHOLD
        if ipm:
            highs.setOptionValue("solver", "ipm")
        else:
            highs.setOptionValue("solver", "simplex")
            highs.setOptionValue("simplex_strategy", 1)  # dual, as highs-ds
        if highs.passModel(model) == core.HighsStatus.kError:
            return None
        highs.run()
        if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
            return None
        basis = highs.getBasis()
        if not basis.valid:
            return None
        highs.setOptionValue("solver", "simplex")
        # Primal simplex: a cost-only change leaves the base basis primal
        # feasible; over a 32-row, 24 h cost sweep it needed 2.9 s against
        # 7.0 s for dual simplex.
        highs.setOptionValue("simplex_strategy", 4)
        # A guard, not a tuning: no row of the 32-row, 24 h benchmark sweep
        # needs more than two thirds of the row count in iterations, while
        # quartering example1's Li-ion cost at 48 h needs 1.6 times it
        # (6.0 s against 1.4 s cold). Past the limit the row is solved cold.
        highs.setOptionValue("simplex_iteration_limit", lp.n_rows)
        return cls(core, highs, inst, basis, cell_row, cell_col, cell_of, base_cells)

    def _load(self, diff, obj, lo, hi, rhs, cell_values) -> None:
        cols, bounded, rows, cells = diff
        highs = self.highs
        if cols.size:
            highs.changeColsCost(cols.size, cols, obj[cols])
        if bounded.size:
            highs.changeColsBounds(bounded.size, bounded, lo[bounded], hi[bounded])
        if rows.size:
            lower, upper = _row_bounds(self.inst.lp.sense[rows], rhs[rows])
            for r, lw, up in zip(rows.tolist(), lower.tolist(), upper.tolist()):
                highs.changeRowBounds(r, lw, up)
        for c in cells.tolist():
            highs.changeCoeff(int(self.cell_row[c]), int(self.cell_col[c]), float(cell_values[c]))

    def solve(self, lp) -> Solution | None:
        """Warm-solve ``lp`` (the instance's program); None unless optimal."""
        if not np.isfinite(lp.rhs).all():
            return None
        inst = self.inst
        diff = (
            np.flatnonzero(lp.obj != inst._base_obj).astype(np.int32),
            np.flatnonzero((lp.lo != inst._base_lo) | (lp.hi != inst._base_hi)).astype(np.int32),
            np.flatnonzero(lp.rhs != inst._base_rhs),
            np.unique(self.cell_of[lp.a_vals != inst._base_vals]),
        )
        cell_values = (
            np.bincount(self.cell_of, weights=lp.a_vals, minlength=len(self.base_cells))
            if diff[3].size
            else self.base_cells
        )
        core, highs = self.core, self.highs
        try:
            self._load(diff, lp.obj, lp.lo, lp.hi, lp.rhs, cell_values)
            highs.clearSolver()
            highs.setBasis(self.basis)
            start = time.perf_counter()
            highs.run()
            elapsed = time.perf_counter() - start
            if highs.getModelStatus() != core.HighsModelStatus.kOptimal:
                return None
            result = highs.getSolution()
            status = np.array(highs.getBasis().col_status, dtype=np.int8)
            info = highs.getInfo()
        finally:
            self._load(diff, inst._base_obj, inst._base_lo, inst._base_hi, inst._base_rhs, self.base_cells)
        col_dual = np.asarray(result.col_dual, dtype=float)
        return Solution(
            OPTIMAL,
            objective=float(info.objective_function_value),
            primal=np.asarray(result.col_value, dtype=float),
            dual=np.asarray(result.row_dual, dtype=float),
            lower_duals=np.where(status == int(core.HighsBasisStatus.kLower), col_dual, 0.0),
            upper_duals=np.where(status == int(core.HighsBasisStatus.kUpper), col_dual, 0.0),
            stats=SolveStats(iterations=int(info.simplex_iteration_count), wall_time=elapsed),
        )


class ModelInstance:
    """One compiled program plus a resettable overlay of pending updates.

    The instance owns private copies of the mutable arrays; the base values
    are retained so :meth:`reset` restores the exact as-compiled program
    without recompiling.
    """

    def __init__(self, lp, backend: str = "highs"):
        self.lp = lp.copy()
        self.backend = backend
        self._base_obj = lp.obj.copy()
        self._base_lo = lp.lo.copy()
        self._base_hi = lp.hi.copy()
        self._base_rhs = lp.rhs.copy()
        self._base_vals = lp.a_vals.copy()
        self._cells: tuple[np.ndarray, ...] | None = None
        self._warm: _WarmStart | None | object = _UNOPENED

    def reset(self) -> None:
        """Drop the overlay: restore the program exactly as compiled."""
        np.copyto(self.lp.obj, self._base_obj)
        np.copyto(self.lp.lo, self._base_lo)
        np.copyto(self.lp.hi, self._base_hi)
        np.copyto(self.lp.rhs, self._base_rhs)
        np.copyto(self.lp.a_vals, self._base_vals)

    def _cell_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The matrix cells: sorted column-major ids (``col * n_rows + row``),
        each entry's cell, and the entries of cell ``k`` in entry order as
        ``order[starts[k]:starts[k + 1]]``."""
        if self._cells is None:
            lp = self.lp
            cells, cell_of = np.unique(
                lp.a_cols.astype(np.int64) * lp.n_rows + lp.a_rows, return_inverse=True
            )
            order = np.argsort(cell_of, kind="stable")
            starts = np.searchsorted(cell_of[order], np.arange(len(cells) + 1))
            self._cells = (cells, cell_of, order, starts)
        return self._cells

    def _cell(self, row, col) -> int | None:
        """Index of the matrix cell (row, col), None if it has no entry."""
        lp = self.lp
        if row is None or col is None or not (0 <= row < lp.n_rows and 0 <= col < lp.n_cols):
            return None
        cells = self._cell_index()[0]
        cell_id = int(col) * lp.n_rows + int(row)
        k = int(np.searchsorted(cells, cell_id))
        return k if k < len(cells) and cells[k] == cell_id else None

    def apply(self, deltas: Iterable[Delta]) -> None:
        """Apply updates to the overlay, validating every target first."""
        deltas = list(deltas)
        lp = self.lp
        coef_cells = []
        for d in deltas:
            if d.kind in ("obj", "lo", "up"):
                if d.col is None or not 0 <= d.col < lp.n_cols:
                    raise KeyError(f"delta targets unknown column {d.col}")
            elif d.kind == "rhs":
                if d.row is None or not 0 <= d.row < lp.n_rows:
                    raise KeyError(f"delta targets unknown row {d.row}")
            elif d.kind == "coef":
                cell = self._cell(d.row, d.col)
                if cell is None:
                    raise KeyError(f"delta targets unknown coefficient ({d.row}, {d.col})")
                coef_cells.append(cell)
            else:
                raise ValueError(f"unknown delta kind {d.kind!r}")

        coef_cells = iter(coef_cells)
        touched_cols: set[int] = set()
        for d in deltas:
            if d.kind == "obj":
                lp.obj[d.col] = d.value
            elif d.kind == "lo":
                lp.lo[d.col] = d.value
                touched_cols.add(d.col)
            elif d.kind == "up":
                lp.hi[d.col] = d.value
                touched_cols.add(d.col)
            elif d.kind == "rhs":
                lp.rhs[d.row] = d.value
            elif d.kind == "coef":
                _, _, order, starts = self._cell_index()
                cell = next(coef_cells)
                entries = order[starts[cell]:starts[cell + 1]]
                lp.a_vals[entries[0]] = d.value
                lp.a_vals[entries[1:]] = 0.0
        for col in touched_cols:
            if lp.lo[col] > lp.hi[col]:
                raise ValueError(
                    f"delta produces lo > hi on {lp.col_label(col)}: "
                    f"[{lp.lo[col]}, {lp.hi[col]}]"
                )

    def snapshot(self):
        """An independent copy of the current program state.

        Results that outlive the next :meth:`reset` must hold a snapshot,
        never ``self.lp``, which is mutated in place between runs.
        """
        return self.lp.copy()

    def resolve(self) -> Solution:
        """Solve the current program warm from the base basis, else cold.

        The first call solves the as-compiled program cold on a persistent
        HiGHS handle and keeps its optimal basis. Each call pushes the
        overlay into the handle, runs primal simplex from that basis and
        restores the base program. The warm solution is returned only if it
        is optimal and certifies at 1e-6; otherwise (no bundled HiGHS object,
        or one whose members differ from those used here, the ``dense``
        backend, a row with infinite rhs, a warm solve that fails, hits its
        iteration limit or does not certify) the program is solved cold with
        :func:`solve`. A single call on a fresh instance therefore costs a
        base solve on top of its own; callers that solve once should use
        :func:`solve`.
        """
        try:
            if self._warm is _UNOPENED:
                self._warm = _WarmStart.open(self) if self.backend == "highs" else None
            sol = self._warm.solve(self.lp) if self._warm is not None else None
        except (AttributeError, TypeError, ValueError, RuntimeError):
            # The handle drives private scipy bindings whose members vary
            # between releases; one that cannot be built or driven, or whose
            # state is unknown after a failure, is dropped for good.
            self._warm, sol = None, None
        if sol is not None and certify(self.lp, sol).ok(1e-6):
            return sol
        return solve(self.lp, self.backend)

    def update_and_resolve(self, deltas: Iterable[Delta]) -> Solution:
        self.apply(deltas)
        return self.resolve()


def compile(lp, backend: str = "highs") -> ModelInstance:  # noqa: A001 - domain verb
    """Compile a program into a repeatedly solvable instance."""
    return ModelInstance(lp, backend)


def update_and_resolve(inst: ModelInstance, deltas: Iterable[Delta]) -> Solution:
    return inst.update_and_resolve(deltas)


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
    ax = matrix(lp) @ x if lp.n_cols else np.zeros(lp.n_rows)
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

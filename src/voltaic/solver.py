"""Solve compiled linear programs and re-solve them after in-place updates.

Two interchangeable backends sit behind the same interface: ``highs`` (the
default, scipy's HiGHS: dual simplex up to 4,000 rows plus columns,
interior point with crossover above) and ``dense`` (the self-contained
tableau simplex in :mod:`voltaic.simplex`, used as an independent
cross-check on small instances). A :class:`ModelInstance` keeps copies of
one built program's arrays plus a mutable overlay of bound/cost/rhs/
coefficient updates, so a scenario sweep reuses a single build; every
solve still assembles the sparse matrix and starts the solver cold.

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
        self._cell_map: dict[tuple[int, int], list[int]] | None = None

    def reset(self) -> None:
        """Drop the overlay: restore the program exactly as compiled."""
        np.copyto(self.lp.obj, self._base_obj)
        np.copyto(self.lp.lo, self._base_lo)
        np.copyto(self.lp.hi, self._base_hi)
        np.copyto(self.lp.rhs, self._base_rhs)
        np.copyto(self.lp.a_vals, self._base_vals)

    def _cells(self) -> dict[tuple[int, int], list[int]]:
        if self._cell_map is None:
            cells: dict[tuple[int, int], list[int]] = {}
            for pos, (r, c) in enumerate(zip(self.lp.a_rows, self.lp.a_cols)):
                cells.setdefault((int(r), int(c)), []).append(pos)
            self._cell_map = cells
        return self._cell_map

    def apply(self, deltas: Iterable[Delta]) -> None:
        """Apply updates to the overlay, validating every target first."""
        deltas = list(deltas)
        lp = self.lp
        for d in deltas:
            if d.kind in ("obj", "lo", "up"):
                if d.col is None or not 0 <= d.col < lp.n_cols:
                    raise KeyError(f"delta targets unknown column {d.col}")
            elif d.kind == "rhs":
                if d.row is None or not 0 <= d.row < lp.n_rows:
                    raise KeyError(f"delta targets unknown row {d.row}")
            elif d.kind == "coef":
                if (d.row, d.col) not in self._cells():
                    raise KeyError(f"delta targets unknown coefficient ({d.row}, {d.col})")
            else:
                raise ValueError(f"unknown delta kind {d.kind!r}")

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
                positions = self._cells()[(d.row, d.col)]
                lp.a_vals[positions[0]] = d.value
                for pos in positions[1:]:
                    lp.a_vals[pos] = 0.0
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

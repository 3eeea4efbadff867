"""A self-contained dense two-phase simplex solver.

This backend exists to double-check the default one on small instances: it
shares no code with HiGHS beyond the input arrays, so agreement between the
two is meaningful evidence. It is a plain tableau method, dense and
unscaled, intended for desk-size programs (hundreds of rows), not for the
full hourly models.

General bounds are reduced to the nonnegative orthant first: columns with a
finite lower bound are shifted, columns bounded only from above are negated,
free columns are split into positive and negative parts, and finite upper
bounds become explicit rows. Phase one minimizes artificial infeasibility;
phase two the true cost. Pivoting is by steepest reduced cost with an
automatic switch to Bland's rule after a run of degenerate pivots, which
guarantees termination.
"""

from __future__ import annotations

import time

import numpy as np

from .solver import (
    INFEASIBLE,
    NUMERICAL,
    OPTIMAL,
    UNBOUNDED,
    LpLike,
    Solution,
    SolveStats,
    classify_rows,
)

_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7
_STALL_LIMIT = 60


class _Unbounded(Exception):
    pass


class _IterationLimit(Exception):
    pass


def solve_dense(lp: LpLike) -> Solution:
    start = time.perf_counter()
    eq_mask, le_mask, ge_mask, impossible = classify_rows(lp)
    if impossible:
        return Solution(INFEASIBLE)
    keep = eq_mask | le_mask | ge_mask  # rows with infinite rhs bind nothing
    kept_rows = np.nonzero(keep)[0]
    m, n = len(kept_rows), lp.n_cols

    cells = np.sort(lp.a_rows.astype(np.int64) * n + lp.a_cols)
    repeated = cells[:-1][cells[1:] == cells[:-1]]
    if repeated.size:
        raise ValueError(f"matrix cell (row {repeated[0] // n}, column {repeated[0] % n}) "
                         "is stored as more than one entry")
    dense_full = np.zeros((lp.n_rows, n))
    dense_full[lp.a_rows, lp.a_cols] = lp.a_vals
    dense = dense_full[kept_rows]
    row_rhs = lp.rhs[kept_rows]
    row_sense = lp.sense[kept_rows]

    # Reduce general bounds to z >= 0. col_map records how each original
    # column is reassembled from standard-form columns.
    cols: list[np.ndarray] = []
    costs: list[float] = []
    col_map: list[tuple[int, float]] = []  # (orig col, sign) per std col
    shift = np.zeros(n)
    upper_rows: list[tuple[int, float]] = []  # (std col, range)
    for j in range(n):
        lo, hi = lp.lo[j], lp.hi[j]
        if np.isfinite(lo):
            shift[j] = lo
            cols.append(dense[:, j])
            costs.append(lp.obj[j])
            col_map.append((j, 1.0))
            if np.isfinite(hi):
                upper_rows.append((len(cols) - 1, hi - lo))
        elif np.isfinite(hi):
            shift[j] = hi
            cols.append(-dense[:, j])
            costs.append(-lp.obj[j])
            col_map.append((j, -1.0))
        else:
            cols.append(dense[:, j])
            costs.append(lp.obj[j])
            col_map.append((j, 1.0))
            cols.append(-dense[:, j])
            costs.append(-lp.obj[j])
            col_map.append((j, -1.0))

    n_std = len(cols)
    a_std = np.column_stack(cols) if n_std else np.zeros((m, 0))
    c_std = np.array(costs)
    b_std = row_rhs - dense @ shift

    n_up = len(upper_rows)
    a_full = np.zeros((m + n_up, n_std))
    a_full[:m] = a_std
    b_full = np.concatenate([b_std, np.zeros(n_up)])
    sense = np.concatenate([row_sense, np.full(n_up, "L", dtype="<U1")])
    for k, (col, rng) in enumerate(upper_rows):
        a_full[m + k, col] = 1.0
        b_full[m + k] = rng

    flip = np.where(b_full < 0, -1.0, 1.0)
    a_full *= flip[:, None]
    b_full *= flip
    swap = {"L": "G", "G": "L", "E": "E"}
    sense = np.array([s if f > 0 else swap[s] for s, f in zip(sense, flip)], dtype="<U1")

    m_all = m + n_up
    le_rows = np.nonzero(sense == "L")[0]
    ge_rows = np.nonzero(sense == "G")[0]
    art_rows = np.concatenate([ge_rows, np.nonzero(sense == "E")[0]]).astype(int)

    # Tableau columns: structural | slack(L) | surplus(G) | artificial.
    n_slack, n_surp, n_art = len(le_rows), len(ge_rows), len(art_rows)
    total = n_std + n_slack + n_surp + n_art
    tab = np.zeros((m_all, total + 1))
    tab[:, :n_std] = a_full
    tab[:, -1] = b_full
    for k, i in enumerate(le_rows):
        tab[i, n_std + k] = 1.0
    for k, i in enumerate(ge_rows):
        tab[i, n_std + n_slack + k] = -1.0
    art_base = n_std + n_slack + n_surp
    for k, i in enumerate(art_rows):
        tab[i, art_base + k] = 1.0

    basis = np.full(m_all, -1, dtype=int)
    for k, i in enumerate(le_rows):
        basis[i] = n_std + k
    for k, i in enumerate(art_rows):
        basis[i] = art_base + k

    # Identity column of each row, for reading duals off the cost row later.
    ident = np.zeros(m_all, dtype=int)
    for k, i in enumerate(le_rows):
        ident[i] = n_std + k
    for k, i in enumerate(art_rows):
        ident[i] = art_base + k

    iterations = 0
    limit = max(20_000, 200 * (m_all + total))

    def run_phase(cost_row: np.ndarray, allowed: int) -> np.ndarray:
        """Pivot until no allowed column prices out negative; returns cost row."""
        nonlocal iterations, tab
        stall = 0
        bland = False
        while True:
            if iterations >= limit:
                raise _IterationLimit
            red = cost_row[:allowed]
            if bland:
                candidates = np.nonzero(red < -_PIVOT_TOL)[0]
                if candidates.size == 0:
                    return cost_row
                enter = int(candidates[0])
            else:
                enter = int(np.argmin(red))
                if red[enter] >= -_PIVOT_TOL:
                    return cost_row
            col = tab[:, enter]
            positive = col > _PIVOT_TOL
            if not positive.any():
                raise _Unbounded
            ratios = np.full(m_all, np.inf)
            ratios[positive] = tab[positive, -1] / col[positive]
            leave = int(np.argmin(ratios))
            # Deterministic tie-break: smallest basis index among minimal ratios.
            best = ratios[leave]
            ties = np.nonzero(np.isclose(ratios, best, rtol=0.0, atol=1e-12))[0]
            if ties.size > 1:
                leave = int(ties[np.argmin(basis[ties])])
            if best <= _PIVOT_TOL:
                stall += 1
                if stall >= _STALL_LIMIT:
                    bland = True
            else:
                stall = 0
                bland = False
            pivot = tab[leave, enter]
            tab[leave] /= pivot
            factors = tab[:, enter].copy()
            factors[leave] = 0.0
            tab -= np.outer(factors, tab[leave])
            cost_row -= cost_row[enter] * tab[leave]
            basis[leave] = enter
            iterations += 1

    stats = SolveStats()
    try:
        # Phase 1: minimize the artificial total.
        c1 = np.zeros(total)
        c1[art_base:] = 1.0
        cost_row = np.concatenate([c1, [0.0]])
        for i in art_rows:
            cost_row -= tab[i]
        cost_row = run_phase(cost_row, allowed=art_base)
        # Each artificial still basic must be zero to the scale of its own
        # row: a large right-hand side elsewhere excuses no small row.
        at = np.flatnonzero(basis >= art_base)
        own = art_rows[basis[at] - art_base]
        if (tab[at, -1] > _FEAS_TOL * np.maximum(1.0, np.abs(b_full[own]))).any():
            stats.iterations = iterations
            stats.wall_time = time.perf_counter() - start
            return Solution(INFEASIBLE, stats=stats)

        # Pivot remaining artificials out; a row with no eligible pivot is
        # linearly dependent and can safely keep its zero-level artificial.
        for i in range(m_all):
            if basis[i] < art_base:
                continue
            row = tab[i, :art_base]
            nz = np.nonzero(np.abs(row) > 1e-8)[0]
            if nz.size == 0:
                continue
            enter = int(nz[0])
            pivot = tab[i, enter]
            tab[i] /= pivot
            factors = tab[:, enter].copy()
            factors[i] = 0.0
            tab -= np.outer(factors, tab[i])
            basis[i] = enter

        # Phase 2: true costs, artificials barred from entering.
        c2 = np.zeros(total)
        c2[:n_std] = c_std
        cost_row = np.concatenate([c2, [0.0]])
        for i in range(m_all):
            if basis[i] >= 0 and c2[basis[i]] != 0.0:
                cost_row -= c2[basis[i]] * tab[i]
        cost_row = run_phase(cost_row, allowed=art_base)
    except _Unbounded:
        stats.iterations = iterations
        stats.wall_time = time.perf_counter() - start
        return Solution(UNBOUNDED, stats=stats)
    except _IterationLimit:
        stats.iterations = iterations
        stats.wall_time = time.perf_counter() - start
        return Solution(NUMERICAL, stats=stats)

    z = np.zeros(total)
    for i in range(m_all):
        if basis[i] >= 0:
            z[basis[i]] = tab[i, -1]
    x = shift.copy()
    for std_j, (orig_j, sign) in enumerate(col_map):
        x[orig_j] += sign * z[std_j]

    # Cost-row entries under each row's original identity column hold
    # -y_i (identity columns all cost zero in phase 2).
    y_all = -cost_row[ident] * flip
    y = np.zeros(lp.n_rows)
    y[kept_rows] = y_all[:m]

    # Bound duals via the KKT split of reduced costs in the original space.
    red = lp.obj - dense_full.T @ y
    lam_lo = np.zeros(n)
    lam_hi = np.zeros(n)
    scale = np.maximum(1.0, np.abs(x))
    at_lo = np.isfinite(lp.lo) & (np.abs(x - lp.lo) <= 1e-7 * scale)
    at_hi = np.isfinite(lp.hi) & (np.abs(x - lp.hi) <= 1e-7 * scale)
    lam_lo[at_lo & (red > 0)] = red[at_lo & (red > 0)]
    lam_hi[at_hi & (red < 0)] = red[at_hi & (red < 0)]

    stats.iterations = iterations
    stats.wall_time = time.perf_counter() - start
    return Solution(
        OPTIMAL,
        objective=float(lp.obj @ x),
        primal=x,
        dual=y,
        lower_duals=lam_lo,
        upper_duals=lam_hi,
        stats=stats,
    )

"""Fixed-format MPS export and import for compiled programs.

The writer emits the classic fixed field layout (indicator in columns 2-3,
names in 5-12 and 15-22, values in 25-36), which any external LP solver can
read back; since fixed-format names are capped at 8 characters, rows and
columns are renamed ``R0000001`` / ``C0000001`` in file order and the
mapping back to the registry labels is returned to the caller.

The reader is deliberately tolerant (whitespace-separated fields) and exists
so the export can be cross-checked in-repo: write, re-read, solve with an
independent backend, compare objectives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .solver import _cell_index


def _fmt(value: float) -> str:
    """Render a value into at most 12 characters without losing much precision."""
    for precision in range(10, 0, -1):
        text = f"{value:.{precision}G}"
        if len(text) <= 12:
            return text
    return f"{value:.1G}"[:12]


def _entry(indicator: str, name1: str, name2: str = "", value: str | None = None) -> str:
    line = f" {indicator:<2} {name1:<8}"
    if name2:
        line = f"{line}  {name2:<8}"
    if value is not None:
        line = f"{line}  {value:>12}"
    return line.rstrip()


def write_mps(lp, target, name: str = "VOLTAIC") -> dict[str, dict[str, str]]:
    """Write ``lp`` in fixed MPS format to a path or text stream.

    Returns ``{"rows": {...}, "cols": {...}}`` mapping registry labels to
    the 8-character file names. Raises ``ValueError`` on non-finite
    right-hand sides, which fixed MPS cannot represent, and on a matrix cell
    stored as more than one entry.
    """
    if np.any(~np.isfinite(lp.rhs)):
        raise ValueError("cannot export rows with non-finite right-hand sides")

    row_names = [f"R{i + 1:07d}" for i in range(lp.n_rows)]
    col_names = [f"C{j + 1:07d}" for j in range(lp.n_cols)]

    lines = [f"NAME          {name}", "ROWS", _entry("N", "COST")]
    for i in range(lp.n_rows):
        lines.append(_entry(lp.sense[i], row_names[i]))

    # A program stores each cell as one entry (a repeated cell raises); the
    # nonzero entries are written, each column's in row order.
    _cell_index(lp)
    kept = lp.a_vals != 0.0
    rows, cols, value = lp.a_rows[kept], lp.a_cols[kept], lp.a_vals[kept]
    order = np.lexsort((rows, cols))
    named = [(row_names[r], v) for r, v in zip(rows[order].tolist(), value[order].tolist())]
    start = np.searchsorted(cols[order], np.arange(lp.n_cols + 1)).tolist()

    lines.append("COLUMNS")
    for j in range(lp.n_cols):
        entries = [("COST", float(lp.obj[j]))] if lp.obj[j] != 0.0 else []
        entries += named[start[j] : start[j + 1]]
        for row_name, v in entries or [("COST", 0.0)]:  # declare otherwise-empty columns
            lines.append(_entry("", col_names[j], row_name, _fmt(v)))

    lines.append("RHS")
    for i in range(lp.n_rows):
        if lp.rhs[i] != 0.0:
            lines.append(_entry("", "RHS", row_names[i], _fmt(lp.rhs[i])))

    lines.append("BOUNDS")
    for j in range(lp.n_cols):
        lo, hi = float(lp.lo[j]), float(lp.hi[j])
        if lo == 0.0 and math.isinf(hi):
            continue  # MPS default
        if lo == hi:
            lines.append(_entry("FX", "BND", col_names[j], _fmt(lo)))
            continue
        if math.isinf(lo) and math.isinf(hi):
            lines.append(_entry("FR", "BND", col_names[j]))
            continue
        if math.isinf(lo):
            lines.append(_entry("MI", "BND", col_names[j]))
        elif lo != 0.0:
            lines.append(_entry("LO", "BND", col_names[j], _fmt(lo)))
        if not math.isinf(hi):
            lines.append(_entry("UP", "BND", col_names[j], _fmt(hi)))
    lines.append("ENDATA")

    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        Path(target).write_text(text)

    label_row = getattr(lp, "row_label", lambda i: f"row{i}")
    label_col = getattr(lp, "col_label", lambda j: f"col{j}")
    row_map = {label_row(i): row_names[i] for i in range(lp.n_rows)}
    col_map = {label_col(j): col_names[j] for j in range(lp.n_cols)}
    return {"rows": row_map, "cols": col_map}


@dataclass
class MpsProblem:
    """A program read back from MPS, in the compiled-array form."""

    name: str = ""
    row_names: list[str] = field(default_factory=list)
    col_names: list[str] = field(default_factory=list)
    n_rows: int = 0
    n_cols: int = 0
    obj: np.ndarray = None
    lo: np.ndarray = None
    hi: np.ndarray = None
    rhs: np.ndarray = None
    sense: np.ndarray = None
    a_rows: np.ndarray = None
    a_cols: np.ndarray = None
    a_vals: np.ndarray = None


def read_mps(source) -> MpsProblem:
    """Parse an MPS file (fixed or free field spacing) into arrays. Raises
    ValueError naming the line where COLUMNS gives a (row, column) cell, or
    a column's objective coefficient, a second entry."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()

    problem = MpsProblem()
    section = None
    objective_row: str | None = None
    row_index: dict[str, int] = {}
    col_index: dict[str, int] = {}
    senses: list[str] = []
    obj: dict[int, float] = {}
    rhs: dict[int, float] = {}
    lo: dict[int, float] = {}
    hi: dict[int, float] = {}
    entries: dict[tuple[int, int], float] = {}  # one per (row, column) cell

    for number, raw in enumerate(text.splitlines(), 1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        if raw[0] not in " \t":
            head = raw.split()
            section = head[0].upper()
            if section == "NAME" and len(head) > 1:
                problem.name = head[1]
            if section == "RANGES":
                raise ValueError("RANGES sections are not supported")
            if section == "ENDATA":
                break
            continue
        fields = raw.split()
        if section == "ROWS":
            kind, row_name = fields[0].upper(), fields[1]
            if kind == "N":
                if objective_row is None:
                    objective_row = row_name
                continue
            if kind not in ("L", "G", "E"):
                raise ValueError(f"unknown row type {kind!r}")
            row_index[row_name] = len(senses)
            senses.append(kind)
        elif section == "COLUMNS":
            if len(fields) >= 3 and fields[1].upper() == "'MARKER'":
                raise ValueError("integer markers are not supported")
            col_name = fields[0]
            j = col_index.setdefault(col_name, len(col_index))
            for row_name, value in zip(fields[1::2], fields[2::2]):
                v = float(value)
                if row_name == objective_row:
                    if j in obj:
                        raise ValueError(f"line {number}: column {col_name!r} has a second objective entry")
                    obj[j] = v
                elif (row_index[row_name], j) in entries:
                    raise ValueError(f"line {number}: column {col_name!r} has a second entry in row {row_name!r}")
                else:
                    entries[row_index[row_name], j] = v
        elif section == "RHS":
            for row_name, value in zip(fields[1::2], fields[2::2]):
                if row_name == objective_row:
                    continue
                rhs[row_index[row_name]] = float(value)
        elif section == "BOUNDS":
            kind = fields[0].upper()
            col_name = fields[2]
            j = col_index.get(col_name)
            if j is None:
                raise ValueError(f"bound on undeclared column {col_name!r}")
            value = float(fields[3]) if len(fields) > 3 else 0.0
            if kind == "LO":
                lo[j] = value
            elif kind == "UP":
                hi[j] = value
                # An UP bound with a negative value on a default-lower column
                # implies a free lower bound in several MPS dialects; keep the
                # plain reading (lower bound stays 0) for predictability.
            elif kind == "FX":
                lo[j] = value
                hi[j] = value
            elif kind == "FR":
                lo[j] = -math.inf
                hi[j] = math.inf
            elif kind == "MI":
                lo[j] = -math.inf
            elif kind == "PL":
                hi[j] = math.inf
            else:
                raise ValueError(f"unsupported bound type {kind!r}")
        elif section in ("OBJSENSE", "NAME"):
            continue
        elif section is None:
            raise ValueError("data line before any section header")

    n_rows, n_cols = len(senses), len(col_index)
    problem.n_rows = n_rows
    problem.n_cols = n_cols
    problem.row_names, problem.col_names = list(row_index), list(col_index)  # in index order
    problem.sense = np.array(senses, dtype="<U1")

    def filled(size: int, default: float, values: dict[int, float]) -> np.ndarray:
        array = np.full(size, default)
        array[list(values)] = list(values.values())
        return array

    problem.rhs, problem.obj = filled(n_rows, 0.0, rhs), filled(n_cols, 0.0, obj)
    problem.lo, problem.hi = filled(n_cols, 0.0, lo), filled(n_cols, math.inf, hi)
    rows, cols = zip(*entries) if entries else ((), ())
    problem.a_rows, problem.a_cols = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    problem.a_vals = np.array(list(entries.values()), dtype=float)
    return problem

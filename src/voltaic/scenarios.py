"""Scenario table parsing and sweep execution.

Every row of ``iteration_table.csv`` is one scenario run: the first column
holds the run id, every other column heading is a symbol reference whose
cells override the base model for that run only. Overrides never leak
between rows; each run sees the base model plus its own changes.

Column headings:

* ``c_i_sto_e(n,'Li-ion')`` - parameter override; set names fan out over
  every element, quoted literals pin one element.
* ``d('DE')`` / ``phi('solar','DE')`` - time series override; the cell
  names an alternative series (from ``iteration_data`` or the base data).
* ``N.fx('gas','DE')`` / ``N.lo(...)`` / ``N.up(...)`` - variable bound
  overrides; ``fx`` fixes by setting both bounds.
* ``country_set`` - cell lists the node ids to include in that run.
* a bare constraint-block name (see ``constraints_list.csv``) - the cell
  selects a named choice, e.g. ``renewable_share`` -> ``off``.
"""

from __future__ import annotations

import csv
import heapq
import io
import math
import multiprocessing
import multiprocessing.connection
import os
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import permutations, product

import numpy as np

from .model import COST_TERMS, LinearProgram, apply_dispatch_only, build_model, cost_coefficient, share_rhs
from .solver import Delta, ModelInstance, Solution, _cell_index, base_statuses, basis_statuses, certified, solve
from .system import FeatureMatrix, ModelConfig, SystemData, ValidationError, field_issue, series_issue

MODES = ("rebuild", "single_instance", "parallel")
# Rows a country set needs before its instance re-solves warm. The sweep
# pays one base solve per warm set, whatever the worker count, and one row
# far from the base costs more warm than cold: example1's three rows at
# 48 h take 6.8 s of uncapped warm solves against 4.1 s cold, while on the
# 32-row, 24 h benchmark sweep a warm row saves 0.7-0.8 of its cold solve.
# Smaller sets solve exactly as ``rebuild`` does.
_WARM_MIN_ROWS = 8

PARAMETER = "parameter"
TIMESERIES = "timeseries"
VARIABLE_FIX = "variable_fix"
VARIABLE_LO = "variable_lo"
VARIABLE_UP = "variable_up"
CONSTRAINT_CHOICE = "constraint_choice"
COUNTRY_SET = "country_set"

_SUFFIX_KINDS = {"fx": VARIABLE_FIX, "lo": VARIABLE_LO, "up": VARIABLE_UP}

#: Cost parameter -> the variable family whose objective coefficient it feeds.
_COST_FAMILY: dict[str, str] = {
    name: family for family, term in COST_TERMS.items() for name, _ in term.params
}

#: Parameter -> the static field it overrides, as its ``system.RECORD_DOMAINS``
#: record and attribute. Cost parameters come from the cost table; the
#: other two set row bounds.
_PARAM_FIELDS: dict[str, tuple[str, str]] = {
    **{name: ({"tech": "technologies", "sto": "storages", "l": "lines"}[term.owner], attr)
       for term in COST_TERMS.values() for name, attr in term.params},
    **{name: ("nodes", name) for name in ("co2_cap", "min_renewable_share")},
}

#: Parameter catalog: canonical domain per overridable parameter, the
#: dimensions of its field's records.
_RECORD_DIMS = {"nodes": ("n",), "technologies": ("n", "tech"), "storages": ("n", "sto"), "lines": ("l",)}
PARAMETER_DOMAINS: dict[str, tuple[str, ...]] = {name: _RECORD_DIMS[rec] for name, (rec, _) in _PARAM_FIELDS.items()}

#: The node parameters that move an existing row's rhs: the row family, its
#: name in messages, and why a node may have no such row.
_NODE_ROWS = {
    "co2_cap": ("CO2_CAP", "emission cap", "base cap is unset"),
    "min_renewable_share": ("RES_SHARE", "share", "base share is zero"),
}

TIMESERIES_DOMAINS: dict[str, tuple[str, ...]] = {
    "d": ("n",),
    "phi": ("res", "n"),
}

#: Named alternative constraint blocks selectable per scenario row.
CONSTRAINT_BLOCKS: dict[str, tuple[str, ...]] = {
    "renewable_share": ("on", "off"),
    "co2_cap": ("on", "off"),
}

# Subset set names that may address a wider dimension.
_SET_ALIASES = {"res": "tech", "disp": "tech"}

_HEADER_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\.(fx|lo|up))?(?:\((.*)\))?$")
# A comma outside quotes: an even number of quotes follows it, since a
# heading's quotes are balanced.
_DOMAIN_COMMA = re.compile(r",(?=(?:[^']*'[^']*')*[^']*$)")


@dataclass(frozen=True)
class SymbolRef:
    """A parsed column heading: symbol name, domain, and what it targets."""

    name: str
    domain: tuple[tuple[str, str], ...]  # ("set", name) or ("lit", element)
    target_kind: str

    def render(self) -> str:
        suffix = {VARIABLE_FIX: ".fx", VARIABLE_LO: ".lo", VARIABLE_UP: ".up"}.get(
            self.target_kind, ""
        )
        if not self.domain and suffix == "":
            return self.name
        inner = ",".join(f"'{v}'" if k == "lit" else v for k, v in self.domain)
        return f"{self.name}{suffix}({inner})" if self.domain else f"{self.name}{suffix}"


@dataclass(frozen=True)
class ScenarioSpec:
    """One row of the iteration table."""

    run_id: str
    overrides: tuple[tuple[SymbolRef, object], ...] = ()
    country_set: tuple[str, ...] | None = None
    constraint_choices: dict[str, str] = field(default_factory=dict)
    issue: str | None = None  # why the row's cells do not read; the row then cannot run


def parse_symbol_ref(text: str) -> SymbolRef:
    """Parse one column heading; round-trips through :meth:`SymbolRef.render`."""
    raw = text.strip()
    if raw == COUNTRY_SET:
        return SymbolRef(COUNTRY_SET, (), COUNTRY_SET)
    if raw.count("(") != raw.count(")") or raw.count("'") % 2 != 0:
        raise ValidationError(f"iteration_table: unbalanced quotes/parentheses in {raw!r}")
    m = _HEADER_RE.match(raw)
    if m is None:
        raise ValidationError(f"iteration_table: malformed column heading {raw!r}")
    name, suffix, inner = m.groups()
    domain: list[tuple[str, str]] = []
    if inner is not None:
        if inner.strip() == "":
            raise ValidationError(f"iteration_table: empty domain in {raw!r}")
        # A set name holds no parenthesis, and an element only inside quotes.
        if re.search(r"[()]", re.sub(r"'[^']*'", "", inner)):
            raise ValidationError(f"iteration_table: parenthesis outside quotes in the domain of {raw!r}")
        for part in _DOMAIN_COMMA.split(inner):
            entry = part.strip()
            if not entry:
                raise ValidationError(f"iteration_table: empty domain entry in {raw!r}")
            if entry.startswith("'") and entry.endswith("'") and len(entry) >= 2:
                domain.append(("lit", entry[1:-1]))
            elif "'" in entry:
                raise ValidationError(f"iteration_table: stray quote in domain entry {entry!r}")
            else:
                domain.append(("set", entry))
    # A name can be both a parameter and a constraint block (co2_cap): the
    # presence of a domain decides which one is meant.
    if suffix:
        kind = _SUFFIX_KINDS[suffix]
    elif name in TIMESERIES_DOMAINS:
        kind = TIMESERIES
    elif domain and name in PARAMETER_DOMAINS:
        kind = PARAMETER
    elif not domain:
        kind = CONSTRAINT_CHOICE
    else:
        kind = PARAMETER  # unknown; reported when the override is expanded
    return SymbolRef(name, tuple(domain), kind)


def parse_iteration_table(csv_text: str) -> list[ScenarioSpec]:
    """Parse the scenario table into one spec per row.

    The first column holds run ids; an absent ``country_set`` column means
    every node of the dataset participates in every run. A malformed or
    repeated heading, or an empty or repeated run id, raises. A row with a
    value beyond the header, or a cell that does not read or holds a value
    its column cannot take (see :func:`_check_cell`), keeps that message as
    its ``issue``: it cannot run.
    """
    rows = [r for r in csv.reader(io.StringIO(csv_text)) if any(cell.strip() for cell in r)]
    if not rows:
        return []
    header = rows[0]
    refs = [parse_symbol_ref(cell) for cell in header[1:]]
    repeated = [name for name, n in Counter(ref.render() for ref in refs).items() if n > 1]
    if repeated:
        raise ValidationError(f"iteration_table: column {repeated[0]!r} appears more than once")

    specs: list[ScenarioSpec] = []
    seen: set[str] = set()
    for row in rows[1:]:
        run_id = row[0].strip()
        if not run_id:
            raise ValidationError("iteration_table: empty run id")
        if run_id in seen:
            raise ValidationError(f"iteration_table: duplicate run id {run_id!r}")
        seen.add(run_id)
        try:
            specs.append(_parse_row(run_id, refs, row, len(header)))
        except ValidationError as exc:
            specs.append(ScenarioSpec(run_id, issue=str(exc)))
    return specs


def _row_issue(run_id: str, message: str) -> str:
    """How a message names a row of the table."""
    return f"iteration_table: run {run_id}: {message}"


def _column(heading: str) -> str:
    """How a message names a column of the table; a cell's messages start with it."""
    return f'column "{heading}"'


def _parse_row(run_id: str, refs: list[SymbolRef], row: list[str], width: int) -> ScenarioSpec:
    """One table row, under the headings ``refs`` of a ``width``-column header."""
    beyond = next((k for k in range(width, len(row)) if row[k].strip()), None)
    if beyond is not None:
        raise ValidationError(f"value {row[beyond].strip()!r} in column {beyond + 1}, "
                              f"beyond the {width} columns of the header")
    overrides: list[tuple[SymbolRef, object]] = []
    country: tuple[str, ...] | None = None
    choices: dict[str, str] = {}
    for ref, cell in zip(refs, row[1:]):
        cell = cell.strip()
        if cell == "":
            continue
        if ref.target_kind == COUNTRY_SET:
            country = tuple(t for t in re.split(r"[,;\s]+", cell) if t)
        elif ref.target_kind == CONSTRAINT_CHOICE:
            choices[ref.name] = cell
        elif ref.target_kind == TIMESERIES:
            overrides.append((ref, cell))
        else:
            column = _column(ref.render())
            try:
                value = float(cell)
            except ValueError:
                raise ValidationError(f"{column}: non-numeric value {cell!r}") from None
            _check_cell(column, ref, value)
            overrides.append((ref, value))
    return ScenarioSpec(run_id, tuple(overrides), country, choices)


def _check_cell(column: str, ref: SymbolRef, value, data: SystemData | None = None, end_hour: int = 0) -> None:
    """Reject a value ``column``'s cell cannot take, by the static inputs'
    rules: a parameter's by the domain of the field it overrides, a series
    (with ``data``) by :func:`~voltaic.system.series_issue`. A variable
    bound must be finite, or ``+inf`` in a ``.up`` column (no bound). An
    unknown parameter is left to expansion to report."""
    if ref.target_kind == TIMESERIES:
        issue = series_issue(data, column, "demand" if ref.name == "d" else "availability", str(value), end_hour)
    elif ref.target_kind == PARAMETER:
        issue = ref.name in _PARAM_FIELDS and field_issue(column, *_PARAM_FIELDS[ref.name], float(value), ref.name)
    else:
        up, value = ref.target_kind == VARIABLE_UP, float(value)
        holds = math.isfinite(value) or (up and value == math.inf)
        issue = not holds and f"{column}: bound must be finite{' or inf' * up}, got {value}"
    if issue:
        raise ValidationError(issue)


def _match_domain(
    column: str, ref: SymbolRef, dims: tuple[str, ...], sets: dict[str, tuple[str, ...]]
) -> list[list[str]]:
    """Resolve the domain entries against the target dimensions.

    Returns one element list per dimension. Literal entries are validated
    against the dimension's elements; set-name entries fan out over the
    whole dimension. Entries are matched positionally first and by a
    permutation search otherwise, so ``N.fx('DE','gas')`` and
    ``N.fx('gas','DE')`` both resolve. A domain that does not resolve
    raises, in a message owned by ``column``.
    """
    if len(ref.domain) != len(dims):
        raise ValidationError(f"{column}: domain arity {len(ref.domain)} does not match dimensions {dims}")

    def fits(entry: tuple[str, str], dim: str) -> bool:
        kind, value = entry
        if kind == "set":
            return value == dim or _SET_ALIASES.get(value) == dim
        return value in sets.get(dim, ())

    def resolve(order: tuple[int, ...]) -> list[list[str]] | None:
        out: list[list[str]] = [[] for _ in dims]
        for pos, entry_idx in enumerate(order):
            entry = ref.domain[entry_idx]
            if not fits(entry, dims[pos]):
                return None
            kind, value = entry
            out[pos] = list(sets[value]) if kind == "set" else [value]
        return out

    for order in permutations(range(len(dims))):  # the identity first
        attempt = resolve(order)
        if attempt is not None:
            return attempt
    bad = ", ".join(v for _, v in ref.domain)
    raise ValidationError(f"{column}: domain ({bad}) does not resolve against dimensions {dims}")


def expand_overrides(
    spec: ScenarioSpec,
    lp: LinearProgram,
    data: SystemData,
    config: ModelConfig,
    constraint_blocks: dict[str, tuple[str, ...]] | None = None,
) -> list[Delta]:
    """Turn one scenario row into solver deltas against the built program.
    Raises the row's ``issue``, or the first column that does not expand."""
    if spec.issue:
        raise ValidationError(spec.issue)
    blocks = CONSTRAINT_BLOCKS if constraint_blocks is None else constraint_blocks
    sets = lp.sets
    deltas: list[Delta] = []

    # One pass per column: check it, and collect scalar parameter overrides
    # and series swaps, so that derived quantities (share rhs, summed cost
    # terms) see this row's values, and bound deltas.
    scalar: dict[tuple[str, tuple[str, ...]], float] = {}
    series_swap: dict[tuple[str, tuple[str, ...]], str] = {}
    bounds: list[Delta] = []
    for ref, value in spec.overrides:
        column = _column(ref.render())
        _check_cell(column, ref, value, data, config.end_hour)
        if ref.target_kind == PARAMETER:
            if ref.name not in PARAMETER_DOMAINS:
                raise ValidationError(f"{column}: unknown parameter {ref.name!r}")
            combos = list(product(*_match_domain(column, ref, PARAMETER_DOMAINS[ref.name], sets)))
            if ref.name in _NODE_ROWS:
                family, row, why = _NODE_ROWS[ref.name]
                fam = lp.row_families.get(family)
                for (n,) in combos:
                    if fam is None or n not in fam.elements[0]:
                        raise ValidationError(f"{column}: the base model has no {row} row for node {n!r} ({why})")
            scalar.update(((ref.name, combo), float(value)) for combo in combos)
        elif ref.target_kind == TIMESERIES:
            combos = product(*_match_domain(column, ref, TIMESERIES_DOMAINS[ref.name], sets))
            series_swap.update(((ref.name, combo), str(value)) for combo in combos)
        else:
            fam = lp.var_families.get(ref.name)
            if fam is None:
                raise ValidationError(f"{column}: unknown variable {ref.name!r}")
            sides = {VARIABLE_FIX: ("lo", "up"), VARIABLE_LO: ("lo",), VARIABLE_UP: ("up",)}[ref.target_kind]
            bounds.extend(Delta(side, col=fam.index(combo), value=float(value))
                          for combo in product(*_match_domain(column, ref, fam.dims, sets)) for side in sides)

    H = config.end_hour
    share_rhs_dirty: set[str] = set()
    costed: set[tuple[str, tuple[str, ...]]] = set()

    for (param, key) in sorted(scalar):
        family = _COST_FAMILY.get(param)
        if family is not None:
            if (family, key) in costed:
                continue  # the other half of a summed pair already set this column
            costed.add((family, key))
            node = key[0] if len(key) == 2 else None
            value = cost_coefficient(data, config, family, key[-1], node, scalar)
            fam = lp.var_families[family]
            head = key[::-1]  # (node, element) override keys, (element, node) columns
            if "h" in fam.dims:
                deltas.extend(Delta("obj", col=fam.index((*head, h)), value=value) for h in sets["h"])
            else:
                deltas.append(Delta("obj", col=fam.index(head), value=value))
        elif param == "co2_cap":
            deltas.append(Delta("rhs", row=lp.row_families["CO2_CAP"].index(key), value=scalar[(param, key)]))
        else:  # min_renewable_share
            share_rhs_dirty.add(key[0])

    for (name, key), series_name in sorted(series_swap.items()):
        values = data.series[series_name].values
        if name == "d":
            (n,) = key
            fam = lp.row_families["BAL"]
            deltas.extend(Delta("rhs", row=fam.index((n, h)), value=v) for h, v in zip(sets["h"], values))
            share_rhs_dirty.add(n)
        elif name == "phi":
            res, n = key
            row_fam = lp.row_families["CAP_RES"]
            col = lp.col_index("N", (res, n))
            deltas.extend(Delta("coef", row=row_fam.index((res, n, h)), col=col, value=-v)
                          for h, v in zip(sets["h"], values))

    # A demand swap refreshes the share rhs only where the node has a share
    # row; the column pass found one for every explicit share override.
    fam = lp.row_families.get("RES_SHARE")
    for n in sorted(share_rhs_dirty.intersection(fam.elements[0] if fam else ())):
        share = scalar.get(("min_renewable_share", (n,)), data.node(n).min_renewable_share)
        demand = data.series[series_swap.get(("d", (n,)), data.node(n).demand)].values[:H]
        deltas.append(Delta("rhs", row=fam.index((n,)), value=share_rhs(share, demand)))
    deltas.extend(bounds)

    for block, choice in sorted(spec.constraint_choices.items()):
        allowed = blocks.get(block)
        if allowed is None:
            raise ValidationError(f"{_column(block)}: no constraint block of this name is registered")
        if choice not in allowed:
            raise ValidationError(f"{_column(block)}: unknown choice {choice!r} (allowed: {allowed})")
        if choice == "on":
            continue  # the base rows already enforce the block
        fam = lp.row_families.get({"renewable_share": "RES_SHARE", "co2_cap": "CO2_CAP"}[block])
        if fam is None:
            continue  # nothing to relax
        for i in range(fam.size):
            relaxed = 0.0 if block == "renewable_share" else math.inf
            deltas.append(Delta("rhs", row=fam.start + i, value=relaxed))
    return deltas


class _Program:
    """The ``lp`` of a :class:`RunResult`: the program it was given, or, if
    it was given a callable instead, what that returns, made when ``lp`` is
    first read and kept."""

    def __get__(self, result, owner=None):
        if result is None:
            return None
        lp = result.__dict__["lp"]
        if callable(lp):
            lp = result.__dict__["lp"] = lp()
        return lp

    def __set__(self, result, lp) -> None:
        result.__dict__["lp"] = lp


@dataclass
class RunResult:
    """Outcome of one scenario run, present even when the run failed.

    A sweep gives each row that ran a callable for its program (``lp``),
    which derives it from the sweep's plan when first read, in every mode:
    the row's country-set build with its deltas applied, bitwise what was
    solved. A pickled result carries its program.
    """

    run_id: str
    solution: Solution | None
    overrides: tuple[tuple[str, str], ...]
    error: str | None = None
    lp: LinearProgram | None = field(default=None, repr=False, compare=False)
    wall_time: float = 0.0

    @property
    def status(self) -> str:
        if self.error is not None:
            return "error"
        return self.solution.status

    @property
    def objective(self) -> float | None:
        return self.solution.objective if self.solution is not None else None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "lp": self.lp}


RunResult.lp = _Program()  # after the dataclass has made ``lp`` an init field


def _echo(spec: ScenarioSpec) -> tuple[tuple[str, str], ...]:
    echo = [(ref.render(), str(value)) for ref, value in spec.overrides]
    if spec.country_set is not None:
        echo.append((COUNTRY_SET, ",".join(spec.country_set)))
    echo.extend(sorted(spec.constraint_choices.items()))
    return tuple(echo)


def _run_on_instance(
    inst: ModelInstance,
    spec: ScenarioSpec,
    deltas: list[Delta],
    warm: bool = False,
    start=None,
) -> tuple[RunResult, object]:
    """Run one row's planned ``deltas`` on ``inst``: its result, and the
    optimal basis it was solved warm from ``start`` to (None if it was not
    solved warm). The plan has applied the deltas once already, so they
    apply; anything this raises fails the row."""
    started = time.perf_counter()
    inst.reset()
    inst.apply(deltas)
    # resolve certifies whatever it returns; a cold solve is checked here.
    solution = inst.resolve(start) if warm else certified(inst.lp, solve(inst.lp))
    result = RunResult(spec.run_id, solution, _echo(spec), lp=inst.snapshot(),
                       wall_time=time.perf_counter() - started)
    return result, inst.basis if warm else None


@dataclass(frozen=True)
class _Sweep:
    """A planned sweep: each country set's one build, each row's deltas
    against it (or its issue, or the message its build, expansion or
    deltas failed with), the rows that can run in the order to run them,
    and each row's parent (None for the base)."""

    specs: list[ScenarioSpec]
    builds: dict[tuple[str, ...] | None, LinearProgram]
    deltas: list[list[Delta] | str]
    order: list[int]
    parents: list[int | None]
    warm_keys: frozenset

    @cached_property
    def rank(self) -> dict[int, int]:
        """Each row's place in the order ready rows run in: the longest chain
        of rows from it down its tree first, tree order among equals."""
        heights = [1] * len(self.specs)
        for idx in reversed(self.order):  # children after their parent in depth-first order
            if self.parents[idx] is not None:
                heights[self.parents[idx]] = max(heights[self.parents[idx]], heights[idx] + 1)
        return {idx: k for k, idx in enumerate(sorted(self.order, key=lambda idx: -heights[idx]))}

    @cached_property
    def children(self) -> list[list[int]]:
        """Each row's tree children in :attr:`rank` order."""
        children: list[list[int]] = [[] for _ in self.specs]
        for idx in self.order:
            if self.parents[idx] is not None:
                children[self.parents[idx]].append(idx)
        return [sorted(rows, key=self.rank.__getitem__) for rows in children]


# Planning coordinate of each delta kind.
_FIELDS = {"obj": 0, "lo": 1, "up": 2, "rhs": 3, "coef": 4}
# A value moved to or from infinity has no finite relative change. It counts
# as this far along its coordinate, so such rows join each other and stay
# away from every finite row.
_FAR = 1e6


def _tree(lp: LinearProgram, rows: list[list[Delta]]) -> tuple[list[int], list[int | None]]:
    """Plan the warm starts of one instance's rows from their deltas alone.

    A row is the vector of its relative changes ``(v - base) / max(1,
    |base|)`` at every position (cost, bound, rhs or matrix cell) any row
    changes; a cell's base is its one entry's value (see
    :func:`solver._cell_index`), 0 where it has none. The rows form a Prim
    minimum spanning tree under the L2 distance, rooted at the base (the
    zero vector); ties go to the lower row index, and the base wins a tie
    for parent. Returns the rows in depth-first order, each node's children
    by distance and then index, and each row's parent (None for the base).
    """
    changes = [
        {(_FIELDS[d.kind], -1 if d.row is None else d.row, -1 if d.col is None else d.col): d.value
         for d in deltas}
        for deltas in rows
    ]
    positions = sorted(set().union(*changes))
    field_, row, col = np.array(positions, dtype=np.int64).reshape(-1, 3).T
    base = np.zeros(len(positions))
    for k, values in enumerate((lp.obj, lp.lo, lp.hi)):
        base[field_ == k] = values[col[field_ == k]]
    base[field_ == 3] = lp.rhs[row[field_ == 3]]
    cells = np.flatnonzero(field_ == 4)
    if cells.size:  # a cell's value is its one entry's; 0 off the pattern
        at = _cell_index(lp).find(lp, row[cells], col[cells])
        base[cells[at >= 0]] = lp.a_vals[at[at >= 0]]

    column = {p: k for k, p in enumerate(positions)}
    n = len(rows)
    at = np.repeat(np.arange(n), [len(c) for c in changes])
    k = np.fromiter((column[p] for c in changes for p in c), np.int64, len(at))
    v = np.fromiter((x for c in changes for x in c.values()), float, len(at))
    b = base[k]
    with np.errstate(invalid="ignore"):
        rel = (v - b) / np.maximum(1.0, np.abs(b))
        rel = np.where(v == b, 0.0, np.where(np.isfinite(rel), rel, np.copysign(_FAR, v - b)))
    # Each row's entries by position.
    by_row = np.argsort(at * len(positions) + k, kind="stable")
    at, k, rel = at[by_row], k[by_row], rel[by_row]
    # Squared distances order as the distances do: |a - b|^2 = |a|^2 +
    # |b|^2 - 2 a.b, with a.b taken one tree row at a time, so memory stays
    # linear in the rows. |a|^2 sums a row's nonzero squares as
    # ``np.add.reduceat`` does, and a.b sums its products from zero in
    # position order, as scipy's sparse sum and product do.
    square = rel * rel
    nonzero = square != 0.0
    near = np.zeros(n)
    rows_with = np.flatnonzero(np.bincount(at[nonzero], minlength=n))
    if rows_with.size:
        near[rows_with] = np.add.reduceat(square[nonzero], np.searchsorted(at[nonzero], rows_with))
    ends = np.searchsorted(at, np.arange(n + 1))
    parent, dist, free = np.full(n, -1), near.copy(), np.ones(n, dtype=bool)
    for _ in range(n):
        u = int(np.argmin(np.where(free, dist, np.inf)))  # the lowest index among ties
        free[u] = False
        w, entries = np.zeros(len(positions)), slice(ends[u], ends[u + 1])
        w[k[entries]] = rel[entries]
        to_u = np.maximum(near + near[u] - 2.0 * np.bincount(at, weights=rel * w[k], minlength=n), 0.0)
        closer = free & ((to_u < dist) | ((to_u == dist) & (u < parent)))
        dist[closer], parent[closer] = to_u[closer], u

    children: list[list[int]] = [[] for _ in range(n + 1)]  # the base's last
    for j in sorted(range(n), key=lambda j: (dist[j], j)):
        children[parent[j]].append(j)
    order, stack = [], children[-1][::-1]
    while stack:
        j = stack.pop()
        order.append(j)
        stack.extend(reversed(children[j]))
    return order, [None if p < 0 else int(p) for p in parent]


def _plan(
    specs: list[ScenarioSpec],
    data: SystemData,
    config: ModelConfig,
    features: FeatureMatrix | None = None,
    constraint_blocks: dict[str, tuple[str, ...]] | None = None,
    fixed_capacities=None,
    warm: bool = True,
) -> _Sweep:
    """Build each country set once, expand each row once against it and
    apply each row's deltas once to a scratch copy of it. Country sets
    follow their first row; with ``warm``, a set of ``_WARM_MIN_ROWS`` or
    more rows runs as its :func:`_tree`, any other in table order. A row
    with an ``issue`` (it joins no set), or whose set does not build, whose
    overrides do not expand or whose deltas do not apply, keeps the message
    and is left out of the order; it is planned as the base if it does not
    expand, and its tree children start from the base."""
    groups: dict[tuple[str, ...] | None, list[int]] = {}
    for idx, spec in enumerate(specs):
        if not spec.issue:
            groups.setdefault(spec.country_set, []).append(idx)
    builds: dict[tuple[str, ...] | None, LinearProgram] = {}
    deltas: list[list[Delta] | str] = [spec.issue or [] for spec in specs]
    order: list[int] = []
    parents: list[int | None] = [None] * len(specs)
    warm_keys = set()
    for key, members in groups.items():
        try:
            lp = build_model(data, config, features, None if key is None else list(key))
            builds[key] = lp = apply_dispatch_only(lp, fixed_capacities) if fixed_capacities else lp
        except (ValidationError, KeyError, ValueError) as exc:
            for idx in members:
                deltas[idx] = str(exc)
            continue
        for idx in members:
            try:
                deltas[idx] = expand_overrides(specs[idx], lp, data, config, constraint_blocks)
            except (ValidationError, KeyError, ValueError) as exc:
                deltas[idx] = str(exc)
        if not warm or len(members) < _WARM_MIN_ROWS:
            order.extend(members)
            continue
        warm_keys.add(key)
        rows = [deltas[idx] if isinstance(deltas[idx], list) else [] for idx in members]
        tree_order, tree_parents = _tree(lp, rows)
        order.extend(members[j] for j in tree_order)
        for j, p in enumerate(tree_parents):
            parents[members[j]] = None if p is None else members[p]
    scratch = {key: ModelInstance(lp) for key, lp in builds.items()}
    for idx, row in enumerate(deltas):
        if isinstance(row, list):
            try:
                scratch[specs[idx].country_set].reset()
                scratch[specs[idx].country_set].apply(row)
            except (KeyError, ValueError) as exc:
                deltas[idx] = str(exc)
    order = [idx for idx in order if isinstance(deltas[idx], list)]
    parents = [None if p is None or isinstance(deltas[p], str) else p for p in parents]
    return _Sweep(specs, builds, deltas, order, parents, frozenset(warm_keys))


# A row's start when it runs in the process that ran its tree parent just
# before: the basis that row left there. A value, not an object, so it
# keeps its meaning once pickled.
_LEFT = "left"


class _Tasks:
    """Runs sweep tasks in one process: the calling one in ``rebuild`` and
    ``single_instance`` mode, each worker in ``parallel``.

    ``("base", key)`` solves warm country set ``key``'s build cold, the
    set's one base solve, on no instance, and returns ``("base", key,
    statuses)``: its :func:`~voltaic.solver.base_statuses` (None if there
    are none or the solve raised: the set's rows then run cold). ``("row",
    idx, start, base)`` solves row ``idx``, one the plan found can run, and
    finishes it: from the base basis (``start`` None), from shipped
    statuses, or from the basis the last row run here left (``_LEFT``).
    ``base`` is the set's base statuses, from which a process opens its
    handle (None: the row runs cold). It returns ``("row", idx, result,
    done, statuses)``: the result without its program, what ``finish``
    made of it and, only for a row with two or more tree children, the
    statuses of the basis it left; or ``("fail", idx, error)`` if solving
    or finishing the row raised, naming the exception. Rows compile one
    instance per country set, which each row resets; a row that raised
    drops its set's instance, so the next row here opens a fresh one."""

    def __init__(self, sweep: _Sweep, finish=None):
        self.sweep, self.finish = sweep, finish
        self.instances: dict[tuple[str, ...] | None, ModelInstance] = {}
        self.left = None  # the basis the last row run here left

    def _instance(self, key) -> ModelInstance:
        if key not in self.instances:
            self.instances[key] = ModelInstance(self.sweep.builds[key])
        return self.instances[key]

    def __call__(self, task: tuple) -> tuple:
        sweep = self.sweep
        if task[0] == "base":
            try:
                statuses = base_statuses(sweep.builds[task[1]])
            except Exception:  # noqa: BLE001 - the set's rows run cold
                statuses = None
            return "base", task[1], statuses
        _, idx, start, base = task
        spec = sweep.specs[idx]
        key = spec.country_set
        try:
            inst = self._instance(key)
            warm = base is not None and inst.open(base) is not None
            start = self.left if start == _LEFT else start
            result, self.left = _run_on_instance(inst, spec, sweep.deltas[idx], warm, start)
            done = None if self.finish is None else self.finish(result)
        except Exception as exc:  # noqa: BLE001 - fails this row alone
            self.left = None
            self.instances.pop(key, None)
            return "fail", idx, f"{type(exc).__name__}: {exc}"
        result.lp = None
        branches = self.left is not None and len(sweep.children[idx]) > 1
        return "row", idx, result, done, basis_statuses(self.left) if branches else None


def _worker(run: _Tasks, conn) -> None:
    """A ``parallel`` worker: runs each task the parent sends and sends back
    what it returned, until the parent sends None."""
    try:
        for task in iter(conn.recv, None):
            conn.send(run(task))
    except EOFError:
        pass  # the parent is gone


class _Ready:
    """A sweep's ready queue, kept by the calling process in every mode,
    and each row's ``(result, done)`` as it comes back.

    Rows the plan found cannot run are finished first, here, as errors.
    Then warm country sets' bases go out, for sets with a row that can run,
    then rows, the longest chain below first (tree order among equals). A
    solved base makes its set's tree roots ready, to start from the base
    basis. A finished row's first tree child goes straight back to the
    process that ran the row, to start from the basis the row left there
    (``_LEFT``); its other children wait here with that basis's statuses.
    So every row starts from its tree parent's basis, whichever process
    runs it. A row that raised, or whose process died, is finished here as
    an error, and its children start from the base basis."""

    def __init__(self, sweep: _Sweep, finish=None):
        self.sweep, self.finish = sweep, finish
        self.heap: list[tuple] = []
        self.bases: dict = {}  # warm country set -> its base basis's statuses, None without a handle
        self.roots: dict = {}  # warm country set -> its tree roots, ready once its base is solved
        self.done: dict[int, tuple[RunResult, object]] = {}
        for idx, deltas in enumerate(sweep.deltas):
            if isinstance(deltas, str):
                self._fail(idx, deltas)
        for idx in sweep.order:
            if sweep.parents[idx] is None:
                if (key := sweep.specs[idx].country_set) in sweep.warm_keys:
                    self.roots.setdefault(key, []).append(idx)
                else:
                    self._queue([idx], None)
        for k, key in enumerate(self.roots):
            heapq.heappush(self.heap, ((0, k), ("base", key)))

    def _task(self, idx: int, start) -> tuple:
        return "row", idx, start, self.bases.get(self.sweep.specs[idx].country_set)

    def _queue(self, rows: list[int], start) -> None:
        for idx in rows:
            heapq.heappush(self.heap, ((1, self.sweep.rank[idx]), self._task(idx, start)))

    def pop(self) -> tuple:
        return heapq.heappop(self.heap)[1]

    def receive(self, message: tuple) -> tuple | None:
        """Take what a process returned for its task; returns the task that
        process is to run next, if any."""
        if message[0] == "base":
            _, key, self.bases[key] = message
            self._queue(self.roots[key], None)
            return None
        if message[0] == "fail":
            _, idx, error = message
            self._fail(idx, error)
            self._queue(self.sweep.children[idx], None)
            return None
        _, idx, result, done, statuses = message
        self.done[idx] = result, done
        first, *others = self.sweep.children[idx] or [None]
        self._queue(others, statuses)
        return None if first is None else self._task(first, _LEFT)

    def _fail(self, idx: int, error: str) -> None:
        """Row ``idx`` fails with ``error``, finished in this process: the
        one place a sweep makes an error result."""
        spec = self.sweep.specs[idx]
        result = RunResult(spec.run_id, None, _echo(spec), error=error)
        self.done[idx] = result, None if self.finish is None else self.finish(result)

    def _lost(self, task: tuple, exitcode) -> None:
        """The worker running ``task`` died: a base's set's roots are solved
        cold; a row fails, finished here so that its store is this sweep's,
        and its tree children start from the base basis."""
        if task[0] == "base":
            self.receive(("base", task[1], None))  # as a base without a handle
        else:
            self.receive(("fail", task[1], f"the worker process running this row died (exit code {exitcode})"))

    def serve(self, run: _Tasks) -> None:
        """Run every task with ``run``, in this process."""
        task = None
        while task is not None or self.heap:
            task = self.receive(run(task or self.pop()))

    def serve_forked(self, run: _Tasks, workers: int) -> None:
        """Run every task on ``workers`` forked processes, each running its
        copy of ``run``, one task at a time. A worker that dies loses only
        the task it was running (see :meth:`_lost`), and a fresh one is
        forked in its place. So is a worker that has solved a base, once it
        has replied: no process that held a base's solve runs a row, and
        none keeps that solve's interior-point heap."""
        # Forked workers inherit the plan and ``run`` without pickling and
        # import nothing; the parent has loaded no solver to copy.
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if "fork" in methods else None)
        procs, conns, running = {}, {}, {}  # slot -> process, pipe end, task

        def fork(slot: int) -> None:
            here, there = ctx.Pipe()
            procs[slot] = ctx.Process(target=_worker, args=(run, there), daemon=True)
            procs[slot].start()
            there.close()
            conns[slot] = here

        def send(slot: int, task) -> None:
            running[slot] = task
            try:
                conns[slot].send(task)
            except OSError:
                pass  # it died: its end of the pipe reads EOF next

        n = len(self.sweep.specs)
        try:
            for slot in range(workers):
                fork(slot)
            while len(self.done) < n:
                if not conns:  # every worker died without a task
                    for idx in set(range(n)) - set(self.done):
                        self._fail(idx, "no worker process was left to run this row")
                    break
                for slot in [slot for slot in conns if slot not in running][:len(self.heap)]:
                    send(slot, self.pop())
                for conn in multiprocessing.connection.wait(list(conns.values())):
                    slot = next(s for s, c in conns.items() if c is conn)
                    task = running.pop(slot, None)
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):  # OSError: it died with a message unread
                        proc = procs.pop(slot)
                        conns.pop(slot).close()
                        proc.join()
                        if task is not None:  # so one that dies idle is not replaced forever
                            self._lost(task, proc.exitcode)
                            fork(slot)
                        continue
                    task = self.receive(message)
                    if message[0] == "base":  # retire it; send marked it busy
                        send(slot, None)
                        del running[slot]
                        conns.pop(slot).close()
                        procs.pop(slot).join()
                        fork(slot)
                    elif task is not None:
                        send(slot, task)
            for slot in conns:
                send(slot, None)
            for proc in procs.values():
                proc.join()
        finally:
            for proc in procs.values():
                if proc.is_alive():
                    proc.terminate()
                    proc.join()
            for conn in conns.values():
                conn.close()


def _program(sweep: _Sweep, idx: int) -> LinearProgram:
    """Row ``idx``'s program: its country set's build with its deltas
    applied, as the instance that solved the row held it."""
    inst = ModelInstance(sweep.builds[sweep.specs[idx].country_set])
    inst.apply(sweep.deltas[idx])
    return inst.lp


def run_scenarios(
    data: SystemData,
    config: ModelConfig,
    features: FeatureMatrix | None,
    specs: list[ScenarioSpec],
    mode: str = "single_instance",
    threads: int = 0,
    constraint_blocks: dict[str, tuple[str, ...]] | None = None,
    fixed_capacities=None,
) -> list[RunResult]:
    """Execute all scenario rows and return results in spec order.

    This process first builds the model once per country set and expands
    each row once against it (:func:`_plan`). Each mode compiles one
    instance per country set and applies each run's deltas to the restored
    base, bitwise the build: ``rebuild`` solves every run cold;
    ``single_instance`` re-solves warm where it can; ``parallel`` does the
    same in worker processes, which only compile, apply and solve. No result
    holds its program once its row is finished: every row that ran derives
    ``lp`` from the plan when it is first read, in every mode.
    ``threads`` = 0 uses every available core; ``parallel`` forks no more
    workers than there are rows that can run.

    In the two instance modes a country set with eight or more rows in
    ``specs`` is re-solved warm (see :meth:`ModelInstance.resolve`); smaller
    sets are solved cold. The rows of each warm set are planned as a tree
    (:func:`_tree`) from their deltas: each row starts from the optimal
    basis of its tree parent, the nearest row by relative change, if that
    row left one (solved warm, or solved cold after a warm attempt with
    all rhs finite), and from the base basis otherwise. In every mode
    this process hands out the rows from one ready queue (:class:`_Ready`),
    to itself or, in ``parallel``, to forked workers: each warm set's base
    is solved once, cold, and no row is solved twice. Every process that
    runs a warm set's rows opens its handle from the base's statuses (see
    :meth:`ModelInstance.open`), so no handle that solved a base runs a
    row. With two or more workers the worker that solved a base is also
    replaced by a fresh one, so no row runs in a process that held a base's
    solve. A row's start therefore depends on the table alone, and
    ``parallel`` returns bitwise what ``single_instance`` does, whatever
    ``threads`` is. All three modes produce the same objectives (to the
    1e-6 certification). A row fails alone as an ``error`` run if it has an
    ``issue`` (see :func:`parse_iteration_table`), its country set does not
    build, its overrides do not expand or its deltas do not apply (the plan
    finds these, and no worker sees the row), or if its solve or finish
    raises or its worker dies; that row's tree children start from the base
    basis. A base solve that raises leaves its set's rows to be solved cold.
    """
    return [
        result
        for result, _ in _run_and_finish(
            data, config, features, specs, mode, threads, constraint_blocks, fixed_capacities
        )
    ]


def _run_and_finish(
    data: SystemData,
    config: ModelConfig,
    features: FeatureMatrix | None,
    specs: list[ScenarioSpec],
    mode: str,
    threads: int,
    constraint_blocks: dict[str, tuple[str, ...]] | None = None,
    fixed_capacities=None,
    finish=None,
) -> list[tuple[RunResult, object]]:
    """:func:`run_scenarios`, with each row's result paired with what
    ``finish(result)`` returned. ``finish`` runs once per row, in the
    process that solved the row and right after it: in a worker in
    ``parallel`` mode (so what it returns must pickle), in this process
    otherwise. A row that cannot run (see :func:`_plan`) is finished here,
    as an error, before any solve, and so is a row that raised or whose
    worker died."""
    if not specs:
        raise ValidationError("run_scenarios: no scenario specs given")
    if mode not in MODES:
        raise ValidationError(f"run_scenarios: unknown mode {mode!r} (use one of {MODES})")
    if threads < 0:
        raise ValidationError(f"run_scenarios: threads must be 0 (all cores) or more, got {threads}")
    sweep = _plan(specs, data, config, features, constraint_blocks, fixed_capacities, mode != "rebuild")
    workers = min(threads or os.cpu_count() or 1, len(sweep.order)) if mode == "parallel" else 1
    ready, run = _Ready(sweep, finish), _Tasks(sweep, finish)
    if workers > 1:
        ready.serve_forked(run, workers)
    else:
        ready.serve(run)
    for idx, (result, _) in ready.done.items():
        if result.error is None:
            result.lp = partial(_program, sweep, idx)
    return [ready.done[i] for i in range(len(specs))]

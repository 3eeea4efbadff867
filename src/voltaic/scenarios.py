"""The scenario table: parsing, cell rules and override expansion.

Every row of ``iteration_table.csv`` is one scenario run: the first column
holds the run id, every other column heading is a symbol reference whose
cells override the base model for that run only. Overrides never leak
between rows; each run sees the base model plus its own changes. This
module reads the table into :class:`ScenarioSpec` rows and turns a row into
solver deltas (:func:`expand_overrides`); running the rows is
:mod:`voltaic.sweep`'s. ``run_scenarios``, ``RunResult`` and ``MODES`` stay
importable from here.

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
import io
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import permutations, product

from .model import COST_TERMS, LinearProgram, cost_coefficient, share_rhs
from .solver import Delta
from .system import ModelConfig, SystemData, ValidationError, field_issue, series_issue

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
        suffix = next((f".{s}" for s, kind in _SUFFIX_KINDS.items() if kind == self.target_kind), "")
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
    elif domain:
        kind = PARAMETER  # an unknown one is reported when the override is expanded
    else:
        kind = CONSTRAINT_CHOICE
    return SymbolRef(name, tuple(domain), kind)


def parse_iteration_table(csv_text: str) -> list[ScenarioSpec]:
    """Parse the scenario table into one spec per row.

    The first column holds run ids; an absent ``country_set`` column means
    every node of the dataset participates in every run. A malformed or
    repeated heading, or an empty, repeated or comma-holding run id,
    raises. A row with a value beyond the header, or a cell that does not
    read or holds a value its column cannot take (see :func:`_check_cell`),
    keeps that message as its ``issue``: it cannot run.
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
        if "," in run_id:  # the report writes run ids as CSV cells
            raise ValidationError(f"iteration_table: run id {run_id!r} holds a comma")
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
        relaxed = 0.0 if block == "renewable_share" else math.inf
        deltas.extend(Delta("rhs", row=fam.start + i, value=relaxed) for i in range(fam.size))
    return deltas


def _echo(spec: ScenarioSpec) -> tuple[tuple[str, str], ...]:
    echo = [(ref.render(), str(value)) for ref, value in spec.overrides]
    if spec.country_set is not None:
        echo.append((COUNTRY_SET, ",".join(spec.country_set)))
    echo.extend(sorted(spec.constraint_choices.items()))
    return tuple(echo)


def __getattr__(name: str):
    """The sweep's public names, importable from here as before."""
    if name in ("MODES", "RunResult", "run_scenarios"):
        from . import sweep

        return getattr(sweep, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

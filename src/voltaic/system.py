"""Domain types describing one power system instance.

Everything the optimization needs is collected in :class:`SystemData`:
nodes with hourly demand, generation technologies, storage technologies,
cross-border lines and the named hourly time series they reference.
:class:`ModelConfig` carries the run settings, :class:`FeatureMatrix` the
per-node activation flags of the optional model features (all of which
must be off for the basic model to be solvable).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

DISPATCHABLE = "dispatchable"
VARIABLE_RENEWABLE = "variable_renewable"
TECH_KINDS = (DISPATCHABLE, VARIABLE_RENEWABLE)

#: Optional feature modules that can be switched per node. Any active entry
#: is rejected at build time; only the basic model is solvable.
FEATURE_MODULES = ("dsm", "ev_endogenous", "ev_exogenous", "reserves", "prosumage", "heat")

HOURS_PER_YEAR = 8760


class ValidationError(ValueError):
    """Raised when input data violates a declared invariant.

    ``issues`` holds one human-readable message per violation, each naming
    the offending object and field.
    """

    def __init__(self, issues: list[str] | str):
        if isinstance(issues, str):
            issues = [issues]
        self.issues = issues
        super().__init__("; ".join(issues))


def hour_label(h: int) -> str:
    """1-based hour index to its label, e.g. 1 -> 'h1'."""
    return f"h{h}"


def hour_index(label: str) -> int:
    """Inverse of :func:`hour_label`; raises on malformed labels."""
    if not label.startswith("h"):
        raise ValueError(f"not an hour label: {label!r}")
    return int(label[1:])


@dataclass(frozen=True)
class TimeSeries:
    """A named hourly profile (demand in MWh/h or capacity factors)."""

    name: str
    values: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Node:
    id: str
    demand: str  # name of the demand series
    min_renewable_share: float = 0.0
    co2_cap: float | None = None  # t per horizon, None = uncapped


@dataclass(frozen=True)
class Technology:
    """A generation technology, parameterized uniformly across nodes.

    Costs are annualized EUR/MW (investment, fixed) and EUR/MWh (variable).
    Variable renewables carry per-node capacity-factor series references in
    ``availability``; dispatchables have none.
    """

    id: str
    kind: str
    c_inv_power: float
    c_fix: float = 0.0
    c_var: float = 0.0
    co2_intensity: float = 0.0  # t/MWh
    cap_min: float = 0.0
    cap_max: float = math.inf
    availability: dict[str, str] | None = None  # node id -> series name

    @property
    def is_renewable(self) -> bool:
        return self.kind == VARIABLE_RENEWABLE


@dataclass(frozen=True)
class StorageTech:
    """An electricity storage technology with separate energy/power sizing."""

    id: str
    c_i_sto_e: float  # EUR/MWh(cap) per annum
    c_i_sto_p: float  # EUR/MW(cap) per annum
    c_fix: float = 0.0  # EUR/MW per annum, charged on power capacity
    eta_in: float = 1.0
    eta_out: float = 1.0
    e_min: float = 0.0
    e_max: float = math.inf
    p_min: float = 0.0
    p_max: float = math.inf
    c_var_sto: float = 0.0  # EUR/MWh on discharge


@dataclass(frozen=True)
class Line:
    """A cross-border exchange corridor with expandable transfer capacity."""

    from_node: str
    to_node: str
    ntc_existing: float = 0.0
    ntc_max: float = 0.0
    c_inv_ntc: float = 0.0
    loss_factor: float = 0.0

    @property
    def id(self) -> str:
        return f"{self.from_node}-{self.to_node}"


@dataclass(frozen=True)
class ModelConfig:
    """Run settings, mirroring the keys of ``project_variables.csv``
    (:data:`voltaic.project.PROJECT_SETTINGS`); a field's default is its
    key's default."""

    base_year: int = 2030
    end_hour: int = HOURS_PER_YEAR
    dispatch_only: bool = False
    network_transfer: bool = True
    infeasibility: bool = False
    slack_penalty: float = 10_000.0  # EUR/MWh on slack generation
    scenarios_iteration: bool = True
    skip_input: bool = False  # accepted for compatibility; every load reads the files
    skip_iteration_data_file: bool = False
    no_crossover: bool = True  # accepted for compatibility; has no effect here
    guss: bool = True
    guss_parallel: bool = False
    guss_parallel_threads: int = 0  # 0 = all available cores
    data_input_file: str = "static_input"
    time_series_file: str = "timeseries_input"
    iteration_data_file: str = "iteration_data"
    gdx_convert_parallel_threads: int = 0
    write_npz: bool = True  # binary columnar store in addition to the csv store
    report_data: bool = True

    def horizon_share(self) -> float:
        """Fraction of a full year covered; scales annualized costs."""
        return self.end_hour / HOURS_PER_YEAR


@dataclass(frozen=True)
class FeatureMatrix:
    """Binary activation flags per (feature module, node)."""

    entries: dict[tuple[str, str], int] = field(default_factory=dict)

    def active(self) -> list[tuple[str, str]]:
        return sorted(key for key, flag in self.entries.items() if flag)


@dataclass(frozen=True)
class SystemData:
    """The full exogenous parameterization of one model instance."""

    nodes: tuple[Node, ...]
    technologies: tuple[Technology, ...] = ()
    storages: tuple[StorageTech, ...] = ()
    lines: tuple[Line, ...] = ()
    series: dict[str, TimeSeries] = field(default_factory=dict)

    def node_ids(self) -> list[str]:
        return [n.id for n in self.nodes]

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise KeyError(f"unknown node {node_id!r}")

    def technology(self, tech_id: str) -> Technology:
        for t in self.technologies:
            if t.id == tech_id:
                return t
        raise KeyError(f"unknown technology {tech_id!r}")

    def storage(self, sto_id: str) -> StorageTech:
        for s in self.storages:
            if s.id == sto_id:
                return s
        raise KeyError(f"unknown storage {sto_id!r}")

    def line(self, line_id: str) -> Line:
        for l in self.lines:
            if l.id == line_id:
                return l
        raise KeyError(f"unknown line {line_id!r}")

    def demand_values(self, node_id: str, end_hour: int) -> tuple[float, ...]:
        return self.series[self.node(node_id).demand].values[:end_hour]

    def with_series(self, ts: TimeSeries) -> "SystemData":
        new = dict(self.series)
        new[ts.name] = ts
        return replace(self, series=new)


# A numeric field's domain: a test that ``nan`` fails, and its text.
_COST = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")
_SHARE = (lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_EFFICIENCY = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_LOSS = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_CO2_CAP = (lambda v: v is None or v >= 0, ">= 0")

#: Per ``SystemData`` record attribute: the record's name in messages, the
#: domain of each of its numeric fields, and its (minimum, maximum) field
#: pairs, which need ``0 <= minimum <= maximum``.
RECORD_DOMAINS = {
    "nodes": ("node", {"min_renewable_share": _SHARE, "co2_cap": _CO2_CAP}, ()),
    "technologies": ("technology", dict.fromkeys(("c_inv_power", "c_fix", "c_var", "co2_intensity"), _COST),
                     (("cap_min", "cap_max"),)),
    "storages": ("storage", {"eta_in": _EFFICIENCY, "eta_out": _EFFICIENCY,
                             **dict.fromkeys(("c_i_sto_e", "c_i_sto_p", "c_fix", "c_var_sto"), _COST)},
                 (("e_min", "e_max"), ("p_min", "p_max"))),
    "lines": ("line", {"loss_factor": _LOSS, "c_inv_ntc": _COST}, (("ntc_existing", "ntc_max"),)),
}


def field_issue(owner: str, attr: str, name: str, value, label: str | None = None) -> str | None:
    """The issue of ``value`` in field ``name`` of an ``attr`` record by its
    :data:`RECORD_DOMAINS` entry, worded ``owner: label must be ..., got
    value`` (``label`` defaults to ``name``); None if the value holds."""
    holds, text = RECORD_DOMAINS[attr][1][name]
    return None if holds(value) else f"{owner}: {label or name} must be {text}, got {value}"


def series_issue(data: SystemData, owner: str, role: str, name: str, end_hour: int, where: str = "") -> str | None:
    """The rule for one series: ``name`` is a series of ``data`` covering
    ``end_hour`` hours, with values in [0, 1] if ``role`` is availability.
    Returns the issue, None if the series holds."""
    series = data.series.get(name)
    if series is None:
        return f"{owner}: {role} references unknown series {name!r}{where}"
    if len(series) < end_hour:
        return f"{owner}: {role} series {name!r} has {len(series)} hours, end_hour needs {end_hour}"
    if role == "availability" and any(not 0.0 <= v <= 1.0 for v in series.values[:end_hour]):
        return f"{owner}: availability series {name!r} has values outside [0, 1]"
    return None


def validate_series(data: SystemData, node_ids: set[str], end_hour: int) -> list[str]:
    """Check the series of the nodes ``node_ids``; returns issues, empty if clean.

    Each of those nodes' demand series must exist and cover ``end_hour``
    hours. Each variable renewable needs an availability series at each of
    them, naming a known series that covers ``end_hour`` hours with values
    in [0, 1], each by :func:`series_issue`. An id in ``node_ids`` that is
    no node of ``data`` has no demand, but its availability series are
    checked.
    """
    issues: list[str | None] = []
    nodes = dict.fromkeys(n.id for n in data.nodes if n.id in node_ids)  # a repeated id once
    for node_id in nodes:
        issues.append(series_issue(data, f"node {node_id}", "demand", data.node(node_id).demand, end_hour))
    for tech in data.technologies:
        if not tech.is_renewable:
            continue
        owner = f"technology {tech.id}"
        if not tech.availability:
            issues.append(f"{owner}: availability required for variable_renewable")
            continue
        for node_id in nodes:
            if node_id not in tech.availability:
                issues.append(f"{owner}: availability missing for node {node_id}")
        for node_id, name in tech.availability.items():
            if node_id in node_ids:
                issues.append(series_issue(data, owner, "availability", name, end_hour, f" for node {node_id}"))
    return [issue for issue in issues if issue is not None]


def validate_system(data: SystemData, config: ModelConfig) -> list[str]:
    """Check every declared invariant; returns issues, empty if clean.

    Each message names the object and field so a failing load can be traced
    back to its input cell. The numeric fields are checked against
    :data:`RECORD_DOMAINS` and the series by :func:`validate_series`, at
    every node and at every node an availability series is given for.
    """
    issues: list[str] = []

    if not 1 <= config.end_hour <= HOURS_PER_YEAR:
        issues.append(f"config: end_hour must be in [1, {HOURS_PER_YEAR}], got {config.end_hour}")

    for attr, (kind, domains, ranges) in RECORD_DOMAINS.items():
        seen: set[str] = set()
        for record in getattr(data, attr):
            owner = f"{kind} {record.id}"
            if kind != "line" and record.id in seen:  # a line's key is its node pair, checked below
                issues.append(f"{owner}: id duplicated")
            seen.add(record.id)
            issues.extend(filter(None, (field_issue(owner, attr, name, getattr(record, name)) for name in domains)))
            for low, high in ranges:
                a, b = getattr(record, low), getattr(record, high)
                if not 0 <= a <= b:
                    issues.append(f"{owner}: need 0 <= {low} <= {high}, got [{a}, {b}]")

    for tech in data.technologies:
        if tech.kind not in TECH_KINDS:
            issues.append(f"technology {tech.id}: kind must be one of {TECH_KINDS}, got {tech.kind!r}")
        if tech.availability and not tech.is_renewable:
            issues.append(f"technology {tech.id}: availability only allowed for variable_renewable")

    node_ids = set(data.node_ids())
    seen_pairs: set[frozenset[str]] = set()
    for line in data.lines:
        if line.from_node == line.to_node:
            issues.append(f"line {line.id}: from_node and to_node must differ")
        pair = frozenset((line.from_node, line.to_node))
        if pair in seen_pairs:
            issues.append(f"line {line.id}: duplicate line for node pair")
        seen_pairs.add(pair)
        for end in (line.from_node, line.to_node):
            if end not in node_ids:
                issues.append(f"line {line.id}: references unknown node {end!r}")

    issues.extend(validate_series(
        data, node_ids.union(*(t.availability or () for t in data.technologies)), config.end_hour
    ))
    for name, ts in data.series.items():
        if name != ts.name:
            issues.append(f"series {name}: registered under mismatching name {ts.name!r}")
        if any(not math.isfinite(v) for v in ts.values):
            issues.append(f"series {name}: values must be finite")

    if config.infeasibility:
        worst = max((t.c_var for t in data.technologies), default=0.0)
        if not config.slack_penalty > worst:
            issues.append(
                f"config: slack_penalty ({config.slack_penalty}) must exceed every "
                f"c_var (max {worst}) when infeasibility is on"
            )

    return issues

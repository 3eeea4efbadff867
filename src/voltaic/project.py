"""Project directory layout, input parsing and validation.

A project is a plain directory tree::

    <root>/
      data_input/
        static_input/        nodes.csv technologies.csv availability.csv
                             storage.csv lines.csv [fixed_capacities.csv]
        timeseries_input/    *.csv   (hour column + one column per series)
      iterationfiles/
        iteration_table.csv
        iteration_data/      *.csv   (alternative series for overrides)
      model/
      settings/
        project_variables.csv features_node_selection.csv
        reporting_symbols.csv constraints_list.csv

The four record tables of ``static_input`` share one schema,
:data:`STATIC_TABLES`: a file's columns are the fields of its record
dataclass in :mod:`voltaic.system`, in field order (``demand`` is headed
``demand_series``; technology availability has its own file), and an empty
cell reads as the field's default, or 0.0 where the field has none. The
loader reads and :func:`voltaic.templates.write_project` writes through it.

Every validation failure is reported with its file and location; loading
aggregates all of them into one :class:`ValidationError` instead of dying
on the first.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import NamedTuple

from .model import CAPACITY_FAMILIES, COST_TERMS
from .scenarios import CONSTRAINT_BLOCKS, ScenarioSpec, _row_issue, parse_iteration_table
from .symbols import LEVEL, MARGINAL
from .system import (
    FEATURE_MODULES,
    FeatureMatrix,
    Line,
    ModelConfig,
    Node,
    StorageTech,
    SystemData,
    Technology,
    TimeSeries,
    ValidationError,
    validate_system,
)

log = logging.getLogger(__name__)

SETTINGS = "settings"
PROJECT_VARIABLES = "project_variables.csv"
FEATURES_FILE = "features_node_selection.csv"
REPORTING_FILE = "reporting_symbols.csv"
CONSTRAINTS_FILE = "constraints_list.csv"
ITERATION_TABLE = "iteration_table.csv"
FIXED_CAPACITIES = "fixed_capacities.csv"

#: Recognized keys of project_variables.csv.
CONFIG_KEYS = (
    "scenarios_iteration",
    "skip_input",
    "skip_iteration_data_file",
    "base_year",
    "end_hour",
    "dispatch_only",
    "network_transfer",
    "no_crossover",
    "infeasibility",
    "GUSS",
    "GUSS_parallel",
    "GUSS_parallel_threads",
    "data_input_file",
    "time_series_file",
    "iteration_data_file",
    "gdx_convert_parallel_threads",
    "gdx_convert_to_csv",
    "gdx_convert_to_pickle",
    "gdx_convert_to_vaex",
    "report_data",
    "slack_penalty",
)

REQUIRED_KEYS = ("base_year", "end_hour", "dispatch_only", "network_transfer", "infeasibility")

@dataclass(frozen=True)
class ProjectLayout:
    """Resolved paths of one project directory."""

    root: Path
    static_dir: str = "static_input"
    timeseries_dir: str = "timeseries_input"
    iteration_data_dir: str = "iteration_data"

    @property
    def settings(self) -> Path:
        return self.root / SETTINGS

    @property
    def data_input(self) -> Path:
        return self.root / "data_input"

    @property
    def static_input(self) -> Path:
        return self.data_input / self.static_dir

    @property
    def timeseries_input(self) -> Path:
        return self.data_input / self.timeseries_dir

    @property
    def iterationfiles(self) -> Path:
        return self.root / "iterationfiles"

    @property
    def iteration_table(self) -> Path:
        return self.iterationfiles / ITERATION_TABLE

    @property
    def iteration_data(self) -> Path:
        return self.iterationfiles / self.iteration_data_dir

    @property
    def results(self) -> Path:
        return self.root / "results"

    @property
    def report(self) -> Path:
        return self.root / "report"


@dataclass
class Project:
    """Everything a run needs, fully validated and in memory."""

    root: Path
    data: SystemData
    config: ModelConfig
    features: FeatureMatrix
    specs: list[ScenarioSpec]
    reporting: list[tuple[str, str]]
    constraint_blocks: dict[str, tuple[str, ...]]
    fixed_capacities: dict[tuple[str, tuple[str, ...]], float] = field(default_factory=dict)
    config_echo: dict[str, str] = field(default_factory=dict)
    layout: ProjectLayout | None = None


def _strip_ext(name: str) -> str:
    for ext in (".xlsx", ".csv"):
        if name.endswith(ext):
            return name[: -len(ext)]
    return name


def _parse_bool(value: str, where: str, issues: list[str]) -> bool:
    v = value.strip().lower()
    if v in ("yes", "true", "1"):
        return True
    if v in ("no", "false", "0"):
        return False
    issues.append(f"{where}: expected yes/no, got {value!r}")
    return False


def parse_project_variables(text: str, issues: list[str]) -> tuple[ModelConfig, dict[str, str]]:
    """Parse the settings table into a :class:`ModelConfig` plus raw echo."""
    raw: dict[str, str] = {}
    for i, row in enumerate(csv.reader(text.splitlines())):
        if not row or not row[0].strip():
            continue
        key = row[0].strip()
        if i == 0 and key.lower() == "variable":
            continue
        value = row[1].strip() if len(row) > 1 else ""
        if key not in CONFIG_KEYS:
            log.warning("project_variables: unknown key %r ignored", key)
            continue
        raw[key] = value

    for key in REQUIRED_KEYS:
        if key not in raw:
            issues.append(f"project_variables: missing required key {key!r}")
    if issues:
        return ModelConfig(), raw

    def flag(key: str, default: bool) -> bool:
        if key not in raw:
            return default
        return _parse_bool(raw[key], f"project_variables:{key}", issues)

    def count(key: str, default: int) -> int:
        if key not in raw:
            return default
        try:
            if int(raw[key]) >= 0:
                return int(raw[key])
        except ValueError:
            pass
        issues.append(f"project_variables:{key}: expected an integer >= 0 (0 = all cores), got {raw[key]!r}")
        return default

    end_hour_text = raw["end_hour"].strip()
    try:
        end_hour = int(end_hour_text[1:]) if end_hour_text.startswith("h") else int(end_hour_text)
    except ValueError:
        issues.append(f"project_variables:end_hour: expected h<hours>, got {end_hour_text!r}")
        end_hour = 8760
    try:
        base_year = int(raw["base_year"])
    except ValueError:
        issues.append(f"project_variables:base_year: expected integer, got {raw['base_year']!r}")
        base_year = 2030
    try:
        slack_penalty = float(raw.get("slack_penalty", 10_000.0))
    except ValueError:
        issues.append(f"project_variables:slack_penalty: expected a number, got {raw['slack_penalty']!r}")
        slack_penalty = 10_000.0

    config = ModelConfig(
        base_year=base_year,
        end_hour=end_hour,
        dispatch_only=flag("dispatch_only", False),
        network_transfer=flag("network_transfer", True),
        infeasibility=flag("infeasibility", False),
        slack_penalty=slack_penalty,
        scenarios_iteration=flag("scenarios_iteration", True),
        skip_input=flag("skip_input", False),
        skip_iteration_data_file=flag("skip_iteration_data_file", False),
        no_crossover=flag("no_crossover", True),
        guss=flag("GUSS", True),
        guss_parallel=flag("GUSS_parallel", False),
        guss_parallel_threads=count("GUSS_parallel_threads", 0),
        data_input_file=_strip_ext(raw.get("data_input_file", "static_input")),
        time_series_file=_strip_ext(raw.get("time_series_file", "timeseries_input")),
        iteration_data_file=_strip_ext(raw.get("iteration_data_file", "iteration_data")),
        gdx_convert_parallel_threads=count("gdx_convert_parallel_threads", 0),
        write_npz=flag("gdx_convert_to_pickle", True) or flag("gdx_convert_to_vaex", False),
        report_data=flag("report_data", True),
    )
    return config, raw


def _read_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _num(row: dict, key: str, where: str, issues: list[str], default: float | None = 0.0):
    text = (row.get(key) or "").strip()
    if text == "":
        return default
    try:
        return float(text)
    except ValueError:
        issues.append(f"{where}: column {key!r}: not a number: {text!r}")
        return default


class Column(NamedTuple):
    """One column of a static table: a field of the table's record."""

    field: str
    name: str  # the CSV header
    text: bool  # read and written as is, stripped on reading
    empty: float | None  # what an empty numeric cell reads as

    def parse(self, row: dict, where: str, issues: list[str]):
        if self.text:
            return (row.get(self.name) or "").strip()
        return _num(row, self.name, where, issues, default=self.empty)

    def format(self, value) -> str:
        """The cell text. A value is left empty only where an empty cell
        reads it back: None, or an infinite default."""
        if self.text:
            return value
        if value is None or (value == self.empty and math.isinf(value)):
            return ""
        return repr(value)


#: Record fields whose column has another name, and fields kept in a file of
#: their own (technology availability lives in availability.csv).
_RENAMED = {"demand": "demand_series"}
_OWN_FILE = ("availability",)


class StaticTable(NamedTuple):
    """One static input file: a row per record, a column per record field."""

    file: str
    attr: str  # the SystemData attribute holding the records
    record: type
    required: bool
    columns: tuple[Column, ...]

    def parse_row(self, row: dict, where: str, issues: list[str]) -> dict:
        return {col.field: col.parse(row, where, issues) for col in self.columns}

    def format_row(self, record) -> list[str]:
        return [col.format(getattr(record, col.field)) for col in self.columns]


def _static_table(file: str, attr: str, record: type, required: bool = False) -> StaticTable:
    columns = tuple(
        Column(
            f.name,
            _RENAMED.get(f.name, f.name),
            f.type in (str, "str"),
            0.0 if f.default is MISSING else f.default,
        )
        for f in fields(record)
        if f.name not in _OWN_FILE
    )
    return StaticTable(file, attr, record, required, columns)


#: The static input tables. Their columns are the record's fields in order;
#: an empty cell reads as the field's default, or 0.0 where it has none.
STATIC_TABLES = (
    _static_table("nodes.csv", "nodes", Node, required=True),
    _static_table("technologies.csv", "technologies", Technology),
    _static_table("storage.csv", "storages", StorageTech),
    _static_table("lines.csv", "lines", Line),
)


def _load_static(layout: ProjectLayout, issues: list[str]) -> SystemData:
    static = layout.static_input

    availability: dict[str, dict[str, str]] = {}
    path = static / "availability.csv"
    if path.exists():
        for i, row in enumerate(_read_rows(path), start=2):
            tech = (row.get("tech") or "").strip()
            node = (row.get("node") or "").strip()
            series = (row.get("series") or "").strip()
            if not tech or not node or not series:
                issues.append(f"availability.csv:{i}: needs tech, node and series")
                continue
            availability.setdefault(tech, {})[node] = series

    tables: dict[str, tuple] = {}
    for table in STATIC_TABLES:
        path = static / table.file
        records = []
        if path.exists():
            for i, row in enumerate(_read_rows(path), start=2):
                values = table.parse_row(row, f"{table.file}:{i}", issues)
                if table.record is Technology:
                    values["availability"] = availability.get(values["id"])
                records.append(table.record(**values))
        elif table.required:
            issues.append(f"{path}: missing file")
        tables[table.attr] = tuple(records)
    return SystemData(**tables, series={})


def _load_series_dir(directory: Path, issues: list[str]) -> dict[str, TimeSeries]:
    series: dict[str, TimeSeries] = {}
    if not directory.exists():
        return series
    for path in sorted(directory.glob("*.csv")):
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        if not rows:
            continue
        header = [h.strip() for h in rows[0]]
        start_col = 1 if header and header[0].lower() == "hour" else 0
        names = header[start_col:]
        columns: list[list[float]] = [[] for _ in names]
        for i, row in enumerate(rows[1:], start=2):
            if start_col and row and row[0].strip() != f"h{i - 1}":
                issues.append(f"{path.name}:{i}: hour column must be sequential, expected h{i - 1}")
            for k, cell in enumerate(row[start_col:]):
                try:
                    columns[k].append(float(cell))
                except (ValueError, IndexError):
                    issues.append(f"{path.name}:{i}: bad value {cell!r}")
        for name, values in zip(names, columns):
            if name in series:
                issues.append(f"{path.name}: series {name!r} defined twice")
                continue
            series[name] = TimeSeries(name, tuple(values))
    return series


def _load_features(path: Path, node_ids: list[str], issues: list[str]) -> FeatureMatrix:
    entries: dict[tuple[str, str], int] = {}
    if not path.exists():
        issues.append(f"{path}: missing file")
        return FeatureMatrix(entries)
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return FeatureMatrix(entries)
    header = [h.strip() for h in rows[0]]
    file_nodes = header[1:]
    for node in file_nodes:
        if node not in node_ids:
            issues.append(f"{FEATURES_FILE}: unknown node column {node!r}")
    for i, row in enumerate(rows[1:], start=2):
        module = row[0].strip()
        if module not in FEATURE_MODULES:
            issues.append(f"{FEATURES_FILE}:{i}: unknown module {module!r}")
            continue
        for node, cell in zip(file_nodes, row[1:]):
            try:
                flag = int(cell)
            except ValueError:
                issues.append(f"{FEATURES_FILE}:{i}: entry for {node} must be 0/1, got {cell!r}")
                continue
            if flag not in (0, 1):
                issues.append(f"{FEATURES_FILE}:{i}: entry for {node} must be 0/1, got {flag}")
                continue
            entries[(module, node)] = flag
    return FeatureMatrix(entries)


def _load_reporting(path: Path, issues: list[str]) -> list[tuple[str, str]]:
    reporting: list[tuple[str, str]] = []
    if not path.exists():
        issues.append(f"{path}: missing file")
        return reporting
    for i, row in enumerate(csv.reader(path.read_text().splitlines()), start=1):
        if not row or not row[0].strip():
            continue
        name = row[0].strip()
        if i == 1 and name.lower() == "symbol":
            continue
        kind = row[1].strip().lower() if len(row) > 1 and row[1].strip() else LEVEL
        if kind not in (LEVEL, MARGINAL):
            issues.append(f"{REPORTING_FILE}:{i}: kind must be level or marginal, got {kind!r}")
            continue
        reporting.append((name, kind))
    return reporting


def _load_constraints(path: Path, issues: list[str]) -> dict[str, tuple[str, ...]]:
    blocks: dict[str, tuple[str, ...]] = {}
    if not path.exists():
        issues.append(f"{path}: missing file")
        return blocks
    for i, row in enumerate(csv.reader(path.read_text().splitlines()), start=1):
        if not row or not row[0].strip():
            continue
        name = row[0].strip()
        if i == 1 and name.lower() in ("constraint", "block"):
            continue
        choices = tuple(c.strip() for c in row[1:] if c.strip())
        known = CONSTRAINT_BLOCKS.get(name)
        if known is None:
            issues.append(f"{CONSTRAINTS_FILE}:{i}: unknown constraint block {name!r}")
            continue
        bad = [c for c in choices if c not in known]
        if bad:
            issues.append(f"{CONSTRAINTS_FILE}:{i}: unsupported choices {bad} for {name!r}")
            continue
        blocks[name] = choices or known
    return blocks


def _load_fixed_capacities(path: Path, issues: list[str]) -> dict[tuple[str, tuple[str, ...]], float]:
    fixed: dict[tuple[str, tuple[str, ...]], float] = {}
    for i, row in enumerate(_read_rows(path) if path.exists() else [], start=2):
        variable, element, node = ((row.get(name) or "").strip() for name in ("variable", "element", "node"))
        value = _num(row, "value", f"{FIXED_CAPACITIES}:{i}", issues)
        if variable in CAPACITY_FAMILIES:  # keyed as its columns: a line alone, else at a node
            fixed[(variable, (element,) if COST_TERMS[variable].owner == "l" else (element, node))] = value
        else:
            issues.append(f"{FIXED_CAPACITIES}:{i}: unknown capacity variable {variable!r}")
    return fixed


def load_project(root: Path | str) -> Project:
    """Load and validate a whole project directory.

    Raises :class:`ValidationError` carrying every load issue, each
    prefixed with the offending file and row, and after them every
    scenario row's ``issue`` (see
    :func:`~voltaic.scenarios.parse_iteration_table`). A project that loads
    keeps its rows with an issue in ``specs``: they cannot run.
    """
    root = Path(root)
    issues: list[str] = []
    base_layout = ProjectLayout(root)
    pv_path = base_layout.settings / PROJECT_VARIABLES
    if not pv_path.exists():
        raise ValidationError([f"{pv_path}: missing file (is {root} a project?)"])
    config, raw = parse_project_variables(pv_path.read_text(), issues)
    layout = ProjectLayout(
        root,
        static_dir=config.data_input_file,
        timeseries_dir=config.time_series_file,
        iteration_data_dir=config.iteration_data_file,
    )

    data = _load_static(layout, issues)
    series = _load_series_dir(layout.timeseries_input, issues)
    if not config.skip_iteration_data_file:
        for name, ts in _load_series_dir(layout.iteration_data, issues).items():
            if name in series:
                issues.append(f"iteration_data: series {name!r} already defined in base data")
                continue
            series[name] = ts
    data = replace(data, series=series)
    features = _load_features(layout.settings / FEATURES_FILE, data.node_ids(), issues)

    reporting = _load_reporting(layout.settings / REPORTING_FILE, issues)
    blocks = _load_constraints(layout.settings / CONSTRAINTS_FILE, issues)
    fixed = _load_fixed_capacities(layout.static_input / FIXED_CAPACITIES, issues)

    specs: list[ScenarioSpec] = []
    if config.scenarios_iteration:
        if layout.iteration_table.exists():
            try:
                specs = parse_iteration_table(layout.iteration_table.read_text())
            except ValidationError as exc:
                issues.extend(exc.issues)
        else:
            issues.append(f"{layout.iteration_table}: missing file")
    if not specs:
        specs = [ScenarioSpec("base")]

    if config.dispatch_only and not fixed:
        issues.append(
            f"{FIXED_CAPACITIES}: required when dispatch_only is yes (one row per capacity column)"
        )
    issues.extend(validate_system(data, config))
    if issues:
        raise ValidationError(issues + [_row_issue(spec.run_id, spec.issue) for spec in specs if spec.issue])

    return Project(
        root=root,
        data=data,
        config=config,
        features=features,
        specs=specs,
        reporting=reporting,
        constraint_blocks=blocks,
        fixed_capacities=fixed,
        config_echo=raw,
        layout=layout,
    )
